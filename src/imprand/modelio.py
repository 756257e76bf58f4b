"""File formats: JSON models, systems, gambles, batteries and reports,
sequence files, trajectory CSV.  Every file imprand reads or writes goes
through this module, and every malformed input raises :class:`ParseError`.

All rationals travel as decimal-free "p/q" or "n" strings and round-trip
bit-exactly.  Floats appear only in *_log2 / *_bits fields.  Unknown JSON
fields are rejected so that typos fail loudly instead of silently changing
meaning.
"""

from __future__ import annotations

import csv
import decimal
import io
import json
import math
import sys as _sys
from contextlib import contextmanager
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from imprand.core import (
    Gamble,
    ImprandError,
    ModelInvariantError,
    ProbabilityMassFunction,
    SampleSpace,
    format_rational,
    parse_rational,
)
from imprand.lowerexp import (
    AnchorGammaModel,
    AnchorIntervalModel,
    EnvelopeModel,
    LinearModel,
    LowerExpectation,
    VacuousModel,
)
from imprand.forecasting import (
    CyclicSystem,
    ForecastingSystem,
    StationarySystem,
    TableSystem,
)
from imprand.martingale import (
    LLNStrategyParams,
    MultiplierProcess,
    SelectionProcess,
)
from imprand.analysis import Trajectory
from imprand.sequences import SequencePrefix


class ParseError(ImprandError):
    """Malformed file content: bad JSON, unknown fields, bad rationals."""


def _require_fields(obj: dict, required: set, optional: set, context: str) -> None:
    if not isinstance(obj, dict):
        raise ParseError(f"{context}: expected a JSON object, got {type(obj).__name__}")
    keys = set(obj)
    unknown = keys - required - optional
    if unknown:
        raise ParseError(f"{context}: unknown fields {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise ParseError(f"{context}: missing fields {sorted(missing)}")


def _rational(text, context: str) -> Fraction:
    try:
        return parse_rational(text)
    except ModelInvariantError as exc:
        raise ParseError(f"{context}: {exc}") from None


def _rational_vector(values, size: int, context: str) -> Tuple[Fraction, ...]:
    """One rational per symbol of a size-symbol space; context names the entry."""
    if not isinstance(values, list):
        raise ParseError(f"{context}: expected a list of rational strings")
    if len(values) != size:
        raise ParseError(f"{context} has {len(values)} entries for a {size}-symbol space")
    return tuple(_rational(v, context) for v in values)


def _alphabet(tokens, where: str) -> SampleSpace:
    try:  # a bad alphabet breaks the file's format
        return SampleSpace(tuple(tokens))
    except ModelInvariantError as exc:
        raise ParseError(f"{where}: {exc}") from None


def _indices(space: SampleSpace, tokens, where: str) -> Tuple[int, ...]:
    """Each token's index, read from one dict per call; the first unknown
    token is named as :meth:`SampleSpace.index_of` names it."""
    index = {t: i for i, t in enumerate(space.symbols)}
    try:
        return tuple(map(index.__getitem__, tokens))
    except KeyError as unknown:
        try:
            space.index_of(unknown.args[0])
        except ModelInvariantError as exc:
            raise ParseError(f"{where}: {exc}") from None
        raise


def _space_from(obj: dict, context: str) -> SampleSpace:
    alphabet = obj.get("alphabet")
    if not isinstance(alphabet, list) or not all(isinstance(t, str) for t in alphabet):
        raise ParseError(f"{context}: 'alphabet' must be a list of strings")
    return _alphabet(alphabet, context)


@contextmanager
def _named(context: str):
    """A model's own invariant (exit 2), its message prefixed with the file and
    entry it came from; models on different alphabets break one too."""
    try:
        yield
    except ModelInvariantError as exc:
        raise ModelInvariantError(f"{context}: {exc}") from None


_MODEL_FIELDS = {
    "linear": {"vertices"},
    "envelope": {"vertices"},
    "vacuous": set(),
    "gamma_f": {"gamma", "anchor"},
    "interval_f": {"interval", "anchor"},
}


def model_from_dict(obj: dict, context: str = "model") -> LowerExpectation:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(f"{context}: missing 'kind'")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _MODEL_FIELDS:
        raise ParseError(f"{context}: unknown kind {kind!r}")
    _require_fields(obj, {"alphabet", "kind"} | _MODEL_FIELDS[kind], set(), context)
    space = _space_from(obj, context)
    with _named(context):
        if kind == "vacuous":
            return VacuousModel(space)
        if kind in ("linear", "envelope"):
            rows = obj["vertices"]
            if not isinstance(rows, list) or not rows:
                raise ParseError(f"{context}: 'vertices' must be a non-empty list")
            if kind == "linear" and len(rows) != 1:
                raise ParseError(f"{context}: linear model takes exactly one vertex")
            pmfs = tuple(
                ProbabilityMassFunction(
                    space, _rational_vector(row, space.size, f"{context}: vertices[{k}]"))
                for k, row in enumerate(rows)
            )
            return LinearModel(pmfs[0]) if kind == "linear" else EnvelopeModel(pmfs)
        anchor = Gamble(space, _rational_vector(obj["anchor"], space.size, f"{context}: anchor"))
        if kind == "gamma_f":
            return AnchorGammaModel(anchor=anchor, gamma=_rational(obj["gamma"], context))
        interval = obj["interval"]
        if not isinstance(interval, list) or len(interval) != 2:
            raise ParseError(f"{context}: 'interval' must be a two-element list")
        return AnchorIntervalModel(
            anchor, _rational(interval[0], context), _rational(interval[1], context))


def model_to_dict(model: LowerExpectation) -> dict:
    out = {"alphabet": list(model.space.symbols)}
    if isinstance(model, VacuousModel):
        out["kind"] = "vacuous"
    elif isinstance(model, EnvelopeModel):
        out["kind"] = "linear" if isinstance(model, LinearModel) else "envelope"
        out["vertices"] = [[format_rational(w) for w in v.weights] for v in model.vertices]
    elif isinstance(model, AnchorIntervalModel):
        out["anchor"] = [format_rational(v) for v in model.anchor.values]
        if isinstance(model, AnchorGammaModel):
            out["kind"] = "gamma_f"
            out["gamma"] = format_rational(model.lo)
        else:
            out["kind"] = "interval_f"
            out["interval"] = [format_rational(model.lo), format_rational(model.hi)]
    else:
        raise ModelInvariantError(f"cannot serialize model type {type(model).__name__}")
    return out


def load_model(path) -> LowerExpectation:
    return model_from_dict(_load_json(path), context=str(path))


def save_model(model: LowerExpectation, path) -> None:
    _dump_json(model_to_dict(model), path)


def _read_text(path) -> str:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a leading BOM is dropped
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def _load_json(path):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None


def _dump_json(obj, path: Optional[str]) -> None:
    """Sorted, indented JSON to path, or to stdout when there is none (None or "")."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if not path:
        _sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _situation_rows(rows, field: str, space: SampleSpace, context: str, parse) -> dict:
    """Rows {"situation": token list, field: value}, each situation given once."""
    if not isinstance(rows, list):
        raise ParseError(f"{context}: expected a list of rows")
    table: dict = {}
    for idx, row in enumerate(rows):
        where = f"{context}[{idx}]"
        _require_fields(row, {"situation", field}, set(), where)
        tokens = row["situation"]
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise ParseError(f"{where}: 'situation' must be a list of token strings")
        key = _indices(space, tokens, where)
        if key in table:
            raise ParseError(f"{where}: situation {tokens} is given twice")
        table[key] = parse(row[field], where)
    return table


def system_from_dict(obj: dict, context: str = "system") -> ForecastingSystem:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(f"{context}: missing 'kind'")
    kind = obj["kind"]
    if kind == "stationary":
        _require_fields(obj, {"kind", "models"}, set(), context)
        models = obj["models"]
        if not isinstance(models, list) or len(models) != 1:
            raise ParseError(f"{context}: stationary system takes exactly one model")
        return StationarySystem(model_from_dict(models[0], context))
    if kind == "cyclic":
        _require_fields(obj, {"kind", "models"}, set(), context)
        models = obj["models"]
        if not isinstance(models, list) or not models:
            raise ParseError(f"{context}: cyclic system needs a non-empty model list")
        parsed = tuple(model_from_dict(m, f"{context}: models[{k}]")
                       for k, m in enumerate(models))
        with _named(context):
            return CyclicSystem(parsed)
    if kind == "table":
        _require_fields(obj, {"kind", "table", "default"}, set(), context)
        default = model_from_dict(obj["default"], context)
        table = _situation_rows(obj["table"], "model", default.space, context, model_from_dict)
        with _named(context):
            return TableSystem(table=table, default=default)
    raise ParseError(f"{context}: unknown system kind {kind!r}")


def system_to_dict(sys: ForecastingSystem) -> dict:
    if isinstance(sys, CyclicSystem):
        kind = "stationary" if isinstance(sys, StationarySystem) else "cyclic"
        return {"kind": kind, "models": [model_to_dict(m) for m in sys.models]}
    if isinstance(sys, TableSystem):
        return {
            "kind": "table",
            "default": model_to_dict(sys.default),
            "table": [
                {
                    "situation": [sys.space.symbols[i] for i in key],
                    "model": model_to_dict(m),
                }
                for key, m in sorted(sys.table.items())
            ],
        }
    raise ModelInvariantError(f"cannot serialize system type {type(sys).__name__}")


def load_system(path) -> ForecastingSystem:
    return system_from_dict(_load_json(path), context=str(path))


def save_system(sys: ForecastingSystem, path) -> None:
    _dump_json(system_to_dict(sys), path)


def gamble_from_dict(obj: dict, context: str = "gamble") -> Gamble:
    _require_fields(obj, {"alphabet", "values"}, set(), context)
    space = _space_from(obj, context)
    return Gamble(space, _rational_vector(obj["values"], space.size, f"{context}: values"))


def gamble_to_dict(g: Gamble) -> dict:
    return {
        "alphabet": list(g.space.symbols),
        "values": [format_rational(v) for v in g.values],
    }


def load_gamble(path) -> Gamble:
    return gamble_from_dict(_load_json(path), context=str(path))


def _selection_from_dict(obj: dict, context: str) -> SelectionProcess:
    _require_fields(obj, {"kind"}, {"m", "i"}, context)
    kind = obj["kind"]
    if kind == "all":
        _require_fields(obj, {"kind"}, set(), context)
        return SelectionProcess.all_ones()
    if kind == "residue":
        if "m" not in obj or "i" not in obj:
            raise ParseError(f"{context}: residue selection needs 'm' and 'i'")
        for key in ("m", "i"):
            # bool is an int subclass; JSON true is not a modulus
            if type(obj[key]) is not int:
                raise ParseError(f"{context}: '{key}' must be a JSON integer, got {obj[key]!r}")
        return SelectionProcess.residue_class(obj["m"], obj["i"])
    raise ParseError(f"{context}: unknown selection kind {kind!r}")


BatteryEntry = Union[LLNStrategyParams, MultiplierProcess]


def battery_from_list(
    entries: list, space: SampleSpace, context: str = "battery"
) -> Tuple[BatteryEntry, ...]:
    """``lln`` entries stay parameters, built against a system by the caller; a
    ``multiplier`` entry with no rows is constant (period 1), else path-keyed."""
    if not isinstance(entries, list) or not entries:
        raise ParseError(f"{context}: expected a non-empty list of strategies")
    out: List[BatteryEntry] = []

    def gamble(values, at: str) -> Gamble:
        return Gamble(space, _rational_vector(values, space.size, at))

    for idx, entry in enumerate(entries):
        where = f"{context}[{idx}]"
        if not isinstance(entry, dict) or "type" not in entry:
            raise ParseError(f"{where}: missing 'type'")
        if entry["type"] == "lln":
            _require_fields(
                entry, {"type", "gamble", "direction", "epsilon", "selection"}, set(), where
            )
            if (direction := entry["direction"]) not in ("lower", "upper"):
                raise ParseError(f"{where}: direction must be lower|upper, got {direction!r}")
            with _named(where):  # an epsilon outside (0, B) breaks the strategy's invariant
                out.append(LLNStrategyParams(
                    gamble(entry["gamble"], f"{where}: gamble"), direction,
                    _rational(entry["epsilon"], where),
                    _selection_from_dict(entry["selection"], where)))
        elif entry["type"] == "multiplier":
            _require_fields(entry, {"type", "rows", "default"}, set(), where)
            default = gamble(entry["default"], f"{where}: default")
            rows = _situation_rows(entry["rows"], "factor", space, where,
                                   lambda v, at: gamble(v, f"{at}: factor"))
            out.append(
                MultiplierProcess(space, lambda s, r=rows, d=default: r.get(s.symbols, d))
                if rows else MultiplierProcess.constant(space, default)
            )
        else:
            raise ParseError(f"{where}: unknown strategy type {entry['type']!r}")
    return tuple(out)


def load_battery(path, space: SampleSpace) -> Tuple[BatteryEntry, ...]:
    return battery_from_list(_load_json(path), space, context=str(path))


_HEADER_PREFIX = "# alphabet:"


def _check_symbols(space: SampleSpace, context) -> None:
    """A data line starting with '#' reads as a comment, so no symbol may."""
    for t in space.symbols:
        if t.startswith("#"):
            raise ParseError(f"{context}: symbol {t!r} starts with '#', which sequence "
                             "files read as a comment")


def write_sequence(prefix: SequencePrefix, path) -> None:
    """Whitespace-separated UTF-8 tokens with an alphabet header; wraps long
    sequences for readability.  No symbol may start with '#'."""
    _check_symbols(prefix.space, path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_HEADER_PREFIX} {' '.join(prefix.space.symbols)}\n")
        tokens = prefix.tokens()
        for start in range(0, len(tokens), 40):
            fh.write(" ".join(tokens[start : start + 40]) + "\n")


def read_sequence(path, space: Optional[SampleSpace] = None) -> SequencePrefix:
    """Parse a sequence file; the alphabet comes from the header unless a
    space is supplied, in which case each header must agree with it (a model
    invariant, exit 2, naming the header's line).  Lines starting with '#'
    are comments, so neither alphabet may have a symbol that does."""
    if space is not None:
        _check_symbols(space, path)
    header = None
    symbols: List[int] = []
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        where = f"{path}:{lineno}"
        if stripped.startswith("#"):
            if stripped.startswith(_HEADER_PREFIX):
                declared = _alphabet(stripped[len(_HEADER_PREFIX) :].split(), where)
                _check_symbols(declared, where)
                if header is not None and declared != header:
                    # the symbols read so far were indexed in the first one
                    raise ParseError(f"{where}: alphabet {declared.symbols!r} differs "
                                     f"from the earlier header's {header.symbols!r}")
                if space is not None and declared != space:
                    raise ModelInvariantError(f"{where}: alphabet {declared.symbols!r} "
                                              f"differs from the other inputs' {space.symbols!r}")
                header = declared
            continue
        if space is None and header is None:
            raise ParseError(f"{where}: data before any '{_HEADER_PREFIX}' header "
                             "and no alphabet supplied")
        symbols += _indices(space or header, stripped.split(), where)
    final = space or header
    if final is None:
        raise ParseError(f"{path}: no alphabet header and none supplied")
    return SequencePrefix._trusted(final, tuple(symbols))


# Capitals are carried as exact decimal integers: multiplying or dividing by a
# small int and str() take time linear in the digits, where converting a big
# int to decimal takes time quadratic in them.  An inexact result raises.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation],
)


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    """One row per (step, strategy): exact capital plus the float mixture
    log2 at that step (-inf once the mixture is 0).  Step 0 has no symbol.
    The file is written a step at a time: each strategy's reduced capital N/D is
    kept as two decimal integers and takes each factor a/b by Fraction's product
    rule (g1 = gcd(N, b), g2 = gcd(a, D), then (N/g1)(a/g2) over (D/g2)(b/g1)),
    so no big int is ever converted to decimal and Python's int-to-str digit
    limit does not apply.  Each a and b is read once per (phase, symbol) of the
    trajectory's factor tables, and the gcds are skipped for a strategy whose
    table's numerators share no prime with its denominators: they are then 1."""
    prefix = trajectory.prefix
    if not trajectory.factors:
        raise ModelInvariantError("trajectory has no strategies")
    capitals = [(decimal.Decimal(1),) * 2] * len(trajectory.factors)  # N, D ...
    text = [f"{i},1,1" for i in range(len(capitals))]  # ... and "i,N,D" of each
    pairs = [[[(f.numerator, f.denominator) for f in row] for row in rows]
             for rows in trajectory.factors]  # each strategy's (a, b) per (phase, symbol)
    reduce = [math.gcd(math.prod({a for row in t for a, _ in row if a}),  # can a gcd be > 1
                       math.prod({b for row in t for _, b in row})) > 1 for t in pairs]
    with open(path, "w", encoding="utf-8", newline="") as fh, \
            decimal.localcontext(_EXACT):
        writer = csv.writer(fh)
        writer.writerow(
            ["n", "symbol", "strategy_id", "capital_num", "capital_den", "mixture_log2"]
        )
        # only a symbol can need quoting: each symbol's field comes from a csv
        # writer once (a symbol holds no whitespace, so no line terminator)
        end = writer.dialect.lineterminator
        quoted = io.StringIO()
        csv.writer(quoted).writerows([t] for t in prefix.space.symbols)
        fields = quoted.getvalue().split(end)
        for n in range(len(prefix) + 1):
            for i, rows in enumerate(pairs if n else ()):  # Trajectory.factors' rule
                a, b = rows[(n - 1) % len(rows)][prefix.symbols[n - 1]]
                if a == b:
                    continue  # a factor 1: the capital and its text stand
                N, D = capitals[i]
                if not a:  # 0/1 takes every later factor by the full rule
                    N, D, reduce[i] = decimal.Decimal(0), decimal.Decimal(1), True
                elif reduce[i]:
                    g1, g2 = math.gcd(int(N % b), b), math.gcd(a, int(D % a))
                    N = (N / g1 if g1 > 1 else N) * (a // g2)
                    D = (D / g2 if g2 > 1 else D) * (b // g1)
                else:
                    N, D = N * a, D * b
                capitals[i], text[i] = (N, D), f"{i},{N!s},{D!s}"
            # the step's rows, joined around their shared head and tail
            head = f"{n},{fields[prefix.symbols[n - 1]] if n else ''},"
            tail = f",{trajectory.mixture_log2[n]!r}{end}"
            fh.write(head + (tail + head).join(text) + tail)
