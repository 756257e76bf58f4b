"""Command-line surface: batch analysis, interval estimation, sequence
generation, verification and running averages.

Exit codes: 0 success, 1 parse or I/O error, 2 model-invariant violation,
3 deficiency at or above the threshold (analyze only).  Every run is a pure
function of its input files, flags and seed.
"""

from __future__ import annotations

import argparse
import math
import sys as _sys
from typing import List, Optional

from imprand.analysis import (
    check_running_average,
    estimate_interval,
    run_battery,
)
from imprand.core import (
    Gamble,
    ImprandError,
    ModelInvariantError,
    ProbabilityMassFunction,
    _check_same_space,
    _log2_at_least,
    format_rational,
    parse_rational,
)
from imprand.lowerexp import EnvelopeModel, check_coherence
from imprand.martingale import (
    LLNStrategyParams,
    SelectionProcess,
    classify_process,
    from_multiplier,
    lln_strategy,
)
from imprand.modelio import (
    ParseError,
    _dump_json,
    _load_json,
    _named,
    load_battery,
    load_gamble,
    load_model,
    load_system,
    model_from_dict,
    read_sequence,
    write_sequence,
    write_trajectory_csv,
)
from imprand.sequences import GeneratorSpec, generate

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVARIANT = 2
EXIT_THRESHOLD = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; route through the parse-error code path
    def error(self, message):
        raise ParseError(message)


def _threshold_bits(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def _grid_step(text: str):
    try:
        return parse_rational(text)
    except ModelInvariantError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _moduli(text: str) -> tuple:
    try:
        return tuple(int(m) for m in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated integers: {text!r}") from None


def _selection(text: str) -> SelectionProcess:
    if text == "all":
        return SelectionProcess.all_ones()
    parts = text.split(":")
    if len(parts) == 3 and parts[0] == "residue":
        try:
            m, i = int(parts[1]), int(parts[2])
        except ValueError:
            pass
        else:
            return SelectionProcess.residue_class(m, i)  # a bad class is a model invariant
    raise argparse.ArgumentTypeError(f"must be 'all' or 'residue:m:i', got {text!r}")


def _system_and_battery(args):
    system = load_system(args.system)
    return system, tuple(
        lln_strategy(e, system) if isinstance(e, LLNStrategyParams) else e
        for e in load_battery(args.battery, system.space)
    )


_AUDIT_BUDGET = 2**20  # (strategy, situation) pairs one audit may sweep


def _audit(system, battery, depth):
    """Classify each member's capital process to depth, in battery order, once
    the sweep's B * sum_{d<=depth} K^d (strategy, situation) pairs fit the budget."""
    K, B = system.space.size, len(battery)
    pairs, level = 0, B
    for _ in range(depth + 1):  # level by level: K^depth itself may be too large
        pairs, level = pairs + level, level * K
        if pairs > _AUDIT_BUDGET:
            raise ModelInvariantError(
                f"audit to depth {depth} sweeps K^depth = {K}^{depth} situations "
                f"at its deepest level for each of B = {B} strategies, over the "
                f"budget of {_AUDIT_BUDGET} (strategy, situation) pairs"
            )
    for member in battery:
        yield classify_process(from_multiplier(member), system, depth)


def _cmd_analyze(args) -> int:
    if args.format == "csv" and args.out == "":
        raise ParseError("--out is empty: --format csv writes its trajectory to a file")
    system, battery = _system_and_battery(args)
    prefix = read_sequence(args.sequence, system.space)
    if args.audit_depth is not None:
        for i, c in enumerate(_audit(system, battery, args.audit_depth)):
            if not c.test:
                raise ModelInvariantError(
                    f"battery member {i} is not a test supermartingale "
                    f"to depth {args.audit_depth}: witnesses {c.witnesses[:3]}"
                )
    trajectory = run_battery(prefix, system, battery)
    report = {
        "steps": len(prefix),
        "strategies": len(battery),
        "deficiency_bits": trajectory.deficiency_bits,
        "threshold_bits": args.threshold_bits,
        "exceeded": _log2_at_least(trajectory.mixture_max, args.threshold_bits),
        "mixture_max": format_rational(trajectory.mixture_max),
        "argmax_step": trajectory.argmax_step,
    }
    if args.format == "json":
        _dump_json(report, args.out)
    elif args.out:
        write_trajectory_csv(trajectory, args.out)
    print(
        f"deficiency {trajectory.deficiency_bits:.6f} bits over {len(prefix)} steps "
        f"({len(battery)} strategies)"
    )
    return EXIT_THRESHOLD if report["exceeded"] else EXIT_OK


def _grid_report(grid) -> List[dict]:
    return [
        {
            "gamma": format_rational(p.gamma),
            "raw_bits": p.raw_bits,
            "repaired_bits": p.repaired_bits,
            "accepted": p.accepted,
        }
        for p in grid
    ]


def _cmd_estimate_interval(args) -> int:
    f = load_gamble(args.gamble)
    prefix = read_sequence(args.sequence, f.space)
    estimate = estimate_interval(
        prefix,
        f,
        threshold_bits=args.threshold_bits,
        grid_step=args.grid_step,
        selection_moduli=args.selection_moduli,
    )
    report = {
        "gamble": [format_rational(v) for v in f.values],
        "lo_accept": format_rational(estimate.lo_accept),
        "hi_accept": format_rational(estimate.hi_accept),
        "threshold_bits": estimate.threshold_bits,
        "grid_step": format_rational(estimate.grid_step),
        "lower_grid": _grid_report(estimate.lower_grid),
        "upper_grid": _grid_report(estimate.upper_grid),
    }
    _dump_json(report, args.out)
    print(
        f"accepted interval [{format_rational(estimate.lo_accept)}, "
        f"{format_rational(estimate.hi_accept)}]"
    )
    return EXIT_OK


def _pmfs_from_model_file(path) -> List[ProbabilityMassFunction]:
    obj = _load_json(path)
    items = obj if isinstance(obj, list) else [obj]
    pmfs = []
    for i, item in enumerate(items):
        model = model_from_dict(item, context=f"{path}[{i}]")
        if not (isinstance(model, EnvelopeModel) and len(model.vertices) == 1):
            raise ParseError(f"{path}[{i}]: generation needs linear models")
        pmfs.append(model.vertices[0])
    return pmfs


def _cmd_generate(args) -> int:
    if args.kind in ("iid", "cyclic"):
        if not args.models:
            raise ParseError(f"--models is required for kind {args.kind}")
        pmfs = _pmfs_from_model_file(args.models)
        if args.kind == "iid" and len(pmfs) != 1:
            raise ParseError("iid generation takes exactly one mass function")
        spec = GeneratorSpec.cyclic(pmfs, args.length, args.seed)
    else:
        if not args.system or not args.battery:
            raise ParseError("adversarial generation needs --system and --battery")
        spec = GeneratorSpec.adversarial(_system_and_battery(args)[1], args.length)
    prefix = generate(spec)
    write_sequence(prefix, args.out)
    print(f"wrote {len(prefix)} symbols to {args.out}")
    return EXIT_OK


def _default_probes(space) -> List[Gamble]:
    indicators = [Gamble.indicator(space, t) for t in space.symbols]
    probes = list(indicators)
    probes.extend(-g for g in indicators)
    probes.append(Gamble.constant(space, 1))
    for i in range(len(indicators)):
        for j in range(i + 1, len(indicators)):
            probes.append(indicators[i] - indicators[j])
    return probes


def _cmd_verify(args) -> int:
    if not args.model and not args.system:
        raise ParseError("verify needs --model and/or --system with --battery")
    report: dict = {}
    ok = True

    if args.model:
        model = load_model(args.model)
        coherence = check_coherence(model, _default_probes(model.space))
        report["coherence"] = {
            "ok": coherence.ok,
            "violations": [
                {"axiom": v.axiom, "detail": v.detail} for v in coherence.violations
            ],
        }
        ok = ok and coherence.ok

    if args.system:
        if not args.battery:
            raise ParseError("verify --system needs --battery")
        classifications = [
            {
                "strategy": i,
                "depth": c.depth,
                "supermartingale": c.supermartingale,
                "strict": c.strict,
                "submartingale": c.submartingale,
                "non_negative": c.non_negative,
                "test": c.test,
                "witnesses": [
                    {"situation": list(tokens), "value": value}
                    for tokens, value in c.witnesses
                ],
            }
            for i, c in enumerate(_audit(*_system_and_battery(args), args.depth))
        ]
        ok = ok and all(c["test"] for c in classifications)
        report["classification"] = classifications

    report["ok"] = ok
    _dump_json(report, args.out)
    return EXIT_OK if ok else EXIT_INVARIANT


def _cmd_average(args) -> int:
    f = load_gamble(args.gamble)
    system = load_system(args.system)
    with _named(f"{args.gamble} against {args.system}"):  # before the data is read
        _check_same_space(f, system)
    prefix = read_sequence(args.sequence, f.space)
    result = check_running_average(prefix, f, args.selection, system)

    def fmt(v):
        return None if v is None else format_rational(v)

    report = {
        "selected_count": result.selected_count,
        "average": fmt(result.average),
        "average_above_lower": fmt(result.average_above_lower),
        "average_below_upper": fmt(result.average_below_upper),
    }
    _dump_json(report, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="imprand",
        description=(
            "Betting-based randomness analysis of finite-alphabet sequences "
            "against imprecise probability models."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run a strategy battery along data")
    analyze.add_argument("--system", required=True)
    analyze.add_argument("--battery", required=True)
    analyze.add_argument("--sequence", required=True)
    analyze.add_argument("--threshold-bits", type=_threshold_bits, default=10.0)
    analyze.add_argument("--audit-depth", type=int, default=None)
    analyze.add_argument("--out")
    analyze.add_argument("--format", choices=("csv", "json"), default="csv")
    analyze.set_defaults(handler=_cmd_analyze)

    est = sub.add_parser(
        "estimate-interval", help="accepted expectation interval for a gamble"
    )
    est.add_argument("--gamble", required=True)
    est.add_argument("--sequence", required=True)
    est.add_argument("--threshold-bits", type=_threshold_bits, default=10.0)
    est.add_argument("--grid-step", type=_grid_step, default="1/16")
    est.add_argument("--selection-moduli", type=_moduli, default="1,2,3,4")
    est.add_argument("--out")
    est.set_defaults(handler=_cmd_estimate_interval)

    gen = sub.add_parser("generate", help="produce a test sequence")
    gen.add_argument("--kind", choices=("iid", "cyclic", "adversarial"), required=True)
    gen.add_argument("--models")
    gen.add_argument("--system")
    gen.add_argument("--battery")
    gen.add_argument("--length", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(handler=_cmd_generate)

    verify = sub.add_parser("verify", help="coherence and supermartingale checks")
    verify.add_argument("--model")
    verify.add_argument("--system")
    verify.add_argument("--battery")
    verify.add_argument("--depth", type=int, default=6)
    verify.add_argument("--out")
    verify.set_defaults(handler=_cmd_verify)

    avg = sub.add_parser("average", help="selected running averages of a gamble")
    avg.add_argument("--gamble", required=True)
    avg.add_argument("--system", required=True)
    avg.add_argument("--sequence", required=True)
    avg.add_argument("--selection", type=_selection, default="all")
    avg.add_argument("--out")
    avg.set_defaults(handler=_cmd_average)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    # exact capitals outgrow Python's 4300-digit int-to-str limit within a few
    # thousand steps; the integers written are ones the run computed
    digits = _sys.get_int_max_str_digits()
    _sys.set_int_max_str_digits(0)
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except ModelInvariantError as exc:  # a space mismatch is one
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INVARIANT
    except (ImprandError, OSError) as exc:  # a ParseError is one
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_PARSE
    finally:
        _sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    raise SystemExit(main())
