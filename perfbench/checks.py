"""Output checks for the benchmark workloads.

Every check returns a list of error strings; an empty list means the output
is correct.  The checks rest only on documented behaviour of imprand:

* a running-average strategy bets ``1 - xi * (f(x) - lower(f))`` (or
  ``1 - xi * (upper(f) - f(x))``) on selected steps and 1 elsewhere, with
  ``xi = epsilon / (2 B^2)`` and ``B = max(1, max f - min f)``;
* the mixture weights are ``2^-i`` renormalised, and deficiency is log2 of
  the running max of the mixture;
* a stationary system's forecast is the same model at every step, so along
  a path each capital is a product of per-(phase, symbol) factors raised to
  the number of times that pair occurs.

The forecast tables come from an enumeration of the credal set's vertices,
not from the models' own ``lower``/``upper``, so the oracles share no
arithmetic with the code they check.
"""

from __future__ import annotations

import csv
import math
import re
from collections import deque
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from imprand import AnchorGammaModel, EnvelopeModel, LinearModel


def credal_vertices(model) -> List[Tuple[Fraction, ...]]:
    """Extreme points of the credal set of a linear, envelope or pinned
    model.  A pinned model ``AnchorGammaModel(a, gamma)`` is the set of mass
    functions p with ``p . a >= gamma``: the simplex corners that satisfy the
    constraint plus the points where the hyperplane ``p . a = gamma`` cuts a
    simplex edge."""
    if isinstance(model, LinearModel):
        return [tuple(model.pmf.weights)]
    if isinstance(model, EnvelopeModel):
        return [tuple(v.weights) for v in model.vertices]
    if isinstance(model, AnchorGammaModel):
        a, gamma = model.anchor.values, model.gamma
        k = len(a)

        def corner(i, t=Fraction(1), j=None):
            p = [Fraction(0)] * k
            p[i] = t
            if j is not None:
                p[j] = 1 - t
            return tuple(p)

        out = [corner(i) for i in range(k) if a[i] >= gamma]
        for i in range(k):
            for j in range(k):
                if a[i] > gamma > a[j]:
                    out.append(corner(i, (gamma - a[j]) / (a[i] - a[j]), j))
        return out
    raise TypeError(f"no vertex enumeration for {type(model).__name__}")


def _dot(p, g) -> Fraction:
    return sum((pi * gi for pi, gi in zip(p, g)), start=Fraction(0))


def factor_table(model, strategies, period: int) -> List[List[Tuple[Fraction, ...]]]:
    """Exact betting factors ``[strategy][phase][symbol]`` of running-average
    strategies under a stationary model, for phases ``0 .. period-1``."""
    vertices = credal_vertices(model)
    table = []
    for s in strategies:
        f = s.f.values
        bound = max(Fraction(1), max(f) - min(f))
        xi = s.epsilon / (2 * bound * bound)
        means = [_dot(p, f) for p in vertices]
        lo, hi = min(means), max(means)
        one = (Fraction(1),) * len(f)
        if s.direction == "lower":
            bet = tuple(1 - xi * (fx - lo) for fx in f)
        else:
            bet = tuple(1 - xi * (hi - fx) for fx in f)
        sel = s.selection
        rows = []
        for t in range(period):
            selected = sel.kind == "all" or t % sel.modulus == sel.residue
            rows.append(bet if selected else one)
        table.append(rows)
    return table


def log2_weights(count: int) -> np.ndarray:
    """log2 of the renormalised geometric weights 2^-i / sum_j 2^-j."""
    total = math.log2(2 - 2.0 ** (1 - count))
    return -np.arange(count, dtype=np.float64) - total


def exact_weights(count: int) -> List[Fraction]:
    total = 2 - Fraction(1, 2 ** (count - 1))
    return [Fraction(1, 2 ** i) / total for i in range(count)]


def log2_exact(value: Fraction) -> float:
    return math.log2(value.numerator) - math.log2(value.denominator)


class CountOracle:
    """Capitals of depth-periodic strategies along one path, evaluated from
    cumulative (phase, symbol) counts instead of a step-by-step walk."""

    def __init__(self, table, symbols: Sequence[int]):
        self.table = table
        self.B = len(table)
        self.L = len(table[0])
        self.K = len(table[0][0])
        self.symbols = np.asarray(symbols, dtype=np.int64)
        cells = (np.arange(len(self.symbols)) % self.L) * self.K + self.symbols
        onehot = np.zeros((len(self.symbols) + 1, self.L * self.K), dtype=np.int64)
        onehot[np.arange(1, len(self.symbols) + 1), cells] = 1
        self.counts = np.cumsum(onehot, axis=0)  # (N+1, L*K)
        logs = np.array(
            [[math.log2(v) for row in rows for v in row] for rows in table]
        )
        self.log_table = logs  # (B, L*K)
        self._capitals: Dict[int, List[Fraction]] = {}

    def mixture_log2(self) -> np.ndarray:
        """Float log2 mixture at every step 0..N."""
        shifted = self.counts @ self.log_table.T + log2_weights(self.B)
        peak = shifted.max(axis=1)
        return peak + np.log2(np.exp2(shifted - peak[:, None]).sum(axis=1))

    def mixture_log2_at(self, n: int) -> float:
        shifted = self.log_table @ self.counts[n] + log2_weights(self.B)
        peak = shifted.max()
        return float(peak + math.log2(np.exp2(shifted - peak).sum()))

    def capitals_at(self, n: int) -> List[Fraction]:
        """Exact capitals at step n: products of integer powers."""
        if n in self._capitals:
            return self._capitals[n]
        counts = [int(c) for c in self.counts[n]]
        out = []
        for rows in self.table:
            flat = [v for row in rows for v in row]
            num, den = 1, 1
            for v, c in zip(flat, counts):
                if c and v != 1:
                    num *= v.numerator ** c
                    den *= v.denominator ** c
            out.append(Fraction(num, den))
        self._capitals[n] = out
        return out

    def mixture_at(self, n: int) -> Fraction:
        caps = self.capitals_at(n)
        return sum((w * c for w, c in zip(exact_weights(self.B), caps)), start=Fraction(0))


def check_screen(expected: Dict[str, CountOracle], outputs: Dict[str, dict], tol: float = 1e-6) -> List[str]:
    """Each system's mixture at the final step and at its argmax must match
    the count oracle, and the deficiency must be the clipped maximum."""
    errors = []
    for name, oracle in expected.items():
        out = outputs.get(name)
        if out is None:
            errors.append(f"{name}: no result")
            continue
        n_final = len(oracle.symbols)
        if out["steps"] != n_final + 1:
            errors.append(f"{name}: mixture has {out['steps']} entries, expected {n_final + 1}")
            continue
        for label, n, got in (
            ("final", n_final, out["final_log2"]),
            ("argmax", out["argmax"], out["argmax_log2"]),
        ):
            want = oracle.mixture_log2_at(n)
            if not abs(got - want) <= tol:
                errors.append(f"{name}: mixture at {label} step {n} is {got!r}, oracle {want!r}")
        if out["deficiency_bits"] != max(0.0, out["argmax_log2"]):
            errors.append(f"{name}: deficiency {out['deficiency_bits']!r} is not the clipped max")
    return errors


def check_interval(report: dict, f_values: Sequence[Fraction], grid_step: Fraction,
                   threshold: float, recompute) -> List[str]:
    """The grid of an ``estimate-interval`` report must be consistent, and
    ``recompute(side, gamma)`` must reproduce the raw deficiency of the two
    accepted endpoints within 1e-7 bits."""
    errors = []
    lo, hi = min(f_values), max(f_values)
    grid = []
    g = lo
    while g <= hi:
        grid.append(g)
        g += grid_step
    accepted = {}
    for side, points, gammas in (
        ("lower", report.get("lower_grid", []), grid),
        ("upper", report.get("upper_grid", []), grid[::-1]),
    ):
        got = [Fraction(p["gamma"]) for p in points]
        if got != gammas:
            errors.append(f"{side}: grid is not {len(gammas)} points from the gamble range")
            continue
        worst = 0.0
        for p in points:
            raw, repaired = p["raw_bits"], p["repaired_bits"]
            # a sweep may skip (report as inf) the points after the first
            # rejection, since the repaired value can only grow
            if math.isinf(raw) and worst <= threshold:
                errors.append(f"{side} gamma {p['gamma']}: skipped before any rejection")
            worst = max(worst, raw)
            if repaired != worst:
                errors.append(f"{side} gamma {p['gamma']}: repaired {repaired!r} is not the running max {worst!r}")
            if p["accepted"] != (repaired <= threshold):
                errors.append(f"{side} gamma {p['gamma']}: acceptance does not match the threshold")
        accepted[side] = [(Fraction(p["gamma"]), p["raw_bits"]) for p in points if p["accepted"]]
    if errors:
        return errors
    lo_acc = max((g for g, _ in accepted["lower"]), default=lo)
    hi_acc = min((g for g, _ in accepted["upper"]), default=hi)
    lo_acc = min(lo_acc, hi_acc)
    if Fraction(report["lo_accept"]) != lo_acc or Fraction(report["hi_accept"]) != hi_acc:
        errors.append(
            f"endpoints [{report['lo_accept']}, {report['hi_accept']}] are not the "
            f"extreme accepted points [{lo_acc}, {hi_acc}]"
        )
    for side, gamma in (("lower", Fraction(report["lo_accept"])), ("upper", Fraction(report["hi_accept"]))):
        raw = dict(accepted[side]).get(gamma)
        if raw is None:
            continue
        again = recompute(side, gamma)
        if not abs(again - raw) <= 1e-7:
            errors.append(f"{side} endpoint {gamma}: recomputed {again!r} bits, report {raw!r}")
    return errors


_DEFICIENCY_RE = re.compile(r"deficiency (\S+) bits over (\d+) steps \((\d+) strategies\)")


def check_analyze(oracle: CountOracle, exit_code: int, stdout: str, threshold: float,
                  csv_path: str) -> List[str]:
    """Exit code, printed deficiency and the trajectory CSV of ``analyze``
    against the count oracle.  The deficiency is the oracle's exact mixture
    at the step where its float mixture peaks."""
    errors = []
    n = len(oracle.symbols)
    peak_at = int(np.argmax(oracle.mixture_log2()))
    bits = max(0.0, log2_exact(oracle.mixture_at(peak_at)))
    expected_code = 3 if bits >= threshold else 0
    if exit_code != expected_code:
        errors.append(f"analyze exit code {exit_code}, expected {expected_code} for {bits:.6f} bits")
    match = _DEFICIENCY_RE.search(stdout)
    if match is None:
        errors.append("analyze printed no deficiency line")
    else:
        printed = float(match.group(1))
        if not abs(printed - bits) <= 1e-6:
            errors.append(f"printed deficiency {printed} bits, oracle {bits:.9f}")
        if int(match.group(2)) != n or int(match.group(3)) != oracle.B:
            errors.append(f"printed sizes {match.group(2)} steps / {match.group(3)} strategies")

    with open(csv_path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = deque(maxlen=oracle.B)
        count = 0
        for row in reader:
            rows.append(row)
            count += 1
    if header != ["n", "symbol", "strategy_id", "capital_num", "capital_den", "mixture_log2"]:
        errors.append(f"unexpected CSV header {header!r}")
    if count != (n + 1) * oracle.B:
        errors.append(f"CSV has {count} rows, expected {(n + 1) * oracle.B}")
    final = oracle.capitals_at(n)
    final_log2 = log2_exact(oracle.mixture_at(n))
    for i, row in enumerate(rows):
        if len(row) != 6 or row[0] != str(n) or row[2] != str(i):
            errors.append(f"CSV final-step row {i} malformed: {row[:3]}")
            break
        if Fraction(int(row[3]), int(row[4])) != final[i]:
            errors.append(f"CSV capital of strategy {i} at step {n} differs from the oracle")
            break
        if not abs(float(row[5]) - final_log2) <= 1e-9:
            errors.append(f"CSV mixture_log2 {row[5]} at step {n}, oracle {final_log2!r}")
            break
    return errors


def check_adversarial(table, symbols: Sequence[int], length: int, exit_code: int) -> List[str]:
    """An adversarial path must have the requested length, take at every
    step a symbol whose one-step mixture is minimal (ties to the lowest
    symbol, up to float resolution), and end with an exact mixture <= 1."""
    errors = []
    if exit_code != 0:
        errors.append(f"generate exit code {exit_code}, expected 0")
    if len(symbols) != length:
        return errors + [f"adversarial path has {len(symbols)} symbols, expected {length}"]
    oracle = CountOracle(table, symbols)
    L = oracle.L
    logs = oracle.log_table.reshape(oracle.B, L, oracle.K)
    weights_log2 = log2_weights(oracle.B)
    log_cap = np.zeros(oracle.B)
    for depth, x in enumerate(symbols):
        cand = log_cap[:, None] + logs[:, depth % L, :] + weights_log2[:, None]
        peak = cand.max(axis=0)
        mix = peak + np.log2(np.exp2(cand - peak).sum(axis=0))
        slack = 1e-9 * max(1.0, float(np.abs(mix).max()))
        best = mix.min()
        if mix[x] > best + slack or any(mix[y] < mix[x] - slack for y in range(x)):
            errors.append(f"step {depth}: symbol {x} does not minimise the mixture")
            break
        log_cap = log_cap + logs[:, depth % L, x]
    final = oracle.mixture_at(length)
    if final > 1:
        errors.append(f"final exact mixture {float(final)!r} exceeds 1")
    return errors


def check_audit(report: dict, exit_code: int, strategies: int, depth: int) -> List[str]:
    errors = []
    if exit_code != 0:
        errors.append(f"verify exit code {exit_code}, expected 0")
    if report.get("ok") is not True:
        errors.append("verify report is not ok")
    rows = report.get("classification", [])
    if len(rows) != strategies:
        errors.append(f"{len(rows)} classifications, expected {strategies}")
    for row in rows:
        if row.get("depth") != depth or not row.get("test") or row.get("witnesses"):
            errors.append(f"strategy {row.get('strategy')} is not a clean test supermartingale to depth {depth}")
    return errors
