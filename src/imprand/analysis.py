"""Randomness analysis: battery runs, deficiency, running-average checks and
expectation-interval estimation.

Deficiency of a prefix against a forecasting system is the log2 of the
running max of the renormalized geometric-weight mixture of the battery's
capital processes.  High deficiency is evidence against the model; under a
correct precise model the mixture is a test supermartingale, so deficiency
of k bits or more has probability at most 2^-k.

Two evaluation paths are provided.  ``run_battery`` is exact rational
arithmetic over explicit multiplier processes.  ``run_battery_fast`` handles
systems and selections with a ``period``: every betting factor then depends
only on depth modulo a small period L, so both paths keep each member's exact
factors once per phase in one table, ``Trajectory.factors``, read by one rule.
The float path compiles a battery once for one system period, numbering
the bet each member places at each phase; it builds each distinct bet's row
once and shares it between the members that place it, and its log2 capitals
are the rows' log2s times the prefix's cumulative (phase, symbol) counts, in
blocks of steps.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from imprand.core import (
    Gamble,
    ModelInvariantError,
    SampleSpace,
    _check_same_space,
    _log2_band,
    _log2_ratio,
    as_rational,
    log2_rational,
)
from imprand.forecasting import (
    ForecastingSystem,
    Situation,
    StationarySystem,
    joint_period,
)
from imprand.lowerexp import AnchorIntervalModel
from imprand.martingale import (
    LLNStrategyParams,
    MultiplierProcess,
    SelectionProcess,
    _column_rule,
    _lln_bound,
    _over_common_denominator,
    mixture_weights,
)
from imprand.sequences import SequencePrefix


@dataclass(frozen=True)
class Trajectory:
    """Exact evidence of a battery along a prefix.

    ``factors[i]`` holds member i's K factor values once per phase, min(period, N)
    rows with a period and N without; by one rule it took ``factors[i][n %
    len(factors[i])][x]`` at step n + 1 on symbol x.  Its capital at step n is
    the product of its first n factors, a non-negative rational (a factor may be
    0).  ``mixture_log2[n]`` is the log2 of the mixture at step n (``-inf`` once
    it is 0), and ``mixture_max`` is its exact value at ``argmax_step``, the
    first maximum.  The mixture starts at 1 so deficiency is never negative.
    """

    prefix: SequencePrefix
    factors: Tuple[Tuple[Tuple[Fraction, ...], ...], ...]
    mixture_log2: Tuple[float, ...]
    mixture_max: Fraction
    deficiency_bits: float
    argmax_step: int


def run_battery(
    prefix: SequencePrefix,
    sys: ForecastingSystem,
    battery: Sequence[MultiplierProcess],
    threads: int = 1,
) -> Trajectory:
    """Exact battery evaluation along a prefix; it only walks (an audit of a
    member is ``classify_process(from_multiplier(member), sys, depth)``).
    A member with a period is asked once per phase the prefix reaches, members
    without one share each step's situation, and the walks of different periods
    run on a pool of ``threads`` worker threads (>= 1).  The mixture takes
    each step's factors by _column_rule, once per (phase, symbol) with a period."""
    battery = list(battery)
    if not battery:
        raise ModelInvariantError("battery must be non-empty")
    if threads < 1:
        raise ModelInvariantError(f"threads must be at least 1, got {threads}")
    for part in (*battery, sys):
        _check_same_space(prefix, part)

    def walk(period: Optional[int]) -> List[Tuple[Tuple[Fraction, ...], ...]]:
        """The factor values of each member of the period at each phase reached."""
        members = [D for D in battery if D.period == period]
        # a path reaches each depth once: without a period each depth is a phase
        reached = len(prefix) if period is None else min(period, len(prefix))
        rows: List[list] = [[] for _ in members]
        for t in range(reached):
            s = prefix.situation(t)
            for member, row in zip(members, rows):
                row.append(member.factor(s).values)
        return [tuple(row) for row in rows]

    # imported here: it would add about 6 ms to every import of imprand
    from concurrent.futures import ThreadPoolExecutor

    periods = list(dict.fromkeys(D.period for D in battery))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        walks = dict(zip(periods, map(iter, pool.map(walk, periods))))
    taken = tuple(next(walks[D.period]) for D in battery)

    # One pass over the mixture sum(w_i * c_i) as integers A_i over one
    # denominator, each step scaling A_i by its factor over the step's common
    # denominator q.  Every prime of den divides base, the lcm of the weights'
    # and the steps' q, so gcd(S % base, den % base, base) takes each prime that
    # the step's sum S shares with den, in time linear in the digits; a prime
    # shared more often than base holds needs a second round or, past that, one
    # math.gcd.  The reduced pair is the Fraction's, so its log2 is
    # log2_rational's, bit for bit.  Only the best pair so far is kept: floats
    # decide outside its _log2_band, exact values inside (strictly: the first maximum).
    den, weighted = _over_common_denominator(mixture_weights(len(battery)))
    base, best, best_at, logs = den, (1, 1), 0, [0.0]  # the weights sum to 1
    _, column = _column_rule([D.period for D in battery])
    for n, x in enumerate(prefix.symbols, start=1):
        q, nums = column(n - 1, x, taken)
        weighted = [a * m for a, m in zip(weighted, nums)]
        den *= q
        base = math.lcm(base, q)
        num, d = sum(weighted), den
        for r in range(3 if num else 0):  # two rounds mod base, then one gcd
            h = math.gcd(num % base, d % base, base) if r < 2 else math.gcd(num, d)
            if h == 1:
                break
            num, d = num // h, d // h
        logs.append(_log2_ratio(num, d) if num else -math.inf)
        top = logs[best_at]
        b = _log2_band(top)
        if logs[n] > top + b or (logs[n] >= top - b and num * best[1] > best[0] * d):
            best, best_at = (num, d), n

    return Trajectory(
        prefix=prefix,
        factors=taken,
        mixture_log2=tuple(logs),
        mixture_max=Fraction(*best),
        deficiency_bits=max(0.0, logs[best_at]),
        argmax_step=best_at,
    )


_EPSILON_FACTORS = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16))


def battery_for_gambles(
    gambles: Sequence[Gamble],
    selection_moduli: Sequence[int] = (1, 2, 3, 4),
    directions: Sequence[str] = ("lower", "upper"),
) -> Tuple[LLNStrategyParams, ...]:
    """Strategy family over explicit gambles: both directions, a geometric
    ladder of epsilons scaled by each gamble's bound B, and all
    residue-class selections up to the given moduli (modulus 1 selects
    every step).

    Ordering matters: mixture weight 2^-i penalizes battery index i by i
    bits, so stronger strategies (larger epsilon, unconditional selection)
    come first.
    """
    gambles = list(gambles)
    if not gambles:
        raise ModelInvariantError("battery needs at least one gamble")
    for g in gambles[1:]:
        _check_same_space(gambles[0], g)
    selections: List[SelectionProcess] = []
    for n, m in enumerate(selection_moduli):
        if m < 1:
            raise ModelInvariantError(f"selection modulus must be at least 1, got {m}")
        if m in selection_moduli[:n]:
            raise ModelInvariantError(f"selection moduli must be distinct, got {m} twice")
        selections.extend(SelectionProcess.residue_class(m, i) for i in range(m))
    battery = []
    for g in gambles:
        bound = _lln_bound(g)
        for direction in directions:
            for factor in _EPSILON_FACTORS:
                for sel in selections:
                    battery.append(
                        LLNStrategyParams(
                            f=g,
                            direction=direction,
                            epsilon=factor * bound,
                            selection=sel,
                        )
                    )
    return tuple(battery)


def default_battery(
    space: SampleSpace,
    user_gambles: Sequence[Gamble] = (),
    selection_moduli: Sequence[int] = (1, 2, 3, 4),
) -> Tuple[LLNStrategyParams, ...]:
    """The standard battery: every symbol indicator plus any user gambles,
    expanded by :func:`battery_for_gambles`."""
    indicators = [Gamble.indicator(space, t) for t in space.symbols]
    return battery_for_gambles([*indicators, *user_gambles], selection_moduli)


class _CompiledBattery(tuple):
    """A non-empty battery of LLN strategies on one sample space, compiled for
    the float kernel against systems of one ``period``: ``phases`` are the
    situations at the depths below the longest member period (any path reaches
    each phase: the factors depend on the depth alone), ``bets[b]`` is the
    (depth, member) that first places bet b, ``members[i]`` numbers member i's
    bet at each phase of its own period, and ``L`` is their joint period.  A
    kernel call builds only its forecasts, its bets' :meth:`rows` and their log2s."""

    def __new__(cls, strategies, period: Optional[int]):
        battery = super().__new__(cls, strategies)
        if not battery:
            raise ModelInvariantError("battery must be non-empty")
        for p in battery[1:]:
            _check_same_space(battery[0].f, p.f)
        periods = [joint_period(period, p.selection.period) for p in battery]
        if None in periods:
            raise ModelInvariantError(
                "fast battery evaluation needs a system and selections with a period"
            )
        space = battery[0].f.space
        phases = [Situation._trusted(space, (0,) * t) for t in range(max(periods))]
        stakes: dict = {}  # (gamble, direction, epsilon) -> its number: one hash per member
        numbers: dict = {}  # (system phase, stake number) or None (unselected) -> bet number
        bets, members = [], []
        for p, own in zip(battery, periods):
            stake = stakes.setdefault((p.f, p.direction, p.epsilon), len(stakes))
            placed = []
            for t in range(own):
                bet = (t % period, stake) if p.selection.selects(phases[t]) else None
                if bet not in numbers:
                    numbers[bet] = len(bets)
                    bets.append((t, p))
                placed.append(numbers[bet])
            members.append(tuple(placed))
        battery.period, battery.phases, battery.bets = period, phases, bets
        battery.members, battery.L = members, joint_period(*periods)
        # the weights 2^-i before their sum 2 - 2^(1-B) divides them out: each
        # log2 is exact, so a step at which every capital is 1 reads exactly 0
        battery.log2_weights = -np.arange(len(battery), dtype=float)[:, None]
        battery.log2_total = math.log2(2 - 2.0 ** (1 - len(battery)))
        return battery

    @cached_property
    def index(self) -> np.ndarray:
        """The (B, L) bet numbers of the members at the L joint phases, by
        ``Trajectory.factors``' rule, built once a kernel call fits the budget."""
        return np.array([bets * (self.L // len(bets)) for bets in self.members])

    def rows(self, sys: ForecastingSystem) -> List[Tuple[Fraction, ...]]:
        """Each bet's exact row against sys, a system of the compiled period, by
        ``betting_factor``; one forecast per (system phase, gamble, direction)."""
        increments: dict = {}  # (system phase, gamble, direction) -> exact increment

        def increment(t: int, p: LLNStrategyParams) -> Gamble:
            key = (t % self.period, p.f, p.direction)
            if key not in increments:
                increments[key] = p.increment(sys.forecast(self.phases[key[0]]))
            return increments[key]

        return [p.betting_factor(self.phases[t], partial(increment, t, p)).values
                for t, p in self.bets]


# floats in the float kernel's block buffer: small enough to stay in cache
_KERNEL_CELLS = 1 << 14
# the floor of the kernel's shifted log2 terms: 2^-1000 is a normal float, so
# exp2 stays on numpy's vector path, and far below half an ulp of a sum >= 1
_KERNEL_LOG2_FLOOR = -1000.0
_KERNEL_BUDGET = 1 << 25  # cells in each of the kernel's table and count view


@dataclass(frozen=True)
class FastBatteryResult:
    """Log2 mixture path from the vectorized evaluation."""

    deficiency_bits: float
    mixture_log2: np.ndarray


def run_battery_fast(
    prefix: SequencePrefix,
    sys: ForecastingSystem,
    strategies: Sequence[LLNStrategyParams],
) -> FastBatteryResult:
    """Vectorized battery evaluation for depth-periodic strategies.

    Restricted to systems and selections with a ``period`` L.  The log2
    capitals of all strategies are one product: the log2s of their exact
    factors at the L phases by ``Trajectory.factors``' rule, times the
    prefix's float cumulative (phase, symbol) counts, so the data enter only
    through those counts.  The strategies are compiled into a
    :class:`_CompiledBattery` unless they are one for sys's period already, so
    a call with one builds only its forecasts, bet rows and their log2s.  The
    product is taken over blocks of steps, so memory is O(B * block), not
    O(B * N); a table or count view of more than ``_KERNEL_BUDGET`` cells is
    refused before either is built.
    Each step's mixture is a log-sum-exp shifted by its largest term, whose
    share is then exactly 1, so the sum is at least 1.  Shifted terms below
    ``_KERNEL_LOG2_FLOOR`` are raised to it: each such term stays under
    2^-1000, far below half an ulp of that sum, so the result is unchanged,
    and ``exp2`` never underflows nor leaves numpy's vector path, which it
    does for arguments below -1022.  Capital paths are floats; use
    :func:`run_battery` when exactness is required.
    """
    compiled = isinstance(strategies, _CompiledBattery) and strategies.period == sys.period
    battery = strategies if compiled else _CompiledBattery(strategies, sys.period)
    _check_same_space(prefix, sys)
    _check_same_space(prefix, battery[0].f)
    rows = battery.rows(sys)
    B, L, K, N = len(battery), battery.L, prefix.space.size, len(prefix)
    if max(B, N + 1) * L * K > _KERNEL_BUDGET:  # before either is built
        raise ModelInvariantError(
            f"float kernel with B = {B} strategies, joint period L = {L}, K = {K} "
            f"symbols and N = {N} steps needs a (B, L*K) table and an (L*K, N+1) "
            f"count view, over the budget of {_KERNEL_BUDGET} cells each"
        )
    # each bet's row is taken log2 once; the table gathers the members' bets
    logs = np.array([[log2_rational(v) for v in row] for row in rows])
    tables = logs[battery.index].reshape(B, L * K)
    counts = prefix.phase_counts(L)
    mixture_log2 = np.empty(N + 1)
    # the mixture at a step reads only that step's column, so the steps go in
    # blocks; one (B, width) buffer holds log2 capitals, then the weighted terms
    width = max(1, _KERNEL_CELLS // B)
    for a in range(0, N + 1, width):
        cum = tables @ counts[:, a : a + width]
        cum += battery.log2_weights
        peak = cum.max(axis=0)
        cum -= peak
        np.maximum(cum, _KERNEL_LOG2_FLOOR, out=cum)
        np.exp2(cum, out=cum)
        mixture_log2[a : a + width] = peak + np.log2(cum.sum(axis=0)) - battery.log2_total
    deficiency = float(max(0.0, mixture_log2.max()))
    return FastBatteryResult(deficiency_bits=deficiency, mixture_log2=mixture_log2)


@dataclass(frozen=True)
class AverageReport:
    """Selected running averages of a gamble along a prefix."""

    selected_count: int
    average: Optional[Fraction]
    average_above_lower: Optional[Fraction]
    average_below_upper: Optional[Fraction]


def check_running_average(
    prefix: SequencePrefix,
    f: Gamble,
    S: SelectionProcess,
    sys: ForecastingSystem,
) -> AverageReport:
    """Selected running average of f, and its gaps to the situation
    forecasts.

    ``average_above_lower`` is the mean of f(x) minus the lower forecast at
    the step; ``average_below_upper`` the mean of the upper forecast minus
    f(x); for a system of period 1 they are the distances from the average to
    [E(f), upper(f)].  Zero selected steps yields an explicit empty result.

    The sums run over (key, symbol) counts, the key being the depth modulo
    the joint period of system and selection (the depth when there is none);
    selection and forecast are read once per cell, at the depth-key situation.
    """
    _check_same_space(prefix, f)
    _check_same_space(prefix, sys)

    period = joint_period(sys.period, S.period)
    depths = range(len(prefix))
    keys = depths if period is None else (n % period for n in depths)
    count = 0
    total = total_above = total_below = Fraction(0)
    for (key, x), c in Counter(zip(keys, prefix.symbols)).items():
        s = prefix.situation(key)
        if not S.selects(s):
            continue
        model = sys.forecast(s)
        value = f[x]
        count += c
        total += c * value
        total_above += c * (value - model.lower(f))
        total_below += c * (model.upper(f) - value)

    if count == 0:
        return AverageReport(0, None, None, None)
    return AverageReport(
        selected_count=count,
        average=total / count,
        average_above_lower=total_above / count,
        average_below_upper=total_below / count,
    )


@dataclass(frozen=True)
class GridPoint:
    """One gamma grid point of an interval sweep."""

    gamma: Fraction
    raw_bits: float
    repaired_bits: float
    accepted: bool


@dataclass(frozen=True)
class IntervalEstimate:
    """Accepted expectation interval for a gamble on a gamma grid."""

    f: Gamble
    lo_accept: Fraction
    hi_accept: Fraction
    threshold_bits: float
    grid_step: Fraction
    lower_grid: Tuple[GridPoint, ...]
    upper_grid: Tuple[GridPoint, ...]


_GRID_BUDGET = 2**16  # gamma points one side of an interval sweep may evaluate


def estimate_interval(
    prefix: SequencePrefix,
    f: Gamble,
    threshold_bits: float = 10.0,
    grid_step: Fraction = Fraction(1, 16),
    selection_moduli: Sequence[int] = (1, 2, 3, 4),
) -> IntervalEstimate:
    """Sweep gamma over a grid in [min f, max f] and accept the values whose
    pinned-forecast model survives a battery that bets on f only.

    Each side tests a stationary face of the credal set {p : lo <= E_p(f) <= hi},
    the least conservative model making its claim: "E(f) >= gamma" is
    ``AnchorIntervalModel(f, gamma, max f)`` and "upper(f) <= gamma" is
    ``AnchorIntervalModel(f, min f, gamma)``.  Each betting factor is
    1 - xi*(f(x) - gamma) or 1 - xi*(gamma - f(x)), and rises as the face
    shrinks along the sweep (gamma rising on the lower side, falling on the
    upper), so every capital, and with them the mixture and its running max,
    grows along each sweep.  Acceptance reads a running max of deficiencies,
    which only absorbs float rounding; raw values are kept in the returned
    grids.  Each side's battery is compiled once, for the faces' period 1, so
    a gamma probe builds only its own forecast, bet rows and their log2s.
    """
    grid_step = as_rational(grid_step)
    if grid_step <= 0:
        raise ModelInvariantError(f"grid step must be positive, got {grid_step}")
    if not (math.isfinite(threshold_bits) and threshold_bits > 0):
        raise ModelInvariantError(
            f"threshold must be positive and finite, got {threshold_bits}"
        )
    _check_same_space(prefix, f)

    lo, hi = f.minimum(), f.maximum()
    count = (hi - lo) // grid_step + 1  # per side, counted before any is built
    if count > _GRID_BUDGET:
        raise ModelInvariantError(
            f"grid step {grid_step} over [min f, max f] = [{lo}, {hi}] gives {count} "
            f"points per side, over the budget of {_GRID_BUDGET}"
        )
    grid = [lo + k * grid_step for k in range(count)]

    def sweep(points: Sequence[Fraction], side: str) -> List[GridPoint]:
        # the opposite direction is unfalsifiable under a pinned model (its
        # forecast sits at the gamble's extreme), so betting it would only
        # dilute the mixture weights
        battery = _CompiledBattery(battery_for_gambles(
            (f,), selection_moduli=selection_moduli, directions=(side,)
        ), period=1)
        out: List[GridPoint] = []
        worst = 0.0
        for gamma in points:
            if worst > threshold_bits:
                # repaired deficiency can only grow; remaining points rejected
                out.append(GridPoint(gamma, math.inf, math.inf, False))
                continue
            face = (gamma, hi) if side == "lower" else (lo, gamma)
            sys = StationarySystem(AnchorIntervalModel(f, *face))
            raw = run_battery_fast(prefix, sys, battery).deficiency_bits
            worst = max(worst, raw)
            out.append(GridPoint(gamma, raw, worst, worst <= threshold_bits))
        return out

    lower_grid = sweep(grid, "lower")
    upper_grid = sweep(list(reversed(grid)), "upper")

    lo_accept = max((p.gamma for p in lower_grid if p.accepted), default=lo)
    hi_accept = min((p.gamma for p in upper_grid if p.accepted), default=hi)
    if lo_accept > hi_accept:
        lo_accept = hi_accept
    return IntervalEstimate(
        f=f,
        lo_accept=lo_accept,
        hi_accept=hi_accept,
        threshold_bits=threshold_bits,
        grid_step=grid_step,
        lower_grid=tuple(lower_grid),
        upper_grid=tuple(upper_grid),
    )
