"""Processes on the event tree and the supermartingale calculus.

A real process assigns an exact rational to every situation.  Processes are
evaluation oracles with memoization, not materialized trees: the tree is
exponential in depth, and both deep sweeps and long single-path evaluations
must stay feasible.

Provided here: one-step process differences, finite-depth super/submartingale
classification, multiplier-generated capital processes, the large-number-law
betting strategy, rationalization of approximately known supermartingales
into exact rational ones, running-max capping, and weighted mixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from imprand.core import (
    Gamble,
    ModelInvariantError,
    SampleSpace,
    _check_same_space,
    as_rational,
)
from imprand.forecasting import (
    ForecastingSystem,
    Situation,
    iter_situations,
    joint_period,
)
from imprand.lowerexp import LowerExpectation


class _Memo:
    """The memo rule of both process kinds: with a ``period``, one value per phase
    (depth mod period) for life; else one per path at the two adjacent depths that
    a walk or a breadth-first sweep asks again.  Values are pure, so a race between
    threads costs at most a recomputation."""

    def __init__(self, space: SampleSpace, fn: Callable):
        self.space = space
        self.period: Optional[int] = None
        self._fn = fn
        self._memo: dict = {}  # phase -> value, or path -> value at depth _depth
        self._above: dict = {}  # path -> value at depth _depth - 1
        self._depth = 0

    def _cached(self, path: Tuple[int, ...]):
        if self.period is not None:
            return self._memo.get(len(path) % self.period)
        return (self._memo if len(path) == self._depth else self._above).get(path)

    def _keep(self, path: Tuple[int, ...], value) -> None:
        if self.period is not None:
            self._memo[len(path) % self.period] = value
        elif self._depth - 1 <= len(path) <= self._depth:
            (self._memo if len(path) == self._depth else self._above)[path] = value
        else:  # a new depth keeps only the one above it
            self._above = self._memo if len(path) == self._depth + 1 else {}
            self._memo, self._depth = {path: value}, len(path)


class RationalProcess(_Memo):
    """An exact rational-valued function on situations, memoized per path at
    two adjacent depths (a capital process is not depth-periodic)."""

    def value(self, s: Situation) -> Fraction:
        _check_same_space(self, s)
        cached = self._cached(s.symbols)
        if cached is None:
            cached = as_rational(self._fn(s))
            self._keep(s.symbols, cached)
        return cached

    @classmethod
    def constant(cls, space: SampleSpace, c) -> "RationalProcess":
        c = as_rational(c)
        return cls(space, lambda s: c)


class MultiplierProcess(_Memo):
    """A map from situations to non-negative gambles (one-step betting
    factors); with ``period`` set, a factor depends on the depth mod period alone."""

    def __init__(
        self,
        space: SampleSpace,
        fn: Callable[[Situation], Gamble],
        period: Optional[int] = None,
    ):
        super().__init__(space, fn)
        self.period = period

    def factor(self, s: Situation) -> Gamble:
        _check_same_space(self, s)
        cached = self._cached(s.symbols)
        if cached is None:
            cached = self._fn(s)
            _check_same_space(self, cached)
            if (low := cached.minimum()) < 0:
                raise ModelInvariantError(
                    f"multiplier at {s.tokens()!r} takes negative value {low}"
                )
            self._keep(s.symbols, cached)
        return cached

    @classmethod
    def constant(cls, space: SampleSpace, g: Gamble) -> "MultiplierProcess":
        return cls(space, lambda s: g, period=1)


def difference(F: RationalProcess, s: Situation) -> Gamble:
    """One-step increment gamble: x -> F(sx) - F(s)."""
    base = F.value(s)
    return Gamble(F.space, tuple(F.value(s.child(i)) - base for i in F.space))


@dataclass
class ClassificationReport:
    """Finite-depth verdicts; verification never extends beyond the swept
    depth."""

    depth: int
    supermartingale: bool
    strict: bool
    submartingale: bool
    strict_submartingale: bool
    non_negative: bool
    test: bool
    witnesses: List[Tuple[Tuple[str, ...], str]]


def classify_process(
    F: RationalProcess, sys: ForecastingSystem, depth: int
) -> ClassificationReport:
    """Exact super/submartingale classification over all situations to depth.

    A supermartingale has conjugate upper expectation of the increment <= 0
    at every situation; a test supermartingale is additionally non-negative
    with root value 1.  Witnesses list every situation violating the
    supermartingale inequality together with the offending value.
    """
    _check_same_space(F, sys)

    supermartingale = strict = True
    submartingale = strict_sub = True
    non_negative = True
    witnesses: List[Tuple[Tuple[str, ...], str]] = []

    for s in iter_situations(F.space, depth):
        value = F.value(s)
        if value < 0:
            non_negative = False
        if s.depth == depth:
            # leaf level: only the value itself is inspected
            continue
        model = sys.forecast(s)
        delta = difference(F, s)
        up = model.upper(delta)
        lo = model.lower(delta)
        if up > 0:
            supermartingale = False
            witnesses.append((s.tokens(), str(up)))
        if up >= 0:
            strict = False
        if lo < 0:
            submartingale = False
        if lo <= 0:
            strict_sub = False

    root = Situation.root(F.space)
    test = supermartingale and non_negative and F.value(root) == 1
    return ClassificationReport(
        depth=depth,
        supermartingale=supermartingale,
        strict=strict and supermartingale,
        submartingale=submartingale,
        strict_submartingale=strict_sub and submartingale,
        non_negative=non_negative,
        test=test,
        witnesses=witnesses,
    )


def _along_path(space: SampleSpace, root: Callable, step: Callable) -> RationalProcess:
    """Value root() at the root and step(v, s, n) after the first n + 1 outcomes
    of s, v being the value after the first n: one step from the parent's value
    when that is kept (a walk or a sweep), else a walk from the root."""

    def value(s: Situation) -> Fraction:
        path = s.symbols
        up = process._cached(path[:-1]) if path else None
        start, v = (len(path) - 1, up) if up is not None else (0, root())
        for n in range(start, len(path)):
            v = step(v, s, n)
        return v

    process = RationalProcess(space, value)
    return process


def from_multiplier(D: MultiplierProcess) -> RationalProcess:
    """Capital process generated by a multiplier: root value 1, child value
    parent value times the parent's factor at the taken symbol."""
    return _along_path(D.space, lambda: Fraction(1),
                       lambda v, s, n: v * D.factor(s.situation(n))[s.symbols[n]])


@dataclass(frozen=True)
class SelectionProcess:
    """A deterministic 0/1 process choosing subsequence positions.

    Kinds: "residue" selects steps whose depth is congruent to i mod m, so
    selecting every step is residue 0 mod 1; "table" looks prefixes up in an
    explicit map with a default.  ``period`` is m and None respectively.
    """

    kind: str
    modulus: int = 1
    residue: int = 0
    table: Optional[Tuple[Tuple[Tuple[int, ...], int], ...]] = None
    default: int = 0

    def __post_init__(self):
        if self.kind not in ("residue", "table"):
            raise ModelInvariantError(f"unknown selection kind {self.kind!r}")
        if self.kind == "residue":
            if self.modulus < 1 or not 0 <= self.residue < self.modulus:
                raise ModelInvariantError(
                    f"bad residue class {self.residue} mod {self.modulus}"
                )
        if self.default not in (0, 1):
            raise ModelInvariantError("selection values must be 0 or 1")
        rows: dict = {}  # path -> value; the first row for a path wins
        for key, v in self.table or ():
            if v not in (0, 1):
                raise ModelInvariantError("selection values must be 0 or 1")
            rows.setdefault(key, v)
        object.__setattr__(self, "_rows", rows)

    @classmethod
    def all_ones(cls) -> "SelectionProcess":
        return cls.residue_class(1, 0)

    @classmethod
    def residue_class(cls, m: int, i: int) -> "SelectionProcess":
        return cls(kind="residue", modulus=m, residue=i)

    @classmethod
    def from_table(cls, table, default: int = 0) -> "SelectionProcess":
        rows = tuple((tuple(k), v) for k, v in dict(table).items())
        return cls(kind="table", table=rows, default=default)

    @property
    def period(self) -> Optional[int]:
        return self.modulus if self.kind == "residue" else None

    def selects(self, s: Situation) -> int:
        if self.kind == "residue":
            return 1 if s.depth % self.modulus == self.residue else 0
        return self._rows.get(s.symbols, self.default)


@dataclass(frozen=True)
class LLNStrategyParams:
    """Parameters of the running-average betting strategy.

    The bound B = max(1, max f - min f) and stake xi = epsilon/(2*B^2) are
    derived once, as attributes ``bound`` and ``xi``; epsilon must lie in (0, B),
    which guarantees 0 < xi < 1/B and hence strictly positive betting factors.
    """

    f: Gamble
    direction: str
    epsilon: Fraction
    selection: SelectionProcess

    def __post_init__(self):
        object.__setattr__(self, "epsilon", as_rational(self.epsilon))
        if self.direction not in ("lower", "upper"):
            raise ModelInvariantError(f"direction must be lower|upper, got {self.direction!r}")
        bound = max(Fraction(1), self.f.spread())
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "xi", self.epsilon / (2 * bound ** 2))
        if not 0 < self.epsilon < bound:
            raise ModelInvariantError(
                f"epsilon {self.epsilon} outside (0, B) with B = {bound}"
            )

    def increment(self, model: LowerExpectation) -> Gamble:
        """f minus its lower forecast ("lower"), or its upper forecast minus f."""
        if self.direction == "lower":
            return self.f - model.lower(self.f)
        return model.upper(self.f) - self.f

    def betting_factor(self, s: Situation, increment: Callable[[], Gamble]) -> Gamble:
        """D(s) = 1 - xi*S(s)*increment(), asked only at a selected step."""
        if not self.selection.selects(s):
            return Gamble.constant(self.f.space, 1)
        g = Gamble(self.f.space, tuple(1 - self.xi * v for v in increment().values))
        if g.minimum() <= 0:
            raise ModelInvariantError(
                f"betting factor not positive at {s.tokens()!r}: min {g.minimum()}"
            )
        return g


def lln_strategy(params: LLNStrategyParams, sys: ForecastingSystem) -> MultiplierProcess:
    """Betting strategy whose capital grows when the selected running average
    of the target increment (:meth:`LLNStrategyParams.increment`) stays below
    -epsilon; its factor is :meth:`LLNStrategyParams.betting_factor`.
    Whenever that average over n selected steps is <= -epsilon, the capital
    is >= exp(epsilon^2/(4 B^2) * n).
    """
    _check_same_space(sys, params.f)

    def compute(s: Situation) -> Gamble:
        return params.betting_factor(s, lambda: params.increment(sys.forecast(s)))

    # the factor depends on the depth alone when the forecast and the
    # selection do, so it is memoized per phase instead of per path
    return MultiplierProcess(sys.space, compute, joint_period(sys.period, params.selection.period))


@dataclass(frozen=True)
class ApproxProcess:
    """A real process known only through a convergent net of rationals.

    ``net(s, n)`` is the n-th rational approximation at situation s;
    ``modulus(s, N)`` returns an index beyond which the net is within
    2^-N of the limit.  The contract is caller-asserted and testable against
    processes with known limits.
    """

    space: SampleSpace
    net: Callable[[Situation, int], Fraction]
    modulus: Callable[[Situation, int], Fraction]

    def approximation(self, s: Situation, precision_bits: int) -> Fraction:
        index = max(0, math.ceil(self.modulus(s, precision_bits)))
        return as_rational(self.net(s, index))


def rationalize(M: ApproxProcess) -> Tuple[RationalProcess, Fraction]:
    """Exact positive rational strict supermartingale tracking an
    approximately known non-negative supermartingale.

    Construction: M'(s) = (r(s) + 6*2^-d(s)) / alpha with alpha = r(root) + 6,
    where r(s) is the net's approximation at s to d(s) bits.  Then M'(root)
    is exactly 1 and |alpha*M'(s) - M(s)| <= 7 wherever the approximation
    contract holds.
    """
    root = Situation.root(M.space)
    r_root = M.approximation(root, 0)
    alpha = r_root + 6
    if alpha <= 0:
        raise ModelInvariantError(
            f"root approximation {r_root} violates the non-negativity contract"
        )

    def eval_prime(s: Situation) -> Fraction:
        d = s.depth
        return (M.approximation(s, d) + Fraction(6, 2 ** d)) / alpha

    return RationalProcess(M.space, eval_prime), alpha


def cap_process(M: RationalProcess, k: int) -> RationalProcess:
    """Freeze the process at 2^k once its running max along the path first
    reaches 2^k; identity below the cap.  Preserves the supermartingale
    property.  A value at the cap stays there without asking M again."""
    if k < 0:
        raise ModelInvariantError(f"cap exponent must be non-negative, got {k}")
    cap = Fraction(2 ** k)
    return _along_path(
        M.space, lambda: min(M.value(Situation.root(M.space)), cap),
        lambda v, s, n: cap if v == cap else min(M.value(s.situation(n + 1)), cap))


def mix(processes: Sequence[RationalProcess]) -> RationalProcess:
    """Exact mixture with geometric weights 2^-i renormalized to sum to 1.

    Mixing preserves positivity and the supermartingale property.
    """
    members = list(processes)
    if not members:
        raise ModelInvariantError("cannot mix an empty list of processes")
    space = members[0].space
    for p in members[1:]:
        _check_same_space(members[0], p)
    weights = mixture_weights(len(members))

    def eval_mix(s: Situation) -> Fraction:
        return sum(
            (w * p.value(s) for w, p in zip(weights, members)), start=Fraction(0)
        )

    return RationalProcess(space, eval_mix)


def mixture_weights(count: int) -> Tuple[Fraction, ...]:
    """Renormalized geometric weights 2^-i / sum_j 2^-j for i < count."""
    if count < 1:
        raise ModelInvariantError("weight count must be positive")
    raw = [Fraction(1, 2 ** i) for i in range(count)]
    total = sum(raw)
    return tuple(w / total for w in raw)


def _over_common_denominator(values: Sequence[Fraction]) -> Tuple[int, List[int]]:
    """The lcm q of the values' denominators and each value's numerator over q,
    so exact weighted sums of them are integer sums (the mixture weights over
    q = 2^count - 1 are the integers 2^(count-1-i))."""
    q = math.lcm(*(v.denominator for v in values))
    return q, [v.numerator * (q // v.denominator) for v in values]


def _column_rule(periods: Sequence[Optional[int]]) -> Tuple[Optional[int], Callable]:
    """(L, column) for a battery with these member periods: ``column(depth, x,
    rows)`` is _over_common_denominator of the members' factors at x and depth,
    ``rows[i][depth % len(rows[i])][x]`` (``Trajectory.factors``' rule), reduced
    once per (depth mod L, x) when the joint period L is not None."""
    L, kept = joint_period(*periods), {}

    def column(depth: int, x: int, rows: Sequence[Sequence[Sequence[Fraction]]]):
        key = x if L is None else (depth % L, x)  # without L, the last column at x
        if L is None or key not in kept:
            kept[key] = _over_common_denominator([r[depth % len(r)][x] for r in rows])
        return kept[key]

    return L, column
