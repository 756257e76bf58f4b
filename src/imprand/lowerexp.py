"""Coherent lower expectations in five exact representations.

A coherent lower expectation assigns to every gamble a value satisfying
boundedness (min f <= E(f)), non-negative homogeneity (E(a*f) = a*E(f) for
a >= 0) and superadditivity (E(f) + E(g) <= E(f+g)).  The representations:

* ``LinearModel`` -- a single probability mass function (precise limit case).
* ``EnvelopeModel`` -- the lower envelope (pointwise minimum) of the linear
  expectations of a finite vertex list of a credal set.
* ``VacuousModel`` -- E(g) = min g, the maximally conservative model.
* ``AnchorGammaModel`` -- the least conservative coherent lower expectation
  with E(anchor) = gamma; evaluated by exact breakpoint enumeration of a
  concave piecewise-linear program.
* ``AnchorIntervalModel`` -- the least conservative coherent lower
  expectation that pins [E(anchor), upper(anchor)] to a given interval; the
  pointwise maximum of two AnchorGammaModel evaluations.

All evaluations are exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Sequence, Tuple

from imprand.core import (
    Gamble,
    ModelInvariantError,
    ProbabilityMassFunction,
    SampleSpace,
    _check_same_space,
    as_rational,
    linear_expectation,
)


@dataclass(frozen=True)
class IntervalQ:
    """A closed rational interval [lo, hi]."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", as_rational(self.lo))
        object.__setattr__(self, "hi", as_rational(self.hi))
        if self.lo > self.hi:
            raise ModelInvariantError(f"interval lower bound {self.lo} > {self.hi}")


class LowerExpectation:
    """Base class; subclasses implement :meth:`lower`."""

    space: SampleSpace

    def lower(self, g: Gamble) -> Fraction:
        raise NotImplementedError

    def upper(self, g: Gamble) -> Fraction:
        """Conjugate upper expectation: -lower(-g)."""
        return -self.lower(-g)


@dataclass(frozen=True)
class LinearModel(LowerExpectation):
    pmf: ProbabilityMassFunction

    @property
    def space(self) -> SampleSpace:
        return self.pmf.space

    def lower(self, g: Gamble) -> Fraction:
        _check_same_space(self, g)
        return linear_expectation(self.pmf, g)


@dataclass(frozen=True)
class EnvelopeModel(LowerExpectation):
    """Lower envelope of the linear expectations of explicit credal vertices."""

    vertices: Tuple[ProbabilityMassFunction, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        if not self.vertices:
            raise ModelInvariantError("envelope needs at least one vertex")
        for v in self.vertices[1:]:
            _check_same_space(self.vertices[0], v)

    @property
    def space(self) -> SampleSpace:
        return self.vertices[0].space

    def lower(self, g: Gamble) -> Fraction:
        _check_same_space(self, g)
        return min(linear_expectation(p, g) for p in self.vertices)


@dataclass(frozen=True)
class VacuousModel(LowerExpectation):
    space: SampleSpace

    def lower(self, g: Gamble) -> Fraction:
        _check_same_space(self, g)
        return g.minimum()


def _anchored_floor_value(anchor: Gamble, gamma: Fraction, g: Gamble) -> Fraction:
    """max over mu >= 0 of phi(mu) = min_x [g(x) - mu*(anchor(x) - gamma)].

    phi is concave piecewise linear, so its maximum over mu >= 0 is attained
    at mu = 0 or at a non-negative intersection of two of the K lines; all
    candidates are enumerated exactly (O(K^2)).  When gamma = max(anchor) all
    slopes are non-negative and the supremum is the mu -> infinity limit,
    min{g(x) : anchor(x) = max anchor}.
    """
    slopes = [gamma - a for a in anchor.values]  # line x: g(x) + mu*slope(x)
    if all(s >= 0 for s in slopes):
        # phi is non-decreasing; positive-slope lines escape to +infinity.
        return min(gx for gx, s in zip(g.values, slopes) if s == 0)

    def phi(mu: Fraction) -> Fraction:
        return min(gx + mu * s for gx, s in zip(g.values, slopes))

    best = phi(Fraction(0))
    k = len(slopes)
    for i in range(k):
        for j in range(i + 1, k):
            if slopes[i] == slopes[j]:
                continue
            mu = (g.values[j] - g.values[i]) / (slopes[i] - slopes[j])
            if mu > 0:
                value = phi(mu)
                if value > best:
                    best = value
    return best


@dataclass(frozen=True)
class AnchorGammaModel(LowerExpectation):
    """Least conservative coherent lower expectation with lower(anchor) = gamma.

    Satisfies lower(anchor) = gamma and upper(anchor) = max(anchor) exactly,
    and is dominated by every coherent lower expectation E' with
    gamma <= E'(anchor).
    """

    anchor: Gamble
    gamma: Fraction

    def __post_init__(self):
        object.__setattr__(self, "gamma", as_rational(self.gamma))
        if not (self.anchor.minimum() <= self.gamma <= self.anchor.maximum()):
            raise ModelInvariantError(
                f"gamma {self.gamma} outside anchor range "
                f"[{self.anchor.minimum()}, {self.anchor.maximum()}]"
            )

    @property
    def space(self) -> SampleSpace:
        return self.anchor.space

    def lower(self, g: Gamble) -> Fraction:
        _check_same_space(self, g)
        return _anchored_floor_value(self.anchor, self.gamma, g)


@dataclass(frozen=True)
class AnchorIntervalModel(LowerExpectation):
    """Least conservative model pinning the anchor's expectation interval.

    lower(g) is the max of the two one-sided anchored evaluations: the floor
    at min(interval) on the anchor, and the floor at -max(interval) on the
    negated anchor.
    """

    anchor: Gamble
    interval: IntervalQ

    def __post_init__(self):
        lo, hi = self.anchor.minimum(), self.anchor.maximum()
        if self.interval.lo < lo or self.interval.hi > hi:
            raise ModelInvariantError(
                f"interval [{self.interval.lo}, {self.interval.hi}] not contained "
                f"in anchor range [{lo}, {hi}]"
            )

    @property
    def space(self) -> SampleSpace:
        return self.anchor.space

    def lower(self, g: Gamble) -> Fraction:
        _check_same_space(self, g)
        low_side = _anchored_floor_value(self.anchor, self.interval.lo, g)
        high_side = _anchored_floor_value(-self.anchor, -self.interval.hi, g)
        return max(low_side, high_side)


@dataclass(frozen=True)
class CoherenceViolation:
    axiom: str
    detail: str


@dataclass
class CoherenceReport:
    violations: List[CoherenceViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def _add(self, axiom: str, detail: str) -> None:
        self.violations.append(CoherenceViolation(axiom, detail))


_HOMOGENEITY_FACTORS = (Fraction(0), Fraction(1, 2), Fraction(2), Fraction(7, 3))
_SHIFT_CONSTANTS = (Fraction(-1), Fraction(1), Fraction(5, 2))


def check_coherence(model: LowerExpectation, probes: Sequence[Gamble]) -> CoherenceReport:
    """Exact spot verification of the coherence axioms on a probe set.

    Boundedness, homogeneity and superadditivity are checked on all probes /
    probe pairs; conjugate bounds, constant additivity, increasingness and
    the uniform-continuity bound |E(f)-E(g)| <= max|f-g| are checked as spot
    instances.  Violations are report content, not errors.
    """
    report = CoherenceReport()
    probes = list(probes)
    if len(probes) < 2:
        raise ModelInvariantError("coherence check needs at least two probes")

    values = [model.lower(g) for g in probes]

    for g, eg in zip(probes, values):
        if eg < g.minimum():
            report._add("boundedness", f"E{tuple(map(str, g.values))} = {eg} < min g")
        ug = model.upper(g)
        if not (g.minimum() <= eg <= ug <= g.maximum()):
            report._add(
                "bounds",
                f"min {g.minimum()} <= {eg} <= {ug} <= max {g.maximum()} fails",
            )
        for alpha in _HOMOGENEITY_FACTORS:
            if model.lower(g.scale(alpha)) != alpha * eg:
                report._add(
                    "homogeneity",
                    f"E({alpha}*g) != {alpha}*E(g) for g={tuple(map(str, g.values))}",
                )
        for c in _SHIFT_CONSTANTS:
            if model.lower(g + c) != eg + c:
                report._add(
                    "constant-additivity",
                    f"E(g + {c}) != E(g) + {c} for g={tuple(map(str, g.values))}",
                )

    for i, (f, ef) in enumerate(zip(probes, values)):
        for g, eg in zip(probes[i + 1 :], values[i + 1 :]):
            if ef + eg > model.lower(f + g):
                report._add(
                    "superadditivity",
                    f"E(f)+E(g) = {ef + eg} > E(f+g) = {model.lower(f + g)}",
                )
            bound = max(abs(a - b) for a, b in zip(f.values, g.values))
            if abs(ef - eg) > bound:
                report._add(
                    "uniform-continuity",
                    f"|E(f)-E(g)| = {abs(ef - eg)} > max|f-g| = {bound}",
                )
            # increasingness spot check: f <= f + |g| pointwise
            lifted = f + Gamble(f.space, tuple(abs(v) for v in g.values))
            if ef > model.lower(lifted):
                report._add("increasingness", "E(f) > E(f + |g|)")

    return report


def dominates(
    el: LowerExpectation, eh: LowerExpectation, probes: Sequence[Gamble]
) -> bool:
    """True iff lower(el, g) <= lower(eh, g) exactly for every probe g."""
    _check_same_space(el, eh)
    return all(el.lower(g) <= eh.lower(g) for g in probes)
