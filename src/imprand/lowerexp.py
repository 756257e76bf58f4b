"""Coherent lower expectations in exact representations.

A coherent lower expectation assigns to every gamble a value satisfying
boundedness (min f <= E(f)), non-negative homogeneity (E(a*f) = a*E(f) for
a >= 0) and superadditivity (E(f) + E(g) <= E(f+g)).  Two general forms:

* ``EnvelopeModel`` -- the lower envelope (pointwise minimum) of the linear
  expectations of a finite vertex list of a credal set.
* ``AnchorIntervalModel(anchor, lo, hi)`` -- the least conservative one with
  E(anchor) and upper(anchor) in [lo, hi]: the credal set
  {p : lo <= E_p(anchor) <= hi}, whose minimum is taken over its vertices.
  Its faces [gamma, max anchor] and [min anchor, gamma] are the least
  conservative models with E(anchor) >= gamma and upper(anchor) <= gamma.

The plain cases are subclasses of these:

* ``LinearModel`` -- the envelope of one vertex, a single probability mass
  function (the precise case).
* ``VacuousModel`` -- the envelope of all point masses: E(g) = min g, the
  maximally conservative model, evaluated as min g.
* ``AnchorGammaModel`` -- the slab [gamma, max anchor]: the least
  conservative model with E(anchor) = gamma.

Outside these classes and their file kinds, code reads a model by its general
form (``vertices``; ``anchor``, ``lo``, ``hi``).  All evaluations are exact
rational arithmetic.
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


class LowerExpectation:
    """Base class; subclasses implement :meth:`lower`."""

    space: SampleSpace

    def lower(self, g: Gamble) -> Fraction:
        raise NotImplementedError

    def upper(self, g: Gamble) -> Fraction:
        """Conjugate upper expectation: -lower(-g)."""
        return -self.lower(-g)


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


class LinearModel(EnvelopeModel):
    """The envelope of one vertex: a single probability mass function."""

    def __init__(self, pmf: ProbabilityMassFunction):
        super().__init__((pmf,))

    @property
    def pmf(self) -> ProbabilityMassFunction:
        return self.vertices[0]

    # in the class body: perfbench wraps each class's own lower
    lower = EnvelopeModel.lower


class VacuousModel(EnvelopeModel):
    """The envelope of all point masses: E(g) = min g."""

    def __init__(self, space: SampleSpace):
        super().__init__(
            tuple(ProbabilityMassFunction.point_mass(space, t) for t in space.symbols))

    def lower(self, g: Gamble) -> Fraction:
        # min g: 17x (K = 2) to 100x (K = 16) faster than the envelope
        _check_same_space(self, g)
        return g.minimum()


def _slab_lower(anchor: Gamble, lo: Fraction, hi: Fraction, g: Gamble) -> Fraction:
    """min E_p(g) over the credal set {p : lo <= E_p(anchor) <= hi}, taken on
    its vertices: the point masses at x with lo <= anchor(x) <= hi and, on each
    face E_p(anchor) = c in {lo, hi}, t*delta_x + (1 - t)*delta_y with
    anchor(x) > c > anchor(y) and t = (c - anchor(y)) / (anchor(x) - anchor(y))."""
    points = list(zip(anchor.values, g.values))
    candidates = [gx for ax, gx in points if lo <= ax <= hi]
    for c in {lo, hi}:
        for ax, gx in points:
            for ay, gy in points:
                if ax > c > ay:
                    candidates.append(gy + (c - ay) / (ax - ay) * (gx - gy))
    return min(candidates)


@dataclass(frozen=True)
class AnchorIntervalModel(LowerExpectation):
    """Least conservative model pinning the anchor's expectation interval.

    The credal set {p : lo <= E_p(anchor) <= hi}; lower(g) is the minimum of
    E_p(g) over its vertices.
    """

    anchor: Gamble
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", as_rational(self.lo))
        object.__setattr__(self, "hi", as_rational(self.hi))
        if self.lo > self.hi:
            raise ModelInvariantError(f"interval lower bound {self.lo} > {self.hi}")
        a, b = self.anchor.minimum(), self.anchor.maximum()
        if self.lo < a or self.hi > b:
            raise ModelInvariantError(
                f"interval [{self.lo}, {self.hi}] not contained in anchor range [{a}, {b}]"
            )

    @property
    def space(self) -> SampleSpace:
        return self.anchor.space

    def lower(self, g: Gamble) -> Fraction:
        _check_same_space(self, g)
        return _slab_lower(self.anchor, self.lo, self.hi, g)


class AnchorGammaModel(AnchorIntervalModel):
    """Least conservative coherent lower expectation with lower(anchor) = gamma.

    The anchored model on the slab [gamma, max(anchor)]: satisfies
    lower(anchor) = gamma and upper(anchor) = max(anchor) exactly, and is
    dominated by every coherent lower expectation E' with gamma <= E'(anchor).
    """

    def __init__(self, anchor: Gamble, gamma):
        gamma = as_rational(gamma)
        if not anchor.minimum() <= gamma <= anchor.maximum():
            raise ModelInvariantError(
                f"gamma {gamma} outside anchor range "
                f"[{anchor.minimum()}, {anchor.maximum()}]"
            )
        super().__init__(anchor, gamma, anchor.maximum())

    @property
    def gamma(self) -> Fraction:
        return self.lo

    # in the class body: perfbench wraps each class's own lower
    lower = AnchorIntervalModel.lower


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
