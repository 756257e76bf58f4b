import itertools
import random
from fractions import Fraction

import pytest

from imprand import (
    AnchorGammaModel,
    AnchorIntervalModel,
    EnvelopeModel,
    Gamble,
    LinearModel,
    ProbabilityMassFunction,
    SampleSpace,
    SpaceMismatchError,
    VacuousModel,
    check_coherence,
    dominates,
    linear_expectation,
)
from imprand.core import ModelInvariantError

from conftest import rand_fraction, rand_gamble, rand_pmf, rand_space


def dense_grid_lower(anchor, gamma, g, steps=2000, mu_max=50):
    """Sanity oracle: the inner minimum on a dense mu grid never exceeds the
    exact maximum."""
    best = None
    for k in range(steps + 1):
        mu = Fraction(mu_max * k, steps)
        value = min(gv - mu * (av - gamma) for gv, av in zip(g.values, anchor.values))
        if best is None or value > best:
            best = value
    return best


def credal_vertex_min(anchor, gamma, g):
    """Independent exact oracle: the anchored model is the lower envelope of
    {p : E_p(anchor) >= gamma}, whose vertices are the point masses above
    gamma plus the two-point mixtures pinned exactly at gamma."""
    candidates = [gv for gv, av in zip(g.values, anchor.values) if av >= gamma]
    pairs = [
        (gx, ax, gy, ay)
        for gx, ax in zip(g.values, anchor.values) if ax > gamma
        for gy, ay in zip(g.values, anchor.values) if ay < gamma
    ]
    for gx, ax, gy, ay in pairs:
        t = (gamma - ay) / (ax - ay)
        candidates.append(t * gx + (1 - t) * gy)
    return min(candidates)


def slab_vertex_min(anchor, lo, hi, g):
    """Independent exact oracle: the vertices of {p : lo <= E_p(anchor) <= hi}
    as mass functions, the point masses inside the slab plus the two-point
    mixtures on either face, each checked against the constraint."""
    space = anchor.space
    vertices = [ProbabilityMassFunction.point_mass(space, t)
                for x, t in enumerate(space.symbols) if lo <= anchor[x] <= hi]
    for c in (lo, hi):
        for x, y in itertools.permutations(range(space.size), 2):
            if anchor[x] > c > anchor[y]:
                t = (c - anchor[y]) / (anchor[x] - anchor[y])
                weights = [Fraction(0)] * space.size
                weights[x], weights[y] = t, 1 - t
                vertices.append(ProbabilityMassFunction(space, weights))
    for p in vertices:
        assert lo <= linear_expectation(p, anchor) <= hi
    return min(linear_expectation(p, g) for p in vertices)


class TestEnvelope:
    def test_worked_example(self, envelope3, f_example):
        assert envelope3.lower(f_example) == Fraction(-1, 2)
        assert envelope3.upper(f_example) == Fraction(2)

    def test_equals_brute_force(self, vertices3):
        rng = random.Random(3)
        env = EnvelopeModel(vertices3)
        for _ in range(100):
            g = rand_gamble(rng, env.space)
            brute = min(linear_expectation(p, g) for p in vertices3)
            assert env.lower(g) == brute

    def test_empty_rejected(self):
        with pytest.raises(ModelInvariantError):
            EnvelopeModel(())


class TestVacuous:
    def test_lower_is_min(self, space3, f_example):
        v = VacuousModel(space3)
        assert v.lower(f_example) == Fraction(-2)
        assert v.upper(f_example) == Fraction(3)


class TestAnchorGamma:
    def test_breakpoint_oracle_value(self, space3, f_example):
        g = Gamble(space3, (Fraction(3), Fraction(-1), Fraction(2)))
        model = AnchorGammaModel(anchor=f_example, gamma=Fraction(0))
        assert model.lower(g) == Fraction(1, 5)
        assert dense_grid_lower(f_example, Fraction(0), g) <= Fraction(1, 5)

    def test_matches_credal_vertex_oracle(self):
        rng = random.Random(4)
        for _ in range(120):
            space = rand_space(rng)
            anchor = rand_gamble(rng, space)
            lo, hi = anchor.minimum(), anchor.maximum()
            gamma = lo + (hi - lo) * Fraction(rng.randint(0, 8), 8)
            g = rand_gamble(rng, space)
            model = AnchorGammaModel(anchor=anchor, gamma=gamma)
            exact = model.lower(g)
            assert exact == credal_vertex_min(anchor, gamma, g)
            assert dense_grid_lower(anchor, gamma, g) <= exact

    def test_identities(self, f_example):
        model = AnchorGammaModel(anchor=f_example, gamma=Fraction(1, 3))
        assert model.lower(f_example) == Fraction(1, 3)
        assert model.upper(f_example) == Fraction(3)

    def test_degenerate_gamma_at_max(self, space3, f_example):
        model = AnchorGammaModel(anchor=f_example, gamma=Fraction(3))
        g = Gamble(space3, (Fraction(5), Fraction(0), Fraction(-7)))
        # mass concentrates where the anchor is maximal
        assert model.lower(g) == Fraction(-7)

    def test_gamma_outside_range_rejected(self, f_example):
        with pytest.raises(ModelInvariantError):
            AnchorGammaModel(anchor=f_example, gamma=Fraction(4))


class TestAnchorInterval:
    def test_identities(self, f_example):
        model = AnchorIntervalModel(
            anchor=f_example, lo=Fraction(-1, 2), hi=Fraction(2))
        assert model.lower(f_example) == Fraction(-1, 2)
        assert model.upper(f_example) == Fraction(2)

    def test_full_range_equals_vacuous_on_anchor(self, f_example):
        model = AnchorIntervalModel(
            anchor=f_example, lo=Fraction(-2), hi=Fraction(3))
        assert model.lower(f_example) == Fraction(-2)
        assert model.upper(f_example) == Fraction(3)

    def test_singleton_interval(self, f_example):
        model = AnchorIntervalModel(
            anchor=f_example, lo=Fraction(1, 4), hi=Fraction(1, 4))
        assert model.lower(f_example) == model.upper(f_example) == Fraction(1, 4)

    def test_matches_one_sided_models_and_slab_vertices(self):
        rng = random.Random(14)
        for _ in range(200):
            space = rand_space(rng)
            anchor = rand_gamble(rng, space)
            low, high = anchor.minimum(), anchor.maximum()
            lo, hi = sorted(low + (high - low) * Fraction(rng.randint(0, 8), 8)
                            for _ in range(2))
            g = rand_gamble(rng, space)
            exact = AnchorIntervalModel(anchor=anchor, lo=lo, hi=hi).lower(g)
            assert exact == max(AnchorGammaModel(anchor=anchor, gamma=lo).lower(g),
                                AnchorGammaModel(anchor=-anchor, gamma=-hi).lower(g))
            assert exact == slab_vertex_min(anchor, lo, hi, g)

    def test_interval_outside_range_rejected(self, f_example):
        with pytest.raises(ModelInvariantError):
            AnchorIntervalModel(
                anchor=f_example, lo=Fraction(-3), hi=Fraction(0))

    def test_interval_order_checked(self, f_example):
        with pytest.raises(ModelInvariantError, match="interval lower bound 1 > 0"):
            AnchorIntervalModel(anchor=f_example, lo=Fraction(1), hi=Fraction(0))


class TestConjugacy:
    def test_all_representations(self, space3, vertices3, f_example):
        rng = random.Random(5)
        models = [
            LinearModel(vertices3[0]),
            EnvelopeModel(vertices3),
            VacuousModel(space3),
            AnchorGammaModel(anchor=f_example, gamma=Fraction(1, 2)),
            AnchorIntervalModel(
                anchor=f_example, lo=Fraction(-1), hi=Fraction(2)),
        ]
        for model in models:
            for _ in range(50):
                g = rand_gamble(rng, space3)
                assert model.upper(g) == -model.lower(-g)


class TestCoherence:
    def test_worked_envelope_passes(self, envelope3, f_example, space3):
        g = Gamble(space3, (Fraction(0), Fraction(1), Fraction(-1)))
        probes = [f_example, -f_example, f_example + g, f_example.scale(2),
                  f_example + Fraction(5)]
        report = check_coherence(envelope3, probes)
        assert report.ok, report.violations

    def test_axioms_hold_for_all_representations(self, space3, vertices3, f_example):
        rng = random.Random(6)
        models = [
            LinearModel(vertices3[1]),
            EnvelopeModel(vertices3),
            VacuousModel(space3),
            AnchorGammaModel(anchor=f_example, gamma=Fraction(-1)),
            AnchorIntervalModel(
                anchor=f_example, lo=Fraction(0), hi=Fraction(2)),
        ]
        for model in models:
            probes = [rand_gamble(rng, space3) for _ in range(12)]
            report = check_coherence(model, probes)
            assert report.ok, (type(model).__name__, report.violations[:3])

    def test_detects_subadditive_fake(self, space3):
        # a sub-normalized weight vector is not a valid pmf, so emulate the
        # broken functional directly
        class Fake(VacuousModel):
            def lower(self, g):
                return sum(g.values, start=Fraction(0)) * Fraction(2, 5)

        rng = random.Random(7)
        probes = [rand_gamble(rng, space3) for _ in range(8)]
        report = check_coherence(Fake(space3), probes)
        assert not report.ok

    @pytest.mark.parametrize("axiom, rule", [
        ("boundedness", lambda g: g.minimum() - 1),
        ("bounds", lambda g: g.maximum() + 1),
        ("homogeneity", lambda g: g.minimum() + Fraction(1, 10)),
        ("constant-additivity", lambda g: 2 * g.minimum()),
        ("superadditivity", lambda g: g.maximum()),
        ("uniform-continuity", lambda g: 2 * g.minimum()),
        ("increasingness", lambda g: -sum(g.values)),
    ])
    def test_each_axiom_is_reported(self, space3, axiom, rule):
        class Incoherent(VacuousModel):
            def lower(self, g):
                return rule(g)

        probes = [Gamble.indicator(space3, "A"), Gamble.indicator(space3, "B"),
                  Gamble.constant(space3, 1)]
        report = check_coherence(Incoherent(space3), probes)
        assert axiom in {v.axiom for v in report.violations}

    def test_linear_superadditivity_tight(self, vertices3, space3):
        rng = random.Random(8)
        model = LinearModel(vertices3[2])
        for _ in range(50):
            f = rand_gamble(rng, space3)
            g = rand_gamble(rng, space3)
            assert model.lower(f + g) == model.lower(f) + model.lower(g)

    def test_needs_two_probes(self, space3, f_example):
        with pytest.raises(ModelInvariantError):
            check_coherence(VacuousModel(space3), [f_example])


class TestDominates:
    def test_vacuous_below_everything(self, space3, envelope3):
        rng = random.Random(9)
        probes = [rand_gamble(rng, space3) for _ in range(50)]
        assert dominates(VacuousModel(space3), envelope3, probes)

    def test_envelope_below_each_vertex(self, envelope3, vertices3, space3, f_example):
        rng = random.Random(10)
        probes = [f_example] + [rand_gamble(rng, space3) for _ in range(30)]
        for p in vertices3:
            assert dominates(envelope3, LinearModel(p), probes)

    def test_space_mismatch(self, envelope3):
        other = VacuousModel(SampleSpace(("X", "Y")))
        with pytest.raises(SpaceMismatchError):
            dominates(other, envelope3, [])

    def test_anchored_model_is_least_conservative(self):
        rng = random.Random(13)
        for _ in range(40):
            space = rand_space(rng, 2, 4)
            vertices = tuple(rand_pmf(rng, space) for _ in range(rng.randint(1, 4)))
            env = EnvelopeModel(vertices)
            f = rand_gamble(rng, space)
            gamma = env.lower(f)
            model = AnchorGammaModel(anchor=f, gamma=gamma)
            probes = [rand_gamble(rng, space) for _ in range(25)]
            assert dominates(model, env, probes)
