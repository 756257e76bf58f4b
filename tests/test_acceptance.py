"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the library, at full strength:
exact rational values where the contract is exactness, and statistical
success-rate thresholds over fixed seed ranges where the contract is
probabilistic.  Every test prints a single summary line on success.
"""

import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest

from imprand import (
    CyclicSystem,
    EnvelopeModel,
    Gamble,
    GeneratorSpec,
    LLNStrategyParams,
    LinearModel,
    ProbabilityMassFunction,
    SelectionProcess,
    SequencePrefix,
    Situation,
    StationarySystem,
    VacuousModel,
    battery_for_gambles,
    check_coherence,
    check_running_average,
    classify_process,
    default_battery,
    difference,
    dominates,
    estimate_interval,
    from_multiplier,
    generate,
    linear_expectation,
    lln_strategy,
    mixture_weights,
    rationalize,
    run_battery,
    run_battery_fast,
)
from imprand.forecasting import iter_situations
from imprand.lowerexp import AnchorGammaModel, AnchorIntervalModel
from imprand.martingale import ApproxProcess, RationalProcess

from conftest import (
    rand_fraction,
    rand_gamble,
    rand_pmf,
    rand_space,
    rand_supermartingale_multiplier,
)


def test_envelope_worked_values_exact(space3, vertices3, envelope3, f_example):
    """The three-vertex envelope gives exact bounds for f = (1, -2, 3)."""
    per_vertex = [linear_expectation(p, f_example) for p in vertices3]
    assert per_vertex == [Fraction(1, 2), Fraction(2), Fraction(-1, 2)]
    assert envelope3.lower(f_example) == Fraction(-1, 2)
    assert envelope3.upper(f_example) == Fraction(2)
    assert check_coherence(envelope3, [f_example, -f_example,
                                       Gamble.indicator(space3, "B")]).ok
    print("ACCEPTANCE 1: PASS — envelope bounds are exactly [-1/2, 2]")


def test_halving_strategy_is_exact_martingale(space3, envelope3,
                                              halving_multiplier):
    """The (1/2, 3/2, 1/2) multiplier has upper expected increment exactly
    zero at every situation up to depth 5 and classifies as a test
    supermartingale."""
    sys = StationarySystem(envelope3)
    M = from_multiplier(halving_multiplier)
    count = 0
    for s in iter_situations(space3, 5):
        delta = difference(M, s)
        assert envelope3.upper(delta) == 0
        count += 1
    assert count == 364
    report = classify_process(M, sys, 5)
    assert report.supermartingale and report.test
    assert not report.witnesses
    print(f"ACCEPTANCE 2: PASS — zero upper increment at all {count} "
          "situations to depth 5")


def test_anchored_models_hit_their_targets():
    """Pinning E(f) = gamma or E(f) in an interval yields coherent models
    that attain the pin exactly and sit below every compatible envelope."""
    rng = random.Random(2024)
    for _ in range(100):
        space = rand_space(rng)
        f = rand_gamble(rng, space)
        lo, hi = min(f.values), max(f.values)
        if lo == hi:
            continue
        gamma = lo + (hi - lo) * Fraction(rng.randint(0, 8), 8)
        model = AnchorGammaModel(anchor=f, gamma=gamma)
        assert model.lower(f) == gamma
        assert model.upper(f) == hi
        probes = [rand_gamble(rng, space) for _ in range(6)]
        assert check_coherence(model, probes).ok
    for _ in range(100):
        space = rand_space(rng)
        f = rand_gamble(rng, space)
        lo, hi = min(f.values), max(f.values)
        if lo == hi:
            continue
        a = lo + (hi - lo) * Fraction(rng.randint(0, 7), 8)
        b = a + (hi - a) * Fraction(rng.randint(0, 8), 8)
        model = AnchorIntervalModel(anchor=f, lo=a, hi=b)
        assert model.lower(f) == a
        assert model.upper(f) == b
        probes = [rand_gamble(rng, space) for _ in range(6)]
        assert check_coherence(model, probes).ok
    # least-conservative: the pinned model lies below any coherent model
    # agreeing on the pin
    for _ in range(40):
        space = rand_space(rng)
        envelope = EnvelopeModel(tuple(rand_pmf(rng, space)
                                       for _ in range(rng.randint(1, 4))))
        f = rand_gamble(rng, space)
        pinned = AnchorGammaModel(anchor=f, gamma=envelope.lower(f))
        probes = [rand_gamble(rng, space) for _ in range(25)]
        assert dominates(pinned, envelope, probes)
    print("ACCEPTANCE 3: PASS — 200 random pinned models exact and coherent, "
          "40 dominance checks")


def test_rationalized_process_tracks_and_stays_strict(space3):
    """Rationalizing an approximately known non-negative supermartingale
    yields an exact positive strict supermartingale starting at 1 that stays
    within 7*alpha of the original."""
    rng = random.Random(77)
    checked = 0
    for _ in range(100):
        space = rand_space(rng, 2, 4)
        depth = {2: 6, 3: 5, 4: 4}[space.size]
        envelope = EnvelopeModel(tuple(rand_pmf(rng, space)
                                       for _ in range(rng.randint(1, 3))))
        sys = StationarySystem(envelope)
        scale = rand_fraction(rng, 1, 5)
        base = from_multiplier(rand_supermartingale_multiplier(rng, sys, depth))
        M = RationalProcess(space, lambda s, b=base, c=scale: c * b.value(s))
        approx = ApproxProcess(space, net=lambda s, n, m=M: m.value(s),
                               modulus=lambda s, N: 0)
        prime, alpha = rationalize(approx)
        root = Situation.root(space)
        assert prime.value(root) == 1
        assert alpha == scale + 6
        report = classify_process(prime, sys, depth - 1)
        assert report.supermartingale and report.strict and report.non_negative
        for s in iter_situations(space, depth - 1):
            v = prime.value(s)
            assert v > 0
            assert abs(alpha * v - M.value(s)) <= 7
        checked += 1
    assert checked == 100
    print("ACCEPTANCE 4: PASS — 100 rationalized processes start at 1, stay "
          "strict and positive, and track within the stated gap")


def test_betting_capital_growth_bound():
    """When the running average of the forecast gap stays at or below -eps,
    the one-step factors 1 - xi*gap compound to at least
    exp(eps^2 / (4 B^2) * n)."""
    rng = random.Random(31)
    mpmath.mp.prec = 128
    for _ in range(500):
        B = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        eps = B * Fraction(rng.randint(1, 7), 8)
        xi = eps / (2 * B * B)
        n = rng.randint(1, 60)
        slack = B - eps
        deltas = [-eps + slack * Fraction(rng.randint(-8, 8), 8)
                  for _ in range(n)]
        if sum(deltas) > -eps * n:
            deltas = [-2 * eps - d for d in deltas]  # reflect about -eps
        assert sum(deltas) <= -eps * n
        assert all(-B <= d <= B for d in deltas)
        capital = Fraction(1)
        for d in deltas:
            capital *= 1 - xi * d
        ln_capital = mpmath.log(mpmath.mpf(capital.numerator)) - mpmath.log(
            mpmath.mpf(capital.denominator))
        bound = (mpmath.mpf(eps.numerator) / eps.denominator) ** 2 / (
            4 * (mpmath.mpf(B.numerator) / B.denominator) ** 2) * n
        assert ln_capital >= bound - mpmath.mpf("1e-9")
    # supporting inequality used in the derivation
    for k in range(1, 10001):
        y = -0.4999 + k * (10.0 + 0.4999) / 10001
        assert math.log1p(y) >= y - y * y - 1e-12
    print("ACCEPTANCE 5: PASS — growth bound holds on 500 random runs "
          "(128-bit logs) and the log inequality on 10^4 points")


def test_random_bounded_multipliers_classify_as_tests():
    """Any multiplier whose one-step factors have upper forecast at most 1
    induces a non-negative supermartingale test."""
    rng = random.Random(404)
    for _ in range(100):
        space = rand_space(rng, 2, 4)
        envelope = EnvelopeModel(tuple(rand_pmf(rng, space)
                                       for _ in range(rng.randint(1, 3))))
        sys = StationarySystem(envelope)
        D = rand_supermartingale_multiplier(rng, sys, 4)
        report = classify_process(from_multiplier(D), sys, 4)
        assert report.supermartingale and report.non_negative and report.test
        assert not report.witnesses
    print("ACCEPTANCE 6: PASS — 100 random bounded multipliers are test "
          "supermartingales to depth 4")


@pytest.fixture(scope="module")
def space3m():
    from imprand import SampleSpace
    return SampleSpace(("A", "B", "C"))


def test_consistent_data_has_low_deficiency(space3m):
    """Data drawn from the forecast distribution itself keeps the default
    battery's deficiency under 10 bits in at least 95 of 100 seeded runs."""
    space = space3m
    p = ProbabilityMassFunction(
        space, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
    sys = StationarySystem(LinearModel(p))
    battery = default_battery(space)
    passed = 0
    for seed in range(100):
        prefix = generate(GeneratorSpec.iid(p, 20000, seed=seed))
        result = run_battery_fast(prefix, sys, battery)
        passed += result.deficiency_bits <= 10.0
    assert passed >= 95
    print(f"ACCEPTANCE 7: PASS — {passed}/100 consistent runs stayed under "
          "10 bits")


def test_inconsistent_data_is_rejected(space3m):
    """Data violating a pinned forecast accumulates at least 20 bits of
    deficiency in at least 95 of 100 seeded runs."""
    space = space3m
    model = AnchorGammaModel(anchor=Gamble.indicator(space, "A"),
                             gamma=Fraction(3, 4))
    sys = StationarySystem(model)
    battery = default_battery(space)
    source = ProbabilityMassFunction(
        space, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
    passed = 0
    for seed in range(100):
        prefix = generate(GeneratorSpec.iid(source, 20000, seed=seed))
        result = run_battery_fast(prefix, sys, battery)
        passed += result.deficiency_bits >= 20.0
    assert passed >= 95
    print(f"ACCEPTANCE 8: PASS — {passed}/100 inconsistent runs exceeded "
          "20 bits")


def test_interval_estimation_recovers_alternating_means(space3m, ):
    """On data alternating between means +1/2 and -1/2, the accepted
    interval for f lands within 1/8 of [-1/2, 1/2] and the residue-class
    averages land within 0.05 of the true means, each in at least 90 of 100
    seeded runs."""
    space = space3m
    half = Fraction(1, 2)
    f = Gamble(space, (Fraction(1), Fraction(-2), Fraction(3)))
    v_even = ProbabilityMassFunction(space, (Fraction(0), half, half))
    v_odd = ProbabilityMassFunction(space, (half, half, Fraction(0)))
    sys = CyclicSystem((LinearModel(v_even), LinearModel(v_odd)))
    tol = Fraction(1, 8)
    interval_hits = 0
    average_hits = 0
    for seed in range(100):
        prefix = generate(GeneratorSpec.cyclic((v_even, v_odd), 20000,
                                               seed=seed))
        est = estimate_interval(prefix, f, selection_moduli=(1, 2))
        if (abs(est.lo_accept + half) <= tol
                and abs(est.hi_accept - half) <= tol):
            interval_hits += 1
        even = check_running_average(prefix, f,
                                     SelectionProcess.residue_class(2, 0), sys)
        odd = check_running_average(prefix, f,
                                    SelectionProcess.residue_class(2, 1), sys)
        if (abs(float(even.average) - 0.5) <= 0.05
                and abs(float(odd.average) + 0.5) <= 0.05):
            average_hits += 1
    assert interval_hits >= 90
    assert average_hits >= 90
    print(f"ACCEPTANCE 9: PASS — interval within 1/8 in {interval_hits}/100 "
          f"runs, residue averages within 0.05 in {average_hits}/100")


def test_adversarial_sequence_defeats_its_battery(space3m):
    """The adversarial generator keeps the exact battery mixture at or below
    1 forever, hence every member's weighted capital below 1, and its greedy
    choice is globally optimal when all members bet against the same symbol."""
    space = space3m
    half = Fraction(1, 2)
    envelope = EnvelopeModel((
        ProbabilityMassFunction(space, (Fraction(0), half, half)),
        ProbabilityMassFunction(space, (half, Fraction(0), half)),
        ProbabilityMassFunction(space, (half, half, Fraction(0))),
    ))
    sys = StationarySystem(envelope)
    f = Gamble(space, (Fraction(1), Fraction(-2), Fraction(3)))
    params = [
        LLNStrategyParams(f=f, direction="lower", epsilon=eps,
                          selection=sel)
        for eps, sel in (
            (Fraction(5, 2), SelectionProcess.all_ones()),
            (Fraction(5, 4), SelectionProcess.all_ones()),
            (Fraction(5, 8), SelectionProcess.all_ones()),
            (Fraction(5, 4), SelectionProcess.residue_class(2, 0)),
            (Fraction(5, 4), SelectionProcess.residue_class(2, 1)),
        )
    ]
    battery = [lln_strategy(p, sys) for p in params]
    weights = mixture_weights(len(battery))

    seq = generate(GeneratorSpec.adversarial(battery, 1000))
    capitals = [Fraction(1)] * len(battery)
    for n in range(len(seq)):
        s = seq.situation(n)
        x = seq.symbols[n]
        for i, member in enumerate(battery):
            capitals[i] *= member.factor(s)[x]
        mixture = sum(w * c for w, c in zip(weights, capitals))
        assert mixture <= 1
        for w, c in zip(weights, capitals):
            assert w * c < 1

    # exhaustive optimality at depth 5: no path yields a smaller final mixture
    def final_mixture(path):
        caps = [Fraction(1)] * len(battery)
        for n, x in enumerate(path):
            s = Situation(space, path[:n])
            for i, member in enumerate(battery):
                caps[i] *= member.factor(s)[x]
        return sum(w * c for w, c in zip(weights, caps))

    greedy = final_mixture(seq.symbols[:5])
    best = min(final_mixture(p) for p in itertools.product(range(3), repeat=5))
    assert greedy == best
    print("ACCEPTANCE 10: PASS — adversarial mixture bounded over 1000 steps "
          "and greedy play matches the depth-5 optimum")


def test_vacuous_model_absorbs_everything(space3m):
    """Against the vacuous model no betting strategy in the standard family
    can grow: every one-step factor is at most 1 and the deficiency of any
    data is exactly zero."""
    space = space3m
    sys = StationarySystem(VacuousModel(space))
    f = Gamble(space, (Fraction(1), Fraction(-2), Fraction(3)))
    params = battery_for_gambles([f], selection_moduli=(1,),
                                 directions=("lower",))
    battery = [lln_strategy(p, sys) for p in params]
    assert len(battery) == 4

    # both betting directions have one-step factors at most 1 here
    full_family = [lln_strategy(p, sys)
                   for p in battery_for_gambles([f], selection_moduli=(1, 2))]
    for member in full_family:
        for s in iter_situations(space, 3):
            assert max(member.factor(s).values) <= 1

    rng = random.Random(606)
    for _ in range(50):
        prefix = SequencePrefix(
            space, tuple(rng.randrange(3) for _ in range(1000)))
        t = run_battery(prefix, sys, battery)
        assert t.deficiency_bits == 0.0
        assert t.mixture_max <= 1
    print("ACCEPTANCE 11: PASS — vacuous forecasts give exactly zero "
          "deficiency on 50 random sequences")
