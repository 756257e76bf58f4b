import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from imprand import (
    ApproxProcess,
    CyclicSystem,
    EnvelopeModel,
    Gamble,
    LLNStrategyParams,
    LinearModel,
    MultiplierProcess,
    ProgrammaticSystem,
    RationalProcess,
    SampleSpace,
    SelectionProcess,
    Situation,
    StationarySystem,
    TableSystem,
    cap_process,
    classify_process,
    difference,
    from_multiplier,
    lln_strategy,
    mix,
    rationalize,
)
from imprand.core import ModelInvariantError
from imprand.forecasting import iter_situations
from imprand.lowerexp import AnchorGammaModel, LowerExpectation
from imprand.martingale import _over_common_denominator, mixture_weights

from conftest import rand_pmf, rand_space, rand_supermartingale_multiplier


class TestDifference:
    def test_halving_process_at_root(self, space3, halving_multiplier):
        M = from_multiplier(halving_multiplier)
        d = difference(M, Situation.root(space3))
        assert d.values == (Fraction(-1, 2), Fraction(1, 2), Fraction(-1, 2))

    def test_constant_process(self, space3):
        M = RationalProcess.constant(space3, Fraction(5, 3))
        assert difference(M, Situation.root(space3)).values == (
            Fraction(0), Fraction(0), Fraction(0))

    def test_doubling_process(self, space3):
        M = RationalProcess(space3, lambda s: Fraction(2 ** s.depth))
        s = Situation(space3, (1, 1))
        assert difference(M, s).values == (Fraction(4),) * 3


class TestClassify:
    def test_halving_process_is_test_supermartingale(
            self, space3, envelope3, halving_multiplier):
        M = from_multiplier(halving_multiplier)
        report = classify_process(M, StationarySystem(envelope3), 6)
        assert report.supermartingale
        assert not report.strict  # the upper increment is exactly zero
        assert report.non_negative
        assert report.test
        assert report.witnesses == []

    def test_constant_one_is_both(self, space3, envelope3):
        M = RationalProcess.constant(space3, Fraction(1))
        report = classify_process(M, StationarySystem(envelope3), 4)
        assert report.supermartingale and report.submartingale
        assert report.test

    def test_doubling_is_strict_submartingale_only(self, space3, vertices3):
        M = RationalProcess(space3, lambda s: Fraction(2 ** s.depth))
        report = classify_process(M, StationarySystem(LinearModel(vertices3[0])), 4)
        assert report.submartingale and report.strict_submartingale
        assert not report.supermartingale
        assert report.witnesses  # every interior situation violates

    def test_negation_conjugacy(self, envelope3, space3):
        rng = random.Random(31)
        sys = StationarySystem(envelope3)
        for _ in range(20):
            table = {
                s.symbols: Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                for s in iter_situations(space3, 4)
            }
            M = RationalProcess(space3, lambda s, t=table: t[s.symbols])
            neg = RationalProcess(space3, lambda s, m=M: -m.value(s))
            a = classify_process(M, sys, 3)
            b = classify_process(neg, sys, 3)
            assert a.supermartingale == b.submartingale
            assert a.strict == b.strict_submartingale
            assert a.submartingale == b.supermartingale


class TestFromMultiplier:
    def test_constant_one(self, space3):
        D = MultiplierProcess.constant(space3, Gamble.constant(space3, 1))
        assert D.period == 1
        M = from_multiplier(D)
        for s in iter_situations(space3, 3):
            assert M.value(s) == 1

    def test_matches_direct_recursion(self, space3, halving_multiplier):
        M = from_multiplier(halving_multiplier)
        factors = (Fraction(1, 2), Fraction(3, 2), Fraction(1, 2))

        def direct(symbols):
            v = Fraction(1)
            for x in symbols:
                v *= factors[x]
            return v

        for s in iter_situations(space3, 4):
            assert M.value(s) == direct(s.symbols)

    def test_negative_factor_rejected(self, space3):
        D = MultiplierProcess(
            space3, lambda s: Gamble(space3, (Fraction(-1), Fraction(1), Fraction(1))))
        with pytest.raises(ModelInvariantError):
            from_multiplier(D).value(Situation(space3, (0,)))

    def test_period_must_be_none_or_a_positive_integer(self, space3):
        # a period of 0 or below once died walking (integer modulo by zero), and
        # 2.5 with a TypeError; each is refused where the process is built
        one = Gamble.constant(space3, 1)
        for bad in (0, -2, 2.5, "2", True):
            with pytest.raises(ModelInvariantError,
                               match=re.escape(f"integer >= 1, got {bad!r}")):
                MultiplierProcess(space3, lambda s: one, period=bad)
        for good in (None, 1, 3):
            assert MultiplierProcess(space3, lambda s: one, period=good).period == good

    def test_bounded_multiplier_gives_test_supermartingale(self):
        rng = random.Random(32)
        for _ in range(10):
            space = rand_space(rng, 2, 3)
            sys = StationarySystem(EnvelopeModel(
                tuple(rand_pmf(rng, space) for _ in range(2))))
            D = rand_supermartingale_multiplier(rng, sys, 3)
            report = classify_process(from_multiplier(D), sys, 3)
            assert report.test and report.witnesses == []


class TestSelection:
    def test_all_ones(self, space3):
        sel = SelectionProcess.all_ones()
        assert sel.selects(Situation(space3, (0, 1))) == 1
        assert sel == SelectionProcess.residue_class(1, 0)

    def test_residue_class(self, space3):
        sel = SelectionProcess.residue_class(3, 1)
        picked = [sel.selects(Situation(space3, (0,) * d)) for d in range(7)]
        assert picked == [0, 1, 0, 0, 1, 0, 0]

    def test_table(self, space3):
        sel = SelectionProcess.from_table({(0,): 1}, default=0)
        assert sel.selects(Situation(space3, (0,))) == 1
        assert sel.selects(Situation(space3, (1,))) == 0
        assert sel.period is None

    def test_table_duplicate_and_missing_paths(self, space3):
        # built directly, a table may repeat a path: its first row wins, as a
        # scan of the rows in order finds it; a missing path reads the default
        table = (((0,), 1), ((1, 2), 1), ((0,), 0), ((), 1))
        for default in (0, 1):
            sel = SelectionProcess(kind="table", table=table, default=default)
            answers = [sel.selects(Situation(space3, path))
                       for path in ((0,), (1, 2), (), (2,), (1,), (0, 0))]
            assert answers == [1, 1, 1, default, default, default]
        # equality and hashing still read the fields alone
        a = SelectionProcess(kind="table", table=table)
        b = SelectionProcess(kind="table", table=table)
        assert a == b and hash(a) == hash(b)
        assert a != SelectionProcess(kind="table", table=table[:1])
        with pytest.raises(ModelInvariantError):
            SelectionProcess(kind="table", table=(((0,), 1), ((1,), 2)))

    def test_table_values_are_checked_not_truncated(self, space3):
        # from_table hands its values to the constructor, which rejects what
        # is not 0 or 1 instead of storing int(1.7) = 1 and int(0.4) = 0
        with pytest.raises(ModelInvariantError, match="selection values must be 0 or 1"):
            SelectionProcess.from_table({(0,): 1.7, (1,): 0.4})
        sel = SelectionProcess.from_table({(0,): 1, (1,): 0}, default=1)
        assert [sel.selects(Situation(space3, p)) for p in ((0,), (1,), (2,))] == [1, 0, 1]

    def test_period_by_kind(self):
        assert SelectionProcess.all_ones().period == 1
        assert SelectionProcess.residue_class(3, 1).period == 3
        assert SelectionProcess.from_table({(0,): 1}, default=1).period is None

    def test_bad_residue_rejected(self):
        with pytest.raises(ModelInvariantError):
            SelectionProcess.residue_class(2, 2)


class TestLLNStrategy:
    def test_params_invariants(self, space3):
        f = Gamble.indicator(space3, "A")
        p = LLNStrategyParams(f=f, direction="lower", epsilon=Fraction(1, 8),
                              selection=SelectionProcess.all_ones())
        assert p.bound == 1
        assert p.xi == Fraction(1, 16)
        with pytest.raises(ModelInvariantError):
            LLNStrategyParams(f=f, direction="lower", epsilon=Fraction(1),
                              selection=SelectionProcess.all_ones())
        with pytest.raises(ModelInvariantError):
            LLNStrategyParams(f=f, direction="sideways", epsilon=Fraction(1, 8),
                              selection=SelectionProcess.all_ones())

    def test_no_selection_means_no_betting(self, space3, envelope3, f_example):
        params = LLNStrategyParams(
            f=f_example, direction="lower", epsilon=Fraction(1),
            selection=SelectionProcess.from_table({}, default=0))
        D = lln_strategy(params, StationarySystem(envelope3))
        for s in iter_situations(space3, 3):
            assert D.factor(s).values == (Fraction(1),) * 3

    def test_factor_formula_both_directions(self, space3):
        f = Gamble.indicator(space3, "A")
        sys = StationarySystem(AnchorGammaModel(anchor=f, gamma=Fraction(3, 4)))
        lower = lln_strategy(
            LLNStrategyParams(f=f, direction="lower", epsilon=Fraction(1, 8),
                              selection=SelectionProcess.all_ones()), sys)
        upper = lln_strategy(
            LLNStrategyParams(f=f, direction="upper", epsilon=Fraction(1, 8),
                              selection=SelectionProcess.all_ones()), sys)
        root = Situation.root(space3)
        # lower forecast 3/4: increment f - 3/4, stake 1/16
        assert lower.factor(root).values == (
            Fraction(63, 64), Fraction(67, 64), Fraction(67, 64))
        # upper forecast is 1 (the anchor's max): increment 1 - f
        assert upper.factor(root).values == (
            Fraction(1), Fraction(15, 16), Fraction(15, 16))

    def test_all_b_capital_frozen_fixture(self, space3):
        # betting "frequency of A is at least 3/4" against all-B data
        # multiplies capital by 67/64 every step
        f = Gamble.indicator(space3, "A")
        sys = StationarySystem(AnchorGammaModel(anchor=f, gamma=Fraction(3, 4)))
        D = lln_strategy(
            LLNStrategyParams(f=f, direction="lower", epsilon=Fraction(1, 8),
                              selection=SelectionProcess.all_ones()), sys)
        M = from_multiplier(D)
        assert M.value(Situation(space3, (1,) * 16)) == Fraction(67, 64) ** 16
        # same bet on all-A data shrinks by 63/64 per step
        assert M.value(Situation(space3, (0,) * 16)) == Fraction(63, 64) ** 16
        # a deep path on a cold memo is evaluated without recursion and
        # without a memo entry per prefix
        deep = from_multiplier(D)
        s = Situation(space3, (1,) * 5000)
        tracemalloc.start()
        try:
            value = deep.value(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value == Fraction(67, 64) ** 5000
        assert peak < 20 * 2 ** 20

    def test_period_is_lcm_of_system_and_selection(self, space3, vertices3):
        f = Gamble.indicator(space3, "A")
        cyclic = CyclicSystem((LinearModel(vertices3[0]), LinearModel(vertices3[1])))
        table = TableSystem(table={}, default=LinearModel(vertices3[0]))

        def period(sys, sel):
            params = LLNStrategyParams(f=f, direction="lower", epsilon=Fraction(1, 8),
                                       selection=sel)
            return lln_strategy(params, sys).period

        assert period(cyclic, SelectionProcess.all_ones()) == 2
        assert period(cyclic, SelectionProcess.residue_class(3, 0)) == 6
        assert period(cyclic, SelectionProcess.from_table({}, default=1)) is None
        assert period(table, SelectionProcess.all_ones()) is None

    def test_table_system_factors_follow_the_path(self, space3, vertices3):
        # E(1_A) is 1/2 after an A and 0 after a B, both at depth 1
        f = Gamble.indicator(space3, "A")
        sys = TableSystem(table={(0,): LinearModel(vertices3[1])},
                          default=LinearModel(vertices3[0]))
        D = lln_strategy(
            LLNStrategyParams(f=f, direction="lower", epsilon=Fraction(1, 8),
                              selection=SelectionProcess.all_ones()), sys)
        assert D.factor(Situation(space3, (0,))).values == (
            Fraction(31, 32), Fraction(33, 32), Fraction(33, 32))
        assert D.factor(Situation(space3, (1,))).values == (
            Fraction(15, 16), Fraction(1), Fraction(1))

    def test_is_test_supermartingale(self, space3, envelope3, f_example):
        sys = StationarySystem(envelope3)
        params = LLNStrategyParams(
            f=f_example, direction="lower", epsilon=Fraction(5, 4),
            selection=SelectionProcess.residue_class(2, 0))
        report = classify_process(from_multiplier(lln_strategy(params, sys)), sys, 4)
        assert report.test and report.witnesses == []


class TestRationalize:
    @staticmethod
    def exact_approx(M, space):
        return ApproxProcess(space=space, net=lambda s, n: M.value(s),
                             modulus=lambda s, N: Fraction(0))

    def test_constant_one_formula(self, space3):
        M = RationalProcess.constant(space3, Fraction(1))
        prime, alpha = rationalize(self.exact_approx(M, space3))
        assert alpha == 7
        assert prime.value(Situation.root(space3)) == 1
        assert prime.value(Situation(space3, (0,))) == Fraction(4, 7)
        assert abs(alpha * Fraction(4, 7) - 1) <= 7

    def test_always_strict(self, space3, envelope3):
        M = RationalProcess.constant(space3, Fraction(1))
        prime, _ = rationalize(self.exact_approx(M, space3))
        report = classify_process(prime, StationarySystem(envelope3), 4)
        assert report.supermartingale and report.strict
        assert report.test

    def test_bound_holds_on_random_supermartingales(self):
        rng = random.Random(33)
        for _ in range(15):
            space = rand_space(rng, 2, 3)
            sys = StationarySystem(EnvelopeModel(
                tuple(rand_pmf(rng, space) for _ in range(2))))
            scale = Fraction(rng.randint(1, 12), rng.randint(1, 3))
            base = from_multiplier(rand_supermartingale_multiplier(rng, sys, 4))
            M = RationalProcess(space, lambda s, b=base, c=scale: c * b.value(s))
            prime, alpha = rationalize(self.exact_approx(M, space))
            assert prime.value(Situation.root(space)) == 1
            for s in iter_situations(space, 4):
                assert prime.value(s) > 0
                assert abs(alpha * prime.value(s) - M.value(s)) <= 7


class TestCapAndMix:
    def test_cap_doubling_at_two(self, space3):
        M = RationalProcess(space3, lambda s: Fraction(2 ** s.depth))
        capped = cap_process(M, 1)
        path = [capped.value(Situation(space3, (0,) * d)) for d in range(5)]
        assert path == [1, 2, 2, 2, 2]

    def test_cap_is_identity_below_threshold(self, space3, halving_multiplier):
        M = from_multiplier(halving_multiplier)
        capped = cap_process(M, 10)
        for s in iter_situations(space3, 4):
            assert capped.value(s) == M.value(s)

    def test_cap_at_zero_freezes_immediately(self, space3, halving_multiplier):
        M = from_multiplier(halving_multiplier)
        capped = cap_process(M, 0)
        for s in iter_situations(space3, 3):
            assert capped.value(s) == 1

    def test_cap_stays_frozen_after_peak(self, space3, halving_multiplier):
        M = from_multiplier(halving_multiplier)
        # B B: capital 3/2 then 9/4; cap at 2^1 freezes from the second B on
        capped = cap_process(M, 1)
        assert capped.value(Situation(space3, (1, 1))) == 2
        assert capped.value(Situation(space3, (1, 1, 0))) == 2

    def test_cap_crossed_midway_on_a_long_path(self, space3, halving_multiplier):
        # B B A blocks grow the capital by 9/8 (to about 2^56.6 at depth
        # 999), then every A halves it: the cap 2^56 is crossed midway
        path = (1, 1, 0) * 333 + (0,) * 1001
        capped = cap_process(from_multiplier(halving_multiplier), 56)
        cap = Fraction(2 ** 56)
        factors = (Fraction(1, 2), Fraction(3, 2), Fraction(1, 2))
        capital, running_max, expected = Fraction(1), Fraction(1), [Fraction(1)]
        for x in path:
            capital *= factors[x]
            running_max = max(running_max, capital)
            expected.append(cap if running_max >= cap else capital)
        crossing = expected.index(cap)
        assert 900 < crossing < 1000 and capital < 1
        for depth in (crossing - 1, crossing, crossing + 1, len(path)):
            s = Situation(space3, path[:depth])
            assert capped.value(s) == expected[depth]

    def test_cold_deep_cap_holds_two_depths(self, space3):
        # all-A data against the "at least 3/4 A" forecast shrinks the capital
        # by 63/64 per step, so the cap is never reached; keeping the value of
        # every prefix the walk asks for took about 19 MiB at depth 2000
        f = Gamble.indicator(space3, "A")
        sys = StationarySystem(AnchorGammaModel(anchor=f, gamma=Fraction(3, 4)))
        D = lln_strategy(
            LLNStrategyParams(f=f, direction="lower", epsilon=Fraction(1, 8),
                              selection=SelectionProcess.all_ones()), sys)
        capped = cap_process(from_multiplier(D), 10)
        s = Situation(space3, (0,) * 2000)
        tracemalloc.start()
        try:
            value = capped.value(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value == Fraction(63, 64) ** 2000
        assert peak < 2 * 2 ** 20

    def test_cap_preserves_supermartingale(self, space3, envelope3, halving_multiplier):
        M = from_multiplier(halving_multiplier)
        report = classify_process(cap_process(M, 1), StationarySystem(envelope3), 5)
        assert report.supermartingale and report.test

    def test_common_denominator(self):
        q, nums = _over_common_denominator(
            [Fraction(1, 6), Fraction(0), Fraction(3, 4), Fraction(5)])
        assert (q, nums) == (12, [2, 0, 9, 60])
        # the mixture weights over 2^count - 1 are 2^(count-1-i)
        for count in (1, 2, 5, 24):
            q, nums = _over_common_denominator(mixture_weights(count))
            assert q == 2 ** count - 1
            assert nums == [2 ** (count - 1 - i) for i in range(count)]

    def test_mix_weights(self):
        assert mixture_weights(1) == (Fraction(1),)
        assert mixture_weights(2) == (Fraction(2, 3), Fraction(1, 3))

    def test_mix_single_is_identity(self, space3, halving_multiplier):
        M = from_multiplier(halving_multiplier)
        mixed = mix([M])
        for s in iter_situations(space3, 3):
            assert mixed.value(s) == M.value(s)

    def test_mix_example_value(self, space3, halving_multiplier):
        M = from_multiplier(halving_multiplier)
        one = RationalProcess.constant(space3, Fraction(1))
        mixed = mix([M, one])
        # at the A child: (2/3)*(1/2) + (1/3)*1
        assert mixed.value(Situation(space3, (0,))) == Fraction(2, 3)

    def test_mix_constant_ones(self, space3):
        one = RationalProcess.constant(space3, Fraction(1))
        mixed = mix([one, RationalProcess.constant(space3, Fraction(1))])
        assert mixed.value(Situation(space3, (2, 2))) == 1

    def test_mix_empty_rejected(self):
        with pytest.raises(ModelInvariantError):
            mix([])

    def test_mix_preserves_supermartingale(self, space3, envelope3, halving_multiplier):
        M = from_multiplier(halving_multiplier)
        one = RationalProcess.constant(space3, Fraction(1))
        report = classify_process(mix([M, one]), StationarySystem(envelope3), 4)
        assert report.supermartingale and report.test


# non-negative factors, zeros included, and path-keyed rows of them
_path_factors = st.builds(Fraction, st.integers(0, 12), st.integers(1, 8))


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(_path_factors, _path_factors, _path_factors),
                     min_size=1, max_size=4),
       symbols=st.lists(st.integers(0, 2), max_size=40),
       k=st.integers(0, 6))
def test_path_values_agree_cold_walked_and_swept(rows, symbols, k):
    # capital and capped values read a kept parent value or walk from the root;
    # either way they must equal the recursion written out here
    space = SampleSpace(("A", "B", "C"))
    gambles = [Gamble(space, row) for row in rows]

    def fn(path):  # a factor that depends on the whole path
        return gambles[sum((i + 1) * x for i, x in enumerate(path)) % len(gambles)]

    cap = Fraction(2 ** k)

    def expected(path):
        running = [Fraction(1)]
        for n, x in enumerate(path):
            running.append(running[-1] * fn(path[:n])[x])
        return running[-1], (cap if max(running) >= cap else running[-1])

    def fresh():
        D = MultiplierProcess(space, lambda s: fn(s.symbols))
        return from_multiplier(D), cap_process(from_multiplier(D), k)

    s = Situation(space, symbols)
    depths = range(len(symbols) + 1)
    reference = [expected(s.situation(d).symbols) for d in depths]

    M, capped = fresh()  # cold: deepest first, no parent value kept
    cold = [(M.value(s.situation(d)), capped.value(s.situation(d))) for d in reversed(depths)]
    assert cold[::-1] == reference

    M, capped = fresh()  # walked from the root
    assert [(M.value(s.situation(d)), capped.value(s.situation(d))) for d in depths] == reference

    M, capped = fresh()  # after a breadth-first sweep, then down the path
    for t in iter_situations(space, 3):
        assert (M.value(t), capped.value(t)) == expected(t.symbols)
    tail = depths[min(3, len(symbols)):]
    assert [(M.value(s.situation(d)), capped.value(s.situation(d))) for d in tail] == \
        reference[tail.start:]


class _BelowItsMinimum(LowerExpectation):
    """Incoherent: lower(g) = min g - 100, so a lower-direction increment
    f - lower(f) is at least 100 and the stake cannot keep a factor positive."""

    def __init__(self, space):
        self.space = space

    def lower(self, g):
        return g.minimum() - 100


def _bet_against_an_incoherent_model(space):
    params = LLNStrategyParams(f=Gamble.indicator(space, "A"), direction="lower",
                               epsilon=Fraction(1, 2), selection=SelectionProcess.all_ones())
    sys = ProgrammaticSystem(space, lambda s: _BelowItsMinimum(space))
    return lln_strategy(params, sys).factor(Situation.root(space))


@pytest.mark.parametrize("build, message", [
    (lambda space: SelectionProcess(kind="prefix"), "unknown selection kind 'prefix'"),
    (lambda space: SelectionProcess(kind="table", default=2), "selection values must be 0 or 1"),
    (_bet_against_an_incoherent_model, "betting factor not positive at (): min -97/4"),
    (lambda space: rationalize(ApproxProcess(space, net=lambda s, n: Fraction(-7),
                                             modulus=lambda s, N: Fraction(0))),
     "root approximation -7 violates the non-negativity contract"),
    (lambda space: cap_process(RationalProcess.constant(space, 1), -1),
     "cap exponent must be non-negative, got -1"),
    (lambda space: mixture_weights(0), "weight count must be positive"),
])
def test_guards(space3, build, message):
    with pytest.raises(ModelInvariantError, match=re.escape(message)):
        build(space3)
