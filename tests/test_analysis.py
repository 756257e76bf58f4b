import dataclasses
import hashlib
import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction
from sys import getswitchinterval, setswitchinterval

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imprand import (
    AnchorIntervalModel,
    EnvelopeModel,
    Gamble,
    GeneratorSpec,
    LLNStrategyParams,
    LinearModel,
    CyclicSystem,
    MultiplierProcess,
    ProbabilityMassFunction,
    ProgrammaticSystem,
    SampleSpace,
    SelectionProcess,
    SequencePrefix,
    Situation,
    SpaceMismatchError,
    StationarySystem,
    TableSystem,
    VacuousModel,
    battery_for_gambles,
    check_running_average,
    classify_process,
    default_battery,
    dominates,
    estimate_interval,
    from_multiplier,
    generate,
    lln_strategy,
    pointwise_leq,
    run_battery,
    run_battery_fast,
)
from imprand import analysis
from imprand.analysis import AverageReport
from imprand.core import ModelInvariantError, log2_rational
from imprand.forecasting import iter_situations, joint_period
from imprand.lowerexp import AnchorGammaModel
from imprand.martingale import mixture_weights

from conftest import rand_gamble, rand_pmf


@pytest.fixture
def anchor_sys(space3):
    f = Gamble.indicator(space3, "A")
    return StationarySystem(AnchorGammaModel(anchor=f, gamma=Fraction(3, 4)))


@pytest.fixture
def anchor_strategy(space3, anchor_sys):
    params = LLNStrategyParams(
        f=Gamble.indicator(space3, "A"), direction="lower",
        epsilon=Fraction(1, 8), selection=SelectionProcess.all_ones())
    return lln_strategy(params, anchor_sys)


@pytest.fixture
def period2_prefix(vertices3):
    """20000 steps alternating between the vertices (0, 1/2, 1/2) and
    (1/2, 1/2, 0): at the grid points a sweep rejects, some capitals fall
    thousands of bits below the step's largest."""
    return generate(GeneratorSpec.cyclic((vertices3[0], vertices3[2]), 20000, seed=1))


def capitals(member, prefix):
    """The member's capital at every step of the prefix."""
    M = from_multiplier(member)
    return tuple(M.value(prefix.situation(n)) for n in range(len(prefix) + 1))


def _phase_tables(sys, strategies):
    """Each strategy's exact factors once per phase of its own period, in
    Trajectory.factors' format: the float kernel's bet rows as its compiled
    battery numbers them, so every member placing one bet holds its one row."""
    battery = analysis._CompiledBattery(strategies, sys.period)
    rows = battery.rows(sys)
    return tuple(tuple(rows[b] for b in bets) for bets in battery.members)


def _count_compilations(monkeypatch):
    """Each battery compiled from here on, as the set of its strategies'
    directions; a subclass counts, so the kernel's isinstance check still holds."""
    compiled = []

    class Counting(analysis._CompiledBattery):
        def __new__(cls, strategies, period):
            compiled.append({p.direction for p in strategies})
            return super().__new__(cls, strategies, period)

    monkeypatch.setattr(analysis, "_CompiledBattery", Counting)
    return compiled


def per_step(t):
    """The factor each member took at each step, by the rule of Trajectory.factors."""
    return tuple(tuple(rows[n % len(rows)][x] for n, x in enumerate(t.prefix.symbols))
                 for rows in t.factors)


class TestRunBattery:
    def test_empty_prefix(self, space3, anchor_sys, anchor_strategy):
        prefix = SequencePrefix(space3, ())
        t = run_battery(prefix, anchor_sys, [anchor_strategy])
        assert capitals(anchor_strategy, prefix) == (Fraction(1),)
        assert t.factors == ((),)
        assert t.deficiency_bits == 0.0

    def test_all_b_regression_fixture(self, space3, anchor_sys, anchor_strategy):
        # all-B data against the "at least 3/4 A" forecast: each step
        # multiplies by 67/64
        prefix = SequencePrefix(space3, (1,) * 64)
        t = run_battery(prefix, anchor_sys, [anchor_strategy])
        assert capitals(anchor_strategy, prefix)[-1] == Fraction(67, 64) ** 64
        assert t.mixture_max == Fraction(67, 64) ** 64
        expected_bits = 64 * 0.06608919045777575  # log2(67/64)
        assert abs(t.deficiency_bits - expected_bits) < 1e-9
        assert t.argmax_step == 64

    def test_halving_strategy_on_balanced_path(self, space3, envelope3,
                                               halving_multiplier):
        sys = StationarySystem(envelope3)
        # on this path no prefix has more B's than non-B's, so the capital
        # (x1/2 on A/C, x3/2 on B) never exceeds 1
        prefix = SequencePrefix(space3, (0, 1, 2, 1, 0))
        t = run_battery(prefix, sys, [halving_multiplier])
        assert capitals(halving_multiplier, prefix) == (
            Fraction(1), Fraction(1, 2), Fraction(3, 4), Fraction(3, 8),
            Fraction(9, 16), Fraction(9, 32))
        assert t.mixture_max <= 1
        assert t.deficiency_bits == 0.0
        prefix = SequencePrefix(space3, (0, 2, 0))
        t = run_battery(prefix, sys, [halving_multiplier])
        assert t.deficiency_bits == 0.0
        assert max(capitals(halving_multiplier, prefix)) <= 1

    def test_programmatic_system_walks_like_its_stationary_model(self, space3, anchor_sys):
        # a rule that returns one model has no period, so its members take the
        # path-keyed walk; the periodic walk of the same model must agree
        p = ProbabilityMassFunction(space3, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
        prefix = generate(GeneratorSpec.iid(p, 200, seed=1))
        params = battery_for_gambles([Gamble.indicator(space3, "A")], selection_moduli=(1, 2))
        programmatic = ProgrammaticSystem(space3, lambda s: anchor_sys.model)
        keyed, periodic = (run_battery(prefix, sys, [lln_strategy(q, sys) for q in params])
                           for sys in (programmatic, anchor_sys))
        assert {len(rows) for rows in keyed.factors} == {200}
        assert per_step(keyed) == per_step(periodic)
        assert keyed.mixture_log2 == periodic.mixture_log2
        assert keyed.mixture_max == periodic.mixture_max
        assert keyed.argmax_step == periodic.argmax_step
        assert periodic.deficiency_bits > 1

    def test_empty_battery_rejected(self, space3, anchor_sys):
        with pytest.raises(ModelInvariantError):
            run_battery(SequencePrefix(space3, (0,)), anchor_sys, [])

    def test_audit_depth_rejects_bad_strategy(self, space3, envelope3):
        # run_battery only walks; the audit is the classification of the
        # member's capital process
        growing = MultiplierProcess(
            space3, lambda s: Gamble.constant(space3, Fraction(3, 2)))
        report = classify_process(from_multiplier(growing),
                                  StationarySystem(envelope3), 2)
        assert report.test is False
        assert report.witnesses

    def test_threads_agree_with_serial(self, space3, anchor_sys,
                                       halving_multiplier):
        # six members of several periods on fewer threads, whose paths must
        # come back in battery order; the second battery holds two member
        # objects twice, and threads switch as often as they can
        battery = [lln_strategy(p, anchor_sys) for p in default_battery(space3)[:5]]
        battery.append(halving_multiplier)
        prefix = SequencePrefix(space3, (1, 0, 1, 1, 2, 0) * 10)
        interval = getswitchinterval()
        setswitchinterval(1e-6)
        try:
            for members in (battery, battery + [halving_multiplier, battery[0]]):
                a = run_battery(prefix, anchor_sys, members, threads=1)
                for threads in (2, 3, 4):
                    b = run_battery(prefix, anchor_sys, members, threads=threads)
                    assert b.factors == a.factors
                    assert b.mixture_log2 == a.mixture_log2
                    assert b.mixture_max == a.mixture_max
                    assert b.argmax_step == a.argmax_step
        finally:
            setswitchinterval(interval)

    def test_threads_must_be_positive(self, space3, anchor_sys, anchor_strategy):
        with pytest.raises(ModelInvariantError):
            run_battery(SequencePrefix(space3, (0,)), anchor_sys, [anchor_strategy],
                        threads=0)

    def test_members_are_asked_at_their_phase(self, space3, anchor_sys):
        class Recording(MultiplierProcess):
            def factor(self, s):
                self.asked.append(s)
                return super().factor(s)

        one = Gamble.constant(space3, 1)
        periodic = Recording(space3, lambda s: one, period=3)
        path_keyed = Recording(space3, lambda s: one)
        other = Recording(space3, lambda s: one)
        periodic.asked, path_keyed.asked, other.asked = [], [], []
        prefix = SequencePrefix(space3, (1, 0, 2, 2) * 5)
        run_battery(prefix, anchor_sys, [path_keyed, periodic, other])
        # a periodic member is asked once per phase, in order, on the data path
        assert [s.symbols for s in periodic.asked] == [prefix.symbols[:t] for t in range(3)]
        assert [s.depth for s in path_keyed.asked] == list(range(20))
        # the members without a period share one situation per step
        assert all(s is t for s, t in zip(path_keyed.asked, other.asked, strict=True))
        # a prefix shorter than the period never asks the phases it does not reach
        long = Recording(space3, lambda s: one, period=5)
        long.asked = []
        t = run_battery(SequencePrefix(space3, (2, 1)), anchor_sys, [long])
        assert [s.symbols for s in long.asked] == [(), (2,)]
        assert t.factors == (((1, 1, 1),) * 2,)  # one row per phase reached
        assert per_step(t) == ((1, 1),)

    def test_memory_is_linear_in_steps(self, space3, anchor_sys):
        # a unit-factor member keeps every capital at 1, so the peak is the
        # paths and situations alone; holding all 4000 prefix situations at
        # once would take about 62 MiB
        unit = MultiplierProcess(space3, lambda s: Gamble.constant(space3, 1),
                                 period=1)
        prefix = SequencePrefix(space3, (1, 0, 2) * 1333 + (0,))
        run_battery(prefix, anchor_sys, [unit])
        tracemalloc.start()
        try:
            run_battery(prefix, anchor_sys, [unit])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20

    def test_path_keyed_walks_hold_one_factor(self, space3, anchor_sys):
        # a unit-factor member without a period; memoizing the factor of
        # every prefix of a 4000-step walk would take about 61 MiB
        one = Gamble.constant(space3, 1)
        prefix = SequencePrefix(space3, (1, 0, 2) * 1333 + (0,))
        walks = {
            "run_battery": lambda unit: run_battery(prefix, anchor_sys, [unit]),
            "adversarial": lambda unit: generate(
                GeneratorSpec.adversarial([unit], 4000)),
        }
        peaks = {}
        for name, walk in walks.items():
            walk(MultiplierProcess(space3, lambda s: one))
            # a fresh member, so no factor is memoized before the walk
            unit = MultiplierProcess(space3, lambda s: one)
            tracemalloc.start()
            try:
                walk(unit)
                _, peaks[name] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert max(peaks.values()) < 5 * 2 ** 20, peaks

    def test_unit_factors_share_the_capital(self, space3, anchor_sys, f_example):
        # most factors of the residue-class members are exactly 1; such a step
        # keeps the previous capital
        battery = [lln_strategy(p, anchor_sys)
                   for p in default_battery(space3, (f_example,))[:24]]
        p = ProbabilityMassFunction(space3, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
        prefix = generate(GeneratorSpec.iid(p, 300, seed=1))
        units = 0
        for member in battery:
            path = capitals(member, prefix)
            for n, x in enumerate(prefix.symbols, start=1):
                if member.factor(prefix.situation(n - 1))[x] == 1:
                    units += 1
                    assert path[n] == path[n - 1]
        assert units > 24 * 300 // 3
        # the 1000-step trajectory holds about 5.8 MiB, and 9.9 MiB with a
        # new capital at every step
        prefix = generate(GeneratorSpec.iid(p, 1000, seed=1))
        tracemalloc.start()
        try:
            t = run_battery(prefix, anchor_sys, battery)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 8 * 2 ** 20

    def test_trajectory_holds_factors_not_capitals(self, space3, anchor_sys, f_example):
        # the walk keeps each member's factor values once per phase (objects
        # shared with the memos); holding every capital of this 1000-step
        # trajectory takes about 5.75 MiB
        battery = [lln_strategy(p, anchor_sys)
                   for p in default_battery(space3, (f_example,))[:24]]
        p = ProbabilityMassFunction(space3, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
        prefix = generate(GeneratorSpec.iid(p, 1000, seed=1))
        tracemalloc.start()
        try:
            t = run_battery(prefix, anchor_sys, battery)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 2 * 2 ** 20
        assert [len(rows) for rows in t.factors] == [member.period for member in battery]
        assert per_step(t) == tuple(
            tuple(member.factor(prefix.situation(n))[x] for n, x in enumerate(prefix.symbols))
            for member in battery)

    def test_trajectory_holds_log2_path_not_mixture(self, space3, anchor_sys, f_example):
        # the trajectory keeps each step's log2 mixture and the exact peak; the
        # exact mixture at every step of this 2000-step walk took about 3.3 MiB
        battery = [lln_strategy(p, anchor_sys)
                   for p in default_battery(space3, (f_example,))[:24]]
        p = ProbabilityMassFunction(space3, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
        prefix = generate(GeneratorSpec.iid(p, 2000, seed=1))
        run_battery(prefix, anchor_sys, battery)  # first-call imports and memos
        tracemalloc.start()
        try:
            t = run_battery(prefix, anchor_sys, battery)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 2 ** 20
        assert len(t.mixture_log2) == 2001

    def test_walk_peaks_near_what_the_trajectory_holds(self, space3, anchor_sys,
                                                        f_example):
        # the walk keeps only the best exact mixture so far; keeping every
        # step's exact mixture until the argmax peaked at about 4.15 MiB at
        # n=2000.  It keeps each member's factors once per phase: at n=4000
        # the trajectory holds about 0.13 MiB and the walk peaks at about
        # 0.30 MiB, where one factor per step held 0.86 MiB and peaked at 1.03
        battery = [lln_strategy(p, anchor_sys)
                   for p in default_battery(space3, (f_example,))[:24]]
        p = ProbabilityMassFunction(space3, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
        held, peak = {}, {}
        for n in (2000, 4000):
            prefix = generate(GeneratorSpec.iid(p, n, seed=1))
            run_battery(prefix, anchor_sys, battery)  # first-call imports and memos
            tracemalloc.start()
            try:
                t = run_battery(prefix, anchor_sys, battery)
                held[n], peak[n] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(t.mixture_log2) == n + 1
        assert peak[2000] < 1.5 * 2 ** 20
        assert peak[4000] < 0.6 * 2 ** 20, (held, peak)
        assert held[4000] < 0.3 * 2 ** 20, (held, peak)

    @pytest.mark.parametrize("factors,best_at", [
        # 1 + 2^-70 and a tie at steps 1 and 2 read 0.0 in floats, as does step 3
        ((1 + Fraction(1, 2 ** 70), 1, 1 + Fraction(1, 2 ** 80)), 3),
        ((1 + Fraction(1, 2 ** 70), 1, 1 - Fraction(1, 2 ** 80)), 1),
        ((2, 0, 1, 3), 1),
        ((Fraction(1, 2), 0), 0),
    ])
    def test_argmax_is_the_exact_first_maximum(self, space3, factors, best_at):
        # one member, so the mixture is its capital; the data stay at A
        gambles = [Gamble(space3, (v, 1, 1)) for v in factors]
        member = MultiplierProcess(space3, lambda s: gambles[s.depth])
        prefix = SequencePrefix(space3, (0,) * len(factors))
        t = run_battery(prefix, StationarySystem(VacuousModel(space3)), [member])
        m = [Fraction(1)]
        for v in factors:
            m.append(m[-1] * v)
        assert t.argmax_step == max(range(len(m)), key=m.__getitem__) == best_at
        assert t.mixture_max == m[best_at]
        assert t.deficiency_bits == max(0.0, log2_rational(m[best_at]))


# betting factors with zeros and pairwise coprime denominators
_factors = st.builds(Fraction, st.integers(0, 40), st.sampled_from([1, 2, 3, 5, 7, 8, 9]))


@st.composite
def _members(draw):
    """(period, factor function) of one battery member: with a period its
    gamble follows the depth mod period, without one the path."""
    space = SampleSpace(("A", "B", "C"))
    period = draw(st.sampled_from([None, 1, 2, 3]))
    rows = draw(st.lists(st.tuples(_factors, _factors, _factors), min_size=1, max_size=3))
    gambles = [Gamble(space, row) for row in rows]
    if period is None:
        def fn(s):
            return gambles[sum(s.symbols) % len(gambles)]
    else:
        def fn(s):
            return gambles[s.depth % period % len(gambles)]
    return period, fn


@settings(max_examples=60, deadline=None)
@given(members=st.lists(_members(), min_size=1, max_size=6),
       symbols=st.lists(st.integers(0, 2), max_size=25))
def test_run_battery_matches_fraction_mixture(members, symbols):
    space = SampleSpace(("A", "B", "C"))
    prefix = SequencePrefix(space, symbols)
    sys = StationarySystem(VacuousModel(space))
    # the reference walks the factor functions themselves and sums in Fractions
    factors = tuple(tuple(fn(prefix.situation(n))[x] for n, x in enumerate(symbols))
                    for _, fn in members)
    capitals = []
    for taken in factors:
        path = [Fraction(1)]
        for factor in taken:
            path.append(path[-1] * factor)
        capitals.append(tuple(path))
    weights = mixture_weights(len(members))
    mixture = tuple(sum((w * c[n] for w, c in zip(weights, capitals)), start=Fraction(0))
                    for n in range(len(symbols) + 1))
    best_at = mixture.index(max(mixture))
    for threads in (1, 2):
        battery = [MultiplierProcess(space, fn, period) for period, fn in members]
        t = run_battery(prefix, sys, battery, threads=threads)
        assert per_step(t) == factors
        assert t.mixture_log2 == tuple(log2_rational(m) if m else -math.inf
                                       for m in mixture)
        assert t.mixture_max == mixture[best_at]
        assert t.argmax_step == best_at
        assert t.deficiency_bits == max(0.0, log2_rational(mixture[best_at]))


def _phase_member(space, *rows):
    """A member whose factor at depth n is the gamble rows[n % len(rows)]."""
    gambles = [Gamble(space, row) for row in rows]
    return MultiplierProcess(space, lambda s: gambles[s.depth % len(gambles)],
                             period=len(gambles))


def _constant(v):
    return (Fraction(v),) * 3


def _periodic_rows(count, seed):
    """Phase rows of count members of periods 1 to 4, with the factors of the
    first LLN strategies against a pinned model: one over 16, 32 or 64, or 1."""
    rng = random.Random(seed)
    values = ("15/16", "19/16", "31/32", "35/32", "63/64", "67/64", "1")
    return [[tuple(rng.choice(values) for _ in range(3)) for _ in range(period)]
            for period in itertools.islice(itertools.cycle((1, 2, 2, 3, 3, 3, 4, 4, 4, 4)),
                                           count)]


@pytest.mark.parametrize("rows,symbols,keyed", [
    # capitals that cancel back to 1 every second step, so each step's sum and
    # denominator share ever more factors of 2 and 3
    ([[_constant("2/3"), _constant("3/2")], [_constant("9/8"), _constant("8/9")]],
     (0, 1, 2) * 700, None),
    # two members: the weights' denominator 3 also divides the factors'
    # numerators and denominators
    ([[("3/2", "1/3", "1")], [("4/3", "9/4", "2/3"), ("1", "3", "1/9")]],
     tuple(random.Random(7).choices(range(3), k=600)), None),
    # the mixture reaches 0 at step 5 and stays there
    ([[("0", "2", "1")], [("2", "1/2", "0"), ("3", "1/3", "0")]],
     (1, 1, 0, 1, 2) + tuple(random.Random(8).choices(range(3), k=300)), None),
    # 24 periodic members and one without a period, whose factor follows the
    # parity of the path's symbol sum: the mixture is reduced at every step
    (_periodic_rows(24, 9), tuple(random.Random(10).choices(range(3), k=400)),
     [("2/3", "3/2", "1"), ("9/8", "1", "8/9")]),
], ids=["rows0-symbols0", "rows1-symbols1", "rows2-symbols2", "periodic-and-path-keyed"])
def test_run_battery_matches_reduced_fraction_mixture(space3, rows, symbols, keyed):
    battery = [_phase_member(space3, *r) for r in rows]
    if keyed:
        gambles = [Gamble(space3, row) for row in keyed]
        battery.append(MultiplierProcess(
            space3, lambda s: gambles[sum(s.symbols) % len(gambles)]))
    prefix = SequencePrefix(space3, symbols)
    t = run_battery(prefix, StationarySystem(VacuousModel(space3)), battery)
    weights = mixture_weights(len(battery))
    capitals, mixture = [Fraction(1)] * len(battery), [Fraction(1)]
    for n, x in enumerate(symbols):
        taken = [r[n % len(r)][x] for r in rows]
        if keyed:
            taken.append(keyed[sum(symbols[:n]) % len(keyed)][x])
        capitals = [c * Fraction(v) for c, v in zip(capitals, taken)]
        mixture.append(sum(w * c for w, c in zip(weights, capitals)))
    # bit for bit: the float of each reduced Fraction, -inf at 0
    assert [v.hex() for v in t.mixture_log2] == [
        (log2_rational(m) if m else -math.inf).hex() for m in mixture]
    best_at = mixture.index(max(mixture))
    assert t.argmax_step == best_at
    assert t.mixture_max == mixture[best_at]
    assert t.deficiency_bits == max(0.0, log2_rational(mixture[best_at]))


class TestFastPath:
    def test_agrees_with_exact(self, space3, vertices3):
        from imprand.core import log2_rational
        v0, v1, v2 = vertices3
        period2 = CyclicSystem((LinearModel(v0), LinearModel(v2)))
        # period 3 does not divide the moduli: L = lcm(3, 1, 2, 4) = 12
        period3 = CyclicSystem((LinearModel(v0), LinearModel(v2), LinearModel(v1)))
        for sys, moduli, length in [(period2, (1, 2, 3), 200), (period3, (1, 2, 4), 200),
                                    (period3, (1, 2, 4), 1), (period3, (1, 2, 4), 0)]:
            rng = random.Random(41)
            battery = default_battery(space3, selection_moduli=moduli)
            prefix = SequencePrefix(
                space3, tuple(rng.choice([0, 1, 2]) for _ in range(length)))
            fast = run_battery_fast(prefix, sys, battery)
            processes = [lln_strategy(p, sys) for p in battery]
            exact = run_battery(prefix, sys, processes)
            assert abs(fast.deficiency_bits - exact.deficiency_bits) < 1e-7
            assert len(fast.mixture_log2) == length + 1
            for n in {0, 1, 57, length} & set(range(length + 1)):
                assert abs(fast.mixture_log2[n] - exact.mixture_log2[n]) < 1e-7

    def test_both_engines_read_one_table(self, space3, envelope3, anchor_sys, f_example,
                                         monkeypatch):
        # period 2 (envelope, then pinned) and moduli (1, 2, 3): joint period 6, so
        # 500 steps reach every phase of every member
        sys = CyclicSystem((envelope3, anchor_sys.model))
        params = battery_for_gambles((Gamble.indicator(space3, "A"), f_example),
                                     selection_moduli=(1, 2, 3))
        prefix = generate(GeneratorSpec.cyclic(envelope3.vertices, 500, seed=3))
        rows = _phase_tables(sys, params)
        walk = run_battery(prefix, sys, [lln_strategy(p, sys) for p in params])
        assert rows == walk.factors
        assert sorted({len(r) for r in rows}) == [2, 6]
        assert all(type(v) is Fraction for r in rows for row in r for v in row)
        # the float kernel run on the walk's own rows, every (member, phase) its own
        # bet and gathered at joint phase t by Trajectory.factors' rule, gives the
        # same path, bit for bit
        fast = run_battery_fast(prefix, sys, params)
        own = [row for r in walk.factors for row in r]
        first = np.cumsum([0] + [len(r) for r in walk.factors[:-1]]).tolist()
        compiled = analysis._CompiledBattery(params, sys.period)
        assert compiled.L == 6
        compiled.index = np.array([[a + t % len(r) for t in range(6)]
                                   for a, r in zip(first, walk.factors)])
        monkeypatch.setattr(analysis._CompiledBattery, "rows", lambda self, sys: own)
        again = run_battery_fast(prefix, sys, compiled)
        assert again.mixture_log2.tobytes() == fast.mixture_log2.tobytes()

    def test_members_placing_one_bet_share_its_row(self, space3, envelope3, anchor_sys,
                                                  f_example):
        # repeated stakes in both directions on two gambles, with the selections of
        # moduli (1, 2, 3), against a period-2 system: a row key without the system
        # phase, gamble, direction, epsilon or selected flag hands some member
        # another bet's row
        sys = CyclicSystem((envelope3, anchor_sys.model))
        params = battery_for_gambles((Gamble.indicator(space3, "A"), f_example),
                                     selection_moduli=(1, 2, 3))
        # a repeated member, one whose gamble is an equal but new object, and one
        # that places a member's stake on another gamble
        params += (params[5], dataclasses.replace(params[50], f=Gamble(space3, ("1", "-2", "3"))),
                   dataclasses.replace(params[5], f=Gamble.indicator(space3, "C")))
        rows = _phase_tables(sys, params)
        path = (2, 1, 0, 2, 1)
        for p, r in zip(params, rows):
            member = lln_strategy(p, sys)
            assert len(r) == joint_period(sys.period, p.selection.period)
            for t, row in enumerate(r):
                assert row == member.factor(Situation(space3, path[:t])).values
        # one tuple per selected bet, and one unit row
        bets = {(t % 2, p.f, p.direction, p.epsilon) for p in params
                for t in range(6) if t % p.selection.modulus == p.selection.residue}
        assert len({id(row) for r in rows for row in r}) == len(bets) + 1 == 35

    def test_each_bet_is_built_and_taken_log2_once(self, space3, f_example, monkeypatch):
        # the battery and system of one grid point of estimate_interval: 12 members
        # with 20 rows between them place 4 selected bets and the unit row
        sys = StationarySystem(AnchorGammaModel(anchor=f_example, gamma=Fraction(1, 4)))
        params = battery_for_gambles((f_example,), selection_moduli=(1, 2),
                                     directions=("lower",))
        prefix = SequencePrefix(space3, (0, 1, 2) * 20)
        expected = run_battery_fast(prefix, sys, params).mixture_log2
        assert sum(map(len, _phase_tables(sys, params))) == 20
        # the next grid point, on the side's battery compiled and indexed by the first
        other = StationarySystem(AnchorGammaModel(anchor=f_example, gamma=Fraction(5, 16)))
        expected_other = run_battery_fast(prefix, other, params).mixture_log2
        built, logs, laid = [], [], _count_compilations(monkeypatch)
        compiled = analysis._CompiledBattery(params, sys.period)
        run_battery_fast(prefix, sys, compiled)
        build, log2 = LLNStrategyParams.betting_factor, analysis.log2_rational
        monkeypatch.setattr(LLNStrategyParams, "betting_factor",
                            lambda p, *a: built.append(p) or build(p, *a))
        monkeypatch.setattr(analysis, "log2_rational", lambda v: logs.append(v) or log2(v))
        del laid[:]
        fast = run_battery_fast(prefix, sys, params)
        assert (len(built), len(logs), len(laid)) == (5, 15, 1)
        assert fast.mixture_log2.tobytes() == expected.tobytes()
        # a second probe builds its own 5 rows and 15 log2s, and compiles nothing
        del built[:], logs[:], laid[:]
        again = run_battery_fast(prefix, other, compiled)
        assert (len(built), len(logs), len(laid)) == (5, 15, 0)
        assert again.mixture_log2.tobytes() == expected_other.tobytes()

    def test_a_battery_compiled_for_one_period_is_recompiled_for_another(
            self, space3, envelope3, anchor_sys, f_example, monkeypatch):
        # stake, selection and bet numbers all depend on the system period: a
        # kernel that read a period-1 compilation against the period-2 system
        # would place period-1 bets there
        params = battery_for_gambles((Gamble.indicator(space3, "A"), f_example),
                                     selection_moduli=(1, 2, 3))
        laid = _count_compilations(monkeypatch)
        compiled = analysis._CompiledBattery(params, 1)
        prefix = generate(GeneratorSpec.cyclic(envelope3.vertices, 300, seed=4))
        period2 = CyclicSystem((envelope3, anchor_sys.model))
        for sys, fresh in ((anchor_sys, 0), (period2, 1), (anchor_sys, 0)):
            del laid[:]
            got = run_battery_fast(prefix, sys, compiled)
            assert len(laid) == fresh
            want = run_battery_fast(prefix, sys, list(params))
            assert got.mixture_log2.tobytes() == want.mixture_log2.tobytes()

    def test_phases_reach_only_the_longest_member_period(self, space3, anchor_sys, f_example,
                                                          monkeypatch):
        # moduli (7, 8, 9) on a stationary system: the joint period is 504, but
        # no member's row reads past phase 8
        params = battery_for_gambles((f_example,), selection_moduli=(7, 8, 9))
        prefix = SequencePrefix(space3, (2, 0, 1, 1, 0) * 2)
        walk = run_battery(prefix, anchor_sys, [lln_strategy(p, anchor_sys) for p in params])
        built, trusted = [], Situation._trusted.__func__
        monkeypatch.setattr(Situation, "_trusted",
                            classmethod(lambda cls, *a: built.append(a) or trusted(cls, *a)))
        assert _phase_tables(anchor_sys, params) == walk.factors
        assert len(built) == 9

    def test_a_kernel_over_the_budget_is_refused_before_it_is_built(self, space3, anchor_sys,
                                                                    f_example, monkeypatch):
        # moduli (1, 2, 3): B = 48, L = 6, K = 3, so the table holds 48 * 18 cells
        # and the count view of N = 60 steps 18 * 61; the larger must fit the budget
        params = battery_for_gambles((f_example,), selection_moduli=(1, 2, 3))
        counted = []
        monkeypatch.setattr(SequencePrefix, "phase_counts",
                            lambda p, L, counts=SequencePrefix.phase_counts:
                            counted.append(L) or counts(p, L))
        for n, cells in ((60, 18 * 61), (9, 48 * 18)):
            prefix = SequencePrefix(space3, (0, 1, 2) * (n // 3))
            monkeypatch.setattr(analysis, "_KERNEL_BUDGET", cells)
            run_battery_fast(prefix, anchor_sys, params)
            monkeypatch.setattr(analysis, "_KERNEL_BUDGET", cells - 1)
            with pytest.raises(ModelInvariantError, match=(
                    f"B = 48 strategies, joint period L = 6, K = 3 symbols and N = {n} "
                    rf"steps needs a \(B, L\*K\) table and an \(L\*K, N\+1\) count view, "
                    f"over the budget of {cells - 1} cells each$")):
                run_battery_fast(prefix, anchor_sys, params)
        assert counted == [6, 6]
        # moduli 1, ..., 13: L = 360360, refused at once at the real budget
        monkeypatch.undo()
        params = battery_for_gambles((f_example,), selection_moduli=tuple(range(1, 14)))
        with pytest.raises(ModelInvariantError, match="B = 728 .* L = 360360, K = 3 .* N = 201 "):
            run_battery_fast(SequencePrefix(space3, (0, 1, 2) * 67), anchor_sys, params)

    @pytest.mark.parametrize("system, selection", [
        (StationarySystem, SelectionProcess.from_table({}, default=1)),
        (lambda m: TableSystem(table={}, default=m), SelectionProcess.all_ones()),
        (lambda m: ProgrammaticSystem(m.space, lambda s: m), SelectionProcess.all_ones()),
    ], ids=["table-selection", "table-system", "programmatic-system"])
    def test_rejects_table_selection(self, space3, anchor_sys, system, selection):
        # every strategy needs a period; table selections and table or
        # programmatic systems have none
        params = LLNStrategyParams(
            f=Gamble.indicator(space3, "A"), direction="lower",
            epsilon=Fraction(1, 8), selection=selection)
        with pytest.raises(ModelInvariantError):
            run_battery_fast(SequencePrefix(space3, (0,)), system(anchor_sys.model),
                             [params])

    def test_steps_where_every_capital_is_one_read_exactly_zero(self, space3, anchor_sys):
        # the mixture weights' log2s are exact, so no rounding shows at such a step
        f = Gamble.indicator(space3, "A")
        empty = SequencePrefix(space3, ())
        for B in (1, 2, 3, 12, 24, 240, 320):
            for residue, prefix in ((0, empty), (1, SequencePrefix(space3, (0,)))):
                # residue 1 mod 2 selects no strategy at the first step
                params = [LLNStrategyParams(f, "lower", Fraction(1, k + 2),
                                            SelectionProcess.residue_class(2, residue))
                          for k in range(B)]
                fast = run_battery_fast(prefix, anchor_sys, params)
                assert fast.mixture_log2.tolist() == [0.0] * (len(prefix) + 1), (B, residue)

    def test_memory_is_one_buffer(self, space3, vertices3):
        # B=24, N=20000: the kernel may hold fewer than three (B, N+1)
        # float64 arrays at once
        sys = CyclicSystem((LinearModel(vertices3[0]), LinearModel(vertices3[2])))
        battery = default_battery(space3)[:24]
        prefix = generate(GeneratorSpec.cyclic((vertices3[0], vertices3[2]),
                                               20000, seed=5))
        run_battery_fast(prefix, sys, battery)
        tracemalloc.start()
        try:
            run_battery_fast(prefix, sys, battery)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 24 * 20001 * 8

    def test_exp2_gets_no_term_below_the_floor(self, period2_prefix, f_example,
                                               monkeypatch):
        # unclamped, the shifted log2 terms of this sweep reach below -4700,
        # where exp2 underflows and leaves numpy's vector path
        lowest = []
        exp2 = np.exp2
        monkeypatch.setattr(np, "exp2", lambda x, *a, **k: lowest.append(x.min()) or exp2(x, *a, **k))
        estimate_interval(period2_prefix, f_example, selection_moduli=(1, 2))
        assert min(lowest) == -1000.0
        assert analysis._KERNEL_LOG2_FLOOR == -1000.0

    def test_strict_float_error_modes_raise_nothing(self, period2_prefix, f_example):
        # gamma = 1 is rejected by far: unclamped, exp2 underflowed, and under
        # np.errstate(all="raise") the kernel raised FloatingPointError
        sys = StationarySystem(AnchorGammaModel(anchor=f_example, gamma=Fraction(1)))
        params = battery_for_gambles((f_example,), selection_moduli=(1, 2),
                                     directions=("lower",))
        plain = run_battery_fast(period2_prefix, sys, params)
        plain_estimate = estimate_interval(period2_prefix, f_example, selection_moduli=(1, 2))
        with np.errstate(all="raise"):
            strict = run_battery_fast(period2_prefix, sys, params)
            strict_estimate = estimate_interval(period2_prefix, f_example,
                                                selection_moduli=(1, 2))
        assert plain.deficiency_bits > 1000
        assert strict.mixture_log2.tobytes() == plain.mixture_log2.tobytes()
        assert strict_estimate == plain_estimate


class TestDefaultBattery:
    def test_shape_and_order(self, space3, f_example):
        battery = default_battery(space3, user_gambles=(f_example,))
        # 4 gambles x 2 directions x 4 epsilons x (1 + 2 + 3 + 4) selections
        assert len(battery) == 4 * 2 * 4 * 10
        first = battery[0]
        assert first.f == Gamble.indicator(space3, "A")
        assert first.direction == "lower"
        assert first.epsilon == Fraction(1, 2)
        assert first.selection == SelectionProcess.all_ones()

    @pytest.mark.parametrize("moduli, bad", [((1, -3, 0), "-3"), ((0,), "0"),
                                             ((1, 1), "1 twice"), ((1, 2, 2), "2 twice")])
    def test_rejects_modulus_below_one(self, space3, moduli, bad):
        with pytest.raises(ModelInvariantError, match=f"got {bad}$"):
            battery_for_gambles([Gamble.indicator(space3, "A")],
                                selection_moduli=moduli)

    def test_epsilon_scaled_by_bound(self, space3, f_example):
        battery = battery_for_gambles([f_example], directions=("lower",),
                                      selection_moduli=(1,))
        assert [p.epsilon for p in battery] == [
            Fraction(5, 2), Fraction(5, 4), Fraction(5, 8), Fraction(5, 16)]


class TestRunningAverage:
    @pytest.mark.parametrize("system", [StationarySystem, lambda m: CyclicSystem((m,))],
                             ids=["stationary", "cyclic"])
    def test_degenerate_all_a(self, space3, vertices3, system):
        p = ProbabilityMassFunction(
            space3, (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)))
        sys = system(LinearModel(p))
        prefix = SequencePrefix(space3, (0,) * 10)
        f = Gamble.indicator(space3, "A")
        report = check_running_average(prefix, f, SelectionProcess.all_ones(), sys)
        assert report.average == 1
        assert report.average_above_lower == Fraction(3, 4)  # 1 - p(A)

    def test_table_system_forecasts_per_situation(self, space3, vertices3):
        # E(1_A) is 1/2 after an A and 0 elsewhere
        sys = TableSystem(table={(0,): LinearModel(vertices3[1])},
                          default=LinearModel(vertices3[0]))
        prefix = SequencePrefix(space3, (0, 1, 1))
        report = check_running_average(
            prefix, Gamble.indicator(space3, "A"), SelectionProcess.all_ones(), sys)
        assert report.average == Fraction(1, 3)
        # ((1 - 0) + (0 - 1/2) + (0 - 0)) / 3
        assert report.average_above_lower == Fraction(1, 6)

    def test_empty_selection(self, space3, envelope3):
        prefix = SequencePrefix(space3, (0, 1))
        report = check_running_average(
            prefix, Gamble.indicator(space3, "A"),
            SelectionProcess.residue_class(4, 3), StationarySystem(envelope3))
        assert report.selected_count == 0
        assert report.average is None

    def test_cyclic_residue_estimates(self, space3, vertices3, f_example):
        sys = CyclicSystem((LinearModel(vertices3[0]), LinearModel(vertices3[2])))
        seq = generate(GeneratorSpec.cyclic((vertices3[0], vertices3[2]),
                                            20000, seed=2))
        even = check_running_average(
            seq, f_example, SelectionProcess.residue_class(2, 0), sys)
        odd = check_running_average(
            seq, f_example, SelectionProcess.residue_class(2, 1), sys)
        assert abs(float(even.average) - 0.5) < 0.05
        assert abs(float(odd.average) + 0.5) < 0.05


def naive_average(prefix, f, S, sys):
    """check_running_average as one loop over the steps."""
    count, total, above, below = 0, Fraction(0), Fraction(0), Fraction(0)
    for n, x in enumerate(prefix.symbols):
        s = Situation(prefix.space, prefix.symbols[:n])
        if S.selects(s):
            model = sys.forecast(s)
            count += 1
            total += f[x]
            above += f[x] - model.lower(f)
            below += model.upper(f) - f[x]
    if count == 0:
        return AverageReport(0, None, None, None)
    return AverageReport(count, total / count, above / count, below / count)


def test_running_average_matches_naive_loop(space3):
    rng = random.Random(23)

    def envelope():
        return EnvelopeModel(tuple(rand_pmf(rng, space3) for _ in range(2)))

    shallow = list(iter_situations(space3, 2))
    systems = [
        StationarySystem(envelope()),
        CyclicSystem((envelope(), envelope())),
        CyclicSystem((envelope(), envelope(), envelope())),
        TableSystem(table={s.symbols: envelope() for s in shallow
                           if rng.random() < 0.5},
                    default=envelope()),
    ]
    systems.append(CyclicSystem((systems[0].model,)))
    selections = [
        SelectionProcess.all_ones(),
        SelectionProcess.residue_class(2, 1),
        SelectionProcess.residue_class(3, 0),
        SelectionProcess.from_table({s.symbols: rng.randint(0, 1) for s in shallow},
                                    default=1),
    ]
    for _ in range(6):
        prefix = SequencePrefix(
            space3, tuple(rng.randrange(3) for _ in range(rng.randint(0, 60))))
        f = rand_gamble(rng, space3)
        for sys, S in itertools.product(systems, selections):
            report = check_running_average(prefix, f, S, sys)
            assert report == naive_average(prefix, f, S, sys)
            if sys.period == 1 and report.selected_count:
                # with one model the gaps are the distances to [E(f), upper(f)]
                model = sys.forecast(Situation.root(space3))
                assert report.average_above_lower == report.average - model.lower(f)
                assert report.average_below_upper == model.upper(f) - report.average


class TestEstimateInterval:
    def test_constant_a_pins_indicator_to_one(self, space3):
        prefix = SequencePrefix(space3, (0,) * 2000)
        f = Gamble.indicator(space3, "A")
        est = estimate_interval(prefix, f, selection_moduli=(1,))
        assert est.hi_accept == 1
        assert est.lo_accept >= Fraction(13, 16)

    def test_raw_bits_match_independent_evaluation(self, space3, vertices3, f_example):
        seq = generate(GeneratorSpec.cyclic((vertices3[0], vertices3[2]),
                                            2000, seed=13))
        moduli = (1, 2)
        est = estimate_interval(seq, f_example, selection_moduli=moduli)
        # the upper side pins upper(f) = gamma, that is lower(-f) = -gamma
        for side, grid, anchor, sign in (
            ("lower", est.lower_grid, f_example, 1),
            ("upper", est.upper_grid, -f_example, -1),
        ):
            # the last evaluated point is the first one the data reject
            point = [p for p in grid if p.raw_bits != math.inf][-1]
            assert point.raw_bits > est.threshold_bits
            model = AnchorGammaModel(anchor=anchor, gamma=sign * point.gamma)
            battery = battery_for_gambles((f_example,), selection_moduli=moduli,
                                          directions=(side,))
            want = run_battery_fast(seq, StationarySystem(model), battery)
            assert point.raw_bits == want.deficiency_bits

    def test_grid_over_a_long_joint_period_is_pinned(self, space3, f_example):
        # moduli 1..7: 112 members per side of joint period 420, on 201 steps.
        # The SHA-256 of each point's gamma and raw deficiency (as float.hex),
        # recorded from the kernel that built its (B, L*K) table cell by cell
        est = estimate_interval(SequencePrefix(space3, (0, 1, 2) * 67), f_example,
                                selection_moduli=tuple(range(1, 8)))
        points = [(str(p.gamma), p.raw_bits.hex()) for p in est.lower_grid + est.upper_grid]
        assert hashlib.sha256(repr(points).encode()).hexdigest() == (
            "308780e5f6c9c82f9928df7db7b5bca3af6d985f755b35353672cee9c7133861")

    @pytest.mark.parametrize("moduli, L", [((1, 2), 2), ((1, 2, 3, 4), 12)])
    def test_forecasts_do_not_grow_with_the_battery(self, space3, vertices3, f_example,
                                                    monkeypatch, moduli, L):
        # one exact forecast per (phase, gamble, direction), shared by every
        # epsilon and residue class: at most L lower calls per evaluated grid
        # point (the upper side's upper(f) is -lower(-f)); each side's model
        # is a face of AnchorIntervalModel, so counting its lower sees them all
        seq = generate(GeneratorSpec.cyclic((vertices3[0], vertices3[2]),
                                            2000, seed=13))
        calls = []
        lower = AnchorIntervalModel.lower

        def counted(model, g):
            calls.append(g)
            return lower(model, g)

        monkeypatch.setattr(AnchorIntervalModel, "lower", counted)
        est = estimate_interval(seq, f_example, selection_moduli=moduli)
        evaluated = sum(p.raw_bits != math.inf for p in est.lower_grid + est.upper_grid)
        assert evaluated > 0
        assert 0 < len(calls) <= L * evaluated

    def test_crossed_sides_return_a_point_both_accept(self, space3, f_example):
        # iid data with mean of f 3/4: the lower side accepts gamma up to 3/4
        # and the upper side down to 11/16, so the one-sided sweeps cross
        p = ProbabilityMassFunction(space3, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
        seq = generate(GeneratorSpec.iid(p, 20000, seed=1))
        est = estimate_interval(seq, f_example, grid_step=Fraction(1, 16),
                                selection_moduli=(1, 2))
        lower = max(q.gamma for q in est.lower_grid if q.accepted)
        upper = min(q.gamma for q in est.upper_grid if q.accepted)
        assert (lower, upper) == (Fraction(3, 4), Fraction(11, 16))
        assert (est.lo_accept, est.hi_accept) == (Fraction(11, 16), Fraction(11, 16))
        # each returned end is a grid point that both sweeps accept
        for end in (est.lo_accept, est.hi_accept):
            for grid in (est.lower_grid, est.upper_grid):
                assert [q.accepted for q in grid if q.gamma == end] == [True]

    def test_each_side_lays_out_its_battery_once(self, period2_prefix, f_example,
                                                 monkeypatch):
        # the batteries compiled, each named by the directions of its strategies
        laid = _count_compilations(monkeypatch)
        est = estimate_interval(period2_prefix, f_example, selection_moduli=(1, 2))
        for grid in (est.lower_grid, est.upper_grid):
            assert sum(p.raw_bits != math.inf for p in grid) > 1
        assert laid == [{"lower"}, {"upper"}]

    def test_grid_validation(self, space3):
        prefix = SequencePrefix(space3, (0,) * 10)
        f = Gamble.indicator(space3, "A")
        with pytest.raises(ModelInvariantError):
            estimate_interval(prefix, f, grid_step=Fraction(0))
        for bad in (0.0, math.nan):
            with pytest.raises(ModelInvariantError):
                estimate_interval(prefix, f, threshold_bits=bad)

    def test_grid_over_the_budget_is_refused_before_it_is_built(self, space3, f_example,
                                                                 monkeypatch):
        # f spans [-2, 3]: 2^16 points per side is the most a sweep may take
        prefix = SequencePrefix(space3, (0, 1, 2) * 2)
        with pytest.raises(ModelInvariantError,
                           match=r"\[-2, 3\] gives 5000001 points per side, over the "
                                 r"budget of 65536"):
            estimate_interval(prefix, f_example, grid_step=Fraction(1, 1000000))
        with pytest.raises(ModelInvariantError, match="65537 points per side"):
            estimate_interval(prefix, f_example, grid_step=Fraction(5, 2**16))
        # at the budget the grid is built; each side's first point rejects the rest
        monkeypatch.setattr(analysis, "run_battery_fast",
                            lambda *_: analysis.FastBatteryResult(math.inf, None))
        est = estimate_interval(prefix, f_example, grid_step=Fraction(5, 2**16 - 1))
        assert len(est.lower_grid) == len(est.upper_grid) == 2**16
        assert (est.lower_grid[-1].gamma, est.upper_grid[-1].gamma) == (3, -2)

    def test_repair_makes_acceptance_an_interval(self, space3, vertices3, f_example):
        seq = generate(GeneratorSpec.cyclic((vertices3[0], vertices3[2]),
                                            5000, seed=11))
        est = estimate_interval(seq, f_example, selection_moduli=(1, 2))
        flags = [p.accepted for p in est.lower_grid]
        # accepted points form a prefix of the lower sweep
        assert flags == sorted(flags, reverse=True)
        reps = [p.repaired_bits for p in est.lower_grid]
        assert reps == sorted(reps)

    def test_threshold_monotonicity(self, space3, vertices3, f_example):
        seq = generate(GeneratorSpec.cyclic((vertices3[0], vertices3[2]),
                                            5000, seed=12))
        tight = estimate_interval(seq, f_example, threshold_bits=5.0,
                                  selection_moduli=(1, 2))
        loose = estimate_interval(seq, f_example, threshold_bits=20.0,
                                  selection_moduli=(1, 2))
        assert tight.lo_accept <= loose.lo_accept
        assert tight.hi_accept >= loose.hi_accept


def test_vacuous_absorbs_small(space3, f_example):
    rng = random.Random(55)
    sys = StationarySystem(VacuousModel(space3))
    battery = [lln_strategy(p, sys)
               for p in battery_for_gambles([f_example], selection_moduli=(1, 2))]
    for _ in range(5):
        prefix = SequencePrefix(
            space3, tuple(rng.choice([0, 1, 2]) for _ in range(100)))
        t = run_battery(prefix, sys, battery)
        assert t.deficiency_bits == 0.0
        assert t.mixture_max <= 1


def _more_informative_pairs(rng, space):
    """Pairs (E, E') with E' at least as informative as E: an envelope and a
    sub-envelope, an envelope and one of its vertices, the vacuous model and
    any model, and a gamma model at gamma and at gamma' >= gamma."""
    def between(lo, hi):
        return lo + (hi - lo) * Fraction(rng.randint(0, 8), 8)

    vertices = [rand_pmf(rng, space) for _ in range(rng.randint(2, 4))]
    anchor = rand_gamble(rng, space)
    gamma = between(anchor.minimum(), anchor.maximum())
    stronger = between(gamma, anchor.maximum())
    lo, hi = sorted(between(anchor.minimum(), anchor.maximum()) for _ in "lh")
    any_model = rng.choice([
        LinearModel(vertices[0]), EnvelopeModel(tuple(vertices)),
        AnchorGammaModel(anchor=anchor, gamma=gamma),
        AnchorIntervalModel(anchor=anchor, lo=lo, hi=hi)])
    sub = rng.sample(vertices, rng.randint(1, len(vertices)))
    return [
        (EnvelopeModel(tuple(vertices)), EnvelopeModel(tuple(sub))),
        (EnvelopeModel(tuple(vertices)), LinearModel(rng.choice(vertices))),
        (VacuousModel(space), any_model),
        (AnchorGammaModel(anchor=anchor, gamma=gamma),
         AnchorGammaModel(anchor=anchor, gamma=stronger)),
    ]


def test_more_informative_models_never_shrink_a_capital():
    # The paper's monotonicity, per path: when E' is at least as informative as
    # E on f, each LLN factor on f is at least as large under E' (lower side
    # 1 - xi (f(x) - E(f)), upper side 1 - xi (upper(f) - f(x))), and so is
    # every capital and the mixture at every step.  No reference arithmetic:
    # each engine is checked against itself under the two systems.  192
    # stationary pairs come first, then 64 period-2 cyclic pairs that are
    # more informative phase by phase.
    rng = random.Random(2005)
    violations = []

    def draw():
        space = SampleSpace(tuple("ABCD"[: rng.randint(2, 4)]))
        f = rand_gamble(rng, space)
        prefix = SequencePrefix(space, tuple(rng.randrange(space.size) for _ in range(120)))
        return space, f, battery_for_gambles((f,), (1, 2)), prefix

    def compare(trial, prefix, params, sys, stronger):
        runs = []
        for s in (sys, stronger):
            walk = run_battery(prefix, s, [lln_strategy(p, s) for p in params])
            runs.append((walk, _phase_tables(s, params),
                         run_battery_fast(prefix, s, params).mixture_log2))
        (walk, table, kernel), (walk2, table2, kernel2) = runs
        for name, rows, rows2 in (("walk", walk.factors, walk2.factors),
                                  ("table", table, table2)):
            assert [len(r) for r in rows] == [len(r) for r in rows2]
            violations.extend((trial, name, i) for i, (r, r2) in enumerate(zip(rows, rows2))
                              for row, row2 in zip(r, r2) for x, x2 in zip(row, row2)
                              if x > x2)
        if walk.mixture_max > walk2.mixture_max:
            violations.append((trial, "mixture_max"))
        violations.extend((trial, "kernel", n) for n, (x, x2) in enumerate(zip(kernel, kernel2))
                          if x > x2 + 1e-9 * max(1.0, abs(x)))

    for trial in range(48):
        space, f, params, prefix = draw()
        for E, stronger in _more_informative_pairs(rng, space):
            assert dominates(E, stronger, [f, -f])
            compare(trial, prefix, params, StationarySystem(E), StationarySystem(stronger))
    for trial in range(48, 64):
        space, f, params, prefix = draw()
        phases = zip(_more_informative_pairs(rng, space), _more_informative_pairs(rng, space))
        for (E0, stronger0), (E1, stronger1) in phases:
            E, stronger = CyclicSystem((E0, E1)), CyclicSystem((stronger0, stronger1))
            assert pointwise_leq(E, stronger, 1, [f, -f])
            compare(trial, prefix, params, E, stronger)
    assert not violations, f"{len(violations)} violations, first {violations[:5]}"


def test_space_mismatch_names_left_then_right(space3, vertices3, anchor_sys,
                                              anchor_strategy):
    space2 = SampleSpace(("X", "Y"))
    prefix3, prefix2 = SequencePrefix(space3, (0, 1)), SequencePrefix(space2, (0,))
    f3, f2 = Gamble.indicator(space3, "A"), Gamble.indicator(space2, "X")
    sys2 = StationarySystem(VacuousModel(space2))
    every = SelectionProcess.all_ones()
    params = LLNStrategyParams(f=f3, direction="lower", epsilon=Fraction(1, 8),
                               selection=every)
    calls = [
        (lambda: run_battery(prefix3, sys2, [anchor_strategy]), space3, space2),
        (lambda: run_battery_fast(prefix2, anchor_sys, [params]), space2, space3),
        (lambda: check_running_average(prefix2, f3, every, anchor_sys), space2, space3),
        (lambda: check_running_average(prefix3, f3, every, sys2), space3, space2),
        (lambda: estimate_interval(prefix2, f3), space2, space3),
        (lambda: default_battery(space3, [f2]), space3, space2),
        (lambda: lln_strategy(params, sys2), space2, space3),
        (lambda: pointwise_leq(anchor_sys, sys2, 1, [f3]), space3, space2),
        (lambda: EnvelopeModel((vertices3[0], ProbabilityMassFunction.uniform(space2))),
         space3, space2),
    ]
    for call, left, right in calls:
        with pytest.raises(SpaceMismatchError) as err:
            call()
        assert (err.value.left, err.value.right) == (left, right)


@pytest.mark.parametrize("build, message", [
    (lambda space: battery_for_gambles(()), "battery needs at least one gamble"),
    (lambda space: run_battery_fast(SequencePrefix(space, (0, 1)),
                                    StationarySystem(VacuousModel(space)), []),
     "battery must be non-empty"),
])
def test_guards(space3, build, message):
    with pytest.raises(ModelInvariantError, match=re.escape(message)):
        build(space3)
