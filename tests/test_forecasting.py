import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from imprand import (
    CyclicSystem,
    Gamble,
    LinearModel,
    ProgrammaticSystem,
    SampleSpace,
    Situation,
    SpaceMismatchError,
    StationarySystem,
    VacuousModel,
    pointwise_leq,
)
from imprand.core import ModelInvariantError
from imprand.forecasting import TableSystem, iter_situations

from conftest import rand_gamble


class TestSituation:
    def test_root_and_children(self, space3):
        root = Situation.root(space3)
        assert root.depth == 0
        kids = list(root.children())
        assert [k.symbols for k in kids] == [(0,), (1,), (2,)]

    def test_from_tokens(self, space3):
        s = Situation.from_tokens(space3, ("A", "C"))
        assert s.symbols == (0, 2)
        assert s.tokens() == ("A", "C")

    def test_invalid_index_rejected(self, space3):
        for bad in (3, 1.9):
            with pytest.raises(ModelInvariantError):
                Situation(space3, (bad,))
        # any integer type passes, stored as a Python int
        s = Situation(space3, (np.int64(2),)).child(np.int64(1))
        assert s.symbols == (2, 1)
        assert all(type(i) is int for i in s.symbols)
        # a depth outside [0, s.depth] names no situation of s
        assert s.situation(0).symbols == () and s.situation(2) == s
        for depth in (-1, 3):
            with pytest.raises(ModelInvariantError):
                s.situation(depth)

    def test_child_validates_appended_index(self, space3):
        s = Situation(space3, (1,))
        assert s.child(2) == Situation(space3, (1, 2))
        for bad in (3, -1):
            with pytest.raises(ModelInvariantError):
                s.child(bad)

    def test_breadth_first_enumeration(self, space3):
        seen = list(iter_situations(space3, 2))
        assert len(seen) == 1 + 3 + 9
        depths = [s.depth for s in seen]
        assert depths == sorted(depths)
        # children in symbol order within each level
        assert [s.symbols for s in seen[1:4]] == [(0,), (1,), (2,)]
        level, expected = [Situation.root(space3)], [Situation.root(space3)]
        for _ in range(3):
            level = [c for s in level for c in s.children()]
            expected += level
        assert list(iter_situations(space3, 3)) == expected

    def test_enumeration_holds_no_level(self, space3):
        # depth 10 has 3^10 = 59049 situations; none of its levels is kept
        tracemalloc.start()
        try:
            count = sum(1 for _ in iter_situations(space3, 10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == (3 ** 11 - 1) // 2
        assert peak < 1 << 20


class TestForecastAt:
    def test_stationary_ignores_situation(self, envelope3, space3):
        sys = StationarySystem(envelope3)
        for s in iter_situations(space3, 3):
            assert sys.forecast(s) is envelope3

    def test_cyclic_by_depth(self, vertices3, space3):
        sys = CyclicSystem(tuple(LinearModel(p) for p in vertices3))
        for s in iter_situations(space3, 4):
            assert sys.forecast(s) == LinearModel(vertices3[s.depth % 3])

    def test_stationary_vacuous(self, space3):
        sys = StationarySystem(VacuousModel(space3))
        s = Situation(space3, (1, 2, 0))
        assert sys.forecast(s) == VacuousModel(space3)

    def test_table_with_default(self, space3, vertices3):
        default = VacuousModel(space3)
        sys = TableSystem(table={(0,): LinearModel(vertices3[0])}, default=default)
        assert sys.forecast(Situation(space3, (0,))) == LinearModel(vertices3[0])
        assert sys.forecast(Situation(space3, (1,))) == default

    def test_programmatic_space_checked(self, space3, vertices3):
        other = VacuousModel(SampleSpace(("X",)))
        sys = ProgrammaticSystem(space3, lambda s: other)
        with pytest.raises(SpaceMismatchError):
            sys.forecast(Situation.root(space3))

    def test_space_mismatch(self, envelope3):
        sys = StationarySystem(envelope3)
        with pytest.raises(SpaceMismatchError):
            sys.forecast(Situation.root(SampleSpace(("X", "Y"))))

    def test_purity(self, space3, vertices3):
        sys = CyclicSystem((LinearModel(vertices3[0]), VacuousModel(space3)))
        s = Situation(space3, (2, 1, 0))
        assert sys.forecast(s) == sys.forecast(Situation(space3, (2, 1, 0)))


class TestPointwiseLeq:
    def test_vacuous_below_anything(self, space3, envelope3):
        rng = random.Random(21)
        probes = [rand_gamble(rng, space3) for _ in range(10)]
        a = StationarySystem(VacuousModel(space3))
        b = StationarySystem(envelope3)
        assert pointwise_leq(a, b, 3, probes)
        assert not pointwise_leq(b, a, 3, probes)

    def test_envelope_below_cyclic_vertices(self, space3, envelope3, vertices3):
        rng = random.Random(22)
        probes = [rand_gamble(rng, space3) for _ in range(10)]
        a = StationarySystem(envelope3)
        b = CyclicSystem(tuple(LinearModel(p) for p in vertices3))
        assert pointwise_leq(a, b, 3, probes)

    def test_reflexive(self, space3, envelope3):
        rng = random.Random(23)
        probes = [rand_gamble(rng, space3) for _ in range(5)]
        sys = StationarySystem(envelope3)
        assert pointwise_leq(sys, sys, 2, probes)

    def test_transitive_on_fixed_triple(self, space3, envelope3, vertices3):
        rng = random.Random(24)
        probes = [rand_gamble(rng, space3) for _ in range(8)]
        a = StationarySystem(VacuousModel(space3))
        b = StationarySystem(envelope3)
        c = StationarySystem(LinearModel(vertices3[1]))
        assert pointwise_leq(a, b, 2, probes)
        assert pointwise_leq(b, c, 2, probes)
        assert pointwise_leq(a, c, 2, probes)


def test_cyclic_period_one_is_stationary(space3, envelope3):
    cyc = CyclicSystem((envelope3,))
    sta = StationarySystem(envelope3)
    for s in iter_situations(space3, 4):
        assert cyc.forecast(s) == sta.forecast(s)
    # spot-check deeper situations along one path
    deep = Situation(space3, (0, 1, 2) * 4)
    assert cyc.forecast(deep) == sta.forecast(deep)


def test_period_by_system_kind(space3, envelope3, vertices3):
    assert StationarySystem(envelope3).period == 1
    assert CyclicSystem(tuple(LinearModel(p) for p in vertices3)).period == 3
    assert CyclicSystem((envelope3,)).period == 1
    assert TableSystem(table={}, default=envelope3).period is None
    assert ProgrammaticSystem(space3, lambda s: envelope3).period is None


@pytest.mark.parametrize("build, message", [
    (lambda space: next(iter_situations(space, -1)), "depth must be non-negative, got -1"),
    (lambda space: CyclicSystem(()), "cyclic system needs at least one model"),
])
def test_guards(space3, build, message):
    with pytest.raises(ModelInvariantError, match=re.escape(message)):
        build(space3)
