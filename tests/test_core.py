import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from imprand import (
    Gamble,
    ProbabilityMassFunction,
    SampleSpace,
    SpaceMismatchError,
    linear_expectation,
)
from imprand.core import (
    ModelInvariantError,
    as_rational,
    format_rational,
    log2_rational,
    parse_rational,
)

from conftest import rand_fraction, rand_gamble, rand_pmf

rationals = st.fractions(max_denominator=1000)


class TestRationalStrings:
    @pytest.mark.parametrize("text,value", [
        ("3/4", Fraction(3, 4)),
        ("-7", Fraction(-7)),
        ("0", Fraction(0)),
        ("-22/7", Fraction(-22, 7)),
    ])
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    # the last three use non-ASCII decimal digits (fullwidth, Arabic-Indic)
    @pytest.mark.parametrize("bad", ["0.5", "1e3", "1/0", "1/-2", "", "a/b", "1 /2",
                                     "３", "٣/7", "1/1٠"])
    def test_rejects_non_rational_strings(self, bad):
        with pytest.raises(ModelInvariantError):
            parse_rational(bad)

    @given(rationals)
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    def test_as_rational_rejects_floats(self):
        with pytest.raises(ModelInvariantError):
            as_rational(0.5)


class TestLog2Rational:
    def test_small_values(self):
        assert log2_rational(Fraction(8)) == 3.0
        assert log2_rational(Fraction(1, 4)) == -2.0

    def test_huge_operands_stay_finite(self):
        v = Fraction(3, 2) ** 100000
        bits = log2_rational(v)
        assert abs(bits - 100000 * 0.5849625007211562) < 1e-6

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            log2_rational(Fraction(0))


class TestSampleSpace:
    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ModelInvariantError):
            SampleSpace(("A", "A"))

    def test_empty_rejected(self):
        with pytest.raises(ModelInvariantError):
            SampleSpace(())

    def test_whitespace_rejected(self):
        with pytest.raises(ModelInvariantError):
            SampleSpace(("A", "B C"))

    def test_index_of(self, space3):
        assert space3.index_of("C") == 2
        with pytest.raises(ModelInvariantError):
            space3.index_of("D")


class TestGamble:
    def test_length_checked(self, space3):
        with pytest.raises(ModelInvariantError):
            Gamble(space3, (Fraction(1),))

    def test_arithmetic(self, space3, f_example):
        g = Gamble(space3, (Fraction(0), Fraction(1), Fraction(-1)))
        assert (f_example + g).values == (Fraction(1), Fraction(-1), Fraction(2))
        assert (f_example - g).values == (Fraction(1), Fraction(-3), Fraction(4))
        assert (f_example + Fraction(1, 2)).values == (
            Fraction(3, 2), Fraction(-3, 2), Fraction(7, 2))
        assert f_example.scale(Fraction(2)).values == (Fraction(2), Fraction(-4), Fraction(6))

    def test_space_mismatch(self, space3, f_example):
        other = Gamble(SampleSpace(("X", "Y")), (Fraction(0), Fraction(1)))
        with pytest.raises(SpaceMismatchError):
            f_example + other


class TestPmf:
    def test_weights_must_sum_to_one(self, space3):
        with pytest.raises(ModelInvariantError):
            ProbabilityMassFunction(
                space3, (Fraction(1, 2), Fraction(2, 5), Fraction(0)))

    def test_negative_weight_rejected(self, space3):
        with pytest.raises(ModelInvariantError):
            ProbabilityMassFunction(
                space3, (Fraction(-1, 2), Fraction(1), Fraction(1, 2)))


class TestLinearExpectation:
    def test_example_vertex_value(self, space3, f_example):
        # third envelope vertex of the worked three-symbol example
        p2 = ProbabilityMassFunction(space3, (Fraction(1, 2), Fraction(1, 2), Fraction(0)))
        assert linear_expectation(p2, f_example) == Fraction(-1, 2)

    def test_constant_gamble(self, space3):
        p = ProbabilityMassFunction.uniform(space3)
        c = Gamble.constant(space3, Fraction(7, 3))
        assert linear_expectation(p, c) == Fraction(7, 3)

    def test_point_mass_selects_value(self, space3, f_example):
        p = ProbabilityMassFunction.point_mass(space3, "B")
        assert linear_expectation(p, f_example) == Fraction(-2)

    def test_linearity_random(self, space3):
        rng = random.Random(11)
        for _ in range(200):
            p = rand_pmf(rng, space3)
            f = rand_gamble(rng, space3)
            g = rand_gamble(rng, space3)
            alpha = rand_fraction(rng, -3, 3)
            assert linear_expectation(p, f.scale(alpha) + g) == (
                alpha * linear_expectation(p, f) + linear_expectation(p, g))

    def test_bounds_random(self, space3):
        rng = random.Random(12)
        for _ in range(200):
            p = rand_pmf(rng, space3)
            f = rand_gamble(rng, space3)
            e = linear_expectation(p, f)
            assert f.minimum() <= e <= f.maximum()

    def test_space_mismatch(self, f_example):
        p = ProbabilityMassFunction.uniform(SampleSpace(("X", "Y")))
        with pytest.raises(SpaceMismatchError) as err:
            linear_expectation(p, f_example)
        assert err.value.left.symbols == ("X", "Y")
        assert err.value.right.symbols == ("A", "B", "C")
        # a model invariant: the CLI exits 2 on it
        assert isinstance(err.value, ModelInvariantError)


def test_gamble_range(space3, f_example):
    assert (f_example.minimum(), f_example.maximum()) == (Fraction(-2), Fraction(3))
    zero = Gamble.constant(space3, 0)
    assert (zero.minimum(), zero.maximum()) == (Fraction(0), Fraction(0))
    g = Gamble(space3, (Fraction(1, 3), Fraction(1, 3), Fraction(1, 2)))
    assert (g.minimum(), g.maximum()) == (Fraction(1, 3), Fraction(1, 2))


def test_negate(space3, f_example):
    assert (-f_example).values == (Fraction(-1), Fraction(2), Fraction(-3))
    assert -(-f_example) == f_example
    assert (-f_example).minimum() == -f_example.maximum()


@given(st.lists(rationals, min_size=3, max_size=3),
       st.lists(rationals, min_size=3, max_size=3))
def test_exact_field_axioms(a, b):
    # Fraction arithmetic must be associative and distributive bit-exactly
    c = Fraction(7, 13)
    x, y, z = a[0], a[1], b[2]
    assert (x + y) + z == x + (y + z)
    assert c * (x + y) == c * x + c * y


def test_public_names_resolve_once_sorted():
    import imprand

    names = imprand.__all__
    assert all(hasattr(imprand, name) for name in names)
    assert len(set(names)) == len(names)
    assert names == sorted(names)


@pytest.mark.parametrize("build, message", [
    (lambda: SampleSpace(("A", "\x07")), "symbol '\\x07' is not a printable token"),
    (lambda: ProbabilityMassFunction(SampleSpace(("A", "B", "C")), (1, 0)),
     "pmf has 2 weights for a 3-symbol space"),
])
def test_constructor_guards(build, message):
    with pytest.raises(ModelInvariantError, match=re.escape(message)):
        build()
