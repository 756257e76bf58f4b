"""Exact rational substrate: sample spaces, gambles, probability mass
functions and linear expectation.

All model values are `fractions.Fraction` instances (arbitrary precision,
always in lowest terms, positive denominator).  Floating point never enters
model arithmetic; conversions to float happen only at reporting boundaries
(see :func:`log2_rational`).
"""

from __future__ import annotations

import decimal
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Tuple, Union

RationalLike = Union[Fraction, int, str]

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$", re.ASCII)


class ImprandError(Exception):
    """Base class for all library errors."""


class ModelInvariantError(ImprandError):
    """A domain-type invariant is violated."""


class SpaceMismatchError(ModelInvariantError):
    """Two objects that must share a sample space do not."""

    def __init__(self, left: "SampleSpace", right: "SampleSpace"):
        self.left = left
        self.right = right
        super().__init__(
            f"sample space mismatch: {left.symbols!r} vs {right.symbols!r}"
        )


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational from a decimal-free "p/q" or "n" string."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ModelInvariantError(
            f"not a decimal-free rational string: {text!r} (expected 'p/q' or 'n')"
        )
    return Fraction(text.strip())


def format_rational(value: Fraction) -> str:
    """Render a rational as a "p/q" or "n" string; round-trips bit-exactly."""
    return str(Fraction(value))


def as_rational(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise ModelInvariantError(f"cannot interpret {value!r} as an exact rational")


def log2_rational(value: Fraction) -> float:
    """log2 of a positive rational, accurate for arbitrarily large operands:
    each operand is truncated to 53 bits (under 4e-16 in log2), math.log2
    errs by about 1 ulp of a result below 54 (under 8e-15), and two float
    additions add under 4e-15 plus |value|*2^-53, so the error is below
    1e-13 + |log2 value|*1e-15."""
    if value.numerator <= 0:
        raise ValueError(f"log2 of non-positive rational {value}")
    return _log2_ratio(value.numerator, value.denominator)


def _log2_ratio(num: int, den: int) -> float:
    """log2_rational of num/den for coprime positive integers."""
    shift_n = max(num.bit_length() - 53, 0)
    shift_d = max(den.bit_length() - 53, 0)
    return (
        math.log2(num >> shift_n)
        - math.log2(den >> shift_d)
        + (shift_n - shift_d)
    )


def _log2_band(bits: float) -> float:
    """Over twice log2_rational's error near bits: farther floats order as their rationals."""
    return 1e-9 * max(1.0, abs(bits))


def _log2_at_least(value: Fraction, t: float) -> bool:
    """Exactly whether log2(value) >= t, for value > 0 and a finite t: the
    float decides outside _log2_band(t) (log2_rational's error bound); inside,
    an integral t compares value with 2^t, and any other (2^t irrational)
    takes ln(value) - t*ln(2) at doubling precision until it passes
    10^(2-prec)*(1 + |ln value| + |t ln 2|), its rounding error bound."""
    bits = log2_rational(value)
    if abs(bits - t) > _log2_band(t):
        return bits > t
    if t.is_integer():
        return value >= Fraction(2) ** int(t)
    prec = 40
    while True:
        ctx = decimal.Context(prec, Emin=decimal.MIN_EMIN)
        ln_value = ctx.ln(ctx.divide(decimal.Decimal(value.numerator), value.denominator))
        t_ln2 = ctx.multiply(decimal.Decimal(t), ctx.ln(2))
        diff = ctx.subtract(ln_value, t_ln2)
        size = ctx.add(1, ctx.add(ln_value.copy_abs(), t_ln2.copy_abs()))
        if diff.copy_abs() > ctx.scaleb(size, 2 - prec):
            return diff > 0
        prec *= 2


@dataclass(frozen=True)
class SampleSpace:
    """A finite ordered alphabet of distinct printable tokens."""

    symbols: Tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if len(self.symbols) < 1:
            raise ModelInvariantError("sample space must contain at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise ModelInvariantError(f"duplicate symbols in {self.symbols!r}")
        for token in self.symbols:
            if not isinstance(token, str) or not token or not token.isprintable():
                raise ModelInvariantError(f"symbol {token!r} is not a printable token")
            if any(ch.isspace() for ch in token):
                raise ModelInvariantError(f"symbol {token!r} contains whitespace")

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index_of(self, token: str) -> int:
        try:
            return self.symbols.index(token)
        except ValueError:
            raise ModelInvariantError(
                f"token {token!r} not in alphabet {self.symbols!r}"
            ) from None

    def __iter__(self):
        return iter(range(len(self.symbols)))


def _check_same_space(a, b) -> None:
    """The one comparison of two objects' sample spaces; the error names
    a's space, then b's."""
    if a.space != b.space:
        raise SpaceMismatchError(a.space, b.space)


@dataclass(frozen=True)
class Gamble:
    """An exact rational-valued function on a sample space."""

    space: SampleSpace
    values: Tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(as_rational(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) != self.space.size:
            raise ModelInvariantError(
                f"gamble has {len(vals)} values for a {self.space.size}-symbol space"
            )

    @classmethod
    def constant(cls, space: SampleSpace, value: RationalLike) -> "Gamble":
        return cls(space, tuple(as_rational(value) for _ in space.symbols))

    @classmethod
    def indicator(cls, space: SampleSpace, token: str) -> "Gamble":
        i = space.index_of(token)
        return cls(space, tuple(Fraction(1 if j == i else 0) for j in space))

    def __getitem__(self, index: int) -> Fraction:
        return self.values[index]

    def minimum(self) -> Fraction:
        return min(self.values)

    def maximum(self) -> Fraction:
        return max(self.values)

    def spread(self) -> Fraction:
        return self.maximum() - self.minimum()

    def __add__(self, other: Union["Gamble", RationalLike]) -> "Gamble":
        if isinstance(other, Gamble):
            _check_same_space(self, other)
            return Gamble(
                self.space, tuple(a + b for a, b in zip(self.values, other.values))
            )
        c = as_rational(other)
        return Gamble(self.space, tuple(a + c for a in self.values))

    __radd__ = __add__

    def __sub__(self, other: Union["Gamble", RationalLike]) -> "Gamble":
        return self + (-other if isinstance(other, Gamble) else -as_rational(other))

    def __rsub__(self, other: RationalLike) -> "Gamble":
        return (-self) + as_rational(other)

    def __neg__(self) -> "Gamble":
        return Gamble(self.space, tuple(-a for a in self.values))

    def scale(self, factor: RationalLike) -> "Gamble":
        c = as_rational(factor)
        return Gamble(self.space, tuple(c * a for a in self.values))

    __mul__ = scale
    __rmul__ = scale


@dataclass(frozen=True)
class ProbabilityMassFunction:
    """Non-negative exact rational weights summing to one."""

    space: SampleSpace
    weights: Tuple[Fraction, ...]

    def __post_init__(self):
        w = tuple(as_rational(v) for v in self.weights)
        object.__setattr__(self, "weights", w)
        if len(w) != self.space.size:
            raise ModelInvariantError(
                f"pmf has {len(w)} weights for a {self.space.size}-symbol space"
            )
        if any(v < 0 for v in w):
            raise ModelInvariantError(f"negative weight in pmf {w!r}")
        total = sum(w)
        if total != 1:
            raise ModelInvariantError(f"pmf weights sum to {total}, not 1")

    @classmethod
    def point_mass(cls, space: SampleSpace, token: str) -> "ProbabilityMassFunction":
        i = space.index_of(token)
        return cls(space, tuple(Fraction(1 if j == i else 0) for j in space))

    @classmethod
    def uniform(cls, space: SampleSpace) -> "ProbabilityMassFunction":
        k = space.size
        return cls(space, tuple(Fraction(1, k) for _ in space))


def linear_expectation(p: ProbabilityMassFunction, f: Gamble) -> Fraction:
    """Exact expectation of a gamble under a probability mass function."""
    _check_same_space(p, f)
    return sum(
        (w * v for w, v in zip(p.weights, f.values)), start=Fraction(0)
    )
