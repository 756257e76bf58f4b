"""Sequence data: prefixes and deterministic generation (the file format is
:mod:`imprand.modelio`'s).

Generation is reproducible bit-exactly across platforms: the PRNG is a fixed
64-bit counter-based generator (splitmix64 applied to seed + counter) and
sampling inverts exact rational CDFs with integer thresholds, so float
behavior never influences which symbols come out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from imprand.core import ModelInvariantError, ProbabilityMassFunction, _check_same_space
from imprand.forecasting import Situation
from imprand.martingale import (
    MultiplierProcess,
    _column_rule,
    _over_common_denominator,
    mixture_weights,
)


class SequencePrefix(Situation):
    """A finite data prefix: the situation the data has reached, read one
    depth at a time through :meth:`Situation.situation`."""

    def __len__(self) -> int:
        return len(self.symbols)

    def phase_counts(self, period: int) -> np.ndarray:
        """Cumulative (phase, symbol) counts, a read-only (period*K, N+1)
        float64 array, exact below 2^53 and read by the float kernel without a
        cast: entry [t*K + x, n] counts the steps j < n with j = t mod period
        and outcome x.  Built once per period; only the last period asked for
        is kept."""
        kept = self.__dict__.get("_phase_counts")
        if kept is None or kept[0] != period:
            n, K = len(self), self.space.size
            steps = np.arange(n)
            counts = np.zeros((period * K, n + 1))
            counts[steps % period * K + np.array(self.symbols, dtype=np.int64), steps + 1] = 1
            np.cumsum(counts, axis=1, out=counts)
            counts.flags.writeable = False
            kept = (period, counts)
            object.__setattr__(self, "_phase_counts", kept)
        return kept[1]


_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _splitmix64_block(seed: int, start: int, count: int) -> np.ndarray:
    """Values start..start+count-1 of the counter-based stream, as uint64."""
    counters = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK64) + counters * np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _cdf_thresholds(p: ProbabilityMassFunction) -> np.ndarray:
    """Integer thresholds floor(cum*2^64) for the first K-1 cumulative
    weights; a draw u maps to the count of thresholds <= u."""
    thresholds = []
    cum = Fraction(0)
    for w in p.weights[:-1]:
        cum += w
        if cum >= 1:
            # remaining symbols carry zero weight and are never drawn
            break
        thresholds.append((cum.numerator << 64) // cum.denominator)
    return np.array(thresholds, dtype=np.uint64)


@dataclass(frozen=True)
class GeneratorSpec:
    """What to generate: depth-cyclic draws (IID draws are the cycle of one
    mass function), or an adversarial greedy-descent path against a strategy
    battery.  The spec is checked when it is built: the pmfs of a cyclic spec
    or the members of an adversarial one are non-empty and share one sample
    space."""

    kind: str
    length: int
    seed: int = 0
    pmfs: Tuple[ProbabilityMassFunction, ...] = ()
    battery: Tuple[MultiplierProcess, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "pmfs", tuple(self.pmfs))
        object.__setattr__(self, "battery", tuple(self.battery))
        parts = {"cyclic": self.pmfs, "adversarial": self.battery}.get(self.kind)
        if parts is None:
            raise ModelInvariantError(f"unknown generator kind {self.kind!r}")
        if self.length < 0:
            raise ModelInvariantError(f"length must be non-negative, got {self.length}")
        if not parts:
            what = "mass functions" if self.kind == "cyclic" else "a battery"
            raise ModelInvariantError(f"{self.kind} generation needs {what}")
        for part in parts[1:]:
            _check_same_space(parts[0], part)

    @classmethod
    def iid(cls, p: ProbabilityMassFunction, length: int, seed: int = 0) -> "GeneratorSpec":
        return cls.cyclic((p,), length, seed)

    @classmethod
    def cyclic(
        cls, pmfs: Sequence[ProbabilityMassFunction], length: int, seed: int = 0
    ) -> "GeneratorSpec":
        return cls(kind="cyclic", length=length, seed=seed, pmfs=tuple(pmfs))

    @classmethod
    def adversarial(
        cls, battery: Sequence[MultiplierProcess], length: int
    ) -> "GeneratorSpec":
        return cls(kind="adversarial", length=length, battery=tuple(battery))


def generate(spec: GeneratorSpec) -> SequencePrefix:
    """Produce a sequence; deterministic given the spec (seed included).
    A cyclic spec draws each depth from its phase's mass function; an
    adversarial one descends greedily against its battery, on the battery's
    sample space."""
    if spec.kind == "cyclic":
        return _generate_cyclic(spec.pmfs, spec.length, spec.seed)
    return _generate_adversarial(spec.battery, spec.length)


def _generate_cyclic(
    pmfs: Tuple[ProbabilityMassFunction, ...], length: int, seed: int
) -> SequencePrefix:
    space = pmfs[0].space
    draws = _splitmix64_block(seed, 0, length)
    symbols = np.zeros(length, dtype=np.int64)
    period = len(pmfs)
    for phase, p in enumerate(pmfs):
        thresholds = _cdf_thresholds(p)
        block = draws[phase::period]
        symbols[phase::period] = np.searchsorted(thresholds, block, side="right")
    return SequencePrefix(space, symbols.tolist())


def _generate_adversarial(
    battery: Tuple[MultiplierProcess, ...], length: int
) -> SequencePrefix:
    """Greedy descent: at each situation pick the symbol minimizing the exact
    renormalized mixture capital, ties broken by symbol order.  The mixture
    never exceeds 1 along the result, and battery member i stays below the
    reciprocal of its mixture weight.  Members of joint period L are asked at
    the first L depths alone, and each column is checked once (_column_rule)."""
    space = battery[0].space
    # weighted capitals w_i * c_i as integers A_i over one denominator, which
    # every candidate shares and so never enters a comparison; capitals start at 1
    _, weighted = _over_common_denominator(mixture_weights(len(battery)))
    L, column = _column_rule([member.period for member in battery])
    path: List[int] = []

    for n in range(length):
        new = L is None or n < L  # the first depth of its (phase, symbol) columns
        if new:
            s = Situation._trusted(space, tuple(path))
            rows = [(member.factor(s).values,) for member in battery]  # one phase each
        # candidate x is sum(A_i * num_i(x)) / (denominator * q_x); each new
        # column is checked at every symbol, so each member's factor is checked
        # for positivity (a numerator over q_x > 0 has the factor's sign)
        best = None  # (total, q, products, x) of the least candidate so far
        for x in space:
            q, nums = column(n, x, rows)
            if new and min(nums) <= 0:
                raise ModelInvariantError(
                    f"battery member not positive at {s.tokens()!r}"
                )
            products = [a * m for a, m in zip(weighted, nums)]
            total = sum(products)
            if best is None or total * best[1] < best[0] * q:
                best = (total, q, products, x)
        _, _, weighted, x = best  # the winner's products are the new A_i
        path.append(x)

    return SequencePrefix(space, path)
