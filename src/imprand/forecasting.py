"""Situations (the event tree) and forecasting systems.

A situation is a finite sequence of outcomes; situations form the event tree
rooted at the empty sequence.  A forecasting system assigns a coherent lower
expectation to every situation.  Three rule families are provided: cyclic
(model chosen by depth mod M), table-backed (explicit map with a default),
and programmatic (an arbitrary pure function of the situation).  A stationary
system (one model everywhere) is the plain case of a cyclic one, the cycle
of period 1.

A system's ``period`` is L when its forecast depends on the depth mod L
alone, and None when it is not depth-periodic; :func:`joint_period` combines
the periods of the objects a betting strategy is built from.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

from imprand.core import ModelInvariantError, SampleSpace, _check_same_space
from imprand.lowerexp import LowerExpectation, dominates


def _check_index(space: SampleSpace, i) -> int:
    """i as a Python int; integer types such as numpy's pass, 1.9 does not."""
    try:
        index = operator.index(i)
    except TypeError:
        index = -1
    if not 0 <= index < space.size:
        raise ModelInvariantError(
            f"symbol index {i!r} invalid for a {space.size}-symbol space"
        )
    return index


@dataclass(frozen=True)
class Situation:
    """A finite sequence of symbol indices; depth 0 is the root."""

    space: SampleSpace
    symbols: Tuple[int, ...] = ()

    def __post_init__(self):
        symbols = tuple(_check_index(self.space, i) for i in self.symbols)
        object.__setattr__(self, "symbols", symbols)

    @classmethod
    def _trusted(cls, space: SampleSpace, symbols: Tuple[int, ...]) -> "Situation":
        """A situation over a tuple of indices that are already validated."""
        s = object.__new__(cls)
        object.__setattr__(s, "space", space)
        object.__setattr__(s, "symbols", symbols)
        return s

    @classmethod
    def root(cls, space: SampleSpace) -> "Situation":
        return cls(space, ())

    @classmethod
    def from_tokens(cls, space: SampleSpace, tokens: Sequence[str]) -> "Situation":
        return cls(space, tuple(space.index_of(t) for t in tokens))

    @property
    def depth(self) -> int:
        return len(self.symbols)

    def situation(self, depth: int) -> "Situation":
        """The situation after the first `depth` outcomes of this one."""
        if not 0 <= depth <= len(self.symbols):
            raise ModelInvariantError(f"depth {depth} outside [0, {len(self.symbols)}]")
        return Situation._trusted(self.space, self.symbols[:depth])

    def child(self, index: int) -> "Situation":
        index = _check_index(self.space, index)
        return Situation._trusted(self.space, self.symbols + (index,))

    def children(self) -> Iterator["Situation"]:
        for i in self.space:
            yield self.child(i)

    def tokens(self) -> Tuple[str, ...]:
        return tuple(self.space.symbols[i] for i in self.symbols)


def iter_situations(space: SampleSpace, depth: int) -> Iterator[Situation]:
    """Breadth-first enumeration of all situations up to the given depth,
    children in symbol order (lexicographic order within a depth), one at a
    time: no level is held."""
    if depth < 0:
        raise ModelInvariantError(f"depth must be non-negative, got {depth}")
    for d in range(depth + 1):
        for symbols in itertools.product(range(space.size), repeat=d):
            yield Situation._trusted(space, symbols)


def joint_period(*periods: Optional[int]) -> Optional[int]:
    """The period of an object built from depth-periodic parts: the lcm of
    their periods, or None when any part is not depth-periodic."""
    if None in periods:
        return None
    return math.lcm(*periods)


class ForecastingSystem:
    """Base class; subclasses implement :meth:`forecast` and set
    :attr:`period` when the forecast depends on the depth alone."""

    space: SampleSpace
    period: Optional[int] = None

    def forecast(self, s: Situation) -> LowerExpectation:
        raise NotImplementedError


@dataclass(frozen=True)
class CyclicSystem(ForecastingSystem):
    """Model chosen by depth mod M."""

    models: Tuple[LowerExpectation, ...]

    def __post_init__(self):
        object.__setattr__(self, "models", tuple(self.models))
        if not self.models:
            raise ModelInvariantError("cyclic system needs at least one model")
        for m in self.models[1:]:
            _check_same_space(self.models[0], m)

    @property
    def space(self) -> SampleSpace:
        return self.models[0].space

    @property
    def period(self) -> int:
        return len(self.models)

    def forecast(self, s: Situation) -> LowerExpectation:
        _check_same_space(self, s)
        return self.models[s.depth % len(self.models)]


class StationarySystem(CyclicSystem):
    """The period-1 cycle: one model at every situation."""

    def __init__(self, model: LowerExpectation):
        super().__init__((model,))

    @property
    def model(self) -> LowerExpectation:
        return self.models[0]

    # in the class body: perfbench wraps each class's own forecast
    forecast = CyclicSystem.forecast


@dataclass(frozen=True)
class TableSystem(ForecastingSystem):
    """Explicit situation-to-model map; the default covers off-table
    situations so the system is total on the event tree."""

    table: Dict[Tuple[int, ...], LowerExpectation]
    default: LowerExpectation

    def __post_init__(self):
        object.__setattr__(self, "table", dict(self.table))
        for m in self.table.values():
            _check_same_space(self.default, m)

    @property
    def space(self) -> SampleSpace:
        return self.default.space

    def forecast(self, s: Situation) -> LowerExpectation:
        _check_same_space(self, s)
        return self.table.get(s.symbols, self.default)


@dataclass(frozen=True)
class ProgrammaticSystem(ForecastingSystem):
    """Rule given as a pure function of the situation.

    The function must be deterministic and always return a model on the
    declared space; this is checked on every call.
    """

    space: SampleSpace
    rule: Callable[[Situation], LowerExpectation] = field(compare=False)

    def forecast(self, s: Situation) -> LowerExpectation:
        _check_same_space(self, s)
        model = self.rule(s)
        _check_same_space(self, model)
        return model


def pointwise_leq(a, b, depth, probes) -> bool:
    """True iff a's forecast :func:`~imprand.lowerexp.dominates` b's at every
    situation up to the given depth: a's lower expectation never exceeds b's,
    exactly, on any probe gamble."""
    _check_same_space(a, b)  # else b.forecast would name the spaces swapped
    return all(
        dominates(a.forecast(s), b.forecast(s), probes)
        for s in iter_situations(a.space, depth)
    )
