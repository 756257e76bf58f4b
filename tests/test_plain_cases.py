"""Each plain case is its general form: a linear model is the envelope of
one vertex, the vacuous model the envelope of all point masses, a gamma
model the anchored slab [gamma, max anchor], and a stationary system the
cycle of period 1.  They agree exactly, and each still writes its own file
kind."""

import json
import random
from fractions import Fraction

from imprand import (
    AnchorGammaModel,
    AnchorIntervalModel,
    CyclicSystem,
    EnvelopeModel,
    Gamble,
    LinearModel,
    ProbabilityMassFunction,
    SampleSpace,
    Situation,
    StationarySystem,
    VacuousModel,
)
from imprand.modelio import save_model, save_system

from conftest import rand_gamble, rand_pmf


def _plain_and_general(rng, space):
    """(plain case, its general form, the general class) for each plain model."""
    p = rand_pmf(rng, space)
    anchor = rand_gamble(rng, space)
    gamma = anchor.minimum() + anchor.spread() * Fraction(rng.randint(0, 6), 6)
    points = tuple(ProbabilityMassFunction.point_mass(space, t) for t in space.symbols)
    return [
        (LinearModel(p), EnvelopeModel((p,)), EnvelopeModel),
        (VacuousModel(space), EnvelopeModel(points), EnvelopeModel),
        (AnchorGammaModel(anchor=anchor, gamma=gamma),
         AnchorIntervalModel(anchor=anchor, lo=gamma, hi=anchor.maximum()),
         AnchorIntervalModel),
    ]


def test_plain_cases_equal_their_general_forms():
    rng = random.Random(25)
    for _ in range(20):
        space = SampleSpace(tuple("ABCD"[: rng.randint(1, 4)]))
        gambles = [rand_gamble(rng, space) for _ in range(10)]
        situations = [Situation(space, tuple(rng.randrange(space.size)
                                             for _ in range(rng.randint(0, 6))))
                      for _ in range(10)]
        for plain, general, cls in _plain_and_general(rng, space):
            assert isinstance(plain, cls) and plain.space == general.space
            for g in gambles:
                assert plain.lower(g) == general.lower(g)
                assert plain.upper(g) == general.upper(g)
            stationary, cycle = StationarySystem(plain), CyclicSystem((plain,))
            assert isinstance(stationary, CyclicSystem)
            assert stationary.model is plain and stationary.models == (plain,)
            assert stationary.period == cycle.period == 1
            for s in situations:
                assert stationary.forecast(s) is cycle.forecast(s) is plain
    # the plain attributes read the general ones
    space = SampleSpace(("A", "B"))
    anchor = Gamble(space, ("1", "0"))
    assert LinearModel(ProbabilityMassFunction.uniform(space)).pmf.weights == (
        Fraction(1, 2), Fraction(1, 2))
    assert AnchorGammaModel(anchor=anchor, gamma="1/4").gamma == Fraction(1, 4)
    gamma_model = AnchorGammaModel(anchor=anchor, gamma="1/4")
    assert (gamma_model.lo, gamma_model.hi) == (Fraction(1, 4), Fraction(1))


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_every_kind_writes_its_own_file(tmp_path):
    # plain cases write their own kinds, and general forms with one vertex or
    # one model write the general kinds
    space = SampleSpace(("A", "B", "C"))
    abc = ["A", "B", "C"]
    p = ProbabilityMassFunction(space, ("1/2", "1/4", "1/4"))
    anchor = Gamble(space, ("1", "-2", "3"))
    linear = {"alphabet": abc, "kind": "linear", "vertices": [["1/2", "1/4", "1/4"]]}
    vacuous = {"alphabet": abc, "kind": "vacuous"}
    gamma = {"alphabet": abc, "kind": "gamma_f", "gamma": "1/3", "anchor": ["1", "-2", "3"]}
    cases = [
        (save_model, LinearModel(p), linear),
        (save_model, EnvelopeModel((p,)), dict(linear, kind="envelope")),
        (save_model, VacuousModel(space), vacuous),
        (save_model, AnchorGammaModel(anchor=anchor, gamma=Fraction(1, 3)), gamma),
        (save_model, AnchorIntervalModel(anchor=anchor, lo=-1, hi="5/2"),
         {"alphabet": abc, "kind": "interval_f", "interval": ["-1", "5/2"],
          "anchor": ["1", "-2", "3"]}),
        (save_system, StationarySystem(AnchorGammaModel(anchor=anchor, gamma=Fraction(1, 3))),
         {"kind": "stationary", "models": [gamma]}),
        (save_system, CyclicSystem((LinearModel(p),)), {"kind": "cyclic", "models": [linear]}),
        (save_system, CyclicSystem((LinearModel(p), VacuousModel(space))),
         {"kind": "cyclic", "models": [linear, vacuous]}),
    ]
    for save, obj, expected in cases:
        path = tmp_path / "out.json"
        save(obj, path)
        assert path.read_text(encoding="utf-8") == _json(expected)
