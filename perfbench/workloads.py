"""The four benchmark workloads.

All use the alphabet A, B, C.  Each workload has a ``setup`` that builds its
inputs from the seed (and writes the files its CLI job reads), a ``job`` that
is timed, and a ``check`` that verifies one job's output outside the timed
interval.  Every job in a run sees the same inputs.

screen    library call: one 20000-step iid sequence through
          ``run_battery_fast`` with the 240-strategy default battery, against
          a consistent and a pinned system in the same job.  The two systems
          take different kernel times; as separate jobs the median fell
          between two modes, so they form one job.
interval  ``imprand estimate-interval`` on a 20000-step period-2 cyclic file.
exact     ``imprand generate --kind adversarial --length 500`` against the
          envelope system, then ``imprand analyze --format csv`` on a
          1000-step iid file against a pinned system (exit 3 is expected).
audit     ``imprand verify --depth 6`` of 24 running-average strategies on a
          seed-drawn permutation of +-f against the envelope system.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from fractions import Fraction as Q
from typing import Dict, List

import numpy as np

from imprand import (
    AnchorGammaModel,
    EnvelopeModel,
    Gamble,
    GeneratorSpec,
    LinearModel,
    ProbabilityMassFunction,
    SampleSpace,
    StationarySystem,
    analysis,
    battery_for_gambles,
    cli,
    default_battery,
    generate,
    read_sequence,
    sequences,
    write_sequence,
)

import checks

SPACE = SampleSpace(("A", "B", "C"))
HALF = Q(1, 2)
P_IID = ProbabilityMassFunction(SPACE, (HALF, Q(1, 4), Q(1, 4)))
F_EXAMPLE = Gamble(SPACE, (Q(1), Q(-2), Q(3)))
ENVELOPE = EnvelopeModel((
    ProbabilityMassFunction(SPACE, (Q(0), HALF, HALF)),
    ProbabilityMassFunction(SPACE, (HALF, Q(0), HALF)),
    ProbabilityMassFunction(SPACE, (HALF, HALF, Q(0))),
))
PINNED = AnchorGammaModel(anchor=Gamble.indicator(SPACE, "A"), gamma=Q(3, 4))
THRESHOLD_BITS = 10.0


def _model_dict(model) -> dict:
    alphabet = list(SPACE.symbols)
    if isinstance(model, EnvelopeModel):
        return {"alphabet": alphabet, "kind": "envelope",
                "vertices": [[str(w) for w in v.weights] for v in model.vertices]}
    return {"alphabet": alphabet, "kind": "gamma_f", "gamma": str(model.gamma),
            "anchor": [str(v) for v in model.anchor.values]}


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def write_system(path: str, model) -> None:
    _write_json(path, {"kind": "stationary", "models": [_model_dict(model)]})


def write_battery(path: str, strategies) -> None:
    """imprand reads batteries but has no writer; residue selections take
    the fields ``m`` and ``i``."""
    entries = []
    for s in strategies:
        sel = s.selection
        selection = ({"kind": "all"} if sel.kind == "all"
                     else {"kind": "residue", "m": sel.modulus, "i": sel.residue})
        entries.append({"type": "lln", "gamble": [str(v) for v in s.f.values],
                        "direction": s.direction, "epsilon": str(s.epsilon),
                        "selection": selection})
    _write_json(path, entries)


def battery_period(strategies) -> int:
    return math.lcm(*(s.selection.modulus for s in strategies))


def run_cli(argv: List[str]):
    """Call the CLI in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _remove(*paths: str) -> None:
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


class Workload:
    name = ""
    # span names that a traced job of this workload must record
    expected_spans: tuple = ()

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = workdir
        self._oracle = None

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def outputs(self) -> List[str]:
        return []

    def clear_outputs(self) -> None:
        _remove(*self.outputs())

    def output_bytes(self) -> int:
        return sum(os.path.getsize(p) for p in self.outputs() if os.path.exists(p))

    def collect(self, raw):
        """Read a job's output files; runs outside the timed interval."""
        return raw

    def grid_counts(self, result) -> tuple:
        return 0, 0


class Screen(Workload):
    name = "screen"
    expected_spans = ("bench.job", "sequences.generate", "analysis.run_battery_fast",
                      "lowerexp.lower", "lowerexp.upper")
    length = 20000

    def setup(self) -> None:
        self.systems = {
            "consistent": StationarySystem(LinearModel(P_IID)),
            "pinned": StationarySystem(PINNED),
        }
        self.battery = default_battery(SPACE)

    def sizes(self) -> Dict[str, int]:
        return {"N": self.length, "B": len(self.battery),
                "L": battery_period(self.battery), "K": SPACE.size}

    def job(self):
        # calls go through the module attributes so that traced runs see them
        prefix = sequences.generate(GeneratorSpec.iid(P_IID, self.length, seed=self.seed))
        result = {}
        for name, system in self.systems.items():
            r = analysis.run_battery_fast(prefix, system, self.battery)
            m = r.mixture_log2
            at = int(np.argmax(m))
            result[name] = {"steps": len(m), "argmax": at, "argmax_log2": float(m[at]),
                            "final_log2": float(m[-1]), "deficiency_bits": r.deficiency_bits}
        return result

    def check(self, result) -> List[str]:
        if self._oracle is None:
            prefix = generate(GeneratorSpec.iid(P_IID, self.length, seed=self.seed))
            L = battery_period(self.battery)
            self._oracle = {
                name: checks.CountOracle(checks.factor_table(sys.model, self.battery, L),
                                         prefix.symbols)
                for name, sys in self.systems.items()
            }
        return checks.check_screen(self._oracle, result)

    def verdicts(self, results) -> str:
        low = sum(r["consistent"]["deficiency_bits"] <= 10.0 for r in results)
        high = sum(r["pinned"]["deficiency_bits"] >= 20.0 for r in results)
        return (f"verdicts: consistent <= 10 bits in {low}/{len(results)} jobs, "
                f"pinned >= 20 bits in {high}/{len(results)} jobs")


class Interval(Workload):
    name = "interval"
    expected_spans = ("bench.job", "cli.main", "modelio.load_gamble", "sequences.read_sequence",
                      "analysis.estimate_interval", "analysis.run_battery_fast",
                      "lowerexp.lower", "lowerexp.upper")
    length = 20000
    grid_step = Q(1, 16)
    moduli = (1, 2)

    def setup(self) -> None:
        v_even = ProbabilityMassFunction(SPACE, (Q(0), HALF, HALF))
        v_odd = ProbabilityMassFunction(SPACE, (HALF, HALF, Q(0)))
        self.prefix = generate(GeneratorSpec.cyclic((v_even, v_odd), self.length, seed=self.seed))
        write_sequence(self.prefix, self.path("cyclic.txt"))
        _write_json(self.path("f.json"), {"alphabet": list(SPACE.symbols),
                                          "values": [str(v) for v in F_EXAMPLE.values]})
        self.argv = ["estimate-interval", "--gamble", self.path("f.json"),
                     "--sequence", self.path("cyclic.txt"), "--grid-step", str(self.grid_step),
                     "--selection-moduli", ",".join(map(str, self.moduli)),
                     "--out", self.path("interval.json")]

    def sizes(self) -> Dict[str, int]:
        strategies = battery_for_gambles((F_EXAMPLE,), selection_moduli=self.moduli,
                                         directions=("lower",))
        return {"N": self.length, "B": len(strategies),
                "L": battery_period(strategies), "K": SPACE.size}

    def outputs(self) -> List[str]:
        return [self.path("interval.json")]

    def job(self):
        return run_cli(self.argv)[0]

    def collect(self, code):
        with open(self.path("interval.json"), encoding="utf-8") as fh:
            return code, json.load(fh)

    def recompute(self, side: str, gamma: Q) -> float:
        if side == "lower":
            model = AnchorGammaModel(anchor=F_EXAMPLE, gamma=gamma)
        else:
            model = AnchorGammaModel(anchor=-F_EXAMPLE, gamma=-gamma)
        strategies = battery_for_gambles((F_EXAMPLE,), selection_moduli=self.moduli,
                                         directions=(side,))
        return analysis.run_battery_fast(self.prefix, StationarySystem(model),
                                         strategies).deficiency_bits

    def check(self, result) -> List[str]:
        code, report = result
        errors = [] if code == 0 else [f"estimate-interval exit code {code}, expected 0"]
        return errors + checks.check_interval(report, F_EXAMPLE.values, self.grid_step,
                                              THRESHOLD_BITS, self.recompute)

    def grid_counts(self, result) -> tuple:
        _, report = result
        points = report["lower_grid"] + report["upper_grid"]
        return sum(p["raw_bits"] != float("inf") for p in points), len(points)


class Exact(Workload):
    name = "exact"
    expected_spans = ("bench.job", "cli.main", "modelio.load_system", "modelio.load_battery",
                      "martingale.lln_strategy", "sequences.generate", "sequences.write_sequence",
                      "sequences.read_sequence", "analysis.run_battery", "martingale.factor",
                      "modelio.write_trajectory_csv", "lowerexp.lower", "forecasting.forecast")
    adversarial_length = 500
    length = 1000
    strategies = 24

    def setup(self) -> None:
        self.battery = default_battery(SPACE, (F_EXAMPLE,))[: self.strategies]
        write_battery(self.path("battery.json"), self.battery)
        write_system(self.path("envelope.json"), ENVELOPE)
        write_system(self.path("pinned.json"), PINNED)
        self.prefix = generate(GeneratorSpec.iid(P_IID, self.length, seed=self.seed))
        write_sequence(self.prefix, self.path("iid.txt"))
        self.generate_argv = ["generate", "--kind", "adversarial",
                              "--system", self.path("envelope.json"),
                              "--battery", self.path("battery.json"),
                              "--length", str(self.adversarial_length),
                              "--out", self.path("adversarial.txt")]
        self.analyze_argv = ["analyze", "--system", self.path("pinned.json"),
                             "--battery", self.path("battery.json"),
                             "--sequence", self.path("iid.txt"),
                             "--threshold-bits", str(THRESHOLD_BITS),
                             "--format", "csv", "--out", self.path("trajectory.csv")]

    def sizes(self) -> Dict[str, int]:
        return {"N": self.length, "B": len(self.battery),
                "L": battery_period(self.battery), "K": SPACE.size}

    def outputs(self) -> List[str]:
        return [self.path("adversarial.txt"), self.path("trajectory.csv")]

    def job(self):
        generated = run_cli(self.generate_argv)
        analyzed = run_cli(self.analyze_argv)
        return generated, analyzed

    def check(self, result) -> List[str]:
        (gen_code, _), (code, stdout) = result
        L = battery_period(self.battery)
        if self._oracle is None:
            self._oracle = (
                checks.factor_table(ENVELOPE, self.battery, L),
                checks.CountOracle(checks.factor_table(PINNED, self.battery, L),
                                   self.prefix.symbols),
            )
        adversarial_table, analyze_oracle = self._oracle
        symbols = read_sequence(self.path("adversarial.txt"), SPACE).symbols
        return (checks.check_adversarial(adversarial_table, symbols, self.adversarial_length,
                                         gen_code)
                + checks.check_analyze(analyze_oracle, code, stdout, THRESHOLD_BITS,
                                       self.path("trajectory.csv")))


class Audit(Workload):
    name = "audit"
    expected_spans = ("bench.job", "cli.main", "modelio.load_system", "modelio.load_battery",
                      "martingale.lln_strategy", "martingale.from_multiplier",
                      "martingale.classify_process", "martingale.value", "martingale.factor",
                      "lowerexp.lower", "lowerexp.upper", "forecasting.forecast")
    depth = 6
    moduli = (1, 2)

    def setup(self) -> None:
        # The seed permutes the symbols of +-f.  The envelope is symmetric
        # under symbol permutations and the battery bets both directions, so
        # every seed sweeps the same arithmetic; gambles of other shapes made
        # the job time differ by up to a quarter between seeds.
        rng = random.Random(self.seed)
        values = list(F_EXAMPLE.values)
        rng.shuffle(values)
        sign = rng.choice((1, -1))
        self.gamble = Gamble(SPACE, tuple(sign * v for v in values))
        self.battery = battery_for_gambles((self.gamble,), selection_moduli=self.moduli)
        write_battery(self.path("battery.json"), self.battery)
        write_system(self.path("envelope.json"), ENVELOPE)
        self.argv = ["verify", "--system", self.path("envelope.json"),
                     "--battery", self.path("battery.json"), "--depth", str(self.depth),
                     "--out", self.path("verify.json")]

    def sizes(self) -> Dict[str, int]:
        return {"N": self.depth, "B": len(self.battery),
                "L": battery_period(self.battery), "K": SPACE.size}

    def outputs(self) -> List[str]:
        return [self.path("verify.json")]

    def job(self):
        return run_cli(self.argv)[0]

    def collect(self, code):
        with open(self.path("verify.json"), encoding="utf-8") as fh:
            return code, json.load(fh)

    def check(self, result) -> List[str]:
        code, report = result
        return checks.check_audit(report, code, len(self.battery), self.depth)


WORKLOADS = {w.name: w for w in (Screen, Interval, Exact, Audit)}
