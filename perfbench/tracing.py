"""In-memory span tracing for the traced benchmark run.

``Tracer.install`` replaces a fixed list of imprand callables by wrappers
that record a span (name, start, end, parent, job) per call; ``uninstall``
puts the originals back.  No file under ``src/`` is touched, and timed runs
never install the wrappers.

A span's layer is the first dot-separated part of its name (``lowerexp``,
``martingale``, ...).  Its self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import gzip
import os
import statistics
from time import perf_counter
from typing import Callable, Dict, List, Optional

from imprand import analysis, cli, forecasting, lowerexp, martingale, sequences


def _kernel_bytes(args, kwargs, result) -> float:
    # the float kernel holds about four (B, N) float64 arrays: gathered
    # steps, cumulative sums, weight-shifted sums and their exp2
    prefix, _, strategies = args[:3]
    return 4.0 * 8 * len(strategies) * len(prefix)


def _csv_bytes(args, kwargs, result) -> float:
    return float(os.path.getsize(args[1]))


# (owner, attribute, span name, optional counter (name, fn(args, kwargs, result)))
# Module attributes are patched where the caller looks them up: ``cli`` for
# the CLI's cross-module calls, ``analysis`` for the kernel as
# ``estimate_interval`` calls it, ``sequences`` for the benchmark's own call.
PATCHES = [
    (cli, "main", "cli.main", None),
    (cli, "load_system", "modelio.load_system", None),
    (cli, "load_battery", "modelio.load_battery", None),
    (cli, "load_gamble", "modelio.load_gamble", None),
    (cli, "write_trajectory_csv", "modelio.write_trajectory_csv", ("modelio.bytes_written", _csv_bytes)),
    (cli, "read_sequence", "sequences.read_sequence", None),
    (cli, "write_sequence", "sequences.write_sequence", None),
    (cli, "generate", "sequences.generate", None),
    (sequences, "generate", "sequences.generate", None),
    (cli, "run_battery", "analysis.run_battery", None),
    (cli, "estimate_interval", "analysis.estimate_interval", None),
    (analysis, "run_battery_fast", "analysis.run_battery_fast",
     ("analysis.kernel_bytes_computed", _kernel_bytes)),
    (cli, "lln_strategy", "martingale.lln_strategy", None),
    (cli, "from_multiplier", "martingale.from_multiplier", None),
    (cli, "classify_process", "martingale.classify_process", None),
    (martingale.MultiplierProcess, "factor", "martingale.factor", None),
    (martingale.RationalProcess, "value", "martingale.value", None),
    (lowerexp.LowerExpectation, "upper", "lowerexp.upper", None),
] + [
    (cls, "lower", "lowerexp.lower", None)
    for cls in (lowerexp.LinearModel, lowerexp.EnvelopeModel, lowerexp.VacuousModel,
                lowerexp.AnchorGammaModel, lowerexp.AnchorIntervalModel)
] + [
    (cls, "forecast", "forecasting.forecast", None)
    for cls in (forecasting.StationarySystem, forecasting.CyclicSystem,
                forecasting.TableSystem, forecasting.ProgrammaticSystem)
]


class TraceError(Exception):
    """A call the span table wraps no longer exists under that name."""


class Tracer:
    def __init__(self):
        self.jobs: List[List[list]] = []  # per job: [name, start, end, parent]
        self.counters: List[Dict[str, float]] = []
        self._spans: Optional[List[list]] = None
        self._stack: List[int] = []
        self._saved = []

    def _wrap(self, name: str, fn: Callable, counter) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            spans = tracer._spans
            if spans is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counter is not None:
                key, measure = counter
                counts = tracer.counters[-1]
                counts[key] = counts.get(key, 0.0) + measure(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, name, counter in PATCHES:
            if attr not in vars(owner):
                self.uninstall()
                raise TraceError(f"{owner.__name__}.{attr} no longer exists; update the span table")
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def run_job(self, fn: Callable):
        """Run one job under a root span ``bench.job``."""
        self._spans = []
        self.jobs.append(self._spans)
        self.counters.append({})
        root = self._wrap("bench.job", fn, None)
        try:
            return root()
        finally:
            self._spans = None
            self._stack = []

    def validate_last(self, expected) -> List[str]:
        """Integrity of the most recent job's spans; see :func:`validate`."""
        return validate(self.jobs[-1], expected)

    def write(self, path: str) -> None:
        """All spans as gzipped TSV: job, index, parent, name, start, end."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("job\tspan\tparent\tname\tstart\tend\n")
            for job, spans in enumerate(self.jobs):
                for i, (name, start, end, parent) in enumerate(spans):
                    fh.write(f"{job}\t{i}\t{parent}\t{name}\t{start!r}\t{end!r}\n")


def self_times(spans: List[list]) -> List[float]:
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def validate(spans: List[list], expected) -> List[str]:
    """Integrity of one job's spans: a single root, children inside their
    parents, no negative self time, the root equal to the sum of all self
    times, and at least one span of every expected name."""
    errors = []
    if not spans or spans[0][3] != -1 or any(s[3] == -1 for s in spans[1:]):
        return ["the job does not have exactly one root span"]
    for name, start, end, parent in spans[1:]:
        p = spans[parent]
        if not (p[1] <= start <= end <= p[2]):
            errors.append(f"span {name} lies outside its parent {p[0]}")
            break
    own = self_times(spans)
    if min(own) < -1e-9:
        errors.append("a span has negative self time")
    root = spans[0][2] - spans[0][1]
    if abs(sum(own) - root) > 1e-9 * max(1.0, root) + 1e-12 * len(spans):
        errors.append(f"root span {root!r} s differs from the sum of self times {sum(own)!r} s")
    seen = {s[0] for s in spans}
    missing = [name for name in expected if name not in seen]
    if missing:
        errors.append(f"expected spans recorded no calls: {', '.join(missing)}")
    return errors


def layer_metrics(spans: List[list], counters: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced job."""
    own = self_times(spans)
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    entries: Dict[str, int] = {}
    for (name, _, _, parent), t in zip(spans, own):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + t
        layer = name.split(".")[0]
        if parent < 0 or spans[parent][0].split(".")[0] != layer:
            entries[layer] = entries.get(layer, 0) + 1

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def layer_s(layer):
        return sum(t for n, t in self_s.items() if n.split(".")[0] == layer)

    return {
        "cli.self_s": s("cli.main"),
        "modelio.load_s": s("modelio.load_system", "modelio.load_battery", "modelio.load_gamble"),
        "modelio.write_s": s("modelio.write_trajectory_csv"),
        "modelio.bytes_written": counters.get("modelio.bytes_written", 0.0),
        "sequences.generate_s": s("sequences.generate"),
        "sequences.read_s": s("sequences.read_sequence"),
        "sequences.write_s": s("sequences.write_sequence"),
        "martingale.build_s": s("martingale.lln_strategy", "martingale.from_multiplier"),
        "martingale.factor_calls": calls.get("martingale.factor", 0),
        "martingale.factor_s": s("martingale.factor"),
        "martingale.value_calls": calls.get("martingale.value", 0),
        "martingale.value_s": s("martingale.value"),
        "martingale.classify_self_s": s("martingale.classify_process"),
        "lowerexp.calls": entries.get("lowerexp", 0),
        "lowerexp.self_s": layer_s("lowerexp"),
        "forecasting.forecast_calls": calls.get("forecasting.forecast", 0),
        "forecasting.self_s": layer_s("forecasting"),
        "analysis.fast_calls": calls.get("analysis.run_battery_fast", 0),
        "analysis.fast_self_s": s("analysis.run_battery_fast"),
        "analysis.exact_self_s": s("analysis.run_battery"),
        "analysis.interval_self_s": s("analysis.estimate_interval"),
        "analysis.kernel_bytes_computed": counters.get("analysis.kernel_bytes_computed", 0.0),
    }


def median_metrics(per_job: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(m[k] for m in per_job) for k in per_job[0]}
