"""Scaling probes of the exact path, measured in the traced run.

They answer two open questions by measurement: how exact ``run_battery``
time and trajectory CSV size grow with the number of steps, and whether a
second worker thread helps the exact path at all.  The inputs are those of
the ``exact`` workload's ``analyze`` job, and every timing builds its
strategies afresh so no memo carries over between calls.
"""

from __future__ import annotations

import math
import os
from time import perf_counter

from imprand import (
    GeneratorSpec,
    SequencePrefix,
    StationarySystem,
    default_battery,
    generate,
    lln_strategy,
    run_battery,
    write_trajectory_csv,
)

from workloads import F_EXAMPLE, P_IID, PINNED, SPACE, Exact


def _timed_run(prefix, system, strategies, threads=1):
    battery = [lln_strategy(p, system) for p in strategies]
    t0 = perf_counter()
    trajectory = run_battery(prefix, system, battery, threads=threads)
    return perf_counter() - t0, trajectory


def exact_scaling(seed: int, workdir: str) -> dict:
    system = StationarySystem(PINNED)
    strategies = default_battery(SPACE, (F_EXAMPLE,))[: Exact.strategies]
    full = generate(GeneratorSpec.iid(P_IID, Exact.length, seed=seed))
    half = SequencePrefix(SPACE, full.symbols[: Exact.length // 2])
    times, sizes = [], []
    for prefix in (half, full):
        elapsed, trajectory = _timed_run(prefix, system, strategies)
        path = os.path.join(workdir, "probe.csv")
        write_trajectory_csv(trajectory, path)
        times.append(elapsed)
        sizes.append(os.path.getsize(path))
        os.remove(path)
    threaded, _ = _timed_run(full, system, strategies, threads=2)
    return {
        "analysis.exact_n_exponent": math.log2(times[1] / times[0]),
        "modelio.bytes_n_exponent": math.log2(sizes[1] / sizes[0]),
        "analysis.threads2_ratio": threaded / times[1],
    }
