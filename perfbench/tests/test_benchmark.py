"""Self-tests of the benchmark: every output check accepts a real output and
rejects a corrupted one, the traced run's integrity checks catch missing or
malformed spans, and a short run prints every end-to-end metric.

Run from the root of the checkout:  python3 -m pytest perfbench/tests
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import tracing  # noqa: E402
import workloads  # noqa: E402


class SmallScreen(workloads.Screen):
    length = 3000


class SmallInterval(workloads.Interval):
    length = 4000


class SmallExact(workloads.Exact):
    adversarial_length = 60
    length = 200


class SmallAudit(workloads.Audit):
    depth = 3


def _run(cls, tmp_path, seed=3):
    wl = cls(seed, str(tmp_path))
    wl.setup()
    wl.clear_outputs()
    result = wl.collect(wl.job())
    assert wl.check(result) == []
    return wl, result


def test_screen_check_rejects_perturbed_capital(tmp_path):
    wl, result = _run(SmallScreen, tmp_path)
    for name in ("consistent", "pinned"):
        for field in ("final_log2", "argmax_log2"):
            bad = copy.deepcopy(result)
            bad[name][field] += 1e-4
            assert wl.check(bad), (name, field)
    bad = copy.deepcopy(result)
    bad["pinned"]["argmax"] -= 1
    assert wl.check(bad)


def test_interval_check_rejects_corrupted_grid(tmp_path):
    wl, (code, report) = _run(SmallInterval, tmp_path)
    step = Fraction(1, 16)

    shifted = copy.deepcopy(report)
    shifted["lo_accept"] = str(Fraction(report["lo_accept"]) - step)
    assert wl.check((code, shifted))

    repaired = copy.deepcopy(report)
    repaired["lower_grid"][1]["repaired_bits"] += 0.5
    assert wl.check((code, repaired))

    flipped = copy.deepcopy(report)
    flipped["upper_grid"][0]["accepted"] = not flipped["upper_grid"][0]["accepted"]
    assert wl.check((code, flipped))

    raw = copy.deepcopy(report)
    lo = report["lo_accept"]
    point = next(p for p in raw["lower_grid"] if p["gamma"] == lo)
    point["raw_bits"] += 1e-6
    assert any("recomputed" in e or "running max" in e for e in wl.check((code, raw)))

    assert wl.check((2, report))


def test_exact_check_rejects_wrong_exit_code_and_corrupted_files(tmp_path):
    wl, result = _run(SmallExact, tmp_path)
    (gen_code, gen_out), (code, stdout) = result

    assert wl.check(((gen_code, gen_out), (3 - code, stdout)))
    assert wl.check(((1, gen_out), (code, stdout)))

    value = stdout.split("deficiency ")[1].split(" ")[0]
    wrong = stdout.replace(value, f"{float(value) + 0.001:.6f}")
    assert wl.check(((gen_code, gen_out), (code, wrong)))

    adversarial = wl.path("adversarial.txt")
    with open(adversarial, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    first = lines[1].split()
    first[0] = "B" if first[0] != "B" else "C"
    with open(adversarial, "w", encoding="utf-8") as fh:
        fh.write("\n".join([lines[0], " ".join(first)] + lines[2:]) + "\n")
    assert any("does not minimise" in e for e in wl.check(result))


def test_exact_check_rejects_corrupted_csv_capital(tmp_path):
    wl, result = _run(SmallExact, tmp_path)
    path = wl.path("trajectory.csv")
    with open(path, encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    cells = rows[-1].split(",")
    cells[3] = str(int(cells[3]) + 1)
    rows[-1] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    assert any("capital" in e for e in wl.check(result))


def test_audit_check_rejects_injected_witness(tmp_path):
    wl, (code, report) = _run(SmallAudit, tmp_path)
    bad = copy.deepcopy(report)
    bad["classification"][5]["witnesses"] = [{"situation": ["A"], "value": "1/8"}]
    assert wl.check((code, bad))
    bad = copy.deepcopy(report)
    bad["ok"] = False
    assert wl.check((code, bad))
    assert wl.check((2, report))


def _spans():
    # root [0, 10] with children [1, 4] and [5, 9]; the latter has [6, 7]
    return [["bench.job", 0.0, 10.0, -1], ["cli.main", 1.0, 4.0, 0],
            ["lowerexp.upper", 5.0, 9.0, 0], ["lowerexp.lower", 6.0, 7.0, 2]]


def test_trace_integrity():
    spans = _spans()
    assert tracing.validate(spans, ("cli.main", "lowerexp.lower")) == []
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    metrics = tracing.layer_metrics(spans, {})
    assert metrics["lowerexp.calls"] == 1 and metrics["lowerexp.self_s"] == 4.0
    assert tracing.validate(spans, ("martingale.value",))
    outside = _spans()
    outside[3][2] = 9.5
    assert tracing.validate(outside, ())


def test_trace_install_fails_on_missing_target(monkeypatch):
    monkeypatch.setattr(tracing, "PATCHES", tracing.PATCHES + [(tracing.cli, "no_such_call", "cli.x", None)])
    tracer = tracing.Tracer()
    with pytest.raises(tracing.TraceError):
        tracer.install()
    assert tracing.cli.main.__module__ == "imprand.cli"
    assert not hasattr(tracing.cli.main, "__wrapped__")


def test_short_run_prints_every_end_to_end_metric():
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "screen",
         "--seed", "2", "--seconds", "0.5", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    units = {"setup_s": "s", "job_p50_s": "s", "jobs_per_s": "1/s", "peak_rss_mb": "MB",
             "output_bytes": "bytes", "fail_ratio": "ratio"}
    for name, unit in units.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines), name
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_without_sources_fails(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "screen", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
