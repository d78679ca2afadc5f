"""Whole runs of benchmarks/run.py: exact counts repeat for one seed, the
bypass predictions hold, BENCHMARK.json names what the runs print, and a
directory without the package source is refused.

Each traced run takes seconds to tens of seconds; the module as a whole
takes about two minutes on two cores.
"""

import json
import shutil
import subprocess
import sys

import pytest

import harness
import tracer
import workloads

SEED = 5


def run(workload, trace, cwd=harness.ROOT, seconds=1):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    return {name: m["value"] for name, m in line["metrics"].items()}


@pytest.fixture(scope="module")
def traced_pairs():
    return {w: (result(run(w, 1)), result(run(w, 1))) for w in workloads.MODULES}


def test_exact_counts_repeat(traced_pairs):
    for workload, (first, second) in traced_pairs.items():
        for name in tracer.EXACT_COUNTS:
            assert first[name] == second[name], (workload, name)
    assert traced_pairs["sphere-roundtrip"][0]["sphere.legendre_flops"] > 0
    assert traced_pairs["lattice-algebra"][0]["algebra.compose.entries_out"] > 0
    assert traced_pairs["cli-verify"][0]["verify.checks"] > 0
    assert traced_pairs["cli-verify"][0]["alp.t_values.points"] > 0


def test_bypass_predictions(traced_pairs):
    sphere = traced_pairs["sphere-roundtrip"][0]
    lattice = traced_pairs["lattice-algebra"][0]
    assert all(v == 0 for k, v in sphere.items()
               if k.startswith("algebra.") and k.endswith(".calls"))
    assert all(v == 0 for k, v in lattice.items()
               if k.startswith(("alp.", "sphere.")) and k.endswith(".calls"))
    assert sphere["sphere.roundtrip_s.L256"] > 0
    for workload in ("lattice-algebra", "cli-verify"):
        assert all(v == 0 for k, v in traced_pairs[workload][0].items()
                   if k.startswith("sphere.roundtrip_")), workload
    for metrics, _ in traced_pairs.values():
        assert "trace.overhead_s" in metrics


def test_benchmark_json_names_what_runs_print(traced_pairs):
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in tracer.PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.MODULES)
    for metrics, _ in traced_pairs.values():
        assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    timed = result(run("lattice-algebra", 0))
    assert set(timed) == {m["name"] for m in spec["end_to_end"]}
    assert all(v != 0 for v in timed.values())


def test_refuses_a_directory_without_the_source():
    bare = harness.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(harness.BENCH_DIR, bare / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
    try:
        proc = run("sphere-roundtrip", 0, cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
