"""Smoke test of the benchmark itself, at tiny problem sizes.

Run from the root of a checkout:

    python3 bench/smoke.py

It checks that every workload, traced and untraced, emits exactly the
metrics BENCHMARK.json names, with their units and a clean result; that a
deliberately corrupted output of each workload is counted as failed, so
error_rate rises above 0; that on ``sweep`` the stream-init, sample,
batch-solve and self spans account for the ``run_experiment`` span; and
that the benchmark refuses to run without the package sources.  Exits 0
when all of that holds.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"), "1"))

import run  # noqa: E402
import workloads  # noqa: E402


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_emitted(spec: dict) -> None:
    for workload in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = run_benchmark(workload, trace)
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, (workload, trace, done.stderr)
            assert result["attempted"] >= 1
            declared = {m["name"]: m["unit"] for m in spec[section]}
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            assert emitted == declared, (workload, trace, set(emitted) ^ set(declared))
            values = [m["value"] for m in result["metrics"].values()]
            assert all(math.isfinite(v) for v in values), (workload, trace)
            if trace == 0:
                assert all(v > 0 for v in values), (workload, result["metrics"])
            if trace == 1 and workload == "sweep":
                m = {name: v["value"] for name, v in result["metrics"].items()}
                parts = sum(m[f"montecarlo.{p}_s"] for p in
                            ("stream_init", "sample", "batch_solve", "self"))
                whole = m["montecarlo.run_experiment_s"]
                assert 0.95 * whole <= parts <= whole * (1 + 1e-9), (parts, whole)
            print(f"ok  {workload:8s} trace {trace}: {len(emitted)} metrics emitted")


def _corrupt_sweep(report):
    analytic = dict(report.analytic_mse, cblue=2.0 * report.analytic_mse["cblue"])
    return dataclasses.replace(report, analytic_mse=analytic)


def _corrupt_estimate(output):
    x_hat, variance = output
    return -x_hat, variance


def _corrupt_verify(results):
    first = dataclasses.replace(results[0], worst=2.0 * results[0].tol)
    return [first] + list(results[1:])


def _corrupt_cli(output):
    code, stdout, stderr = output
    return code, re.sub(r"x_hat\[0\] = \(([^,]+),", r"x_hat[0] = (1.5e+03,", stdout), stderr


CORRUPTERS = {
    "sweep": _corrupt_sweep,
    "estimate": _corrupt_estimate,
    "verify": _corrupt_verify,
    "cli-cold": _corrupt_cli,
}


def check_corruption_counts() -> None:
    for name, kind in workloads.WORKLOADS.items():
        workload = kind(5, tiny=True)
        reference = workloads.Reference()
        try:
            workload.prepare()
            clean = run.measure(workload, 0.3, reference)
            assert clean["failed"] == 0, (name, clean)
            honest_op = workload.op
            workload.op = lambda index, tracer=None: CORRUPTERS[name](honest_op(index, tracer))
            result = run.measure(workload, 0.3, reference)
        finally:
            workload.close()
        error_rate = result["failed"] / result["attempted"]
        assert error_rate > 0, (name, result)
        print(f"ok  {name:8s} corrupted output: error_rate {error_rate:.3g}")


def check_refuses_without_sources(spec_path: Path) -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "bench").mkdir(parents=True)
        shutil.copy(spec_path, bare / "BENCHMARK.json")
        for path in BENCH.glob("*"):
            if path.is_file():
                shutil.copy(path, bare / "bench" / path.name)
        done = run_benchmark("sweep", 0, cwd=bare)
        assert done.returncode != 0, done.stdout
        assert not done.stdout.strip(), done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"ok  without sources: exit {done.returncode}, no result printed")


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    check_emitted(spec)
    check_corruption_counts()
    check_refuses_without_sources(spec_path)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
