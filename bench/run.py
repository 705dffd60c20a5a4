"""Benchmark of the cblue library: one workload per run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {sweep,estimate,verify,cli-cold} \
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run measures end-to-end figures with nothing
instrumented.  With ``--trace 1`` untraced and traced operations alternate
through the window, and the run reports per-layer figures plus the tracing
overhead.  Human-readable lines (metrics with units and sample
counts, the run environment) come first; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
full record is also written to ``bench/out/``.

The package is imported from ``src/`` of the checkout; without it the run
exits with status 2.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 3
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

END_TO_END = (
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Printed beside the rows but not bounded (see README.md): the tail, which
# follows the host more than the program, and the wall-clock figures that
# the rows are corrected from.
UNBOUNDED_FIGURES = (
    ("p90_ms", "ms"),
    ("wall_p50_ms", "ms"),
    ("wall_p90_ms", "ms"),
    ("wall_setup_s", "s"),
    ("reference_ms", "ms"),
)
# The figure each workload exists for, under its own name.
HEADLINE = {
    "sweep": [("sweep_trials_per_s", "throughput_per_s", 1.0, "1/s")],
    "estimate": [
        ("estimate_p50_ms", "p50_ms", 1.0, "ms"),
        ("estimate_p90_ms", "p90_ms", 1.0, "ms"),
    ],
    "verify": [("verify_s", "p50_ms", 1e-3, "s")],
    "cli-cold": [
        ("cold_start_p50_ms", "p50_ms", 1.0, "ms"),
        ("cold_start_p90_ms", "p90_ms", 1.0, "ms"),
    ],
}


def cpu_times() -> list[int]:
    """Aggregate CPU jiffies from /proc/stat: user .. steal."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return []
    return [int(v) for v in fields[1:9]]


def steal_pct(before: list[int], after: list[int]) -> float | None:
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return 100.0 * delta[7] / total if total > 0 else 0.0


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def package_version(name: str) -> str:
    """Installed version, read from metadata so that nothing new is imported."""
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def environment(seed: int, steal: float | None) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": package_version("numpy"),
        "scipy": package_version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
        "cpu_steal_pct": steal,
    }


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles gives it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def measure(workload, seconds: float, reference, tracer=None) -> dict:
    """Closed loop for ``seconds``, ending on a whole period of operations.

    Each operation is recorded as (elapsed seconds, reference seconds), the
    reference kernel being timed right before it.  With a tracer, whole
    periods alternate between untraced and traced, so that both kinds of
    operation see the same drift in host speed.
    """
    block = workload.period
    cycle = 2 * block if tracer is not None else block
    samples = {False: [], True: []}
    failed = 0
    index = 0
    deadline = perf_counter() + seconds
    while index % cycle or index < cycle or perf_counter() < deadline:
        traced = tracer is not None and (index // block) % 2 == 1
        workload.make(index)
        ok = False
        try:
            ref = reference.seconds()
            start = perf_counter()
            try:
                if traced:
                    with tracer.operation(index):
                        output = workload.op(index, tracer)
                else:
                    output = workload.op(index)
            finally:
                samples[traced].append((perf_counter() - start, ref))
            if traced:
                with tracer.operation(index, span=False):
                    workload.layers(index, tracer)
            ok = workload.check(index, output)
        except Exception:  # a failing operation is counted, not fatal
            traceback.print_exc()
        failed += not ok
        index += 1
    return {"untraced": samples[False], "traced": samples[True],
            "attempted": index, "failed": failed}


def at_reference_speed(reference, samples) -> list[float]:
    return [reference.normalize(elapsed, ref) for elapsed, ref in samples]


def peak_rss_mb() -> float:
    """Peak resident set of this process or of the largest one it launched."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def setup_probe(name: str, seed: int, tiny: bool) -> None:
    """Set a workload up once in this fresh interpreter.

    Prints the seconds from the first import of the package to the end of
    the warm-up, then the median time of the reference kernel right after.
    """
    start = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS[name](seed, tiny=tiny)
    try:
        workload.prepare()
    finally:
        workload.close()
    elapsed = perf_counter() - start
    reference = workloads.Reference()
    print(elapsed, statistics.median(reference.seconds() for _ in range(3)))


def timed_setups(args) -> list[tuple[float, float]]:
    """(set-up seconds, reference seconds) of SETUP_REPEATS fresh interpreters."""
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'bench')!r}); import run; "
            f"run.setup_probe({args.workload!r}, {args.seed}, {args.tiny})")
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=150, check=True)
        elapsed, ref = done.stdout.split()[-2:]
        samples.append((float(elapsed), float(ref)))
    return samples


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "estimate", "verify", "cli-cold"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test problem sizes; figures are meaningless")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "cblue" / "__init__.py").is_file():
        print(f"error: no cblue package under {src}", file=sys.stderr)
        return 2
    # One client, one BLAS thread (read when numpy loads, and inherited by
    # launched interpreters).  Threaded OpenBLAS spins on small matrices and
    # stalls whenever the host is oversubscribed, which ruins steadiness.
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = "1"

    stat_before = cpu_times()
    sys.path.insert(0, str(src))
    import cblue
    import workloads

    if Path(cblue.__file__).resolve().parent != (src / "cblue").resolve():
        print(f"error: imported cblue from {cblue.__file__}, not {src}", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    reference = workloads.Reference()
    try:
        workload.prepare()
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
            measured = measure(workload, args.seconds, reference, tracer)
            traced = measured["traced"]
            metrics = tracing.layer_metrics(tracer, len(traced))
            base = statistics.median(at_reference_speed(reference, measured["untraced"]))
            with_trace = statistics.median(at_reference_speed(reference, traced))
            metrics["trace.overhead_pct"] = 100.0 * (with_trace - base) / base
            units = dict(tracing.PER_LAYER_METRICS)
            samples = {name: len(traced) for name in units}
        else:
            measured = measure(workload, args.seconds, reference)
            setups = timed_setups(args)
            lat = at_reference_speed(reference, measured["untraced"])
            wall = [elapsed for elapsed, _ in measured["untraced"]]
            p50 = statistics.median(lat)
            metrics = {
                "throughput_per_s": workload.units / p50,
                "p50_ms": 1e3 * p50,
                "setup_s": statistics.median(at_reference_speed(reference, setups)),
                "peak_rss_mb": peak_rss_mb(),
            }
            figures = {
                "p90_ms": 1e3 * percentile(lat, 90),
                "wall_p50_ms": 1e3 * statistics.median(wall),
                "wall_p90_ms": 1e3 * percentile(wall, 90),
                "wall_setup_s": statistics.median(elapsed for elapsed, _ in setups),
                "reference_ms": 1e3 * statistics.median(r for _, r in measured["untraced"]),
            }
            units = dict(END_TO_END + UNBOUNDED_FIGURES)
            samples = {name: len(lat) for name in units}
            samples["setup_s"] = samples["wall_setup_s"] = SETUP_REPEATS
        attempted, failed = measured["attempted"], measured["failed"]
    finally:
        workload.close()
    env = environment(args.seed, steal_pct(stat_before, cpu_times()))

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]} (n={samples[name]})")
    if not args.trace:
        for name, value in figures.items():
            print(f"  ({name} = {value:.6g} {units[name]} (n={samples[name]}), not bounded)")
        for label, name, factor, unit in HEADLINE[args.workload]:
            value = metrics.get(name, figures.get(name))
            print(f"  [{label} = {value * factor:.6g} {unit} (n={samples[name]})]")
    else:
        print(f"  untraced p50 {1e3 * base:.6g} ms (n={len(measured['untraced'])}), "
              f"traced p50 {1e3 * with_trace:.6g} ms (n={len(traced)}), "
              f"both at reference speed")
        if args.workload == "sweep":
            parts = ("stream_init", "sample", "batch_solve", "self")
            total = sum(metrics[f"montecarlo.{p}_s"] for p in parts)
            whole = metrics["montecarlo.run_experiment_s"]
            print(f"  run_experiment {whole:.6g} s per operation = stream_init + sample + "
                  f"batch_solve + self {total:.6g} s + other child spans {whole - total:.3g} s")
        tracer.save(OUT / f"{args.workload}-spans.npz")
    error_rate = failed / attempted
    print(f"  error_rate = {error_rate:.6g} ({failed} of {attempted} operations failed)")
    for key, value in env.items():
        print(f"  env.{key} = {value}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    operations_ms = {kind: [[1e3 * elapsed, 1e3 * ref] for elapsed, ref in measured[kind]]
                     for kind in ("untraced", "traced")}
    record = dict(result, figures={} if args.trace else figures, samples=samples,
                  operations_ms=operations_ms, error_rate=error_rate, environment=env,
                  workload=args.workload, seconds=args.seconds, trace=args.trace)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
