"""The four benchmark workloads.

Each workload is one client in a closed loop: the next operation starts when
the previous one has returned.  ``prepare`` makes the inputs from the seed
and warms up (first LAPACK calls are several times slower, so they stay out
of the timed region); ``op`` is the timed unit; ``check`` validates its
output outside the timed region.  ``units`` is how much work one operation
completes, for the throughput figure.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import shutil
import subprocess
import sys
import tempfile
from time import perf_counter

import numpy as np

import cblue
from cblue import cli, fileio, verify

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
X_HAT_LINE = re.compile(r"x_hat\[(\d+)\] = \(([^,]+), ([^)]+)\)")


def _gaussian(rng, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _problem(rng, n_x: int, n_y: int, n_b: int, base_cov: np.ndarray):
    """A dense complex problem with a fresh H, A, b, y and a rescaled C_nn.

    ``C_nn = D base_cov D^H`` with a random positive-times-phase diagonal D,
    so every problem has its own Hermitian positive definite covariance at
    O(n^2) cost instead of an O(n^3) product.
    """
    d = rng.uniform(0.5, 2.0, n_y) * np.exp(2j * np.pi * rng.uniform(size=n_y))
    c_nn = d[:, None] * base_cov * d.conj()[None, :]
    c_nn = 0.5 * (c_nn + c_nn.conj().T)
    return {
        "H": _gaussian(rng, (n_y, n_x)),
        "C_nn": c_nn,
        "A": _gaussian(rng, (n_b, n_x)),
        "b": _gaussian(rng, n_b),
        "y": _gaussian(rng, n_y),
    }


def _base_covariance(rng, n: int) -> np.ndarray:
    root = _gaussian(rng, (n, n)) / np.sqrt(n)
    cov = root @ root.conj().T + 0.5 * np.eye(n)
    return 0.5 * (cov + cov.conj().T)


def estimate_pipeline(problem) -> tuple[np.ndarray, np.ndarray]:
    """The public pipeline ``cblue estimate`` runs, on in-memory arrays."""
    model = cblue.LinearModel(problem["H"], problem["C_nn"])
    constraints = cblue.ConstraintSet(problem["A"], problem["b"])
    estimator = cblue.cblue(model, constraints)
    x_hat = estimator.apply(problem["y"])
    variance = cblue.covariance(estimator, model.C_nn).per_element_variance
    return x_hat, variance


def _relative_residual(a, b, x) -> float:
    scale = np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(b) + np.finfo(float).tiny
    return float(np.linalg.norm(a @ x - b) / scale)


class Reference:
    """A fixed kernel timed next to every operation, to correct for host speed.

    The shared host this benchmark was built on changes speed by up to 2x in
    phases of seconds to minutes (CPU time tracks wall time through them and
    steal stays near 0), which no amount of repetition inside one run
    averages out.  Timed right before each operation, this kernel, a Python
    loop plus a small complex matrix product, slows down with the host, so
    ``elapsed * NOMINAL_S / reference`` reads an operation's time at a fixed
    host speed: the one at which the kernel takes ``NOMINAL_S``.
    """

    NOMINAL_S = 0.003
    LOOP = 30_000

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = _gaussian(rng, (160, 160))

    def seconds(self) -> float:
        start = perf_counter()
        total = 0
        for i in range(self.LOOP):
            total += i * i
        self.matrix @ self.matrix
        return perf_counter() - start

    def normalize(self, elapsed: float, reference: float) -> float:
        return elapsed * self.NOMINAL_S / reference


class Workload:
    """Defaults for the optional hooks of a workload."""

    units = 1
    # Runs stop only after a whole number of periods, so traced counts and
    # the mix of problem shapes repeat exactly from run to run.
    period = 1

    def make(self, index: int) -> None:
        """Generate the inputs of operation ``index`` outside the timed region."""

    def layers(self, index: int, tracer) -> None:
        """Untimed per-layer probes run after a traced operation."""

    def close(self) -> None:
        """Release what ``prepare`` created."""


class Sweep(Workload):
    """``run_experiment`` on the default spec, in slices of ``trials`` per k."""

    name = "sweep"
    # Empirical MSE may differ from analytic by this many standard errors.
    MSE_Z = 6.0
    ROUNDOFF = 1e-9

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.trials = 100 if tiny else 200
        self.units = len(cblue.ExperimentSpec().k_grid) * self.trials

    def prepare(self) -> None:
        spec = cblue.ExperimentSpec(trials=self.trials, seed=self.seed)
        cblue.run_experiment(spec)

    def op(self, index: int, tracer=None):
        # Distinct seed per slice: slices are disjoint parts of one long sweep.
        spec = cblue.ExperimentSpec(trials=self.trials, seed=self.seed * 1_000_003 + index)
        report = cblue.run_experiment(spec)
        if tracer is not None:
            tracer.add("montecarlo.regenerations", report.regenerations)
        return report

    def check(self, index: int, report) -> bool:
        kinds = report.kinds
        for table in (report.empirical_mse, report.analytic_mse, report.mse_stderr):
            if not all(np.isfinite(table[k]).all() for k in kinds):
                return False
        ana, emp, err = report.analytic_mse, report.empirical_mse, report.mse_stderr
        slack = 1.0 + self.ROUNDOFF
        for other in ("cls", "ls_meansub", "blue_meansub"):
            if (ana["cblue"] > ana[other] * slack).any():
                return False
        if (ana["blue"] > ana["ls"] * slack).any():
            return False
        for k in kinds:
            if (np.abs(emp[k] - ana[k]) > self.MSE_Z * err[k]).any():
                return False
        return True


class Estimate(Workload):
    """Independent dense problems at n_x = 500; one in four underdetermined."""

    name = "estimate"
    # (n_y, n_b) per position in a cycle; n_y < n_x forces the nullspace form.
    CYCLE = ((600, 10), (600, 10), (600, 10), (450, 60))
    ORACLE_EVERY = 5
    ORACLE_RTOL = 1e-8
    RESIDUAL_RTOL = 1e-9

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.n_x = 12 if tiny else 500
        self.cycle = ((16, 2), (16, 2), (16, 2), (10, 4)) if tiny else self.CYCLE
        self.period = len(self.cycle)

    def prepare(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        self.base = {n_y: _base_covariance(rng, n_y) for n_y, _ in self.cycle}
        # Warm up on one problem of each shape.
        for index in sorted({self.cycle.index(shape) for shape in self.cycle}):
            self.make(index)
            estimate_pipeline(self.problem)
        self.problem = None

    def make(self, index: int) -> None:
        """Generate problem ``index``; runs outside the timed region."""
        n_y, n_b = self.cycle[index % len(self.cycle)]
        rng = np.random.default_rng([self.seed, 1, index])
        self.problem = _problem(rng, self.n_x, n_y, n_b, self.base[n_y])

    def op(self, index: int, tracer=None):
        return estimate_pipeline(self.problem)

    def check(self, index: int, output) -> bool:
        x_hat, variance = output
        problem = self.problem
        if not (np.isfinite(x_hat).all() and np.isfinite(variance).all()):
            return False
        if (variance < 0).any():
            return False
        if _relative_residual(problem["A"], problem["b"], x_hat) > self.RESIDUAL_RTOL:
            return False
        if index % self.ORACLE_EVERY == 0:
            model = cblue.LinearModel(problem["H"], problem["C_nn"])
            constraints = cblue.ConstraintSet(problem["A"], problem["b"])
            reference = cblue.kkt_oracle(model, constraints, problem["y"])
            gap = np.linalg.norm(x_hat - reference) / np.linalg.norm(reference)
            if not gap <= self.ORACLE_RTOL:
                return False
        return True


class Verify(Workload):
    """``run_suite`` at the CLI default of 50 instances per property."""

    name = "verify"
    PROPERTIES = 10
    # Suites cycle through this many seeds, so that one run's figure does not
    # hang on the instance sizes a single seed happens to draw.
    period = 4

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.instances = 3 if tiny else 50

    def prepare(self) -> None:
        verify.run_suite(instances=self.instances, seed=self.seed * self.period)

    def op(self, index: int, tracer=None):
        seed = self.seed * self.period + index % self.period
        return verify.run_suite(instances=self.instances, seed=seed)

    def check(self, index: int, results) -> bool:
        return len(results) == self.PROPERTIES and all(r.passed for r in results)


class CliCold(Workload):
    """``cblue estimate`` launched in a fresh interpreter per operation."""

    name = "cli-cold"
    LAUNCHER = "from cblue.cli import run; run()"
    FILE_SETS = 4
    RTOL = 1e-12

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        src = os.path.dirname(os.path.dirname(cblue.__file__))
        self.env = dict(os.environ, PYTHONPATH=src)
        self.tmp = None

    def prepare(self) -> None:
        self.close()
        os.makedirs(OUT, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="cli-", dir=OUT)
        rng = np.random.default_rng([self.seed, 2])
        self.argv = []
        self.expected = []
        for index in range(self.FILE_SETS):
            problem = _problem(rng, 8, 12, 2, _base_covariance(rng, 12))
            paths = {}
            for key, flag in (("H", "--H"), ("C_nn", "--Cnn"), ("A", "--A"), ("b", "--b"), ("y", "--y")):
                paths[flag] = os.path.join(self.tmp, f"{index}-{key}.json")
                fileio.save_matrix(paths[flag], problem[key])
            loaded = {
                "H": fileio.load_matrix(paths["--H"]),
                "C_nn": fileio.load_matrix(paths["--Cnn"]),
                "A": fileio.load_matrix(paths["--A"]),
                "b": fileio.load_vector(paths["--b"]),
                "y": fileio.load_vector(paths["--y"]),
            }
            self.expected.append(estimate_pipeline(loaded)[0])
            self.argv.append(["estimate"] + [part for item in paths.items() for part in item])
        self.launch(0)

    def launch(self, index: int, *flags: str):
        argv = [sys.executable, *flags, "-c", self.LAUNCHER] + self.argv[index % self.FILE_SETS]
        done = subprocess.run(argv, capture_output=True, text=True, env=self.env, timeout=120)
        return done.returncode, done.stdout, done.stderr

    def op(self, index: int, tracer=None):
        if tracer is None:
            return self.launch(index)
        # Traced: the launch itself runs under -X importtime; the process-level
        # layers are taken from that, the bare interpreter, and a warm
        # in-process call of cli.main on the same files.
        output = self.launch(index, "-X", "importtime")
        imports = import_times(output[2])
        tracer.add("cli.import_ms", imports["cblue"])
        tracer.add("cli.import_scipy_ms", imports["scipy"])
        return output

    def layers(self, index: int, tracer) -> None:
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True, timeout=60)
        tracer.add("cli.interpreter_ms", 1e3 * (perf_counter() - start))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv[index % self.FILE_SETS])
        if code != 0:
            raise RuntimeError("in-process cli.main failed")

    def check(self, index: int, output) -> bool:
        code, stdout, _ = output
        if code != 0:
            return False
        found = {int(m.group(1)): complex(float(m.group(2)), float(m.group(3)))
                 for m in X_HAT_LINE.finditer(stdout)}
        expected = self.expected[index % self.FILE_SETS]
        if sorted(found) != list(range(len(expected))):
            return False
        got = np.array([found[i] for i in range(len(expected))])
        return bool(np.abs(got - expected).max() <= self.RTOL * np.abs(expected).max())

    def close(self) -> None:
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None


def import_times(stderr: str) -> dict[str, float]:
    """Milliseconds spent importing ``cblue`` and ``scipy`` per ``-X importtime``.

    Sums the cumulative time of every entry of each package that is not
    nested inside another entry of the same package.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # header line
        stripped = name.lstrip()
        entries.append((len(name) - len(stripped), stripped.strip(), int(cumulative)))
    totals = {"cblue": 0.0, "scipy": 0.0}
    # importtime prints children before their parent; walk it backwards so a
    # parent is seen before its children.
    stack: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        package = name.split(".", 1)[0]
        if package in totals and not any(p.split(".", 1)[0] == package for _, p in stack):
            totals[package] += cumulative / 1e3
        stack.append((depth, name))
    return totals


WORKLOADS = {cls.name: cls for cls in (Sweep, Estimate, Verify, CliCold)}
