"""Outside-in span recorder for the cblue benchmark.

Spans are taken around calls into the public functions of the cblue modules
by rebinding those names, from outside, in every ``cblue.*`` namespace that
holds them.  Nothing in the package itself is changed on disk.  Spans are
kept in flat in-memory arrays while the run lasts and written out once at
the end; per-layer metrics are derived from them afterwards.

A span records its name, start, end, parent span and the operation id it
belongs to.  Calls made outside an operation (set-up, output checks) are
passed through untraced.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import types
from array import array
from time import perf_counter

import numpy as np

ESTIMATOR_FUNCTIONS = (
    "ls",
    "blue",
    "cls",
    "cblue",
    "cblue_direct",
    "cblue_nullspace",
    "covariance",
    "analytic_cblue_covariance",
    "kkt_oracle",
)
VERIFY_CHECKS = (
    "check_constraint_satisfaction",
    "check_feasible_unbiasedness",
    "check_covariance_formula_agreement",
    "check_projection_identity",
    "check_form_equivalence",
    "check_particular_invariance",
    "check_basis_invariance",
    "check_white_noise_reduction",
    "check_oracle_agreement",
    "check_variance_optimality",
)

# (metric, unit) in the order BENCHMARK.json lists them.  Every traced run
# emits all of them; a layer a workload never reaches reads 0.
PER_LAYER_METRICS = (
    [
        ("montecarlo.run_experiment_s", "s"),
        ("montecarlo.stream_init_s", "s"),
        ("montecarlo.stream_init_calls", "count"),
        ("montecarlo.sample_s", "s"),
        ("montecarlo.sample_calls", "count"),
        ("montecarlo.batch_solve_s", "s"),
        ("montecarlo.batch_solve_calls", "count"),
        ("montecarlo.self_s", "s"),
        ("montecarlo.reference_path_calls", "count"),
        ("montecarlo.regenerations", "count"),
    ]
    + [(f"estimators.{fn}{suffix}", unit) for fn in ESTIMATOR_FUNCTIONS
       for suffix, unit in (("_s", "s"), ("_calls", "count"))]
    + [
        ("estimators.cblue_fallback_ratio", "ratio"),
        ("numerics.hpd_factor_s", "s"),
        ("numerics.hpd_factor_calls", "count"),
        ("numerics.hpd_solve_s", "s"),
        ("numerics.hpd_solve_calls", "count"),
        ("numerics.nullspace_basis_s", "s"),
        ("numerics.factor_flops_computed", "flop"),
        ("model.LinearModel_s", "s"),
        ("model.parameterize_s", "s"),
    ]
    + [(f"verify.{check}_s", "s") for check in VERIFY_CHECKS]
    + [
        ("verify.random_instance_s", "s"),
        ("cli.interpreter_ms", "ms"),
        ("cli.import_ms", "ms"),
        ("cli.import_scipy_ms", "ms"),
        ("cli.main_ms", "ms"),
        ("fileio.load_ms", "ms"),
        ("trace.overhead_pct", "%"),
    ]
)

OPERATION = "operation"


class Tracer:
    """In-memory span store with a parent stack and named counters."""

    def __init__(self):
        self.names: list[str] = [OPERATION]
        self._ids = {OPERATION: 0}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self._stack = [-1]
        self._op = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self, op_id: int, span: bool = True):
        """Record calls as part of operation ``op_id``.

        With ``span`` the operation gets a root span of its own, whose
        duration is the traced latency; without it, calls are attributed to
        the operation but nothing is timed around them.
        """
        self._op = op_id
        index = self._open(0) if span else None
        try:
            yield
        finally:
            if index is not None:
                self._close(index)
            self._op = -1

    def add(self, counter: str, value: float) -> None:
        """Add to a named counter, but only inside an operation."""
        if self._op >= 0:
            self.counters[counter] = self.counters.get(counter, 0.0) + value

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` recording a span named ``name`` per call.

        ``count(args, kwargs)`` may return ``(counter, value)`` to add per call.
        """
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op < 0:
                return fn(*args, **kwargs)
            if count is not None:
                self.add(*count(args, kwargs))
            index = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    # ---- derived quantities -------------------------------------------

    def arrays(self):
        return (
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int64),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def summary(self):
        """Per span name: total time, call count, and self time."""
        name, parent, start, end = self.arrays()
        duration = end - start
        child = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        n = len(self.names)
        total = np.bincount(name, weights=duration, minlength=n)
        self_time = np.bincount(name, weights=duration - child, minlength=n)
        calls = np.bincount(name, minlength=n)
        return {
            label: (float(total[i]), int(calls[i]), float(self_time[i]))
            for i, label in enumerate(self.names)
        }

    def children_of(self, parent_name: str, child_name: str) -> tuple[int, int]:
        """(spans named ``parent_name`` with a direct ``child_name`` child, all of them)."""
        if parent_name not in self._ids or child_name not in self._ids:
            return 0, 0
        name, parent, _, _ = self.arrays()
        parents = np.flatnonzero(name == self._ids[parent_name])
        hit = parent[name == self._ids[child_name]]
        return int(np.isin(parents, hit).sum()), int(parents.size)

    def save(self, path) -> None:
        name, parent, start, end = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=name,
            parent=parent,
            op=np.frombuffer(self.op, dtype=np.int64),
            start=start,
            end=end,
        )


def _factor_flops(args, kwargs):
    # Complex Cholesky: n^3/6 complex multiply-adds at 8 real flops each.
    m = args[0] if args else kwargs["m"]
    n = np.shape(m)[0]
    return "numerics.factor_flops_computed", 4.0 * n**3 / 3.0


def _cblue_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "cblue" or name.startswith("cblue."))
    ]


def _rebind_everywhere(original, replacement) -> None:
    """Replace every ``cblue.*`` module-level binding of ``original``."""
    for module in _cblue_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _traced_numpy(tracer: Tracer, span: str):
    """A copy of the numpy namespace whose ``linalg.solve`` records spans."""
    linalg = types.ModuleType("numpy.linalg")
    vars(linalg).update(vars(np.linalg))
    linalg.solve = tracer.wrap(span, np.linalg.solve)
    proxy = types.ModuleType("numpy")
    vars(proxy).update(vars(np))
    proxy.linalg = linalg
    return proxy


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the imported cblue package.

    Names that a given version of the package does not define are skipped,
    so their metrics read 0 rather than failing the run.
    """
    modules = {m.__name__.rsplit(".", 1)[-1]: m for m in _cblue_modules()}

    def wrap_function(module_name, attr, span, count=None):
        original = getattr(modules.get(module_name), attr, None)
        if original is not None:
            _rebind_everywhere(original, tracer.wrap(span, original, count))

    wrap_function("montecarlo", "run_experiment", "montecarlo.run_experiment")
    wrap_function("montecarlo", "_trial_rng", "montecarlo.stream_init")
    wrap_function("montecarlo", "sample_proper_gaussian", "montecarlo.sample")
    wrap_function("montecarlo", "convolution_matrix", "montecarlo.reference_path")
    for fn in ESTIMATOR_FUNCTIONS:
        wrap_function("estimators", fn, f"estimators.{fn}")
    wrap_function("numerics", "hpd_factor", "numerics.hpd_factor", _factor_flops)
    wrap_function("numerics", "hpd_solve", "numerics.hpd_solve")
    wrap_function("numerics", "nullspace_basis", "numerics.nullspace_basis")
    wrap_function("model", "parameterize", "model.parameterize")
    for check in VERIFY_CHECKS + ("random_instance",):
        wrap_function("verify", check, f"verify.{check}")
    for attr in ("load_matrix", "load_vector"):
        wrap_function("fileio", attr, "fileio.load")
    wrap_function("cli", "main", "cli.main")

    # Construction, including the C_nn factorization, is timed on the class.
    model_cls = getattr(modules.get("model"), "LinearModel", None)
    if model_cls is not None:
        model_cls.__init__ = tracer.wrap("model.LinearModel", model_cls.__init__)

    # The verification suite holds its checks in a table built at import.
    verify = modules.get("verify")
    if hasattr(verify, "_SUITE"):
        def rewrap(entry):
            if isinstance(entry, tuple):
                return (rewrap(entry[0]),) + entry[1:]
            name = getattr(entry, "__name__", "")
            return getattr(verify, name) if name in VERIFY_CHECKS else entry

        verify._SUITE = tuple(rewrap(entry) for entry in verify._SUITE)

    # numpy.linalg.solve only as the sweep calls it.
    montecarlo = modules.get("montecarlo")
    if getattr(montecarlo, "np", None) is np:
        montecarlo.np = _traced_numpy(tracer, "montecarlo.batch_solve")


def layer_metrics(tracer: Tracer, operations: int) -> dict[str, float]:
    """Per-operation layer figures derived from the recorded spans."""
    ops = max(operations, 1)
    spans = tracer.summary()
    metrics = {name: 0.0 for name, _ in PER_LAYER_METRICS}

    def total(span):
        return spans.get(span, (0.0, 0, 0.0))[0] / ops

    def calls(span):
        return spans.get(span, (0.0, 0, 0.0))[1] / ops

    for span in (
        "montecarlo.run_experiment",
        "montecarlo.stream_init",
        "montecarlo.sample",
        "montecarlo.batch_solve",
        "numerics.hpd_factor",
        "numerics.hpd_solve",
        "numerics.nullspace_basis",
        "model.LinearModel",
        "model.parameterize",
    ) + tuple(f"estimators.{fn}" for fn in ESTIMATOR_FUNCTIONS) + tuple(
        f"verify.{check}" for check in VERIFY_CHECKS + ("random_instance",)
    ):
        metrics[f"{span}_s"] = total(span)
        if f"{span}_calls" in metrics:
            metrics[f"{span}_calls"] = calls(span)
    metrics["montecarlo.self_s"] = spans.get("montecarlo.run_experiment", (0.0, 0, 0.0))[2] / ops
    metrics["montecarlo.reference_path_calls"] = calls("montecarlo.reference_path")
    fell_back, cblue_calls = tracer.children_of("estimators.cblue", "estimators.cblue_nullspace")
    metrics["estimators.cblue_fallback_ratio"] = fell_back / cblue_calls if cblue_calls else 0.0
    metrics["cli.main_ms"] = 1e3 * total("cli.main")
    metrics["fileio.load_ms"] = 1e3 * total("fileio.load")
    for counter, value in tracer.counters.items():
        metrics[counter] = value / ops
    return metrics
