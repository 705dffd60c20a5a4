"""Monte Carlo study of the estimators on a randomized deconvolution task.

A zero-sum impulse response x (the constraint ``ones @ x = 0``) is estimated
from the full convolution of x with a random input sequence u, observed in
additive proper Gaussian noise whose diagonal covariance is swept through a
grid of scale factors k.  Six estimators run on every trial: least squares,
BLUE, their mean-subtracted variants, constrained least squares, and the
constrained BLUE.  The report carries the empirical average MSE next to the
analytic value ``trace(E C E^H) / n_x`` averaged over the same draws.

Every trial has its own counter-based random substream derived from
``(seed, k index, trial index)``, so reports are reproducible bit for bit
and independent of how trials are grouped or distributed.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import convolution_matrix as _scipy_convolution_matrix

from .errors import RankDeficient
from .estimators import (
    AffineEstimator,
    blue,
    cblue,
    cls,
    covariance,
    ls,
    mean_subtracted,
)
from .model import ConstraintSet, LinearModel, NullspaceParam, parameterize
from .numerics import HpdFactor, as_vector, hpd_factor

ESTIMATOR_KINDS = ("ls", "ls_meansub", "cls", "blue", "blue_meansub", "cblue")

_DEFAULT_NOISE_DIAG = (1.0, 1.0, 0.5, 0.5, 0.1, 0.1, 0.01, 0.01, 1e-3, 1e-3)
_DEFAULT_K_GRID = tuple(float(k) for k in np.logspace(-1.0, 0.0, 10))
_BATCH = 2048
_MAX_REGENERATIONS = 64


def sample_proper_gaussian(dim: int, rng, size: int | None = None) -> np.ndarray:
    """Draw standard proper (circularly symmetric) complex Gaussian vectors.

    Real and imaginary parts are independent with variance 1/2 each, so every
    entry has unit variance and zero pseudo-variance.  With ``size`` given,
    returns a ``(size, dim)`` matrix of independent draws.
    """
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    shape = (dim,) if size is None else (int(size), dim)
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)


def sample_noise(factor: HpdFactor, rng, size: int | None = None) -> np.ndarray:
    """Draw zero-mean proper Gaussian noise with covariance ``L @ L^H``."""
    z = sample_proper_gaussian(factor.dim, rng, size)
    if size is None:
        return factor.lower @ z
    return z @ factor.lower.T


def convolution_matrix(u, n_x: int) -> np.ndarray:
    """Full convolution matrix of ``u``: entry (i, j) is ``u[i - j]``.

    The product with a length ``n_x`` vector equals the full linear
    convolution, so the matrix has ``len(u) + n_x - 1`` rows.
    """
    seq = as_vector(u, "input sequence")
    if n_x < 1:
        raise ValueError(f"parameter count must be positive, got {n_x}")
    return _scipy_convolution_matrix(seq, int(n_x), mode="full")


def _policy_unit_norm_gaussian(param: NullspaceParam, rng) -> np.ndarray:
    # Unit-norm feasible direction; the particular term keeps feasibility for
    # inhomogeneous constraints and vanishes in the zero-sum experiment.
    while True:
        alpha = sample_proper_gaussian(param.n0, rng)
        direction = param.basis @ alpha
        norm = np.linalg.norm(direction)
        if norm > 0.0:
            return param.particular + direction / norm


def _policy_gaussian(param: NullspaceParam, rng) -> np.ndarray:
    alpha = sample_proper_gaussian(param.n0, rng)
    return param.particular + param.basis @ alpha


TRUE_X_POLICIES = {
    "unit-norm-gaussian": _policy_unit_norm_gaussian,
    "gaussian": _policy_gaussian,
}


@dataclass(frozen=True)
class ExperimentSpec:
    """Configuration of one Monte Carlo sweep.

    ``base_noise_diag`` is the noise covariance diagonal at scale k = 1 and
    must have ``n_u + n_x - 1`` entries, one per convolution output.
    """

    n_x: int = 5
    n_u: int = 6
    base_noise_diag: tuple[float, ...] = _DEFAULT_NOISE_DIAG
    k_grid: tuple[float, ...] = _DEFAULT_K_GRID
    trials: int = 10_000
    seed: int = 0
    true_x_policy: str = "unit-norm-gaussian"

    def __post_init__(self):
        object.__setattr__(
            self, "base_noise_diag", tuple(float(v) for v in self.base_noise_diag)
        )
        object.__setattr__(self, "k_grid", tuple(float(k) for k in self.k_grid))
        for name in ("n_x", "n_u", "trials", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_x < 2:
            raise ValueError("n_x must be at least 2 for the zero-sum constraint")
        if self.n_u < 1:
            raise ValueError("n_u must be positive")
        expected = self.n_u + self.n_x - 1
        if len(self.base_noise_diag) != expected:
            raise ValueError(
                f"base_noise_diag must have n_u + n_x - 1 = {expected} entries, "
                f"got {len(self.base_noise_diag)}"
            )
        if not all(np.isfinite(v) and v > 0.0 for v in self.base_noise_diag):
            raise ValueError("base_noise_diag entries must be positive and finite")
        if not self.k_grid:
            raise ValueError("k_grid must not be empty")
        if not all(np.isfinite(k) and k > 0.0 for k in self.k_grid):
            raise ValueError("k_grid entries must be positive and finite")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.true_x_policy not in TRUE_X_POLICIES:
            known = ", ".join(sorted(TRUE_X_POLICIES))
            raise ValueError(
                f"unknown true_x_policy {self.true_x_policy!r}; choices: {known}"
            )

    @property
    def n_y(self) -> int:
        return self.n_u + self.n_x - 1


@dataclass(frozen=True)
class MseReport:
    """Per-(k, estimator) outcome of a Monte Carlo sweep.

    ``empirical_mse`` and ``analytic_mse`` map each estimator kind to an
    array over the k grid; ``mse_stderr`` is the standard error of the
    empirical mean.  ``elementwise_bias`` and ``elementwise_mse`` keep the
    per-element error mean and second moment for bias checks.
    """

    k_grid: tuple[float, ...]
    kinds: tuple[str, ...]
    trials: int
    seed: int
    true_x_policy: str
    empirical_mse: dict
    analytic_mse: dict
    mse_stderr: dict
    elementwise_bias: dict
    elementwise_mse: dict
    regenerations: int


def standard_estimator_set(
    model: LinearModel, constraints: ConstraintSet
) -> dict[str, AffineEstimator]:
    """Construct the six estimators compared by the experiment."""
    base_ls = ls(model)
    base_blue = blue(model)
    return {
        "ls": base_ls,
        "ls_meansub": mean_subtracted(base_ls),
        "cls": cls(model, constraints),
        "blue": base_blue,
        "blue_meansub": mean_subtracted(base_blue),
        "cblue": cblue(model, constraints),
    }


def _trial_rng(seed: int, k_index: int, trial_index: int):
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(k_index, trial_index))
    return np.random.default_rng(seq)


def _single_trial_from_draws(u, x, z, rng, n_x, constraints, cov, cov_factor):
    """Reference path: build the six estimators through the public API.

    Returns per-kind estimates and analytic average MSE for one trial, plus
    the number of input regenerations forced by rank-deficient draws.
    """
    regenerations = 0
    current_u = u
    while True:
        h = convolution_matrix(current_u, n_x)
        try:
            model = LinearModel(h, cov)
            estimators = standard_estimator_set(model, constraints)
            break
        except RankDeficient:
            regenerations += 1
            if regenerations > _MAX_REGENERATIONS:
                raise
            current_u = sample_proper_gaussian(len(current_u), rng)
    y = h @ x + cov_factor.lower @ z
    estimates = {kind: est.apply(y) for kind, est in estimators.items()}
    analytic = {
        kind: covariance(est, cov).per_element_variance.sum() / n_x
        for kind, est in estimators.items()
    }
    return estimates, analytic, regenerations, y


def run_reference_trial(spec: ExperimentSpec, k_index: int, trial_index: int) -> dict:
    """Run a single trial through the plain estimator API.

    Uses the same substream and draw order as :func:`run_experiment`, so its
    output pins down what the vectorized sweep must produce for that trial.
    """
    if not 0 <= k_index < len(spec.k_grid):
        raise IndexError(f"k_index {k_index} outside grid of {len(spec.k_grid)}")
    if not 0 <= trial_index < spec.trials:
        raise IndexError(f"trial_index {trial_index} outside {spec.trials} trials")
    constraints = ConstraintSet(np.ones((1, spec.n_x)), np.zeros(1))
    param = parameterize(constraints)
    policy = TRUE_X_POLICIES[spec.true_x_policy]
    d = spec.k_grid[k_index] * np.asarray(spec.base_noise_diag)
    cov = np.diag(d)
    cov_factor = hpd_factor(cov)
    rng = _trial_rng(spec.seed, k_index, trial_index)
    u = sample_proper_gaussian(spec.n_u, rng)
    x = policy(param, rng)
    z = sample_proper_gaussian(spec.n_y, rng)
    estimates, analytic, regenerations, y = _single_trial_from_draws(
        u, x, z, rng, spec.n_x, constraints, cov, cov_factor
    )
    return {
        "u": u,
        "x_true": x,
        "y": y,
        "estimates": estimates,
        "analytic": analytic,
        "regenerations": regenerations,
    }


def _batch_sweep(u_b, x_b, noise_b, dinv, d, n_x):
    """Vectorized six-estimator sweep over a batch of trials.

    Specializes the formulas of the public constructors to this experiment:
    the noise covariance is diagonal, the constraint is a single zero-sum
    row (so the constraint step is a rank-one update), and its right-hand
    side is zero (so offsets vanish).  It stays separate from the public
    constructors because numpy has no stacked triangular solve: routing the
    batch through stacked Cholesky factors and the shared constraint step
    made the whole sweep about 17 % slower (numpy 2.4, scipy 1.17, 2-core
    Xeon).  ``test_experiment_matches_reference_path`` holds the two paths
    together.
    """
    n_trials, n_u = u_b.shape
    n_y = n_u + n_x - 1
    hb = np.zeros((n_trials, n_y, n_x), dtype=np.complex128)
    for j in range(n_x):
        hb[:, j : j + n_u, j] = u_b
    hh = hb.conj().transpose(0, 2, 1)
    q = hh @ hb
    w = dinv[None, :, None] * hb
    p = hh @ w
    e_ls = np.linalg.solve(q, hh)
    e_blue = np.linalg.solve(p, w.conj().transpose(0, 2, 1))
    ones_row = np.ones((1, n_x), dtype=np.complex128)
    ones_col = np.broadcast_to(
        np.ones((n_x, 1), dtype=np.complex128), (n_trials, n_x, 1)
    )
    g_q = np.linalg.solve(q, ones_col)
    g_p = np.linalg.solve(p, ones_col)
    e_cls = e_ls - g_q @ ((ones_row @ e_ls) / (ones_row @ g_q))
    e_cb = e_blue - g_p @ ((ones_row @ e_blue) / (ones_row @ g_p))
    centering = np.eye(n_x) - np.full((n_x, n_x), 1.0 / n_x)
    mats = {
        "ls": e_ls,
        "ls_meansub": centering @ e_ls,
        "cls": e_cls,
        "blue": e_blue,
        "blue_meansub": centering @ e_blue,
        "cblue": e_cb,
    }
    y = (hb @ x_b[:, :, None])[:, :, 0] + noise_b
    errors = {}
    analytic = {}
    for kind, e in mats.items():
        estimates = (e @ y[:, :, None])[:, :, 0]
        errors[kind] = estimates - x_b
        analytic[kind] = (np.square(np.abs(e)) * d[None, None, :]).sum(axis=(1, 2)) / n_x
    return errors, analytic


class _Accumulators:
    def __init__(self, nk: int, n_x: int):
        self.emp_sum = {kind: np.zeros(nk) for kind in ESTIMATOR_KINDS}
        self.emp_sq_sum = {kind: np.zeros(nk) for kind in ESTIMATOR_KINDS}
        self.ana_sum = {kind: np.zeros(nk) for kind in ESTIMATOR_KINDS}
        self.err_sum = {
            kind: np.zeros((nk, n_x), dtype=np.complex128) for kind in ESTIMATOR_KINDS
        }
        self.sq_err_sum = {kind: np.zeros((nk, n_x)) for kind in ESTIMATOR_KINDS}

    def add_batch(self, k_index: int, errors: dict, analytic: dict):
        for kind in ESTIMATOR_KINDS:
            err = np.atleast_2d(errors[kind])
            squared = np.square(np.abs(err))
            per_trial_mse = squared.mean(axis=1)
            self.emp_sum[kind][k_index] += per_trial_mse.sum()
            self.emp_sq_sum[kind][k_index] += np.square(per_trial_mse).sum()
            self.ana_sum[kind][k_index] += np.atleast_1d(analytic[kind]).sum()
            self.err_sum[kind][k_index] += err.sum(axis=0)
            self.sq_err_sum[kind][k_index] += squared.sum(axis=0)


def run_experiment(spec: ExperimentSpec) -> MseReport:
    """Run the full sweep and report empirical and analytic average MSE.

    For every scale factor in ``spec.k_grid`` and every trial: draw a fresh
    input sequence, build its convolution matrix, draw a feasible zero-sum
    parameter vector by the configured policy, add scaled noise, and apply
    all six estimators.  The rare draw whose convolution matrix loses rank
    is regenerated and counted.  Identical specs produce identical reports.
    """
    n_x = spec.n_x
    n_y = spec.n_y
    base_diag = np.asarray(spec.base_noise_diag)
    constraints = ConstraintSet(np.ones((1, n_x)), np.zeros(1))
    param = parameterize(constraints)
    policy = TRUE_X_POLICIES[spec.true_x_policy]
    nk = len(spec.k_grid)
    acc = _Accumulators(nk, n_x)
    regenerations = 0
    for k_index, k in enumerate(spec.k_grid):
        d = k * base_diag
        sqrt_d = np.sqrt(d)
        cov = np.diag(d)
        cov_factor = hpd_factor(cov)
        for start in range(0, spec.trials, _BATCH):
            stop = min(start + _BATCH, spec.trials)
            rngs = [_trial_rng(spec.seed, k_index, t) for t in range(start, stop)]
            u_rows = []
            x_rows = []
            z_rows = []
            for rng in rngs:
                u_rows.append(sample_proper_gaussian(spec.n_u, rng))
                x_rows.append(policy(param, rng))
                z_rows.append(sample_proper_gaussian(n_y, rng))
            u_batch = np.array(u_rows)
            x_batch = np.array(x_rows)
            noise_batch = np.array(z_rows) * sqrt_d
            try:
                errors, analytic = _batch_sweep(
                    u_batch, x_batch, noise_batch, 1.0 / d, d, n_x
                )
            except np.linalg.LinAlgError:
                # A rank-deficient draw poisons the whole stacked solve; redo
                # this batch trial by trial with regeneration.
                for u, x, z, rng in zip(u_rows, x_rows, z_rows, rngs):
                    estimates, analytic_one, regen, _ = _single_trial_from_draws(
                        u, x, z, rng, n_x, constraints, cov, cov_factor
                    )
                    regenerations += regen
                    single_errors = {
                        kind: estimates[kind] - x for kind in ESTIMATOR_KINDS
                    }
                    acc.add_batch(k_index, single_errors, analytic_one)
                continue
            acc.add_batch(k_index, errors, analytic)
    trials = float(spec.trials)
    empirical = {k: acc.emp_sum[k] / trials for k in ESTIMATOR_KINDS}
    stderr = {
        k: np.sqrt(
            np.clip(acc.emp_sq_sum[k] / trials - np.square(empirical[k]), 0.0, None)
            / trials
        )
        for k in ESTIMATOR_KINDS
    }
    return MseReport(
        k_grid=spec.k_grid,
        kinds=ESTIMATOR_KINDS,
        trials=spec.trials,
        seed=spec.seed,
        true_x_policy=spec.true_x_policy,
        empirical_mse=empirical,
        analytic_mse={k: acc.ana_sum[k] / trials for k in ESTIMATOR_KINDS},
        mse_stderr=stderr,
        elementwise_bias={k: acc.err_sum[k] / trials for k in ESTIMATOR_KINDS},
        elementwise_mse={k: acc.sq_err_sum[k] / trials for k in ESTIMATOR_KINDS},
        regenerations=regenerations,
    )
