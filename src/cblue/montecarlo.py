"""Monte Carlo study of the estimators on a randomized deconvolution task.

A zero-sum impulse response x (the constraint ``ones @ x = 0``) is estimated
from the full convolution of x with a random input sequence u, observed in
additive proper Gaussian noise whose diagonal covariance is swept through a
grid of scale factors k.  Six estimators run on every trial: least squares,
BLUE, their mean-subtracted variants, constrained least squares, and the
constrained BLUE.  The report carries the empirical average MSE next to the
analytic value ``trace(E C E^H) / n_x`` averaged over the same draws.

Each noise level has one counter-based Philox stream keyed by
``(seed, k index)`` (Salmon et al., "Parallel random numbers: as easy as 1,
2, 3", SC'11).  Trial t owns the fixed block ``[t W, (t + 1) W)`` of that
stream's uniforms, W being two uniforms per complex value of u, the reduced
coordinates of x and the noise, padded to whole counter steps.  Each pair
becomes one proper complex Gaussian in polar form, so a trial consumes the
same amount of stream whatever it draws: a batch of trials is one call to
the generator, ``run_reference_trial`` skips straight to trial t, and
reports are reproducible bit for bit and independent of how trials are
grouped.  ``run_experiment`` solves trials in batches, and a batch whose
stacked solve finds a singular Gram matrix ends the sweep with an
``EstimationError``.  ``run_reference_trial`` runs one trial through the
public estimator API, the path that the batch engine is tested against.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
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
from .numerics import as_vector, hpd_factor

ESTIMATOR_KINDS = ("ls", "ls_meansub", "cls", "blue", "blue_meansub", "cblue")

_DEFAULT_NOISE_DIAG = (1.0, 1.0, 0.5, 0.5, 0.1, 0.1, 0.01, 0.01, 1e-3, 1e-3)
_DEFAULT_K_GRID = tuple(float(k) for k in np.logspace(-1.0, 0.0, 10))
_BATCH = 2048
# Philox4x64 yields four doubles per counter step; Generator.random returns
# multiples of 2**-53, so 2**-54 is the midpoint of its lowest cell.
_DOUBLES_PER_STEP = 4
_LOWEST_CELL_MIDPOINT = 2.0**-54


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


def convolution_matrix(u, n_x: int) -> np.ndarray:
    """Full convolution matrix of ``u``: entry (i, j) is ``u[i - j]``.

    The product with a length ``n_x`` vector equals the full linear
    convolution, so the matrix has ``len(u) + n_x - 1`` rows.
    """
    seq = as_vector(u, "input sequence")
    if n_x < 1:
        raise ValueError(f"parameter count must be positive, got {n_x}")
    return _convolution_matrices(seq, int(n_x))


def _convolution_matrices(u: np.ndarray, n_x: int) -> np.ndarray:
    """Full convolution matrices of the sequences along the last axis of ``u``."""
    n_u = u.shape[-1]
    h = np.zeros(u.shape[:-1] + (n_u + n_x - 1, n_x), dtype=np.complex128)
    for j in range(n_x):
        h[..., j : j + n_u, j] = u
    return h


def _polar_normals(uniforms: np.ndarray) -> np.ndarray:
    """Proper complex Gaussians from pairs of uniforms along the last axis.

    Pair (a, b) gives ``|z|^2 = -log(1 - a)``, which is Exp(1), and phase
    ``2 pi b``: unit variance, zero pseudo-variance.  A draw of a = 0 is read
    at the midpoint of its cell, so every radius is strictly positive.
    """
    a = np.maximum(uniforms[..., 0::2], _LOWEST_CELL_MIDPOINT)
    phase = 2.0 * np.pi * uniforms[..., 1::2]
    return np.sqrt(-np.log1p(-a)) * (np.cos(phase) + 1j * np.sin(phase))


def _nullspace_point(param: NullspaceParam, alpha: np.ndarray) -> np.ndarray:
    # basis @ alpha for alpha of any leading shape, summed term by term so
    # that a trial's x does not depend on how many trials are drawn with it.
    direction = sum(alpha[..., j, None] * param.basis[:, j] for j in range(param.n0))
    return param.particular + direction


def _policy_unit_norm_gaussian(param: NullspaceParam, alpha: np.ndarray) -> np.ndarray:
    # Unit-norm feasible direction; the basis is orthonormal, so the norm is
    # that of alpha, which the polar draws keep positive.  The particular term
    # keeps feasibility for inhomogeneous constraints and vanishes in the
    # zero-sum experiment.
    return _nullspace_point(param, alpha / np.linalg.norm(alpha, axis=-1, keepdims=True))


TRUE_X_POLICIES = {
    "unit-norm-gaussian": _policy_unit_norm_gaussian,
    "gaussian": _nullspace_point,
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
        if not math.isfinite(max(self.k_grid) * max(self.base_noise_diag)):
            raise ValueError("noise variances k * base_noise_diag must be finite")
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
    ``regenerations`` is always 0, since the sweep never redraws an input;
    the field stays until the benchmark's trace stops reading it.
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
    regenerations: int = 0


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


def _trial_rng(seed: int, k_index: int) -> np.random.Generator:
    """Counter-based Philox stream holding the trial blocks of noise level ``k_index``."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(k_index,))
    return np.random.Generator(np.random.Philox(seq))


@functools.lru_cache(maxsize=16)
def _zero_sum_setup(n_x: int) -> tuple[ConstraintSet, NullspaceParam]:
    """The experiment's constraint ``ones @ x = 0`` and its parameterization."""
    constraints = ConstraintSet(np.ones((1, n_x)), np.zeros(1))
    return constraints, parameterize(constraints)


def _block_width(spec: ExperimentSpec, param: NullspaceParam) -> int:
    """Uniforms per trial: a pair per value of u, alpha and z, whole counter steps."""
    uniforms = 2 * (spec.n_u + param.n0 + spec.n_y)
    return -(-uniforms // _DOUBLES_PER_STEP) * _DOUBLES_PER_STEP


def _draw_trial(spec: ExperimentSpec, param: NullspaceParam, block: np.ndarray):
    """Turn trial blocks of uniforms, shape ``(..., W)``, into u, true x, noise z.

    The values are taken in the order u, then the reduced coordinates alpha
    of x, then white noise z; the configured policy maps alpha to x.
    """
    n_values = spec.n_u + param.n0 + spec.n_y
    values = _polar_normals(block[..., : 2 * n_values])
    u, alpha, z = np.split(values, [spec.n_u, spec.n_u + param.n0], axis=-1)
    return u, TRUE_X_POLICIES[spec.true_x_policy](param, alpha), z


def run_reference_trial(spec: ExperimentSpec, k_index: int, trial_index: int) -> dict:
    """Run a single trial through the plain estimator API.

    Uses the same draws as :func:`run_experiment`, so its output pins down
    what the vectorized sweep must produce for that trial.  A rank-deficient
    input sequence makes the estimator constructors raise ``RankDeficient``.
    """
    if not 0 <= k_index < len(spec.k_grid):
        raise IndexError(f"k_index {k_index} outside grid of {len(spec.k_grid)}")
    if not 0 <= trial_index < spec.trials:
        raise IndexError(f"trial_index {trial_index} outside {spec.trials} trials")
    constraints, param = _zero_sum_setup(spec.n_x)
    d = spec.k_grid[k_index] * np.asarray(spec.base_noise_diag)
    cov = np.diag(d)
    width = _block_width(spec, param)
    rng = _trial_rng(spec.seed, k_index)
    rng.bit_generator.advance(trial_index * width // _DOUBLES_PER_STEP)
    u, x, z = _draw_trial(spec, param, rng.random(width))
    h = convolution_matrix(u, spec.n_x)
    estimators = standard_estimator_set(LinearModel(h, cov), constraints)
    y = h @ x + np.sqrt(d) * z
    return {
        "u": u,
        "x_true": x,
        "y": y,
        "estimates": {kind: est.apply(y) for kind, est in estimators.items()},
        "analytic": {
            kind: covariance(est, cov).per_element_variance.sum() / spec.n_x
            for kind, est in estimators.items()
        },
    }


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _batch_sweep(u_b, x_b, noise_b, d, n_x):
    """Vectorized six-estimator sweep over a batch of trials.

    Specializes the formulas of the public constructors to this experiment:
    the noise covariance is diagonal, the constraint is a single zero-sum
    row (so the constraint step is a rank-one update), and its right-hand
    side is zero (so offsets vanish).  LS and BLUE differ only in their Gram
    matrix, so one loop over the two families applies the constraint step
    and the centering to each.  It stays separate from the public constructors
    because numpy has no stacked triangular solve: routing the batch through
    stacked Cholesky factors and the shared constraint step made the whole
    sweep about 17 % slower (numpy 2.4, scipy 1.17, 2-core Xeon).
    ``test_experiment_matches_reference_path`` holds the two paths together.

    Returns the estimation errors, shape ``(B, 6, n_x)``, and the analytic
    MSEs, shape ``(B, 6)``, in ``ESTIMATOR_KINDS`` order.  A singular Gram
    matrix raises ``LinAlgError``.  Floating-point warnings are silenced: a
    noise level that overflows here yields non-finite cells, which
    ``run_experiment`` refuses.
    """
    n_trials = u_b.shape[0]
    hb = _convolution_matrices(u_b, n_x)
    hh = hb.conj().transpose(0, 2, 1)
    w = (1.0 / d)[None, :, None] * hb
    # One factorization per Gram matrix: each solve also yields G^-1 1 for
    # the constraint step, from an appended column of ones.
    ones_col = np.ones((n_trials, n_x, 1), dtype=np.complex128)
    ls_sol = np.linalg.solve(hh @ hb, np.concatenate([hh, ones_col], axis=2))
    blue_sol = np.linalg.solve(
        hh @ w, np.concatenate([w.conj().transpose(0, 2, 1), ones_col], axis=2)
    )
    ones_row = np.ones((1, n_x), dtype=np.complex128)
    centering = np.eye(n_x) - np.full((n_x, n_x), 1.0 / n_x)
    y = (hb @ x_b[:, :, None])[:, :, 0] + noise_b
    # Indexed (trial, family, variant): the family is LS, then BLUE; the
    # variant is free, mean-subtracted, then constrained.
    errors = np.empty((n_trials, 2, 3, n_x), dtype=np.complex128)
    analytic = np.empty((n_trials, 2, 3))
    for family, sol in enumerate((ls_sol, blue_sol)):
        e_free, g = sol[..., :-1], sol[..., -1:]
        e_constrained = e_free - g @ ((ones_row @ e_free) / (ones_row @ g))
        for variant, e in enumerate((e_free, centering @ e_free, e_constrained)):
            errors[:, family, variant] = (e @ y[:, :, None])[:, :, 0] - x_b
            analytic[:, family, variant] = (np.square(np.abs(e)) * d).sum(axis=(1, 2)) / n_x
    return errors.reshape(n_trials, -1, n_x), analytic.reshape(n_trials, -1)


def run_experiment(spec: ExperimentSpec) -> MseReport:
    """Run the full sweep and report empirical and analytic average MSE.

    For every scale factor in ``spec.k_grid`` and every trial: draw a fresh
    input sequence, build its convolution matrix, draw a feasible zero-sum
    parameter vector by the configured policy, add scaled noise, and apply
    all six estimators.  A batch whose convolution matrices lose rank ends
    the sweep with an ``EstimationError`` naming k and the trials.
    Identical specs produce identical reports.
    """
    n_x = spec.n_x
    base_diag = np.asarray(spec.base_noise_diag)
    _, param = _zero_sum_setup(n_x)
    width = _block_width(spec, param)
    # Per-k totals of per-trial statistics, added in trial order: sequential
    # rather than pairwise sums keep every total, and so the report,
    # independent of how trials are batched.  For each estimator kind the
    # columns hold the trial's MSE, its square and its analytic MSE, then
    # per element the real and imaginary error and the squared error.
    totals = np.zeros((len(spec.k_grid), len(ESTIMATOR_KINDS), 3 + 3 * n_x))
    for k_index, k in enumerate(spec.k_grid):
        d = k * base_diag
        sqrt_d = np.sqrt(d)
        # The sweep accepts exactly the noise levels that the public
        # LinearModel accepts; a diagonal that fails its pivot gate ends the
        # sweep here (test_experiment_reports_estimation_failure).
        hpd_factor(np.diag(d))
        rng = _trial_rng(spec.seed, k_index)
        for start in range(0, spec.trials, _BATCH):
            stop = min(start + _BATCH, spec.trials)
            u_batch, x_batch, z_batch = _draw_trial(
                spec, param, rng.random((stop - start, width))
            )
            try:
                errors, analytic = _batch_sweep(
                    u_batch, x_batch, z_batch * sqrt_d, d, n_x
                )
            except np.linalg.LinAlgError as exc:
                raise EstimationError(
                    f"noise scale k = {k!r}: trials {start} to {stop - 1} include a "
                    f"rank-deficient convolution matrix ({exc})"
                ) from exc
            squared = np.square(np.abs(errors))
            mse = squared.mean(axis=2)
            stats = np.concatenate(
                [
                    np.stack([mse, np.square(mse), analytic], axis=2),
                    errors.real,
                    errors.imag,
                    squared,
                ],
                axis=2,
            )
            stats[0] += totals[k_index]
            totals[k_index] = stats.cumsum(axis=0)[-1]
        if not np.isfinite(totals[k_index, :, [0, 2]]).all():
            raise EstimationError(f"noise scale k = {k!r} gives a non-finite average MSE")
    means = totals / float(spec.trials)

    def per_kind(columns):
        return {kind: means[:, i, columns] for i, kind in enumerate(ESTIMATOR_KINDS)}

    empirical = per_kind(0)
    mean_square = per_kind(1)
    real_bias = per_kind(slice(3, 3 + n_x))
    imag_bias = per_kind(slice(3 + n_x, 3 + 2 * n_x))
    return MseReport(
        k_grid=spec.k_grid,
        kinds=ESTIMATOR_KINDS,
        trials=spec.trials,
        seed=spec.seed,
        true_x_policy=spec.true_x_policy,
        empirical_mse=empirical,
        analytic_mse=per_kind(2),
        mse_stderr={
            k: np.sqrt(
                np.clip(mean_square[k] - np.square(empirical[k]), 0.0, None)
                / spec.trials
            )
            for k in ESTIMATOR_KINDS
        },
        elementwise_bias={k: real_bias[k] + 1j * imag_bias[k] for k in ESTIMATOR_KINDS},
        elementwise_mse=per_kind(slice(3 + 2 * n_x, None)),
    )
