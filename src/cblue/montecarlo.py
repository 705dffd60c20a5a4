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
stacked Cholesky factorization finds a singular Gram matrix ends the sweep
with an ``EstimationError``.  ``run_reference_trial`` runs one trial through
the public estimator API, the path that the batch engine is tested against.
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
_BATCH = 512
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


def _policy_unit_norm_gaussian(param: NullspaceParam, alpha: np.ndarray) -> np.ndarray:
    # Unit-norm feasible direction; the basis is orthonormal, so the norm is
    # that of alpha, which the polar draws keep positive.  The particular term
    # keeps feasibility for inhomogeneous constraints and vanishes in the
    # zero-sum experiment.
    return param.point(alpha / np.linalg.norm(alpha, axis=-1, keepdims=True))


TRUE_X_POLICIES = {
    "unit-norm-gaussian": _policy_unit_norm_gaussian,
    "gaussian": NullspaceParam.point,
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


def _lower_inverse(lower: np.ndarray) -> np.ndarray:
    """Inverses of stacked lower-triangular matrices by forward substitution.

    Row i of the inverse is ``-(L[i, :i] @ inverse[:i, :i]) / L[i, i]`` left of
    its diagonal entry ``1 / L[i, i]``.  Each row is one step vectorized over
    the stack, so the loop runs once per matrix dimension, not once per matrix.
    """
    n = lower.shape[-1]
    diagonal_inverse = 1.0 / np.diagonal(lower, axis1=1, axis2=2)
    inverse = np.zeros_like(lower)
    for i in range(n):
        row = (lower[:, i : i + 1, :i] @ inverse[:, :i, :i])[:, 0]
        inverse[:, i, :i] = -row * diagonal_inverse[:, i, None]
        inverse[:, i, i] = diagonal_inverse[:, i]
    return inverse


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _batch_sweep(u_b, x_b, noise_b, d, n_x):
    """Vectorized six-estimator sweep over a batch of trials, in Gram space.

    Specializes the public constructors to this experiment: the noise
    covariance is diagonal, the constraint is a single zero-sum row (so the
    constraint step is a rank-one update) and its right-hand side is zero (so
    offsets vanish).  As in the public layer, each family is least squares on
    a white-noise model matrix W: ``H`` for LS and ``D^(-1/2) H`` for BLUE.
    Both are stacked family-major and every Gram ``G = W^H W`` is factored
    by one stacked Cholesky call; ``G^-1 = L^-H L^-1`` comes from the
    substituted factor inverse.  With ``g = G^-1 1``, the estimate
    ``x = G^-1 W^H y_w`` gives the free variant, ``x - mean(x)`` the
    mean-subtracted one and ``x - g (1^T x) / (1^T g)`` the constrained one.
    The analytic MSEs follow from trace identities: the BLUE covariance is
    ``P^-1`` itself, and the LS covariance is ``S = K^H D K`` with
    ``K = H Q^-1``, the one n_y by n_x product left.
    ``test_batch_sweep_matches_public_covariance_per_trial`` holds both to
    the public constructors trial by trial.

    Returns the estimation errors, shape ``(B, 6, n_x)``, and the analytic
    MSEs, shape ``(B, 6)``, in ``ESTIMATOR_KINDS`` order.  A finite Gram
    matrix that is not numerically positive definite raises ``LinAlgError``.
    Floating-point warnings are silenced, and a noise level whose Gram
    matrices leave double range yields non-finite cells unfactored: either
    way ``run_experiment`` refuses the level.
    """
    n_trials = u_b.shape[0]
    hb = _convolution_matrices(u_b, n_x)
    y = (hb @ x_b[:, :, None])[:, :, 0] + noise_b
    inv_sqrt_d = 1.0 / np.sqrt(d)
    w = np.concatenate([hb, inv_sqrt_d[:, None] * hb])
    wh = w.conj().transpose(0, 2, 1)
    gram = wh @ w
    if not np.isfinite(gram).all():
        return (
            np.full((n_trials, 6, n_x), np.nan, dtype=np.complex128),
            np.full((n_trials, 6), np.nan),
        )
    l_inv = _lower_inverse(np.linalg.cholesky(gram))
    g_inv = l_inv.conj().transpose(0, 2, 1) @ l_inv
    y_w = np.concatenate([y, inv_sqrt_d * y])
    x = (g_inv @ (wh @ y_w[:, :, None]))[:, :, 0]
    g = g_inv.sum(axis=2)
    ones_g = g.sum(axis=1, keepdims=True).real
    ones_x = x.sum(axis=1, keepdims=True)
    # Indexed (family, trial, variant): the family is LS, then BLUE; the
    # variant is free, mean-subtracted, then constrained.
    estimates = np.stack([x, x - ones_x / n_x, x - g * (ones_x / ones_g)], axis=1)
    errors = estimates.reshape(2, n_trials, 3, n_x) - x_b[None, :, None, :]

    norm_g = np.square(np.abs(g)).sum(axis=1)
    q, ones_q, norm_q = g[:n_trials], ones_g[:n_trials, 0], norm_g[:n_trials]
    ones_p, norm_p = ones_g[n_trials:, 0], norm_g[n_trials:]
    # LS: S = K^H D K with K = H Q^-1, so 1^T S v = (K 1)^H D (K v), K 1 = H q.
    k = hb @ g_inv[:n_trials]
    trace_s = (np.square(np.abs(k)) * d[:, None]).sum(axis=(1, 2))
    k_ones = (hb @ q[:, :, None])[:, :, 0]
    ones_s_ones = (np.square(np.abs(k_ones)) * d).sum(axis=1)
    ones_s_q = (k_ones.conj() * d * (k @ q[:, :, None])[:, :, 0]).sum(axis=1).real
    # BLUE: the covariance is P^-1, whose trace is the squared norm of L^-1.
    trace_p = np.square(np.abs(l_inv[n_trials:])).sum(axis=(1, 2))
    analytic = np.stack(
        [
            trace_s,
            trace_s - ones_s_ones / n_x,
            trace_s
            - 2.0 * ones_s_q / ones_q
            + ones_s_ones * norm_q / np.square(ones_q),
            trace_p,
            trace_p - ones_p / n_x,
            trace_p - norm_p / ones_p,
        ],
        axis=1,
    )
    return errors.transpose(1, 0, 2, 3).reshape(n_trials, 6, n_x), analytic / n_x


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
    # The sweep accepts the noise diagonals that LinearModel accepts.  The
    # pivot gate scales with k, so checking k = 1 covers every level; a failing
    # diagonal ends the sweep here (test_experiment_reports_estimation_failure).
    hpd_factor(np.diag(base_diag))
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
