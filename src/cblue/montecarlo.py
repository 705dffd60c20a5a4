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
same amount of stream whatever it draws: a run of trials is one call to
the generator, and ``run_reference_trial`` skips straight to trial t.

``run_experiment`` solves trials in batches of up to ``_BATCH`` that may
span noise levels, each trial carrying its own noise diagonal.  The batch
kernel ``_batch_sweep`` lays a batch out trial-minor: trials run along the
last, contiguous axis, with the LS and BLUE families side by side, so each
step of its algebra is one vector operation over the whole batch and its
loops run over the matrix dimension (the "compact" layout of Kim et al.,
"Designing vector-friendly compact BLAS and LAPACK kernels", SC'17).  It
forms Gram matrices from lag products of u, factors them by a Cholesky
loop of its own and gets the analytic MSEs from trace identities.  Every
sum over a small axis runs in a fixed order and no BLAS product crosses
trials, so reports are reproducible bit for bit and independent of how
trials are batched.  A Gram matrix with a pivot that is not positive ends
the sweep with an ``EstimationError`` naming its noise level and trials.
``run_reference_trial`` runs one trial through the public estimator API,
the path that the batch kernel is tested against.

The sweep runs on numpy alone: it calls none of the scipy kernels of
``numerics``, so it never loads scipy.  It gates its noise diagonal with the
package's pivot rule, on the pivots a Cholesky factorization of a diagonal
matrix has, and parameterizes its constraint by numpy's SVD.
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
from .model import ConstraintSet, LinearModel, NullspaceParam, _unformed
from .numerics import as_vector, check_pivots, nullspace_basis

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
    h = np.zeros((seq.size + n_x - 1, n_x), dtype=np.complex128)
    for j in range(n_x):
        h[j : j + seq.size, j] = seq
    return h


def _polar_normals(uniforms: np.ndarray) -> np.ndarray:
    """Proper complex Gaussians from pairs of uniforms along the last axis.

    Pair (a, b) gives ``|z|^2 = -log(1 - a)``, which is Exp(1), and phase
    ``2 pi b``: unit variance, zero pseudo-variance.  A draw of a = 0 is read
    at the midpoint of its cell, so every radius is strictly positive.
    """
    a = np.maximum(uniforms[..., 0::2], _LOWEST_CELL_MIDPOINT)
    phase = 2.0 * np.pi * uniforms[..., 1::2]
    radius = np.sqrt(-np.log1p(-a))
    values = np.empty(radius.shape, dtype=np.complex128)
    values.real = radius * np.cos(phase)
    values.imag = radius * np.sin(phase)
    return values


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
    """The experiment's constraint ``ones @ x = 0`` and its parameterization.

    The right-hand side is zero, so the particular solution is zero and the
    parameterization needs only the nullspace basis, which numpy's SVD gives.
    """
    constraints = ConstraintSet(np.ones((1, n_x)), np.zeros(1))
    basis = nullspace_basis(constraints.A)
    particular = np.zeros(n_x, dtype=np.complex128)
    particular.flags.writeable = False
    param = _unformed(NullspaceParam, basis=basis, particular=particular, n0=basis.shape[1])
    return constraints, param


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


def _ordered_sum(terms):
    """Sum of ``terms`` (an array's first axis, or any iterable), added in order.

    ``ndarray.sum`` picks its order from the memory layout, which changes
    when a batch holds a single trial; a fixed order keeps every trial's
    result, and so the report, independent of the batch it sits in.
    """
    return functools.reduce(np.add, terms)


class _NotPositiveDefinite(np.linalg.LinAlgError):
    """A Gram matrix of the batch has a Cholesky pivot that is not positive."""

    def __init__(self, trial: int):
        super().__init__("Matrix is not positive definite")
        self.trial = trial


def _lag_grams(u, weights, n_x):
    """Weighted Gram matrices ``H^H diag(w) H`` of convolution matrices, trial-minor.

    ``u`` is ``(n_u, B)`` and ``weights`` is ``(n_u + n_x - 1, B)``.  Entry
    (i, i - m) is ``sum_s conj(u_s) u_(s+m) w_(s+i)``: the lag-m products of
    u correlated with the weights, so no convolution matrix is formed.  Lags
    of n_u and more are zero.  Only the lower triangle is filled.
    """
    n_u, width = u.shape
    gram = np.zeros((n_x, n_x, width), dtype=np.complex128)
    conj_u = u.conj()
    for lag in range(min(n_x, n_u)):
        products = conj_u[: n_u - lag] * u[lag:]
        rows = np.arange(lag, n_x)
        gram[rows, rows - lag] = _ordered_sum(
            products[s] * weights[s + lag : s + n_x] for s in range(n_u - lag)
        )
    return gram


def _factor_inverse(gram):
    """Inverse Cholesky factors of trial-minor Gram matrices, ``(n, n, B)``.

    Reads the lower triangle only, and overwrites ``gram`` with Schur
    complements.  Step j of the factorization takes column j of ``L`` and
    updates the trailing Schur complement by its outer product; step j of
    the substitution finishes row j of ``L^-1`` and updates the rows below.
    Each step is a few whole-batch vector operations, so the loop runs n
    times whatever the batch size, and every entry accumulates its terms in
    index order.  Returns ``L^-1`` and a mask of the trials whose pivots
    were all positive.
    """
    n, _, width = gram.shape
    inverse = np.zeros_like(gram)
    positive = np.ones(width, dtype=bool)
    for j in range(n):
        pivot = gram[j, j].real
        # LAPACK's rule: a pivot that is not > 0 (NaN included) stops the factorization.
        positive &= pivot > 0.0
        # Scaled by the reciprocal of the diagonal entry of L, as LAPACK does;
        # complex, so that no product below casts per call.
        scale = (1.0 / np.sqrt(pivot)).astype(np.complex128)
        column = gram[j + 1 :, j] * scale
        gram[j + 1 :, j + 1 :] -= column[:, None] * column.conj()
        inverse[j, j] = scale
        inverse[j, :j] *= scale
        inverse[j + 1 :, : j + 1] -= column[:, None] * inverse[j, : j + 1]
    return inverse, positive


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _batch_sweep(u_b, x_b, noise_b, d, n_x):
    """Vectorized six-estimator sweep over a batch of trials, in Gram space.

    Specializes the public constructors to this experiment: the noise
    covariance is diagonal, the constraint is a single zero-sum row (so the
    constraint step is a rank-one update) and its right-hand side is zero (so
    offsets vanish).  As in the public layer, each family is least squares on
    a white-noise model: LS on ``H`` with Gram ``Q = H^H H`` and BLUE on
    ``D^(-1/2) H`` with Gram ``P = H^H D^-1 H``.

    The layout is trial-minor: trials run along the last, contiguous axis,
    with the LS columns and then the BLUE columns side by side, so every step
    is a whole-batch vector operation and the loops run over n_x and n_u,
    never over trials.  The Grams, and ``M = H^H D H``, come from lag
    products of u (``_lag_grams``).  Each Gram G is factored and its factor
    inverted by ``_factor_inverse``; ``G^-1 = L^-H L^-1``.  With
    ``g = G^-1 1``, the estimate ``x = G^-1 H^H W y`` gives the free
    variant, ``x - mean(x)`` the mean-subtracted one and
    ``x - g (1^T x) / (1^T g)`` the constrained one.  The analytic MSEs
    follow from trace identities: the BLUE covariance is ``P^-1`` itself,
    and the LS covariance is ``S = Q^-1 M Q^-1``, so ``tr S``,
    ``1^T S 1 = q^H M q`` and ``1^T S q = q^H M Q^-1 q`` need no n_y by n_x
    product.  Every sum over a small axis is added in a fixed order and no
    BLAS product runs across trials, so each trial's results are bitwise the
    same whatever batch it sits in.
    ``test_batch_sweep_matches_public_covariance_per_trial`` holds both the
    estimates and the analytic MSEs to the public constructors trial by trial.

    ``d`` is the noise diagonal, one per trial ``(B, n_y)`` or shared
    ``(n_y,)``.  Returns the estimation errors, shape ``(B, 6, n_x)``, and
    the analytic MSEs, shape ``(B, 6)``, in ``ESTIMATOR_KINDS`` order.  A
    finite Gram matrix with a pivot that is not positive raises
    ``LinAlgError`` naming the first such trial.  Floating-point warnings
    are silenced, and a trial whose Gram matrix leaves double range yields
    non-finite results for its family only: ``run_experiment`` then refuses
    the trial's noise level.
    """
    n_trials, n_u = u_b.shape
    n_y = n_u + n_x - 1
    d = np.asarray(d, dtype=np.float64)
    d = d[:, None] if d.ndim == 1 else d.T
    u = np.ascontiguousarray(u_b.T)
    x = np.ascontiguousarray(x_b.T)
    ls, blue = slice(0, n_trials), slice(n_trials, 2 * n_trials)
    families = slice(0, 2 * n_trials)
    # Column blocks of B trials: LS (weight 1), BLUE (1/d), then M (d).
    weights = np.empty((n_y, 3 * n_trials), dtype=np.complex128)
    weights[:, ls] = 1.0
    weights[:, blue] = 1.0 / d
    weights[:, 2 * n_trials :] = d
    tiled_u = np.tile(u, 3)
    gram = _lag_grams(tiled_u, weights, n_x)
    finite = np.isfinite(gram[:, :, families]).all(axis=(0, 1))
    inverse, positive = _factor_inverse(gram[:, :, families])
    singular = (finite & ~positive).reshape(2, n_trials).any(axis=0)
    if singular.any():
        raise _NotPositiveDefinite(int(np.flatnonzero(singular)[0]))
    g_inv = np.zeros_like(inverse)
    for k in range(n_x):
        row = inverse[k, : k + 1]
        g_inv[: k + 1, : k + 1] += row.conj()[:, None] * row

    y = np.zeros((n_y, n_trials), dtype=np.complex128)
    for j in range(n_x):
        y[j : j + n_u] += u * x[j]
    y += noise_b.T
    weighted_y = np.tile(y, 2) * weights[:, families]
    conj_u = tiled_u[:, families].conj()
    rhs = _ordered_sum(conj_u[s] * weighted_y[s : s + n_x] for s in range(n_u))
    x_hat = _ordered_sum(g_inv[:, j] * rhs[j] for j in range(n_x))
    g = _ordered_sum(g_inv[:, j] for j in range(n_x))
    ones_g = _ordered_sum(g).real
    ones_x = _ordered_sum(x_hat)
    norm_g = _ordered_sum(g * g.conj()).real
    # Indexed (variant, element, family, trial): the variant is free,
    # mean-subtracted, then constrained; the family is LS, then BLUE.
    estimates = np.stack([x_hat, x_hat - ones_x / n_x, x_hat - g * (ones_x / ones_g)])
    estimates[:, :, ~finite] = np.nan
    errors = estimates.reshape(3, n_x, 2, n_trials)
    errors -= x[:, None, :]

    q_inv, q, ones_q, norm_q = g_inv[:, :, ls], g[:, ls], ones_g[ls], norm_g[ls]
    m = gram[:, :, 2 * n_trials :]
    for i in range(n_x - 1):
        m[i, i + 1 :] = m[i + 1 :, i].conj()
    # LS: S = Q^-1 M Q^-1, so tr S = sum_ik (Q^-1)_ik (M Q^-1)_ki.
    m_q_inv = _ordered_sum(m[:, j, None] * q_inv[j] for j in range(n_x))
    trace_s = _ordered_sum(_ordered_sum(q_inv * m_q_inv.transpose(1, 0, 2))).real
    m_q = _ordered_sum(m[:, j] * q[j] for j in range(n_x))
    q_inv_q = _ordered_sum(q_inv[:, j] * q[j] for j in range(n_x))
    ones_s_ones = _ordered_sum(q.conj() * m_q).real
    ones_s_q = _ordered_sum(m_q.conj() * q_inv_q).real
    # BLUE: the covariance is P^-1 itself.
    trace_p = _ordered_sum(g_inv[i, i, blue] for i in range(n_x)).real
    ones_p, norm_p = ones_g[blue], norm_g[blue]
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
        ]
    )
    analytic[:3, ~finite[ls]] = np.nan
    analytic[3:, ~finite[blue]] = np.nan
    errors = errors.transpose(3, 2, 0, 1).reshape(n_trials, 6, n_x)
    return errors, analytic.T / n_x


def _batch_plan(levels: int, trials: int):
    """Group the trials of every noise level into batches of up to ``_BATCH``.

    Each level is cut into chunks of ``_BATCH`` trials counted from its
    first trial; consecutive chunks, in (level, trial) order, share a batch
    while their total stays within ``_BATCH``.  Yields each batch as a list
    of ``(k_index, start, stop)`` segments.
    """
    batch, size = [], 0
    for k_index in range(levels):
        for start in range(0, trials, _BATCH):
            stop = min(start + _BATCH, trials)
            if size + stop - start > _BATCH:
                yield batch
                batch, size = [], 0
            batch.append((k_index, start, stop))
            size += stop - start
    yield batch


def run_experiment(spec: ExperimentSpec) -> MseReport:
    """Run the full sweep and report empirical and analytic average MSE.

    For every scale factor in ``spec.k_grid`` and every trial: draw a fresh
    input sequence, build its convolution matrix, draw a feasible zero-sum
    parameter vector by the configured policy, add scaled noise, and apply
    all six estimators.  Trials are solved in batches that may span noise
    levels (``_batch_plan``); each trial carries its own noise diagonal.  A
    rank-deficient convolution matrix ends the sweep with an
    ``EstimationError`` naming its k and the trials of its batch at that k.
    Identical specs produce identical reports.

    The sweep runs on numpy alone and loads no scipy.  Its noise diagonal is
    gated by the package's pivot rule (:func:`~cblue.numerics.check_pivots`),
    so it refuses exactly the diagonals that ``LinearModel`` refuses.
    """
    n_x = spec.n_x
    base_diag = np.asarray(spec.base_noise_diag)
    # np.square(np.sqrt(d)) are the pivots zpotrf returns for diag(d).  The
    # gate scales with k, so checking k = 1 covers every level; a failing
    # diagonal ends the sweep here (test_experiment_reports_estimation_failure).
    check_pivots(np.square(np.sqrt(base_diag)), base_diag.max())
    _, param = _zero_sum_setup(n_x)
    width = _block_width(spec, param)
    diags = [k * base_diag for k in spec.k_grid]
    # Per-k totals of per-trial statistics, added in trial order: sequential
    # rather than pairwise sums keep every total, and so the report,
    # independent of how trials are batched.  For each estimator kind the
    # columns hold the trial's MSE, its square and its analytic MSE, then
    # per element the real and imaginary error and the squared error.
    totals = np.zeros((len(spec.k_grid), len(ESTIMATOR_KINDS), 3 + 3 * n_x))
    for batch in _batch_plan(len(spec.k_grid), spec.trials):
        bounds = np.cumsum([0] + [stop - start for _, start, stop in batch])
        blocks = np.empty((bounds[-1], width))
        for (k_index, start, _), first, last in zip(batch, bounds, bounds[1:]):
            # a level's chunks come in order, so its stream carries over batches
            if start == 0:
                rng = _trial_rng(spec.seed, k_index)
            rng.random(out=blocks[first:last])
        u_batch, x_batch, z_batch = _draw_trial(spec, param, blocks)
        d_batch = np.repeat(
            [diags[k_index] for k_index, _, _ in batch], np.diff(bounds), axis=0
        )
        try:
            errors, analytic = _batch_sweep(
                u_batch, x_batch, z_batch * np.sqrt(d_batch), d_batch, n_x
            )
        except _NotPositiveDefinite as exc:
            k_index, start, stop = batch[np.searchsorted(bounds, exc.trial, "right") - 1]
            raise EstimationError(
                f"noise scale k = {spec.k_grid[k_index]!r}: trials {start} to "
                f"{stop - 1} include a rank-deficient convolution matrix ({exc})"
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
        for (k_index, _, stop), first, last in zip(batch, bounds, bounds[1:]):
            segment = stats[first:last]
            segment[0] += totals[k_index]
            # numpy adds an outer-axis reduction row by row, in trial order, and
            # forms no prefix sums; it does not document that order, so
            # test_experiment_is_independent_of_batch_size and
            # test_experiment_is_independent_of_level_spanning_batches guard it
            totals[k_index] = np.add.reduce(segment, axis=0)
            if stop == spec.trials and not np.isfinite(totals[k_index, :, [0, 2]]).all():
                k = spec.k_grid[k_index]
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
