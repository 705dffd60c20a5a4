"""Affine estimators for linearly constrained parameters.

All estimators here are affine maps ``x_hat = E @ y + f``, and each one is
least squares on a white-noise model matrix: H for least squares, ``L^-1 H``
for the best linear unbiased estimator (BLUE, with ``C_nn = L @ L^H``), and
``L^-1 H N`` for the nullspace form of the constrained BLUE, where N spans the
constraint nullspace.  Constrained least squares and the direct form of the
constrained BLUE add one shared constraint step that enforces ``A @ x = b``
exactly.  The nullspace form works whenever ``H N`` has full column rank,
which includes underdetermined models; the direct form needs H itself to
have full column rank.

The whitened constructors (BLUE and both constrained BLUE forms) first build
the estimator ``E_w`` of the whitened model ``L^-1 y = L^-1 H x + w`` and
unwhiten it once, ``E = E_w L^-1``.  They keep ``E_w`` together with the
model's own ``C_nn`` array, because the error covariance ``E C_nn E^H`` is
then ``E_w E_w^H``: :func:`covariance` takes that product when it is handed
that very array, and the general one for any other, an equal copy included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    RankDeficient,
    RankDeficientConstraints,
    RankDeficientReducedModel,
    SingularKktSystem,
)
from .model import (
    REDUCED,
    ConstraintSet,
    LinearModel,
    NullspaceParam,
    _check_parameter_dims,
    parameterize,
)
from .numerics import (
    as_matrix,
    as_vector,
    gram_factor,
    half_solve,
    hermitian_product,
    hpd_solve,
    scaled_asymmetry,
)


@dataclass(frozen=True, eq=False)
class AffineEstimator:
    """Estimator ``x_hat = E @ y + f`` with a label naming its kind.

    ``E_w`` and ``C_nn`` are set only by the whitened constructors: ``E_w = E @ L``
    is the estimator on the whitened model and ``C_nn = L @ L^H`` is the model's
    read-only noise covariance it was whitened against.  Otherwise both are None.
    """

    E: np.ndarray
    f: np.ndarray
    label: str
    E_w: np.ndarray | None = field(init=False, default=None, repr=False)
    C_nn: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        e = as_matrix(self.E, "estimator matrix")
        offset = as_vector(self.f, "estimator offset")
        if offset.shape[0] != e.shape[0]:
            raise DimensionMismatch(
                f"offset has {offset.shape[0]} entries, estimator matrix has "
                f"{e.shape[0]} rows"
            )
        object.__setattr__(self, "E", e)
        object.__setattr__(self, "f", offset)

    def apply(self, y) -> np.ndarray:
        """Estimate from a measurement vector, or column-wise from a matrix."""
        arr = np.asarray(y, dtype=np.complex128)
        if arr.ndim == 1:
            if arr.shape[0] != self.E.shape[1]:
                raise DimensionMismatch(
                    f"measurement has {arr.shape[0]} entries, expected {self.E.shape[1]}"
                )
            return self.E @ arr + self.f
        if arr.ndim == 2:
            if arr.shape[0] != self.E.shape[1]:
                raise DimensionMismatch(
                    f"measurements have {arr.shape[0]} rows, expected {self.E.shape[1]}"
                )
            return self.E @ arr + self.f[:, None]
        raise DimensionMismatch("measurements must be a vector or a matrix of columns")


@dataclass(frozen=True, eq=False)
class CovarianceResult:
    """Estimator error covariance with its real diagonal split out."""

    C: np.ndarray
    per_element_variance: np.ndarray = field(init=False)

    def __post_init__(self):
        c = as_matrix(self.C, "covariance")
        if c.shape[0] != c.shape[1]:
            raise DimensionMismatch(f"covariance must be square, got {c.shape}")
        asymmetry, size, power = scaled_asymmetry(c)
        scale = max(size, power)
        if asymmetry > 1e-12 * scale:
            raise ValueError("covariance must be Hermitian")
        diag = c.diagonal().real.copy()
        if (diag * power < -1e-12 * scale).any():
            raise ValueError("covariance diagonal has negative entries")
        diag.flags.writeable = False
        object.__setattr__(self, "C", c)
        object.__setattr__(self, "per_element_variance", diag)


def _gram_factor(h: np.ndarray):
    """Factor ``H^H H`` for the unwhitened least-squares estimators, or raise ``RankDeficient``."""
    return gram_factor(RankDeficient, "measurement matrix", h.conj().T, h)


def _unwhitened(model: LinearModel, m_w: np.ndarray) -> np.ndarray:
    """``m_w @ L^-1``: the map on y of a map ``m_w`` on the whitened measurement ``L^-1 y``."""
    return half_solve(model.noise_factor, m_w.conj().T, adjoint=True).conj().T


def _whitened_estimator(model: LinearModel, e_w, e, f, label: str) -> AffineEstimator:
    """``AffineEstimator(e, f, label)`` keeping ``e_w = e @ L`` and the model's ``C_nn``."""
    est = AffineEstimator(E=e, f=f, label=label)
    e_w.flags.writeable = False
    object.__setattr__(est, "E_w", e_w)
    object.__setattr__(est, "C_nn", model.C_nn)
    return est


def _constrain(e_free: np.ndarray, f_free: np.ndarray, g: np.ndarray, constraints: ConstraintSet):
    """Project the estimator ``(e_free, f_free)`` onto ``A @ x = b`` along ``g = G^-1 A^H``.

    G is the least-squares Gram matrix, or the identity for plain projection.
    """
    a = constraints.A
    s_factor = gram_factor(RankDeficientConstraints, "constraint matrix", a, g)
    e = e_free - g @ hpd_solve(s_factor, a @ e_free)
    f = f_free - g @ hpd_solve(s_factor, a @ f_free - constraints.b)
    return e, f


def _constrained_ls(factor, e_free: np.ndarray, constraints: ConstraintSet):
    """Constrain ``e_free = G^-1 @ B`` in the geometry of G, given its Cholesky ``factor``."""
    g = hpd_solve(factor, constraints.A.conj().T)
    return _constrain(e_free, np.zeros(factor.dim), g, constraints)


def ls(model: LinearModel) -> AffineEstimator:
    """Ordinary least squares; needs a full-column-rank measurement matrix."""
    e = hpd_solve(_gram_factor(model.H), model.H.conj().T)
    return AffineEstimator(E=e, f=np.zeros(model.n_x), label="ls")


def blue(model: LinearModel) -> AffineEstimator:
    """Minimum-variance unbiased affine estimator without constraints."""
    w, factor = model.whitened_gram(model.H)
    e_w = hpd_solve(factor, w.conj().T)
    return _whitened_estimator(model, e_w, _unwhitened(model, e_w), np.zeros(model.n_x), "blue")


def cls(model: LinearModel, constraints: ConstraintSet) -> AffineEstimator:
    """Least squares restricted to the constraint set ``A @ x = b``."""
    _check_parameter_dims(model, constraints)
    factor = _gram_factor(model.H)
    e, f = _constrained_ls(factor, hpd_solve(factor, model.H.conj().T), constraints)
    return AffineEstimator(E=e, f=f, label="cls")


def cblue_direct(model: LinearModel, constraints: ConstraintSet) -> AffineEstimator:
    """Constrained minimum-variance unbiased estimator, full-rank form.

    Valid when H has full column rank; use :func:`cblue_nullspace` otherwise.
    Identical to :func:`cls` on the whitened model ``L^-1 y = L^-1 H x + w``.
    """
    _check_parameter_dims(model, constraints)
    w, factor = model.whitened_gram(model.H)
    e_w, f = _constrained_ls(factor, hpd_solve(factor, w.conj().T), constraints)
    return _whitened_estimator(model, e_w, _unwhitened(model, e_w), f, "cblue_direct")


def cblue_nullspace(model: LinearModel, param: NullspaceParam) -> AffineEstimator:
    """Constrained minimum-variance unbiased estimator via the nullspace basis.

    Estimates the reduced coordinates of ``x`` over the feasible set
    ``particular + basis @ alpha`` and lifts the result back.  Only the
    reduced measurement matrix ``H @ basis`` must have full column rank, so
    this form also handles models with fewer measurements than parameters.
    """
    h = model.H
    if param.basis.shape[0] != h.shape[1]:
        raise DimensionMismatch(
            f"nullspace basis has {param.basis.shape[0]} rows, model has "
            f"{h.shape[1]} parameters"
        )
    w, factor = model.whitened_gram(h @ param.basis, REDUCED, RankDeficientReducedModel)
    # unwhiten the reduced estimator before lifting it: it has n0 rows, so its
    # adjoint is tall even when the model is underdetermined
    reduced_w = hpd_solve(factor, w.conj().T)
    e = param.basis @ _unwhitened(model, reduced_w)
    xp = param.particular
    f = xp - e @ (h @ xp)
    return _whitened_estimator(model, param.basis @ reduced_w, e, f, "cblue_nullspace")


def cblue(model: LinearModel, constraints: ConstraintSet) -> AffineEstimator:
    """Constrained minimum-variance unbiased estimator, either form.

    Uses the direct form when the model admits it and falls back to the
    nullspace form otherwise.
    """
    try:
        return cblue_direct(model, constraints)
    except RankDeficient:
        return cblue_nullspace(model, parameterize(constraints))


def mean_subtracted(base: AffineEstimator) -> AffineEstimator:
    """Compose an estimator with subtraction of its output mean.

    The resulting estimate always sums to zero, which enforces the single
    constraint ``ones @ x = 0`` and is the intuitive fix applied to
    unconstrained estimators in that setting.
    """
    n_x = base.E.shape[0]
    centering = np.eye(n_x) - np.full((n_x, n_x), 1.0 / n_x)
    return AffineEstimator(
        E=centering @ base.E, f=centering @ base.f, label=base.label + "_meansub"
    )


def project_onto_constraints(
    base: AffineEstimator, constraints: ConstraintSet
) -> AffineEstimator:
    """Compose an estimator with orthogonal projection onto ``A @ x = b``.

    Generalizes :func:`mean_subtracted` to arbitrary constraints; preserves
    unbiasedness over the feasible set but not minimum variance.
    """
    a = constraints.A
    if a.shape[1] != base.E.shape[0]:
        raise DimensionMismatch(
            f"constraints act on {a.shape[1]} parameters, estimator returns "
            f"{base.E.shape[0]}"
        )
    e, f = _constrain(base.E, base.f, a.conj().T, constraints)
    return AffineEstimator(E=e, f=f, label=base.label + "_projected")


def covariance(est: AffineEstimator, noise_cov) -> CovarianceResult:
    """Error covariance ``E @ C_nn @ E^H`` of an affine estimator.

    If ``noise_cov`` is the very array ``est.C_nn``, the ``model.C_nn`` a whitened
    constructor built ``est`` against, the covariance is ``E_w @ E_w^H`` from the
    kept whitened estimator.  Any other array, an equal copy included, takes the
    general product.
    """
    if est.E_w is not None and noise_cov is est.C_nn:
        return CovarianceResult(C=hermitian_product("error covariance", est.E_w, est.E_w.conj().T))
    c = as_matrix(noise_cov, "noise covariance")
    if c.shape[0] != c.shape[1] or c.shape[0] != est.E.shape[1]:
        raise DimensionMismatch(
            f"noise covariance {c.shape} does not match estimator matrix "
            f"{est.E.shape}"
        )
    return CovarianceResult(
        C=hermitian_product("error covariance", est.E, c, est.E.conj().T)
    )


def analytic_cblue_covariance(model: LinearModel, constraints_or_param) -> CovarianceResult:
    """Closed-form error covariance of the constrained minimum-variance estimator.

    Pass a :class:`NullspaceParam` for the reduced form
    ``N (N^H P N)^-1 N^H`` or a :class:`ConstraintSet` for the full-rank form
    ``P^-1 - P^-1 A^H (A P^-1 A^H)^-1 A P^-1``; the two agree whenever both
    are defined.
    """
    if isinstance(constraints_or_param, NullspaceParam):
        basis = constraints_or_param.basis
        _, factor = model.whitened_gram(model.H @ basis, REDUCED, RankDeficientReducedModel)
        return CovarianceResult(
            C=hermitian_product("error covariance", basis, hpd_solve(factor, basis.conj().T))
        )
    if isinstance(constraints_or_param, ConstraintSet):
        constraints = constraints_or_param
        _check_parameter_dims(model, constraints)
        _, factor = model.whitened_gram(model.H)
        cov, _ = _constrained_ls(factor, hpd_solve(factor, np.eye(model.n_x)), constraints)
        return CovarianceResult(C=hermitian_product("error covariance", cov))
    raise TypeError(
        "expected a ConstraintSet or NullspaceParam, got "
        f"{type(constraints_or_param).__name__}"
    )


def kkt_oracle(model: LinearModel, constraints: ConstraintSet, y) -> np.ndarray:
    """Constrained weighted-least-squares estimate via the stationarity system.

    Solves the augmented system ``[[P, A^H], [A, 0]] @ [x; mu] =
    [H^H C^-1 y; b]`` with a general dense solver.  Deliberately shares no
    code path with the estimator constructors, so it serves as an
    independent cross-check of both.
    """
    _check_parameter_dims(model, constraints)
    rhs_y = as_vector(y, "measurement")
    if rhs_y.shape[0] != model.n_y:
        raise DimensionMismatch(
            f"measurement has {rhs_y.shape[0]} entries, model expects {model.n_y}"
        )
    h, a = model.H, constraints.A
    n_x, n_b = model.n_x, constraints.n_b
    weighted = np.linalg.solve(model.C_nn, np.column_stack([h, rhs_y]))
    p = h.conj().T @ weighted[:, :n_x]
    top = h.conj().T @ weighted[:, n_x]
    kkt = np.block(
        [
            [p, a.conj().T],
            [a, np.zeros((n_b, n_b), dtype=np.complex128)],
        ]
    )
    rhs = np.concatenate([top, constraints.b])
    try:
        solution = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularKktSystem("augmented stationarity system is singular") from exc
    residual = np.linalg.norm(kkt @ solution - rhs)
    if not np.isfinite(solution).all() or residual > 1e-6 * (np.linalg.norm(rhs) + 1.0):
        raise SingularKktSystem(
            "augmented stationarity system is numerically singular"
        )
    return solution[:n_x]
