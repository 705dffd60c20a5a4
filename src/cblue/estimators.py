"""Affine estimators for linearly constrained parameters.

All estimators here are affine maps ``x_hat = E @ y + f``.  The unconstrained
baselines are ordinary least squares (``E = (H^H H)^-1 H^H``) and the best
linear unbiased estimator (``E = (H^H C^-1 H)^-1 H^H C^-1``).  The constrained
ones enforce ``A @ x = b`` exactly: constrained least squares, and the
minimum-variance affine unbiased estimator in two algebraically equivalent
forms.  The nullspace form works whenever H restricted to the constraint
nullspace has full column rank, which includes underdetermined models; the
direct form additionally needs H itself to have full column rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    RankDeficient,
    RankDeficientConstraints,
    RankDeficientReducedModel,
    SingularKktSystem,
)
from .model import ConstraintSet, LinearModel, NullspaceParam, parameterize
from .numerics import as_matrix, as_vector, hermitized, hpd_factor, hpd_solve


@dataclass(frozen=True, eq=False)
class AffineEstimator:
    """Estimator ``x_hat = E @ y + f`` with a label naming its kind."""

    E: np.ndarray
    f: np.ndarray
    label: str

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
    per_element_variance: np.ndarray = None

    def __post_init__(self):
        c = as_matrix(self.C, "covariance")
        if c.shape[0] != c.shape[1]:
            raise DimensionMismatch(f"covariance must be square, got {c.shape}")
        scale = max(np.linalg.norm(c), 1.0)
        if np.linalg.norm(c - c.conj().T) > 1e-12 * scale:
            raise ValueError("covariance must be Hermitian")
        diag = c.diagonal().real.copy()
        if (diag < -1e-12 * scale).any():
            raise ValueError("covariance diagonal has negative entries")
        diag.flags.writeable = False
        object.__setattr__(self, "C", c)
        object.__setattr__(self, "per_element_variance", diag)


def _gram_factor(model: LinearModel, weighted: bool):
    """Factor Q (unweighted) or P (noise-weighted), mapping PD failure to rank."""
    h = model.H
    n_y, n_x = h.shape
    if n_y < n_x:
        raise RankDeficient(
            f"measurement matrix cannot reach full column rank: "
            f"{n_y} measurements for {n_x} parameters"
        )
    if weighted:
        whitened = hpd_solve(model.noise_factor, h)
        gram = hermitized(h.conj().T @ whitened)
    else:
        whitened = None
        gram = hermitized(h.conj().T @ h)
    try:
        factor = hpd_factor(gram)
    except NotPositiveDefinite as exc:
        raise RankDeficient(
            "measurement matrix is numerically rank deficient (not full column rank)"
        ) from exc
    return factor, whitened


def _reduced_gram_factor(model: LinearModel, basis: np.ndarray):
    """Factor the reduced Gram ``(H N)^H C^-1 (H N)``, mapping PD failure to rank.

    Returns the factor and the whitened reduced matrix ``C^-1 H N``.
    """
    reduced = model.H @ basis
    whitened = hpd_solve(model.noise_factor, reduced)
    gram = hermitized(reduced.conj().T @ whitened)
    try:
        factor = hpd_factor(gram)
    except NotPositiveDefinite as exc:
        raise RankDeficientReducedModel(
            "measurement matrix restricted to the constraint nullspace is "
            "numerically rank deficient"
        ) from exc
    return factor, whitened


def _check_parameter_dims(model: LinearModel, constraints: ConstraintSet):
    if constraints.n_x != model.n_x:
        raise DimensionMismatch(
            f"constraints act on {constraints.n_x} parameters, model has {model.n_x}"
        )


def _constrain(e_free: np.ndarray, factor, constraints: ConstraintSet):
    """Restrict an inverse-Gram-based estimator matrix to the constraint set.

    Given ``e_free = G^-1 B`` for a Gram matrix G with Cholesky ``factor``,
    returns the pair (E, f) of the estimator projected onto ``A @ x = b``
    obliquely along the G geometry.
    """
    a = constraints.A
    g = hpd_solve(factor, a.conj().T)
    s = hermitized(a @ g)
    try:
        s_factor = hpd_factor(s)
    except NotPositiveDefinite as exc:
        raise RankDeficient(
            "constraint matrix loses rank under the model geometry"
        ) from exc
    e = e_free - g @ hpd_solve(s_factor, a @ e_free)
    f = g @ hpd_solve(s_factor, constraints.b)
    return e, f


def ls(model: LinearModel) -> AffineEstimator:
    """Ordinary least squares; needs a full-column-rank measurement matrix."""
    factor, _ = _gram_factor(model, weighted=False)
    e = hpd_solve(factor, model.H.conj().T)
    return AffineEstimator(E=e, f=np.zeros(model.n_x), label="ls")


def blue(model: LinearModel) -> AffineEstimator:
    """Minimum-variance unbiased affine estimator without constraints."""
    factor, whitened = _gram_factor(model, weighted=True)
    e = hpd_solve(factor, whitened.conj().T)
    return AffineEstimator(E=e, f=np.zeros(model.n_x), label="blue")


def cls(model: LinearModel, constraints: ConstraintSet) -> AffineEstimator:
    """Least squares restricted to the constraint set ``A @ x = b``."""
    _check_parameter_dims(model, constraints)
    factor, _ = _gram_factor(model, weighted=False)
    e_free = hpd_solve(factor, model.H.conj().T)
    e, f = _constrain(e_free, factor, constraints)
    return AffineEstimator(E=e, f=f, label="cls")


def cblue_direct(model: LinearModel, constraints: ConstraintSet) -> AffineEstimator:
    """Constrained minimum-variance unbiased estimator, full-rank form.

    Valid when H has full column rank; use :func:`cblue_nullspace` otherwise.
    Identical to :func:`cls` with the noise-weighted Gram matrix in place of
    the plain one.
    """
    _check_parameter_dims(model, constraints)
    factor, whitened = _gram_factor(model, weighted=True)
    e_free = hpd_solve(factor, whitened.conj().T)
    e, f = _constrain(e_free, factor, constraints)
    return AffineEstimator(E=e, f=f, label="cblue_direct")


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
    factor, whitened = _reduced_gram_factor(model, param.basis)
    e = param.basis @ hpd_solve(factor, whitened.conj().T)
    xp = param.particular
    f = xp - e @ (h @ xp)
    return AffineEstimator(E=e, f=f, label="cblue_nullspace")


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
    try:
        gram_factor = hpd_factor(hermitized(a @ a.conj().T))
    except NotPositiveDefinite as exc:
        raise RankDeficientConstraints(
            "constraint matrix is numerically rank deficient"
        ) from exc
    e = base.E - a.conj().T @ hpd_solve(gram_factor, a @ base.E)
    f = base.f - a.conj().T @ hpd_solve(gram_factor, a @ base.f - constraints.b)
    return AffineEstimator(E=e, f=f, label=base.label + "_projected")


def covariance(est: AffineEstimator, noise_cov) -> CovarianceResult:
    """Error covariance ``E @ C_nn @ E^H`` of an affine estimator."""
    c = as_matrix(noise_cov, "noise covariance")
    if c.shape[0] != c.shape[1] or c.shape[0] != est.E.shape[1]:
        raise DimensionMismatch(
            f"noise covariance {c.shape} does not match estimator matrix "
            f"{est.E.shape}"
        )
    return CovarianceResult(C=hermitized(est.E @ c @ est.E.conj().T))


def analytic_cblue_covariance(model: LinearModel, constraints_or_param) -> CovarianceResult:
    """Closed-form error covariance of the constrained minimum-variance estimator.

    Pass a :class:`NullspaceParam` for the reduced form
    ``N (N^H P N)^-1 N^H`` or a :class:`ConstraintSet` for the full-rank form
    ``P^-1 - P^-1 A^H (A P^-1 A^H)^-1 A P^-1``; the two agree whenever both
    are defined.
    """
    if isinstance(constraints_or_param, NullspaceParam):
        basis = constraints_or_param.basis
        factor, _ = _reduced_gram_factor(model, basis)
        cov = basis @ hpd_solve(factor, basis.conj().T)
        return CovarianceResult(C=hermitized(cov))
    if isinstance(constraints_or_param, ConstraintSet):
        constraints = constraints_or_param
        _check_parameter_dims(model, constraints)
        factor, _ = _gram_factor(model, weighted=True)
        p_inv = hpd_solve(factor, np.eye(model.n_x))
        cov, _ = _constrain(p_inv, factor, constraints)
        return CovarianceResult(C=hermitized(cov))
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
