"""Affine estimators for linearly constrained parameters.

All estimators here are affine maps ``x_hat = E @ y + f``, and each one is
least squares on a white-noise model matrix: H for least squares, ``L^-1 H``
for the best linear unbiased estimator (BLUE, with ``C_nn = L @ L^H``), and
``L^-1 H N`` for the nullspace form of the constrained BLUE, where N spans the
constraint nullspace.  Constrained least squares and the direct form of the
constrained BLUE add :func:`~cblue.numerics.constraint_step`, which enforces
``A @ x = b`` by an orthogonal projection in the coordinates ``u = R x``, where
``R^H R`` is their Gram matrix; :func:`project_onto_constraints` takes the same
step with R the identity.  The nullspace form works whenever ``H N`` has full
column rank, which includes underdetermined models; the direct form needs H
itself to have full column rank.

The whitened constructors (BLUE and both constrained BLUE forms) build the
estimator ``E_w`` of the whitened model ``L^-1 y = L^-1 H x + w`` and keep it
with the model's own ``C_nn`` array and its factor L.  They apply it as
``E_w (L^-1 y) + f`` and form ``E = E_w L^-1`` only when it is first read or a
batch of measurements is wide enough that forming it costs less.
The error covariance ``E C_nn E^H`` is then ``E_w E_w^H``: handed that very
``C_nn`` array, :func:`covariance` takes the per-element variances from the
squared row norms of ``E_w`` and forms the full matrix only when it is first
read; any other array, an equal copy included, takes the general product.
Both are :func:`functools.cached_property` reads on private subclasses, so a
failed read can be retried and a copy or pickle carries what is still unformed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    EstimationError,
    RankDeficient,
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
    _HERMITIAN_RTOL,
    HpdFactor,
    as_matrix,
    as_vector,
    constraint_step,
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
    Such an estimator is an instance of a private subclass that forms ``E`` on
    first read and keeps L.  It applies ``E_w`` to ``L^-1 y`` until ``E`` is
    formed, or forms ``E`` for a matrix of more columns than ``E`` has rows, where
    one unwhitening costs less than whitening each column.
    """

    E: np.ndarray
    f: np.ndarray
    label: str
    E_w = None
    C_nn = None

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
        n_y = (self.E if self.E_w is None else self.E_w).shape[1]
        if arr.ndim == 1:
            if arr.shape[0] != n_y:
                raise DimensionMismatch(
                    f"measurement has {arr.shape[0]} entries, expected {n_y}"
                )
            offset = self.f
        elif arr.ndim == 2:
            if arr.shape[0] != n_y:
                raise DimensionMismatch(
                    f"measurements have {arr.shape[0]} rows, expected {n_y}"
                )
            offset = self.f[:, None]
        else:
            raise DimensionMismatch("measurements must be a vector or a matrix of columns")
        # E is in the instance dict once formed, and from the start when E_w is None
        if "E" in self.__dict__ or (arr.ndim == 2 and arr.shape[1] > self.E_w.shape[0]):
            return self.E @ arr + offset
        return self.E_w @ half_solve(self._noise_factor, arr) + offset


@dataclass(frozen=True, eq=False)
class CovarianceResult:
    """Estimator error covariance with its real diagonal split out.

    Both checks are relative to the norm of ``C``.  :func:`covariance` of a
    whitened estimator against its own ``C_nn`` returns a private subclass that
    sets the variances from the rows of ``E_w`` and forms ``C`` on first read.
    """

    C: np.ndarray
    per_element_variance: np.ndarray = field(init=False)

    def __post_init__(self):
        c = as_matrix(self.C, "covariance")
        if c.shape[0] != c.shape[1]:
            raise DimensionMismatch(f"covariance must be square, got {c.shape}")
        asymmetry, size, power = scaled_asymmetry(c)
        if asymmetry > _HERMITIAN_RTOL * size:
            raise ValueError("covariance must be Hermitian")
        diag = c.diagonal().real.copy()
        if (diag * power < -_HERMITIAN_RTOL * size).any():
            raise ValueError("covariance diagonal has negative entries")
        diag.flags.writeable = False
        object.__setattr__(self, "C", c)
        object.__setattr__(self, "per_element_variance", diag)


@dataclass(frozen=True, eq=False)
class _WhitenedEstimator(AffineEstimator):
    """Estimator with whitened map ``E_w = lift @ core_w``; E is formed on first read."""

    @cached_property
    def E(self):
        # unwhitening before lifting solves against the reduced map, which has n0
        # rows, so its adjoint is tall even when the model is underdetermined
        e = _unwhitened(self._noise_factor, self._core_w)
        e = as_matrix(e if self._lift is None else self._lift @ e, "estimator matrix")
        del self.__dict__["_core_w"], self.__dict__["_lift"]
        return e


@dataclass(frozen=True, eq=False)
class _WhitenedCovariance(CovarianceResult):
    """``E_w E_w^H`` with its variances set; C is formed and checked on first read."""

    @cached_property
    def C(self):
        e_w = self._E_w
        c = CovarianceResult(hermitian_product("error covariance", e_w, e_w.conj().T)).C
        del self.__dict__["_E_w"]
        return c


def _unformed(cls, **attributes):
    """An instance of ``cls`` holding ``attributes``, built without ``__init__``."""
    obj = object.__new__(cls)
    obj.__dict__.update(attributes)
    return obj


def _gram_factor(h: np.ndarray):
    """Factor ``H^H H`` for the unwhitened least-squares estimators, or raise ``RankDeficient``."""
    return gram_factor(RankDeficient, "measurement matrix", h)


def _unwhitened(noise_factor: HpdFactor, m_w: np.ndarray) -> np.ndarray:
    """``m_w @ L^-1``: the map on y of a map ``m_w`` on the whitened measurement ``L^-1 y``."""
    return half_solve(noise_factor, m_w.conj().T, adjoint=True).conj().T


def _whitened_estimator(model: LinearModel, core_w, f, label: str, lift=None) -> AffineEstimator:
    """Estimator with whitened map ``E_w = lift @ core_w`` (``core_w`` without a lift) and offset ``f``."""
    e_w = core_w if lift is None else lift @ core_w
    if not np.isfinite(e_w).all():
        raise ValueError("estimator matrix contains non-finite entries")
    e_w.flags.writeable = False
    return _unformed(
        _WhitenedEstimator,
        f=as_vector(f, "estimator offset"),
        label=label,
        E_w=e_w,
        C_nn=model.C_nn,
        _noise_factor=model.noise_factor,
        _core_w=core_w,
        _lift=lift,
    )


def ls(model: LinearModel) -> AffineEstimator:
    """Ordinary least squares; needs a full-column-rank measurement matrix."""
    e = hpd_solve(_gram_factor(model.H), model.H.conj().T)
    return AffineEstimator(E=e, f=np.zeros(model.n_x), label="ls")


def blue(model: LinearModel) -> AffineEstimator:
    """Minimum-variance unbiased affine estimator without constraints."""
    w, factor = model.whitened_gram(model.H)
    e_w = hpd_solve(factor, w.conj().T)
    return _whitened_estimator(model, e_w, np.zeros(model.n_x), "blue")


def cls(model: LinearModel, constraints: ConstraintSet) -> AffineEstimator:
    """Least squares restricted to the constraint set ``A @ x = b``."""
    _check_parameter_dims(model, constraints)
    factor = _gram_factor(model.H)
    m = half_solve(factor, model.H.conj().T)
    e, f = constraint_step(constraints.A, constraints.b, m, factor)
    return AffineEstimator(E=e, f=f, label="cls")


def cblue_direct(model: LinearModel, constraints: ConstraintSet) -> AffineEstimator:
    """Constrained minimum-variance unbiased estimator, full-rank form.

    Valid when H has full column rank; use :func:`cblue_nullspace` otherwise.
    Identical to :func:`cls` on the whitened model ``L^-1 y = L^-1 H x + w``.
    """
    _check_parameter_dims(model, constraints)
    w, factor = model.whitened_gram(model.H)
    m = half_solve(factor, w.conj().T)
    e_w, f = constraint_step(constraints.A, constraints.b, m, factor)
    return _whitened_estimator(model, e_w, f, "cblue_direct")


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
    reduced_w = hpd_solve(factor, w.conj().T)
    xp = param.particular
    # x_p - E_w L^-1 H x_p, whitening H x_p as one tall column like every solve here
    f = xp - param.basis @ (reduced_w @ half_solve(model.noise_factor, h @ xp[:, None]))[:, 0]
    return _whitened_estimator(model, reduced_w, f, "cblue_nullspace", lift=param.basis)


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
    e, f = base.E, base.f
    return AffineEstimator(
        E=e - e.mean(axis=0), f=f - f.mean(), label=base.label + "_meansub"
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
    e, p = constraint_step(a, constraints.b, np.column_stack([base.E, base.f]))
    return AffineEstimator(E=e[:, :-1], f=e[:, -1] + p, label=base.label + "_projected")


def covariance(est: AffineEstimator, noise_cov) -> CovarianceResult:
    """Error covariance ``E @ C_nn @ E^H`` of an affine estimator.

    If ``noise_cov`` is the very array ``est.C_nn``, the ``model.C_nn`` a whitened
    constructor built ``est`` against, the covariance is ``E_w @ E_w^H`` from the
    kept whitened estimator: its per-element variances are the squared row norms
    of ``E_w``, and its ``C`` is that product, formed and checked on first read.
    Any other array, an equal copy included, takes the general product.
    """
    e_w = est.E_w
    if e_w is not None and noise_cov is est.C_nn:
        with np.errstate(over="ignore", invalid="ignore"):
            variance = np.einsum("ij,ij->i", e_w.real, e_w.real) + np.einsum(
                "ij,ij->i", e_w.imag, e_w.imag
            )
        if not np.isfinite(variance).all():
            raise EstimationError(
                "error covariance is not finite in double precision; rescale the problem"
            )
        variance.flags.writeable = False
        return _unformed(_WhitenedCovariance, per_element_variance=variance, _E_w=e_w)
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
    are defined.  The full-rank form is ``T T^H``, with ``T = R^-1 (I - Q Q^H)`` the
    constraint step applied to ``R^-1`` for ``P = R^H R``: nothing cancels.
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
        t, _ = constraint_step(constraints.A, constraints.b, np.eye(model.n_x), factor)
        return CovarianceResult(C=hermitian_product("error covariance", t, t.conj().T))
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
