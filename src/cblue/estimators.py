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

The whitened constructors (BLUE and both constrained BLUE forms) solve least
squares on the whitened model ``L^-1 y = L^-1 H x + w`` and keep its factors,
not its n_x x n_y map.  Each keeps the whitened matrix W, the offset f, the
model's own ``C_nn`` array and its factor L.  BLUE also keeps the Cholesky
factor ``L_G`` of ``W^H W``, the nullspace form keeps ``L_G`` and the lift (the
nullspace basis), and the direct form keeps ``T^H`` alone.  The whitened map is
``E_w = lift T T^H W^H``, where ``T = L_G^-H`` for BLUE and the nullspace form
and ``T = L_G^-H (I - Q Q^H)``, the constraint step applied to ``L_G^-H``, for
the direct form, whose lift is the identity.  The direct form's
``T^H = L_G^-1 - Q (Q^H L_G^-1)`` is the step's projection in u applied to the
triangular inverse ``L_G^-1``; it is built in the buffer of its own fresh Gram
factor, which it overwrites, so ``L_G`` is gone once the estimator exists.
Every form applies the map as ``lift T T^H W^H (L^-1 y) + f``: two products with
the kept ``T^H`` for the direct form, two solves against ``L_G`` for the others,
so O(n^2) per measurement vector.  One formula, ``E_w = lift (T T^H W^H)``,
forms the whitened map of every form, and ``E = E_w L^-1``; both are formed
only when first read or when a batch of measurements is wide enough that
forming E costs less.  BLUE forms ``E_w`` at construction, so a non-finite map
is refused there.
The error covariance ``E C_nn E^H`` is then ``E_w E_w^H = lift T T^H lift^H``:
handed that very ``C_nn`` array, :func:`covariance` takes the per-element
variances from the squared row norms of ``lift T``, the variance rows: the
columns of ``L_G^-1`` for BLUE, of the kept ``T^H`` for the direct form, and
``L_G^-1 N^H`` for the nullspace form, whose right-hand side is dense.  It forms
the full matrix ``E_w E_w^H`` only when it is first read; any other array, an
equal copy included, takes the general product.  The deferred reads are
:func:`functools.cached_property` reads on private subclasses, so a failed
read can be retried and a copy or pickle carries what is still unformed.
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
    ConstraintSet,
    LinearModel,
    NullspaceParam,
    _check_parameter_dims,
    _unformed,
    parameterize,
)
from .numerics import (
    _HERMITIAN_RTOL,
    ConstraintStep,
    HpdFactor,
    as_matrix,
    as_vector,
    constraint_step,
    gram_factor,
    half_solve,
    hermitian_product,
    hpd_solve,
    inverse_factor,
    reciprocal_power,
    scaled_asymmetry,
)

REDUCED = "reduced measurement matrix H N"


@dataclass(frozen=True, eq=False)
class AffineEstimator:
    """Estimator ``x_hat = E @ y + f`` with a label naming its kind.

    ``E_w`` and ``C_nn`` are set only by the whitened constructors: ``E_w = E @ L``
    is the estimator on the whitened model and ``C_nn = L @ L^H`` is the model's
    read-only noise covariance it was whitened against.  Otherwise both are None.
    Such an estimator is an instance of a private subclass that keeps the factors
    of ``E_w`` and L, and forms ``E_w`` and ``E`` on first read.  It applies the
    factors to ``L^-1 y`` until ``E`` is formed, or forms ``E`` for a matrix of
    more columns than ``E`` has rows, where one unwhitening costs less than
    whitening each column.  An estimate that leaves double precision raises
    ``EstimationError``.
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
        # E is in the instance dict from the start, except on a whitened estimator before it is read
        factored = "E" not in self.__dict__
        n_y = self._w.shape[0] if factored else self.E.shape[1]
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
        with np.errstate(over="ignore", invalid="ignore"):
            if factored and (arr.ndim == 1 or arr.shape[1] <= self.f.shape[0]):
                x = self._factored(arr) + offset
            else:
                x = self.E @ arr + offset
        if not np.isfinite(x).all():
            raise EstimationError(
                "estimate is not finite in double precision; rescale the problem"
            )
        return x


@dataclass(frozen=True, eq=False)
class CovarianceResult:
    """Estimator error covariance with its real diagonal split out.

    Both checks are relative to the norm of ``C``.  :func:`covariance` of a
    whitened estimator against its own ``C_nn`` returns a private subclass that
    sets the variances from the estimator's variance rows and forms ``C`` on
    first read.
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
    """Least squares on the whitened matrix W, kept as its factors.

    With ``W^H W = L_G L_G^H``, ``E_w = lift G^-1 W^H`` for ``G^-1 = L_G^-H L_G^-1``,
    where the lift is the nullspace basis or None (the identity).  The estimator
    keeps W, L_G, the lift, the offset and the noise factor L; ``E_w`` and E are
    formed on first read, from :meth:`_core` applied to ``W^H``.
    """

    _lift = None

    def __post_init__(self):
        # a copy made by dataclasses.replace keeps the E it is given and no factors
        super().__post_init__()
        object.__setattr__(self, "E_w", None)

    def _core(self, u):
        """``G^-1 u``, the map before the lift, on ``u = W^H L^-1 y``."""
        return hpd_solve(self._gram, u)

    def _variance_rows(self):
        """Rows whose squared norms are the variances: here the conjugate of ``lift L_G^-H``."""
        if self._lift is None:
            return inverse_factor(self._gram).T
        return half_solve(self._gram, self._lift.conj().T).T

    def _factored(self, arr):
        """``lift G^-1 W^H L^-1 arr``, ``L^-1 arr`` scaled by a power of 2 so no step overflows."""
        z = half_solve(self._noise_factor, arr)
        power = reciprocal_power(float(np.abs(z.ravel("K").view(np.float64)).max(initial=0.0)))
        x = self._core(_adjoint_times(self._w, z * power))
        return (x if self._lift is None else self._lift @ x) / power

    @cached_property
    def E_w(self):
        e_w = self._core(self._w.conj().T)
        if self._lift is not None:
            e_w = self._lift @ e_w
        if not np.isfinite(e_w).all():
            raise ValueError("estimator matrix contains non-finite entries")
        e_w.flags.writeable = False
        return e_w

    @cached_property
    def E(self):
        if self._lift is None:
            return as_matrix(_unwhitened(self._noise_factor, self.E_w), "estimator matrix")
        # unwhitening before lifting solves against the reduced map, which has n0
        # rows, so its adjoint is tall even when the model is underdetermined
        e = _unwhitened(self._noise_factor, self._core(self._w.conj().T))
        return as_matrix(self._lift @ e, "estimator matrix")


@dataclass(frozen=True, eq=False)
class _ConstrainedWhitenedEstimator(_WhitenedEstimator):
    """The direct constrained form: ``G^-1`` becomes ``T T^H``, and ``T^H`` is kept in place of ``L_G``."""

    def _core(self, u):
        return _adjoint_times(self._t_adjoint, self._t_adjoint @ u)

    def _variance_rows(self):
        return self._t_adjoint.T


@dataclass(frozen=True, eq=False)
class _WhitenedCovariance(CovarianceResult):
    """``E_w E_w^H`` with its variances set; C is formed from ``E_w`` and checked on first read."""

    @cached_property
    def C(self):
        e_w = self._estimator.E_w
        c = CovarianceResult(hermitian_product("error covariance", e_w, e_w.conj().T)).C
        del self.__dict__["_estimator"]
        return c


def _adjoint_times(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``m^H @ v`` for a vector or matrix ``v``, without copying ``m``."""
    return (v.conj().T @ m).conj().T


def _unwhitened(noise_factor: HpdFactor, m_w: np.ndarray) -> np.ndarray:
    """``m_w @ L^-1``: the map on y of a map ``m_w`` on the whitened measurement ``L^-1 y``."""
    return half_solve(noise_factor, m_w.conj().T, adjoint=True).conj().T


def _constrained_inverse(step: ConstraintStep) -> np.ndarray:
    """``T^H = L_G^-1 - Q (Q^H L_G^-1)``, the step in u on ``L_G^-1`` for its factor ``L_G``.

    ``T^H`` is built in the buffer of ``L_G``, inverted in place and then corrected in
    place, so the step is consumed: pass only a step on a fresh Gram factor that
    nothing else holds.
    """
    t_adjoint = step.complement(inverse_factor(step.factor, overwrite=True), overwrite=True)
    t_adjoint.flags.writeable = False
    return t_adjoint


def _whitened_estimator(cls, model: LinearModel, w, f, label: str, **factors) -> AffineEstimator:
    """Whitened estimator of class ``cls`` on the whitened matrix ``w``, with offset ``f``."""
    return _unformed(
        cls,
        f=as_vector(f, "estimator offset"),
        label=label,
        C_nn=model.C_nn,
        _noise_factor=model.noise_factor,
        _w=w,
        **factors,
    )


def ls(model: LinearModel) -> AffineEstimator:
    """Ordinary least squares; needs a full-column-rank measurement matrix."""
    e = hpd_solve(gram_factor(RankDeficient, "measurement matrix", model.H), model.H.conj().T)
    return AffineEstimator(E=e, f=np.zeros(model.n_x), label="ls")


def blue(model: LinearModel) -> AffineEstimator:
    """Minimum-variance unbiased affine estimator without constraints."""
    w, factor = model.whitened_gram(model.H)
    f = np.zeros(model.n_x)
    est = _whitened_estimator(_WhitenedEstimator, model, w, f, "blue", _gram=factor)
    est.E_w  # formed now, so that a non-finite map is refused at construction
    return est


def cls(model: LinearModel, constraints: ConstraintSet) -> AffineEstimator:
    """Least squares restricted to the constraint set ``A @ x = b``."""
    _check_parameter_dims(model, constraints)
    factor = gram_factor(RankDeficient, "measurement matrix", model.H)
    step = constraint_step(constraints.A, constraints.b, factor)
    e = step.project(half_solve(factor, model.H.conj().T))
    return AffineEstimator(E=e, f=step.offset, label="cls")


def cblue_direct(model: LinearModel, constraints: ConstraintSet) -> AffineEstimator:
    """Constrained minimum-variance unbiased estimator, full-rank form.

    Valid when H has full column rank; use :func:`cblue_nullspace` otherwise.
    Identical to :func:`cls` on the whitened model ``L^-1 y = L^-1 H x + w``.
    """
    _check_parameter_dims(model, constraints)
    w, factor = model.whitened_gram(model.H)
    step = constraint_step(constraints.A, constraints.b, factor)
    # E_w = T T^H W^H is formed only when read; T^H takes over the buffer of the factor
    return _whitened_estimator(
        _ConstrainedWhitenedEstimator, model, w, step.offset, "cblue_direct",
        _t_adjoint=_constrained_inverse(step),
    )


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
    xp = param.particular
    # x_p - E_w L^-1 H x_p, whitening H x_p as one tall column like every solve here
    core = hpd_solve(factor, _adjoint_times(w, half_solve(model.noise_factor, h @ xp[:, None])))
    f = xp - param.basis @ core[:, 0]
    return _whitened_estimator(
        _WhitenedEstimator, model, w, f, "cblue_nullspace", _gram=factor, _lift=param.basis
    )


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
    step = constraint_step(a, constraints.b)
    e = step.project(np.column_stack([base.E, base.f]))
    return AffineEstimator(E=e[:, :-1], f=e[:, -1] + step.offset, label=base.label + "_projected")


def covariance(est: AffineEstimator, noise_cov) -> CovarianceResult:
    """Error covariance ``E @ C_nn @ E^H`` of an affine estimator.

    If ``noise_cov`` is the very array ``est.C_nn``, the ``model.C_nn`` a whitened
    constructor built ``est`` against, the covariance is ``E_w @ E_w^H`` of the
    kept whitened estimator: its per-element variances are the squared row norms
    of the variance rows ``lift T``, and its ``C`` is that product, formed from
    ``E_w`` and checked on first read.  Any other array, an equal copy included,
    takes the general product.
    """
    if est.C_nn is not None and noise_cov is est.C_nn:
        rows = est._variance_rows()
        with np.errstate(over="ignore", invalid="ignore"):
            variance = np.einsum("ij,ij->i", rows.real, rows.real) + np.einsum(
                "ij,ij->i", rows.imag, rows.imag
            )
        if not np.isfinite(variance).all():
            raise EstimationError(
                "error covariance is not finite in double precision; rescale the problem"
            )
        variance.flags.writeable = False
        return _unformed(_WhitenedCovariance, per_element_variance=variance, _estimator=est)
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
    are defined.  Each reads the factors of its constructor, so it is refused where
    that constructor is: ``L_G L_G^H = N^H P N`` of :func:`cblue_nullspace`, or the
    ``T^H`` of :func:`cblue_direct`, ``T = R^-1 (I - Q Q^H)`` for ``P = R^H R``, so
    that the full-rank form is ``T T^H`` and nothing cancels.
    """
    if isinstance(constraints_or_param, NullspaceParam):
        basis = constraints_or_param.basis
        factor = cblue_nullspace(model, constraints_or_param)._gram
        return CovarianceResult(
            C=hermitian_product("error covariance", basis, hpd_solve(factor, basis.conj().T))
        )
    if isinstance(constraints_or_param, ConstraintSet):
        t_adjoint = cblue_direct(model, constraints_or_param)._t_adjoint
        return CovarianceResult(
            C=hermitian_product("error covariance", t_adjoint.conj().T, t_adjoint)
        )
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
