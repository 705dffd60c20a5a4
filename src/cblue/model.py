"""Measurement model and linear equality constraints.

The observation model is ``y = H @ x + n`` with zero-mean noise of known
covariance, and the parameter vector is required to satisfy ``A @ x = b``.
The constraint set is re-expressed through an orthonormal nullspace basis N
and a particular solution, so that feasible vectors are exactly
``x = particular + N @ alpha``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EstimationError, RankDeficient, RankDeficientConstraints
from .numerics import (
    HpdFactor,
    _hermitian_gated_factor,
    _lower_gram,
    _rank,
    as_matrix,
    as_vector,
    constraint_step,
    gram_factor,
    half_solve,
    nullspace_basis,
)


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Observation model ``y = H @ x + n`` with noise covariance ``C_nn``.

    ``C_nn`` must be Hermitian positive definite.  It is copied and checked
    once, and its Cholesky factor is computed once at construction and reused
    by the estimators.
    """

    H: np.ndarray
    C_nn: np.ndarray
    noise_factor: HpdFactor = field(init=False, repr=False)

    def __post_init__(self):
        h = as_matrix(self.H, "measurement matrix")
        c = as_matrix(self.C_nn, "noise covariance")
        if c.shape[0] != c.shape[1]:
            raise DimensionMismatch(f"noise covariance must be square, got {c.shape}")
        if c.shape[0] != h.shape[0]:
            raise DimensionMismatch(
                f"noise covariance is {c.shape[0]}-dimensional but the model has "
                f"{h.shape[0]} measurements"
            )
        object.__setattr__(self, "H", h)
        object.__setattr__(self, "C_nn", c)
        object.__setattr__(self, "noise_factor", _hermitian_gated_factor(c))

    @property
    def n_y(self) -> int:
        return self.H.shape[0]

    @property
    def n_x(self) -> int:
        return self.H.shape[1]

    def whitened_gram(self, m, subject="measurement matrix", rank_error=RankDeficient):
        """White-noise matrix ``W = L^-1 m`` and the factor of ``W^H W``, or ``rank_error``.

        A wide ``m`` goes to the rank gate unwhitened: the gate refuses it on
        its shape alone.
        """
        w = m if m.shape[0] < m.shape[1] else half_solve(self.noise_factor, m)
        return w, gram_factor(rank_error, subject, w)


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Linear equality constraints ``A @ x = b``.

    ``A`` must have full row rank and strictly fewer rows than columns;
    violating either is a construction error.
    """

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.A, "constraint matrix")
        rhs = as_vector(self.b, "constraint right-hand side")
        if rhs.shape[0] != a.shape[0]:
            raise DimensionMismatch(
                f"constraint right-hand side has {rhs.shape[0]} entries for "
                f"{a.shape[0]} constraint rows"
            )
        if a.shape[0] >= a.shape[1]:
            raise DimensionMismatch(
                f"constraints must leave degrees of freedom: got {a.shape[0]} rows "
                f"for {a.shape[1]} parameters"
            )
        if _rank(np.linalg.svd(a, compute_uv=False), a.shape) < a.shape[0]:
            raise RankDeficientConstraints(
                "constraint matrix is not full row rank; remove redundant rows"
            )
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "b", rhs)

    @property
    def n_b(self) -> int:
        return self.A.shape[0]

    @property
    def n_x(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True, eq=False)
class NullspaceParam:
    """Feasible-set parameterization ``x = particular + basis @ alpha``."""

    basis: np.ndarray
    particular: np.ndarray
    n0: int = field(init=False)

    def __post_init__(self):
        basis = as_matrix(self.basis, "nullspace basis")
        particular = as_vector(self.particular, "particular solution")
        if particular.shape[0] != basis.shape[0]:
            raise DimensionMismatch(
                f"particular solution has {particular.shape[0]} entries, "
                f"basis has {basis.shape[0]} rows"
            )
        n0 = basis.shape[1]
        # ||N^H N - I||_F from the lower triangle: each strictly-lower entry counts twice
        gram = _lower_gram(basis)
        diag = gram.diagonal() - 1.0
        np.fill_diagonal(gram, 0.0)
        defect = math.hypot(np.linalg.norm(diag), math.sqrt(2.0) * np.linalg.norm(gram))
        if not defect <= 1e-10 * math.sqrt(n0):
            raise ValueError("nullspace basis columns must be orthonormal")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "particular", particular)
        object.__setattr__(self, "n0", n0)

    def point(self, alpha) -> np.ndarray:
        """Feasible vector for reduced coordinates ``alpha`` of any leading shape."""
        alpha = np.asarray(alpha, dtype=np.complex128)
        # basis @ alpha term by term: a vector does not depend on others mapped with it
        return self.particular + sum(alpha[..., j, None] * self.basis[:, j] for j in range(self.n0))

    def coordinates(self, x) -> np.ndarray:
        """Reduced coordinates of a feasible vector ``x``."""
        x = np.asarray(x, dtype=np.complex128)
        return self.basis.conj().T @ (x - self.particular)


def _check_parameter_dims(model: LinearModel, constraints: ConstraintSet):
    if constraints.n_x != model.n_x:
        raise DimensionMismatch(
            f"constraints act on {constraints.n_x} parameters, model has {model.n_x}"
        )


@dataclass(frozen=True)
class CompatibilityReport:
    """Which estimator forms a model/constraint pair admits."""

    direct_form: bool
    nullspace_form: bool
    reasons: tuple[str, ...] = ()


def validate(model: LinearModel, constraints: ConstraintSet) -> CompatibilityReport:
    """Check which constrained estimator forms are admissible.

    Each form is built by its constructor: :func:`~cblue.estimators.cblue_direct`,
    which needs ``L^-1 H`` to have full column rank, and
    :func:`~cblue.estimators.cblue_nullspace` on :func:`parameterize`, which needs
    only ``L^-1 H N`` (N spanning the constraint nullspace).  Their refusals are the
    reasons by the rule :func:`~cblue.estimators.cblue` falls back by, so the report
    names the form ``cblue()`` uses, and an error that stops ``cblue()`` is raised.
    """
    from .estimators import cblue_direct, cblue_nullspace

    _check_parameter_dims(model, constraints)
    reasons = []

    def admits(build, refusals) -> bool:
        try:
            build()
        except refusals as exc:
            reasons.append(str(exc))
            return False
        return True

    direct = admits(lambda: cblue_direct(model, constraints), EstimationError)
    # cblue() builds the nullspace form only if the direct form is refused, so only
    # then can its other errors stop cblue()
    refusals = EstimationError if direct else RankDeficient
    reduced = admits(lambda: cblue_nullspace(model, parameterize(constraints)), refusals)
    return CompatibilityReport(direct_form=direct, nullspace_form=reduced, reasons=tuple(reasons))


def parameterize(constraints: ConstraintSet, particular=None) -> NullspaceParam:
    """Build the nullspace parameterization of the constraint set.

    By default the particular solution is the least-norm one, which is
    orthogonal to the nullspace.  Any other feasible vector may be supplied;
    the constrained estimates do not depend on this choice.
    """
    basis = nullspace_basis(constraints.A)
    if particular is None:
        xp = constraint_step(constraints.A, constraints.b).offset
    else:
        xp = as_vector(particular, "particular solution")
        if xp.shape[0] != constraints.n_x:
            raise DimensionMismatch(
                f"particular solution has {xp.shape[0]} entries for "
                f"{constraints.n_x} parameters"
            )
        residual = np.linalg.norm(constraints.A @ xp - constraints.b)
        scale = (
            np.linalg.norm(constraints.A) * np.linalg.norm(xp)
            + np.linalg.norm(constraints.b)
            + np.finfo(float).tiny
        )
        if residual > 1e-8 * scale:
            raise EstimationError(
                "supplied particular solution does not satisfy the constraints"
            )
    # the Gram check of the constructor is skipped: nullspace_basis made this basis orthonormal
    return _unformed(NullspaceParam, basis=basis, particular=xp, n0=basis.shape[1])


def _unformed(cls, **attributes):
    """An instance of ``cls`` holding ``attributes``, built without ``__init__``."""
    obj = object.__new__(cls)
    obj.__dict__.update(attributes)
    return obj
