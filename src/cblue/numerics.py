"""Dense complex linear algebra kernels.

Everything downstream funnels its matrix work through the helpers here:
checked Hermitian products, Cholesky factors of Hermitian positive definite
matrices and triangular solves against them, orthonormal nullspace bases,
and the constraint step: the orthogonal projection onto ``A @ x = b`` that
every constrained map and every least-norm solution comes from.  All
routines accept real input and promote it to complex.

Five BLAS and LAPACK routines from scipy do the work:

- ``zherk``, the Hermitian rank-k update, forms every Gram matrix ``W^H W`` of
  one matrix W, the constraint step's included.  It fills the lower triangle
  only, at half the flops of a general product.
- ``zpotrf`` makes every Cholesky factor.  It reads that lower triangle and
  returns a Fortran-order lower factor.  A Gram matrix made here is factored in
  place; an array from a caller is factored in a copy.
- ``ztrtrs`` solves against a factor, in :func:`half_solve`.
- ``ztrtri`` inverts a factor, in :func:`inverse_factor`, at a third of the
  flops of solving against the identity.  It inverts a copy unless asked to
  overwrite, which only a caller that made the factor and drops it may ask:
  each whitened estimator does, turning its own Gram factor ``L_G`` into
  ``L_G^-1``, the start of the one factor ``T^H`` it keeps.
- ``zgemm`` adds ``-Q (Q^H m)`` into ``m`` itself when
  :meth:`ConstraintStep.complement` is asked to overwrite; otherwise the step
  writes into a new array and never into ``m``.

Every other call leaves its inputs as they were.

The five are bound on first use.  Until a kernel first calls one of them, each
name holds a stand-in, and nothing from scipy is imported.  The first call of
any stand-in imports ``scipy.linalg``, binds every name that still holds its
stand-in to scipy's own wrapper and forwards the call; later calls reach scipy
directly.  Code that needs no kernel, the Monte Carlo sweep among it, never
loads scipy.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyNullspace,
    EstimationError,
    NotPositiveDefinite,
    RankDeficientConstraints,
)

_EPS = float(np.finfo(np.float64).eps)
_HERMITIAN_RTOL = 1e-12
_ASYMMETRY_BLOCK = 128
_BLAS_ROUTINES = ("zgemm", "zherk")
_LAPACK_ROUTINES = ("zpotrf", "ztrtri", "ztrtrs")


def _bind_routines() -> dict:
    """Import scipy's five routines and bind each name here that still holds its stand-in.

    A name that something else has replaced in the meantime keeps its replacement.
    Returns scipy's routines by name.
    """
    from scipy.linalg import blas, lapack

    routines = {name: getattr(blas, name) for name in _BLAS_ROUTINES}
    routines.update((name, getattr(lapack, name)) for name in _LAPACK_ROUTINES)
    namespace = globals()
    for name, routine in routines.items():
        if getattr(namespace[name], "_stands_for", None) == name:
            namespace[name] = routine
    return routines


def _stand_in(name: str):
    """Stand-in for scipy's routine ``name``: binds all five on its first call and forwards it."""

    def routine(*args, **kwargs):
        return _bind_routines()[name](*args, **kwargs)

    routine.__name__ = routine.__qualname__ = name
    routine._stands_for = name
    return routine


zgemm, zherk, zpotrf, ztrtri, ztrtrs = map(_stand_in, _BLAS_ROUTINES + _LAPACK_ROUTINES)


def as_matrix(value, name: str = "matrix") -> np.ndarray:
    """Coerce ``value`` to a read-only 2-D complex array with finite entries."""
    arr = np.array(value, dtype=np.complex128, order="C")
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionMismatch(f"{name} must have at least one row and column")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    arr.flags.writeable = False
    return arr


def as_vector(value, name: str = "vector") -> np.ndarray:
    """Coerce ``value`` to a read-only 1-D complex array with finite entries."""
    arr = np.array(value, dtype=np.complex128, order="C")
    if arr.ndim == 2 and 1 in arr.shape:
        arr = arr.reshape(-1)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise DimensionMismatch(f"{name} must have at least one entry")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    arr.flags.writeable = False
    return arr


def hermitized(m: np.ndarray) -> np.ndarray:
    """Return the Hermitian part of ``m``; cleans up matmul roundoff."""
    return 0.5 * (m + m.conj().T)


def hermitian_product(what: str, *factors: np.ndarray) -> np.ndarray:
    """Hermitian part of the product of ``factors``, taken left to right.

    A product that leaves the range of double precision raises
    ``EstimationError`` naming ``what``, not a numpy warning followed by a
    ``ValueError`` from the next consumer.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(what, hermitized(functools.reduce(operator.matmul, factors)))


def _finite(what: str, m: np.ndarray) -> np.ndarray:
    """The check on every array the package computes: ``m`` made read-only, or ``EstimationError``."""
    if not np.isfinite(m).all():
        raise EstimationError(f"{what} is not finite in double precision; rescale the problem")
    m.flags.writeable = False
    return m


def _lower_gram(w: np.ndarray) -> np.ndarray:
    """New Fortran-order array holding the lower triangle of ``w^H w``, zero above it."""
    return zherk(1.0, w, trans=2, lower=1)


def reciprocal_power(peak: float) -> float:
    """The normal power of 2 nearest ``1 / peak``, or 1 if ``peak`` is 0; scaling by it is exact."""
    return 2.0 ** -min(max(math.frexp(peak)[1], -1022), 1022)


def _peak_power(m: np.ndarray) -> float:
    """:func:`reciprocal_power` of the largest real or imaginary part of complex ``m`` in magnitude."""
    return reciprocal_power(float(np.abs(m.ravel("K").view(np.float64)).max(initial=0.0)))


def _scaled_residual(a, x, b) -> tuple[np.ndarray, int, float]:
    """``a x - b`` as ``(r, k, size)`` with ``a x - b = r 2**k``, formed so that no step overflows.

    a, then x and b together, then the residual are each scaled by the power of 2
    nearest the reciprocal of their peak.  The scalings are exact, and k sums their
    exponents, as in Blue's norm (ACM TOMS 4, 1978).  ``size`` is
    ``|a| |x| + |b|`` on the scale of r, the norms a residual is relative to; it is
    ``inf`` only where r is negligible against it.
    """
    a_power, x_power = _peak_power(a), _peak_power(np.concatenate([x, b]))
    a_s, x_s = a * a_power, x * x_power
    # b takes the two powers one at a time: their product alone may leave double range
    b_s = b * x_power * a_power
    residual = a_s @ x_s - b_s
    r_power = _peak_power(residual)
    exponent = sum(1 - math.frexp(power)[1] for power in (a_power, x_power, r_power))
    with np.errstate(over="ignore"):
        size = (np.linalg.norm(a_s) * np.linalg.norm(x_s) + np.linalg.norm(b_s)) * r_power
    return residual * r_power, exponent, float(size)


def scaled_asymmetry(m: np.ndarray) -> tuple[float, float, float]:
    """Frobenius norms of ``p (m - m^H)`` and ``p m``, and p, for square C-contiguous complex ``m``.

    p, the normal power of 2 nearest ``1 / max|m|``, scales exactly: relative tests on
    the two norms are tests on ``m``, with sums of squares that cannot overflow.  The
    difference is taken block by block over the lower block triangle, so the transpose
    is read in small tiles rather than with strides across the whole matrix.
    """
    parts = m.view(np.float64)
    power = reciprocal_power(float(max(parts.max(), -parts.min())))
    scaled = m * power
    n, step = m.shape[0], _ASYMMETRY_BLOCK
    squares = 0.0
    for i in range(0, n, step):
        for j in range(0, i + 1, step):
            d = scaled[i:i + step, j:j + step] - scaled[j:j + step, i:i + step].conj().T
            # block (j, i) has the same difference, transposed and negated
            squares += (1.0 if i == j else 2.0) * np.vdot(d, d).real
    return math.sqrt(squares), np.linalg.norm(scaled), power


@dataclass(frozen=True, eq=False)
class HpdFactor:
    """Lower-triangular Cholesky factor L, in Fortran order, with L @ L^H equal to the input."""

    lower: np.ndarray

    @property
    def dim(self) -> int:
        return self.lower.shape[0]


def hpd_factor(m) -> HpdFactor:
    """Factor a Hermitian positive definite matrix from outside the package as L @ L.conj().T.

    Parameters
    ----------
    m : array_like
        Square matrix, Hermitian up to a relative tolerance of 1e-12.

    Raises
    ------
    NotPositiveDefinite
        If ``m`` is not Hermitian or any Cholesky pivot falls at or below
        ``dim * eps * max(diag(m))``.
    """
    arr = as_matrix(m, "hpd matrix")
    if arr.shape[1] != arr.shape[0]:
        raise DimensionMismatch(f"hpd matrix must be square, got {arr.shape}")
    return _hermitian_gated_factor(arr)


def _hermitian_gated_factor(arr: np.ndarray) -> HpdFactor:
    """:func:`hpd_factor` of a square ``arr`` that :func:`as_matrix` already returned.

    Callers that keep their own checked copy factor it here without a second copy.
    """
    asymmetry, size, _ = scaled_asymmetry(arr)
    if asymmetry > _HERMITIAN_RTOL * size:
        raise NotPositiveDefinite("matrix is not Hermitian to relative tolerance 1e-12")
    return _pivot_gated_factor(arr)


def _pivot_gated_factor(arr: np.ndarray, overwrite: bool = False) -> HpdFactor:
    """Cholesky factor of the finite Hermitian matrix whose lower triangle ``arr`` holds.

    ``overwrite`` factors ``arr`` in place: pass it only for a private Fortran-order
    array such as the Gram :func:`gram_factor` forms, never for an array that came
    from outside the package.
    """
    peak = arr.diagonal().real.max()
    if overwrite:  # a private Gram, which _finite left read-only
        arr.flags.writeable = True
    lower, info = zpotrf(arr, lower=1, clean=1, overwrite_a=overwrite)
    if info:
        raise NotPositiveDefinite("matrix is not positive definite")
    check_pivots(np.square(lower.diagonal().real), peak)
    lower.flags.writeable = False
    return HpdFactor(lower=lower)


def check_pivots(pivots: np.ndarray, peak: float) -> None:
    """The package's one pivot gate, on the squared Cholesky pivots of a matrix.

    ``peak`` is the largest diagonal entry of the matrix.  A pivot at or below
    ``n * eps * max(peak, 0)`` raises ``NotPositiveDefinite``.  A positive diagonal
    d has the pivots ``np.square(np.sqrt(d))``, exactly those ``zpotrf`` returns for
    ``diag(d)``, so it is gated without a factorization.
    """
    threshold = pivots.shape[0] * _EPS * max(peak, 0.0)
    if (pivots <= threshold).any():
        raise NotPositiveDefinite(
            f"matrix is numerically semidefinite: pivot {pivots.min():.3e} "
            f"at or below threshold {threshold:.3e}"
        )


def gram_factor(rank_error: type[EstimationError], subject: str, w) -> HpdFactor:
    """Factor the Gram matrix ``w^H w`` of ``subject``, or raise ``rank_error``.

    ``w^H w`` is formed by ``zherk`` into a private lower triangle, checked finite
    and factored in place.  The pivot gate of :func:`hpd_factor` decides rank; a
    ``w`` with fewer rows than columns cannot give a full-rank product and is
    refused unformed.
    """
    n_rows, n_cols = w.shape
    if n_rows < n_cols:
        raise rank_error(f"{subject} has rank at most {n_rows}, below full rank {n_cols}")
    what = f"Gram matrix of the {subject}"
    try:
        return _pivot_gated_factor(_finite(what, _lower_gram(w)), overwrite=True)
    except NotPositiveDefinite as exc:
        raise rank_error(f"{subject} is numerically rank deficient") from exc


def half_solve(factor: HpdFactor, rhs, adjoint: bool = False):
    """Solve ``L @ X = rhs``, or ``L^H @ X = rhs`` if ``adjoint``, for the factor L.

    ``rhs`` may be a vector or a matrix of stacked right-hand-side columns;
    it is left unchanged.
    """
    arr = np.asarray(rhs, dtype=np.complex128)
    if arr.ndim not in (1, 2):
        raise DimensionMismatch(f"right-hand side must be 1-D or 2-D, got shape {arr.shape}")
    if arr.shape[0] != factor.dim:
        raise DimensionMismatch(
            f"right-hand side has {arr.shape[0]} rows, factor dimension is {factor.dim}"
        )
    solution, info = ztrtrs(factor.lower, arr, lower=1, trans=2 if adjoint else 0)
    if info:
        raise NotPositiveDefinite(f"factor has a zero pivot at diagonal {info - 1}")
    return solution


def inverse_factor(factor: HpdFactor, overwrite: bool = False) -> np.ndarray:
    """``L^-1`` for the factor L: a Fortran-order lower-triangular array, zero above.

    The array is new unless ``overwrite``, which inverts in ``factor.lower`` itself and
    leaves it writable: pass it only for a factor made for the caller alone, such as
    a :func:`gram_factor` result, which is not read as L again.
    """
    if overwrite:
        factor.lower.flags.writeable = True
    inverse, info = ztrtri(factor.lower, lower=1, overwrite_c=overwrite)
    if info:
        raise NotPositiveDefinite(f"factor has a zero pivot at diagonal {info - 1}")
    return inverse


def hpd_solve(factor: HpdFactor, rhs):
    """Solve M @ X = rhs given the Cholesky factor of M; ``rhs`` as for :func:`half_solve`."""
    return half_solve(factor, half_solve(factor, rhs), adjoint=True)


def _rank(singular_values: np.ndarray, shape: tuple[int, int]) -> int:
    """Count of singular values above ``max(shape) * eps * sigma_max``, the package's rank rule."""
    return int((singular_values > max(shape) * _EPS * float(singular_values[0])).sum())


def nullspace_basis(a) -> np.ndarray:
    """Orthonormal basis for the nullspace of a full-row-rank matrix.

    Returns an ``n_cols x (n_cols - n_rows)`` matrix N with orthonormal
    columns satisfying ``a @ N = 0``.

    Raises
    ------
    RankDeficientConstraints
        If the numerical rank of ``a`` is below its row count.
    EmptyNullspace
        If the nullspace is trivial (square full-rank input).
    """
    arr = as_matrix(a, "constraint matrix")
    n_rows, n_cols = arr.shape
    _, s, vh = np.linalg.svd(arr)
    rank = _rank(s, arr.shape)
    if rank < n_rows:
        raise RankDeficientConstraints(
            f"constraint matrix has numerical rank {rank}, expected full row rank {n_rows}"
        )
    if rank == n_cols:
        raise EmptyNullspace("constraint matrix has only the trivial nullspace")
    basis = np.ascontiguousarray(vh[rank:].conj().T)
    basis.flags.writeable = False
    return basis


@dataclass(frozen=True, eq=False)
class ConstraintStep:
    """The orthogonal projection onto ``a @ x = b`` in the coordinates ``u = L^H x``.

    Made by :func:`constraint_step`.  ``q_adjoint`` is ``Q^H`` for the orthonormal Q,
    ``offset`` the least-norm solution in x and ``factor`` L, or None for the identity.
    """

    q_adjoint: np.ndarray
    offset: np.ndarray
    factor: HpdFactor | None

    def complement(self, m, overwrite: bool = False):
        """``m - Q (Q^H m)``: the map ``u = m y`` projected, in u.

        ``overwrite`` adds ``-Q (Q^H m)`` into ``m``, a writable Fortran-order complex
        array, by one ``zgemm``, and returns it; otherwise ``m`` is left unchanged.
        """
        if overwrite:
            q = self.q_adjoint
            return zgemm(-1.0, q, q @ m, beta=1.0, c=m, trans_a=2, overwrite_c=1)
        correction = self.q_adjoint.conj().T @ (self.q_adjoint @ m)
        return np.subtract(m, correction, out=correction)

    def project(self, m):
        """The map ``u = m y`` projected, in x: ``L^-H (m - Q (Q^H m))``.

        A free offset is projected as one more column of ``m``.
        """
        e = self.complement(m)
        return e if self.factor is None else half_solve(self.factor, e, adjoint=True)


def constraint_step(a, b, factor: HpdFactor | None = None) -> ConstraintStep:
    """The step that projects maps onto ``a @ x = b`` in the coordinates ``u = L^H x``.

    L is the lower ``factor`` of the geometry's Gram matrix, or the identity if None.
    With ``Z^H = L^-1 a^H``, :func:`gram_factor` factors ``Z Z^H = L_S L_S^H`` and
    decides its rank, and ``Q = Z^H L_S^-H`` has orthonormal columns.  The step maps
    ``m`` to ``m - Q (Q^H m)``, and its offset is ``p = Q L_S^-1 b``, the least-norm
    solution of ``Z u = b``, both in x (``L^-H`` times each).
    """
    zh = a.conj().T if factor is None else half_solve(factor, a.conj().T)
    s_factor = gram_factor(RankDeficientConstraints, "constraint matrix", zh)
    q_adjoint = half_solve(s_factor, zh.conj().T)
    with np.errstate(over="ignore", invalid="ignore"):
        p = q_adjoint.conj().T @ half_solve(s_factor, b)
        if factor is not None:
            p = half_solve(factor, p, adjoint=True)
    return ConstraintStep(q_adjoint, _finite("least-norm solution", p), factor)


def least_norm_solution(a, b) -> np.ndarray:
    """Minimum-norm solution of ``a @ x = b`` for a full-row-rank ``a``."""
    arr = as_matrix(a, "constraint matrix")
    rhs = as_vector(b, "right-hand side")
    if rhs.shape[0] != arr.shape[0]:
        raise DimensionMismatch(
            f"right-hand side has {rhs.shape[0]} entries, constraint matrix has {arr.shape[0]} rows"
        )
    return constraint_step(arr, rhs).offset
