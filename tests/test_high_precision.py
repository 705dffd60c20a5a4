"""The whitened estimators against 50-digit closed forms computed with mpmath."""

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from cblue.estimators import blue, cblue_direct, cblue_nullspace, covariance
from cblue.model import ConstraintSet, LinearModel, parameterize


def _mp(arr) -> mpmath.matrix:
    """Exact mpmath copy of a complex array; a vector becomes a column."""
    arr = arr.reshape(arr.shape[0], -1)
    return mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in arr])


def _column(m: mpmath.matrix) -> np.ndarray:
    return np.array([complex(m[i, 0]) for i in range(m.rows)])


def _instance():
    """8 x 5 complex H, two complex constraints, C_nn with eigenvalues over 1e4."""
    rng = np.random.default_rng(0)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    q, _ = np.linalg.qr(gaussian(8, 8))
    c_nn = (q * np.logspace(0, 4, 8)) @ q.conj().T
    c_nn = 0.5 * (c_nn + c_nn.conj().T)
    return gaussian(8, 5), c_nn, gaussian(2, 5), gaussian(2), gaussian(8)


def _references(h, c_nn, a, b, y):
    """Variances and estimates of BLUE and of the constrained BLUE at 50 digits.

    BLUE: ``P^-1`` and ``P^-1 H^H C^-1 y`` with ``P = H^H C^-1 H``.  Constrained:
    ``M = N (N^H P N)^-1 N^H`` and ``x_p + M H^H C^-1 (y - H x_p)``, with the exact
    nullspace basis ``N = [-A_1^-1 A_2; I]`` and ``x_p = [A_1^-1 b; 0]`` for the
    leading square block ``A_1`` of A.
    """
    with mpmath.workdps(50):
        hm, am, bm, ym = _mp(h), _mp(a), _mp(b), _mp(y)
        weighted_h = _mp(c_nn) ** -1 * hm
        p = hm.H * weighted_h
        p_inv = p**-1
        a1_inv = am[:, :2] ** -1
        n = mpmath.matrix(5, 3)
        n[:2, :] = -a1_inv * am[:, 2:]
        n[2:, :] = mpmath.eye(3)
        xp = mpmath.matrix(5, 1)
        xp[:2, 0] = a1_inv * bm
        m = n * (n.H * p * n) ** -1 * n.H
        blue_x = p_inv * weighted_h.H * ym
        cblue_x = xp + m * weighted_h.H * (ym - hm * xp)
        variances = [
            np.array([float(mpmath.re(cov[i, i])) for i in range(5)]) for cov in (p_inv, m)
        ]
        return (variances[0], _column(blue_x)), (variances[1], _column(cblue_x))


@pytest.mark.parametrize(
    "build",
    [
        lambda model, constraints: blue(model),
        cblue_direct,
        lambda model, constraints: cblue_nullspace(model, parameterize(constraints)),
    ],
    ids=["blue", "cblue_direct", "cblue_nullspace"],
)
def test_whitened_estimators_match_high_precision_closed_form(build):
    h, c_nn, a, b, y = _instance()
    model = LinearModel(h, c_nn)
    constraints = ConstraintSet(a, b)
    est = build(model, constraints)
    blue_ref, cblue_ref = _references(h, c_nn, a, b, y)
    variance, estimate = blue_ref if est.label == "blue" else cblue_ref
    assert_allclose(covariance(est, model.C_nn).per_element_variance, variance, rtol=1e-12)
    assert_allclose(est.apply(y), estimate, rtol=1e-12)
