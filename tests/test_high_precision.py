"""The whitened estimators against 50-digit closed forms computed with mpmath."""

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

import cblue.verify
from cblue.estimators import (
    analytic_cblue_covariance,
    blue,
    cblue_direct,
    cblue_nullspace,
    covariance,
)
from cblue.model import ConstraintSet, LinearModel, parameterize
from cblue.verify import check_covariance_formula_agreement, random_instance


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


def _closed_forms(h, c_nn, a, b):
    """``H``, ``C^-1 H``, ``P = H^H C^-1 H``, ``x_p`` and ``M`` at the working precision.

    ``M = N (N^H P N)^-1 N^H``, with the exact nullspace basis ``N = [-A_1^-1 A_2; I]``
    and ``x_p = [A_1^-1 b; 0]`` for the leading square block ``A_1`` of A.
    """
    n_b, n_x = a.shape
    hm, am = _mp(h), _mp(a)
    weighted_h = _mp(c_nn) ** -1 * hm
    p = hm.H * weighted_h
    a1_inv = am[:, :n_b] ** -1
    n = mpmath.matrix(n_x, n_x - n_b)
    n[:n_b, :] = -a1_inv * am[:, n_b:]
    n[n_b:, :] = mpmath.eye(n_x - n_b)
    xp = mpmath.matrix(n_x, 1)
    xp[:n_b, 0] = a1_inv * _mp(b)
    return hm, weighted_h, p, xp, n * (n.H * p * n) ** -1 * n.H


def _references(h, c_nn, a, b, y):
    """Variances and estimates of BLUE and of the constrained BLUE at 50 digits.

    BLUE: ``P^-1`` and ``P^-1 H^H C^-1 y``.  Constrained: ``M`` and
    ``x_p + M H^H C^-1 (y - H x_p)``, from :func:`_closed_forms`.
    """
    with mpmath.workdps(50):
        hm, weighted_h, p, xp, m = _closed_forms(h, c_nn, a, b)
        ym = _mp(y)
        p_inv = p**-1
        blue_x = p_inv * weighted_h.H * ym
        cblue_x = xp + m * weighted_h.H * (ym - hm * xp)
        variances = [
            np.array([float(mpmath.re(cov[i, i])) for i in range(cov.rows)]) for cov in (p_inv, m)
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


def _suite_seed_331_instance():
    """Instance 39 of ``run_suite(50, 331)``'s covariance-formula-agreement substream.

    A 6 x 6 H with five constraints and cond P = 1.9e7, where a subtraction form of
    the full-rank covariance loses 2.6e-9 relative.
    """
    index = cblue.verify._SUITE.index(check_covariance_formula_agreement)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=331, spawn_key=(index,)))
    for _ in range(40):
        model, constraints = random_instance(rng)
    return model, constraints


def _reference_covariance(model, constraints) -> np.ndarray:
    """``M`` of :func:`_closed_forms` at 50 digits, rounded to double precision."""
    with mpmath.workdps(50):
        m = _closed_forms(model.H, model.C_nn, constraints.A, constraints.b)[-1]
        return np.array(m.tolist(), dtype=complex)


FULL_RANK_COVARIANCE = {
    "analytic": analytic_cblue_covariance,
    "cblue_direct": lambda model, constraints: covariance(
        cblue_direct(model, constraints), model.C_nn
    ),
}


@pytest.mark.parametrize("route", FULL_RANK_COVARIANCE.values(), ids=FULL_RANK_COVARIANCE)
def test_full_rank_covariance_matches_high_precision_closed_form(route):
    h, c_nn, a, b, _ = _instance()
    model, constraints = LinearModel(h, c_nn), ConstraintSet(a, b)
    assert_allclose(
        route(model, constraints).C, _reference_covariance(model, constraints), rtol=1e-12
    )


@pytest.mark.parametrize("route", FULL_RANK_COVARIANCE.values(), ids=FULL_RANK_COVARIANCE)
def test_full_rank_covariance_at_suite_seed_331_matches_high_precision(route):
    model, constraints = _suite_seed_331_instance()
    assert (model.n_x, constraints.n_b) == (6, 5)
    reference = _reference_covariance(model, constraints)
    error = np.linalg.norm(route(model, constraints).C - reference) / np.linalg.norm(reference)
    assert error <= 1e-11
