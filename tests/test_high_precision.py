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


def _instance(span=1e4):
    """8 x 5 complex H, two complex constraints, C_nn with eigenvalues from 1 to ``span``."""
    rng = np.random.default_rng(0)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    q, _ = np.linalg.qr(gaussian(8, 8))
    c_nn = (q * np.logspace(0, np.log10(span), 8)) @ q.conj().T
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


WHITENED = {
    "blue": lambda model, constraints: blue(model),
    "cblue_direct": cblue_direct,
    "cblue_nullspace": lambda model, constraints: cblue_nullspace(model, parameterize(constraints)),
}

# Largest relative errors measured, x_hat then variances, over the three estimators:
# 8.4e-16 and 4.7e-16 at span 1e0, 2.3e-14 and 1.6e-14 at 1e4, 8.8e-12 and 1.1e-11 at 1e8.
# BLUE sets the x_hat figures at 1e4 and 1e8, applying its kept L_G^-1 by two products.
SPAN_RTOL = {1e0: 5e-15, 1e4: 1e-13, 1e8: 1e-10}


@pytest.mark.parametrize("span", SPAN_RTOL)
@pytest.mark.parametrize("build", WHITENED.values(), ids=WHITENED)
def test_whitened_estimators_across_noise_covariance_spans(build, span):
    # the estimate through the kept factors and the variances from the rows of T
    h, c_nn, a, b, y = _instance(span)
    model = LinearModel(h, c_nn)
    est = build(model, ConstraintSet(a, b))
    blue_ref, cblue_ref = _references(h, c_nn, a, b, y)
    variance, estimate = blue_ref if est.label == "blue" else cblue_ref
    shipped = covariance(est, model.C_nn).per_element_variance
    assert np.max(np.abs(shipped - variance) / variance) <= SPAN_RTOL[span]
    assert np.max(np.abs(est.apply(y) - estimate) / np.abs(estimate)) <= SPAN_RTOL[span]


def test_variance_rows_beat_the_whitened_map_where_they_differ():
    # draw 617 of a mixed random_instance stream: a wide 5 x 6 model, one constraint,
    # where the rows of T and the row norms of E_w part by 2.5e-12 relative
    rng = np.random.default_rng(123)
    for index in range(618):
        model, constraints = random_instance(rng, overdetermined=index % 3 != 2)
    assert model.n_y < model.n_x
    est = cblue_nullspace(model, parameterize(constraints))
    with mpmath.workdps(50):
        m = _closed_forms(model.H, model.C_nn, constraints.A, constraints.b)[-1]
        reference = np.array([float(mpmath.re(m[i, i])) for i in range(m.rows)])
    shipped = covariance(est, model.C_nn).per_element_variance
    e_w = est.E_w
    row_norms = np.einsum("ij,ij->i", e_w.real, e_w.real)
    row_norms += np.einsum("ij,ij->i", e_w.imag, e_w.imag)
    assert np.max(np.abs(shipped - row_norms) / row_norms) > 1e-12
    shipped_error = np.max(np.abs(shipped - reference) / reference)
    assert shipped_error <= np.max(np.abs(row_norms - reference) / reference)
    assert shipped_error <= 1e-11


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
    "cblue_nullspace": lambda model, constraints: covariance(
        cblue_nullspace(model, parameterize(constraints)), model.C_nn
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


@pytest.mark.parametrize("span", SPAN_RTOL)
def test_direct_form_map_across_noise_covariance_spans(span):
    # E = T T^H W^H L^-1 from the kept T^H, against M H^H C^-1 at 50 digits
    h, c_nn, a, b, _ = _instance(span)
    model = LinearModel(h, c_nn)
    with mpmath.workdps(50):
        _, weighted_h, _, _, m = _closed_forms(h, c_nn, a, b)
        reference = np.array((m * weighted_h.H).tolist(), dtype=complex)
    e = cblue_direct(model, ConstraintSet(a, b)).E
    assert np.linalg.norm(e - reference) / np.linalg.norm(reference) <= SPAN_RTOL[span]
