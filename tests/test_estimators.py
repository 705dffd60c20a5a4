import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from cblue.cli import _METHODS
from cblue.errors import (
    DimensionMismatch,
    EstimationError,
    RankDeficient,
    RankDeficientConstraints,
    RankDeficientReducedModel,
    SingularKktSystem,
)
from cblue.estimators import (
    AffineEstimator,
    CovarianceResult,
    analytic_cblue_covariance,
    blue,
    cblue,
    cblue_direct,
    cblue_nullspace,
    cls,
    covariance,
    kkt_oracle,
    ls,
    mean_subtracted,
    project_onto_constraints,
)
from cblue.model import ConstraintSet, LinearModel, parameterize
from cblue.numerics import (
    constraint_step,
    half_solve,
    hpd_factor,
    inverse_factor,
    least_norm_solution,
)
from cblue.verify import random_instance


def draw_instance(rng, overdetermined=True):
    model, constraints = random_instance(rng, overdetermined=overdetermined)
    return model, constraints, parameterize(constraints)

# Worked example used throughout, derived by hand from the normal equations.
# H = [[1], [1]] stacked twice per unknown:
#   H2 = [[1, 0], [0, 1], [1, 0], [0, 1]], C = I4, A = [1, 1], b = 0.
# Measurements y = [1, 0, 2, 1] give unconstrained LS [1.5, 0.5];
# subtracting the common mean 1.0 yields the constrained estimate [0.5, -0.5].
H2 = np.vstack([np.eye(2), np.eye(2)])
Y2 = np.array([1.0, 0.0, 2.0, 1.0])
ONES_CONSTRAINT = ConstraintSet(np.ones((1, 2)), np.zeros(1))

# Second worked example with colored noise, solved by hand:
# H = I2, C = diag(1, 4), A = [1, 1], b = 0. On the feasible line x = (t, -t)
# the objective (y1-t)^2 + (y2+t)^2/4 is minimized at t = 0.8*y1 - 0.2*y2,
# so y = [1, 1] gives [0.6, -0.6].
COLORED_MODEL = LinearModel(np.eye(2), np.diag([1.0, 4.0]))
Y_COLORED = np.array([1.0, 1.0])
X_COLORED = np.array([0.6, -0.6])


def test_ls_identity_model():
    est = ls(LinearModel(np.eye(3), np.eye(3)))
    assert_allclose(est.E, np.eye(3), atol=1e-14)
    assert_allclose(est.f, np.zeros(3), atol=0)


def test_ls_averages_repeated_measurements():
    est = ls(LinearModel(np.array([[1.0], [1.0]]), np.eye(2)))
    assert_allclose(est.apply(np.array([1.0, 3.0])), [2.0], rtol=1e-14)


def test_ls_normal_equations():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n_x = int(rng.integers(1, 6))
        n_y = n_x + int(rng.integers(0, 5))
        h = rng.standard_normal((n_y, n_x)) + 1j * rng.standard_normal((n_y, n_x))
        est = ls(LinearModel(h, np.eye(n_y)))
        y = rng.standard_normal(n_y) + 1j * rng.standard_normal(n_y)
        x_hat = est.apply(y)
        residual = h.conj().T @ (y - h @ x_hat)
        assert np.linalg.norm(residual) <= 1e-9 * (np.linalg.norm(h) * np.linalg.norm(y))


def test_ls_refuses_underdetermined():
    with pytest.raises(RankDeficient):
        ls(LinearModel(np.ones((2, 3)), np.eye(2)))


def test_blue_equals_ls_for_white_noise():
    rng = np.random.default_rng(42)
    h = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    model = LinearModel(h, 2.5 * np.eye(7))
    assert_allclose(blue(model).E, ls(model).E, atol=1e-12)


def test_blue_weighted_average_closed_form():
    # var 1 and var 4 measurements of one scalar: weights 0.8 and 0.2
    model = LinearModel(np.array([[1.0], [1.0]]), np.diag([1.0, 4.0]))
    est = blue(model)
    assert_allclose(est.E, [[0.8, 0.2]], rtol=1e-14)


def test_blue_reproduces_parameters():
    rng = np.random.default_rng(43)
    for _ in range(10):
        n_x = int(rng.integers(1, 6))
        n_y = n_x + int(rng.integers(0, 5))
        h = rng.standard_normal((n_y, n_x)) + 1j * rng.standard_normal((n_y, n_x))
        root = rng.standard_normal((n_y, n_y)) + 1j * rng.standard_normal((n_y, n_y))
        model = LinearModel(h, root @ root.conj().T + np.eye(n_y))
        est = blue(model)
        assert np.linalg.norm(est.E @ h - np.eye(n_x)) <= 1e-9 * max(
            1.0, np.linalg.norm(est.E) * np.linalg.norm(h)
        )


def test_cls_worked_example():
    model = LinearModel(H2, np.eye(4))
    est = cls(model, ONES_CONSTRAINT)
    assert_allclose(est.apply(Y2), [0.5, -0.5], atol=1e-12)


def test_cls_inactive_constraint_equals_ls():
    # choosing b so that the LS estimate is already feasible makes the correction vanish
    rng = np.random.default_rng(44)
    h = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    model = LinearModel(h, np.eye(6))
    y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    x_ls = ls(model).apply(y)
    a = rng.standard_normal((1, 3)) + 1j * rng.standard_normal((1, 3))
    constraints = ConstraintSet(a, a @ x_ls)
    est = cls(model, constraints)
    assert_allclose(est.apply(y), x_ls, atol=1e-10)


def test_cls_matches_oracle_under_white_noise():
    rng = np.random.default_rng(45)
    for _ in range(10):
        model, constraints, _ = draw_instance(rng)
        white = LinearModel(model.H, np.eye(model.n_y))
        est = cls(white, constraints)
        y = rng.standard_normal(white.n_y) + 1j * rng.standard_normal(white.n_y)
        expected = kkt_oracle(white, constraints, y)
        assert_allclose(est.apply(y), expected, atol=1e-8 * (np.linalg.norm(expected) + 1))


def test_cls_refuses_underdetermined():
    model = LinearModel(np.ones((2, 3)), np.eye(2))
    constraints = ConstraintSet(np.eye(2, 3), np.zeros(2))
    with pytest.raises(RankDeficient) as excinfo:
        cls(model, constraints)
    assert "rank" in str(excinfo.value)


CONSTRAINED_BUILDERS = {
    "cls": cls,
    "cblue_direct": cblue_direct,
    "projected_ls": lambda model, constraints: project_onto_constraints(ls(model), constraints),
    "least_norm": lambda model, constraints: least_norm_solution(constraints.A, constraints.b),
    "analytic_covariance": analytic_cblue_covariance,
}


@pytest.mark.parametrize("build", CONSTRAINED_BUILDERS.values(), ids=CONSTRAINED_BUILDERS)
@pytest.mark.parametrize("s, accepted", [(1e-7, True), (1e-10, False)])
def test_constraint_step_rank_gate(build, s, accepted):
    # A = Q1 diag(1, s) Q2^H: the SVD rule of ConstraintSet accepts both values
    # of s, while the constraint Gram squares s and its pivot gate refuses 1e-10
    rng = np.random.default_rng(53)
    q1, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    q2, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    a = q1 @ np.diag([1.0, s]) @ q2[:, :2].T
    constraints = ConstraintSet(a, np.array([1.0, 2.0]))
    model = LinearModel(np.vstack([np.eye(6), np.eye(6)]), np.diag(np.linspace(1.0, 3.0, 12)))
    if accepted:
        build(model, constraints)
    else:
        with pytest.raises(RankDeficientConstraints):
            build(model, constraints)


def test_cblue_never_whitens_a_wide_matrix(monkeypatch):
    from cblue.numerics import half_solve

    shapes = []

    def recording_half_solve(factor, rhs, adjoint=False):
        shapes.append(np.shape(rhs))
        return half_solve(factor, rhs, adjoint)

    for module in ("cblue.estimators", "cblue.model"):
        monkeypatch.setattr(f"{module}.half_solve", recording_half_solve)
    rng = np.random.default_rng(46)
    for _ in range(5):
        model, constraints, _ = draw_instance(rng, overdetermined=False)
        assert model.n_y < model.n_x
        assert cblue(model, constraints).label == "cblue_nullspace"
    assert shapes and all(rows >= cols for rows, cols in shapes)


def test_cblue_direct_worked_example():
    est = cblue_direct(COLORED_MODEL, ONES_CONSTRAINT)
    assert_allclose(est.apply(Y_COLORED), X_COLORED, atol=1e-12)


def test_cblue_nullspace_worked_example():
    param = parameterize(ONES_CONSTRAINT)
    est = cblue_nullspace(COLORED_MODEL, param)
    assert_allclose(est.apply(Y_COLORED), X_COLORED, atol=1e-12)


def test_cblue_forms_agree_on_random_instances():
    rng = np.random.default_rng(46)
    for _ in range(15):
        model, constraints, param = draw_instance(rng)
        direct = cblue_direct(model, constraints)
        reduced = cblue_nullspace(model, param)
        scale = np.linalg.norm(direct.E) + 1.0
        assert np.linalg.norm(direct.E - reduced.E) <= 1e-8 * scale
        assert np.linalg.norm(direct.f - reduced.f) <= 1e-8 * (np.linalg.norm(direct.f) + 1)


def test_cblue_reduces_to_cls_for_white_noise():
    rng = np.random.default_rng(47)
    model, constraints, _ = draw_instance(rng)
    white = LinearModel(model.H, 0.3 * np.eye(model.n_y))
    est_cblue = cblue(white, constraints)
    est_cls = cls(white, constraints)
    assert_allclose(est_cblue.E, est_cls.E, atol=1e-10 * (np.linalg.norm(est_cls.E) + 1))
    assert_allclose(est_cblue.f, est_cls.f, atol=1e-10 * (np.linalg.norm(est_cls.f) + 1))


def test_cblue_falls_back_to_nullspace_form():
    rng = np.random.default_rng(48)
    model, constraints, param = draw_instance(rng, overdetermined=False)
    assert model.n_y < model.n_x
    est = cblue(model, constraints)
    assert est.label == "cblue_nullspace"
    reduced = cblue_nullspace(model, param)
    assert_allclose(est.E, reduced.E, atol=1e-9 * (np.linalg.norm(reduced.E) + 1))


def test_cblue_prefers_direct_form():
    rng = np.random.default_rng(49)
    model, constraints, _ = draw_instance(rng)
    assert cblue(model, constraints).label == "cblue_direct"


def test_cblue_nullspace_rejects_collapsed_reduced_model():
    # H annihilates the feasible directions, so nothing about them is observable
    h = np.ones((4, 1)) @ np.ones((1, 3))
    model = LinearModel(h, np.eye(4))
    constraints = ConstraintSet(np.ones((1, 3)), np.zeros(1))
    param = parameterize(constraints)
    assert np.linalg.norm(h @ param.basis) < 1e-12
    with pytest.raises(RankDeficientReducedModel):
        cblue_nullspace(model, param)


def test_analytic_cblue_covariance_maps_rank_failures():
    # collapsed reduced model: H annihilates every feasible direction
    collapsed = LinearModel(np.ones((4, 1)) @ np.ones((1, 3)), np.eye(4))
    zero_sum = ConstraintSet(np.ones((1, 3)), np.zeros(1))
    with pytest.raises(RankDeficientReducedModel):
        analytic_cblue_covariance(collapsed, parameterize(zero_sum))
    # H has a zero column, so it is not full column rank
    h = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    with pytest.raises(RankDeficient) as caught:
        analytic_cblue_covariance(LinearModel(h, np.eye(3)), ONES_CONSTRAINT)
    assert caught.type is RankDeficient


def test_mean_subtracted_removes_common_offset():
    base = ls(LinearModel(np.eye(3), np.eye(3)))
    est = mean_subtracted(base)
    assert est.label == "ls_meansub"
    assert_allclose(est.apply(np.array([1.0, 2.0, 3.0])), [-1.0, 0.0, 1.0], atol=1e-14)


def test_mean_subtracted_is_idempotent():
    rng = np.random.default_rng(50)
    h = rng.standard_normal((5, 3))
    base = ls(LinearModel(h, np.eye(5)))
    once = mean_subtracted(base)
    twice = mean_subtracted(once)
    assert_allclose(twice.E, once.E, atol=1e-13)


def test_project_onto_constraints_satisfies_them():
    rng = np.random.default_rng(51)
    model, constraints, _ = draw_instance(rng)
    base = blue(model)
    projected = project_onto_constraints(base, constraints)
    assert projected.label == "blue_projected"
    a = constraints.A
    b = constraints.b
    y = rng.standard_normal(model.n_y) + 1j * rng.standard_normal(model.n_y)
    x_hat = projected.apply(y)
    assert np.linalg.norm(a @ x_hat - b) <= 1e-9 * (np.linalg.norm(x_hat) + 1)


def test_project_onto_constraints_equals_mean_subtraction_for_zero_sum():
    rng = np.random.default_rng(52)
    h = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    model = LinearModel(h, np.eye(8))
    base = ls(model)
    constraints = ConstraintSet(np.ones((1, 4)), np.zeros(1))
    projected = project_onto_constraints(base, constraints)
    centered = mean_subtracted(base)
    assert_allclose(projected.E, centered.E, atol=1e-12)
    assert_allclose(projected.f, centered.f, atol=1e-12)


def test_covariance_identity_estimator_returns_noise_covariance():
    noise = np.diag([1.0, 2.0, 3.0])
    est = AffineEstimator(np.eye(3), np.zeros(3), "identity")
    result = covariance(est, noise)
    assert_allclose(result.C, noise, atol=1e-14)
    assert_allclose(result.per_element_variance, [1.0, 2.0, 3.0], rtol=1e-14)


def test_covariance_weighted_average_closed_form():
    # E = [0.8, 0.2] on C = diag(1, 4): variance 0.64*1 + 0.04*4 = 0.8
    model = LinearModel(np.array([[1.0], [1.0]]), np.diag([1.0, 4.0]))
    result = covariance(blue(model), model.C_nn)
    assert_allclose(result.per_element_variance, [0.8], rtol=1e-12)


def test_analytic_cblue_covariance_worked_example():
    # nullspace direction [1,-1]/sqrt(2); reduced precision 1/2 + 1/8 = 5/8
    # covariance = N (8/5) N^H = [[0.8, -0.8], [-0.8, 0.8]]
    expected = np.array([[0.8, -0.8], [-0.8, 0.8]])
    from_constraints = analytic_cblue_covariance(COLORED_MODEL, ONES_CONSTRAINT)
    assert_allclose(from_constraints.C, expected, atol=1e-12)
    assert_allclose(from_constraints.per_element_variance, [0.8, 0.8], rtol=1e-12)
    from_param = analytic_cblue_covariance(COLORED_MODEL, parameterize(ONES_CONSTRAINT))
    assert_allclose(from_param.C, expected, atol=1e-12)


def test_analytic_cblue_covariance_matches_propagated():
    rng = np.random.default_rng(53)
    for _ in range(10):
        model, constraints, _ = draw_instance(rng)
        est = cblue_direct(model, constraints)
        propagated = covariance(est, model.C_nn).C
        analytic = analytic_cblue_covariance(model, constraints).C
        assert np.linalg.norm(propagated - analytic) <= 1e-9 * (np.linalg.norm(analytic) + 1)


def test_analytic_cblue_covariance_rank_equals_free_dimensions():
    rng = np.random.default_rng(54)
    model, _, param = draw_instance(rng)
    analytic = analytic_cblue_covariance(model, param).C
    singular_values = np.linalg.svd(analytic, compute_uv=False)
    n0 = param.n0
    assert singular_values[n0 - 1] > 1e-10 * singular_values[0]
    if n0 < model.n_x:
        assert singular_values[n0] <= 1e-10 * singular_values[0]


def test_analytic_cblue_covariance_rejects_other_types():
    with pytest.raises(TypeError):
        analytic_cblue_covariance(COLORED_MODEL, np.ones((1, 2)))


def test_kkt_oracle_worked_example():
    x_hat = kkt_oracle(COLORED_MODEL, ONES_CONSTRAINT, Y_COLORED)
    assert_allclose(x_hat, X_COLORED, atol=1e-12)


def test_kkt_oracle_recovers_noise_free_feasible_point():
    rng = np.random.default_rng(55)
    for _ in range(10):
        model, constraints, param = draw_instance(rng, overdetermined=False)
        alpha = rng.standard_normal(param.n0) + 1j * rng.standard_normal(param.n0)
        x_true = param.point(alpha)
        y_clean = model.H @ x_true
        x_hat = kkt_oracle(model, constraints, y_clean)
        assert np.linalg.norm(x_hat - x_true) <= 1e-9 * (np.linalg.norm(x_true) + 1)


def test_kkt_oracle_rejects_singular_system():
    model = LinearModel(np.zeros((3, 2)), np.eye(3))
    with pytest.raises(SingularKktSystem):
        kkt_oracle(model, ONES_CONSTRAINT, np.zeros(3))


def test_affine_estimator_apply_shapes():
    est = AffineEstimator(np.array([[1.0, 2.0]]), np.array([0.5]), "demo")
    single = est.apply(np.array([1.0, 1.0]))
    assert single.shape == (1,)
    assert_allclose(single, [3.5], rtol=1e-15)
    batch = est.apply(np.array([[1.0, 0.0], [0.0, 2.0]]))
    assert batch.shape == (1, 2)
    assert_allclose(batch[:, 0], [1.5], rtol=1e-15)
    assert_allclose(batch[:, 1], [4.5], rtol=1e-15)


def test_affine_estimator_apply_rejects_wrong_length():
    est = AffineEstimator(np.eye(2), np.zeros(2), "demo")
    with pytest.raises(DimensionMismatch):
        est.apply(np.ones(3))


def test_estimator_arrays_read_only():
    est = ls(LinearModel(np.eye(2), np.eye(2)))
    with pytest.raises(ValueError):
        est.E[0, 0] = 2.0


@pytest.mark.parametrize("exponent", [-160, 160, 200])
def test_extreme_scales_raise_estimation_error(exponent):
    # H^H H over- or underflows double precision, or the error covariance
    # built from its inverse does; neither may surface as a ValueError
    rng = np.random.default_rng(81)
    h = (rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))) * 10.0**exponent
    model = LinearModel(h, np.eye(8))
    constraints = ConstraintSet(np.ones((1, 4)), np.zeros(1))
    builders = [
        lambda: ls(model),
        lambda: blue(model),
        lambda: cls(model, constraints),
        lambda: cblue(model, constraints),
        lambda: cblue_direct(model, constraints),
        lambda: cblue_nullspace(model, parameterize(constraints)),
    ]
    for build in builders:
        with pytest.raises(EstimationError, match="not finite in double precision"):
            covariance(build(), model.C_nn)


@pytest.mark.parametrize("overdetermined", [True, False])
def test_covariance_routes_agree(overdetermined):
    # a package-built estimator handed its own model's C_nn array takes the
    # whitened route E_w E_w^H; an equal copy takes the general E C_nn E^H
    rng = np.random.default_rng(89)
    whitened = 0
    for _ in range(4):
        model, constraints, _ = draw_instance(rng, overdetermined)
        copy = np.array(model.C_nn)
        for method, build in _METHODS.items():
            try:
                est = build(model, constraints)
            except RankDeficient:
                assert not overdetermined, method
                continue
            own = covariance(est, model.C_nn)
            general = covariance(est, copy)
            gap = np.linalg.norm(own.C - general.C)
            assert gap <= 1e-12 * np.linalg.norm(general.C), method
            assert_allclose(own.per_element_variance, general.per_element_variance, rtol=1e-12)
            if est.E_w is not None:
                whitened += 1
                assert est.C_nn is model.C_nn
                with pytest.raises(ValueError):
                    est.E_w[0, 0] = 1.0
            hand = AffineEstimator(E=est.E, f=est.f, label=est.label)
            assert hand.E_w is None and hand.C_nn is None
            assert_allclose(covariance(hand, model.C_nn).C, general.C, rtol=1e-15, atol=0)
    # blue, cblue, cblue-direct and cblue-nullspace on tall models; cblue and
    # cblue-nullspace on wide ones
    assert whitened == 4 * (4 if overdetermined else 2)


def test_covariance_result_hermitian_check_holds_at_large_scale():
    # the Frobenius norm of these matrices overflows in their own units
    with pytest.raises(ValueError, match="Hermitian"):
        CovarianceResult(np.array([[2.0, 1.0], [0.5, 2.0]]) * 2.0**600)
    result = CovarianceResult(np.array([[2.0, 1.0], [1.0, 2.0]]) * 2.0**600)
    assert_allclose(result.per_element_variance, [2.0**601, 2.0**601], rtol=0)


@pytest.mark.parametrize("scale", [2.0**-600, 2.0**-60, 1.0, 2.0**600])
def test_covariance_result_checks_are_relative_to_its_norm(scale):
    # far from Hermitian, or with a negative variance, at every scale
    with pytest.raises(ValueError, match="Hermitian"):
        CovarianceResult(np.array([[2.0, 1.0], [0.5, 2.0]]) * scale)
    with pytest.raises(ValueError, match="negative"):
        CovarianceResult(np.diag([1.0, -1e-3]) * scale)
    result = CovarianceResult(np.array([[2.0, 1.0], [1.0, 2.0]]) * scale)
    assert_array_equal(result.per_element_variance, [2.0 * scale, 2.0 * scale])


def test_covariance_result_refuses_a_given_variance():
    # the variances are derived from C; a passed-in value would be discarded
    with pytest.raises(TypeError):
        CovarianceResult(np.eye(2), per_element_variance=np.ones(2))


@pytest.mark.parametrize("relative, accepted", [(0.5e-12, True), (2e-12, False)])
def test_covariance_result_negative_diagonal_tolerance_boundary(relative, accepted):
    # diag(1, -d) has norm sqrt(1 + d^2): a negative variance passes down to 1e-12 of it
    c = np.diag([1.0, -relative])
    if accepted:
        assert_array_equal(CovarianceResult(c).per_element_variance, [1.0, -relative])
    else:
        with pytest.raises(ValueError, match="negative"):
            CovarianceResult(c)


@pytest.mark.parametrize("overdetermined", [True, False])
def test_whitened_pipeline_defers_e_and_the_full_covariance(monkeypatch, overdetermined):
    # cblue, apply and the per-element variances, the pipeline of `cblue
    # estimate`, neither unwhiten E nor form the full error covariance
    import cblue.estimators as estimators
    from cblue.numerics import half_solve, hermitized, hpd_solve

    def refuse(*args, **kwargs):
        raise AssertionError("formed before it was read")

    rng = np.random.default_rng(97)
    model, constraints, param = draw_instance(rng, overdetermined)
    y = rng.standard_normal(model.n_y) + 1j * rng.standard_normal(model.n_y)
    with monkeypatch.context() as patch:
        patch.setattr(estimators, "_unwhitened", refuse)
        patch.setattr(estimators, "hermitian_product", refuse)
        est = cblue(model, constraints)
        x_hat = est.apply(y)
        result = covariance(est, model.C_nn)
        variance = result.per_element_variance
    # on first read, E and C are what the constructors used to form eagerly
    if overdetermined:
        assert est.label == "cblue_direct"
        e = half_solve(model.noise_factor, est.E_w.conj().T, adjoint=True).conj().T
    else:
        assert est.label == "cblue_nullspace"
        w, factor = model.whitened_gram(model.H @ param.basis)
        reduced_w = hpd_solve(factor, w.conj().T)
        e = param.basis @ half_solve(model.noise_factor, reduced_w.conj().T, adjoint=True).conj().T
    assert_array_equal(est.E, e)
    assert_array_equal(result.C, hermitized(est.E_w @ est.E_w.conj().T))
    assert est.E is est.E and result.C is result.C
    scale = np.linalg.norm(x_hat)
    assert np.linalg.norm(x_hat - (est.E @ y + est.f)) <= 1e-12 * scale
    assert_allclose(variance, result.C.diagonal().real, rtol=1e-12)
    flipped = dataclasses.replace(est, f=-est.f)
    assert flipped.E_w is None
    assert np.linalg.norm(flipped.apply(y) - (est.E @ y - est.f)) <= 1e-12 * scale
    assert_allclose(covariance(flipped, model.C_nn).per_element_variance, variance, rtol=1e-12)


@pytest.mark.parametrize("overdetermined", [True, False])
def test_cblue_pipeline_forms_no_whitened_map(overdetermined):
    # the estimate and its variances come from the kept factors alone
    rng = np.random.default_rng(61)
    model, constraints, _ = draw_instance(rng, overdetermined)
    y = rng.standard_normal(model.n_y) + 1j * rng.standard_normal(model.n_y)
    est = cblue(model, constraints)
    est.apply(y)
    covariance(est, model.C_nn).per_element_variance
    assert "E_w" not in est.__dict__ and "E" not in est.__dict__


def test_no_solve_against_the_gram_factor_takes_an_identity_right_hand_side(monkeypatch):
    # BLUE's variance rows, the direct form's T^H and the full-rank covariance all
    # come from the triangular inverse L_G^-1, not from solves of L_G X = I
    rng = np.random.default_rng(29)
    h = rng.standard_normal((9, 5)) + 1j * rng.standard_normal((9, 5))
    root = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    model = LinearModel(h, root @ root.conj().T + np.eye(9))
    constraints = ConstraintSet(rng.standard_normal((2, 5)), rng.standard_normal(2))
    solved = []

    def recording(factor, rhs, adjoint=False):
        solved.append((factor.dim, np.shape(rhs)))
        return half_solve(factor, rhs, adjoint)

    for module in ("estimators", "model", "numerics"):
        monkeypatch.setattr(f"cblue.{module}.half_solve", recording)
    for est in (blue(model), cblue_direct(model, constraints)):
        covariance(est, model.C_nn).per_element_variance
    analytic_cblue_covariance(model, constraints)
    against_gram = [shape for dim, shape in solved if dim == model.n_x]
    assert against_gram, "no solve against L_G was recorded"
    assert all(shape[1:] != (model.n_x,) for shape in against_gram), against_gram


def test_direct_form_builds_t_adjoint_in_its_own_gram_factor():
    # W and the one n_x x n_x Gram buffer, which becomes T^H, are all the direct form
    # allocates at this size; a copy of L_G or an n_x x n_x product would add another
    import tracemalloc

    rng = np.random.default_rng(31)
    n_y, n_x, n_b = 240, 200, 5

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    model = LinearModel(gaussian(n_y, n_x), np.diag(rng.uniform(1.0, 2.0, n_y)))
    constraints = ConstraintSet(gaussian(n_b, n_x), gaussian(n_b))
    cblue_direct(model, constraints)
    tracemalloc.start()
    try:
        est = cblue_direct(model, constraints)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    square = 16 * n_x * n_x
    assert peak <= 16 * n_y * n_x + square + square // 2, peak
    assert est._t_adjoint.shape == (n_x, n_x) and not est._t_adjoint.flags.writeable


def test_factors_a_caller_holds_stay_unchanged_and_read_only():
    # only a Gram factor made inside the constructor is overwritten
    rng = np.random.default_rng(33)
    model, constraints, _ = draw_instance(rng)
    held = hpd_factor(model.C_nn)
    estimator = blue(model)
    factors = (model.noise_factor.lower, held.lower, estimator._gram.lower)
    before = [lower.copy() for lower in factors]
    covariance(estimator, model.C_nn).C
    direct = cblue_direct(model, constraints)
    direct.E, covariance(direct, model.C_nn).C
    analytic_cblue_covariance(model, constraints)
    inverse_factor(held)
    step = constraint_step(model.H.conj().T, np.zeros(model.n_x), held)
    step.project(model.C_nn)
    for lower, copy in zip(factors, before):
        assert_array_equal(lower, copy)
        assert not lower.flags.writeable


# H x = y with x_1 = x_2 and C_nn = I: every method estimates (y1 + y2 + 2 y3) / 6 per
# unit of H, which is 2/3 of a constant y
PROBE_H = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
PROBE_CONSTRAINT = ConstraintSet(np.array([[1.0, -1.0]]), np.zeros(1))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", _METHODS)
def test_apply_refuses_an_estimate_beyond_double_range(method):
    est = _METHODS[method](LinearModel(PROBE_H * 1e-10, np.eye(3)), PROBE_CONSTRAINT)
    # a vector, a batch as wide as x and a wider one, which goes through E
    for y in (np.full(3, 1e300), np.full((3, 2), 1e300), np.full((3, 3), 1e300)):
        with pytest.raises(EstimationError, match="estimate is not finite in double precision"):
            est.apply(y)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", _METHODS)
def test_apply_keeps_an_estimate_near_the_top_of_double_range(method):
    # W^H L^-1 y reaches 3.4e308 unless L^-1 y is scaled before the products
    est = _METHODS[method](LinearModel(PROBE_H, np.eye(3)), PROBE_CONSTRAINT)
    assert_allclose(est.apply(np.full(3, 1.7e308)), [1.7e308 / 3 * 2] * 2, rtol=1e-15)


@pytest.mark.parametrize("method", _METHODS)
def test_apply_to_an_empty_batch_returns_no_columns(method):
    # the whitened forms take the peak of L^-1 y for their scaling, which has no entries here
    est = _METHODS[method](LinearModel(PROBE_H, np.diag([1.0, 2.0, 3.0])), PROBE_CONSTRAINT)
    x = est.apply(np.zeros((3, 0)))
    assert x.shape == (2, 0) and x.dtype == np.complex128


def test_estimator_refuses_a_non_finite_whitened_map(monkeypatch):
    # the deferred E is refused at construction, as the eager one was
    import cblue.estimators as estimators

    monkeypatch.setattr(
        estimators, "hpd_solve", lambda factor, rhs: np.full(np.shape(rhs), np.inf, complex)
    )
    with pytest.raises(ValueError, match="non-finite"):
        blue(COLORED_MODEL)


def test_deferred_e_unwhitens_only_tall_matrices(monkeypatch):
    # reading E of the nullspace form unwhitens the n0-row reduced map, never
    # the wide lifted one
    from cblue.numerics import half_solve

    shapes = []

    def recording_half_solve(factor, rhs, adjoint=False):
        shapes.append(np.shape(rhs))
        return half_solve(factor, rhs, adjoint)

    for module in ("cblue.estimators", "cblue.model"):
        monkeypatch.setattr(f"{module}.half_solve", recording_half_solve)
    rng = np.random.default_rng(47)
    for _ in range(5):
        model, constraints, param = draw_instance(rng, overdetermined=False)
        est = cblue(model, constraints)
        assert est.label == "cblue_nullspace"
        built = len(shapes)
        est.E
        assert shapes[built:] == [(model.n_y, param.n0)]
    assert all(rows >= cols for rows, cols in shapes)


def test_whitened_apply_unwhitens_once_for_a_wide_batch(monkeypatch):
    # up to n_x columns each is whitened; a wider batch forms E once and every
    # later measurement goes through it
    import cblue.estimators as estimators

    shapes = []
    half_solve = estimators.half_solve

    def recording_half_solve(factor, rhs, adjoint=False):
        shapes.append(np.shape(rhs))
        return half_solve(factor, rhs, adjoint)

    rng = np.random.default_rng(48)
    model, constraints, _ = draw_instance(rng)
    est = cblue_direct(model, constraints)
    n_x, n_y = model.n_x, model.n_y
    y = rng.standard_normal((n_y, n_x + 1)) + 1j * rng.standard_normal((n_y, n_x + 1))
    monkeypatch.setattr(estimators, "half_solve", recording_half_solve)
    narrow = est.apply(y[:, :n_x])
    assert shapes == [(n_y, n_x)]
    wide = est.apply(y)
    assert len(shapes) == 2
    assert_array_equal(wide, est.E @ y + est.f[:, None])
    assert np.linalg.norm(wide[:, :n_x] - narrow) <= 1e-12 * np.linalg.norm(narrow)
    assert_array_equal(est.apply(y[:, 0]), est.E @ y[:, 0] + est.f)
    assert len(shapes) == 2


@pytest.mark.parametrize("overdetermined", [True, False])
def test_deferred_estimator_and_covariance_pickle(overdetermined):
    # a pickled copy carries what is still unformed and reads the same values
    import pickle

    rng = np.random.default_rng(49)
    model, constraints, _ = draw_instance(rng, overdetermined)
    y = rng.standard_normal(model.n_y) + 1j * rng.standard_normal(model.n_y)
    est = cblue(model, constraints)
    result = covariance(est, model.C_nn)
    est_copy = pickle.loads(pickle.dumps(est))
    result_copy = pickle.loads(pickle.dumps(result))
    assert_array_equal(est_copy.E, est.E)
    assert_array_equal(est_copy.apply(y), est.apply(y))
    assert est_copy.label == est.label
    assert_array_equal(result_copy.C, result.C)
    assert_array_equal(result_copy.per_element_variance, result.per_element_variance)


@pytest.mark.parametrize("overdetermined", [True, False])
def test_failed_deferred_read_can_be_retried(monkeypatch, overdetermined):
    # a read that raises keeps what it needs, so the next read forms the value
    # the constructors used to form eagerly
    import cblue.estimators as estimators
    from cblue.numerics import half_solve, hermitized, hpd_solve

    class Injected(Exception):
        pass

    def fail(*args, **kwargs):
        raise Injected

    rng = np.random.default_rng(53)
    model, constraints, param = draw_instance(rng, overdetermined)
    est = cblue(model, constraints)
    result = covariance(est, model.C_nn)
    with monkeypatch.context() as patch:
        patch.setattr(estimators, "_unwhitened", fail)
        patch.setattr(estimators, "hermitian_product", fail)
        with pytest.raises(Injected):
            est.E
        with pytest.raises(Injected):
            result.C
    if overdetermined:
        e = half_solve(model.noise_factor, est.E_w.conj().T, adjoint=True).conj().T
    else:
        w, factor = model.whitened_gram(model.H @ param.basis)
        reduced_w = hpd_solve(factor, w.conj().T)
        e = param.basis @ half_solve(model.noise_factor, reduced_w.conj().T, adjoint=True).conj().T
    assert_array_equal(est.E, e)
    assert_array_equal(result.C, hermitized(est.E_w @ est.E_w.conj().T))


@pytest.mark.parametrize("overdetermined", [True, False])
def test_copying_a_deferred_estimator_forms_nothing(overdetermined):
    # copies carry the unformed state; each forms the same E and C on its own read
    import copy
    import pickle

    def copies(obj):
        return [copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))]

    rng = np.random.default_rng(59)
    model, constraints, _ = draw_instance(rng, overdetermined)
    est = cblue(model, constraints)
    result = covariance(est, model.C_nn)
    est_copies, result_copies = copies(est), copies(result)
    assert "E" not in est.__dict__ and "C" not in result.__dict__
    for twin in est_copies:
        assert "E" not in twin.__dict__
        assert_array_equal(twin.E, est.E)
    for twin in result_copies:
        assert "C" not in twin.__dict__
        assert_array_equal(twin.C, result.C)
        assert_array_equal(twin.per_element_variance, result.per_element_variance)


def test_readme_quick_start_runs():
    import re
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    namespace = {}
    exec(block, namespace)
    assert_allclose(namespace["x_hat"], X_COLORED, rtol=1e-14)
    assert_allclose(namespace["var"], [0.8, 0.8], rtol=1e-14)
