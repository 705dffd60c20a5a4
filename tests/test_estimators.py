import numpy as np
import pytest
from numpy.testing import assert_allclose

from cblue.errors import (
    DimensionMismatch,
    EstimationError,
    RankDeficient,
    RankDeficientReducedModel,
    SingularKktSystem,
)
from cblue.estimators import (
    AffineEstimator,
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
