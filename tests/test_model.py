import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from cblue.errors import (
    DimensionMismatch,
    EstimationError,
    NotPositiveDefinite,
    RankDeficient,
    RankDeficientConstraints,
)
from cblue.estimators import cblue, cblue_direct, cblue_nullspace
from cblue.model import (
    CompatibilityReport,
    ConstraintSet,
    LinearModel,
    NullspaceParam,
    parameterize,
    validate,
)
from cblue.numerics import nullspace_basis


def make_model(rng, n_y, n_x):
    h = rng.standard_normal((n_y, n_x)) + 1j * rng.standard_normal((n_y, n_x))
    root = (rng.standard_normal((n_y, n_y)) + 1j * rng.standard_normal((n_y, n_y))) / 2
    c = root @ root.conj().T + np.eye(n_y)
    return LinearModel(h, c)


def test_linear_model_basic():
    model = make_model(np.random.default_rng(0), 6, 4)
    assert model.n_y == 6
    assert model.n_x == 4
    assert model.noise_factor.dim == 6


def test_linear_model_arrays_read_only():
    model = make_model(np.random.default_rng(1), 3, 2)
    with pytest.raises(ValueError):
        model.H[0, 0] = 9.0
    with pytest.raises(ValueError):
        model.C_nn[0, 0] = 9.0


def test_linear_model_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        LinearModel(np.ones((4, 2)), np.eye(3))


def test_linear_model_rejects_non_square_noise():
    with pytest.raises(DimensionMismatch):
        LinearModel(np.ones((3, 2)), np.ones((3, 2)))


def test_linear_model_rejects_indefinite_noise():
    with pytest.raises(NotPositiveDefinite):
        LinearModel(np.ones((2, 1)), np.diag([1.0, -1.0]))


NEAR_HERMITIAN = np.array([[2.0, 1.0], [0.5, 2.0]])
HERMITIAN = np.array([[2.0, 1.0 + 0.5j], [1.0 - 0.5j, 2.0]])


@pytest.mark.parametrize("scale", [1.0, 2.0**600, 2.0**-600])
def test_linear_model_rejects_non_hermitian_noise(scale):
    with pytest.raises(NotPositiveDefinite, match="Hermitian"):
        LinearModel(np.eye(2), NEAR_HERMITIAN * scale)


@pytest.mark.parametrize("exponent", [600, -600])
def test_linear_model_accepts_hermitian_noise_at_extreme_scale(exponent):
    model = LinearModel(np.eye(2), HERMITIAN * 2.0**exponent)
    unit = LinearModel(np.eye(2), HERMITIAN)
    assert_allclose(
        model.noise_factor.lower, unit.noise_factor.lower * 2.0 ** (exponent // 2), rtol=1e-15
    )


def test_linear_model_rejects_nan():
    h = np.ones((2, 2))
    h[0, 0] = np.nan
    with pytest.raises(ValueError):
        LinearModel(h, np.eye(2))


def test_constraint_set_basic():
    constraints = ConstraintSet(np.ones((1, 5)), np.zeros(1))
    assert constraints.n_b == 1
    assert constraints.n_x == 5


def test_constraint_set_rejects_rhs_mismatch():
    with pytest.raises(DimensionMismatch):
        ConstraintSet(np.ones((1, 4)), np.zeros(2))


def test_constraint_set_rejects_square_system():
    # as many independent constraints as unknowns leaves nothing to estimate
    with pytest.raises(DimensionMismatch):
        ConstraintSet(np.eye(3), np.zeros(3))


def test_constraint_set_rejects_dependent_rows():
    a = np.array([[1.0, 0.0, 1.0], [2.0, 0.0, 2.0]])
    with pytest.raises(RankDeficientConstraints):
        ConstraintSet(a, np.zeros(2))


def test_parameterize_zero_sum():
    constraints = ConstraintSet(np.ones((1, 5)), np.zeros(1))
    param = parameterize(constraints)
    assert param.n0 == 4
    assert param.basis.shape == (5, 4)
    assert_allclose(param.particular, np.zeros(5), atol=1e-14)
    assert_allclose(param.basis.sum(axis=0), np.zeros(4), atol=1e-12)


def test_parameterize_canonical_prefix():
    # A = [I2 | 0] with rhs b pins the first two coordinates: particular is [b; 0]
    a = np.hstack([np.eye(2), np.zeros((2, 3))])
    b = np.array([1.0 + 2.0j, -3.0])
    param = parameterize(ConstraintSet(a, b))
    assert_allclose(param.particular, np.concatenate([b, np.zeros(3)]), atol=1e-12)
    projector = param.basis @ param.basis.conj().T
    assert_allclose(projector, np.diag([0.0, 0.0, 1.0, 1.0, 1.0]), atol=1e-12)


def test_parameterize_point_and_coordinates_round_trip():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    constraints = ConstraintSet(a, b)
    param = parameterize(constraints)
    for _ in range(10):
        alpha = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x = param.point(alpha)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * (np.linalg.norm(x) + 1.0)
        assert_allclose(param.coordinates(x), alpha, atol=1e-10)


def test_parameterize_row_scaling_invariance():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
    b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    scaled = np.diag([10.0, 0.2, 3.0])
    plain = parameterize(ConstraintSet(a, b))
    rescaled = parameterize(ConstraintSet(scaled @ a, scaled @ b))
    projector_plain = plain.basis @ plain.basis.conj().T
    projector_rescaled = rescaled.basis @ rescaled.basis.conj().T
    assert_allclose(projector_rescaled, projector_plain, atol=1e-10)
    assert np.linalg.norm(a @ rescaled.particular - b) <= 1e-10 * (
        np.linalg.norm(a) * np.linalg.norm(rescaled.particular) + np.linalg.norm(b)
    )


def test_parameterize_with_feasible_particular():
    constraints = ConstraintSet(np.ones((1, 4)), np.array([4.0]))
    supplied = np.array([4.0, 0.0, 0.0, 0.0])
    param = parameterize(constraints, particular=supplied)
    assert_allclose(param.particular, supplied, atol=1e-14)


def test_parameterize_rejects_infeasible_particular():
    constraints = ConstraintSet(np.ones((1, 4)), np.array([4.0]))
    with pytest.raises(EstimationError):
        parameterize(constraints, particular=np.zeros(4))


def test_nullspace_param_rejects_non_orthonormal_basis():
    with pytest.raises(ValueError):
        NullspaceParam(np.array([[1.0], [1.0]]), np.zeros(2))


def test_parameterize_forms_no_gram_of_the_basis_it_built(monkeypatch):
    # nullspace_basis returns orthonormal columns by construction, so N^H N is not re-formed
    def forbidden(w):
        raise AssertionError("formed N^H N")

    rng = np.random.default_rng(47)
    constraints = ConstraintSet(
        rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8)), rng.standard_normal(3)
    )
    monkeypatch.setattr("cblue.model._lower_gram", forbidden)
    param = parameterize(constraints)
    moved = parameterize(constraints, particular=param.particular + param.basis[:, 0])
    with pytest.raises(AssertionError, match="formed N"):
        NullspaceParam(param.basis, param.particular)
    monkeypatch.undo()
    for built in (param, moved):
        checked = NullspaceParam(built.basis, built.particular)
        assert_array_equal(built.basis, checked.basis)
        assert_array_equal(built.particular, checked.particular)
        assert built.n0 == checked.n0 == 5
        assert not built.basis.flags.writeable and not built.particular.flags.writeable
    with pytest.raises(ValueError, match="orthonormal"):
        NullspaceParam(2.0 * param.basis, param.particular)


def test_nullspace_param_refuses_a_basis_whose_gram_overflows():
    # N^H N is inf on the diagonal and inf - inf = nan off it; a nan defect is
    # no pass
    basis = np.array([[1e200, 1e200], [1e200, -1e200], [0.0, 0.0]])
    with pytest.raises(ValueError, match="orthonormal"):
        NullspaceParam(basis, np.zeros(3))


@pytest.mark.parametrize("off_diagonal", [False, True])
def test_nullspace_param_orthonormality_tolerance_boundary(off_diagonal):
    # scaling column 2 by s puts s^2 - 1 on the diagonal of N^H N - I; adding e
    # times column 0 to it puts e at (0, 2) and (2, 0), so ||N^H N - I||_F ~ sqrt(2) e
    rng = np.random.default_rng(83)
    a = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    basis = nullspace_basis(a)
    tolerance = 1e-10 * np.sqrt(basis.shape[1])
    for factor, accepted in ((0.99, True), (1.01, False)):
        scaled = basis.copy()
        if off_diagonal:
            scaled[:, 2] += factor * tolerance / np.sqrt(2.0) * basis[:, 0]
        else:
            scaled[:, 2] *= np.sqrt(1.0 + factor * tolerance)
        if accepted:
            NullspaceParam(scaled, np.zeros(8))
        else:
            with pytest.raises(ValueError, match="orthonormal"):
                NullspaceParam(scaled, np.zeros(8))


def test_validate_overdetermined():
    rng = np.random.default_rng(7)
    model = make_model(rng, 8, 5)
    constraints = ConstraintSet(np.ones((1, 5)), np.zeros(1))
    report = validate(model, constraints)
    assert report.direct_form
    assert report.nullspace_form
    assert report.reasons == ()


def test_validate_underdetermined():
    rng = np.random.default_rng(8)
    model = make_model(rng, 4, 5)
    constraints = ConstraintSet(
        rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5)), np.zeros(2)
    )
    report = validate(model, constraints)
    assert not report.direct_form
    assert report.nullspace_form
    assert any("n_y" in reason or "rank" in reason for reason in report.reasons)


def test_validate_zero_measurement_matrix():
    model = LinearModel(np.zeros((6, 4)), np.eye(6))
    constraints = ConstraintSet(np.ones((1, 4)), np.zeros(1))
    report = validate(model, constraints)
    assert not report.direct_form
    assert not report.nullspace_form
    assert len(report.reasons) >= 2


def _near_rank_deficient_h(s):
    """8 x 4 H with singular values 1, 1, 1, s."""
    rng = np.random.default_rng(0)
    u, _ = np.linalg.qr(rng.standard_normal((8, 4)))
    v, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    return u @ np.diag([1.0, 1.0, 1.0, s]) @ v.T


def _builds(build) -> bool:
    try:
        build()
    except RankDeficient:
        return False
    return True


_AR1_COVARIANCE = 0.5 ** np.abs(np.subtract.outer(np.arange(8), np.arange(8)))


@pytest.mark.parametrize(
    "h, c",
    [
        (_near_rank_deficient_h(s), c)
        for s in (1e-6, 1e-10, 1e-12, 1e-14, 0.0)
        for c in (np.eye(8), _AR1_COVARIANCE)
    ]
    + [(np.random.default_rng(1).standard_normal((3, 4)), np.eye(3))],
)
def test_validate_agrees_with_constructors(h, c):
    model = LinearModel(h, c)
    constraints = ConstraintSet(np.ones((1, 4)), np.zeros(1))
    report = validate(model, constraints)
    assert report.direct_form == _builds(lambda: cblue_direct(model, constraints))
    assert report.nullspace_form == _builds(
        lambda: cblue_nullspace(model, parameterize(constraints))
    )
    assert (cblue(model, constraints).label == "cblue_nullspace") == (not report.direct_form)


def test_validate_rejects_parameter_count_mismatch():
    model = make_model(np.random.default_rng(9), 6, 4)
    constraints = ConstraintSet(np.ones((1, 5)), np.zeros(1))
    with pytest.raises(DimensionMismatch):
        validate(model, constraints)


def test_parameterize_refuses_out_of_range_constraint_gram():
    # A A^H of the scaled zero-sum row overflows double precision
    constraints = ConstraintSet(np.ones((1, 3)) * 1e160, np.zeros(1))
    with pytest.raises(EstimationError, match="not finite in double precision"):
        parameterize(constraints)


def _ill_conditioned_constraints(s):
    """A = Q1 diag(1, s) Q2^H (2 x 6) on H = [I; I] with C_nn = diag(linspace(1, 3, 12))."""
    rng = np.random.default_rng(53)
    q1, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    q2, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    model = LinearModel(np.vstack([np.eye(6), np.eye(6)]), np.diag(np.linspace(1.0, 3.0, 12)))
    return model, ConstraintSet(q1 @ np.diag([1.0, s]) @ q2[:, :2].T, np.array([1.0, 2.0]))


def test_validate_takes_the_constraint_steps_rank_gate():
    # ConstraintSet's SVD rule accepts both values of s; the constraint step of
    # each constructor squares s in its Gram and refuses 1e-10, as cblue() does
    model, constraints = _ill_conditioned_constraints(1e-7)
    assert validate(model, constraints) == CompatibilityReport(True, True, ())

    model, constraints = _ill_conditioned_constraints(1e-10)
    with pytest.raises(RankDeficientConstraints) as direct:
        cblue_direct(model, constraints)
    with pytest.raises(RankDeficientConstraints) as nullspace:
        cblue_nullspace(model, parameterize(constraints))
    with pytest.raises(RankDeficientConstraints):
        cblue(model, constraints)
    assert validate(model, constraints) == CompatibilityReport(
        False, False, (str(direct.value), str(nullspace.value))
    )


@pytest.mark.parametrize("h_scale, a_scale", [(1.0, 1e160)])
def test_validate_raises_what_cblue_raises(h_scale, a_scale):
    # the direct form's whitened constraint Gram overflows, so cblue() falls back,
    # and the nullspace form's A A^H overflows too, so cblue() raises that error
    model = LinearModel(h_scale * np.vstack([np.eye(3), np.eye(3)]), np.eye(6))
    constraints = ConstraintSet(np.ones((1, 3)) * a_scale, np.zeros(1))
    with pytest.raises(EstimationError) as expected:
        cblue(model, constraints)
    assert not isinstance(expected.value, RankDeficient)
    with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
        validate(model, constraints)


def test_cblue_falls_back_on_any_refusal_of_the_direct_form():
    # at H = 1e-100 [I; I] the direct form's whitened constraint Gram overflows
    # (Z^H = L_G^-1 A^H is about 7e159), while the nullspace form builds; its
    # estimate is 1e100 times that of the same problem at unit scale
    stack = np.vstack([np.eye(3), np.eye(3)])
    model = LinearModel(1e-100 * stack, np.eye(6))
    constraints = ConstraintSet(np.ones((1, 3)) * 1e60, np.zeros(1))
    with pytest.raises(EstimationError) as direct:
        cblue_direct(model, constraints)
    assert not isinstance(direct.value, RankDeficient)
    estimator = cblue(model, constraints)
    assert estimator.label == "cblue_nullspace"
    assert validate(model, constraints) == CompatibilityReport(False, True, (str(direct.value),))
    unit = cblue(LinearModel(stack, np.eye(6)), ConstraintSet(np.ones((1, 3)), np.zeros(1)))
    y = np.array([1.0, -2.0, 0.5, 3.0, 0.25, -1.0])
    assert_allclose(estimator.apply(y), 1e100 * unit.apply(y), rtol=1e-14)


def test_validate_reports_a_failed_nullspace_form_once_the_direct_form_is_built():
    # scaling H by 1e100 brings the direct form's whitened constraint Gram back into
    # range, while the nullspace form's A A^H still overflows; cblue() never builds
    # the nullspace form here, so validate() names the failure as a reason
    model = LinearModel(1e100 * np.vstack([np.eye(3), np.eye(3)]), np.eye(6))
    constraints = ConstraintSet(np.ones((1, 3)) * 1e160, np.zeros(1))
    with pytest.raises(EstimationError) as nullspace:
        parameterize(constraints)
    assert cblue(model, constraints).label == "cblue_direct"
    assert validate(model, constraints) == CompatibilityReport(True, False, (str(nullspace.value),))


@pytest.mark.parametrize("ratio, accepted", [(50.0, False), (70.0, True)])
def test_constraint_rank_threshold_scales_with_the_longer_side(ratio, accepted):
    # the rule counts singular values above max(shape) * eps * sigma_max = 60 eps
    # here; a diagonal A has exactly the singular values (1, ratio * eps)
    eps = np.finfo(float).eps
    a = np.zeros((2, 60))
    a[0, 0], a[1, 1] = 1.0, ratio * eps
    assert np.array_equal(np.linalg.svd(a, compute_uv=False), [1.0, ratio * eps])
    if accepted:
        ConstraintSet(a, np.zeros(2))
    else:
        with pytest.raises(RankDeficientConstraints):
            ConstraintSet(a, np.zeros(2))


@pytest.mark.parametrize("relative, accepted", [(0.5e-8, True), (2e-8, False)])
def test_parameterize_particular_tolerance_boundary(relative, accepted):
    # x = (1 + t, 0) misses A x = 1 by t, against the scale |A| |x| + |b| = 2 + t
    constraints = ConstraintSet(np.array([[1.0, 0.0]]), np.ones(1))
    t = 2.0 * relative / (1.0 - relative)
    particular = np.array([1.0 + t, 0.0])
    if accepted:
        assert_array_equal(parameterize(constraints, particular).particular, particular)
    else:
        with pytest.raises(EstimationError, match="does not satisfy"):
            parameterize(constraints, particular)
