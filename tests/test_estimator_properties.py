"""Property checks for the constrained estimators on randomized instances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import cblue.verify
from cblue.cli import _build_estimator
from cblue.estimators import (
    AffineEstimator,
    blue,
    cblue_direct,
    cblue_nullspace,
    cls,
    covariance,
    mean_subtracted,
    project_onto_constraints,
)
from cblue.model import ConstraintSet, LinearModel, parameterize
from cblue.montecarlo import sample_proper_gaussian
from cblue.numerics import nullspace_basis
from cblue.verify import (
    check_basis_invariance,
    check_constraint_satisfaction,
    check_covariance_formula_agreement,
    check_feasible_unbiasedness,
    check_form_equivalence,
    check_oracle_agreement,
    check_particular_invariance,
    check_projection_identity,
    check_variance_optimality,
    check_white_noise_reduction,
    random_instance,
    run_suite,
)


def _assert_passes(check, instances, seed):
    rng = np.random.default_rng(seed)
    result = check(rng, instances)
    assert result.passed, f"{result.name}: worst {result.worst:.3e} > tol {result.tol:.1e}"


def test_constraints_hold_on_random_draws():
    _assert_passes(check_constraint_satisfaction, 60, 101)


def test_feasible_points_are_reproduced():
    _assert_passes(check_feasible_unbiasedness, 60, 102)


def test_covariance_formulas_agree():
    _assert_passes(check_covariance_formula_agreement, 60, 103)


def test_projection_identity_holds():
    _assert_passes(check_projection_identity, 60, 104)


def test_direct_and_nullspace_forms_agree():
    _assert_passes(check_form_equivalence, 60, 105)


def test_particular_solution_does_not_matter():
    _assert_passes(check_particular_invariance, 60, 106)


def test_basis_rotation_does_not_matter():
    _assert_passes(check_basis_invariance, 60, 107)


def test_white_noise_reduces_to_cls():
    _assert_passes(check_white_noise_reduction, 60, 108)


def test_both_forms_match_kkt_oracle():
    _assert_passes(check_oracle_agreement, 60, 109)


def test_cblue_beats_listed_competitors():
    _assert_passes(check_variance_optimality, 60, 110)


def test_covariance_formulas_agree_at_suite_seed_331():
    # the substream run_suite(50, 331) gives this property
    index = cblue.verify._SUITE.index(check_covariance_formula_agreement)
    seed = np.random.SeedSequence(entropy=331, spawn_key=(index,))
    _assert_passes(check_covariance_formula_agreement, 50, seed)


def test_full_suite_is_green():
    results = run_suite(instances=25, seed=7)
    assert len(results) == 10
    assert all(result.passed for result in results)


@pytest.mark.parametrize(
    "check, name, tol, mixed",
    [
        (check_constraint_satisfaction, "constraint-satisfaction", 1e-9, True),
        (check_feasible_unbiasedness, "feasible-unbiasedness", 1e-9, True),
        (check_covariance_formula_agreement, "covariance-formula-agreement", 1e-9, False),
        (check_projection_identity, "projection-identity", 1e-9, True),
        (check_form_equivalence, "form-equivalence", 1e-8, False),
        (check_particular_invariance, "particular-solution-invariance", 1e-9, True),
        (check_basis_invariance, "basis-invariance", 1e-9, True),
        (check_white_noise_reduction, "white-noise-reduction", 1e-10, False),
        (check_oracle_agreement, "oracle-agreement", 1e-8, False),
        (check_variance_optimality, "variance-optimality", 1e-10, False),
    ],
)
def test_each_property_draws_its_instance_mix(monkeypatch, check, name, tol, mixed):
    # properties that also hold for wide H make every third instance underdetermined
    drawn = []

    def recording(rng, overdetermined=True, **kwargs):
        drawn.append(overdetermined)
        return random_instance(rng, overdetermined, **kwargs)

    monkeypatch.setattr(cblue.verify, "random_instance", recording)
    result = check(np.random.default_rng(11), 6)
    assert drawn == ([True, True, False] * 2 if mixed else [True] * 6)
    assert (result.name, result.tol, result.instances) == (name, tol, 6)


def test_property_result_names_its_worst_instance():
    # a property whose residual peaks on the third instance drawn, an underdetermined one
    calls = []

    @cblue.verify._property("peak-at-three", 1.0, mixed=True)
    def check_peak(rng, model, constraints):
        calls.append(None)
        yield 2.0 if len(calls) == 3 else 0.5
        yield 0.0

    result = check_peak(np.random.default_rng(17), 6)
    assert (result.worst, result.passed, result.worst_index) == (2.0, False, 2)
    replay = np.random.default_rng(17)
    for index in range(3):
        model, constraints = random_instance(replay, overdetermined=index % 3 != 2)
    assert result.worst_shape == (model.n_y, model.n_x, constraints.n_b)
    assert model.n_y < model.n_x


@pytest.mark.parametrize("nan_from", [0, 1])
def test_a_nan_residual_fails_its_property_and_names_its_instance(nan_from):
    # NaN compares false with every number, so a plain "greater than" would keep 0.0
    calls = []

    @cblue.verify._property("nan-probe", 1.0)
    def check_nan(rng, model, constraints):
        calls.append(None)
        yield 0.5 if len(calls) <= nan_from else float("nan")
        yield 3.0  # larger than every number before it, but not worse than a NaN

    result = check_nan(np.random.default_rng(23), 4)
    assert np.isnan(result.worst) and not result.passed
    assert result.worst_index == nan_from
    replay = np.random.default_rng(23)
    for _ in range(nan_from + 1):
        model, constraints = random_instance(replay)
    assert result.worst_shape == (model.n_y, model.n_x, constraints.n_b)


@pytest.mark.parametrize(
    "instances, seed", [(0, 0), (-3, 0), (5, -1), (5, 2**64), (5, 1.5), (True, 0), (5, False)]
)
def test_run_suite_refuses_bad_arguments_before_drawing(monkeypatch, instances, seed):
    def forbidden(*args, **kwargs):
        raise AssertionError("drew an instance")

    monkeypatch.setattr(cblue.verify, "random_instance", forbidden)
    with pytest.raises(ValueError):
        run_suite(instances, seed=seed)


def test_injected_defect_is_caught(sign_defect):
    # a sign-flipped offset must trip every property that sees cblue_direct's offset
    results = run_suite(instances=25, seed=7)
    failed = [result.name for result in results if not result.passed]
    assert failed == [
        "constraint-satisfaction",
        "feasible-unbiasedness",
        "form-equivalence",
        "white-noise-reduction",
        "oracle-agreement",
    ]


def test_variance_never_below_cblue_for_unbiased_feasible_competitors():
    # any E' = E + N V G^H with G spanning null((HN)^H) stays unbiased and
    # feasible, so its per-element variance cannot drop below the optimum
    rng = np.random.default_rng(60)
    for _ in range(25):
        model, constraints = random_instance(rng, overdetermined=True)
        param = parameterize(constraints)
        est = cblue_direct(model, constraints)
        base_var = covariance(est, model.C_nn).per_element_variance
        reduced = model.H @ param.basis
        left_null = nullspace_basis(reduced.conj().T)
        for _ in range(4):
            v = rng.standard_normal(
                (param.n0, left_null.shape[1])
            ) + 1j * rng.standard_normal((param.n0, left_null.shape[1]))
            shift = param.basis @ v @ left_null.conj().T
            rival = AffineEstimator(est.E + shift, est.f, "rival")
            rival_var = covariance(rival, model.C_nn).per_element_variance
            assert np.all(rival_var >= base_var - 1e-10 * (base_var.max() + 1.0))


def test_mean_subtracted_blue_is_dominated_under_zero_sum():
    rng = np.random.default_rng(61)
    for _ in range(25):
        n_x = int(rng.integers(2, 7))
        n_y = n_x + int(rng.integers(1, 5))
        h = rng.standard_normal((n_y, n_x)) + 1j * rng.standard_normal((n_y, n_x))
        root = (rng.standard_normal((n_y, n_y)) + 1j * rng.standard_normal((n_y, n_y))) / 2
        model = LinearModel(h, root @ root.conj().T + np.eye(n_y))
        constraints = ConstraintSet(np.ones((1, n_x)), np.zeros(1))
        best = covariance(
            cblue_direct(model, constraints), model.C_nn
        ).per_element_variance
        for competitor in (
            mean_subtracted(blue(model)),
            project_onto_constraints(blue(model), constraints),
            cls(model, constraints),
        ):
            rival_var = covariance(competitor, model.C_nn).per_element_variance
            assert np.all(best <= rival_var + 1e-10 * (rival_var.max() + 1.0))


def test_total_variance_matches_trace():
    rng = np.random.default_rng(62)
    model, constraints = random_instance(rng, overdetermined=True)
    est = cblue_nullspace(model, parameterize(constraints))
    result = covariance(est, model.C_nn)
    assert_allclose(
        result.per_element_variance.sum(), np.trace(result.C).real, rtol=1e-12
    )


def test_estimator_mean_over_noise_matches_truth():
    # empirical unbiasedness: average many noisy estimates of one feasible truth
    rng = np.random.default_rng(63)
    model, constraints = random_instance(rng, overdetermined=True)
    param = parameterize(constraints)
    est = cblue_direct(model, constraints)
    alpha = rng.standard_normal(param.n0) + 1j * rng.standard_normal(param.n0)
    x_true = param.point(alpha)
    clean = model.H @ x_true
    lower = model.noise_factor.lower
    trials = 4000
    noise = (
        rng.standard_normal((trials, model.n_y))
        + 1j * rng.standard_normal((trials, model.n_y))
    ) / np.sqrt(2)
    y_batch = clean[:, None] + lower @ noise.T
    mean_estimate = est.apply(y_batch).mean(axis=1)
    sigma = np.sqrt(
        covariance(est, model.C_nn).per_element_variance.max() / trials
    )
    assert np.linalg.norm(mean_estimate - x_true, ord=np.inf) <= 6 * sigma


ALL_METHODS = ("ls", "blue", "cls", "cblue", "cblue-nullspace", "cblue-direct")


@settings(max_examples=300)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(-200, 200),
    t=st.integers(-200, 200),
    overdetermined=st.booleans(),
)
def test_estimates_are_exactly_scale_equivariant(seed, s, t, overdetermined):
    # Scaling H and y by 2^s and C_nn by 2^(2t) is exact, so every estimator
    # must return the same bits for x_hat, pick the same form, and scale its
    # per-element variance by exactly 2^(2(t - s)).
    rng = np.random.default_rng(seed)
    model, constraints = random_instance(rng, overdetermined=overdetermined, max_n_x=6)
    y = sample_proper_gaussian(model.n_y, rng)
    scaled = LinearModel(model.H * 2.0**s, model.C_nn * 2.0 ** (2 * t))
    methods = ALL_METHODS if overdetermined else ("cblue", "cblue-nullspace")
    for method in methods:
        est = _build_estimator(method, model, constraints)
        est_scaled = _build_estimator(method, scaled, constraints)
        assert est_scaled.label == est.label, method
        assert np.array_equal(est_scaled.apply(y * 2.0**s), est.apply(y)), method
        variance = covariance(est, model.C_nn).per_element_variance
        variance_scaled = covariance(est_scaled, scaled.C_nn).per_element_variance
        assert np.array_equal(variance_scaled, variance * 2.0 ** (2 * (t - s))), method
