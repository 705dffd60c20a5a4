import numpy as np
import pytest
from numpy.testing import assert_allclose

from cblue.errors import EstimationError, RankDeficient
from cblue.estimators import covariance
from cblue.model import ConstraintSet, LinearModel
from cblue.montecarlo import (
    ESTIMATOR_KINDS,
    ExperimentSpec,
    convolution_matrix,
    run_experiment,
    run_reference_trial,
    sample_proper_gaussian,
    standard_estimator_set,
)


def small_spec(**overrides):
    settings = {
        "n_x": 3,
        "n_u": 2,
        "base_noise_diag": (1.0, 0.5, 0.2, 0.1),
        "k_grid": (0.1, 1.0),
        "trials": 5,
        "seed": 3,
    }
    settings.update(overrides)
    return ExperimentSpec(**settings)


def test_convolution_matrix_unit_impulse():
    assert_allclose(convolution_matrix(np.array([1.0]), 3), np.eye(3), atol=0)


def test_convolution_matrix_two_taps():
    # full convolution with u = [1, 1] on a length-2 signal
    expected = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert_allclose(convolution_matrix(np.array([1.0, 1.0]), 2), expected, atol=0)


def test_convolution_matrix_entries():
    rng = np.random.default_rng(70)
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    h = convolution_matrix(u, 3)
    assert h.shape == (6, 3)
    for i in range(6):
        for j in range(3):
            expected = u[i - j] if 0 <= i - j < 4 else 0.0
            assert h[i, j] == expected


def test_convolution_matrix_matches_numpy_convolve():
    rng = np.random.default_rng(71)
    u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert_allclose(convolution_matrix(u, 3) @ x, np.convolve(u, x), rtol=1e-13)


def test_proper_gaussian_moments():
    rng = np.random.default_rng(72)
    draws = sample_proper_gaussian(4, rng, size=250_000).ravel()
    n = draws.size
    assert abs(draws.mean()) <= 4.0 / np.sqrt(n)
    variance = np.mean(np.abs(draws) ** 2)
    assert abs(variance - 1.0) <= 0.02
    pseudo = np.mean(draws**2)
    assert abs(pseudo) <= 0.02


def test_spec_defaults():
    spec = ExperimentSpec()
    assert spec.n_x == 5
    assert spec.n_u == 6
    assert spec.n_y == 10
    assert len(spec.base_noise_diag) == 10
    assert len(spec.k_grid) == 10
    assert spec.k_grid[0] == pytest.approx(0.1)
    assert spec.k_grid[-1] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "overrides",
    [
        {"base_noise_diag": (1.0, 1.0)},
        {"base_noise_diag": (1.0, -1.0, 1.0, 1.0)},
        {"k_grid": (0.1, 0.0)},
        {"trials": 0},
        {"seed": -1},
        {"true_x_policy": "bogus"},
        {"n_x": 1},
        {"trials": 2.5},
        {"seed": 1.5},
        {"trials": True},
        {"k_grid": (1e300,), "base_noise_diag": (1e10,) * 4},
    ],
)
def test_spec_rejects_bad_settings(overrides):
    with pytest.raises(ValueError):
        small_spec(**overrides)


def test_estimator_kinds_fixed_order():
    assert ESTIMATOR_KINDS == (
        "ls",
        "ls_meansub",
        "cls",
        "blue",
        "blue_meansub",
        "cblue",
    )


def test_reference_trial_draw_protocol():
    spec = small_spec()
    trial = run_reference_trial(spec, k_index=1, trial_index=2)
    x_true = trial["x_true"]
    assert x_true.shape == (3,)
    assert abs(x_true.sum()) <= 1e-12
    assert np.linalg.norm(x_true) == pytest.approx(1.0, abs=1e-12)
    assert trial["u"].shape == (2,)
    assert trial["y"].shape == (4,)
    for kind in ESTIMATOR_KINDS:
        estimate = trial["estimates"][kind]
        assert estimate.shape == (3,)
        assert np.all(np.isfinite(estimate))
        assert trial["analytic"][kind] > 0
    assert abs(trial["estimates"]["cblue"].sum()) <= 1e-10
    assert abs(trial["estimates"]["cls"].sum()) <= 1e-10


def test_reference_trial_is_reproducible():
    spec = small_spec()
    first = run_reference_trial(spec, 0, 1)
    second = run_reference_trial(spec, 0, 1)
    assert np.array_equal(first["u"], second["u"])
    assert np.array_equal(first["y"], second["y"])
    for kind in ESTIMATOR_KINDS:
        assert np.array_equal(first["estimates"][kind], second["estimates"][kind])


def test_reference_trial_index_bounds():
    spec = small_spec()
    with pytest.raises(IndexError):
        run_reference_trial(spec, 5, 0)
    with pytest.raises(IndexError):
        run_reference_trial(spec, 0, 99)


def test_experiment_matches_reference_path():
    spec = small_spec(trials=6)
    report = run_experiment(spec)
    for k_index in range(len(spec.k_grid)):
        empirical = {kind: 0.0 for kind in ESTIMATOR_KINDS}
        analytic = {kind: 0.0 for kind in ESTIMATOR_KINDS}
        for trial_index in range(spec.trials):
            trial = run_reference_trial(spec, k_index, trial_index)
            for kind in ESTIMATOR_KINDS:
                error = trial["estimates"][kind] - trial["x_true"]
                empirical[kind] += np.mean(np.abs(error) ** 2) / spec.trials
                analytic[kind] += trial["analytic"][kind] / spec.trials
        for kind in ESTIMATOR_KINDS:
            assert report.empirical_mse[kind][k_index] == pytest.approx(
                empirical[kind], rel=1e-10
            )
            assert report.analytic_mse[kind][k_index] == pytest.approx(
                analytic[kind], rel=1e-10
            )


def test_experiment_is_bitwise_deterministic():
    spec = small_spec(trials=4)
    first = run_experiment(spec)
    second = run_experiment(spec)
    for kind in ESTIMATOR_KINDS:
        assert np.array_equal(first.empirical_mse[kind], second.empirical_mse[kind])
        assert np.array_equal(first.analytic_mse[kind], second.analytic_mse[kind])
        assert np.array_equal(first.mse_stderr[kind], second.mse_stderr[kind])
        assert np.array_equal(
            first.elementwise_bias[kind], second.elementwise_bias[kind]
        )
    assert first.regenerations == second.regenerations


def test_experiment_seed_changes_results():
    base = run_experiment(small_spec(trials=4, seed=1))
    other = run_experiment(small_spec(trials=4, seed=2))
    assert not np.array_equal(base.empirical_mse["cblue"], other.empirical_mse["cblue"])


def test_experiment_report_shapes_and_consistency():
    spec = small_spec(trials=8)
    report = run_experiment(spec)
    nk = len(spec.k_grid)
    assert report.kinds == ESTIMATOR_KINDS
    assert report.trials == spec.trials
    for kind in ESTIMATOR_KINDS:
        assert report.empirical_mse[kind].shape == (nk,)
        assert report.analytic_mse[kind].shape == (nk,)
        assert report.mse_stderr[kind].shape == (nk,)
        assert report.elementwise_bias[kind].shape == (nk, spec.n_x)
        assert report.elementwise_mse[kind].shape == (nk, spec.n_x)
        assert np.all(report.mse_stderr[kind] >= 0)
        # the scalar MSE is the average of the per-element one
        assert_allclose(
            report.elementwise_mse[kind].mean(axis=1),
            report.empirical_mse[kind],
            rtol=1e-12,
        )


class ScriptedNormals:
    """Stands in for ``_polar_normals``; hands out queued complex draws.

    Each call checks that it was given two uniforms per value it returns.
    """

    def __init__(self, arrays):
        self.queue = [np.asarray(a, dtype=complex) for a in arrays]

    def __call__(self, uniforms):
        drawn = self.queue.pop(0)
        assert uniforms.shape == drawn.shape[:-1] + (2 * drawn.shape[-1],)
        return drawn


def two_tap_spec():
    return ExperimentSpec(
        n_x=2, n_u=2, base_noise_diag=(1.0, 0.5, 0.1), k_grid=(1.0,), trials=1
    )


def test_reference_trial_refuses_zero_input(monkeypatch):
    import cblue.montecarlo as mc

    # the trial block carries u = 0, then alpha = 1, then zero noise: every
    # estimator must refuse the all-zero convolution matrix
    monkeypatch.setattr(
        mc,
        "_polar_normals",
        ScriptedNormals([np.concatenate([np.zeros(2), [1.0], np.zeros(3)])]),
    )
    with pytest.raises(RankDeficient):
        run_reference_trial(two_tap_spec(), 0, 0)


def test_reference_trial_returns_the_input_it_modelled(monkeypatch):
    import cblue.montecarlo as mc

    spec = two_tap_spec()
    noise = np.array([0.3 - 0.2j, -1.1 + 0.4j, 0.5j])
    scripted_u = np.array([0.7 + 0.2j, -0.4 + 1.3j])
    monkeypatch.setattr(
        mc,
        "_polar_normals",
        ScriptedNormals([np.concatenate([scripted_u, [1.0], noise])]),
    )
    trial = run_reference_trial(spec, 0, 0)
    assert_allclose(trial["u"], scripted_u, atol=0)
    noiseless = trial["y"] - np.sqrt(np.asarray(spec.base_noise_diag)) * noise
    assert_allclose(
        convolution_matrix(trial["u"], spec.n_x) @ trial["x_true"],
        noiseless,
        rtol=1e-12,
        atol=1e-14,
    )


def test_experiment_refuses_singular_batch(monkeypatch):
    import cblue.montecarlo as mc

    spec = small_spec(trials=6)
    _, param = mc._zero_sum_setup(spec.n_x)
    n_uniforms = 2 * (spec.n_u + param.n0 + spec.n_y)
    first_block = mc._trial_rng(spec.seed, 0).random(mc._block_width(spec, param))
    real_polar_normals = mc._polar_normals

    def zero_first_input(uniforms):
        """Real draws, except that trial (k=0, t=0) gets a zero input sequence."""
        values = real_polar_normals(uniforms)
        if uniforms.shape[-1] == n_uniforms:
            hit = np.all(uniforms == first_block[:n_uniforms], axis=-1)
            values[..., : spec.n_u][hit] = 0.0
        return values

    monkeypatch.setattr(mc, "_polar_normals", zero_first_input)
    with pytest.raises(EstimationError, match=r"k = 0\.1: trials 0 to 5 "):
        run_experiment(spec)


def test_experiment_is_independent_of_batch_size(monkeypatch):
    import cblue.montecarlo as mc

    spec = small_spec(trials=7)
    whole = run_experiment(spec)
    monkeypatch.setattr(mc, "_BATCH", 3)
    batched = run_experiment(spec)
    for field in (
        "empirical_mse",
        "analytic_mse",
        "mse_stderr",
        "elementwise_bias",
        "elementwise_mse",
    ):
        for kind in ESTIMATOR_KINDS:
            assert np.array_equal(getattr(whole, field)[kind], getattr(batched, field)[kind])
    assert whole.regenerations == batched.regenerations


@pytest.mark.parametrize("policy", ["unit-norm-gaussian", "gaussian"])
def test_reference_trial_reproduces_trials_across_a_batch_boundary(monkeypatch, policy):
    import cblue.montecarlo as mc

    spec = small_spec(trials=6, true_x_policy=policy)
    batches = []
    real_batch_sweep = mc._batch_sweep

    def recording_batch_sweep(u_b, x_b, noise_b, d, n_x):
        errors, analytic = real_batch_sweep(u_b, x_b, noise_b, d, n_x)
        batches.append((u_b, x_b, noise_b, errors))
        return errors, analytic

    monkeypatch.setattr(mc, "_BATCH", 4)
    monkeypatch.setattr(mc, "_batch_sweep", recording_batch_sweep)
    run_experiment(spec)
    assert len(batches) == 2 * len(spec.k_grid)
    for k_index in range(len(spec.k_grid)):
        # trial 3 closes the first batch of this k, trial 4 opens the second
        for trial_index, batch, row in ((3, 2 * k_index, 3), (4, 2 * k_index + 1, 0)):
            u_b, x_b, noise_b, errors = batches[batch]
            trial = run_reference_trial(spec, k_index, trial_index)
            assert np.array_equal(trial["u"], u_b[row])
            assert np.array_equal(trial["x_true"], x_b[row])
            assert_allclose(
                trial["y"],
                convolution_matrix(u_b[row], spec.n_x) @ x_b[row] + noise_b[row],
                rtol=1e-13,
            )
            for index, kind in enumerate(ESTIMATOR_KINDS):
                assert_allclose(
                    trial["estimates"][kind], errors[row, index] + x_b[row], rtol=1e-10
                )


def test_polar_normals_moments():
    from cblue.montecarlo import _polar_normals

    uniforms = np.random.default_rng(73).random((125_000, 8))
    draws = _polar_normals(uniforms).ravel()
    n = draws.size
    assert abs(draws.mean()) <= 4.0 / np.sqrt(n)
    assert abs(np.mean(np.abs(draws) ** 2) - 1.0) <= 0.02
    assert abs(np.mean(draws**2)) <= 0.02
    assert np.abs(draws).min() > 0.0
    # the extreme uniforms still give a positive, finite radius
    edges = np.abs(_polar_normals(np.array([0.0, 0.0, 1.0 - 2.0**-53, 0.5])))
    assert np.all(edges > 0.0) and np.all(np.isfinite(edges))


def test_analytic_mse_scales_linearly_with_noise_level():
    rng = np.random.default_rng(75)
    spec = ExperimentSpec()
    u = sample_proper_gaussian(spec.n_u, rng)
    h = convolution_matrix(u, spec.n_x)
    constraints = ConstraintSet(np.ones((1, spec.n_x)), np.zeros(1))
    base = np.diag(np.asarray(spec.base_noise_diag))
    k = 0.37
    small = standard_estimator_set(LinearModel(h, k * base), constraints)
    full = standard_estimator_set(LinearModel(h, base), constraints)
    for kind in ESTIMATOR_KINDS:
        mse_small = covariance(small[kind], k * base).per_element_variance.sum()
        mse_full = covariance(full[kind], base).per_element_variance.sum()
        assert mse_small == pytest.approx(k * mse_full, rel=1e-12)


def test_empirical_tracks_analytic_at_moderate_trials():
    spec = ExperimentSpec(k_grid=(1.0,), trials=20_000, seed=5)
    report = run_experiment(spec)
    for kind in ESTIMATOR_KINDS:
        empirical = report.empirical_mse[kind][0]
        analytic = report.analytic_mse[kind][0]
        assert abs(empirical - analytic) <= 0.05 * analytic


def test_standard_estimator_set_labels():
    rng = np.random.default_rng(76)
    u = sample_proper_gaussian(6, rng)
    h = convolution_matrix(u, 5)
    constraints = ConstraintSet(np.ones((1, 5)), np.zeros(1))
    estimators = standard_estimator_set(LinearModel(h, np.eye(10)), constraints)
    assert tuple(estimators) == ESTIMATOR_KINDS
    assert estimators["cblue"].label in ("cblue_direct", "cblue_nullspace")
    assert estimators["ls_meansub"].label == "ls_meansub"
