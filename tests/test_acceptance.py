"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single PASS/FAIL line
(run with ``-s`` or read captured output) before asserting.
"""

import time

import numpy as np
import pytest

from cblue.errors import RankDeficient
from cblue.estimators import (
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
from cblue.model import ConstraintSet, LinearModel, NullspaceParam, parameterize, validate
from cblue.montecarlo import (
    ESTIMATOR_KINDS,
    ExperimentSpec,
    convolution_matrix,
    run_experiment,
    sample_proper_gaussian,
    standard_estimator_set,
)
from cblue.verify import (
    check_basis_invariance,
    check_particular_invariance,
    projection_identity_residual,
    random_instance,
    random_unitary,
)


def _verdict(number, name, ok, detail):
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _constraint_residual(constraints, x_hat):
    gap = np.linalg.norm(constraints.A @ x_hat - constraints.b)
    scale = np.linalg.norm(constraints.A) * np.linalg.norm(x_hat) + np.linalg.norm(
        constraints.b
    )
    return gap / max(scale, np.finfo(float).tiny)


@pytest.fixture(scope="module")
def ordering_run():
    spec = ExperimentSpec(trials=10_000)
    started = time.monotonic()
    report = run_experiment(spec)
    return report, time.monotonic() - started


@pytest.fixture(scope="module")
def agreement_run():
    spec = ExperimentSpec(trials=100_000)
    return run_experiment(spec)


def test_acceptance_1_constraint_satisfaction():
    rng = np.random.default_rng(2026)
    started = time.monotonic()
    worst = 0.0
    instances = 1000
    for index in range(instances):
        overdetermined = index % 3 != 2
        model, constraints = random_instance(rng, overdetermined=overdetermined)
        param = parameterize(constraints)
        estimators = [cblue_nullspace(model, param)]
        if overdetermined:
            estimators += [
                cls(model, constraints),
                cblue_direct(model, constraints),
                project_onto_constraints(blue(model), constraints),
            ]
        y = sample_proper_gaussian(model.n_y, rng)
        for estimator in estimators:
            worst = max(worst, _constraint_residual(constraints, estimator.apply(y)))
    elapsed = time.monotonic() - started
    ok = worst <= 1e-9 and elapsed < 10.0
    _verdict(
        1,
        "constraint-satisfaction",
        ok,
        f"worst scaled residual {worst:.2e} over {instances} instances, {elapsed:.1f} s",
    )


def test_acceptance_2_oracle_equivalence():
    rng = np.random.default_rng(2027)
    started = time.monotonic()
    worst = 0.0
    instances = 200
    for _ in range(instances):
        model, constraints = random_instance(
            rng, overdetermined=True, max_n_x=20, extra_rows=20
        )
        assert model.n_x <= 20 and model.n_y <= 40
        param = parameterize(constraints)
        direct = cblue_direct(model, constraints)
        reduced = cblue_nullspace(model, param)
        y = sample_proper_gaussian(model.n_y, rng)
        reference = kkt_oracle(model, constraints, y)
        scale = max(np.linalg.norm(reference), np.finfo(float).tiny)
        worst = max(worst, np.linalg.norm(direct.apply(y) - reference) / scale)
        worst = max(worst, np.linalg.norm(reduced.apply(y) - reference) / scale)
    elapsed = time.monotonic() - started
    ok = worst <= 1e-8 and elapsed < 10.0
    _verdict(
        2,
        "oracle-equivalence",
        ok,
        f"worst relative error {worst:.2e} over {instances} instances, {elapsed:.1f} s",
    )


def test_acceptance_3_covariance_and_projection_identities():
    rng = np.random.default_rng(2028)
    worst_cov = 0.0
    worst_proj = 0.0
    instances = 200
    from cblue.estimators import analytic_cblue_covariance

    for _ in range(instances):
        model, constraints = random_instance(rng, overdetermined=True)
        param = parameterize(constraints)
        via_nullspace = analytic_cblue_covariance(model, param).C
        via_direct = analytic_cblue_covariance(model, constraints).C
        scale = max(np.linalg.norm(via_direct), np.finfo(float).tiny)
        worst_cov = max(worst_cov, np.linalg.norm(via_nullspace - via_direct) / scale)
        worst_proj = max(
            worst_proj, projection_identity_residual(model, constraints, param)
        )
    ok = worst_cov <= 1e-9 and worst_proj <= 1e-9
    _verdict(
        3,
        "covariance-and-projection-identities",
        ok,
        f"covariance gap {worst_cov:.2e}, projection residual {worst_proj:.2e}, "
        f"{instances} instances",
    )


def test_acceptance_4_invariance():
    particular = check_particular_invariance(np.random.default_rng(2029), 200)
    basis = check_basis_invariance(np.random.default_rng(2030), 200)
    ok = particular.worst <= 1e-9 and basis.worst <= 1e-9
    _verdict(
        4,
        "parameterization-invariance",
        ok,
        f"particular-solution worst {particular.worst:.2e}, "
        f"basis-rotation worst {basis.worst:.2e}, 200 instances each",
    )


def test_acceptance_5_white_noise_reduction():
    rng = np.random.default_rng(2031)
    worst = 0.0
    instances = 100
    for _ in range(instances):
        model, constraints = random_instance(rng)
        for sigma2 in (0.1, 1.0, 10.0):
            white = LinearModel(model.H, sigma2 * np.eye(model.n_y))
            reference = cls(white, constraints)
            candidate = cblue(white, constraints)
            scale = max(np.linalg.norm(reference.E), np.finfo(float).tiny)
            worst = max(worst, np.linalg.norm(candidate.E - reference.E) / scale)
            worst = max(
                worst,
                np.linalg.norm(candidate.f - reference.f)
                / max(np.linalg.norm(reference.f), 1.0),
            )
    ok = worst <= 1e-10
    _verdict(
        5,
        "white-noise-reduction",
        ok,
        f"worst relative gap {worst:.2e} over {instances} instances x 3 noise levels",
    )


def test_acceptance_6_mse_orderings(ordering_run):
    report, elapsed = ordering_run
    pairs = [
        ("ls", "ls_meansub"),
        ("ls_meansub", "cls"),
        ("blue", "blue_meansub"),
        ("blue_meansub", "cblue"),
        ("cls", "cblue"),
    ]
    worst_margin = -np.inf
    for upper, lower in pairs:
        slack = 3.0 * np.sqrt(
            report.mse_stderr[upper] ** 2 + report.mse_stderr[lower] ** 2
        )
        margin = report.empirical_mse[lower] - report.empirical_mse[upper] - slack
        worst_margin = max(worst_margin, float(margin.max()))
    ok = worst_margin <= 0.0 and elapsed < 120.0
    _verdict(
        6,
        "mse-orderings",
        ok,
        f"worst ordering violation {worst_margin:.2e} (<= 0 passes) across "
        f"{len(report.k_grid)} noise levels, {report.trials} trials, {elapsed:.1f} s",
    )


def test_acceptance_7_empirical_matches_analytic(agreement_run):
    report = agreement_run
    worst = 0.0
    for kind in ESTIMATOR_KINDS:
        gap = np.abs(report.empirical_mse[kind] - report.analytic_mse[kind])
        worst = max(worst, float((gap / report.analytic_mse[kind]).max()))

    rng = np.random.default_rng(2032)
    spec = ExperimentSpec()
    u = sample_proper_gaussian(spec.n_u, rng)
    h = convolution_matrix(u, spec.n_x)
    constraints = ConstraintSet(np.ones((1, spec.n_x)), np.zeros(1))
    base = np.diag(np.asarray(spec.base_noise_diag))
    full = standard_estimator_set(LinearModel(h, base), constraints)
    worst_linearity = 0.0
    for k in (0.1, 0.37):
        scaled = standard_estimator_set(LinearModel(h, k * base), constraints)
        for kind in ESTIMATOR_KINDS:
            mse_scaled = covariance(scaled[kind], k * base).per_element_variance.sum()
            mse_full = covariance(full[kind], base).per_element_variance.sum()
            worst_linearity = max(
                worst_linearity, abs(mse_scaled - k * mse_full) / (k * mse_full)
            )
    ok = worst <= 0.05 and worst_linearity <= 1e-12
    _verdict(
        7,
        "empirical-analytic-agreement",
        ok,
        f"worst relative MSE gap {worst:.3f} at {report.trials} trials, "
        f"noise-scale linearity residual {worst_linearity:.2e}",
    )


def test_acceptance_8_empirical_unbiasedness(agreement_run):
    report = agreement_run
    k_index = len(report.k_grid) - 1
    assert report.k_grid[k_index] == pytest.approx(1.0)
    worst_ratio = 0.0
    for kind in ESTIMATOR_KINDS:
        bias = np.abs(report.elementwise_bias[kind][k_index])
        variance = report.elementwise_mse[kind][k_index] - bias**2
        bound = 4.0 * np.sqrt(variance / report.trials)
        worst_ratio = max(worst_ratio, float((bias / bound).max()))
    ok = worst_ratio <= 1.0
    _verdict(
        8,
        "empirical-unbiasedness",
        ok,
        f"worst |bias| / bound ratio {worst_ratio:.3f} over six estimators "
        f"at unit noise scale, {report.trials} trials",
    )


def test_acceptance_9_underdetermined_support():
    rng = np.random.default_rng(2033)
    n_y, n_x, n_b = 4, 5, 2
    h = sample_proper_gaussian(n_x, rng, size=n_y)
    root = sample_proper_gaussian(n_y, rng, size=n_y)
    model = LinearModel(h, root @ root.conj().T + np.eye(n_y))
    constraints = ConstraintSet(
        sample_proper_gaussian(n_x, rng, size=n_b), sample_proper_gaussian(n_b, rng)
    )
    param = parameterize(constraints)

    report = validate(model, constraints)
    checks = {"admits nullspace form only": report.nullspace_form and not report.direct_form}

    estimator = cblue(model, constraints)
    checks["auto form is nullspace"] = estimator.label == "cblue_nullspace"

    worst_feasibility = 0.0
    worst_oracle = 0.0
    for _ in range(50):
        y = sample_proper_gaussian(n_y, rng)
        x_hat = estimator.apply(y)
        worst_feasibility = max(worst_feasibility, _constraint_residual(constraints, x_hat))
        reference = kkt_oracle(model, constraints, y)
        worst_oracle = max(
            worst_oracle,
            np.linalg.norm(x_hat - reference) / max(np.linalg.norm(reference), 1e-300),
        )
    checks["constraints satisfied"] = worst_feasibility <= 1e-9
    checks["matches oracle"] = worst_oracle <= 1e-8

    checks["projection identity"] = (
        projection_identity_residual(model, constraints, param) <= 1e-9
    )

    shift = param.basis @ sample_proper_gaussian(param.n0, rng)
    moved = parameterize(constraints, particular=param.particular + shift)
    rotated = NullspaceParam(
        basis=param.basis @ random_unitary(rng, param.n0), particular=param.particular
    )
    y = sample_proper_gaussian(n_y, rng)
    baseline = cblue_nullspace(model, param).apply(y)
    scale = max(np.linalg.norm(baseline), 1e-300)
    checks["particular invariance"] = (
        np.linalg.norm(cblue_nullspace(model, moved).apply(y) - baseline) / scale <= 1e-9
    )
    checks["basis invariance"] = (
        np.linalg.norm(cblue_nullspace(model, rotated).apply(y) - baseline) / scale
        <= 1e-9
    )

    for refused, builder in (
        ("cls", lambda: cls(model, constraints)),
        ("cblue_direct", lambda: cblue_direct(model, constraints)),
        ("ls", lambda: ls(model)),
    ):
        try:
            builder()
        except RankDeficient as exc:
            checks[f"{refused} refuses with rank diagnostic"] = "rank" in str(exc)
        else:
            checks[f"{refused} refuses with rank diagnostic"] = False

    ok = all(checks.values())
    failed = [name for name, passed in checks.items() if not passed]
    _verdict(
        9,
        "underdetermined-support",
        ok,
        "all sub-checks passed" if ok else f"failed: {', '.join(failed)}",
    )
