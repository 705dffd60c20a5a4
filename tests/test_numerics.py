import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import cblue.numerics as numerics
from cblue.errors import (
    DimensionMismatch,
    EmptyNullspace,
    EstimationError,
    NotPositiveDefinite,
    RankDeficient,
    RankDeficientConstraints,
)
from cblue.model import LinearModel
from cblue.numerics import (
    HpdFactor,
    check_pivots,
    gram_factor,
    half_solve,
    hermitized,
    hpd_factor,
    hpd_solve,
    inverse_factor,
    least_norm_solution,
    nullspace_basis,
    numerical_rank,
    reciprocal_power,
    scaled_asymmetry,
)


def random_hpd(rng, n):
    root = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    return root @ root.conj().T + np.eye(n)


def test_hpd_factor_identity():
    factor = hpd_factor(np.eye(3))
    assert_allclose(factor.lower, np.eye(3), atol=1e-15)


def test_hpd_factor_two_dim_closed_form():
    # worked by hand: [[2,1],[1,2]] = L L^H with L = [[sqrt(2), 0], [1/sqrt(2), sqrt(3/2)]]
    factor = hpd_factor([[2.0, 1.0], [1.0, 2.0]])
    expected = np.array([[np.sqrt(2.0), 0.0], [1.0 / np.sqrt(2.0), np.sqrt(1.5)]])
    assert_allclose(factor.lower, expected, rtol=1e-14)


def test_hpd_factor_diagonal_is_elementwise_sqrt():
    diag = np.array([1.0, 1.0, 0.5, 0.5, 0.1, 0.1, 0.01, 0.01, 1e-3, 1e-3])
    factor = hpd_factor(np.diag(diag))
    assert_allclose(factor.lower, np.diag(np.sqrt(diag)), rtol=0, atol=0)


def test_hpd_factor_recomposes():
    rng = np.random.default_rng(11)
    for n in (1, 2, 5, 12):
        m = random_hpd(rng, n)
        factor = hpd_factor(m)
        lower = factor.lower
        assert_allclose(lower, np.tril(lower), atol=0)
        recomposed = lower @ lower.conj().T
        assert np.linalg.norm(recomposed - m) <= 1e-10 * np.linalg.norm(m)


def test_hpd_factor_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        hpd_factor(np.diag([1.0, -1.0]))


def test_hpd_factor_rejects_zero():
    with pytest.raises(NotPositiveDefinite):
        hpd_factor(np.zeros((2, 2)))


def test_hpd_factor_rejects_tiny_pivot():
    with pytest.raises(NotPositiveDefinite):
        hpd_factor(np.diag([1.0, 1e-20]))


def test_hpd_factor_rejects_non_hermitian():
    with pytest.raises(NotPositiveDefinite):
        hpd_factor(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_hpd_factor_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        hpd_factor(np.ones((2, 3)))


def test_hpd_factor_rejects_non_finite():
    with pytest.raises(ValueError):
        hpd_factor(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_hpd_solve_scalar():
    factor = hpd_factor([[4.0]])
    assert_allclose(hpd_solve(factor, np.array([8.0])), [2.0], rtol=1e-15)


def test_hpd_solve_construct_then_solve():
    rng = np.random.default_rng(23)
    for n in (2, 6, 9):
        m = random_hpd(rng, n)
        factor = hpd_factor(m)
        x_true = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        rhs = m @ x_true
        solved = hpd_solve(factor, rhs)
        assert np.linalg.norm(solved - x_true) <= 1e-9 * np.linalg.norm(x_true)
        assert np.linalg.norm(m @ solved - rhs) <= 1e-9 * np.linalg.norm(rhs)


def test_hpd_solve_vector_rhs():
    rng = np.random.default_rng(3)
    m = random_hpd(rng, 4)
    factor = hpd_factor(m)
    rhs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    solved = hpd_solve(factor, rhs)
    assert solved.shape == (4,)
    assert np.linalg.norm(m @ solved - rhs) <= 1e-9 * np.linalg.norm(rhs)


def test_hpd_solve_leaves_rhs_unchanged():
    rng = np.random.default_rng(4)
    m = random_hpd(rng, 4)
    factor = hpd_factor(m)
    rhs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    before = rhs.copy()
    hpd_solve(factor, rhs)
    assert np.array_equal(rhs, before)


def test_hpd_solve_dimension_mismatch():
    factor = hpd_factor(np.eye(3))
    with pytest.raises(DimensionMismatch):
        hpd_solve(factor, np.ones(4))


def test_nullspace_two_dim_closed_form():
    # null([1, 1]) is the line spanned by [1, -1]/sqrt(2)
    basis = nullspace_basis(np.array([[1.0, 1.0]]))
    assert basis.shape == (2, 1)
    assert_allclose(np.abs(basis[:, 0]), [1.0 / np.sqrt(2.0)] * 2, rtol=1e-14)
    assert abs(basis[0, 0] + basis[1, 0]) < 1e-14


def test_nullspace_ones_row():
    basis = nullspace_basis(np.ones((1, 5)))
    assert basis.shape == (5, 4)
    assert_allclose(basis.sum(axis=0), np.zeros(4), atol=1e-12)
    assert_allclose(basis.conj().T @ basis, np.eye(4), atol=1e-12)


def test_nullspace_random_shapes():
    rng = np.random.default_rng(31)
    for n_rows, n_cols in ((1, 2), (2, 5), (3, 7), (5, 6)):
        a = rng.standard_normal((n_rows, n_cols)) + 1j * rng.standard_normal((n_rows, n_cols))
        basis = nullspace_basis(a)
        assert basis.shape == (n_cols, n_cols - n_rows)
        assert np.linalg.norm(a @ basis) <= 1e-10 * np.linalg.norm(a)
        gram = basis.conj().T @ basis
        assert np.linalg.norm(gram - np.eye(n_cols - n_rows)) <= 1e-12 * n_cols


def test_nullspace_rank_deficient_rows():
    a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
    with pytest.raises(RankDeficientConstraints):
        nullspace_basis(a)


def test_nullspace_square_full_rank():
    with pytest.raises(EmptyNullspace):
        nullspace_basis(np.eye(3))


def test_least_norm_two_dim():
    # worked by hand: min-norm solution of x0 + x1 = 2 is [1, 1]
    solution = least_norm_solution(np.array([[1.0, 1.0]]), np.array([2.0]))
    assert_allclose(solution, [1.0, 1.0], rtol=1e-14)


def test_least_norm_homogeneous_is_zero():
    solution = least_norm_solution(np.ones((1, 5)), np.zeros(1))
    assert_allclose(solution, np.zeros(5), atol=1e-14)


def test_least_norm_properties():
    rng = np.random.default_rng(37)
    for n_rows, n_cols in ((1, 4), (2, 5), (4, 9)):
        a = rng.standard_normal((n_rows, n_cols)) + 1j * rng.standard_normal((n_rows, n_cols))
        b = rng.standard_normal(n_rows) + 1j * rng.standard_normal(n_rows)
        solution = least_norm_solution(a, b)
        scale = np.linalg.norm(a) * np.linalg.norm(solution) + np.linalg.norm(b)
        assert np.linalg.norm(a @ solution - b) <= 1e-10 * scale
        basis = nullspace_basis(a)
        assert np.linalg.norm(basis.conj().T @ solution) <= 1e-10 * (
            np.linalg.norm(solution) + 1.0
        )
        for _ in range(5):
            alpha = rng.standard_normal(n_cols - n_rows) + 1j * rng.standard_normal(
                n_cols - n_rows
            )
            other = solution + basis @ alpha
            assert np.linalg.norm(solution) <= np.linalg.norm(other) + 1e-12


def test_least_norm_rank_deficient():
    a = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    with pytest.raises(RankDeficientConstraints):
        least_norm_solution(a, np.ones(2))


def test_least_norm_rhs_mismatch():
    with pytest.raises(DimensionMismatch):
        least_norm_solution(np.ones((1, 3)), np.ones(2))


def test_numerical_rank():
    assert numerical_rank(np.eye(4)) == 4
    assert numerical_rank(np.zeros((3, 4))) == 0
    rank_one = np.outer([1.0, 2.0], [3.0, 4.0, 5.0])
    assert numerical_rank(rank_one) == 1


def test_half_solve_both_triangles():
    rng = np.random.default_rng(17)
    factor = hpd_factor(random_hpd(rng, 4))
    lower = factor.lower
    rhs = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    assert_allclose(lower @ half_solve(factor, rhs), rhs, atol=1e-12)
    assert_allclose(lower.conj().T @ half_solve(factor, rhs, adjoint=True), rhs, atol=1e-12)


def test_half_solve_refuses_zero_pivot():
    # hpd_factor never returns such a factor, but HpdFactor can be built by hand
    factor = HpdFactor(lower=np.diag([1.0, 0.0]).astype(complex))
    with pytest.raises(NotPositiveDefinite):
        hpd_solve(factor, np.ones(2))


@pytest.mark.parametrize("n, span", [(1, 1.0), (2, 1.0), (7, 1e6), (60, 1e10)])
def test_inverse_factor_is_lower_and_inverts_within_conditioning(n, span):
    # eigenvalues from 1 to span make cond(L) = sqrt(span)
    rng = np.random.default_rng(n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    factor = hpd_factor(hermitized((q * np.logspace(0, np.log10(span), n)) @ q.conj().T))
    inverse = inverse_factor(factor)
    assert_allclose(inverse, np.tril(inverse), rtol=0, atol=0)
    lower = factor.lower
    residual = np.linalg.norm(lower @ inverse - np.eye(n), 2)
    assert residual <= n * np.finfo(float).eps * np.linalg.cond(lower)


def test_inverse_factor_refuses_zero_pivot():
    factor = HpdFactor(lower=np.diag([1.0, 0.0]).astype(complex))
    with pytest.raises(NotPositiveDefinite, match="zero pivot at diagonal 1"):
        inverse_factor(factor)


# Entries near 2^600 square to beyond double range, so a norm taken in the
# matrix's own units overflows and any relative test against it passes.
NEAR_HERMITIAN = np.array([[2.0, 1.0], [0.5, 2.0]])


def test_hpd_factor_rejects_non_hermitian_at_large_scale():
    with pytest.raises(NotPositiveDefinite):
        hpd_factor(NEAR_HERMITIAN * 2.0**600)


def test_hpd_factor_accepts_hermitian_at_large_scale():
    hermitian = np.array([[2.0, 1.0], [1.0, 2.0]])
    factor = hpd_factor(hermitian * 2.0**600)
    assert_allclose(factor.lower, hpd_factor(hermitian).lower * 2.0**300, rtol=1e-15)


@pytest.mark.parametrize("n", [5, 128, 129, 300])
def test_scaled_asymmetry_matches_the_whole_matrix_difference(n):
    # above 128 rows m - m^H is summed block by block; only the order of the
    # sum of squares changes, so it matches the whole-matrix norm to roundoff
    rng = np.random.default_rng(n)
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = np.ascontiguousarray((random_hpd(rng, n) + 1e-9 * noise) * 2.0**600)
    asymmetry, size, power = scaled_asymmetry(m)
    assert power == 2.0 ** -np.frexp(np.abs(m.view(np.float64)).max())[1]
    scaled = m * power
    assert size == np.linalg.norm(scaled)
    assert_allclose(asymmetry, np.linalg.norm(scaled - scaled.conj().T), rtol=1e-12)
    # one asymmetric entry far below the diagonal counts in both mirror blocks
    lone = np.array(random_hpd(rng, n))
    lone[n - 1, 0] += 1e-3
    asymmetry, _, power = scaled_asymmetry(lone)
    assert_allclose(asymmetry, np.sqrt(2.0) * 1e-3 * power, rtol=1e-9)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("kind", [float, complex])
@pytest.mark.parametrize("shape", [(40, 30), (30, 30)])
def test_gram_factor_reproduces_the_hermitized_product(order, kind, shape):
    rng = np.random.default_rng(71)
    w = rng.standard_normal(shape)
    if kind is complex:
        w = w + 1j * rng.standard_normal(shape)
    w = np.asarray(w, order=order)
    before = w.copy()
    lower = gram_factor(RankDeficient, "test matrix", w).lower
    gram = hermitized(w.conj().T @ w)
    assert np.linalg.norm(lower @ lower.conj().T - gram) <= 1e-14 * np.linalg.norm(gram)
    assert np.array_equal(w, before)


def test_gram_factor_refuses_a_wide_matrix_unformed(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("product formed")

    monkeypatch.setattr(numerics, "zherk", refuse)
    monkeypatch.setattr(numerics, "hermitian_product", refuse)
    with pytest.raises(RankDeficient, match="rank at most 3, below full rank 4"):
        gram_factor(RankDeficient, "test matrix", np.ones((3, 4), complex))


def test_gram_factor_refuses_a_non_finite_gram():
    w = np.full((3, 2), 2.0**600, complex)
    with pytest.raises(EstimationError, match="not finite in double precision"):
        gram_factor(RankDeficient, "test matrix", w)


@pytest.mark.parametrize("make", ["hpd_factor", "gram_factor"])
def test_factor_is_fortran_ordered_read_only_and_lower(make):
    rng = np.random.default_rng(61)
    if make == "hpd_factor":
        lower = hpd_factor(random_hpd(rng, 6)).lower
    else:
        w = rng.standard_normal((9, 6)) + 1j * rng.standard_normal((9, 6))
        lower = gram_factor(RankDeficient, "test matrix", w).lower
    assert lower.flags.f_contiguous and not lower.flags.writeable
    assert lower.dtype == np.complex128
    assert np.all(np.triu(lower, 1) == 0)


def test_indefinite_input_is_refused_by_the_lapack_info(monkeypatch):
    infos = []
    zpotrf = numerics.zpotrf

    def recording_zpotrf(*args, **kwargs):
        lower, info = zpotrf(*args, **kwargs)
        infos.append(info)
        return lower, info

    monkeypatch.setattr(numerics, "zpotrf", recording_zpotrf)
    with pytest.raises(NotPositiveDefinite, match="not positive definite"):
        hpd_factor(np.diag([1.0, 2.0, -1.0]))
    assert infos == [3]


def run_python(code: str, *argv: str) -> None:
    """Run ``code`` in a new interpreter that imports this package; fail on a non-zero exit."""
    src = str(Path(numerics.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_the_sweep_loads_no_scipy_and_the_first_kernel_call_binds_scipys_routines(tmp_path):
    run_python(
        """
        import contextlib, io, sys
        import cblue, cblue.cli, cblue.fileio, cblue.verify
        from cblue import numerics

        cblue.run_experiment(cblue.ExperimentSpec(trials=20))
        argv = ["experiment", "--trials", "20", "--seed", "1", "--output", sys.argv[1]]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cblue.cli.main(argv) == 0
        loaded = [name for name in sys.modules if name.split(".")[0] == "scipy"]
        assert not loaded, loaded[:5]

        import numpy as np
        cblue.hpd_factor(np.eye(2))
        import scipy.linalg
        for module, names in ((scipy.linalg.blas, ("zgemm", "zherk")),
                              (scipy.linalg.lapack, ("zpotrf", "ztrtri", "ztrtrs"))):
            for name in names:
                assert getattr(numerics, name) is getattr(module, name), name
        """,
        str(tmp_path / "sweep.csv"),
    )


def test_a_routine_replaced_before_the_first_call_stays_replaced():
    run_python(
        """
        import numpy as np
        from cblue import numerics

        calls = []
        stand_in = numerics.ztrtrs

        def recording(*args, **kwargs):
            calls.append(args[1].shape)
            return stand_in(*args, **kwargs)

        numerics.ztrtrs = recording
        x = numerics.hpd_solve(numerics.hpd_factor(np.diag([4.0, 9.0])), np.ones(2))
        assert np.array_equal(x, [0.25, 1.0 / 9.0]), x
        assert calls == [(2,), (2,)], calls
        import scipy.linalg
        assert numerics.ztrtrs is recording
        assert numerics.zpotrf is scipy.linalg.lapack.zpotrf
        """
    )


def _refusal(gate, d):
    """The message ``gate(d)`` raises ``NotPositiveDefinite`` with, or None if it accepts."""
    try:
        gate(d)
    except NotPositiveDefinite as exc:
        return str(exc)
    return None


def test_diagonal_pivot_gate_decides_as_the_factorization_does():
    rng = np.random.default_rng(2024)
    draws = [np.array([1.0] * 9 + [1e-17])]
    for index in range(3000):
        d = np.exp(rng.uniform(-40.0, 40.0, rng.integers(1, 14)))
        if index % 3 == 0 and d.size > 1:
            # one entry at the threshold of the others, or one ulp either side
            rest = np.delete(d, 0)
            threshold = d.size * np.finfo(float).eps * rest.max()
            d[0] = (threshold, np.nextafter(threshold, 0.0), np.nextafter(threshold, np.inf))[
                index // 3 % 3
            ]
        draws.append(d)
    refused = 0
    for d in draws:
        lower, info = numerics.zpotrf(np.diag(d).astype(np.complex128), lower=1, clean=1)
        assert info == 0 and np.array_equal(np.square(lower.diagonal().real), np.square(np.sqrt(d)))
        expected = _refusal(hpd_factor, np.diag(d))
        assert _refusal(lambda d: check_pivots(np.square(np.sqrt(d)), d.max()), d) == expected
        refused += expected is not None
    assert 0 < refused < len(draws)


def test_factoring_leaves_a_writable_fortran_input_unchanged():
    rng = np.random.default_rng(67)
    c = np.asfortranarray(random_hpd(rng, 7))
    h = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
    before = c.copy(order="F")
    assert c.flags.writeable and c.flags.f_contiguous
    hpd_factor(c)
    assert np.array_equal(c, before)
    model = LinearModel(h, c)
    assert np.array_equal(c, before)
    assert np.array_equal(model.C_nn, before)


@pytest.mark.parametrize("above", [False, True])
def test_check_pivots_refuses_a_pivot_at_its_threshold(above):
    # two pivots of peak 1: the threshold is 2 eps, and a pivot at it is refused
    threshold = 2.0 * np.finfo(float).eps
    pivot = np.nextafter(threshold, np.inf) if above else threshold
    if above:
        check_pivots(np.array([1.0, pivot]), 1.0)
    else:
        with pytest.raises(NotPositiveDefinite, match="at or below threshold"):
            check_pivots(np.array([1.0, pivot]), 1.0)


@pytest.mark.parametrize("relative, accepted", [(0.5e-12, True), (2e-12, False)])
def test_hpd_factor_hermitian_tolerance_boundary(relative, accepted):
    # I + d e_1 e_2^T differs from its adjoint by sqrt(2) d, against its norm sqrt(2 + d^2)
    m = np.eye(2)
    m[0, 1] = relative
    if accepted:
        hpd_factor(m)
    else:
        with pytest.raises(NotPositiveDefinite, match="not Hermitian"):
            hpd_factor(m)


@pytest.mark.parametrize(
    "peak, power",
    [
        (2.0**1020, 2.0**-1021),
        (2.0**1021, 2.0**-1022),
        (2.0**1023, 2.0**-1022),
        (2.0**-1022, 2.0**1021),
        (2.0**-1023, 2.0**1022),
        (2.0**-1040, 2.0**1022),
    ],
)
def test_reciprocal_power_clamps_to_normal_powers_at_the_ends_of_the_range(peak, power):
    assert reciprocal_power(peak) == power
