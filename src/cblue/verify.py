"""Randomized self-verification of the estimator algebra.

Each property draws a fresh set of random admissible problem instances and
reports the worst residual it saw against a fixed tolerance.  The command
line front end prints one line per property; the test suite reuses the same
functions with its own instance counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .estimators import (
    blue,
    cblue_direct,
    cblue_nullspace,
    cls,
    analytic_cblue_covariance,
    covariance,
    kkt_oracle,
    project_onto_constraints,
)
from .errors import EstimationError
from .model import ConstraintSet, LinearModel, parameterize
from .montecarlo import sample_proper_gaussian
from .numerics import hermitized

_TINY = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of one verification property."""

    name: str
    worst: float
    tol: float
    instances: int

    @property
    def passed(self) -> bool:
        return self.worst <= self.tol


def _rel(delta: np.ndarray, reference: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(reference)), _TINY)
    return float(np.linalg.norm(delta)) / scale


def random_instance(
    rng,
    overdetermined: bool = True,
    max_n_x: int = 8,
    extra_rows: int = 6,
):
    """Draw a random well-conditioned model with random constraints.

    With ``overdetermined`` the measurement matrix is tall and full column
    rank almost surely; otherwise it is wide, with just enough rows to keep
    the nullspace-restricted measurement matrix full column rank.
    """
    while True:
        n_x = int(rng.integers(2, max_n_x + 1))
        n_b = int(rng.integers(1, n_x))
        if overdetermined:
            n_y = n_x + int(rng.integers(0, extra_rows + 1))
        else:
            n_0 = n_x - n_b
            n_y = int(rng.integers(n_0, n_x))
        h = sample_proper_gaussian(n_x, rng, size=n_y)
        root = sample_proper_gaussian(n_y, rng, size=n_y)
        c = hermitized(root @ root.conj().T) + (0.5 + rng.uniform()) * np.eye(n_y)
        a = sample_proper_gaussian(n_x, rng, size=n_b)
        b = sample_proper_gaussian(n_b, rng)
        try:
            return LinearModel(h, c), ConstraintSet(a, b)
        except EstimationError:
            continue


def random_unitary(rng, n: int) -> np.ndarray:
    z = sample_proper_gaussian(n, rng, size=n)
    q, r = np.linalg.qr(z)
    phases = r.diagonal() / np.abs(r.diagonal())
    return q * phases.conj()[None, :]


def check_constraint_satisfaction(rng, instances: int) -> PropertyResult:
    """Constrained estimates satisfy ``A @ x_hat = b`` on random inputs."""
    worst = 0.0
    for index in range(instances):
        model, constraints = random_instance(rng, overdetermined=index % 3 != 2)
        param = parameterize(constraints)
        ests = [cblue_nullspace(model, param)]
        if model.n_y >= model.n_x:
            ests.append(cls(model, constraints))
            ests.append(cblue_direct(model, constraints))
            ests.append(project_onto_constraints(blue(model), constraints))
        y = sample_proper_gaussian(model.n_y, rng, size=20).T
        a, b = constraints.A, constraints.b
        for est in ests:
            x_hat = est.apply(y)
            residual = np.abs(a @ x_hat - b[:, None]).max(initial=0.0)
            scale = (
                np.linalg.norm(a) * np.abs(x_hat).max(initial=0.0)
                + np.linalg.norm(b)
                + _TINY
            )
            worst = max(worst, residual / scale)
    return PropertyResult("constraint-satisfaction", worst, 1e-9, instances)


def check_feasible_unbiasedness(rng, instances: int) -> PropertyResult:
    """``E @ H @ N = N`` and ``f = (I - E H) x_p`` for both constrained forms."""
    worst = 0.0
    for index in range(instances):
        model, constraints = random_instance(rng, overdetermined=index % 3 != 2)
        param = parameterize(constraints)
        ests = [cblue_nullspace(model, param)]
        if model.n_y >= model.n_x:
            ests.append(cblue_direct(model, constraints))
        basis, xp = param.basis, param.particular
        hn = model.H @ basis
        for est in ests:
            worst = max(worst, _rel(est.E @ hn - basis, basis))
            offset_target = xp - est.E @ (model.H @ xp)
            gap = np.linalg.norm(est.f - offset_target)
            worst = max(worst, gap / (1.0 + np.linalg.norm(xp)))
    return PropertyResult("feasible-unbiasedness", worst, 1e-9, instances)


def check_covariance_formula_agreement(rng, instances: int) -> PropertyResult:
    """Nullspace and full-rank covariance formulas give the same matrix."""
    worst = 0.0
    for _ in range(instances):
        model, constraints = random_instance(rng)
        param = parameterize(constraints)
        via_nullspace = analytic_cblue_covariance(model, param).C
        via_direct = analytic_cblue_covariance(model, constraints).C
        worst = max(worst, _rel(via_nullspace - via_direct, via_direct))
    return PropertyResult("covariance-formula-agreement", worst, 1e-9, instances)


def projection_identity_residual(model, constraints, param) -> float:
    """Residual of the identity ``T = T A^H (A A^H)^-1 A``.

    ``T = I - N (N^H P N)^-1 N^H P`` maps any particular solution to the
    same constrained estimate offset, which is why the estimate cannot
    depend on the particular solution choice.
    """
    basis = param.basis
    h = model.H
    whitened = np.linalg.solve(model.C_nn, h)
    p = hermitized(h.conj().T @ whitened)
    reduced_gram = basis.conj().T @ p @ basis
    t = np.eye(model.n_x) - basis @ np.linalg.solve(reduced_gram, basis.conj().T @ p)
    a = constraints.A
    gram = a @ a.conj().T
    projected = t @ a.conj().T @ np.linalg.solve(gram, a)
    return _rel(t - projected, t)


def check_projection_identity(rng, instances: int) -> PropertyResult:
    worst = 0.0
    for index in range(instances):
        model, constraints = random_instance(rng, overdetermined=index % 3 != 2)
        param = parameterize(constraints)
        worst = max(worst, projection_identity_residual(model, constraints, param))
    return PropertyResult("projection-identity", worst, 1e-9, instances)


def check_form_equivalence(rng, instances: int) -> PropertyResult:
    """Direct and nullspace constrained estimates agree on random inputs."""
    worst = 0.0
    for _ in range(instances):
        model, constraints = random_instance(rng)
        param = parameterize(constraints)
        direct = cblue_direct(model, constraints)
        reduced = cblue_nullspace(model, param)
        y = sample_proper_gaussian(model.n_y, rng, size=20).T
        worst = max(worst, _rel(direct.apply(y) - reduced.apply(y), reduced.apply(y)))
    return PropertyResult("form-equivalence", worst, 1e-8, instances)


def check_particular_invariance(rng, instances: int) -> PropertyResult:
    """The constrained estimate is independent of the particular solution."""
    worst = 0.0
    for index in range(instances):
        model, constraints = random_instance(rng, overdetermined=index % 3 != 2)
        param = parameterize(constraints)
        shift = param.basis @ sample_proper_gaussian(param.n0, rng)
        moved = parameterize(constraints, particular=param.particular + shift)
        first = cblue_nullspace(model, param)
        second = cblue_nullspace(model, moved)
        y = sample_proper_gaussian(model.n_y, rng, size=20).T
        worst = max(worst, _rel(first.apply(y) - second.apply(y), first.apply(y)))
    return PropertyResult("particular-solution-invariance", worst, 1e-9, instances)


def check_basis_invariance(rng, instances: int) -> PropertyResult:
    """The constrained estimate is independent of the nullspace basis choice."""
    from .model import NullspaceParam

    worst = 0.0
    for index in range(instances):
        model, constraints = random_instance(rng, overdetermined=index % 3 != 2)
        param = parameterize(constraints)
        rotation = random_unitary(rng, param.n0)
        rotated = NullspaceParam(
            basis=param.basis @ rotation, particular=param.particular
        )
        first = cblue_nullspace(model, param)
        second = cblue_nullspace(model, rotated)
        y = sample_proper_gaussian(model.n_y, rng, size=20).T
        worst = max(worst, _rel(first.apply(y) - second.apply(y), first.apply(y)))
    return PropertyResult("basis-invariance", worst, 1e-9, instances)


def check_white_noise_reduction(rng, instances: int) -> PropertyResult:
    """With white noise the constrained estimators coincide: cblue equals cls."""
    worst = 0.0
    for _ in range(instances):
        model, constraints = random_instance(rng)
        sigma2 = float(10.0 ** rng.integers(-1, 2))
        white = LinearModel(model.H, sigma2 * np.eye(model.n_y))
        reference = cls(white, constraints)
        candidate = cblue_direct(white, constraints)
        worst = max(worst, _rel(candidate.E - reference.E, reference.E))
        worst = max(
            worst,
            np.linalg.norm(candidate.f - reference.f)
            / max(np.linalg.norm(reference.f), 1.0),
        )
    return PropertyResult("white-noise-reduction", worst, 1e-10, instances)


def check_oracle_agreement(rng, instances: int) -> PropertyResult:
    """Both constrained forms match the augmented-system solver."""
    worst = 0.0
    for _ in range(instances):
        model, constraints = random_instance(rng)
        param = parameterize(constraints)
        direct = cblue_direct(model, constraints)
        reduced = cblue_nullspace(model, param)
        for _ in range(3):
            y = sample_proper_gaussian(model.n_y, rng)
            reference = kkt_oracle(model, constraints, y)
            worst = max(worst, _rel(direct.apply(y) - reference, reference))
            worst = max(worst, _rel(reduced.apply(y) - reference, reference))
    return PropertyResult("oracle-agreement", worst, 1e-8, instances)


def check_variance_optimality(rng, instances: int) -> PropertyResult:
    """No tested unbiased constrained competitor beats cblue per element."""
    worst = 0.0
    for _ in range(instances):
        model, constraints = random_instance(rng)
        param = parameterize(constraints)
        best = covariance(
            cblue_direct(model, constraints), model.C_nn
        ).per_element_variance
        competitors = [
            cls(model, constraints),
            project_onto_constraints(blue(model), constraints),
        ]
        for competitor in competitors:
            other = covariance(competitor, model.C_nn).per_element_variance
            excess = float((best - other).max(initial=0.0))
            worst = max(worst, excess / max(float(other.max(initial=0.0)), _TINY))
    return PropertyResult("variance-optimality", worst, 1e-10, instances)


_SUITE: tuple[Callable, ...] = (
    check_constraint_satisfaction,
    check_feasible_unbiasedness,
    check_covariance_formula_agreement,
    check_projection_identity,
    check_form_equivalence,
    check_particular_invariance,
    check_basis_invariance,
    check_white_noise_reduction,
    check_oracle_agreement,
    check_variance_optimality,
)


def run_suite(instances: int = 50, seed: int = 0) -> list[PropertyResult]:
    """Run every verification property on its own deterministic substream."""
    results = []
    for index, check in enumerate(_SUITE):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(index,))
        )
        results.append(check(rng, instances))
    return results
