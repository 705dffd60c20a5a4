"""Randomized self-verification of the estimator algebra.

Every property follows one instance protocol, kept in :func:`_property`: it
draws ``instances`` random admissible problems with :func:`random_instance`
(every third one underdetermined, for the properties that also hold there),
computes the property's residuals on each problem, and reports the worst
residual against a fixed tolerance, with the index and shape of the problem
that gave it.  :func:`run_suite` gives each property
its own substream of the master seed, chosen by its position in the suite.
The command line front end prints one line per property; the test suite
reuses the same functions with its own instance counts.
"""

from __future__ import annotations

import functools
import math
import numbers
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
from .model import ConstraintSet, LinearModel, NullspaceParam, parameterize
from .montecarlo import sample_proper_gaussian
from .numerics import hermitized

_TINY = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of one verification property.

    ``worst_index`` and ``worst_shape``, ``(n_y, n_x, n_b)``, name the instance that
    gave the worst residual; both are None while no residual exceeds 0.  A NaN
    residual is the worst, so the first one fails the property and is named.
    """

    name: str
    worst: float
    tol: float
    instances: int
    worst_index: int | None = None
    worst_shape: tuple[int, int, int] | None = None

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


def _property(name: str, tol: float, mixed: bool = False):
    """Make a ``check(rng, instances)`` from a generator of one instance's residuals.

    With ``mixed``, every third instance is underdetermined.
    """

    def decorate(residuals):
        @functools.wraps(residuals)
        def check(rng, instances: int) -> PropertyResult:
            worst, where = 0.0, (None, None)
            for index in range(instances):
                overdetermined = not mixed or index % 3 != 2
                model, constraints = random_instance(rng, overdetermined=overdetermined)
                for residual in residuals(rng, model, constraints):
                    # a NaN residual is the worst: kept against any number, never replaced
                    if not residual <= worst and not math.isnan(worst):
                        worst = residual
                        where = index, (model.n_y, model.n_x, constraints.n_b)
            return PropertyResult(name, worst, tol, instances, *where)

        return check

    return decorate


@_property("constraint-satisfaction", 1e-9, mixed=True)
def check_constraint_satisfaction(rng, model, constraints):
    """Constrained estimates satisfy ``A @ x_hat = b`` on random inputs."""
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
        yield residual / scale


@_property("feasible-unbiasedness", 1e-9, mixed=True)
def check_feasible_unbiasedness(rng, model, constraints):
    """``E @ H @ N = N`` and ``f = (I - E H) x_p`` for both constrained forms."""
    param = parameterize(constraints)
    ests = [cblue_nullspace(model, param)]
    if model.n_y >= model.n_x:
        ests.append(cblue_direct(model, constraints))
    basis, xp = param.basis, param.particular
    hn = model.H @ basis
    for est in ests:
        yield _rel(est.E @ hn - basis, basis)
        offset_target = xp - est.E @ (model.H @ xp)
        gap = np.linalg.norm(est.f - offset_target)
        yield gap / (1.0 + np.linalg.norm(xp))


@_property("covariance-formula-agreement", 1e-9)
def check_covariance_formula_agreement(rng, model, constraints):
    """Nullspace and full-rank covariance formulas give the same matrix."""
    param = parameterize(constraints)
    via_nullspace = analytic_cblue_covariance(model, param).C
    via_direct = analytic_cblue_covariance(model, constraints).C
    yield _rel(via_nullspace - via_direct, via_direct)


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


@_property("projection-identity", 1e-9, mixed=True)
def check_projection_identity(rng, model, constraints):
    yield projection_identity_residual(model, constraints, parameterize(constraints))


@_property("form-equivalence", 1e-8)
def check_form_equivalence(rng, model, constraints):
    """Direct and nullspace constrained estimates agree on random inputs."""
    param = parameterize(constraints)
    direct = cblue_direct(model, constraints)
    reduced = cblue_nullspace(model, param)
    y = sample_proper_gaussian(model.n_y, rng, size=20).T
    yield _rel(direct.apply(y) - reduced.apply(y), reduced.apply(y))


@_property("particular-solution-invariance", 1e-9, mixed=True)
def check_particular_invariance(rng, model, constraints):
    """The constrained estimate is independent of the particular solution."""
    param = parameterize(constraints)
    shift = param.basis @ sample_proper_gaussian(param.n0, rng)
    moved = parameterize(constraints, particular=param.particular + shift)
    first = cblue_nullspace(model, param)
    second = cblue_nullspace(model, moved)
    y = sample_proper_gaussian(model.n_y, rng, size=20).T
    yield _rel(first.apply(y) - second.apply(y), first.apply(y))


@_property("basis-invariance", 1e-9, mixed=True)
def check_basis_invariance(rng, model, constraints):
    """The constrained estimate is independent of the nullspace basis choice."""
    param = parameterize(constraints)
    rotation = random_unitary(rng, param.n0)
    rotated = NullspaceParam(basis=param.basis @ rotation, particular=param.particular)
    first = cblue_nullspace(model, param)
    second = cblue_nullspace(model, rotated)
    y = sample_proper_gaussian(model.n_y, rng, size=20).T
    yield _rel(first.apply(y) - second.apply(y), first.apply(y))


@_property("white-noise-reduction", 1e-10)
def check_white_noise_reduction(rng, model, constraints):
    """With white noise the constrained estimators coincide: cblue equals cls."""
    sigma2 = float(10.0 ** rng.integers(-1, 2))
    white = LinearModel(model.H, sigma2 * np.eye(model.n_y))
    reference = cls(white, constraints)
    candidate = cblue_direct(white, constraints)
    yield _rel(candidate.E - reference.E, reference.E)
    yield np.linalg.norm(candidate.f - reference.f) / max(np.linalg.norm(reference.f), 1.0)


@_property("oracle-agreement", 1e-8)
def check_oracle_agreement(rng, model, constraints):
    """Both constrained forms match the augmented-system solver."""
    param = parameterize(constraints)
    direct = cblue_direct(model, constraints)
    reduced = cblue_nullspace(model, param)
    for _ in range(3):
        y = sample_proper_gaussian(model.n_y, rng)
        reference = kkt_oracle(model, constraints, y)
        yield _rel(direct.apply(y) - reference, reference)
        yield _rel(reduced.apply(y) - reference, reference)


@_property("variance-optimality", 1e-10)
def check_variance_optimality(rng, model, constraints):
    """No tested unbiased constrained competitor beats cblue per element."""
    best = covariance(cblue_direct(model, constraints), model.C_nn).per_element_variance
    competitors = [
        cls(model, constraints),
        project_onto_constraints(blue(model), constraints),
    ]
    for competitor in competitors:
        other = covariance(competitor, model.C_nn).per_element_variance
        excess = float((best - other).max(initial=0.0))
        yield excess / max(float(other.max(initial=0.0)), _TINY)


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


class SuiteArgumentError(ValueError):
    """:func:`run_suite` was asked for no instances or given an unusable seed."""


def run_suite(instances: int = 50, seed: int = 0) -> list[PropertyResult]:
    """Run every verification property on its own deterministic substream.

    Raises
    ------
    SuiteArgumentError
        Before any draw, unless ``instances`` is a positive integer and
        ``seed`` an integer in ``[0, 2**64)``.
    """
    if not isinstance(instances, numbers.Integral) or isinstance(instances, bool) or instances < 1:
        raise SuiteArgumentError(
            f"instances per property must be a positive integer, got {instances!r}"
        )
    if not isinstance(seed, numbers.Integral) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise SuiteArgumentError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    results = []
    for index, check in enumerate(_SUITE):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(index,))
        )
        results.append(check(rng, instances))
    return results
