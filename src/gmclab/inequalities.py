"""Correlation-inequality harnesses: positive association of decreasing mass
functionals, convex ordering under kernel domination on nested disks, and
positive semidefiniteness of the domain-difference kernel.

Each check returns an InequalityVerdict whose pass rule is
statistic >= threshold; structural hypothesis failures raise
HypothesisViolationError and are meant to be treated as skips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, HypothesisViolationError
from .gmc import mean_se, total_masses
from .kernel import DiskKernel, build_covariance, default_epsilon, markov_difference_psd
from .measure import AtomicMeasure

ENTRY_SIGN_TOL = 1e-12
ORDER_TOL = 1e-10
PSD_TOL = 1e-8


@dataclass(frozen=True)
class InequalityVerdict:
    name: str
    statistic: float
    threshold: float
    passed: bool
    n_replicas: int | None = None
    base_seed: int | None = None
    details: dict | None = None


def fkg_check(model, gamma: float, s: float, t: float, n_replicas: int,
              base_seed: int) -> InequalityVerdict:
    """Covariance of exp(-s*mass) and exp(-t*mass), two decreasing functionals
    of a positively correlated field, must not be significantly negative.

    Requires every covariance entry >= 0; a negative entry violates the
    positive-association hypothesis and raises.
    """
    if s <= 0 or t <= 0:
        raise DomainError("s and t must be > 0")
    scale = max(1.0, float(np.abs(model.matrix).max()))
    worst = float(model.matrix.min())
    if worst < -ENTRY_SIGN_TOL * scale:
        raise HypothesisViolationError(
            f"covariance entry {worst:.3e} is negative; positive association "
            "does not apply")
    totals = total_masses(model, gamma, base_seed, n_replicas)
    x = np.exp(-s * totals)
    y = np.exp(-t * totals)
    products = (x - x.mean()) * (y - y.mean())
    statistic = float(products.sum() / (n_replicas - 1))
    se = float(mean_se(products)[1])
    threshold = -3.0 * se
    return InequalityVerdict("fkg", statistic, threshold, statistic >= threshold,
                             n_replicas, base_seed)


def kahane_check(measure: AtomicMeasure, gamma: float, r_inner: float, t: float,
                 n_replicas: int, base_seed: int,
                 epsilon: float | None = None) -> InequalityVerdict:
    """Convex ordering under kernel domination on nested disks.

    Both models share the regularization scale and the normal draws (the
    replica streams are deterministic), so the statistic
    E[exp(-t*mass_disk)] - E[exp(-t*mass_subdisk)] is a paired estimate; it
    must not fall significantly below zero, because the dominating kernel
    yields the larger convex expectation.
    """
    if t <= 0:
        raise DomainError("t must be > 0")
    if not 0.0 < r_inner <= 1.0:
        raise DomainError("r_inner must lie in (0, 1]")
    if measure.support_radius >= r_inner:
        raise DomainError("every atom must satisfy |p| < r_inner")
    if epsilon is None:
        epsilon = default_epsilon(measure)
    small = build_covariance(measure, epsilon, DiskKernel(r_inner))
    big = build_covariance(measure, epsilon, DiskKernel(1.0))
    gap = big.matrix - small.matrix
    tol = ORDER_TOL * max(1.0, float(np.abs(big.matrix).max()))
    if float(gap.min()) < -tol:
        i, j = np.unravel_index(int(np.argmin(gap)), gap.shape)
        raise HypothesisViolationError(
            f"post-repair kernel ordering violated at entry ({i}, {j}): "
            f"{small.matrix[i, j]:.12g} > {big.matrix[i, j]:.12g}")
    totals_small = total_masses(small, gamma, base_seed, n_replicas)
    totals_big = total_masses(big, gamma, base_seed, n_replicas)
    diffs = np.exp(-t * totals_big) - np.exp(-t * totals_small)
    statistic, se = map(float, mean_se(diffs))
    threshold = -3.0 * se
    details = {
        "estimate_subdisk": float(np.exp(-t * totals_small).mean()),
        "estimate_disk": float(np.exp(-t * totals_big).mean()),
        "epsilon": float(epsilon),
        "clip_magnitude_subdisk": small.clip_magnitude,
        "clip_magnitude_disk": big.clip_magnitude,
    }
    return InequalityVerdict("kahane", statistic, threshold, statistic >= threshold,
                             n_replicas, base_seed, details)


def markov_psd_suite(measure: AtomicMeasure, radii) -> list[InequalityVerdict]:
    """Minimum eigenvalue of the domain-difference kernel for each radius."""
    verdicts = []
    for r in np.atleast_1d(np.asarray(radii, dtype=float)):
        _, min_eig, max_eig, psd = markov_difference_psd(measure, float(r))
        threshold = -PSD_TOL * max(max_eig, 0.0)
        verdicts.append(InequalityVerdict(
            f"markov_psd(r={r:g})", min_eig, threshold, psd,
            details={"max_eig": max_eig}))
    return verdicts
