"""Correlation-inequality harnesses: positive association of decreasing mass
functionals, convex ordering under kernel domination on nested disks, and
positive semidefiniteness of the domain-difference kernel.

Each check returns an InequalityVerdict whose pass rule is
statistic >= threshold; structural hypothesis failures raise
HypothesisViolationError and are meant to be treated as skips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gmc
from .errors import DomainError, HypothesisViolationError
from .gmc import check_graded_sample, damped_masses, mean_se
from .kernel import (DiskKernel, _tile_rows, build_covariance, markov_difference_psd,
                     psd_threshold)
from .measure import AtomicMeasure

ENTRY_SIGN_TOL = 1e-12
ORDER_TOL = 1e-10


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
    if not (0 < s < math.inf and 0 < t < math.inf):
        raise DomainError("s and t must be finite and > 0")
    check_graded_sample(n_replicas)
    worst = float(model.matrix.min())
    # max|C| without an n x n temporary: max(-min, max) is exact
    scale = max(1.0, -worst, float(model.matrix.max()))
    if worst < -ENTRY_SIGN_TOL * scale:
        raise HypothesisViolationError(
            f"covariance entry {worst:.3e} is negative; positive association "
            "does not apply")
    totals = gmc.total_masses(model, gamma, base_seed, n_replicas)
    x = damped_masses(s, totals)
    y = damped_masses(t, totals)
    products = (x - x.mean()) * (y - y.mean())
    statistic = float(products.sum() / (n_replicas - 1))
    se = float(mean_se(products)[1])
    threshold = -3.0 * se
    return InequalityVerdict("fkg", statistic, threshold, statistic >= threshold,
                             n_replicas, base_seed)


def _least_gap(big: np.ndarray, small: np.ndarray) -> tuple[float, tuple[int, int]]:
    """min(big - small) and the first (i, j) in row order that attains it,
    from one row tile of the gap at a time: no n x n temporary is formed."""
    n = len(big)
    rows = _tile_rows(n)
    least, where = math.inf, (0, 0)
    for lo in range(0, n, rows):
        gap = big[lo:lo + rows] - small[lo:lo + rows]
        k = int(np.argmin(gap))
        if gap.flat[k] < least:
            least, where = float(gap.flat[k]), (lo + k // n, k % n)
    return least, where


def kahane_check(model, gamma: float, r_inner: float, t: float, n_replicas: int,
                 base_seed: int) -> InequalityVerdict:
    """Convex ordering under kernel domination on nested disks.

    model is the dominating unit-disk model, build_covariance(measure,
    epsilon), as every sampled command builds it; only the subdisk model is
    built here, on the same measure at model.epsilon with DiskKernel(r_inner).
    The ordering check guards domination: the raw subdisk kernel never
    exceeds the disk kernel, but after a PSD repair, or for a model not built
    on the unit disk, a subdisk entry can exceed the disk model's. When one
    does by more than ORDER_TOL of its scale, the comparison does not apply
    and HypothesisViolationError is raised.

    Both models share the regularization scale and the replica streams, and
    the statistic E[exp(-t*mass_disk)] - E[exp(-t*mass_subdisk)] is the mean
    of per-replica differences; it must not fall significantly below zero,
    because the dominating kernel yields the larger convex expectation.
    Replica k's normals are row k % BATCH of its block's (BATCH, r) draw, so
    a replica's two masses share their normals only when the two factor ranks
    r are equal. Clipped models often differ (84 and 80 on a level-5 Cantor
    dust at epsilon 0.05, r_inner 0.5): then the pairing removes no variance,
    and a replica of one model shares stream numbers with a neighbouring
    replica of the other. Replicas are independent within each model, and
    those shared numbers correlate a replica's damped mass with its
    neighbour's in the other model only weakly and positively (0.030 to
    0.060 over 8192 replicas at the command's defaults, seeds 3, 7 and 11,
    against at most 0.030 in size for pairs 2 to 7 rows away, which share no
    stream number; stream version 12). A positive cross correlation makes the
    true variance of the mean difference smaller than the standard error
    assumes, so the error errs large and false alarms only get rarer.
    """
    if not 0 < t < math.inf:
        raise DomainError("t must be finite and > 0")
    if not 0.0 < r_inner <= 1.0:
        raise DomainError("r_inner must lie in (0, 1]")
    if model.measure.support_radius >= r_inner:
        raise DomainError("every atom must satisfy |p| < r_inner")
    check_graded_sample(n_replicas)
    big = model
    small = build_covariance(model.measure, model.epsilon, DiskKernel(r_inner))
    tol = ORDER_TOL * max(1.0, -float(big.matrix.min()), float(big.matrix.max()))
    least, (i, j) = _least_gap(big.matrix, small.matrix)
    if least < -tol:
        raise HypothesisViolationError(
            f"post-repair kernel ordering violated at entry ({i}, {j}): "
            f"{small.matrix[i, j]:.12g} > {big.matrix[i, j]:.12g}")
    damped_small, damped_big = (
        damped_masses(t, gmc.total_masses(m, gamma, base_seed, n_replicas))
        for m in (small, big))
    statistic, se = map(float, mean_se(damped_big - damped_small))
    threshold = -3.0 * se
    details = {
        "estimate_subdisk": float(damped_small.mean()),
        "estimate_disk": float(damped_big.mean()),
        "epsilon": model.epsilon,
        "clip_magnitude_subdisk": small.clip_magnitude,
        "clip_magnitude_disk": big.clip_magnitude,
        "factor_rank_subdisk": small.factor_rank,
        "factor_rank_disk": big.factor_rank,
    }
    return InequalityVerdict("kahane", statistic, threshold, statistic >= threshold,
                             n_replicas, base_seed, details)


def markov_psd_suite(measure: AtomicMeasure, radii) -> list[InequalityVerdict]:
    """Minimum eigenvalue of the domain-difference kernel for each radius."""
    verdicts = []
    for r in np.atleast_1d(np.asarray(radii, dtype=float)):
        _, min_eig, max_eig, psd = markov_difference_psd(measure, float(r))
        verdicts.append(InequalityVerdict(
            f"markov_psd(r={r:g})", min_eig, psd_threshold(max_eig), psd,
            details={"max_eig": max_eig}))
    return verdicts
