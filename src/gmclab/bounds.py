"""Negative-moment machinery: admissible exponents, threshold estimates,
Laplace-transform estimates and the quantitative bound verdict.

For an admissible pair (beta, delta) the decay exponent is
    eta = (beta - gamma^2) / (beta + gamma^2 * delta),   L = (1 + delta) / (beta - gamma^2),
and the bound under test is E[exp(-t * mass)] <= 2^5 / (sigma * t^eta) for all
t >= t0 = 2^4 * s0^(1/eta). In the square-integrable branch (gamma < sqrt(d),
beta = d, delta = 1) the threshold is analytic, s0 = 2^5 * E_d / sigma; in
general s0 comes from the empirical median of the rooted local energy
phi_beta(root, mass) via s0 = (2^4 * median)^(1/delta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .field import BATCH, check_replica_count, replica_range
from .gmc import check_sample, graded_total_masses, mean_se, rooted_kernel_sums
from .kernel import offdiagonal_green, pair_distances
from .measure import _distance_energy

BOUND_CONSTANT = 2.0 ** 5
T0_CONSTANT = 2.0 ** 4
GRID_POINTS_PER_DECADE = 12
GRID_DECADES = 2


@dataclass(frozen=True)
class ExponentReport:
    gamma: float
    d: float
    beta: float
    delta: float
    beta_bar: float
    eta: float
    L: float
    l2_eta: float | None
    s0: float | None = None
    t0: float | None = None
    l2_t0: float | None = None


@dataclass(frozen=True)
class LaplaceReport:
    t_values: np.ndarray
    estimates: np.ndarray
    standard_errors: np.ndarray
    bound_values: np.ndarray | None
    gamma: float
    n_replicas: int
    base_seed: int


@dataclass(frozen=True)
class TailReport:
    thresholds: np.ndarray
    frequencies: np.ndarray
    standard_errors: np.ndarray
    gamma: float
    n_replicas: int
    base_seed: int


@dataclass(frozen=True)
class BoundReport:
    exponent: ExponentReport
    laplace: LaplaceReport
    points_pass: np.ndarray
    trivial_pass: bool
    event_frequency: float
    event_se: float
    event_pass: bool
    verdict: bool
    n_replicas: int
    base_seed: int


def exponents(gamma: float, d: float, beta: float, delta: float) -> ExponentReport:
    """Validate admissibility and fill in the decay exponents.

    gamma = 0 is admitted as the degenerate boundary case (eta = 1).
    """
    if not 0.0 < d <= 2.0:
        raise DomainError("d must satisfy 0 < d <= 2")
    if not 0.0 <= gamma < math.sqrt(2.0 * d):
        raise DomainError("gamma must satisfy 0 <= gamma < sqrt(2*d)")
    if not delta > 0.0:
        raise DomainError("delta must satisfy delta > 0")
    gamma2 = gamma * gamma
    beta_bar = max(math.sqrt(2.0 * d) * gamma, d)
    if not beta > gamma2:
        raise DomainError("beta must satisfy beta > gamma**2")
    square_integrable = beta == d and gamma2 < d
    if not beta < beta_bar and not square_integrable:
        raise DomainError(
            "beta must satisfy beta < max(sqrt(2*d)*gamma, d) "
            "(beta = d is admissible when gamma < sqrt(d))")
    eta = (beta - gamma2) / (beta + gamma2 * delta)
    big_l = (1.0 + delta) / (beta - gamma2)
    l2_eta = (d - gamma2) / (d + gamma2) if gamma2 < d else None
    return ExponentReport(gamma, d, beta, delta, beta_bar, eta, big_l, l2_eta)


def t0_from_ratio(energy_ratio: float, gamma: float, d: float) -> float:
    """Square-integrable threshold 2^4 * (2^5 * E_d/sigma)^((d+g^2)/(d-g^2)).

    The exponent is formed directly as the ratio (d + gamma^2)/(d - gamma^2)
    so dyadic inputs stay exact in floating point.
    """
    if not 0.0 < d <= 2.0:
        raise DomainError("d must satisfy 0 < d <= 2")
    gamma2 = gamma * gamma
    if not gamma2 < d:
        raise DomainError("gamma must satisfy gamma < sqrt(d)")
    if not energy_ratio > 0.0:
        raise DomainError("energy ratio must be > 0")
    return T0_CONSTANT * (BOUND_CONSTANT * energy_ratio) ** ((d + gamma2) / (d - gamma2))


def estimate_s0(model, gamma: float, beta: float, delta: float, n_replicas: int,
                base_seed: int, start: int = 0,
                dist: np.ndarray | None = None) -> float:
    """Threshold estimate (2^4 * median of phi_beta)^(1/delta) over the rooted
    local energies phi_beta(root, mass), root atom excluded, of replicas
    start .. start+n_replicas-1, from pair_distances(positions), which the
    caller may pass as dist. No replicas at all is a DomainError (check_sample)."""
    if not delta > 0.0:
        raise DomainError("delta must satisfy delta > 0")
    check_sample(n_replicas)
    replicas = replica_range(start, n_replicas)
    if dist is None:
        dist = pair_distances(model.measure.positions)
    phi = rooted_kernel_sums(model, base_seed, replicas, gamma, dist ** -beta)
    return float((T0_CONSTANT * np.median(phi)) ** (1.0 / delta))


def laplace_transform(model, gamma: float, t_values, n_replicas: int,
                      base_seed: int) -> LaplaceReport:
    """Monte Carlo E[exp(-t * mass)] on a shared replica set for every t;
    verify_bound attaches the bound values."""
    t_values = np.atleast_1d(np.asarray(t_values, dtype=float))
    if np.any(t_values < 0):
        raise DomainError("t values must be >= 0")
    check_replica_count(n_replicas, rows=t_values.size)
    totals = graded_total_masses(model, gamma, base_seed, n_replicas)
    damped = np.exp(-t_values[:, None] * totals[None, :])
    estimates, ses = mean_se(damped, axis=1)
    return LaplaceReport(t_values, estimates, ses, None, gamma, n_replicas, base_seed)


def verify_bound(model, gamma: float, d: float, beta: float, delta: float,
                 n_replicas: int, base_seed: int,
                 l2: bool | None = None) -> BoundReport:
    """Test estimate + 3 SE <= 2^5/(sigma * t^eta) on a 12-points-per-decade
    grid over [t0, 100*t0], plus the concentration-event frequency check.

    Replica ranges are disjoint per stage and no stream block is drawn by two
    stages: with stride = ceil(N / BATCH) * BATCH, Laplace estimates use
    replicas [0, N), the threshold estimate [stride, stride + N), the event
    check [2 * stride, 2 * stride + N).

    The pair distances are formed once: for the d-energy when gamma^2 < d,
    and for the threshold and event stages.
    When no two atoms lie within the event radius r = s0^-L of each other,
    every ball mass is an empty sum, exactly 0.0, and the event stage draws
    no field block; otherwise each is rooted_kernel_sums over the Green
    weight exp(gamma^2 G) inside the ball.
    """
    report = exponents(gamma, d, beta, delta)
    steps = GRID_POINTS_PER_DECADE * GRID_DECADES + 1
    check_replica_count(n_replicas, rows=steps)
    check_sample(n_replicas)
    stride = -(-n_replicas // BATCH) * BATCH
    sigma = model.measure.total_mass
    if l2 is None:
        l2 = beta == d and delta == 1.0 and gamma * gamma < d
    dist = pair_distances(model.measure.positions)
    energy_ratio = (_distance_energy(model.measure.weights, dist, d) / sigma
                    if gamma * gamma < d else None)
    if l2:
        if not (beta == d and delta == 1.0 and gamma * gamma < d):
            raise DomainError(
                "square-integrable branch requires beta = d, delta = 1, gamma < sqrt(d)")
        s0 = BOUND_CONSTANT * energy_ratio
    else:
        s0 = estimate_s0(model, gamma, beta, delta, n_replicas, base_seed,
                         start=stride, dist=dist)
    if not s0 > 0.0:
        raise DomainError("threshold s0 is zero; measure too degenerate to grade")
    inv_eta = (beta + gamma * gamma * delta) / (beta - gamma * gamma)
    with np.errstate(over="ignore"):
        t0 = float(T0_CONSTANT * np.float64(s0) ** np.float64(inv_eta))
    if not math.isfinite(t0):
        raise DomainError(
            f"threshold t0 = 2^4 * s0^(1/eta) overflows double precision "
            f"(s0 = {s0:.6g}, 1/eta = {inv_eta:.6g}); the grid cannot be formed")
    l2_t0 = None if energy_ratio is None else t0_from_ratio(energy_ratio, gamma, d)
    report = replace(report, s0=s0, t0=t0, l2_t0=l2_t0)
    t_grid = t0 * 10.0 ** (np.arange(steps) / GRID_POINTS_PER_DECADE)
    laplace = laplace_transform(model, gamma, t_grid, n_replicas, base_seed)
    with np.errstate(divide="ignore"):
        bound = BOUND_CONSTANT / (sigma * t_grid ** report.eta)
    laplace = replace(laplace, bound_values=bound)
    points_pass = laplace.estimates + 3.0 * laplace.standard_errors <= laplace.bound_values
    trivial = bool(np.all(laplace.estimates == 0.0))
    # concentration event: the kernel-weighted mass inside the ball
    # B(root, r = s0^-L) stays below s0^delta * r^(beta - gamma^2)
    r = s0 ** -report.L
    if dist.min() > r:
        # no ball holds a second atom: every ball mass is an empty sum
        ball_mass = np.zeros(n_replicas)
    else:
        green = offdiagonal_green(model.measure.positions, dist)
        weight = np.where(dist <= r, np.exp(gamma * gamma * green), 0.0)
        event_replicas = range(2 * stride, 2 * stride + n_replicas)
        ball_mass = rooted_kernel_sums(model, base_seed, event_replicas, gamma, weight)
    freq, se = mean_se(ball_mass <= s0 ** delta * r ** (beta - gamma * gamma))
    event_pass = freq >= 0.5 - 3.0 * se
    verdict = bool(points_pass.all() and event_pass)
    return BoundReport(report, laplace, points_pass, trivial, freq, se,
                       bool(event_pass), verdict, n_replicas, base_seed)


def small_ball_tail(model, gamma: float, thresholds, n_replicas: int,
                    base_seed: int) -> TailReport:
    """Frequencies of {mass < threshold} with binomial standard errors."""
    thresholds = np.atleast_1d(np.asarray(thresholds, dtype=float))
    if np.any(thresholds <= 0):
        raise DomainError("thresholds must be > 0")
    check_replica_count(n_replicas, rows=thresholds.size)
    totals = graded_total_masses(model, gamma, base_seed, n_replicas)
    freqs, ses = mean_se(totals[None, :] < thresholds[:, None], axis=1)
    return TailReport(thresholds, freqs, ses, gamma, n_replicas, base_seed)


def fit_loglog_slope(t_values, estimates) -> float:
    """Decay steepness of the Laplace estimate: least-squares slope of
    -log(estimate) against log(t), over the strictly positive entries."""
    t_values = np.asarray(t_values, dtype=float)
    estimates = np.asarray(estimates, dtype=float)
    keep = (t_values > 0) & (estimates > 0)
    if keep.sum() < 2:
        raise DomainError("need at least 2 positive points to fit a slope")
    slope = np.polyfit(np.log(t_values[keep]), -np.log(estimates[keep]), 1)[0]
    return float(slope)
