"""Negative-moment machinery: admissible exponents, threshold estimates,
Laplace-transform estimates and the quantitative bound verdict.

For an admissible pair (beta, delta) the decay exponent is
    eta = (beta - gamma^2) / (beta + gamma^2 * delta),   L = (1 + delta) / (beta - gamma^2),
and the bound under test is E[exp(-t * mass)] <= 2^5 / (sigma * t^eta) for all
t >= t0 = 2^4 * s0^(1/eta). The exponents alone pick the threshold: when
beta = d, delta = 1 and gamma < sqrt(d) (the square-integrable branch) it is
analytic, s0 = 2^5 * E_d / sigma; otherwise s0 = (2^4 * median)^(1/delta)
from the empirical median of the rooted local energy phi_beta(root, mass).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .field import BATCH, check_replica_count, replica_range
from .gmc import (check_graded_sample, check_sample, damped_masses, mean_se,
                  rooted_kernel_sums, total_masses)
from .kernel import UNIT_DISK, pair_distances
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


def _power(base: float, exponent: float) -> float:
    """base ** exponent as a float64 power: inf past double range, with no
    warning and no OverflowError."""
    with np.errstate(over="ignore"):
        return float(np.float64(base) ** np.float64(exponent))


def _threshold(s0: float, inv_eta: float) -> float:
    """t0 = 2^4 * s0^(1/eta) as a float64 power; an s0 that is not > 0 or a t0
    past double range is a DomainError."""
    if not s0 > 0.0:
        raise DomainError(f"threshold s0 must be > 0, got {s0:.6g}")
    t0 = T0_CONSTANT * _power(s0, inv_eta)
    if not math.isfinite(t0):
        raise DomainError(f"threshold t0 = 2^4 * s0^(1/eta) overflows double precision "
                          f"(s0 = {s0:.6g}, 1/eta = {inv_eta:.6g})")
    return t0


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
    return _threshold(BOUND_CONSTANT * energy_ratio, (d + gamma2) / (d - gamma2))


def estimate_s0(model, gamma: float, beta: float, delta: float, n_replicas: int,
                base_seed: int, start: int = 0,
                dist: np.ndarray | None = None) -> float:
    """Threshold estimate (2^4 * median of phi_beta)^(1/delta) over the rooted
    local energies phi_beta(root, mass), root atom excluded, of replicas
    start .. start+n_replicas-1, from pair_distances(positions), which the
    caller may pass as dist. No replicas at all, a gamma or beta that is not
    finite, or an s0 past double range (the float64 rule of t0) is a
    DomainError."""
    if not delta > 0.0:
        raise DomainError("delta must satisfy delta > 0")
    for name, value in (("gamma", gamma), ("beta", beta)):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, not {value}")
    check_sample(n_replicas)
    replicas = replica_range(start, n_replicas)
    if dist is None:
        dist = pair_distances(model.measure.positions)
    phi = rooted_kernel_sums(model, base_seed, replicas, gamma, dist ** -beta)
    s0 = _power(T0_CONSTANT * np.median(phi), 1.0 / delta)
    if math.isinf(s0):
        raise DomainError(f"threshold s0 = (2^4 * median)^(1/delta) overflows double "
                          f"precision (1/delta = {1.0 / delta:.6g})")
    return s0


def laplace_transform(model, gamma: float, t_values, n_replicas: int,
                      base_seed: int) -> LaplaceReport:
    """Monte Carlo E[exp(-t * mass)] on a shared replica set for every t;
    verify_bound attaches the bound values."""
    t_values = np.atleast_1d(np.asarray(t_values, dtype=float))
    if not np.all(t_values >= 0):
        raise DomainError("t values must be >= 0")
    check_replica_count(n_replicas, rows=t_values.size)
    check_sample(n_replicas)
    totals = total_masses(model, gamma, base_seed, n_replicas)
    damped = damped_masses(t_values[:, None], totals[None, :])
    estimates, ses = mean_se(damped, axis=1)
    return LaplaceReport(t_values, estimates, ses, None, gamma, n_replicas, base_seed)


def verify_bound(model, gamma: float, d: float, beta: float, delta: float,
                 n_replicas: int, base_seed: int) -> BoundReport:
    """Test estimate + 3 SE <= 2^5/(sigma * t^eta) on a 12-points-per-decade
    grid over [t0, 100*t0], plus the concentration-event frequency check.

    t0 is the analytic square-integrable threshold, which l2_t0 repeats, when
    beta = d, delta = 1 and gamma^2 < d, and the empirical one otherwise; then
    l2_t0 (gamma^2 < d) is an ungraded reference, None past double range.
    A grid it cannot grade is a DomainError, raised before the Laplace stage
    samples: a t0 that underflows to 0, a top point 10^GRID_DECADES * t0
    past double range, or a bound 2^5/(sigma * t0^eta) past double range
    (the bound falls as t grows, so t0's is the largest).

    Replica ranges are disjoint per stage and no stream block is drawn by two
    stages: with stride = ceil(N / BATCH) * BATCH, Laplace estimates use
    replicas [0, N), the threshold estimate [stride, stride + N), the event
    check [2 * stride, 2 * stride + N).

    The pair distances are formed once: for the d-energy when gamma^2 < d,
    and for the threshold and event stages.
    The event check holds when the mass in the ball B(root, r = s0^-L)
    stays below s0^delta * r^(beta - gamma^2), which is 1/s0 since
    L * (beta - gamma^2) = 1 + delta. r is a float64 power capped at 2, the
    unit disk's diameter, so a capped ball holds every other atom and never
    the root, whose own distance is inf. When no two atoms lie within r of
    each other, every ball mass is an empty sum, exactly 0.0, and the event
    stage draws no field block and forms no Green weight; otherwise each is
    rooted_kernel_sums over exp(gamma^2 G) inside the ball, G being the
    off-diagonal of the default-epsilon kernel fill (UNIT_DISK.entry_matrix),
    which is the Green kernel bit for bit.
    """
    report = exponents(gamma, d, beta, delta)
    steps = GRID_POINTS_PER_DECADE * GRID_DECADES + 1
    check_replica_count(n_replicas, rows=steps)
    check_graded_sample(n_replicas)
    stride = -(-n_replicas // BATCH) * BATCH
    sigma = model.measure.total_mass
    gamma2 = gamma * gamma
    l2 = beta == d and delta == 1.0 and gamma2 < d
    dist = pair_distances(model.measure.positions)
    energy_ratio = (_distance_energy(model.measure.weights, dist, d) / sigma
                    if gamma2 < d else None)
    if l2:
        s0 = BOUND_CONSTANT * energy_ratio
    else:
        s0 = estimate_s0(model, gamma, beta, delta, n_replicas, base_seed,
                         start=stride, dist=dist)
    t0 = _threshold(s0, (beta + gamma2 * delta) / (beta - gamma2))
    l2_t0 = t0 if l2 else None
    if energy_ratio is not None and not l2:
        with contextlib.suppress(DomainError):  # None past double range
            l2_t0 = t0_from_ratio(energy_ratio, gamma, d)
    report = replace(report, s0=s0, t0=t0, l2_t0=l2_t0)
    if not math.isfinite(t0 * 10.0 ** GRID_DECADES):
        raise DomainError(f"the t grid's top point 10^{GRID_DECADES} * t0 overflows double "
                          f"precision (t0 = {t0:.6g})")
    if not t0 > 0.0:
        raise DomainError(f"threshold t0 = 2^4 * s0^(1/eta) underflows to {t0:.6g} "
                          f"(s0 = {s0:.6g}), so the t grid is all 0")
    t_grid = t0 * 10.0 ** (np.arange(steps) / GRID_POINTS_PER_DECADE)
    scale = sigma * t_grid ** report.eta
    with np.errstate(divide="ignore", over="ignore"):
        bound = BOUND_CONSTANT / scale
    if not math.isfinite(bound[0]):
        raise DomainError(f"the bound 2^5 / (sigma * t0^eta) overflows double precision "
                          f"(sigma = {sigma:.6g}, t0 = {t0:.6g}, eta = {report.eta:.6g})")
    laplace = replace(laplace_transform(model, gamma, t_grid, n_replicas, base_seed),
                      bound_values=bound)
    points_pass = laplace.estimates + 3.0 * laplace.standard_errors <= laplace.bound_values
    trivial = bool(np.all(laplace.estimates == 0.0))
    # concentration event: the kernel-weighted mass inside the ball
    # B(root, r = s0^-L) stays below s0^delta * r^(beta - gamma^2) = 1/s0
    r = min(_power(s0, -report.L), 2.0)
    if dist.min() > r:
        # no ball holds a second atom: every ball mass is an empty sum
        ball_mass = np.zeros(n_replicas)
    else:
        green = UNIT_DISK.entry_matrix(model.measure.positions)[0]
        np.fill_diagonal(green, 0.0)
        weight = np.where(dist <= r, np.exp(gamma2 * green), 0.0)
        event_replicas = range(2 * stride, 2 * stride + n_replicas)
        ball_mass = rooted_kernel_sums(model, base_seed, event_replicas, gamma, weight)
    freq, se = mean_se(ball_mass <= 1.0 / s0)
    event_pass = freq >= 0.5 - 3.0 * se
    verdict = bool(points_pass.all() and event_pass)
    return BoundReport(report, laplace, points_pass, trivial, freq, se,
                       bool(event_pass), verdict, n_replicas, base_seed)


def small_ball_tail(model, gamma: float, thresholds, n_replicas: int,
                    base_seed: int) -> TailReport:
    """Frequencies of {mass < threshold} with binomial standard errors."""
    thresholds = np.atleast_1d(np.asarray(thresholds, dtype=float))
    if not np.all(thresholds > 0):
        raise DomainError("thresholds must be > 0")
    check_replica_count(n_replicas, rows=thresholds.size)
    check_sample(n_replicas)
    totals = total_masses(model, gamma, base_seed, n_replicas)
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
