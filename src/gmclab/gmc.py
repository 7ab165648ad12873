"""Chaos masses over a covariance model and the rooted (size-biased) sampler.

Per-atom mass is w_i * exp(gamma*h_i - gamma^2/2 * var_i) with var_i the
variance the sampler actually realizes, so the expected total mass equals the
base measure's total mass exactly. The rooted sampler draws a root atom with
probability proportional to weight and shifts the field by gamma' times the
root's covariance row; the discrete change-of-measure identity then holds
replica by replica up to rounding.

Each sampler here supplies only its per-atom terms and the atom weights that
reduce them to the strip engine, field._strip_sums: one row of terms per sum
it keeps (the exponentials e_i = exp(gamma*h_i - gamma^2/2 * var_i); e_i
times a root row of a weight matrix; the identity's two sides; the gamma'
exponentials and a statistic of the field and of the root-shifted field).
Every mass sum is reduced with the measure's weights w, so the mass w_i * e_i
itself is never formed in a sampler.

total_masses, the one total-mass sampler, refuses a gamma that is not finite
and a sample whose every mass is 0 or not finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import field
from .errors import DomainError, NumericalError

# fewer replicas leave every standard error undefined
MIN_REPLICAS = 2


@dataclass(frozen=True)
class Statistic:
    """Named additive functional of a field, F(h) = finish(sum_i weights_i *
    terms_i(h)): terms(values, atoms, out) writes the terms of field rows
    values (atoms first, the slice atoms) into out, which may be values
    itself, and weights holds one reduction weight per atom."""

    name: str
    terms: Callable
    weights: np.ndarray
    finish: Callable


@dataclass(frozen=True)
class TwoSampleReport:
    statistic: str
    gamma_prime: float
    n_replicas: int
    base_seed: int
    mean_weighted: float
    se_weighted: float
    mean_rooted: float
    se_rooted: float
    se_difference: float
    effective_sample_size: float
    overlap: bool


def mass_columns(model, values: np.ndarray, gamma: float) -> np.ndarray:
    """Per-atom masses w_i * e_i for one field vector or for a matrix of
    field columns (atoms along the first axis)."""
    masses = _exponentials(model, values, gamma)
    np.multiply(masses.T, model.measure.weights, out=masses.T)
    return masses


def _exponentials(model, values: np.ndarray, gamma: float, atoms: slice = slice(None),
                  out: np.ndarray | None = None) -> np.ndarray:
    """e_i = exp(gamma*h_i - gamma^2/2 * var_i) of field rows values, atoms
    first (the slice atoms), written into out, which may be values itself,
    or a new array. Every exponential is formed here, in this order, so it
    is the same double in every sampler whatever the array's layout."""
    scaled = np.multiply(values.T, gamma, out=None if out is None else out.T)
    scaled -= 0.5 * gamma * gamma * model.diag_variance[atoms]
    np.exp(scaled, out=scaled)
    return scaled.T


def total_masses(model, gamma: float, base_seed: int, n_replicas: int,
                 start: int = 0) -> np.ndarray:
    """Total chaos mass for replicas start .. start+n_replicas-1. A gamma
    that is not finite is a DomainError. A true mass is positive, so if
    every mass is 0 or not finite the sample under- or overflowed and would
    grade a constant (NumericalError); no replicas give an empty array."""
    if not math.isfinite(gamma):
        raise DomainError(f"gamma must be finite, not {gamma}")

    def terms(atoms, roots, out):
        _exponentials(model, out[0], gamma, atoms, out[0])

    replicas = field.replica_range(start, n_replicas)
    totals = field._strip_sums(model, base_seed, replicas, terms, [model.measure.weights])[0]
    if totals.size and not np.any(np.isfinite(totals) & (totals > 0)):
        raise NumericalError(
            f"the total masses at gamma={gamma:g} under- or overflow: all {totals.size} "
            "replicas are 0 or not finite")
    return totals


def check_sample(n_replicas: int) -> None:
    """Refuse a replica count that check_replica_count refuses, or 0: every
    graded statistic and identity error needs a replica, and an empty
    sample would otherwise read as an under- or overflow (DomainError)."""
    field.check_replica_count(n_replicas)
    if n_replicas == 0:
        raise DomainError("the sample is empty: grading needs at least 1 replica, not 0")


def check_graded_sample(n_replicas: int) -> None:
    """check_sample, and refuse fewer than MIN_REPLICAS: a verdict is graded
    against a standard error, which one replica leaves undefined (DomainError)."""
    check_sample(n_replicas)
    if n_replicas < MIN_REPLICAS:
        raise DomainError(
            f"a graded verdict needs at least {MIN_REPLICAS} replicas, not {n_replicas}")


def damped_masses(t, masses):
    """exp(-t * mass), elementwise with broadcasting: exactly 0 where t * mass
    passes double range, since exp(-inf) is 0, and with no warning."""
    with np.errstate(over="ignore"):
        return np.exp(-(t * masses))


def rooted_kernel_sums(model, base_seed: int, replicas, gamma: float,
                       weight: np.ndarray) -> np.ndarray:
    """sum_i weight[i, root] * mass_i per replica of an index list, with the
    gamma chaos mass and an n x n weight matrix over the atoms: the sum over
    the root's column, which is its row for the symmetric pair-distance and
    Green weights of verify-bound. The columns are gathered by _root_rows,
    in the strip's C order, so the terms are multiplied in one layout."""

    def terms(atoms, roots, out):
        _exponentials(model, out[0], gamma, atoms, out[0])
        out[0] *= _root_rows(weight, roots, atoms)

    return field._strip_sums(model, base_seed, replicas, terms, [model.measure.weights],
                             rooted=True)[0]


def _root_rows(matrix: np.ndarray, roots: np.ndarray, atoms: slice) -> np.ndarray:
    """matrix[atoms, roots], its rows atoms at the roots' columns, in C order
    like the strip it meets (numpy's loops over two layouts are several
    times slower). For the symmetric covariance and weight matrices these
    are C[roots, atoms].T."""
    return np.take(matrix[atoms], roots, axis=1)


def rooted_identity_errors(model, base_seed: int, n_replicas: int,
                           gamma: float, gamma_prime: float) -> np.ndarray:
    """Relative identity errors for replicas 0 .. n_replicas-1 (vectorized).

    At atom i the left side's term is mass_i(h) * exp(gamma * gamma' *
    C[root, i]) and the right side's mass_i(h + gamma' * C[root]). Sums that
    are not finite, or a right side not > 0, raise NumericalError; no
    replicas at all, DomainError (check_sample).
    """
    check_sample(n_replicas)

    def terms(atoms, roots, out):
        h, rhs = out
        row = _root_rows(model.matrix, roots, atoms)
        np.multiply(row, gamma_prime, out=rhs)
        rhs += h
        _exponentials(model, rhs, gamma, atoms, rhs)
        row *= gamma * gamma_prime
        np.exp(row, out=row)
        _exponentials(model, h, gamma, atoms, h)
        h *= row

    weights = model.measure.weights
    lhs, rhs = field._strip_sums(model, base_seed, range(n_replicas), terms,
                                 [weights, weights], rooted=True)
    bad = np.count_nonzero(~(np.isfinite(lhs) & np.isfinite(rhs) & (rhs > 0)))
    if bad:
        raise NumericalError(
            f"the identity's mass sums at gamma={gamma:g}, gamma_prime={gamma_prime:g} "
            f"under- or overflow in {bad} of {n_replicas} replicas")
    return np.abs(lhs - rhs) / rhs


def clipped_mass_statistic(model, gamma: float, cap: float) -> Statistic:
    """Total chaos mass at the given gamma, clipped above at cap: its terms
    are the exponentials e_i, reduced with the weights w. An exponential
    that overflows is a mass above any finite cap, so it is left infinite
    and clipped without a warning."""
    if not cap > 0:
        raise DomainError("cap must be > 0")

    def terms(values, atoms, out):
        with np.errstate(over="ignore"):
            _exponentials(model, values, gamma, atoms, out)

    return Statistic(f"total_mass_clipped(gamma={gamma:g}, cap={cap:g})", terms,
                     model.measure.weights, lambda total: np.minimum(total, cap))


def atom_value_statistic(model, index: int) -> Statistic:
    """Field value at a fixed atom index: its terms are the field values,
    reduced with the one-hot weight vector of the atom, so every other
    term is multiplied by 0 and the sum is the value exactly."""
    if not 0 <= index < model.n:
        raise DomainError(f"atom index must satisfy 0 <= index < {model.n}")
    weights = np.zeros(model.n)
    weights[index] = 1.0

    def terms(values, atoms, out):
        if out is not values:
            np.copyto(out, values)

    return Statistic(f"atom_value({index})", terms, weights, lambda total: total)


def verify_change_of_measure(model, gamma_prime: float, statistic: Statistic,
                             n_replicas: int, base_seed: int) -> TwoSampleReport:
    """Compare the two sides of the rooted change of measure on a statistic F.

    Weighted branch: E[F(h) * mass_{gamma'}(h)] / total base mass under the
    plain field law. Rooted branch: E[F(shifted field)] under the rooted
    sampler. Both branches are evaluated on the same replicas, so the two
    estimates must agree within 3 standard errors of the per-replica
    difference. effective_sample_size is (sum m)^2 / sum m^2 over the
    gamma' masses m that weight the first branch; NumericalError when it is
    not finite. Fewer than MIN_REPLICAS is a DomainError (check_graded_sample).
    """
    check_graded_sample(n_replicas)

    def terms(atoms, roots, out):
        h, plain, shifted = out
        np.multiply(_root_rows(model.matrix, roots, atoms), gamma_prime, out=shifted)
        shifted += h
        statistic.terms(shifted, atoms, shifted)
        statistic.terms(h, atoms, plain)
        _exponentials(model, h, gamma_prime, atoms, h)

    masses, plain, shifted = field._strip_sums(
        model, base_seed, range(n_replicas), terms,
        [model.measure.weights, statistic.weights, statistic.weights], rooted=True)
    # sums that under- or overflow make the ratio 0/0 or inf/inf: not finite
    with np.errstate(all="ignore"):
        ess = masses.sum() ** 2 / np.sum(masses ** 2)
    if not np.isfinite(ess):
        raise NumericalError(
            f"the gamma_prime={gamma_prime:g} mass sums m of {n_replicas} replicas "
            f"under- or overflow: (sum m)^2 / sum m^2 is {ess:g}, and the largest m "
            f"is {np.max(masses, initial=0.0):.3g}")
    weighted = statistic.finish(plain) * masses / model.measure.total_mass
    rooted = statistic.finish(shifted)
    mean_w, se_w = mean_se(weighted)
    mean_r, se_r = mean_se(rooted)
    se_d = mean_se(weighted - rooted)[1]
    overlap = bool(abs(mean_w - mean_r) <= 3.0 * se_d)
    return TwoSampleReport(statistic.name, gamma_prime, n_replicas, base_seed,
                           mean_w, se_w, mean_r, se_r, se_d, ess, overlap)


def mean_se(samples, axis: int = -1):
    """Sample mean along axis and its standard error, NaN below two samples.

    Boolean samples are event indicators with the binomial SE sqrt(p(1-p)/N).
    """
    n = samples.shape[axis]
    mean = samples.mean(axis=axis)
    if n < 2:
        se = mean * np.nan
    elif samples.dtype == bool:
        se = np.sqrt(mean * (1.0 - mean) / n)
    else:
        se = np.std(samples, axis=axis, ddof=1) / np.sqrt(n)
    return mean, se
