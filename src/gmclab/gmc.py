"""Chaos masses over a covariance model and the rooted (size-biased) sampler.

Per-atom mass is w_i * exp(gamma*h_i - gamma^2/2 * var_i) with var_i the
variance the sampler actually realizes, so the expected total mass equals the
base measure's total mass exactly. The rooted sampler draws a root atom with
probability proportional to weight and shifts the field by gamma' times the
root's covariance row; the discrete change-of-measure identity then holds
replica by replica up to rounding.

Each sampler here supplies only its per-atom terms to the strip engine,
field._strip_sums: one row of terms per sum it keeps (the masses; masses
times a root row of a weight matrix; the identity's two sides; the gamma'
masses and a statistic of the field and of the root-shifted field).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import field
from .errors import DomainError, NumericalError
from .field import FieldSample


@dataclass(frozen=True)
class GmcSample:
    per_atom_mass: np.ndarray
    total_mass: float
    gamma: float
    field: FieldSample
    model: object


@dataclass(frozen=True)
class Statistic:
    """Named additive functional of a field, F(h) = finish(sum_i terms_i(h)):
    terms(values, atoms, out) writes the terms of field rows values (atoms
    first, the slice atoms) into out, which may be values itself."""

    name: str
    terms: Callable
    finish: Callable

    def __call__(self, values: np.ndarray):
        """F of a whole field vector, or of a matrix of field columns."""
        out = np.empty(np.shape(values))
        self.terms(values, slice(None), out)
        return self.finish(out.sum(axis=0))


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
    """Per-atom masses for one field vector or for a matrix of field columns
    (atoms along the first axis)."""
    return _masses(model, values, gamma)


def _masses(model, values: np.ndarray, gamma: float, atoms: slice = slice(None),
            out: np.ndarray | None = None) -> np.ndarray:
    """Masses of field rows values, atoms first (the slice atoms), written
    into out, which may be values itself, or a new array. Every mass is
    formed here, in this order, so it is the same double in every sampler
    whatever the array's layout."""
    scaled = np.multiply(values.T, gamma, out=None if out is None else out.T)
    scaled -= 0.5 * gamma * gamma * model.diag_variance[atoms]
    np.exp(scaled, out=scaled)
    scaled *= model.measure.weights[atoms]
    return scaled.T


def gmc_mass(model, field: FieldSample, gamma: float) -> GmcSample:
    per_atom = mass_columns(model, field.values, gamma)
    return GmcSample(per_atom, float(per_atom.sum()), gamma, field, model)


def total_masses(model, gamma: float, base_seed: int, n_replicas: int,
                 start: int = 0) -> np.ndarray:
    """Total chaos mass for replicas start .. start+n_replicas-1."""

    def terms(atoms, roots, out):
        _masses(model, out[0], gamma, atoms, out[0])

    return field._strip_sums(model, base_seed, range(start, start + n_replicas), terms)[0]


def rooted_kernel_sums(model, base_seed: int, replicas, gamma: float,
                       weight: np.ndarray) -> np.ndarray:
    """sum_i weight[root, i] * mass_i per replica of an index list, with the
    gamma chaos mass and an n x n weight matrix over the atoms."""

    def terms(atoms, roots, out):
        _masses(model, out[0], gamma, atoms, out[0])
        out[0] *= weight[roots, atoms].T

    return field._strip_sums(model, base_seed, replicas, terms, rooted=True)[0]


def _root_rows(model, roots: np.ndarray, atoms: slice) -> np.ndarray:
    """C[roots, atoms].T in C order, like the strip it meets (numpy's loops
    over two layouts are several times slower): the covariance is symmetric
    bit for bit, so these are its rows atoms at the roots' columns."""
    return np.take(model.matrix[atoms], roots, axis=1)


def rooted_identity_errors(model, base_seed: int, n_replicas: int,
                           gamma: float, gamma_prime: float) -> np.ndarray:
    """Relative identity errors for replicas 0 .. n_replicas-1 (vectorized).

    At atom i the left side's term is mass_i(h) * exp(gamma * gamma' *
    C[root, i]) and the right side's mass_i(h + gamma' * C[root]). Sums that
    are not finite, or a right side not > 0, raise NumericalError.
    """

    def terms(atoms, roots, out):
        h, rhs = out
        row = _root_rows(model, roots, atoms)
        np.multiply(row, gamma_prime, out=rhs)
        rhs += h
        _masses(model, rhs, gamma, atoms, rhs)
        row *= gamma * gamma_prime
        np.exp(row, out=row)
        _masses(model, h, gamma, atoms, h)
        h *= row

    lhs, rhs = field._strip_sums(model, base_seed, range(n_replicas), terms, rows=2,
                                 rooted=True)
    bad = np.count_nonzero(~(np.isfinite(lhs) & np.isfinite(rhs) & (rhs > 0)))
    if bad:
        raise NumericalError(
            f"the identity's mass sums at gamma={gamma:g}, gamma_prime={gamma_prime:g} "
            f"under- or overflow in {bad} of {n_replicas} replicas")
    return np.abs(lhs - rhs) / rhs


def clipped_mass_statistic(model, gamma: float, cap: float) -> Statistic:
    """Total chaos mass at the given gamma, clipped above at cap."""
    if not cap > 0:
        raise DomainError("cap must be > 0")

    return Statistic(f"total_mass_clipped(gamma={gamma:g}, cap={cap:g})",
                     lambda values, atoms, out: _masses(model, values, gamma, atoms, out),
                     lambda total: np.minimum(total, cap))


def atom_value_statistic(index: int) -> Statistic:
    """Field value at a fixed atom index, its one term that is not 0; the
    index must name an atom, 0 <= index < n, as the command line checks."""

    def terms(values, atoms, out):
        first = atoms.start or 0
        np.multiply(values.T, np.arange(first, first + len(values)) == index, out=out.T)

    return Statistic(f"atom_value({index})", terms, lambda total: total)


def verify_change_of_measure(model, gamma_prime: float, statistic: Statistic,
                             n_replicas: int, base_seed: int) -> TwoSampleReport:
    """Compare the two sides of the rooted change of measure on a statistic F.

    Weighted branch: E[F(h) * mass_{gamma'}(h)] / total base mass under the
    plain field law. Rooted branch: E[F(shifted field)] under the rooted
    sampler. Both branches are evaluated on the same replicas, so the two
    estimates must agree within 3 standard errors of the per-replica
    difference. effective_sample_size is (sum m)^2 / sum m^2 over the
    gamma' masses m that weight the first branch; NumericalError when it is
    not finite.
    """

    def terms(atoms, roots, out):
        h, plain, shifted = out
        np.multiply(_root_rows(model, roots, atoms), gamma_prime, out=shifted)
        shifted += h
        statistic.terms(shifted, atoms, shifted)
        statistic.terms(h, atoms, plain)
        _masses(model, h, gamma_prime, atoms, h)

    masses, plain, shifted = field._strip_sums(model, base_seed, range(n_replicas),
                                               terms, rows=3, rooted=True)
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
