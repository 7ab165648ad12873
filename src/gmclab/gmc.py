"""Chaos masses over a covariance model and the rooted (size-biased) sampler.

Per-atom mass is w_i * exp(gamma*h_i - gamma^2/2 * var_i) with var_i the
variance the sampler actually realizes, so the expected total mass equals the
base measure's total mass exactly. The rooted sampler draws a root atom with
probability proportional to weight and shifts the field by gamma' times the
root's covariance row; the discrete change-of-measure identity then holds
replica by replica up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import field as field_mod
from .errors import DomainError
from .field import FieldSample, field_matrix, replica_generator


@dataclass(frozen=True)
class GmcSample:
    per_atom_mass: np.ndarray
    total_mass: float
    gamma: float
    field: FieldSample
    model: object


@dataclass(frozen=True)
class RootedSample:
    root: complex
    root_index: int
    gamma_prime: float
    shifted_field: np.ndarray
    base_field: FieldSample


class IdentityCheck(NamedTuple):
    lhs: float
    rhs: float
    rel_err: float


@dataclass(frozen=True)
class Statistic:
    """Named functional of a field-value vector (vectorized over columns)."""

    name: str
    fn: Callable

    def __call__(self, values: np.ndarray):
        return self.fn(values)


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
    overlap: bool


def mass_columns(model, values: np.ndarray, gamma: float) -> np.ndarray:
    """Per-atom masses for one field vector or for a matrix of field columns."""
    w = model.measure.weights
    shift = 0.5 * gamma * gamma * model.diag_variance
    if values.ndim == 1:
        return w * np.exp(gamma * values - shift)
    return w[:, None] * np.exp(gamma * values - shift[:, None])


def gmc_mass(model, field: FieldSample, gamma: float) -> GmcSample:
    per_atom = mass_columns(model, field.values, gamma)
    return GmcSample(per_atom, float(per_atom.sum()), gamma, field, model)


def total_masses(model, gamma: float, base_seed: int, n_replicas: int,
                 start: int = 0, threads: int = 1) -> np.ndarray:
    """Total chaos mass for replicas start .. start+n_replicas-1."""
    values = field_matrix(model, base_seed, np.arange(start, start + n_replicas),
                          threads=threads)
    return mass_columns(model, values, gamma).sum(axis=0)


def draw_roots(model, base_seed: int, indices) -> np.ndarray:
    """Weight-proportional root atom index per replica (root substream).

    Replica k's uniform is entry k % BATCH of one (BATCH,) draw from the root
    stream of block k // BATCH.
    """
    cum = np.cumsum(model.measure.weights)
    uniforms = np.empty(len(indices))
    for key, positions, rows in field_mod.block_groups(indices):
        rng = replica_generator(base_seed, key, field_mod.ROOT_SUBSTREAM)
        uniforms[positions] = rng.random(field_mod.BATCH)[rows]
    roots = np.searchsorted(cum, uniforms * cum[-1], side="right")
    return np.minimum(roots, model.n - 1)


def sample_rooted(model, base_seed: int, replica_index: int,
                  gamma_prime: float) -> RootedSample:
    """Root atom plus field shifted by gamma' times the root's covariance row."""
    root_index = int(draw_roots(model, base_seed, [replica_index])[0])
    base = field_mod.sample_field(model, base_seed, replica_index)
    shifted = base.values + gamma_prime * model.matrix[root_index]
    return RootedSample(complex(model.measure.positions[root_index]), root_index,
                        gamma_prime, shifted, base)


def verify_rooted_identity(model, base_seed: int, replica_index: int,
                           gamma: float, gamma_prime: float) -> IdentityCheck:
    """Check sum_i exp(g*g'*K(root,p_i)) mass_i == total mass of the shifted field.

    Both sides use the repaired covariance row, so the identity is exact up to
    floating point rounding.
    """
    rooted = sample_rooted(model, base_seed, replica_index, gamma_prime)
    row = model.matrix[rooted.root_index]
    base_mass = mass_columns(model, rooted.base_field.values, gamma)
    lhs = float(np.sum(np.exp(gamma * gamma_prime * row) * base_mass))
    rhs = float(np.sum(mass_columns(model, rooted.shifted_field, gamma)))
    return IdentityCheck(lhs, rhs, abs(lhs - rhs) / rhs)


def rooted_identity_errors(model, base_seed: int, n_replicas: int,
                           gamma: float, gamma_prime: float) -> np.ndarray:
    """Relative identity errors for replicas 0 .. n_replicas-1 (vectorized)."""
    indices = np.arange(n_replicas)
    roots = draw_roots(model, base_seed, indices)
    values = field_matrix(model, base_seed, indices)
    rows = model.matrix[roots].T
    base_mass = mass_columns(model, values, gamma)
    lhs = np.sum(np.exp(gamma * gamma_prime * rows) * base_mass, axis=0)
    rhs = np.sum(mass_columns(model, values + gamma_prime * rows, gamma), axis=0)
    return np.abs(lhs - rhs) / rhs


def clipped_mass_statistic(model, gamma: float, cap: float) -> Statistic:
    """Total chaos mass at the given gamma, clipped above at cap."""
    if not cap > 0:
        raise DomainError("cap must be > 0")

    def fn(values):
        return np.minimum(mass_columns(model, values, gamma).sum(axis=0), cap)

    return Statistic(f"total_mass_clipped(gamma={gamma:g}, cap={cap:g})", fn)


def atom_value_statistic(index: int) -> Statistic:
    """Field value at a fixed atom index."""

    def fn(values):
        return values[index]

    return Statistic(f"atom_value({index})", fn)


def verify_change_of_measure(model, gamma_prime: float, statistic: Statistic,
                             n_replicas: int, base_seed: int,
                             threads: int = 1) -> TwoSampleReport:
    """Compare the two sides of the rooted change of measure on a statistic F.

    Weighted branch: E[F(h) * mass_{gamma'}(h)] / total base mass under the
    plain field law. Rooted branch: E[F(shifted field)] under the rooted
    sampler. The two estimates must agree within 3 combined standard errors.
    """
    indices = np.arange(n_replicas)
    values = field_matrix(model, base_seed, indices, threads=threads)
    masses = mass_columns(model, values, gamma_prime).sum(axis=0)
    weighted = statistic(values) * masses / model.measure.total_mass
    roots = draw_roots(model, base_seed, indices)
    rooted_vals = statistic(values + gamma_prime * model.matrix[roots].T)
    mean_w, se_w = _mean_se(weighted)
    mean_r, se_r = _mean_se(rooted_vals)
    gap = abs(mean_w - mean_r)
    overlap = bool(gap <= 3.0 * np.hypot(se_w, se_r))
    return TwoSampleReport(statistic.name, gamma_prime, n_replicas, base_seed,
                           mean_w, se_w, mean_r, se_r, overlap)


def beta_singular_integral(model, base_seed: int, replica_index: int,
                           gamma: float, beta: float) -> float:
    """Singular integral sum_{i != root} exp(beta * G(root, p_i)) * mass_i
    for one rooted replica, with G the exact unit-disk kernel."""
    return float(beta_singular_samples(model, base_seed, [replica_index],
                                       gamma, beta)[0])


def beta_singular_samples(model, base_seed: int, indices, gamma: float,
                          beta: float) -> np.ndarray:
    # beta = 0 is the degenerate case: total unbiased mass minus the root atom's
    if beta < 0:
        raise DomainError("beta must be >= 0")
    indices = np.asarray(indices, dtype=np.int64)
    p = model.measure.positions
    green = (np.log(np.abs(1.0 - np.outer(p, p.conj())))
             - np.log(np.abs(p[:, None] - p[None, :])
                      + np.where(np.eye(p.size, dtype=bool), 1.0, 0.0)))
    np.fill_diagonal(green, 0.0)
    kernel_weight = np.exp(beta * green)
    np.fill_diagonal(kernel_weight, 0.0)
    roots = draw_roots(model, base_seed, indices)
    values = field_matrix(model, base_seed, indices)
    masses = mass_columns(model, values, gamma)
    return np.einsum("ki,ik->k", kernel_weight[roots], masses)


def _mean_se(samples: np.ndarray):
    mean = float(np.mean(samples))
    if samples.size < 2:
        return mean, 0.0
    return mean, float(np.std(samples, ddof=1) / np.sqrt(samples.size))
