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
from .errors import DomainError, ResourceLimitError
from .field import FieldSample, block_field, gather_blocks, replica_generator

# Replica ceiling: the most cells a per-replica array may hold, checked before
# any is allocated. The largest such arrays are a command's N-length vectors
# (total masses, roots, identity errors), the 3 x N sums of the change of
# measure and the len(t) x N damped masses of the Laplace transform. 2**27
# float64 cells are 1 GiB; the default counts (at most 20k replicas, 25 t
# values) use 500k.
MAX_REPLICA_CELLS = 2 ** 27


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
    se_difference: float
    effective_sample_size: float
    overlap: bool


def check_replica_count(n_replicas: int, rows: int = 1) -> None:
    """Refuse n_replicas replicas whose largest per-replica array holds rows
    values per replica when it would exceed MAX_REPLICA_CELLS."""
    if int(n_replicas) * max(int(rows), 1) > MAX_REPLICA_CELLS:
        raise ResourceLimitError(
            f"{n_replicas} replicas x {rows} values per replica exceed the limit "
            f"of {MAX_REPLICA_CELLS} cells")


def mass_columns(model, values: np.ndarray, gamma: float) -> np.ndarray:
    """Per-atom masses for one field vector or for a matrix of field columns
    (atoms along the first axis, moved last by the transpose to broadcast)."""
    masses = np.multiply(values.T, gamma)
    masses -= 0.5 * gamma * gamma * model.diag_variance
    np.exp(masses, out=masses)
    masses *= model.measure.weights
    return masses.T


def gmc_mass(model, field: FieldSample, gamma: float) -> GmcSample:
    per_atom = mass_columns(model, field.values, gamma)
    return GmcSample(per_atom, float(per_atom.sum()), gamma, field, model)


def total_masses(model, gamma: float, base_seed: int, n_replicas: int,
                 start: int = 0) -> np.ndarray:
    """Total chaos mass for replicas start .. start+n_replicas-1."""
    check_replica_count(n_replicas)
    return gather_blocks(
        lambda key: mass_columns(model, block_field(model, base_seed, key),
                                 gamma).sum(axis=0),
        range(start, start + n_replicas), np.empty(n_replicas))


def block_roots(model, base_seed: int, key: int) -> np.ndarray:
    """Weight-proportional root atom index of every replica of stream block
    key, from one (BATCH,) uniform draw of the block's root substream."""
    cum = np.cumsum(model.measure.weights)
    uniforms = replica_generator(base_seed, key, field_mod.ROOT_SUBSTREAM).random(
        field_mod.BATCH)
    roots = np.searchsorted(cum, uniforms * cum[-1], side="right")
    return np.minimum(roots, model.n - 1)


def draw_roots(model, base_seed: int, indices) -> np.ndarray:
    """Root atom index per replica of an arbitrary index list: replica k's is
    entry k % BATCH of block_roots of block k // BATCH."""
    return gather_blocks(lambda key: block_roots(model, base_seed, key), indices,
                         np.empty(len(indices), dtype=np.intp))


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
    check_replica_count(n_replicas)

    def block(key):
        values = block_field(model, base_seed, key)
        rows = model.matrix[block_roots(model, base_seed, key)].T
        # in place, so the products keep the column-major layout of rows and
        # at most four n x BATCH arrays are alive
        lhs = np.exp(gamma * gamma_prime * rows)
        lhs *= mass_columns(model, values, gamma)
        lhs = lhs.sum(axis=0)
        rows *= gamma_prime
        rows += values
        rhs = mass_columns(model, rows, gamma).sum(axis=0)
        return np.abs(lhs - rhs) / rhs

    return gather_blocks(block, range(n_replicas), np.empty(n_replicas))


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
                             n_replicas: int, base_seed: int) -> TwoSampleReport:
    """Compare the two sides of the rooted change of measure on a statistic F.

    Weighted branch: E[F(h) * mass_{gamma'}(h)] / total base mass under the
    plain field law. Rooted branch: E[F(shifted field)] under the rooted
    sampler. Both branches are evaluated on the same replicas, so the two
    estimates must agree within 3 standard errors of the per-replica
    difference. effective_sample_size is (sum m)^2 / sum m^2 over the
    gamma' masses m that weight the first branch.
    """
    check_replica_count(n_replicas, rows=3)

    def block(key):
        values = block_field(model, base_seed, key)
        masses = mass_columns(model, values, gamma_prime).sum(axis=0)
        weighted = statistic(values) * masses / model.measure.total_mass
        shifted = gamma_prime * model.matrix[block_roots(model, base_seed, key)].T
        shifted += values  # in place, as in rooted_identity_errors
        return np.stack((masses, weighted, statistic(shifted)))

    masses, weighted, rooted = gather_blocks(block, range(n_replicas),
                                             np.empty((3, n_replicas)))
    mean_w, se_w = mean_se(weighted)
    mean_r, se_r = mean_se(rooted)
    se_d = mean_se(weighted - rooted)[1]
    ess = masses.sum() ** 2 / np.sum(masses ** 2)
    overlap = bool(abs(mean_w - mean_r) <= 3.0 * se_d)
    return TwoSampleReport(statistic.name, gamma_prime, n_replicas, base_seed,
                           mean_w, se_w, mean_r, se_r, se_d, ess, overlap)


def rooted_kernel_sums(model, base_seed: int, replicas, gamma: float,
                       weight: np.ndarray) -> np.ndarray:
    """sum_i weight[root, i] * mass_i per replica of an index list, with the
    gamma chaos mass and an n x n weight matrix over the atoms, streamed block
    by block."""
    check_replica_count(len(replicas))

    def block(key):
        masses = mass_columns(model, block_field(model, base_seed, key), gamma)
        return np.einsum("ki,ik->k", weight[block_roots(model, base_seed, key)], masses)

    return gather_blocks(block, replicas, np.empty(len(replicas)))


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
