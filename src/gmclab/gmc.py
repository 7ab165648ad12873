"""Chaos masses over a covariance model and the rooted (size-biased) sampler.

Per-atom mass is w_i * exp(gamma*h_i - gamma^2/2 * var_i) with var_i the
variance the sampler actually realizes, so the expected total mass equals the
base measure's total mass exactly. The rooted sampler draws a root atom with
probability proportional to weight and shifts the field by gamma' times the
root's covariance row; the discrete change-of-measure identity then holds
replica by replica up to rounding.

Every sampler reduces each stream block to per-replica values in one of two
ways:

- Total masses (total_masses, behind laplace, tail, fkg, kahane and the
  Laplace stage of verify_bound) are reduced strip by strip as
  field.field_strips forms the field: each strip of STRIP atoms becomes
  masses in place and is added to the running per-replica sums, in the atom
  order numpy's axis-0 sum of the whole block would use. No (n, BATCH)
  array is held.
- Rooted samplers (rooted_identity_errors, verify_change_of_measure,
  rooted_kernel_sums) index the root's covariance or weight row, so they
  hold the block's whole (n, BATCH) field from field.block_fields, whose
  buffers each call reuses for all its blocks, and do the root-row work
  ROOT_CHUNK replicas at a time. Each replica's sum runs along its whole
  atom axis, so the chunk width moves no bit. rooted_kernel_sums sums an
  atoms-first (n, chunk) array over axis 0, one atom row after another as
  einsum("ki,ik->k") did; numpy would sum a lone (n, 1) column pairwise, so
  its chunks are at least 2 replicas wide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ResourceLimitError
from .field import (BATCH, ROOT_SUBSTREAM, STRIP, FieldSample, block_fields, block_normals,
                    field_strips, gather_blocks, replica_generator)

# Replica ceiling: the most cells a per-replica array may hold, checked before
# any is allocated. The largest such arrays are a command's N-length vectors
# (total masses, roots, identity errors), the 3 x N sums of the change of
# measure and the len(t) x N damped masses of the Laplace transform. 2**27
# float64 cells are 1 GiB; the default counts (at most 20k replicas, 25 t
# values) use 500k.
MAX_REPLICA_CELLS = 2 ** 27
# replicas per chunk of a rooted sampler's root-row work, so its chunk arrays
# hold ROOT_CHUNK x n values; not part of the stream definition, since each
# per-replica sum runs over that replica's whole atom axis whatever the width
ROOT_CHUNK = 64


@dataclass(frozen=True)
class GmcSample:
    per_atom_mass: np.ndarray
    total_mass: float
    gamma: float
    field: FieldSample
    model: object


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
    return _masses_in_place(model, np.multiply(values.T, gamma), gamma).T


def _masses_in_place(model, scaled: np.ndarray, gamma: float,
                     atoms: slice = slice(None)) -> np.ndarray:
    """Turn scaled = gamma * h, atoms last (the atoms of the slice atoms),
    into masses in place: subtract the variance shift, exponentiate, weight.
    Every mass is formed here, in this order, so it is the same double in
    every sampler whatever the array's layout."""
    scaled -= 0.5 * gamma * gamma * model.diag_variance[atoms]
    np.exp(scaled, out=scaled)
    scaled *= model.measure.weights[atoms]
    return scaled


def gmc_mass(model, field: FieldSample, gamma: float) -> GmcSample:
    per_atom = mass_columns(model, field.values, gamma)
    return GmcSample(per_atom, float(per_atom.sum()), gamma, field, model)


def total_masses(model, gamma: float, base_seed: int, n_replicas: int,
                 start: int = 0) -> np.ndarray:
    """Total chaos mass for replicas start .. start+n_replicas-1.

    Each strip of field rows becomes masses in place in rows 1.. of one
    (STRIP + 1, BATCH) buffer whose row 0 carries the running sums. Summing
    the buffer over axis 0 adds the strip's masses to them atom by atom, the
    order in which numpy sums a whole (n, BATCH) array over axis 0, so the
    totals are mass_columns(...).sum(axis=0) bit for bit while only the
    normals and one strip are held.
    """
    check_replica_count(n_replicas)
    normals = np.empty((BATCH, model.factor_rank))
    strip = np.empty((STRIP + 1, BATCH))
    totals = np.empty(BATCH)

    def block(key):
        totals.fill(0.0)
        z = block_normals(base_seed, key, normals)
        for lo, hi, rows in field_strips(model, z, strip[1:]):
            rows *= gamma
            _masses_in_place(model, rows.T, gamma, slice(lo, hi))
            strip[0] = totals
            np.sum(strip[:hi - lo + 1], axis=0, out=totals)
        return totals

    return gather_blocks(block, range(start, start + n_replicas), np.empty(n_replicas))


def block_roots(model, base_seed: int, key: int) -> np.ndarray:
    """Weight-proportional root atom index of every replica of stream block
    key, from one (BATCH,) uniform draw of the block's root substream."""
    cum = np.cumsum(model.measure.weights)
    uniforms = replica_generator(base_seed, key, ROOT_SUBSTREAM).random(BATCH)
    roots = np.searchsorted(cum, uniforms * cum[-1], side="right")
    return np.minimum(roots, model.n - 1)


def rooted_identity_errors(model, base_seed: int, n_replicas: int,
                           gamma: float, gamma_prime: float) -> np.ndarray:
    """Relative identity errors for replicas 0 .. n_replicas-1 (vectorized).

    Both sides are formed as (chunk, n) arrays, ROOT_CHUNK replicas at a
    time, and summed along each replica's atoms.
    """
    check_replica_count(n_replicas)
    field = block_fields(model, base_seed)
    errors = np.empty(BATCH)

    def block(key):
        values = field(key)
        roots = block_roots(model, base_seed, key)
        for lo in range(0, BATCH, ROOT_CHUNK):
            h = values[:, lo:lo + ROOT_CHUNK]
            rows = model.matrix[roots[lo:lo + ROOT_CHUNK]]
            lhs = np.exp(gamma * gamma_prime * rows)
            lhs *= mass_columns(model, h, gamma).T
            rows *= gamma_prime
            rows += h.T
            rows *= gamma
            rhs = _masses_in_place(model, rows, gamma).sum(axis=1)
            errors[lo:lo + ROOT_CHUNK] = np.abs(lhs.sum(axis=1) - rhs) / rhs
        return errors

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
    field = block_fields(model, base_seed)
    sums = np.empty((3, BATCH))

    def block(key):
        values = field(key)
        sums[0] = mass_columns(model, values, gamma_prime).sum(axis=0)
        sums[1] = statistic(values) * sums[0] / model.measure.total_mass
        roots = block_roots(model, base_seed, key)
        for lo in range(0, BATCH, ROOT_CHUNK):
            shifted = gamma_prime * model.matrix[roots[lo:lo + ROOT_CHUNK]]
            shifted += values[:, lo:lo + ROOT_CHUNK].T
            sums[2, lo:lo + ROOT_CHUNK] = statistic(shifted.T)
        return sums

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
    by block. The masses are formed in place in the block's field.

    ROOT_CHUNK replicas at a time, the weight rows of their roots are laid
    out atoms first, times the chunk's masses, in one C-ordered (n, chunk)
    buffer, which numpy sums over axis 0 one atom row after another: the
    order of einsum("ki,ik->k") over the same operands, so the sums are that
    einsum's bit for bit. numpy sums a lone (n, 1) column pairwise instead,
    so every chunk is at least 2 replicas wide; a trailing lone replica is
    summed again with its neighbour.
    """
    check_replica_count(len(replicas))
    field = block_fields(model, base_seed)
    width = max(ROOT_CHUNK, 2)
    products = np.empty(model.n * width)
    sums = np.empty(BATCH)

    def block(key):
        masses = field(key)
        masses *= gamma
        _masses_in_place(model, masses.T, gamma)
        roots = block_roots(model, base_seed, key)
        for lo in range(0, BATCH, width):
            lo = min(lo, BATCH - 2)
            hi = min(lo + width, BATCH)
            chunk = products[:model.n * (hi - lo)].reshape(model.n, hi - lo)
            np.multiply(weight[roots[lo:hi]].T, masses[:, lo:hi], out=chunk)
            np.sum(chunk, axis=0, out=sums[lo:hi])
        return sums

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
