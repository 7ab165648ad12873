"""Reference implementations the test suites compare the library against.

These are the scalar, per-replica and one-eigh forms of computations that
gmclab does in bulk: a scalar kernel entry and an untiled Green matrix
against the tiled pair matrices, one full eigh clip against the range
finder, the dense n x n Cholesky factor against the strip-packed one, the
normals and roots of an index list and one replica's rooted sample against
the block-streamed samplers, the strip engine's weighted reduction over
materialized terms, a statistic F of field columns against the change of
measure's streamed sums, the default epsilon from one distance pass against
the one the kernel fill finds, and the rooted local energy of one replica's
masses. No command, demo or benchmark calls them, so they live here, next to
the tests, and not in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from gmclab.bounds import t0_from_ratio
from gmclab.errors import DomainError
from gmclab.field import (BATCH, STRIP, block_normals, block_roots, check_replica_count,
                          field_matrix, gather_blocks)
from gmclab.gmc import mass_columns, rooted_kernel_sums
from gmclab.kernel import (CHOL_BLOCK, UNIT_DISK, DiskKernel, _check_atom_count,
                           _clipped_root, _half_gap, _pair_matrix, pair_distances)
from gmclab.measure import AtomicMeasure, d_energy

# ----------------------------------------------------------------- kernel


def smooth_part(kernel: DiskKernel, x: complex, y: complex) -> float:
    """Kernel plus log|x - y|, continuous through the diagonal."""
    r = kernel.radius
    if abs(x) >= r or abs(y) >= r:
        return 0.0
    return math.log(abs(r * r - x * y.conjugate()) / r)


def smooth_matrix(kernel: DiskKernel, positions: np.ndarray) -> np.ndarray:
    """smooth_part over all atom pairs, in real arithmetic: symmetric bit for bit."""
    return _pair_matrix(positions.size,
                        lambda lo, hi, out: kernel._smooth_rows(positions, lo, hi, out=out))


def untiled_green(positions: np.ndarray) -> np.ndarray:
    """The unit-disk Green matrix between distinct atoms, 0 on the diagonal,
    as one untiled n x n evaluation of log|1 - x*conj(y)| - log|x - y| in
    the real arithmetic of the kernel fill."""
    x, y = positions.real[:, None], positions.imag[:, None]
    re = 1.0 - x * x.T - y * y.T
    im = y * x.T - x * y.T
    dist = np.abs(positions[:, None] - positions[None, :])
    np.fill_diagonal(dist, 1.0)
    green = np.log(np.sqrt(re * re + im * im)) - np.log(dist)
    np.fill_diagonal(green, 0.0)
    return green


def default_epsilon(measure: AtomicMeasure) -> float:
    """Half the minimum pairwise atom distance; geometric fallback for one atom."""
    _check_atom_count(measure)
    return _half_gap(measure.min_pair_distance(), measure.support_radius)


def green_subdisk(x: complex, y: complex, r: float) -> float:
    """Zero-boundary kernel of the centered disk of radius r."""
    return DiskKernel(r)(x, y)


def regularized_entry(x: complex, y: complex, epsilon: float, green=UNIT_DISK) -> float:
    """Kernel entry with the distance truncated below at epsilon.

    Equals green(x, y) when |x - y| >= epsilon; inside the truncation scale the
    singular -log|x - y| part is frozen at -log(epsilon), which on the diagonal
    gives log(1/epsilon) + log of the boundary-distance factor.
    """
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0, 1)")
    if not (green.inside(x) and green.inside(y)):
        return 0.0
    if abs(x - y) >= epsilon:
        return green(x, y)
    return smooth_part(green, x, y) - math.log(epsilon)


def clip_to_psd(matrix: np.ndarray):
    """Eigenvalue clip of a symmetric matrix by one eigh, at the cut of
    _clip_cut: the widest ratio gap among the eigenvalues in CUT_WINDOW *
    lam_max.

    Returns (repaired, clip_magnitude, eig_min, eig_max) where clip_magnitude
    is the size of the most negative eigenvalue removed (0.0 if none); the
    nonnegative eigenvalues below the cut are dropped too. This is the
    reference the range finder of a clipped build is held to.
    """
    root, clip_magnitude, eig_min, eig_max = _clipped_root(*np.linalg.eigh(matrix.T))
    return root @ root.T, clip_magnitude, eig_min, eig_max


def dense_factor(strips) -> np.ndarray:
    """The n x r lower trapezoidal factor whose row strips are strips (a
    CovarianceModel's), zeros above them: the array a model held as factor
    before the factor was stored as strips."""
    rank = strips[-1].shape[1]
    return np.vstack([np.pad(strip, ((0, 0), (0, rank - strip.shape[1])))
                      for strip in strips])


def dense_cholesky(matrix: np.ndarray) -> np.ndarray | None:
    """The lower Cholesky factor of the symmetric matrix as one C-ordered
    n x n array, exactly 0.0 above the diagonal, or None when a pivot fails:
    the dense twin of kernel._cholesky, the reference its strips are held
    to bit for bit. It is left-looking over block columns [lo, hi) of
    CHOL_BLOCK atoms:
        S = C[lo:hi, lo:hi] - L[lo:hi, :lo] L[lo:hi, :lo]^T,
        L[lo:hi, lo:hi] = cholesky(S),
        L[hi:, lo:hi] = (C[hi:, lo:hi] - L[hi:, :lo] L[lo:hi, :lo]^T) inv(L[lo:hi, lo:hi])^T.
    """
    n = len(matrix)
    factor = np.zeros((n, n))
    try:
        for lo in range(0, n, CHOL_BLOCK):
            hi = min(lo + CHOL_BLOCK, n)
            left = factor[lo:hi, :lo]
            diag = np.linalg.cholesky((matrix[lo:hi, lo:hi] - left @ left.T).T)
            factor[lo:hi, lo:hi] = diag
            if hi < n:
                below = factor[hi:, :lo] @ left.T
                np.subtract(matrix[hi:, lo:hi], below, out=below)
                np.matmul(below, np.linalg.inv(diag).T, out=factor[hi:, lo:hi])
        return factor
    except np.linalg.LinAlgError:
        return None


# ------------------------------------------------------------------- gmc


@dataclass(frozen=True)
class RootedSample:
    root: complex
    root_index: int
    gamma_prime: float
    shifted_field: np.ndarray
    base_field: np.ndarray


class IdentityCheck(NamedTuple):
    lhs: float
    rhs: float
    rel_err: float


def normal_block(n: int, base_seed: int, indices) -> np.ndarray:
    """Standard normal matrix with one replica per column, column-major like
    the normals field_matrix multiplies: replica k's column is row k % BATCH of
    the (BATCH, n) draw of block k // BATCH."""
    check_replica_count(len(indices), n)
    normals = np.empty((BATCH, n))
    return gather_blocks(lambda key: block_normals(base_seed, key, normals),
                         indices, np.empty((len(indices), n)).T)


def draw_roots(model, base_seed: int, indices) -> np.ndarray:
    """Root atom index per replica of an arbitrary index list: replica k's is
    entry k % BATCH of block_roots of block k // BATCH."""
    return gather_blocks(lambda key: block_roots(model, base_seed, key), indices,
                         np.empty(len(indices), dtype=np.intp))


def strip_sums(weights: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """sum_i weights[i] * terms[i] per column of terms, an n x (k * BATCH)
    array of the replicas of k whole stream blocks, in field._strip_sums'
    order: each block's strips of STRIP atoms are reduced by one product with
    the weights, in the engine's C layout, and added strip after strip."""
    n, cols = terms.shape
    sums = np.zeros(cols)
    for first in range(0, cols, BATCH):
        block = slice(first, first + BATCH)
        for lo in range(0, n, STRIP):
            hi = min(lo + STRIP, n)
            sums[block] += weights[lo:hi] @ np.ascontiguousarray(terms[lo:hi, block])
    return sums


def evaluate_statistic(statistic, values: np.ndarray):
    """F of a whole field vector, or of a matrix of field columns, as
    finish(weights @ terms): the statistic's terms of values written into a
    fresh array and reduced with its weights."""
    terms = np.empty(np.shape(values))
    statistic.terms(values, slice(None), terms)
    return statistic.finish(statistic.weights @ terms)


def sample_rooted(model, base_seed: int, replica_index: int,
                  gamma_prime: float) -> RootedSample:
    """Root atom plus field shifted by gamma' times the root's covariance row."""
    root_index = int(draw_roots(model, base_seed, [replica_index])[0])
    base = field_matrix(model, base_seed, [replica_index])[:, 0]
    shifted = base + gamma_prime * model.matrix[root_index]
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
    base_mass = mass_columns(model, rooted.base_field, gamma)
    lhs = float(np.sum(np.exp(gamma * gamma_prime * row) * base_mass))
    rhs = float(np.sum(mass_columns(model, rooted.shifted_field, gamma)))
    return IdentityCheck(lhs, rhs, abs(lhs - rhs) / rhs)


# --------------------------------------------------------- energies, bounds


def local_energy(root: complex, masses: np.ndarray, positions: np.ndarray,
                 beta: float) -> float:
    """Energy of one replica's per-atom chaos masses at the atom positions,
    seen from a root point, the root atom excluded.

    sum over atoms p_i != root of masses[i] / |root - p_i|**beta.
    """
    if beta <= 0:
        raise DomainError("beta must be > 0")
    dist = np.abs(positions - root)
    keep = positions != root
    return float(np.sum(masses[keep] * dist[keep] ** -beta))


def t0_l2(measure: AtomicMeasure, gamma: float, d: float) -> float:
    """Square-integrable threshold computed from the measure's d-energy."""
    return t0_from_ratio(d_energy(measure, d) / measure.total_mass, gamma, d)


def local_energy_samples(model, gamma: float, beta: float, base_seed: int,
                         n_replicas: int, start: int = 0) -> np.ndarray:
    """Rooted local energies phi_beta(root, mass), root atom excluded."""
    check_replica_count(n_replicas)
    dist = pair_distances(model.measure.positions)
    return rooted_kernel_sums(model, base_seed, range(start, start + n_replicas),
                              gamma, dist ** -beta)
