"""Seeded Gaussian field vectors over a covariance model's atoms.

Replica indices are grouped into fixed blocks of BATCH consecutive indices.
Each block owns one counter-based Philox stream per substream, keyed by
SeedSequence(base_seed, spawn_key=(k // BATCH, substream)). Replica k is row
k % BATCH of its block's bulk draw: a (BATCH, r) standard normal array for the
field, r being the factor rank, and a (BATCH,) uniform array for the root.
Substream 0 is reserved for root selection, substream 1 for the Gaussian
vector itself.

All field values come from block_field: the lower trapezoidal n x r factor
times the whole block of normals, in row strips of STRIP atoms so the zero
upper triangle is skipped. Samplers walk a replica range with replica_blocks
and reduce each whole block; field_matrix and normal_block pick columns from
whole blocks for arbitrary index lists. Replica k's numbers, and every
per-replica scalar reduced from them, thus depend only on (base_seed, k),
never on index order or which other replicas are drawn with it. Regenerating
a lone replica costs one BATCH x r draw, about 55 ms at r = n = 2304, plus
the factor product over its block, about 80 ms at n = 2304 on two cores.

STREAM_VERSION names this keying and the factor product it feeds in reports.
Version 1 keyed one stream per replica; version 2 changes every sampled number
compared with it. Version 3 factors by Cholesky first, which changes sampled
values where the eigen-clip bites (another triangular root of the same
matrix). Version 4 multiplies in strips: values at n <= STRIP are unchanged,
larger models move in the last bits (up to 1.2e-14, or 1.6e-15 of the largest
value, on a level-5 Cantor dust with n = 1024). Version 5 forms the kernel
matrix in real arithmetic, symmetric by construction: on a 48x48 grid the
covariance matrix moves by at most 8.9e-16 and its Cholesky factor by 7.1e-15;
on a level-5 Cantor dust at epsilon 0.05 the clipped matrix moves by up to
1.4e-13, but the factor by up to 0.10, since the triangular root of a
clipped matrix is not unique (the field's law is the same). Version 6 keeps
only the r root columns of a clipped matrix whose eigenvalue is strictly
positive, so its factor is n x r and each replica draws r normals, not n:
every sampled value of a clipped model changes (same law), while positive
definite models, where r = n, sample bit for bit as under version 5.
Version 7 keeps only the eigenvalues above eigh's rounding level
n * eps * lam_max, not all positive ones: r falls from 497 to 139 on a
level-5 Cantor dust at epsilon 0.05, whose repaired matrix moves by 2.0e-12
of its largest entry, and every sampled value there changes (same law up to
that rounding). Positive definite models, and clipped ones with no eigenvalue
between zero and that level, such as a 16x16 grid at epsilon 0.05, sample
bit for bit as under version 6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STREAM_VERSION = 7
ROOT_SUBSTREAM = 0
FIELD_SUBSTREAM = 1
# replicas per stream block; part of the stream definition, so changing it
# changes every sampled number
BATCH = 1024
# rows of the factor per strip of the block product; part of the stream
# definition too, since the strip cuts set the summation order of each value
STRIP = 256


@dataclass(frozen=True)
class FieldSample:
    values: np.ndarray
    replica_index: int
    base_seed: int


def replica_generator(base_seed: int, block_index: int,
                      substream: int = FIELD_SUBSTREAM) -> np.random.Generator:
    """Counter-based stream keyed by (base_seed, block_index, substream).

    One stream serves the BATCH replicas of a block: replica k is row
    k % BATCH of the bulk draw from block k // BATCH.
    """
    seq = np.random.SeedSequence(base_seed, spawn_key=(block_index, substream))
    return np.random.Generator(np.random.Philox(seq))


def block_field(model, base_seed: int, key: int) -> np.ndarray:
    """Field values of the whole stream block key, one column per replica.

    The normals are the column-major view of the block's one (BATCH, r) draw,
    r being the factor rank, so nothing is copied. The (n, BATCH) product runs
    in row strips of STRIP atoms and skips the zero upper triangle of the
    lower trapezoidal factor.
    """
    n, rank = model.factor.shape
    z = replica_generator(base_seed, key).standard_normal((BATCH, rank)).T
    product = np.empty((n, BATCH))
    # rows [lo, hi) need only the factor's first min(hi, rank) columns and
    # normals, which the slices below take
    for lo in range(0, n, STRIP):
        hi = min(lo + STRIP, n)
        np.matmul(model.factor[lo:hi, :hi], z[:hi], out=product[lo:hi])
    return product


def replica_blocks(model, base_seed: int, start: int, stop: int):
    """Yield (key, positions, columns, values) for each stream block that
    overlaps replicas [start, stop), in block order: values is the block's
    whole field from block_field, columns the slice of its columns that lies
    in the range and positions where those replicas sit within the range."""
    if stop <= start:
        return
    for key in range(start // BATCH, (stop - 1) // BATCH + 1):
        lo, hi = max(start, key * BATCH), min(stop, (key + 1) * BATCH)
        yield (key, slice(lo - start, hi - start),
               slice(lo - key * BATCH, hi - key * BATCH),
               block_field(model, base_seed, key))


def gather_blocks(block, indices, out: np.ndarray) -> np.ndarray:
    """Fill out[..., j] with column indices[j] % BATCH of block(indices[j] //
    BATCH), calling block once per distinct block of the arbitrary index
    list; block(key) returns that block's whole array, replicas last."""
    indices = np.asarray(indices, dtype=np.int64)
    keys = indices // BATCH
    for key in np.unique(keys):
        picked = keys == key
        out[..., picked] = block(int(key))[..., indices[picked] - key * BATCH]
    return out


def normal_block(n: int, base_seed: int, indices) -> np.ndarray:
    """Standard normal matrix with one replica per column, column-major like
    the normals block_field multiplies: replica k's column is row k % BATCH of
    the (BATCH, n) draw of block k // BATCH."""
    return gather_blocks(
        lambda key: replica_generator(base_seed, key).standard_normal((BATCH, n)).T,
        indices, np.empty((len(indices), n)).T)


def field_matrix(model, base_seed: int, indices) -> np.ndarray:
    """Field values for arbitrary replica indices, one column per replica.

    Each distinct block is computed whole by block_field and the requested
    columns are taken from it, so a column never depends on what else was
    requested: the result is bit-identical for any index order or batch shape.
    """
    return gather_blocks(lambda key: block_field(model, base_seed, key),
                         indices, np.empty((model.n, len(indices))))


def sample_field(model, base_seed: int, replica_index: int) -> FieldSample:
    """Draw one replica; regenerating with the same arguments is bit-exact."""
    values = field_matrix(model, base_seed, [replica_index])[:, 0]
    return FieldSample(values, replica_index, base_seed)
