"""Seeded Gaussian field vectors over a covariance model's atoms.

Replica indices are grouped into fixed blocks of BATCH consecutive indices.
Each block owns one counter-based Philox stream per substream, keyed by
SeedSequence(base_seed, spawn_key=(k // BATCH, substream)). Replica k is row
k % BATCH of its block's bulk draw: a (BATCH, n) standard normal array for the
field and a (BATCH,) uniform array for the root. Field values come from the
lower triangular model factor times the whole block of normals, taken in row
strips of STRIP atoms so the zero upper triangle is skipped. A replica's
numbers therefore depend only on (base_seed, k), never on index order or
which other replicas are drawn with it. Regenerating a lone replica costs one
BATCH x n draw, about 55 ms at n = 2304, plus the factor product over its
block, about 80 ms at n = 2304 on two cores. Substream 0 is reserved for root
selection, substream 1 for the Gaussian vector itself.

STREAM_VERSION names this keying and the factor product it feeds in reports.
Version 1 keyed one stream per replica; version 2 changes every sampled number
compared with it. Version 3 factors by Cholesky first, which changes sampled
values where the eigen-clip bites (another triangular root of the same
matrix). Version 4 multiplies in strips: values at n <= STRIP are unchanged,
larger models move in the last bits (up to 1.2e-14, or 1.6e-15 of the largest
value, on a level-5 Cantor dust with n = 1024).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STREAM_VERSION = 4
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


def block_groups(indices):
    """Split replica indices by stream block.

    Yields (block_index, positions, rows) per distinct block, in increasing
    block order: positions locate the block's replicas within indices, and
    rows are their rows in the block's bulk draw.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        return
    blocks = indices // BATCH
    order = np.argsort(blocks, kind="stable")
    cuts = np.flatnonzero(np.diff(blocks[order])) + 1
    for positions in np.split(order, cuts):
        block = int(blocks[positions[0]])
        yield block, positions, indices[positions] - block * BATCH


def _run(a: np.ndarray):
    """a as a slice when it is an ascending run of consecutive integers, so
    copies through it stay contiguous; otherwise a itself."""
    if a.size and np.all(np.diff(a) == 1):
        return slice(int(a[0]), int(a[-1]) + 1)
    return a


def normal_block(n: int, base_seed: int, indices) -> np.ndarray:
    """Standard normal matrix with one replica per column.

    The matrix is column-major, so each replica's column is a copy of one
    contiguous row of its block's (BATCH, n) draw.
    """
    block = np.empty((len(indices), n)).T
    for key, positions, rows in block_groups(indices):
        z = replica_generator(base_seed, key).standard_normal((BATCH, n))
        block.T[_run(positions)] = z[_run(rows)]
    return block


def field_matrix(model, base_seed: int, indices) -> np.ndarray:
    """Field values for many replicas at once, one column per replica.

    Work is cut at stream-block boundaries: each distinct block is drawn once,
    multiplied through the model factor whole, and the requested columns are
    taken from that product. A column thus never depends on what else was
    requested, and the result is bit-identical for any index order or batch
    shape. The product runs in row strips of STRIP atoms and skips the zero
    upper triangle of the factor.
    """
    n = model.n
    out = np.empty((n, len(indices)))
    for key, positions, rows in block_groups(indices):
        z = normal_block(n, base_seed, np.arange(key * BATCH, (key + 1) * BATCH))
        product = np.empty((n, BATCH))
        # the factor is lower triangular: rows [lo, hi) need only z[:hi]
        for lo in range(0, n, STRIP):
            hi = min(lo + STRIP, n)
            np.matmul(model.factor[lo:hi, :hi], z[:hi], out=product[lo:hi])
        out[:, _run(positions)] = product[:, _run(rows)]
    return out


def replica_blocks(model, base_seed: int, indices):
    """Yield (positions, values) per stream block of indices, in block order:
    the block's replicas' positions within indices and their field columns,
    bit for bit those of field_matrix, in O(n * BATCH) memory.

    A block with one requested replica joins its neighbour, since NumPy sums
    a lone column pairwise but the columns of a wider matrix row by row.
    """
    indices = np.asarray(indices, dtype=np.int64)
    chunks = []
    for _, positions, _ in block_groups(indices):
        if chunks and (positions.size == 1 or chunks[-1].size == 1):
            chunks[-1] = np.concatenate([chunks[-1], positions])
        else:
            chunks.append(positions)
    for positions in chunks:
        yield positions, field_matrix(model, base_seed, indices[positions])


def sample_field(model, base_seed: int, replica_index: int) -> FieldSample:
    """Draw one replica; regenerating with the same arguments is bit-exact."""
    values = field_matrix(model, base_seed, [replica_index])[:, 0]
    return FieldSample(values, replica_index, base_seed)
