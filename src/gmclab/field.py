"""Seeded Gaussian field vectors over a covariance model's atoms.

Replica indices are grouped into fixed blocks of BATCH consecutive indices.
Each block owns one counter-based Philox stream per substream, keyed by
SeedSequence(base_seed, spawn_key=(k // BATCH, substream)). Replica k is row
k % BATCH of its block's bulk draw: a (BATCH, r) standard normal array for the
field, r being the factor rank, and a (BATCH,) uniform array for the root.
Substream 0 is reserved for root selection, substream 1 for the Gaussian
vector itself.

All field values come from field_strips, the one loop over the block
product: the lower trapezoidal n x r factor times the block's normals, in
row strips of STRIP atoms so the zero upper triangle is skipped. Its callers
reduce in one of two ways. block_fields keeps every strip and gives each
block's whole (n, BATCH) field; field_matrix uses it, and so do the rooted
samplers, since a replica's root picks its row. A total-mass reducer
(gmc.total_masses) writes each strip into one reused (STRIP, BATCH) buffer
and reduces it to per-replica sums before the next strip, so no n x BATCH
array of field values is ever held. Both draw the normals into one
(BATCH, r) buffer (block_normals) and reuse it, like every other buffer,
for every block of a call.

gather_blocks is the one map from a replica index to its block and column:
every sampler hands it a function from a block key to that whole block's
per-replica values (field columns, normals, roots or reduced scalars) and
gets back the columns of the replicas it asked for. Replica k's numbers, and
every per-replica scalar reduced from them, thus depend only on (base_seed,
k), never on index order or which other replicas are drawn with it.
Regenerating a lone replica costs one BATCH x r draw, about 55 ms at
r = n = 2304, plus the factor product over its block, about 80 ms at
n = 2304 on two cores.

STREAM_VERSION names this keying and the factor product it feeds in reports;
the README's Reproducibility section tells what each version changed. The
current version, 8, keeps version 7's keying and strip product; it moved
only the factor of a clipped model, whose eigenpairs now come from the
kernel's range finder under a cut in a window of [1e-9, 1e-7] * lam_max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STREAM_VERSION = 8
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


def block_normals(base_seed: int, key: int, out: np.ndarray) -> np.ndarray:
    """Draw stream block key's (BATCH, r) standard normals into out and return
    them as the column-major (r, BATCH) view the factor multiplies."""
    replica_generator(base_seed, key).standard_normal(out=out)
    return out.T


def field_strips(model, z: np.ndarray, out: np.ndarray):
    """Yield (lo, hi, rows) for each row strip [lo, hi) of STRIP atoms, rows
    holding the factor's rows lo:hi times the normals z, r x BATCH.

    rows is out[lo:hi] when out has a row per atom; otherwise out holds one
    strip, rows is out[:hi - lo], and each strip overwrites the last, so the
    caller consumes rows before asking for the next strip.
    """
    n, rank = model.factor.shape
    whole = len(out) >= n
    # rows [lo, hi) need only the factor's first min(hi, rank) columns and
    # normals, which the slices below take
    for lo in range(0, n, STRIP):
        hi = min(lo + STRIP, n)
        rows = out[lo:hi] if whole else out[:hi - lo]
        np.matmul(model.factor[lo:hi, :hi], z[:hi], out=rows)
        yield lo, hi, rows


def block_fields(model, base_seed: int):
    """A function from a stream block key to that block's whole field, one
    column per replica.

    It draws the block's normals into one (BATCH, r) buffer, r being the
    factor rank, and writes the (n, BATCH) product into one field buffer;
    both are owned by the returned function and reused for every block, so a
    block's field must be consumed, as gather_blocks does, before the next
    block is asked for.
    """
    normals = np.empty((BATCH, model.factor_rank))
    values = np.empty((model.n, BATCH))

    def block(key):
        for _ in field_strips(model, block_normals(base_seed, key, normals), values):
            pass
        return values

    return block


def gather_blocks(block, indices, out: np.ndarray) -> np.ndarray:
    """Fill out[..., j] with column indices[j] % BATCH of block(indices[j] //
    BATCH); block(key) returns that stream block's whole array, replicas
    last. block is called once per block the indices touch, in block order,
    and the columns asked for are copied out of its array before the next
    block is made, so that array may be a view into a buffer block reuses.
    A step-1 range is walked as slices cut at block edges; any other index
    list is grouped by block."""
    if isinstance(indices, range) and indices.step == 1:
        start, stop = indices.start, indices.stop
        keys = range(start // BATCH, (stop - 1) // BATCH + 1) if stop > start else ()
        for key in keys:
            lo, hi = max(start, key * BATCH), min(stop, (key + 1) * BATCH)
            first = key * BATCH
            out[..., lo - start:hi - start] = block(key)[..., lo - first:hi - first]
        return out
    indices = np.asarray(indices, dtype=np.int64)
    keys = indices // BATCH
    for key in np.unique(keys):
        picked = keys == key
        out[..., picked] = block(int(key))[..., indices[picked] - key * BATCH]
    return out


def normal_block(n: int, base_seed: int, indices) -> np.ndarray:
    """Standard normal matrix with one replica per column, column-major like
    the normals block_fields multiplies: replica k's column is row k % BATCH of
    the (BATCH, n) draw of block k // BATCH."""
    return gather_blocks(
        lambda key: replica_generator(base_seed, key).standard_normal((BATCH, n)).T,
        indices, np.empty((len(indices), n)).T)


def field_matrix(model, base_seed: int, indices) -> np.ndarray:
    """Field values for arbitrary replica indices, one column per replica.

    Each distinct block is computed whole by block_fields and the requested
    columns are taken from it, so a column never depends on what else was
    requested: the result is bit-identical for any index order or batch shape.
    """
    return gather_blocks(block_fields(model, base_seed), indices,
                         np.empty((model.n, len(indices))))


def sample_field(model, base_seed: int, replica_index: int) -> FieldSample:
    """Draw one replica; regenerating with the same arguments is bit-exact."""
    values = field_matrix(model, base_seed, [replica_index])[:, 0]
    return FieldSample(values, replica_index, base_seed)
