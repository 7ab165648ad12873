"""Seeded replica streams: every step that sets a replica's numbers.

Replica indices are grouped into fixed blocks of BATCH consecutive indices.
Each block owns one SFC64 stream per substream, keyed by
SeedSequence(base_seed, spawn_key=(k // BATCH, substream)); the distinct
spawn keys are what keep the blocks' streams independent. Replica k is row
k % BATCH of its block's bulk draw: a (BATCH, r) standard normal array for the
field, r being the factor rank, and a (BATCH,) uniform array for the root.
Substream 0 is reserved for root selection (block_roots), substream 1 for the
Gaussian vector itself.

All field values come from field_strips, the one loop over the block
product: the lower trapezoidal n x r factor times the block's normals, one
row strip of STRIP atoms at a time. The model stores its factor as exactly
these strips (CovarianceModel.strips), each over only the columns its rows
reach, so a strip product reads one contiguous array and neither stores nor
multiplies the zero upper triangle. _strip_sums,
the engine behind every sampler, has each strip turned into rows of per-atom
terms in one reused buffer and reduces each row with one BLAS product, its
atom weights (the measure's weights w for a mass sum) times the strip's terms,
adding the product to the running per-replica sums strip after strip; so no
sampler holds an n x BATCH array of field values, and no sampler forms the
masses w_i * e_i themselves. Only field_matrix, for callers that ask for
field columns, keeps every strip of a block. Both draw the normals into one
(BATCH, r) buffer (block_normals) and reuse it, like every other buffer, for
every block of a call.

The products, the factor's and the reductions', go through the BLAS that
numpy is built with, so the bits of a sampled number depend on that build and
on its thread count. With OPENBLAS_NUM_THREADS=1 against the default 2 on a
2-core host (stream versions 11 and 12), the factors and the total masses of
the 48x48 grid and of the level-5 Cantor dust at epsilon 0.05 differ in their
bits, those of the 8x8 grid do not. On the grid the masses move by at most
1.1e-14 relative. The dust's clipped factor comes out as another square root
of the same matrix (F F^T agrees within 1.1e-14), so its masses are other
draws of the same law and move by up to 0.7%.

gather_blocks is the one map from a replica index to its block and column:
every sampler hands it a function from a block key to that whole block's
per-replica values (field columns, normals, roots or reduced scalars) and
gets back the columns of the replicas it asked for. Replica k's numbers, and
every per-replica scalar reduced from them, thus depend only on (base_seed,
k), never on index order or which other replicas are drawn with it.
Regenerating a lone replica costs its whole block: field_matrix on one index
of the 48x48 grid (r = n = 2304) took 104-139 ms on a 2-core host, 28-41 ms
of it the BATCH x r draw.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ResourceLimitError

# names this keying, the root draw, the factor product and the weighted strip
# reduction in reports; CHANGES.md tells what each version changed. Version
# 12 changed only the rounding order of the sums: each strip's terms are
# reduced by one BLAS product with the atom weights, where the masses were
# formed and added atom after atom, moving every sum in its last bits.
STREAM_VERSION = 12
ROOT_SUBSTREAM = 0
FIELD_SUBSTREAM = 1
# replicas per stream block; part of the stream definition, so changing it
# changes every sampled number
BATCH = 1024
# rows of the factor per strip: the unit the factor is stored in, its check
# works in and the block product runs in; part of the stream definition too,
# since the strip cuts set the summation order of each value
STRIP = 256

# Replica ceiling: the most cells a per-replica array may hold, checked before
# any is allocated. The largest such arrays are a command's N-length vectors
# (total masses, roots, identity errors), the 2 x N sums of the identity, the
# 3 x N sums of the change of measure and the len(t) x N damped masses of the
# Laplace transform. 2**27 float64 cells are 1 GiB; the default counts (at
# most 20k replicas, 25 t values) use 500k.
MAX_REPLICA_CELLS = 2 ** 27


def replica_generator(base_seed: int, block_index: int,
                      substream: int = FIELD_SUBSTREAM) -> np.random.Generator:
    """SFC64 stream keyed by (base_seed, block_index, substream).

    SFC64 is not counter-based: the blocks' streams are independent because
    each seeds its own SeedSequence with a distinct spawn key.

    One stream serves the BATCH replicas of a block: replica k is row
    k % BATCH of the bulk draw from block k // BATCH.
    """
    seq = np.random.SeedSequence(base_seed, spawn_key=(block_index, substream))
    return np.random.Generator(np.random.SFC64(seq))


def check_replica_count(n_replicas: int, rows: int = 1) -> None:
    """Refuse an n_replicas that is not an integer >= 0 (DomainError), and
    n_replicas replicas whose largest per-replica array holds rows values per
    replica when it would exceed MAX_REPLICA_CELLS (ResourceLimitError)."""
    if not isinstance(n_replicas, (int, np.integer)) or n_replicas < 0:
        raise DomainError(f"the replica count must be an integer >= 0, not {n_replicas!r}")
    if int(n_replicas) * max(int(rows), 1) > MAX_REPLICA_CELLS:
        raise ResourceLimitError(
            f"{n_replicas} replicas x {rows} values per replica exceed the limit "
            f"of {MAX_REPLICA_CELLS} cells")


def replica_range(start: int, n_replicas: int) -> range:
    """Replicas start .. start+n_replicas-1, once the count has passed
    check_replica_count and start is an integer >= 0 (else DomainError)."""
    check_replica_count(n_replicas)
    if not isinstance(start, (int, np.integer)) or start < 0:
        raise DomainError(f"the first replica index must be an integer >= 0, not {start!r}")
    return range(start, start + n_replicas)


def block_normals(base_seed: int, key: int, out: np.ndarray) -> np.ndarray:
    """Draw stream block key's (BATCH, r) standard normals into out and return
    them as the column-major (r, BATCH) view the factor multiplies."""
    replica_generator(base_seed, key).standard_normal(out=out)
    return out.T


def block_roots(model, base_seed: int, key: int) -> np.ndarray:
    """Weight-proportional root atom index of every replica of stream block
    key, from one (BATCH,) uniform draw of the block's root substream."""
    cum = np.cumsum(model.measure.weights)
    uniforms = replica_generator(base_seed, key, ROOT_SUBSTREAM).random(BATCH)
    roots = np.searchsorted(cum, uniforms * cum[-1], side="right")
    return np.minimum(roots, model.n - 1)


def field_strips(model, z: np.ndarray, out: np.ndarray):
    """Yield (lo, hi, rows) for each row strip [lo, hi) of STRIP atoms, rows
    holding the factor's rows lo:hi times the normals z, r x BATCH: the
    model's strip times the normals its columns reach.

    rows is out[lo:hi] when out has a row per atom; otherwise out holds one
    strip, rows is out[:hi - lo], and each strip overwrites the last, so the
    caller consumes rows before asking for the next strip.
    """
    whole = len(out) >= model.n
    for lo, strip in zip(range(0, model.n, STRIP), model.strips):
        hi = lo + len(strip)
        rows = out[lo:hi] if whole else out[:hi - lo]
        np.matmul(strip, z[:strip.shape[1]], out=rows)
        yield lo, hi, rows


def _strip_sums(model, base_seed: int, replicas, terms, weights,
                rooted: bool = False) -> np.ndarray:
    """Weighted sums over the atoms per replica of an index list, streamed
    block by block, as a (len(weights), len(replicas)) array: row k sums
    weights[k][i] times term k of atom i.

    Each strip of field rows goes into row 0 of one (len(weights),
    min(STRIP, n), BATCH) buffer; terms(atoms, roots, out) turns out[0] into
    terms in place and fills out[1:], roots being the block's roots if
    rooted. Row k of a strip [lo, hi) is then reduced by one BLAS product,
    weights[k][lo:hi] @ out[k], and added to the block's sums strip after
    strip, so each sum's rounding order is set by the strip cuts and the BLAS
    build.
    """
    check_replica_count(len(replicas), len(weights))
    normals = np.empty((BATCH, model.factor_rank))
    strip = np.empty((len(weights), min(STRIP, model.n), BATCH))
    sums = np.empty((len(weights), BATCH))
    part = np.empty(BATCH)

    def block(key):
        sums.fill(0.0)
        z = block_normals(base_seed, key, normals)
        roots = block_roots(model, base_seed, key) if rooted else None
        for lo, hi, _ in field_strips(model, z, strip[0]):
            out = strip[:, :hi - lo]
            terms(slice(lo, hi), roots, out)
            for weight, row, total in zip(weights, out, sums):
                np.matmul(weight[lo:hi], row, out=part)
                total += part
        return sums

    return gather_blocks(block, replicas, np.empty((len(weights), len(replicas))))


def gather_blocks(block, indices, out: np.ndarray) -> np.ndarray:
    """Fill out[..., j] with column indices[j] % BATCH of block(indices[j] //
    BATCH); block(key) returns that stream block's whole array, replicas
    last. block is called once per block the indices touch, in block order,
    and the columns asked for are copied out of its array before the next
    block is made, so that array may be a view into a buffer block reuses.
    A step-1 range is walked as slices cut at block edges; any other index
    list is grouped by block. An index below 0, an index that is not an
    integer or a range that ends before it starts is a DomainError."""
    if isinstance(indices, range) and indices.step == 1:
        start, stop = indices.start, indices.stop
        if start < 0:
            raise DomainError(f"replica indices must be >= 0, not {start}")
        check_replica_count(stop - start)
        keys = range(start // BATCH, (stop - 1) // BATCH + 1) if stop > start else ()
        for key in keys:
            lo, hi = max(start, key * BATCH), min(stop, (key + 1) * BATCH)
            first = key * BATCH
            out[..., lo - start:hi - start] = block(key)[..., lo - first:hi - first]
        return out
    indices = np.asarray(indices)
    if indices.size and (indices.dtype.kind not in "iu" or indices.min() < 0):
        raise DomainError("replica indices must be integers >= 0")
    indices = indices.astype(np.int64, copy=False)
    keys = indices // BATCH
    for key in np.unique(keys):
        picked = keys == key
        out[..., picked] = block(int(key))[..., indices[picked] - key * BATCH]
    return out


def normal_block(n: int, base_seed: int, indices) -> np.ndarray:
    """Standard normal matrix with one replica per column, column-major like
    the normals field_matrix multiplies: replica k's column is row k % BATCH of
    the (BATCH, n) draw of block k // BATCH."""
    check_replica_count(len(indices), n)
    return gather_blocks(
        lambda key: replica_generator(base_seed, key).standard_normal((BATCH, n)).T,
        indices, np.empty((len(indices), n)).T)


def field_matrix(model, base_seed: int, indices) -> np.ndarray:
    """Field values for arbitrary replica indices, one column per replica.

    Each distinct block is computed whole, its (BATCH, r) normals and (n,
    BATCH) field written into two buffers reused for every block, and the
    requested columns are taken from it, so a column never depends on what
    else was requested: the result is bit-identical for any index order or
    batch shape.
    """
    check_replica_count(len(indices), model.n)
    normals = np.empty((BATCH, model.factor_rank))
    values = np.empty((model.n, BATCH))

    def block(key):
        for _ in field_strips(model, block_normals(base_seed, key, normals), values):
            pass
        return values

    return gather_blocks(block, indices, np.empty((model.n, len(indices))))

