import tracemalloc

import numpy as np
import pytest

from gmclab import (
    AtomicMeasure,
    DiskKernel,
    DomainError,
    ResourceLimitError,
    build_covariance,
    field_matrix,
    generate_uniform_grid,
    replica_generator,
    total_masses,
)
from gmclab.field import (BATCH, FIELD_SUBSTREAM, MAX_REPLICA_CELLS, ROOT_SUBSTREAM,
                          STREAM_VERSION, STRIP, check_replica_count, gather_blocks)
from reference import dense_factor, normal_block

SEED = 2024
N_BIG = 100000


def test_single_atom_variance(single_model):
    values = field_matrix(single_model, SEED, np.arange(N_BIG))[0]
    v = single_model.diag_variance[0]
    assert abs(values.var(ddof=1) - v) <= 0.05 * v
    assert abs(values.mean()) <= 3.0 * np.sqrt(v / N_BIG)


def test_two_atom_covariance(two_model):
    values = field_matrix(two_model, SEED, np.arange(N_BIG))
    emp = np.cov(values)
    true = two_model.matrix
    for i in range(2):
        for j in range(2):
            # SE of a Gaussian covariance estimate
            se = np.sqrt((true[i, i] * true[j, j] + true[i, j] ** 2) / N_BIG)
            assert abs(emp[i, j] - true[i, j]) <= 3.0 * se


def test_field_matrix_matches_single_samples(model4):
    # a one-index call forms its replica's whole block, so it returns the
    # batched call's column bit for bit, call after call; the last index
    # sits in stream block 2
    indices = np.r_[np.arange(40), 2 * BATCH + 5]
    values = field_matrix(model4, SEED, indices)
    for col in (0, 7, 39, 40):
        single = field_matrix(model4, SEED, [int(indices[col])])
        assert single.shape == (model4.n, 1)
        assert np.array_equal(single[:, 0], values[:, col])
    assert np.array_equal(field_matrix(model4, SEED, [17]), field_matrix(model4, SEED, [17]))
    # neighbouring replicas are other rows of the block draw
    assert not np.array_equal(values[:, 0], values[:, 1])


def test_stream_fingerprint(model8):
    # pins the draws of stream versions 9 to 13 (10 moved only factors of
    # more than 640 atoms, 11 only the rooted samplers' atom sums, 12 only
    # the rounding of every atom sum, 13 only the factors of 129 to 640 atoms
    # and the clipped models' variances), so a change of bit generator, keying
    # or draw shape fails here
    # and must bump STREAM_VERSION with it. numpy gives a seeded Generator the
    # same stream on every platform, so the normals and uniforms are pinned
    # exactly; the mass goes through BLAS and exp, whose last bits may differ
    # between builds
    assert STREAM_VERSION == 13
    normals = replica_generator(SEED, 0).standard_normal((2, 4))
    assert normals.tolist() == [
        [-0.772153918333846, 0.1479162186200444, -0.3772796981759266, -0.34788318964412007],
        [1.290881434032721, -0.02513726490656964, -0.559844400707905, -1.851147602861379]]
    uniforms = replica_generator(SEED, 3, ROOT_SUBSTREAM).random(4)
    assert uniforms.tolist() == [
        0.5826525547321685, 0.41009567768008226, 0.9119195715391142, 0.84531318710422]
    mass = total_masses(model8, 1.0, SEED, 1, start=1030)
    assert mass[0] == pytest.approx(1.9360918302939418, rel=1e-10)


def test_stream_pairwise_correlation():
    za = replica_generator(SEED, 0).standard_normal(N_BIG)
    zb = replica_generator(SEED, 1).standard_normal(N_BIG)
    corr = np.corrcoef(za, zb)[0, 1]
    assert abs(corr) < 3.0 / np.sqrt(N_BIG)


def test_root_and_field_substreams_distinct():
    za = replica_generator(SEED, 5, ROOT_SUBSTREAM).standard_normal(N_BIG)
    zb = replica_generator(SEED, 5, FIELD_SUBSTREAM).standard_normal(N_BIG)
    assert abs(np.corrcoef(za, zb)[0, 1]) < 3.0 / np.sqrt(N_BIG)


class _ScaledKernel:
    """Kernel multiplied by c**2; scales field values by c for the same draws."""

    def __init__(self, c2):
        self.base = DiskKernel(1.0)
        self.c2 = c2

    def inside(self, z):
        return self.base.inside(z)

    def __call__(self, x, y):
        return self.c2 * self.base(x, y)

    def entry_matrix(self, positions, epsilon=None):
        matrix, epsilon = self.base.entry_matrix(positions, epsilon)
        return self.c2 * matrix, epsilon


def test_field_linearity_under_kernel_scaling(two_atom):
    base = build_covariance(two_atom, 0.1, DiskKernel(1.0))
    scaled = build_covariance(two_atom, 0.1, _ScaledKernel(4.0))
    a = field_matrix(base, SEED, np.arange(50))
    b = field_matrix(scaled, SEED, np.arange(50))
    assert np.allclose(b, 2.0 * a, rtol=1e-12, atol=1e-12)


# ------------------------------------------------------- block-keyed streams


@pytest.fixture(scope="module")
def aligned(model4):
    """Normals and field values for the two whole blocks [0, 2 * BATCH)."""
    idx = np.arange(2 * BATCH)
    return normal_block(model4.n, SEED, idx), field_matrix(model4, SEED, idx)


def test_mid_block_range_matches_aligned_call(model4, aligned):
    # 1000..1099 starts inside block 0 and crosses into block 1
    normals, values = aligned
    idx = np.arange(1000, 1100)
    assert np.array_equal(normal_block(model4.n, SEED, idx), normals[:, idx])
    assert np.array_equal(field_matrix(model4, SEED, idx), values[:, idx])


def test_shuffled_and_duplicated_indices_permute_columns(model4, aligned):
    normals, values = aligned
    rng = np.random.default_rng(0)
    idx = rng.permutation(2 * BATCH)[:300]
    idx = np.r_[idx, idx[:20], 1023, 1024, 1023]
    assert np.array_equal(normal_block(model4.n, SEED, idx), normals[:, idx])
    assert np.array_equal(field_matrix(model4, SEED, idx), values[:, idx])


def test_replica_is_its_row_of_the_block_draw(model4):
    k = BATCH + 37
    block = replica_generator(SEED, 1).standard_normal((BATCH, model4.n))
    assert np.array_equal(normal_block(model4.n, SEED, [k])[:, 0], block[37])


def test_block_field_is_the_whole_block(model4, aligned):
    # n = 16 atoms make one strip: the block's field is the factor times the
    # block's normals, one column per replica
    _, values = aligned
    normals = replica_generator(SEED, 1).standard_normal((BATCH, model4.factor_rank))
    [strip] = model4.strips
    assert np.array_equal(strip @ normals.T, values[:, BATCH:])


def test_gather_blocks_cuts_a_range_at_block_edges(model4, aligned):
    _, values = aligned
    keys = []

    def block(key):
        keys.append(key)
        return field_matrix(model4, SEED, range(key * BATCH, (key + 1) * BATCH))

    def gather(indices):
        return gather_blocks(block, indices, np.empty((model4.n, len(indices))))

    assert np.array_equal(gather(range(1000, 2 * BATCH)), values[:, 1000:])
    assert keys == [0, 1]
    keys.clear()
    # an empty or reversed range selects nothing, like []
    for empty in (range(5, 5), range(9, 5), []):
        assert gather(empty).shape == (model4.n, 0)
    assert keys == []
    stepped = range(1, 2 * BATCH, 3)
    assert np.array_equal(gather(stepped), gather(list(stepped)))


def test_gather_blocks_groups_a_shuffled_list_by_block(model4, aligned):
    # a block's array holds its replica indices: any index list must return
    # the columns its range would, one block call per touched block, in
    # ascending key order
    keys = []

    def block(key):
        keys.append(key)
        return np.arange(key * BATCH, (key + 1) * BATCH, dtype=float)[None, :].repeat(2, 0)

    def gather(indices):
        return gather_blocks(block, indices, np.empty((2, len(indices))))

    whole = gather(range(300, 4 * BATCH + 7))
    assert keys == [0, 1, 2, 3, 4]
    shuffled = np.random.default_rng(SEED).permutation(np.arange(300, 4 * BATCH + 7))
    keys.clear()
    assert np.array_equal(gather(shuffled), whole[:, shuffled - 300])
    assert keys == [0, 1, 2, 3, 4]
    keys.clear()
    picked = [3 * BATCH + 5, 7, 3 * BATCH + 5, BATCH, 6]
    assert np.array_equal(gather(picked), np.array([picked, picked], dtype=float))
    assert keys == [0, 1, 3]
    order = np.random.default_rng(SEED).permutation(2 * BATCH)
    assert np.array_equal(field_matrix(model4, SEED, order), aligned[1][:, order])


def test_empty_index_list(model4):
    assert field_matrix(model4, SEED, []).shape == (model4.n, 0)
    assert normal_block(model4.n, SEED, []).shape == (model4.n, 0)


@pytest.mark.parametrize("call", [
    lambda m: field_matrix(m, 1, [2.5]),
    lambda m: field_matrix(m, 1, np.array([3.0])),
    lambda m: field_matrix(m, 1, [True]),
    lambda m: field_matrix(m, 1, [-1]),
    lambda m: field_matrix(m, 1, [5, -BATCH]),
    lambda m: field_matrix(m, 1, range(-2, 3)),
    lambda m: normal_block(16, 1, [-3]),
    lambda m: total_masses(m, 0.8, 1, 3, start=-2),
    lambda m: total_masses(m, 0.8, 1, -4),
    lambda m: check_replica_count(-1),
], ids=["fractional", "float", "bool", "negative", "negative-in-list", "negative-range",
        "normals-negative", "negative-start", "negative-count", "check-negative-count"])
def test_replica_indices_must_be_integers_from_0(model4, call):
    # a fractional index would be truncated to another replica, and a
    # negative one reach SeedSequence; both are refused before any draw
    with pytest.raises(DomainError):
        call(model4)


def test_field_columns_refused_past_the_ceiling_before_allocating(model8):
    # 64 atoms x (2**21 + 1) replicas is one replica past MAX_REPLICA_CELLS
    indices = range(2 ** 21 + 1)
    assert model8.n * (len(indices) - 1) == MAX_REPLICA_CELLS
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            field_matrix(model8, SEED, indices)
        with pytest.raises(ResourceLimitError):
            normal_block(model8.n, SEED, indices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


# ------------------------------------------------------ strip-wise product


def test_factor_upper_triangle_is_zero(model8, cantor5_clipped):
    # the strips hold no column past their last row; the Cholesky path
    # (grid8) and the eigen-clip path (cantor5 at epsilon 0.05) must both
    # leave the part of each strip above the diagonal exactly zero
    assert cantor5_clipped.clip_magnitude > 0.0
    for model in (model8, cantor5_clipped):
        assert not np.triu(dense_factor(model.strips), 1).any()


def _disk_measure(n):
    rng = np.random.default_rng(n)
    radius = 0.8 * np.sqrt(rng.random(n))
    positions = radius * np.exp(2j * np.pi * rng.random(n))
    return AtomicMeasure(positions, np.full(n, 1.0 / n))


@pytest.mark.parametrize("n", [1, STRIP - 1, STRIP, STRIP + 1, 400])
def test_strip_product_matches_dense_product(n):
    model = build_covariance(_disk_measure(n))
    idx = np.arange(1000, 1100)
    dense = dense_factor(model.strips) @ normal_block(n, SEED, idx)
    values = field_matrix(model, SEED, idx)
    assert np.abs(values - dense).max() <= 1e-12 * np.abs(dense).max()


def test_normal_block_is_column_major(model4):
    # each replica's column is one contiguous row of the block draw
    assert normal_block(model4.n, SEED, np.arange(BATCH)).flags.f_contiguous


# ------------------------------------------------ rank-sized clipped factor


@pytest.fixture(scope="module")
def grid16_clipped():
    return build_covariance(generate_uniform_grid(16, 0.8), 0.05)


@pytest.fixture(scope="module", params=["cantor5", "grid16"])
def clipped(request):
    model = request.getfixturevalue(f"{request.param}_clipped")
    assert 0 < model.factor_rank < model.n
    return model


def test_clipped_field_is_factor_times_rank_normals(clipped):
    idx = np.arange(1000, 1100)
    dense = dense_factor(clipped.strips) @ normal_block(clipped.factor_rank, SEED, idx)
    values = field_matrix(clipped, SEED, idx)
    assert np.abs(values - dense).max() <= 1e-12 * np.abs(dense).max()


def test_clipped_ranges_match_aligned_call(clipped):
    values = field_matrix(clipped, SEED, np.arange(3 * BATCH))
    for idx in (np.arange(1000, 1100), np.arange(1023, 2049)):
        assert np.array_equal(field_matrix(clipped, SEED, idx), values[:, idx])


def test_clipped_grid_field_law(grid16_clipped, cantor5_clipped):
    # the rank-sized factor samples the version-6 law, the full n-column clip
    # of the raw matrix: field second moments at a few atom pairs and the
    # mean total mass, each within 4 SE. On cantor5 the factor drops the
    # eigenvalues below the clip's cut, so this shows they carried no variance
    n = 16 * BATCH
    pairs = {"grid16": ((0, 0), (0, 1), (0, 16), (17, 200), (128, 129), (255, 0)),
             "cantor5": ((0, 0), (0, 1), (0, 4), (100, 101), (511, 512), (1023, 0))}
    for model, name in ((grid16_clipped, "grid16"), (cantor5_clipped, "cantor5")):
        eigvals, eigvecs = np.linalg.eigh(
            DiskKernel().entry_matrix(model.measure.positions, model.epsilon)[0])
        c = (eigvecs * np.clip(eigvals, 0.0, None)) @ eigvecs.T
        # one block at a time, so the n x 16 BATCH field is never held
        moments = dict.fromkeys(pairs[name], 0.0)
        for lo in range(0, n, BATCH):
            values = field_matrix(model, SEED, np.arange(lo, lo + BATCH))
            for i, j in moments:
                moments[i, j] += values[i] @ values[j] / n
        for (i, j), moment in moments.items():
            se = np.sqrt((c[i, i] * c[j, j] + c[i, j] ** 2) / n)
            assert abs(moment - c[i, j]) <= 4.0 * se, (name, i, j)
        totals = total_masses(model, 0.8, SEED, n)
        se = totals.std(ddof=1) / np.sqrt(n)
        assert abs(totals.mean() - model.measure.total_mass) <= 4.0 * se, name


def _version5_field(model, base_seed, indices):
    # stream version 5: each block's n normals through the square factor,
    # in strips of STRIP rows over the lower triangle
    n = model.n
    factor = dense_factor(model.strips)
    out = np.empty((n, len(indices)))
    for column, k in enumerate(indices):
        z = replica_generator(base_seed, k // BATCH).standard_normal((BATCH, n)).T
        product = np.empty((n, BATCH))
        for lo in range(0, n, STRIP):
            hi = min(lo + STRIP, n)
            np.matmul(factor[lo:hi, :hi], z[:hi], out=product[lo:hi])
        out[:, column] = product[:, k % BATCH]
    return out


@pytest.mark.parametrize("n", [64, 400])
def test_positive_definite_models_sample_as_version_5(n):
    model = build_covariance(_disk_measure(n))
    assert model.clip_magnitude == 0.0
    assert model.factor_rank == n
    idx = np.array([0, 5, BATCH - 1, BATCH, 2 * BATCH + 7])
    assert np.array_equal(field_matrix(model, SEED, idx),
                          _version5_field(model, SEED, idx))
