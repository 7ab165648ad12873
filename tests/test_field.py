import numpy as np
import pytest

from gmclab import (
    AtomicMeasure,
    DiskKernel,
    build_covariance,
    field_matrix,
    generate_cantor_dust,
    replica_generator,
    sample_field,
)
from gmclab.field import BATCH, FIELD_SUBSTREAM, ROOT_SUBSTREAM, STRIP, normal_block

SEED = 2024
N_BIG = 100000


def test_sample_field_deterministic(model8):
    a = sample_field(model8, SEED, 17)
    b = sample_field(model8, SEED, 17)
    assert np.array_equal(a.values, b.values)
    assert a.values.shape == (model8.n,)


def test_sample_field_changes_with_replica(model8):
    a = sample_field(model8, SEED, 0)
    b = sample_field(model8, SEED, 1)
    assert not np.array_equal(a.values, b.values)


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
    # batched product may differ from the one-column product at the last ulp;
    # the last index sits in stream block 2
    indices = np.r_[np.arange(40), 2 * BATCH + 5]
    values = field_matrix(model4, SEED, indices)
    for col in (0, 7, 39, 40):
        single = sample_field(model4, SEED, int(indices[col])).values
        assert np.allclose(values[:, col], single, rtol=0, atol=1e-13)


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

    def smooth_part(self, x, y):
        return self.c2 * self.base.smooth_part(x, y)

    def entry_matrix(self, positions, epsilon):
        return self.c2 * self.base.entry_matrix(positions, epsilon)


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


def test_empty_index_list(model4):
    assert field_matrix(model4, SEED, []).shape == (model4.n, 0)
    assert normal_block(model4.n, SEED, []).shape == (model4.n, 0)


# ------------------------------------------------------ strip-wise product


@pytest.fixture(scope="module")
def cantor5_clipped():
    return build_covariance(generate_cantor_dust(5, 0.4), 0.05)


def test_factor_upper_triangle_is_zero(model8, cantor5_clipped):
    # field_matrix skips the upper triangle; the Cholesky path (grid8) and the
    # eigen-clip path (cantor5 at epsilon 0.05) must both leave it exactly zero
    assert cantor5_clipped.clip_magnitude > 0.0
    for model in (model8, cantor5_clipped):
        assert not np.triu(model.factor, 1).any()


def _disk_measure(n):
    rng = np.random.default_rng(n)
    radius = 0.8 * np.sqrt(rng.random(n))
    positions = radius * np.exp(2j * np.pi * rng.random(n))
    return AtomicMeasure(positions, np.full(n, 1.0 / n))


@pytest.mark.parametrize("n", [1, STRIP - 1, STRIP, STRIP + 1, 400])
def test_strip_product_matches_dense_product(n):
    model = build_covariance(_disk_measure(n))
    idx = np.arange(1000, 1100)
    dense = model.factor @ normal_block(n, SEED, idx)
    values = field_matrix(model, SEED, idx)
    assert np.abs(values - dense).max() <= 1e-12 * np.abs(dense).max()


def test_normal_block_is_column_major(model4):
    # each replica's column is one contiguous row of the block draw
    assert normal_block(model4.n, SEED, np.arange(BATCH)).flags.f_contiguous
