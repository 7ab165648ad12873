import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import gmclab.kernel
from gmclab import (
    AtomicMeasure,
    DiskKernel,
    DomainError,
    NumericalError,
    ResourceLimitError,
    SingularityError,
    build_covariance,
    generate_cantor_dust,
    generate_julia_boundary,
    generate_uniform_grid,
    green_disk,
    markov_difference_psd,
)
from gmclab.field import STRIP
from gmclab.kernel import pair_distances
from reference import (clip_to_psd, default_epsilon, dense_cholesky, dense_factor, green_subdisk,
                       regularized_entry, smooth_matrix, smooth_part, untiled_green)

SEED = 99
# frozen spot values, recomputed from the kernel formula by hand
G_HALF_HALFI = 0.37688590118819          # green_disk(0.5, 0.5j)
REG_HALF = 4.3174881135363105            # regularized_entry(0.5, 0.5, 0.01)


def _random_disk_pairs(n, radius=0.97):
    rng = np.random.default_rng(SEED)
    pts = radius * np.sqrt(rng.random(2 * n)) * np.exp(2j * np.pi * rng.random(2 * n))
    return pts[:n], pts[n:]


# ------------------------------------------------------------- green_disk


def test_green_disk_at_origin():
    # x = 0 kills the |1 - x*conj(y)| factor
    assert green_disk(0.0, 0.5) == math.log(2.0)


def test_green_disk_outside_is_zero():
    assert green_disk(0.5, 1.2) == 0.0
    assert green_disk(1.0, 0.5) == 0.0  # boundary counts as outside


def test_green_disk_spot_value():
    assert green_disk(0.5, 0.5j) == pytest.approx(G_HALF_HALFI, abs=1e-14)
    exact = math.log(math.sqrt(1.0625) / (0.5 * math.sqrt(2.0)))
    assert green_disk(0.5, 0.5j) == pytest.approx(exact, rel=1e-15)


def test_green_disk_singularity():
    with pytest.raises(SingularityError):
        green_disk(0.3 + 0.2j, 0.3 + 0.2j)


def test_green_disk_symmetry():
    xs, ys = _random_disk_pairs(200)
    for x, y in zip(xs, ys):
        assert green_disk(x, y) == green_disk(y, x)


def test_green_disk_log_bound():
    # G(x,y) <= log 2 + |log|x-y||
    xs, ys = _random_disk_pairs(500)
    for x, y in zip(xs, ys):
        assert green_disk(x, y) <= math.log(2.0) + abs(math.log(abs(x - y))) + 1e-12


def test_green_disk_nonnegative_inside():
    xs, ys = _random_disk_pairs(200)
    for x, y in zip(xs, ys):
        assert green_disk(x, y) >= 0.0


# ----------------------------------------------------------- green_subdisk


def test_subdisk_r1_matches_disk():
    xs, ys = _random_disk_pairs(100)
    for x, y in zip(xs, ys):
        assert green_subdisk(x, y, 1.0) == green_disk(x, y)


def test_subdisk_spot_value():
    assert green_subdisk(0.0, 0.25, 0.5) == pytest.approx(math.log(2.0), rel=1e-15)


def test_subdisk_outside_is_zero():
    assert green_subdisk(0.1, 0.6, 0.5) == 0.0


def test_subdisk_domain_monotone():
    xs, ys = _random_disk_pairs(200, radius=0.45)
    for x, y in zip(xs, ys):
        a = green_subdisk(x, y, 0.5)
        b = green_subdisk(x, y, 0.8)
        c = green_disk(x, y)
        assert a <= b + 1e-12
        assert b <= c + 1e-12


def test_subdisk_rejects_bad_radius():
    with pytest.raises(DomainError):
        DiskKernel(0.0)
    with pytest.raises(DomainError):
        DiskKernel(-1.0)


# -------------------------------------------------------- regularized_entry


def test_regularized_diagonal_origin():
    assert regularized_entry(0.0, 0.0, 0.01) == pytest.approx(math.log(100.0), rel=1e-15)


def test_regularized_far_pair_equals_green():
    x, y = 0.1 + 0j, 0.6 + 0j  # distance 0.5 >= epsilon
    assert regularized_entry(x, y, 0.01) == green_disk(x, y)


def test_regularized_diagonal_spot_value():
    got = regularized_entry(0.5, 0.5, 0.01)
    assert got == pytest.approx(REG_HALF, abs=1e-14)
    assert got == pytest.approx(math.log(100.0) + math.log(0.75), rel=1e-14)


def test_regularized_outside_is_zero():
    assert regularized_entry(0.5, 1.5, 0.01) == 0.0


def test_regularized_monotone_in_epsilon():
    x, y = 0.2 + 0j, 0.2 + 0.05j
    values = [regularized_entry(x, y, eps) for eps in (0.01, 0.04, 0.1, 0.5)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_regularized_rejects_epsilon():
    for eps in (0.0, 1.0, -0.5):
        with pytest.raises(DomainError):
            regularized_entry(0.1, 0.2, eps)


def test_default_epsilon(grid8, single_atom):
    assert default_epsilon(grid8) == grid8.min_pair_distance() / 2.0
    assert default_epsilon(single_atom) == pytest.approx(0.35)


# ------------------------------------------------------------- PSD repair


def test_clip_to_psd_indefinite():
    m = np.array([[0.0, 2.0], [2.0, 0.0]])
    repaired, clip, eig_min, eig_max = clip_to_psd(m)
    assert clip == pytest.approx(2.0, rel=1e-12)
    assert eig_min == pytest.approx(-2.0, rel=1e-12)
    assert eig_max == pytest.approx(2.0, rel=1e-12)
    assert np.allclose(repaired, np.ones((2, 2)), atol=1e-12)


def test_clip_to_psd_keeps_psd_matrix():
    m = np.array([[2.0, 0.5], [0.5, 1.0]])
    repaired, clip, _, _ = clip_to_psd(m)
    assert clip == 0.0
    assert np.allclose(repaired, m, atol=1e-12)


def test_clip_to_psd_idempotent():
    rng = np.random.default_rng(SEED)
    a = rng.standard_normal((10, 10))
    a = (a + a.T) / 2.0
    once, _, _, _ = clip_to_psd(a)
    twice, clip2, _, _ = clip_to_psd(once)
    assert clip2 <= 1e-12
    assert np.max(np.abs(np.linalg.eigvalsh(twice) - np.linalg.eigvalsh(once))) <= 1e-12


# --------------------------------------------------------- build_covariance


def test_build_single_atom_origin():
    m = AtomicMeasure(np.array([0.0 + 0j]), np.array([1.0]))
    model = build_covariance(m, 0.01)
    assert model.matrix.shape == (1, 1)
    assert model.matrix[0, 0] == pytest.approx(math.log(100.0), rel=1e-14)
    assert model.clip_magnitude == 0.0


def test_build_two_atoms_entries(two_atom):
    model = build_covariance(two_atom, 0.1)
    p, q = two_atom.positions
    assert model.matrix[0, 1] == pytest.approx(green_disk(p, q), rel=1e-14)
    assert model.matrix[0, 0] == pytest.approx(regularized_entry(p, p, 0.1), rel=1e-14)


def test_build_matrix_invariants(model8):
    m = model8.matrix
    assert np.allclose(m, m.T, rtol=1e-12, atol=0)
    eigs = np.linalg.eigvalsh(m)
    assert eigs[0] >= -1e-10 * eigs[-1]
    factor = dense_factor(model8.strips)
    defect = np.linalg.norm(factor @ factor.T - m)
    assert defect <= 1e-8 * np.linalg.norm(m)
    assert np.allclose(model8.diag_variance, np.diag(m), rtol=1e-12)
    assert np.all(np.tril(factor) == factor)


def test_build_grid_spacing_epsilon_clip_ratio():
    # bare kernel matrix at eps = spacing carries an O(1) negative eigenvalue;
    # measured ratio 3.6311e-3, frozen here as a two-sided regression band
    m = generate_uniform_grid(16, 0.8)
    model = build_covariance(m, m.min_pair_distance())
    ratio = model.clip_magnitude / model.eig_max
    assert 1e-3 < ratio < 5e-3
    # post-repair residual negativity is at rounding level
    eigs = np.linalg.eigvalsh(model.matrix)
    assert eigs[0] >= -1e-12 * eigs[-1]


def test_build_default_epsilon_needs_no_repair(model8):
    assert model8.clip_magnitude == 0.0
    assert model8.eig_min_raw > 0.0


def test_build_entries_nonnegative(model8):
    # needed by the FKG hypothesis and the gamma'-monotonicity property
    assert model8.matrix.min() >= 0.0


def test_build_rejects_atom_outside_kernel_domain():
    m = AtomicMeasure(np.array([0.7 + 0j]), np.array([1.0]))
    with pytest.raises(DomainError):
        build_covariance(m, 0.01, DiskKernel(0.5))


def test_build_rejects_bad_epsilon(two_atom):
    with pytest.raises(DomainError):
        build_covariance(two_atom, 1.5)


def test_build_rejects_a_clip_that_keeps_no_eigenvalue():
    # the variance log(1/0.99) + log(1 - 0.81) is negative: the clip kept
    # rank 0, a field that is 0 in every replica
    m = AtomicMeasure(np.array([0.9 + 0j]), np.array([1.0]))
    with pytest.raises(DomainError, match=r"epsilon = 0\.99, the clip keeps no eigenvalue: "
                                          r"lam_max = -1\.65068 is not > 0"):
        build_covariance(m, 0.99)


def test_build_slow_path_matches_fast(two_atom):
    # the scalar regularized_entry loop is the reference for entry_matrix
    fast = build_covariance(two_atom, 0.1, DiskKernel(1.0))
    p = two_atom.positions
    raw = np.array([[regularized_entry(x, y, 0.1) for y in p] for x in p])
    slow = clip_to_psd((raw + raw.T) / 2.0)[0]
    assert np.allclose(fast.matrix, slow, rtol=1e-14, atol=0)


def _count_decompositions(monkeypatch):
    # calls per np.linalg decomposition made from here on
    calls = {}
    for name in ("cholesky", "eigh", "eigvalsh", "qr", "svd"):
        def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _raw_matrix(measure, epsilon):
    raw = DiskKernel(1.0).entry_matrix(measure.positions, epsilon)[0]
    return (raw + raw.T) / 2.0


def test_build_positive_definite_takes_cholesky_alone(grid8, monkeypatch):
    calls = _count_decompositions(monkeypatch)
    model = build_covariance(grid8)
    assert calls == {"cholesky": 1}
    assert np.array_equal(model.matrix, _raw_matrix(grid8, default_epsilon(grid8)))
    assert np.array_equal(dense_factor(model.strips), np.linalg.cholesky(model.matrix))


def test_build_eigen_ranges_are_lazy_on_cholesky_path(grid8, monkeypatch):
    calls = _count_decompositions(monkeypatch)
    model = build_covariance(grid8)
    assert "eigvalsh" not in calls
    eigs = np.linalg.eigvalsh(_raw_matrix(grid8, default_epsilon(grid8)))
    assert model.eig_min_raw == eigs[0]
    assert model.eig_max == eigs[-1]
    assert calls["eigvalsh"] == 2    # one for the model, cached; one above


GRID16 = generate_uniform_grid(16, 0.8)
CANTOR4, CANTOR5 = generate_cantor_dust(4, 0.4), generate_cantor_dust(5, 0.4)
# the distance to clip_to_psd a clipped build may keep, relative to ||C||_F
CLIP_DISTANCE = 1e-9


def _window_cut(eigvals):
    # the clip's cut, recomputed here from its statement: the geometric
    # midpoint of the widest ratio gap among the positive eigenvalues in
    # [1e-9, 1e-7] * lam_max, the window ends counting as neighbours
    lam_max = float(eigvals.max())
    lo, hi = 1e-9 * lam_max, 1e-7 * lam_max
    points = [lo, *sorted(float(v) for v in eigvals if lo < v < hi), hi]
    _, below, above = max((b / a, a, b) for a, b in zip(points, points[1:]))
    return math.sqrt(below * above)


def _eigh_shapes(monkeypatch):
    # the shapes of the np.linalg.eigh arguments from here on
    shapes, real = [], np.linalg.eigh

    def recorded(a, *args, **kwargs):
        shapes.append(a.shape)
        return real(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", recorded)
    return shapes


# frozen clip magnitudes (minus the raw matrix's least eigenvalue)
@pytest.mark.parametrize("measure, epsilon, clip", [
    (GRID16, GRID16.min_pair_distance(), 0.6123086017530268),
    (CANTOR5, 0.05, 2.7429608881189984),
], ids=["grid16_spacing", "cantor5"])
def test_build_clipped_takes_one_eigh(measure, epsilon, clip, monkeypatch):
    # 256 atoms need more than n / 4 basis columns, so the grid's range
    # finder gives up within n / 4 columns and the one eigh is of the whole
    # matrix; the dust's is of the range finder's k x k Rayleigh quotient.
    # Each basis block takes one QR, and the factor one more.
    raw = _raw_matrix(measure, epsilon)
    repaired, clip_magnitude, eig_min, eig_max = clip_to_psd(raw)
    shapes = _eigh_shapes(monkeypatch)
    calls = _count_decompositions(monkeypatch)
    model = build_covariance(measure, epsilon)
    [(k, _)] = shapes
    assert (k == measure.n) == (measure.n == 256)
    if k == measure.n:
        assert 1 < calls.pop("qr") <= measure.n // 4 // gmclab.kernel.RANGE_BLOCK + 1
        # the full eigh is clip_to_psd's own, bit for bit
        assert np.array_equal(model.matrix, repaired)
        assert (model.clip_magnitude, model.eig_min_raw, model.eig_max) == (
            clip_magnitude, eig_min, eig_max)
    else:
        assert calls.pop("qr") == k // gmclab.kernel.RANGE_BLOCK + 1
    assert calls == {"cholesky": 1, "eigh": 1}
    assert np.linalg.norm(model.matrix - repaired) <= CLIP_DISTANCE * np.linalg.norm(raw)
    assert model.clip_magnitude == pytest.approx(clip_magnitude, rel=1e-12)
    assert model.clip_magnitude == pytest.approx(clip, rel=1e-9)
    assert model.eig_min_raw == pytest.approx(eig_min, rel=1e-12)
    assert model.eig_max == pytest.approx(eig_max, rel=1e-12)
    factor = dense_factor(model.strips)
    assert np.all(np.tril(factor) == factor)
    assert np.all(np.diag(factor) >= 0.0)
    defect = np.linalg.norm(factor @ factor.T - model.matrix)
    assert defect <= gmclab.kernel.FACTOR_RTOL * np.linalg.norm(model.matrix)
    assert "eigvalsh" not in calls


@pytest.mark.parametrize("measure", [CANTOR5, GRID16], ids=["cantor5", "grid16"])
def test_build_clipped_factor_has_rank_columns(measure):
    # epsilon 0.05 clips both; r is recounted here from eigh of the raw
    # matrix, above the cut in the widest gap of [1e-9, 1e-7] * lam_max
    raw = _raw_matrix(measure, 0.05)
    eigvals, eigvecs = np.linalg.eigh(raw)
    cut = _window_cut(eigvals)
    rank = int(np.count_nonzero(eigvals > cut))
    repaired, clip_magnitude, _, _ = clip_to_psd(raw)
    model = build_covariance(measure, 0.05)
    assert 0 < rank < measure.n
    factor = dense_factor(model.strips)
    assert factor.shape == (measure.n, rank) == (model.n, model.factor_rank)
    assert not np.triu(factor, 1).any()
    assert np.all(np.diag(factor) >= 0.0)
    defect = np.linalg.norm(factor @ factor.T - model.matrix)
    assert defect <= gmclab.kernel.FACTOR_RTOL * np.linalg.norm(model.matrix)
    assert model.clip_magnitude == pytest.approx(clip_magnitude, rel=1e-12)
    # the grid (256 atoms) falls back to eigh, which is clip_to_psd's own;
    # the dust's range finder is held to it at the stated distance
    if measure.n == 256:
        assert model.clip_magnitude == clip_magnitude
        assert np.abs(model.matrix - repaired).max() <= 1e-14 * np.abs(repaired).max()
    assert np.linalg.norm(model.matrix - repaired) <= CLIP_DISTANCE * np.linalg.norm(raw)
    # the n-column root, clipped eigenvalues included, gives the same matrix
    # up to the eigenvalues in (0, cut] the factor drops: each entry of
    # V diag(d) V.T is at most sum(d), since V is orthogonal
    full = (eigvecs * np.clip(eigvals, 0.0, None)) @ eigvecs.T
    dropped = eigvals[(eigvals > 0.0) & (eigvals <= cut)].sum()
    assert np.abs(model.matrix - full).max() <= dropped + 1e-14 * np.abs(full).max()


@pytest.mark.parametrize("measure", [CANTOR4, CANTOR5, GRID16],
                         ids=["cantor4", "cantor5", "grid16"])
def test_clipped_rank_is_stable_across_eigen_solvers(measure):
    # the count of positive eigenvalues is noise (eigh 497, eigvalsh 515 on
    # cantor5); the count above the cut in the window's widest gap is the
    # same for both, and for the build
    raw = _raw_matrix(measure, 0.05)
    counts = []
    for eigvals in (np.linalg.eigh(raw)[0], np.linalg.eigvalsh(raw)):
        counts.append(int(np.count_nonzero(eigvals > _window_cut(eigvals))))
    assert counts[0] == counts[1] == build_covariance(measure, 0.05).factor_rank


# ------------------------------------------------- range-finder clip


@pytest.mark.parametrize("radius", [1.0, 0.5])
def test_range_clip_matches_eigh_clip(radius, monkeypatch):
    raw = DiskKernel(radius).entry_matrix(CANTOR5.positions, 0.05)[0]
    eigvals = np.linalg.eigvalsh(raw)
    repaired, clip_magnitude, eig_min, eig_max = clip_to_psd(raw)
    shapes = _eigh_shapes(monkeypatch)
    model = build_covariance(CANTOR5, 0.05, DiskKernel(radius))
    # the only eigh is of the small Rayleigh quotient
    [(k, _)] = shapes
    assert k < CANTOR5.n // 4
    assert model.factor_rank == np.count_nonzero(eigvals > _window_cut(eigvals))
    assert model.factor_rank == {1.0: 80, 0.5: 84}[radius]
    assert np.linalg.norm(model.matrix - repaired) <= CLIP_DISTANCE * np.linalg.norm(raw)
    assert model.clip_magnitude == pytest.approx(clip_magnitude, rel=1e-12)
    assert model.eig_min_raw == pytest.approx(eig_min, rel=1e-12)
    assert model.eig_max == pytest.approx(eig_max, rel=1e-12)


@pytest.mark.parametrize("radius", [1.0, 0.5])
def test_range_clip_rank_is_seed_free(radius, monkeypatch):
    kernel = DiskKernel(radius)
    ranks = set()
    for seed in (1, 2, 3):
        monkeypatch.setattr(gmclab.kernel, "SKETCH_SEED", seed)
        ranks.add(build_covariance(CANTOR5, 0.05, kernel).factor_rank)
    monkeypatch.undo()
    assert ranks == {build_covariance(CANTOR5, 0.05, kernel).factor_rank}


@pytest.mark.parametrize("measure, radius", [(CANTOR4, 1.0), (CANTOR5, 1.0),
                                             (CANTOR5, 0.5), (GRID16, 1.0)],
                         ids=["cantor4", "cantor5", "cantor5_r0.5", "grid16"])
def test_clip_cut_keeps_margin(measure, radius):
    # the nearest eigenvalues lie at least 1.5x from the cut on either side,
    # so an eigenvalue must move by far more than either solver's error to
    # change r; the grid's window holds no eigenvalue, so r = 203 as before
    eigvals = np.linalg.eigh(DiskKernel(radius).entry_matrix(measure.positions, 0.05)[0])[0]
    cut = gmclab.kernel._clip_cut(eigvals)
    assert cut == pytest.approx(_window_cut(eigvals), rel=1e-12)
    above, below = eigvals[eigvals > cut], eigvals[(eigvals > 0.0) & (eigvals <= cut)]
    assert above.min() >= 1.5 * cut
    if measure is GRID16:
        # no positive eigenvalue lies below the window
        assert above.size == 203 and below.size == 0
    else:
        assert below.max() <= cut / 1.5


def test_range_clip_falls_back_past_a_quarter_of_the_atoms(monkeypatch):
    # cantor4 keeps more than 64 = n / 4 eigenpairs of size, so its range
    # finder gives up and the build is eigh's clip, bit for bit
    raw = _raw_matrix(CANTOR4, 0.05)
    repaired, clip_magnitude, eig_min, eig_max = clip_to_psd(raw)
    shapes = _eigh_shapes(monkeypatch)
    model = build_covariance(CANTOR4, 0.05)
    assert shapes == [(CANTOR4.n, CANTOR4.n)]
    assert np.array_equal(model.matrix, repaired)
    assert (model.clip_magnitude, model.eig_min_raw, model.eig_max) == (
        clip_magnitude, eig_min, eig_max)


@pytest.mark.parametrize("epsilon", [0.1, 0.02])
def test_range_clip_gives_up_early_on_a_slow_spectrum(epsilon, monkeypatch):
    # at these scales cantor5 has over 900 eigenvalues above 1e-9 * lam_max;
    # the residual then shrinks too slowly to reach the tolerance within
    # n / 2 columns, and the build stops after a few blocks, not n / 4 columns
    raw = _raw_matrix(CANTOR5, epsilon)
    repaired = clip_to_psd(raw)[0]
    shapes = _eigh_shapes(monkeypatch)
    calls = _count_decompositions(monkeypatch)
    model = build_covariance(CANTOR5, epsilon)
    assert shapes == [(CANTOR5.n, CANTOR5.n)]
    assert calls["qr"] - 1 <= 4
    assert np.array_equal(model.matrix, repaired)


def test_range_clip_falls_back_when_the_certificate_fails(monkeypatch):
    raw = _raw_matrix(CANTOR5, 0.05)
    repaired, clip_magnitude, eig_min, eig_max = clip_to_psd(raw)
    checked = []

    def failing(matrix, basis, product):
        checked.append(basis.shape)
        return math.inf
    monkeypatch.setattr(gmclab.kernel, "_range_defect", failing)
    shapes = _eigh_shapes(monkeypatch)
    model = build_covariance(CANTOR5, 0.05)
    assert len(checked) == 1 and checked[0][1] < CANTOR5.n // 4
    assert shapes == [(CANTOR5.n, CANTOR5.n)]
    assert np.array_equal(model.matrix, repaired)
    assert (model.clip_magnitude, model.eig_min_raw, model.eig_max) == (
        clip_magnitude, eig_min, eig_max)


def test_range_defect_matches_full_norm():
    rng = np.random.default_rng(SEED)
    n, k = 600, 40
    a = rng.standard_normal((n, n))
    matrix = a + a.T
    basis = np.linalg.qr(rng.standard_normal((n, k)))[0]
    product = matrix @ basis
    full = np.linalg.norm(matrix - basis @ product.T)
    assert gmclab.kernel._range_defect(matrix, basis, product) == pytest.approx(full, rel=1e-12)


def test_clipped_build_is_bit_identical_across_builds():
    first, second = (build_covariance(CANTOR5, 0.05) for _ in range(2))
    assert np.array_equal(first.matrix, second.matrix)
    assert all(np.array_equal(a, b) for a, b in zip(first.strips, second.strips))
    assert (first.clip_magnitude, first.eig_range) == (second.clip_magnitude, second.eig_range)


def test_cantor6_clips_without_a_full_eigh(monkeypatch):
    # 4096 atoms, r = 80: the range finder's basis stays far below n / 4, and
    # neither it nor its certificate forms an n x n temporary
    measure = generate_cantor_dust(6, 0.4)
    shapes = _eigh_shapes(monkeypatch)
    tracemalloc.start()
    try:
        model = build_covariance(measure, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(k < measure.n // 4 for k, _ in shapes) and len(shapes) == 1
    assert 0 < model.factor_rank < 100
    defect = gmclab.kernel._factor_defect(model.strips, model.matrix)
    assert defect <= gmclab.kernel.FACTOR_RTOL * np.linalg.norm(model.matrix)
    assert peak <= 2.5 * measure.n ** 2 * 8


def test_build_defect_error_reports_eigenvalue_range(grid8, monkeypatch):
    monkeypatch.setattr(gmclab.kernel, "FACTOR_RTOL", 0.0)
    eigs = np.linalg.eigvalsh(_raw_matrix(grid8, default_epsilon(grid8)))
    with pytest.raises(NumericalError, match=re.escape(f"[{eigs[0]:.3e}, {eigs[-1]:.3e}]")):
        build_covariance(grid8)


def test_build_refuses_more_than_max_atoms():
    # Cantor level 7 has 16384 atoms; the check comes before any n x n work
    dust = generate_cantor_dust(7, 0.4)
    with pytest.raises(ResourceLimitError):
        build_covariance(dust)


# ------------------------------------------------------ markov difference


def test_markov_r1_zero_matrix(grid4):
    diff, min_eig, max_eig, psd = markov_difference_psd(grid4, 1.0)
    assert np.all(diff == 0.0)
    assert min_eig == 0.0 and max_eig == 0.0
    assert psd


def test_markov_single_atom():
    m = AtomicMeasure(np.array([0.0 + 0j]), np.array([1.0]))
    diff, min_eig, _, psd = markov_difference_psd(m, 0.5)
    assert diff[0, 0] == pytest.approx(math.log(2.0), rel=1e-14)
    assert min_eig == pytest.approx(math.log(2.0), rel=1e-14)
    assert psd


def test_markov_off_diagonal_closed_form():
    m = generate_uniform_grid(4, 0.3)
    r = 0.5
    diff, _, _, _ = markov_difference_psd(m, r)
    for i in range(m.n):
        for j in range(m.n):
            if i != j:
                direct = green_disk(m.positions[i], m.positions[j]) - \
                    green_subdisk(m.positions[i], m.positions[j], r)
                assert diff[i, j] == pytest.approx(direct, abs=1e-12)


def test_markov_grid_psd():
    m = generate_uniform_grid(8, 0.4)
    for r in (0.5, 0.7, 0.9):
        _, _, _, psd = markov_difference_psd(m, r)
        assert psd


def test_markov_refuses_more_than_max_atoms():
    # Cantor level 7 has 16384 atoms: each n x n matrix would take 2 GB
    with pytest.raises(ResourceLimitError):
        markov_difference_psd(generate_cantor_dust(7, 0.4), 0.5)


def test_markov_rejects(grid8):
    with pytest.raises(DomainError):
        markov_difference_psd(grid8, 0.5)   # support 0.8 >= r
    with pytest.raises(DomainError):
        markov_difference_psd(grid8, 1.5)


# ---------------------------------------------------------- pair matrices


def test_smooth_matrix_matches_scalar_smooth_part():
    x, y = _random_disk_pairs(40)
    for r in (1.0, 0.5):
        kernel = DiskKernel(r)
        p = r * np.concatenate([x, y])
        loop = np.array([[smooth_part(kernel, a, b) for b in p] for a in p])
        assert np.abs(smooth_matrix(kernel, p) - loop).max() <= 1e-15


@pytest.fixture(scope="module", params=["grid48", "cantor5"])
def pair_case(request):
    """A measure and epsilon whose model factors by Cholesky (grid48) or
    needs the eigen-clip (cantor5)."""
    if request.param == "grid48":
        return generate_uniform_grid(48, 0.4), None
    return generate_cantor_dust(5, 0.4), 0.05


def test_pair_matrices_symmetric_bit_for_bit(pair_case):
    measure, epsilon = pair_case
    model = build_covariance(measure, epsilon)
    assert (model.clip_magnitude > 0.0) == (epsilon is not None)
    dist = pair_distances(measure.positions)
    green = DiskKernel(1.0).entry_matrix(measure.positions)[0]
    matrices = [model.matrix, green, dist, markov_difference_psd(measure, 0.5)[0]]
    matrices += [DiskKernel(r).entry_matrix(measure.positions, model.epsilon)[0]
                 for r in (1.0, 0.5)]
    for m in matrices:
        assert np.array_equal(m, m.T)


# -------------------------------------------------- tiled pair matrices


def _untiled_smooth(r, p):
    # the one-shot n x n evaluation the tiled kernels must reproduce bit for bit
    x, y = p.real[:, None], p.imag[:, None]
    re = r * r - x * x.T - y * y.T
    im = y * x.T - x * y.T
    return np.log(np.sqrt(re * re + im * im) / r)


def _untiled_dist(p):
    dist = np.abs(p[:, None] - p[None, :])
    np.fill_diagonal(dist, math.inf)
    return dist


def _disk_points(n):
    """n seeded random atoms in the disk of radius 0.45."""
    rng = np.random.default_rng(SEED + n)
    return 0.45 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


@pytest.fixture(scope="module", params=[1, 2, 257, 2304])
def tile_points(request):
    """Random atoms in the disk of radius 0.45; no n is a multiple of a tile.
    The parameter "cantor5" gives the level-5 Cantor dust instead, whose
    matrix clips at epsilon 0.05."""
    if request.param == "cantor5":
        return generate_cantor_dust(5, 0.4).positions
    return _disk_points(request.param)


@pytest.mark.parametrize("r", [1.0, 0.5])
@pytest.mark.parametrize("tile_points", [1, 2, 257, 2304, "cantor5"], indirect=True)
def test_tiled_kernel_matrices_equal_untiled(tile_points, r):
    p, epsilon = tile_points, 0.05
    kernel = DiskKernel(r)
    smooth = _untiled_smooth(r, p)
    assert np.array_equal(smooth_matrix(kernel, p), smooth)
    dist = np.abs(p[:, None] - p[None, :])
    entry = smooth - np.log(np.maximum(dist, epsilon, out=dist), out=dist)
    assert np.array_equal(kernel.entry_matrix(p, epsilon)[0], entry)


@pytest.mark.parametrize("positions", [
    generate_uniform_grid(8, 0.8).positions, generate_uniform_grid(48, 0.8).positions,
    _disk_points(1), _disk_points(2304)], ids=["grid8", "grid48", "one_atom", "2304_atoms"])
def test_default_epsilon_fill_is_bit_identical(positions):
    # the fill finds default_epsilon in its own distances and writes the
    # diagonal last: the untiled matrix at that epsilon, bit for bit
    epsilon = default_epsilon(AtomicMeasure(positions, np.ones(positions.size)))
    matrix, found = DiskKernel(1.0).entry_matrix(positions)
    assert found == epsilon
    dist = np.abs(positions[:, None] - positions[None, :])
    entry = _untiled_smooth(1.0, positions) - np.log(np.maximum(dist, epsilon))
    assert np.array_equal(matrix, entry)


def _offdiagonal(matrix):
    np.fill_diagonal(matrix, 0.0)
    return matrix


@pytest.mark.parametrize("positions", [
    generate_uniform_grid(8, 0.8).positions, generate_uniform_grid(48, 0.8).positions,
    generate_cantor_dust(4, 0.4).positions, generate_cantor_dust(5, 0.4).positions,
    generate_julia_boundary(-1.0, 128).positions,
    0.9 * np.sqrt(np.random.default_rng(SEED).random(700))
    * np.exp(2j * np.pi * np.random.default_rng(SEED + 1).random(700)),
    np.array([0.3 + 0.1j, 0.3 + 0.1j + 1e-12])],
    ids=["grid8", "grid48", "cantor4", "cantor5", "julia128", "700_atoms", "1e-12_apart"])
def test_default_epsilon_fill_off_diagonal_is_green(positions):
    # every pair lies at least 2 epsilon apart, so the default-epsilon fill's
    # off-diagonal is the Green kernel bit for bit: verify-bound's event
    # stage takes its weights from it
    matrix = DiskKernel(1.0).entry_matrix(positions)[0]
    assert np.array_equal(_offdiagonal(matrix), untiled_green(positions))


def test_tiled_green_and_distances_equal_untiled(tile_points):
    p = tile_points
    dist = _untiled_dist(p)
    green = _offdiagonal(_untiled_smooth(1.0, p) - np.log(dist))
    assert np.array_equal(_offdiagonal(DiskKernel(1.0).entry_matrix(p)[0]), green)
    assert np.array_equal(untiled_green(p), green)
    assert np.array_equal(pair_distances(p), dist)
    measure = AtomicMeasure(p, np.ones(p.size))
    assert measure.min_pair_distance() == dist.min()


def _record_calls(monkeypatch, name):
    """(arguments, results) of the np.linalg.<name> calls made from here on;
    a call that raises leaves its argument and no result."""
    arguments, results, real = [], [], getattr(np.linalg, name)

    def recorded(a, *args, **kwargs):
        arguments.append(a)
        results.append(real(a, *args, **kwargs))
        return results[-1]
    monkeypatch.setattr(np.linalg, name, recorded)
    return arguments, results


@pytest.mark.parametrize("epsilon", [None, 0.05], ids=["default_epsilon", "epsilon_0.05"])
def test_lapack_input_view_is_bit_identical(tile_points, epsilon, monkeypatch):
    # every symmetric LAPACK call gets the F-ordered view matrix.T; its
    # results must equal those for the C-ordered matrix bit for bit
    p = tile_points
    measure = AtomicMeasure(p, np.ones(p.size))
    raw = DiskKernel(1.0).entry_matrix(p, epsilon or default_epsilon(measure))[0]
    assert raw.flags.c_contiguous
    calls = {name: _record_calls(monkeypatch, name) for name in ("cholesky", "eigh")}
    model = build_covariance(measure, epsilon)
    monkeypatch.undo()
    for arguments, _ in calls.values():
        assert all(a.flags.f_contiguous for a in arguments)
    # the 257- and 2304-atom sets clip at epsilon 0.05, and no set clips at
    # its default epsilon; every factor is blocked, each block's S symmetric
    # bit for bit, and a clipped build fails on the first block
    clipped = epsilon is not None and p.size > 2
    assert (model.clip_magnitude > 0.0) == clipped
    blocks = [0] if clipped else range(0, p.size, gmclab.kernel.CHOL_BLOCK)
    arguments, results = calls["cholesky"]
    assert len(arguments) == len(blocks)
    for a, result in zip(arguments, results):
        assert np.array_equal(a, a.T)
        assert np.array_equal(result, np.linalg.cholesky(np.ascontiguousarray(a)))
    if clipped:
        assert not results
        [(eigvals, eigvecs)] = calls["eigh"][1]
        expected_vals, expected_vecs = np.linalg.eigh(raw)
        assert np.array_equal(eigvals, expected_vals)
        assert np.array_equal(eigvecs, expected_vecs)
        assert (model.eig_min_raw, model.eig_max) == (eigvals[0], eigvals[-1])
    else:
        assert not calls["eigh"][0]
        factor = dense_factor(model.strips)
        for lo, result in zip(blocks, results):
            hi = lo + len(result)
            assert np.array_equal(factor[lo:hi, lo:hi], result)
        if len(blocks) == 1:
            assert np.array_equal(factor, np.linalg.cholesky(raw))


def test_markov_eigenvalues_from_view_are_bit_identical(tile_points, monkeypatch):
    measure = AtomicMeasure(tile_points, np.ones(tile_points.size))
    arguments, results = _record_calls(monkeypatch, "eigvalsh")
    diff, min_eig, max_eig, _ = markov_difference_psd(measure, 0.5)
    monkeypatch.undo()
    assert diff.flags.c_contiguous
    [given], [eigvals] = arguments, results
    assert given.flags.f_contiguous
    assert np.array_equal(eigvals, np.linalg.eigvalsh(diff))
    assert (min_eig, max_eig) == (eigvals[0], eigvals[-1])


def test_strip_defect_matches_full_norm():
    # 625 atoms: two full 256-row strips and a partial one
    matrix = build_covariance(generate_uniform_grid(25, 0.8)).matrix
    rng = np.random.default_rng(SEED)
    factor = np.linalg.cholesky(matrix) + 1e-3 * np.tril(rng.standard_normal(matrix.shape))
    full = np.linalg.norm(factor @ factor.T - matrix)
    strips = gmclab.kernel._strips_of(factor)
    assert gmclab.kernel._factor_defect(strips, matrix) == pytest.approx(full, rel=1e-12)


@pytest.mark.parametrize("n, rank", [(625, 139), (257, 257), (1, 1)])
def test_block_defect_matches_full_norm_on_trapezoidal_factors(n, rank):
    # neither n nor rank a multiple of STRIP; blocks then end mid-strip
    rng = np.random.default_rng(SEED + n)
    factor = np.tril(rng.standard_normal((n, rank)))
    matrix = factor @ factor.T
    factor += 1e-3 * np.tril(rng.standard_normal((n, rank)))
    full = np.linalg.norm(factor @ factor.T - matrix)
    strips = gmclab.kernel._strips_of(factor)
    assert gmclab.kernel._factor_defect(strips, matrix) == pytest.approx(full, rel=1e-12)


def test_block_defect_matches_full_norm_at_2304_atoms():
    matrix = build_covariance(generate_uniform_grid(48, 0.8)).matrix
    rng = np.random.default_rng(SEED)
    factor = np.linalg.cholesky(matrix) + 1e-3 * np.tril(rng.standard_normal(matrix.shape))
    full = np.linalg.norm(factor @ factor.T - matrix)
    strips = gmclab.kernel._strips_of(factor)
    assert gmclab.kernel._factor_defect(strips, matrix) == pytest.approx(full, rel=1e-12)


@pytest.mark.parametrize("side, entry", [(20, (300, 10)), (20, (399, 390)),
                                         (32, (600, 10)), (32, (399, 390))],
                         ids=["grid20_left_of_diagonal_block", "grid20_diagonal_block",
                              "left_of_diagonal_block", "diagonal_block"])
def test_build_rejects_blocked_factor_off_by_1e3(monkeypatch, side, entry):
    # grid20 has 400 atoms in 4 block columns, (399, 390) inside the last,
    # [384, 400); grid32 has 1024 atoms in 8, (399, 390) inside [384, 512)
    real_cholesky = gmclab.kernel._cholesky

    def off_by_one_entry(matrix):
        strips = real_cholesky(matrix)
        row, column = entry
        strips[row // STRIP][row % STRIP, column] += 1e-3
        return strips

    monkeypatch.setattr(gmclab.kernel, "_cholesky", off_by_one_entry)
    with pytest.raises(NumericalError, match="factorization defect"):
        build_covariance(generate_uniform_grid(side, 0.8))


# ------------------------------------------------------ blocked Cholesky


@pytest.mark.parametrize("n", [1, 2, 64, 128])
def test_cholesky_of_one_block_is_numpys(n, monkeypatch):
    # a matrix of at most CHOL_BLOCK atoms is one block with no rows below
    # it: one numpy call and no block inverse, so its factor is numpy's bits
    matrix = DiskKernel(1.0).entry_matrix(_disk_points(n))[0]
    arguments, _ = _record_calls(monkeypatch, "cholesky")
    inverses, _ = _record_calls(monkeypatch, "inv")
    strips = gmclab.kernel._cholesky(matrix)
    monkeypatch.undo()
    assert len(arguments) == 1 and not inverses
    assert np.array_equal(dense_factor(strips), np.linalg.cholesky(matrix))


def _conditioned_spd(n, cond):
    # Q diag(lam) Q^T with eigenvalues spread log-evenly over [1 / cond, 1]
    rng = np.random.default_rng(SEED + n)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    matrix = (q * np.logspace(0.0, -math.log10(cond), n)) @ q.T
    return 0.5 * (matrix + matrix.T)


@pytest.mark.parametrize("make", [
    lambda: _raw_matrix(generate_uniform_grid(20, 0.8), None),
    lambda: _raw_matrix(generate_uniform_grid(32, 0.8), None),
    lambda: _raw_matrix(generate_uniform_grid(48, 0.8), None),
    lambda: _conditioned_spd(1024, 1e12),
    lambda: DiskKernel(1.0).entry_matrix(_disk_points(700))[0],
], ids=["grid20", "grid32", "grid48", "spd1024_cond1e12", "700_atoms"])
def test_blocked_cholesky_reproduces_the_matrix(make):
    # 400 and 700 atoms end in a partial block column (3 * 128 + 16 and
    # 5 * 128 + 60)
    matrix = make()
    strips = gmclab.kernel._cholesky(matrix)
    assert all(strip.flags.c_contiguous for strip in strips)
    factor = dense_factor(strips)
    assert np.all(np.triu(factor, 1) == 0.0)
    assert np.all(np.diag(factor) > 0.0)
    defect = np.linalg.norm(factor @ factor.T - matrix)
    assert defect <= 1e-14 * np.linalg.norm(matrix)


@pytest.mark.parametrize("measure, radius", [
    (CANTOR5, 1.0), (CANTOR5, 0.5), (CANTOR4, 1.0), (CANTOR4, 0.5)],
    ids=["1.0", "0.5", "cantor4-1.0", "cantor4-0.5"])
def test_blocked_cholesky_fails_on_the_first_block(measure, radius, monkeypatch):
    # the raw Cantor 4 and 5 matrices at epsilon 0.05 are indefinite within
    # their first block column, so one CHOL_BLOCK-square attempt tells, not
    # one of all 256 or 1024 rows
    raw = DiskKernel(radius).entry_matrix(measure.positions, 0.05)[0]
    arguments, results = _record_calls(monkeypatch, "cholesky")
    assert gmclab.kernel._cholesky(raw) is None
    assert [a.shape for a in arguments] == [(gmclab.kernel.CHOL_BLOCK,) * 2]
    assert not results


# ---------------------------------------------------- strip-packed factor


def test_a_block_column_lies_inside_one_strip():
    assert STRIP % gmclab.kernel.CHOL_BLOCK == 0


@pytest.mark.parametrize("side", [24, 30, 48])
def test_strips_are_the_dense_cholesky_factor_bit_for_bit(side):
    # 576 atoms end in a partial strip of 64 rows and 900 in one of 132
    model = build_covariance(generate_uniform_grid(side, 0.8))
    reference = dense_cholesky(model.matrix)
    n = model.n
    assert [strip.shape for strip in model.strips] == [
        (min(lo + STRIP, n) - lo, min(lo + STRIP, n)) for lo in range(0, n, STRIP)]
    assert np.array_equal(dense_factor(model.strips), reference)
    assert np.array_equal(model.diag_variance, np.einsum("ij,ij->i", reference, reference))


def test_clipped_strips_are_the_qr_factor_bit_for_bit(cantor5_clipped):
    raw = DiskKernel(1.0).entry_matrix(CANTOR5.positions, 0.05)[0]
    root = gmclab.kernel._range_clip(raw)[0]
    factor = np.linalg.qr(root.T, mode="r").T
    factor = factor * np.where(np.diag(factor) < 0.0, -1.0, 1.0)
    # r = 80 columns reach every strip of the 1024 rows
    assert [strip.shape for strip in cantor5_clipped.strips] == [(STRIP, 80)] * 4
    dense = dense_factor(cantor5_clipped.strips)
    assert np.array_equal(dense, factor)
    assert dense.flags.c_contiguous
    assert np.array_equal(cantor5_clipped.diag_variance, np.einsum("ij,ij->i", dense, dense))


@pytest.mark.parametrize("side", [30, 48])
def test_strips_are_read_only_views_into_one_packed_buffer(side):
    model = build_covariance(generate_uniform_grid(side, 0.8))
    packed = model.strips[0].base
    assert all(strip.base is packed for strip in model.strips)
    assert packed.size == sum(strip.size for strip in model.strips)
    for strip in model.strips:
        assert strip.flags.c_contiguous and not strip.flags.writeable
    # the n x n factor's lower trapezoid: 0.56 n**2 at 2304 atoms
    n = model.n
    assert packed.size == sum((min(lo + STRIP, n) - lo) * min(lo + STRIP, n)
                              for lo in range(0, n, STRIP))


def test_build_rejects_atoms_outside_the_kernel_disk(grid8):
    # the 8x8 grid reaches radius 0.8 > 0.5
    with pytest.raises(DomainError, match="outside the kernel domain"):
        build_covariance(grid8, 0.05, DiskKernel(0.5))


def test_build_peak_memory_is_about_two_matrices():
    # the kernel matrix and its strip-packed factor (0.56 n**2 entries at
    # 2304 atoms); no n x n temporary beside them
    measure = generate_uniform_grid(48, 0.8)
    tracemalloc.start()
    try:
        build_covariance(measure)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * measure.n ** 2 * 8


# the 48x48 grid's build and one total_masses block, run in a fresh process;
# it prints the growth of the peak RSS (VmHWM) over the RSS after the
# imports, in bytes. ru_maxrss would not do: Linux carries the RSS of the
# process that spawned this one into it, so it reads the test runner's
RSS_SCRIPT = r"""
import re
from gmclab import build_covariance, generate_uniform_grid, total_masses

def kib(field):
    with open("/proc/self/status") as status:
        return int(re.search(field + r":\s+(\d+) kB", status.read()).group(1))

base = kib("VmRSS")
model = build_covariance(generate_uniform_grid(48, 0.8))
total_masses(model, 0.8, 1, 1024)
print((kib("VmHWM") - base) * 1024)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the process's RSS from /proc, as Linux gives it")
def test_build_and_one_block_peak_rss():
    # tracemalloc cannot see the buffers numpy's LAPACK wrappers allocate in
    # C, nor which pages become resident; the process's peak RSS sees both.
    # The kernel matrix (n**2), the packed factor (0.56 n**2) and the
    # block's (BATCH, n) normals (0.44 n**2) raised it by 2.33 n**2 * 8
    # bytes on a 2-core host, where a dense n x n factor, its zero upper
    # triangle made resident by transparent huge pages, raised it by 2.87
    n = 48 * 48
    package = os.path.dirname(os.path.dirname(gmclab.kernel.__file__))
    env = dict(os.environ, PYTHONPATH=package)
    result = subprocess.run([sys.executable, "-c", RSS_SCRIPT], env=env, check=True,
                            capture_output=True, text=True)
    assert int(result.stdout) <= 2.6 * n ** 2 * 8
