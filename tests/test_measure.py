import math
import tracemalloc

import numpy as np
import pytest

from gmclab import (
    AtomicMeasure,
    DomainError,
    EmptyMeasureError,
    ResourceLimitError,
    SplitInfeasibleError,
    ValidationError,
    build_covariance,
    d_energy,
    generate_cantor_dust,
    generate_julia_boundary,
    field_matrix,
    generate_uniform_grid,
    load_measure,
    save_measure,
    split_half_plane,
)
from gmclab.gmc import mass_columns
from gmclab.measure import MAX_GRID_SIDE
from reference import default_epsilon, local_energy

SEED = 1234


# ------------------------------------------------------------ construction


def test_atomic_measure_basic():
    m = AtomicMeasure(np.array([0.1 + 0.2j, -0.3 + 0j]), np.array([0.5, 0.5]))
    assert m.n == 2
    assert m.total_mass == 1.0
    assert m.support_radius == pytest.approx(0.3)


def test_atomic_measure_rejects_bad_input():
    p = np.array([0.1 + 0j, 0.2 + 0j])
    with pytest.raises(ValidationError):
        AtomicMeasure(p, np.array([1.0]))
    with pytest.raises(ValidationError):
        AtomicMeasure(p.reshape(2, 1), np.ones((2, 1)))
    with pytest.raises(EmptyMeasureError):
        AtomicMeasure(np.array([], dtype=complex), np.array([]))
    with pytest.raises(ValidationError):
        AtomicMeasure(np.array([0.1 + 0j, 0.1 + 0j]), np.array([1.0, 1.0]))
    with pytest.raises(ValidationError):
        AtomicMeasure(p, np.array([1.0, -0.1]))
    with pytest.raises(ValidationError):
        AtomicMeasure(p, np.array([0.0, 0.0]))
    with pytest.raises(ValidationError):
        AtomicMeasure(np.array([1.0 + 0j, 0.2 + 0j]), np.array([1.0, 1.0]))


@pytest.mark.parametrize("positions, weights", [
    ([math.nan + 0j, 0.2 + 0j], [0.5, 0.5]),
    ([0.1 + 0j, complex(0.2, math.nan)], [0.5, 0.5]),
    ([0.1 + 0j, 0.2 + 0j], [math.inf, 0.5]),
    ([0.1 + 0j, 0.2 + 0j], [math.nan, 0.5]),
    ([0.1 + 0j, 0.2 + 0j], [1e308, 1e308]),
], ids=["nan_x", "nan_y", "inf_weight", "nan_weight", "total_overflows"])
def test_atomic_measure_rejects_non_finite(positions, weights):
    # NaN fails no test of the form |p| >= 1, and an inf weight passes
    # total > 0; let through, either reaches every command as null or NaN
    with np.errstate(over="ignore"), pytest.raises(ValidationError, match="finite"):
        AtomicMeasure(np.array(positions), np.array(weights))


@pytest.mark.parametrize("row", ["nan,0,0.5", "0.1,0.2,inf"], ids=["nan_x", "inf_weight"])
def test_load_rejects_non_finite(tmp_path, row):
    path = tmp_path / "m.csv"
    path.write_text(f"x,y,weight\n-0.3,0.0,0.5\n{row}\n")
    with pytest.raises(ValidationError, match="finite"):
        load_measure(path)


def test_atomic_measure_immutable():
    m = AtomicMeasure(np.array([0.1 + 0j]), np.array([1.0]))
    with pytest.raises(ValueError):
        m.positions[0] = 0.0
    with pytest.raises(ValueError):
        m.weights[0] = 2.0


def test_min_pair_distance(grid8, single_atom):
    # grid spacing is the smallest gap by construction
    xs = np.unique(grid8.positions.real)
    assert grid8.min_pair_distance() == pytest.approx(xs[1] - xs[0], rel=1e-14)
    assert math.isinf(single_atom.min_pair_distance())


@pytest.mark.parametrize("pair", [(10, 300), (255, 256), (300, 400), (0, 599)],
                         ids=["across_block_edge", "at_block_edge", "in_diagonal_block",
                              "last_row"])
def test_min_pair_distance_at_block_edges(pair):
    # 600 atoms on a 25 x 24 grid of spacing 0.03, then atom j moved 0.001
    # from atom i: (i, j) is the unique closest pair. The scan reads lower
    # blocks of 256 rows, so i and j sit on both sides of a block edge, or
    # both inside one diagonal block
    i, j = pair
    xs, ys = 0.03 * (np.arange(25) - 12), 0.03 * (np.arange(24) - 11.5)
    p = (xs[:, None] + 1j * ys[None, :]).ravel()
    p[j] = p[i] + 0.001 * np.exp(0.3j)
    measure = AtomicMeasure(p, np.ones(p.size))
    dist = np.abs(p[:, None] - p)
    np.fill_diagonal(dist, math.inf)
    assert np.argwhere(dist == dist.min()).tolist() == [[i, j], [j, i]]
    assert measure.min_pair_distance() == dist.min()
    assert default_epsilon(measure) == dist.min() / 2.0


# -------------------------------------------------------------- generators


def test_uniform_grid_degenerate():
    m = generate_uniform_grid(1, 0.5)
    assert m.n == 1
    assert m.positions[0] == 0.0
    assert m.weights[0] == 1.0


def test_uniform_grid_small():
    m = generate_uniform_grid(2, 0.5)
    assert m.n == 4
    assert np.all(m.weights == 0.25)
    assert m.total_mass == 1.0


def test_uniform_grid_large():
    m = generate_uniform_grid(64, 0.8)
    assert m.total_mass == pytest.approx(1.0, rel=1e-12)
    assert m.support_radius <= 0.8 * (1 + 1e-12)


def test_uniform_grid_rejects():
    with pytest.raises(DomainError):
        generate_uniform_grid(0, 0.5)
    with pytest.raises(DomainError):
        generate_uniform_grid(4, 1.0)


def test_uniform_grid_side_limit_refuses_before_allocating():
    # side 100000 would ask for a 160 GB complex array; the cap refuses it
    # before any coordinate is formed
    assert generate_uniform_grid(MAX_GRID_SIDE, 0.8).n <= MAX_GRID_SIDE ** 2
    tracemalloc.start()
    try:
        for side in (MAX_GRID_SIDE + 1, 100000):
            with pytest.raises(ResourceLimitError):
                generate_uniform_grid(side, 0.8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e5


def test_cantor_dust_first_iterate():
    m = generate_cantor_dust(1, 0.5)
    assert m.n == 4
    assert np.all(m.weights == 0.25)


def test_cantor_dust_level3():
    m = generate_cantor_dust(3, 0.8)
    assert m.n == 64
    assert m.total_mass == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_cantor_dust_gap_structure(level):
    # middle-half iteration: finest surviving gap on each axis is 3 * 4**-level
    m = generate_cantor_dust(level, 0.6)
    axis = np.unique(np.sort(m.positions.real))
    gap = np.diff(axis).min()
    assert gap == pytest.approx(3.0 * 4.0 ** -level * 0.6 * math.sqrt(2), rel=1e-12)


def test_cantor_dust_rejects():
    with pytest.raises(DomainError):
        generate_cantor_dust(0, 0.5)
    with pytest.raises(ResourceLimitError):
        generate_cantor_dust(9, 0.5)


def test_julia_circle():
    # c = 0: the invariant boundary is the unit circle
    m = generate_julia_boundary(0.0, 128, 60, 0.5)
    assert np.abs(m.positions).max() == pytest.approx(0.5, rel=1e-12)
    assert np.abs(m.positions).min() > 0.4


def test_julia_basilica():
    m = generate_julia_boundary(-1.0, 256, 100, 0.9)
    assert m.n > 0
    assert m.support_radius < 1.0
    assert m.total_mass == pytest.approx(1.0, rel=1e-12)


def test_julia_generic_c():
    m = generate_julia_boundary(0.3 + 0.5j, 256, 100, 0.9)
    assert m.total_mass == pytest.approx(1.0, rel=1e-12)


def test_julia_rejects():
    with pytest.raises(ResourceLimitError):
        generate_julia_boundary(-1.0, 4096, 100, 0.9)
    with pytest.raises(DomainError):
        generate_julia_boundary(-1.0, 1, 100, 0.9)
    with pytest.raises(EmptyMeasureError):
        generate_julia_boundary(10.0 + 0j, 64, 50, 0.9)


# ----------------------------------------------------------------- file IO


def test_save_load_roundtrip(tmp_path):
    m = generate_cantor_dust(2, 0.7)
    path = tmp_path / "m.csv"
    save_measure(m, path)
    back = load_measure(path)
    assert np.array_equal(back.positions, m.positions)
    assert np.array_equal(back.weights, m.weights)


def test_load_simple_file(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("x,y,weight\n0.1,0.2,0.5\n-0.3,0.0,0.5\n")
    m = load_measure(path)
    assert m.n == 2
    assert m.total_mass == 1.0


@pytest.mark.parametrize("body,err", [
    ("0.1,0.2,-1.0\n", ValidationError),          # negative weight
    ("1.2,0.0,1.0\n", ValidationError),           # outside closed disk
    ("0.1,0.2\n", ValidationError),               # wrong column count
    ("0.1,abc,1.0\n", ValidationError),           # non-numeric
    ("0.1,0.2,0.5\n0.1,0.2,0.5\n", ValidationError),  # duplicate position
    ("", EmptyMeasureError),                      # no atoms
])
def test_load_rejects(tmp_path, body, err):
    path = tmp_path / "m.csv"
    path.write_text("x,y,weight\n" + body)
    with pytest.raises(err):
        load_measure(path)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b,c\n0.1,0.2,0.5\n")
    with pytest.raises(ValidationError):
        load_measure(path)


# ------------------------------------------------------------------ energy


def test_d_energy_two_atoms():
    m = AtomicMeasure(np.array([0.0 + 0j, 0.5 + 0j]), np.array([0.5, 0.5]))
    assert d_energy(m, 1.0) == pytest.approx(1.0, rel=1e-14)


def test_d_energy_single_atom(single_atom):
    assert d_energy(single_atom, 1.0) == 0.0


def _brute_energy(m, d):
    total = 0.0
    for i in range(m.n):
        for j in range(m.n):
            if i != j:
                total += m.weights[i] * m.weights[j] / abs(m.positions[i] - m.positions[j]) ** d
    return total


def test_d_energy_brute_force_grid():
    m = generate_uniform_grid(16, 0.8)
    assert d_energy(m, 1.0) == pytest.approx(_brute_energy(m, 1.0), rel=1e-12)


def test_d_energy_brute_force_cantor(cantor3):
    value = d_energy(cantor3, 0.9)
    assert math.isfinite(value)
    assert value == pytest.approx(_brute_energy(cantor3, 0.9), rel=1e-12)


def test_d_energy_monotone_in_d(cantor3):
    # all pairwise distances <= 1, so each term grows with d
    assert d_energy(cantor3, 0.5) <= d_energy(cantor3, 1.0) <= d_energy(cantor3, 1.5)


def test_d_energy_quadratic_scaling(cantor3):
    scaled = AtomicMeasure(cantor3.positions, 3.0 * cantor3.weights)
    assert d_energy(scaled, 1.2) == pytest.approx(9.0 * d_energy(cantor3, 1.2), rel=1e-12)


def test_d_energy_rejects():
    m = AtomicMeasure(np.array([0.0 + 0j, 0.5 + 0j]), np.array([0.5, 0.5]))
    with pytest.raises(DomainError):
        d_energy(m, 0.0)


# ------------------------------------------------------------ local energy


def _masses(model, replica, gamma):
    """Per-atom chaos masses of one replica."""
    return mass_columns(model, field_matrix(model, SEED, [replica])[:, 0], gamma)


def test_local_energy_one_term(single_model):
    masses = _masses(single_model, 0, 0.5)
    positions = single_model.measure.positions
    # root at distance 0.5 from the only atom, beta = 1
    value = local_energy(0.3 + 0.5j, masses, positions, 1.0)
    assert value == pytest.approx(2.0 * masses[0], rel=1e-14)


def test_local_energy_excludes_root(single_model):
    masses = _masses(single_model, 0, 0.5)
    assert local_energy(0.3 + 0j, masses, single_model.measure.positions, 1.0) == 0.0


def test_local_energy_gamma0_brute(model4):
    masses = _masses(model4, 0, 0.0)
    positions = model4.measure.positions
    root = 0.05 + 0.02j
    beta = 1.3
    brute = sum(w / abs(root - p) ** beta
                for p, w in zip(positions, model4.measure.weights))
    assert local_energy(root, masses, positions, beta) == pytest.approx(brute, rel=1e-12)


def test_local_energy_monotone_in_beta():
    m = generate_uniform_grid(4, 0.4)
    model = build_covariance(m)
    masses = _masses(model, 3, 0.6)
    # distances from an interior root are all < 1
    assert (local_energy(0.1 + 0j, masses, m.positions, 0.5)
            <= local_energy(0.1 + 0j, masses, m.positions, 1.0))


def test_local_energy_rejects(single_model):
    masses = _masses(single_model, 0, 0.5)
    with pytest.raises(DomainError):
        local_energy(0.0, masses, single_model.measure.positions, 0.0)


# ------------------------------------------------------------------- split


def test_split_symmetric_square():
    pts = 0.5 * np.array([0.5 + 0.5j, 0.5 - 0.5j, -0.5 + 0.5j, -0.5 - 0.5j])
    m = AtomicMeasure(pts, np.full(4, 0.25))
    res = split_half_plane(m)
    assert res.margin > 0
    assert res.offset == pytest.approx(0.0, abs=1e-12)
    assert res.upper_mass == pytest.approx(0.5)
    assert res.lower_mass == pytest.approx(0.5)


def test_split_two_heavy_atoms_infeasible():
    # each atom holds half the mass, over the quarter cap
    m = AtomicMeasure(np.array([0.5j, -0.5j]), np.array([0.5, 0.5]))
    with pytest.raises(SplitInfeasibleError):
        split_half_plane(m)


def test_split_heavy_atom_infeasible():
    m = AtomicMeasure(np.array([0.0 + 0j, 0.2 + 0j, 0.4 + 0j]),
                      np.array([0.6, 0.2, 0.2]))
    with pytest.raises(SplitInfeasibleError):
        split_half_plane(m)


def test_split_single_atom_infeasible(single_atom):
    with pytest.raises(SplitInfeasibleError):
        split_half_plane(single_atom)


def _random_capped_measure(rng):
    n = int(rng.integers(13, 41))
    # sqrt radial law = uniform over the disk area
    radii = 0.9 * np.sqrt(rng.random(n))
    angles = rng.random(n) * 2 * np.pi
    weights = rng.uniform(0.5, 1.5, n)  # n >= 13 keeps max weight <= total/4
    return AtomicMeasure(radii * np.exp(1j * angles), weights)


@pytest.mark.parametrize("case", range(20))
def test_split_randomized_invariants(case):
    rng = np.random.default_rng(SEED + case)
    m = _random_capped_measure(rng)
    res = split_half_plane(m)
    total = m.total_mass
    proj = np.imag(m.positions * np.exp(1j * res.angle))
    upper = float(m.weights[proj >= res.offset + res.margin].sum())
    lower = float(m.weights[proj <= res.offset - res.margin].sum())
    assert res.margin > 0
    assert upper == res.upper_mass and lower == res.lower_mass
    assert 4.0 * upper > total
    assert 4.0 * lower > total


def test_split_quarter_cap_boundary_allowed():
    # exactly a quarter each is admissible (cap is strict ">")
    pts = 0.5 * np.array([0.5 + 0.5j, 0.5 - 0.5j, -0.5 + 0.5j, -0.5 - 0.5j])
    m = AtomicMeasure(pts, np.full(4, 0.25))
    assert split_half_plane(m).margin > 0
