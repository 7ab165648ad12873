import math

import numpy as np
import pytest

import gmclab.bounds
import gmclab.field
import gmclab.kernel
import gmclab.measure
from gmclab import (
    AtomicMeasure,
    DomainError,
    build_covariance,
    d_energy,
    estimate_s0,
    exponents,
    fit_loglog_slope,
    generate_uniform_grid,
    laplace_transform,
    small_ball_tail,
    t0_from_ratio,
    verify_bound,
)
from gmclab.field import BATCH
from gmclab.gmc import mean_se, rooted_kernel_sums
from gmclab.kernel import offdiagonal_green
from reference import t0_l2

SEED = 31


def two_atom_model(weight=0.04):
    m = AtomicMeasure(np.array([0.5, -0.5]), np.full(2, weight))
    return build_covariance(m)


# ---------------------------------------------------------------- exponents


def test_exponent_reference_point():
    rep = exponents(1.0, 2.0, 2.0, 1.0)
    assert rep.eta == 1.0 / 3.0
    assert rep.l2_eta == 1.0 / 3.0
    assert rep.L == 2.0
    assert rep.beta_bar == 2.0
    assert rep.s0 is None and rep.t0 is None and rep.l2_t0 is None


def test_exponent_gamma_zero():
    rep = exponents(0.0, 1.5, 1.5, 1.0)
    assert rep.eta == 1.0
    assert rep.l2_eta == 1.0


def test_eta_vanishes_at_critical_beta():
    # beta -> gamma^2 from above drives the decay rate to zero
    gamma, d = 1.4, 2.0   # admissible window (1.96, 2.8)
    etas = [exponents(gamma, d, b, 1.0).eta for b in (1.961, 2.2, 2.79)]
    assert etas == sorted(etas)
    assert etas[0] < 0.01


def test_eta_monotone_in_delta():
    etas = [exponents(0.8, 1.0, 0.9, delta).eta for delta in (0.5, 1.0, 2.0, 4.0)]
    assert etas == sorted(etas, reverse=True)


@pytest.mark.parametrize("gamma,d,beta,delta,frag", [
    (0.8, 0.0, 2.0, 1.0, "d"),
    (0.8, 2.5, 3.0, 1.0, "d"),
    (-0.1, 1.0, 0.5, 1.0, "gamma"),
    (0.8, 1.0, 0.9, 0.0, "delta"),
    (1.0, 2.0, 0.5, 1.0, "beta"),   # below gamma^2
    (1.2, 2.0, 2.5, 1.0, "beta"),   # above beta_bar = 2.4 and not the beta = d branch
])
def test_exponent_domain_errors(gamma, d, beta, delta, frag):
    with pytest.raises(DomainError) as err:
        exponents(gamma, d, beta, delta)
    assert frag in str(err.value)


def test_beta_equal_d_square_integrable_branch():
    # beta = d is only admissible when gamma < sqrt(d)
    with pytest.raises(DomainError):
        exponents(1.5, 2.0, 2.0, 1.0)
    rep = exponents(0.9, 2.0, 2.0, 1.0)
    assert rep.eta == rep.l2_eta


# ----------------------------------------------------------------- t0 values


def test_t0_from_ratio_reference():
    assert t0_from_ratio(1.0, 1.0, 2.0) == 524288.0


def test_t0_from_ratio_small_ratio():
    # 16 * (32/32)^3 scaled down: ratio 1/32 kills the inner factor exactly
    assert t0_from_ratio(1.0 / 32.0, 1.0, 2.0) == 16.0


def test_t0_from_ratio_rejects():
    with pytest.raises(DomainError):
        t0_from_ratio(1.0, 1.5, 2.0)
    with pytest.raises(DomainError):
        t0_from_ratio(0.0, 0.5, 1.0)


def test_t0_l2_matches_energy(cantor3):
    gamma, d = 0.5, 0.9
    t0 = t0_l2(cantor3, gamma, d)
    ratio = d_energy(cantor3, d) / cantor3.total_mass
    assert t0 == pytest.approx(t0_from_ratio(ratio, gamma, d), rel=1e-12)


def test_t0_l2_weight_scaling(cantor3):
    # scaling every weight by c scales the energy ratio by c, so t0 by c^(1/eta)
    gamma, d = 0.5, 0.9
    eta = (d - gamma ** 2) / (d + gamma ** 2)
    c = 3.0
    scaled = AtomicMeasure(cantor3.positions, cantor3.weights * c)
    assert t0_l2(scaled, gamma, d) == pytest.approx(
        t0_l2(cantor3, gamma, d) * c ** (1.0 / eta), rel=1e-12)


# ---------------------------------------------------------------- estimate_s0


def test_s0_deterministic_at_gamma_zero():
    model = two_atom_model(0.3)
    # gamma 0 leaves no randomness: phi_beta = w * dist^-beta = 0.3 exactly
    m = 0.3
    s0_d1 = estimate_s0(model, 0.0, 1.0, 1.0, 200, SEED)
    assert s0_d1 == pytest.approx(16.0 * m, rel=1e-12)
    s0_d2 = estimate_s0(model, 0.0, 1.0, 2.0, 200, SEED)
    assert s0_d2 == pytest.approx(math.sqrt(16.0 * m), rel=1e-12)


def test_s0_seed_stability(model8):
    a = estimate_s0(model8, 0.8, 1.2, 1.0, 4000, 1)
    b = estimate_s0(model8, 0.8, 1.2, 1.0, 4000, 2)
    assert a > 0 and b > 0
    assert abs(a - b) <= 0.1 * max(a, b)


def test_s0_rejects_nonpositive_delta(model8):
    with pytest.raises(DomainError):
        estimate_s0(model8, 0.8, 1.2, 0.0, 100, SEED)


# ----------------------------------------------------------- laplace transform


def test_laplace_at_zero(model8):
    rep = laplace_transform(model8, 0.8, np.array([0.0, 1.0]), 500, SEED)
    assert rep.estimates[0] == 1.0
    assert rep.standard_errors[0] == 0.0


def test_laplace_gamma_zero(model8):
    t = np.array([0.5, 2.0, 8.0])
    rep = laplace_transform(model8, 0.0, t, 100, SEED)
    sigma = model8.measure.total_mass
    assert np.allclose(rep.estimates, np.exp(-t * sigma), rtol=1e-12)
    assert np.all(rep.standard_errors <= 1e-15)


def test_laplace_single_atom_quadrature(single_model):
    # E[exp(-t w e^(g Z sqrt(v) - g^2 v / 2))] via Gauss-Hermite
    gamma = 1.0
    v = single_model.diag_variance[0]
    nodes, weights = np.polynomial.hermite.hermgauss(201)
    t_values = np.array([0.5, 2.0, 10.0])
    rep = laplace_transform(single_model, gamma, t_values, 40000, SEED)
    for t, est, se in zip(t_values, rep.estimates, rep.standard_errors):
        mass = np.exp(gamma * math.sqrt(2 * v) * nodes - 0.5 * gamma ** 2 * v)
        oracle = float(np.sum(weights * np.exp(-t * mass)) / math.sqrt(math.pi))
        assert abs(est - oracle) <= 3.0 * se + 1e-12


def test_laplace_monotone_and_bounded(model8):
    t = np.array([0.1, 1.0, 10.0, 100.0])
    rep = laplace_transform(model8, 0.8, t, 2000, SEED)
    assert np.all(np.diff(rep.estimates) <= 1e-15)
    assert np.all(rep.estimates >= 0.0)
    assert np.all(rep.estimates <= 1.0)


def test_laplace_bound_values(model8):
    t = np.array([2.0, 4.0])
    exp_report = exponents(0.8, 2.0, 2.0, 1.0)
    rep = laplace_transform(model8, 0.8, t, 100, SEED, exponent=exp_report)
    sigma = model8.measure.total_mass
    assert np.allclose(rep.bound_values, 32.0 / (sigma * t ** exp_report.eta),
                       rtol=1e-12)
    plain = laplace_transform(model8, 0.8, t, 100, SEED)
    assert plain.bound_values is None


def test_laplace_rejects_negative_t(model8):
    with pytest.raises(DomainError):
        laplace_transform(model8, 0.8, np.array([-1.0]), 100, SEED)


# ---------------------------------------------------------------- verify_bound


def test_verify_bound_nontrivial_gamma_zero():
    # deterministic mass: exp(-t sigma) against 32/(sigma t^eta) is checkable by hand
    model = two_atom_model()
    rep = verify_bound(model, 0.0, 1.0, 1.0, 1.0, 500, SEED)
    assert not rep.trivial_pass
    assert rep.points_pass.all()
    assert rep.verdict
    assert rep.exponent.eta == 1.0


def test_verify_bound_l2_grid(grid16_model):
    rep = verify_bound(grid16_model, 0.8, 2.0, 2.0, 1.0, 3000, SEED, l2=True)
    assert rep.verdict
    # t0 here is astronomically large, so every estimate underflows to zero
    assert rep.trivial_pass == bool(np.all(rep.laplace.estimates == 0.0))
    assert rep.event_pass


def test_verify_bound_t_grid(model8):
    rep = verify_bound(model8, 0.0, 1.0, 1.0, 1.0, 200, SEED)
    t = rep.laplace.t_values
    t0 = rep.exponent.t0
    assert t.shape == (25,)
    assert t[0] == pytest.approx(t0, rel=1e-12)
    assert t[-1] == pytest.approx(100.0 * t0, rel=1e-12)
    assert np.allclose(np.diff(np.log10(t)), 1.0 / 12.0, rtol=1e-10)


def test_verify_bound_l2_t0_field(model8):
    rep = verify_bound(model8, 0.8, 2.0, 2.0, 1.0, 200, SEED, l2=True)
    assert rep.exponent.l2_t0 == pytest.approx(
        t0_l2(model8.measure, 0.8, 2.0), rel=1e-12)
    # the l2 route computes t0 analytically, so the two coincide
    assert rep.exponent.t0 == pytest.approx(rep.exponent.l2_t0, rel=1e-12)


@pytest.fixture(scope="module")
def grid40_model():
    # n = 1600: two 1024-row blocks of the d-energy sum, 40 distance-row tiles
    return build_covariance(generate_uniform_grid(40, 0.8))


def test_verify_bound_l2_computes_energy_once(model8, grid40_model, monkeypatch):
    # the d-energy is summed from the distances verify_bound forms for its
    # other stages: one pair_distances worth of distance-row tiles in all
    for model in (model8, grid40_model):
        calls = []
        real = gmclab.measure._lower_distance_rows

        def counted(positions, lo, hi, *args, **kwargs):
            calls.append((lo, hi))
            return real(positions, lo, hi, *args, **kwargs)

        monkeypatch.setattr(gmclab.measure, "_lower_distance_rows", counted)
        monkeypatch.setattr(gmclab.kernel, "_lower_distance_rows", counted)
        rep = verify_bound(model, 0.8, 2.0, 2.0, 1.0, 200, SEED, l2=True)
        monkeypatch.undo()
        n, rows = model.n, gmclab.kernel._tile_rows(model.n)
        assert calls == [(lo, min(lo + rows, n)) for lo in range(0, n, rows)]
        sigma = model.measure.total_mass
        assert rep.exponent.s0 == 2.0 ** 5 * d_energy(model.measure, 2.0) / sigma
        assert rep.exponent.l2_t0 == t0_l2(model.measure, 0.8, 2.0)


def test_verify_bound_l2_requires_matching_parameters(model8):
    with pytest.raises(DomainError):
        verify_bound(model8, 0.8, 2.0, 1.9, 1.0, 200, SEED, l2=True)
    with pytest.raises(DomainError):
        verify_bound(model8, 1.5, 2.0, 2.0, 1.0, 200, SEED, l2=True)


def test_verify_bound_t0_overflow(model8):
    # beta barely above gamma^2 sends 1/eta into the tens of thousands and
    # s0^(1/eta) past double range; that must surface as a clean refusal
    with pytest.raises(DomainError) as err:
        verify_bound(model8, 1.2, 1.0, 1.4405, 4.0, 64, SEED)
    assert "overflow" in str(err.value)


def test_verify_bound_disjoint_replica_blocks(model8):
    # the Laplace stage reuses replicas [0, N) regardless of the other stages
    n = 150
    rep = verify_bound(model8, 0.0, 1.0, 1.0, 1.0, n, SEED)
    direct = laplace_transform(model8, 0.0, rep.laplace.t_values, n, SEED)
    assert np.array_equal(rep.laplace.estimates, direct.estimates)


@pytest.fixture(scope="module")
def light_model():
    # atoms at +-0.5, weight 0.04 each: the benchmark's light measure
    return two_atom_model()


# general-branch (gamma, d, beta, delta). On grid8 r = s0^-L sits far below
# the grid spacing, so the event ball holds no second atom; on the light
# measure s0 ~ 0.59 and r ~ 10.6 exceeds the atoms' distance 1.0
EMPTY_BALL = (0.8, 2.0, 1.8, 1.0)
FULL_BALL = (0.6, 1.0, 0.8, 1.0)


def _drawn_field_blocks(monkeypatch, model, args, n):
    # the stream blocks whose field verify_bound draws, in draw order
    keys = []
    real = gmclab.field.replica_generator

    def recording(base_seed, block_index, substream=gmclab.field.FIELD_SUBSTREAM):
        if substream == gmclab.field.FIELD_SUBSTREAM:
            keys.append(block_index)
        return real(base_seed, block_index, substream)

    monkeypatch.setattr(gmclab.field, "replica_generator", recording)
    report = verify_bound(model, *args, n, SEED)
    monkeypatch.undo()
    return keys, report


def test_verify_bound_draws_each_block_once(model8, monkeypatch):
    # the threshold and event stages start at block-aligned offsets, so no
    # stream block is drawn by two stages even when N is not a block multiple;
    # grid8's event ball is empty, so only the Laplace and threshold stages draw
    keys, _ = _drawn_field_blocks(monkeypatch, model8, EMPTY_BALL, 1500)
    assert len(keys) == 4
    assert len(set(keys)) == len(keys)


def test_verify_bound_full_ball_draws_each_block_once(light_model, monkeypatch):
    # a ball that holds the other atom: all three stages draw, two blocks each
    keys, _ = _drawn_field_blocks(monkeypatch, light_model, FULL_BALL, 1500)
    assert len(keys) == 6
    assert len(set(keys)) == len(keys)


def _event_reference(model, args, n, report):
    # the dense event stage: ball weights over every pair, summed per replica
    gamma, _, beta, delta = args
    s0, big_l = report.exponent.s0, report.exponent.L
    r = s0 ** -big_l
    green, dist = offdiagonal_green(model.measure.positions)
    weight = np.where(dist <= r, np.exp(gamma * gamma * green), 0.0)
    stride = -(-n // BATCH) * BATCH
    ball = rooted_kernel_sums(model, SEED, range(2 * stride, 2 * stride + n), gamma,
                              weight)
    return r, dist, weight, ball, mean_se(ball <= s0 ** delta * r ** (beta - gamma * gamma))


@pytest.mark.parametrize("name, args", [
    pytest.param("model8", EMPTY_BALL, id="grid8"),
    pytest.param("cantor5_clipped", (1.2, 2.0, 1.8, 1.0), id="cantor5"),
])
def test_empty_event_ball_draws_no_field(request, monkeypatch, name, args):
    model, n = request.getfixturevalue(name), 300
    greens = []
    monkeypatch.setattr(gmclab.bounds, "offdiagonal_green",
                        lambda *a, **k: greens.append(a) or offdiagonal_green(*a, **k))
    keys, report = _drawn_field_blocks(monkeypatch, model, args, n)
    assert greens == []
    # Laplace block 0 and threshold block 1; the event block 2 is never drawn
    assert sorted(keys) == [0, 1]
    r, dist, weight, _, (freq, se) = _event_reference(model, args, n, report)
    assert dist.min() > r and not weight.any()
    assert (report.event_frequency, report.event_se) == (freq, se)


def test_event_ball_masses_are_kernel_sums_over_the_ball(light_model, monkeypatch):
    args, n = FULL_BALL, 1500
    sums = []

    def recording(*a, **k):
        sums.append(rooted_kernel_sums(*a, **k))
        return sums[-1]

    monkeypatch.setattr(gmclab.bounds, "rooted_kernel_sums", recording)
    report = verify_bound(light_model, *args, n, SEED)
    monkeypatch.undo()
    r, dist, weight, ball, (freq, se) = _event_reference(light_model, args, n, report)
    assert dist.min() <= r and weight.any()
    # the threshold stage's local energies, then the event stage's ball masses
    assert len(sums) == 2
    assert np.array_equal(sums[1], ball)
    assert (report.event_frequency, report.event_se) == (freq, se)


# ----------------------------------------------------------------- small ball


def test_small_ball_gamma_zero(model8):
    sigma = model8.measure.total_mass
    rep = small_ball_tail(model8, 0.0, np.array([0.5 * sigma]), 200, SEED)
    assert rep.frequencies[0] == 0.0


def test_small_ball_threshold_above_everything(model8):
    totals_cap = model8.measure.total_mass * 100.0
    rep = small_ball_tail(model8, 0.3, np.array([totals_cap]), 2000, SEED)
    assert rep.frequencies[0] >= 0.999


def test_small_ball_single_atom_gaussian_oracle(single_model):
    # P(w e^(g X - g^2 v/2) < eps) = Phi((ln eps + g^2 v / 2) / (g sqrt(v)))
    gamma = 1.0
    v = single_model.diag_variance[0]
    eps = np.array([0.1, 0.3, 0.5])
    rep = small_ball_tail(single_model, gamma, eps, 20000, SEED)
    for e, freq, se in zip(eps, rep.frequencies, rep.standard_errors):
        z = (math.log(e) + 0.5 * gamma ** 2 * v) / (gamma * math.sqrt(v))
        oracle = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
        assert abs(freq - oracle) <= 3.0 * se + 1e-12


def test_small_ball_rejects(model8):
    with pytest.raises(DomainError):
        small_ball_tail(model8, 0.8, np.array([0.0]), 100, SEED)


# ------------------------------------------------------------------ log slope


def test_fit_loglog_slope_exact_power_law():
    t = np.geomspace(1.0, 100.0, 20)
    estimates = 3.7 * t ** -1.25
    assert fit_loglog_slope(t, estimates) == pytest.approx(1.25, rel=1e-12)


def test_fit_loglog_slope_ignores_zeros():
    t = np.geomspace(1.0, 100.0, 20)
    estimates = 3.7 * t ** -0.5
    estimates[-3:] = 0.0
    assert fit_loglog_slope(t, estimates) == pytest.approx(0.5, rel=1e-12)


def test_fit_loglog_slope_rejects_degenerate():
    with pytest.raises(DomainError):
        fit_loglog_slope(np.array([1.0, 2.0]), np.array([0.5, 0.0]))


def test_asymptotic_slope_exceeds_eta():
    # far beyond t0 the decay is much faster than the guaranteed t^-eta
    model = two_atom_model()
    rep = verify_bound(model, 0.6, 1.0, 1.0, 1.0, 20000, SEED, l2=True)
    assert rep.verdict
    assert not rep.trivial_pass
    assert np.all(rep.laplace.estimates > 0.0)
    slope = fit_loglog_slope(rep.laplace.t_values, rep.laplace.estimates)
    assert slope >= rep.exponent.eta


def test_laplace_one_replica_has_no_standard_error(model8):
    rep = laplace_transform(model8, 0.8, np.array([0.0, 1.0]), 1, SEED)
    assert np.all(np.isnan(rep.standard_errors))
