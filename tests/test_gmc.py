import math
import tracemalloc

import numpy as np
import pytest

import gmclab.field
from gmclab import (
    AtomicMeasure,
    DomainError,
    Statistic,
    atom_value_statistic,
    build_covariance,
    clipped_mass_statistic,
    d_energy,
    field_matrix,
    generate_uniform_grid,
    green_disk,
    rooted_identity_errors,
    total_masses,
    verify_change_of_measure,
)
from gmclab.bounds import estimate_s0, laplace_transform, small_ball_tail, verify_bound
from gmclab.errors import NumericalError, ResourceLimitError
from gmclab.field import (BATCH, FIELD_SUBSTREAM, MAX_REPLICA_CELLS, ROOT_SUBSTREAM,
                          check_replica_count)
from gmclab.gmc import _exponentials, mass_columns, mean_se, rooted_kernel_sums
from gmclab.inequalities import fkg_check, kahane_check
from gmclab.kernel import offdiagonal_green, pair_distances
from reference import (draw_roots, local_energy_samples, sample_rooted, strip_sums,
                       verify_rooted_identity)

SEED = 7


# ----------------------------------------------------------- mass_columns


def test_gamma0_mass_equals_weights(model8):
    masses = mass_columns(model8, field_matrix(model8, SEED, [0])[:, 0], 0.0)
    assert np.array_equal(masses, model8.measure.weights)
    assert masses.sum() == model8.measure.total_mass


def test_mass_formula_exact(model8):
    values = field_matrix(model8, SEED, [3])[:, 0]
    gamma = 0.9
    manual = model8.measure.weights * np.exp(
        gamma * values - 0.5 * gamma ** 2 * model8.diag_variance)
    assert np.array_equal(mass_columns(model8, values, gamma), manual)
    # a matrix of columns, formed in place, equals the out-of-place expression
    values = field_matrix(model8, SEED, np.arange(1000, 1100))
    shift = 0.5 * gamma * gamma * model8.diag_variance
    manual = (model8.measure.weights * np.exp(gamma * values.T - shift)).T
    assert np.array_equal(mass_columns(model8, values, gamma), manual)


def test_single_atom_lognormal_mean(single_model):
    totals = total_masses(single_model, 0.8, SEED, 100000)
    se = totals.std(ddof=1) / math.sqrt(totals.size)
    assert abs(totals.mean() - 1.0) <= 3.0 * se


def test_single_atom_lognormal_median(single_model):
    gamma = 0.8
    totals = total_masses(single_model, gamma, SEED, 100000)
    v = single_model.diag_variance[0]
    median = math.exp(-0.5 * gamma ** 2 * v)
    # P(mass < theoretical median) should be 1/2
    freq = np.mean(totals < median)
    assert abs(freq - 0.5) <= 3.0 * math.sqrt(0.25 / totals.size)


@pytest.mark.parametrize("gamma", [0.3, 0.8, 1.2])
def test_mean_mass_identity(model8, gamma):
    totals = total_masses(model8, gamma, SEED, 5000)
    se = totals.std(ddof=1) / math.sqrt(totals.size)
    assert abs(totals.mean() - model8.measure.total_mass) <= 3.0 * se


def test_total_masses_start_offset(model8):
    # block [10, 20) equals the tail of [0, 20)
    a = total_masses(model8, 0.8, SEED, 20)
    b = total_masses(model8, 0.8, SEED, 10, start=10)
    assert np.array_equal(a[10:], b)


# -------------------------------------------------------------- root draws


def test_root_frequencies():
    m = AtomicMeasure(np.array([0.1, 0.2j, -0.3, 0.4j]),
                      np.array([0.1, 0.2, 0.3, 0.4]))
    model = build_covariance(m)
    roots = draw_roots(model, SEED, np.arange(20000))
    for i, w in enumerate(m.weights):
        freq = np.mean(roots == i)
        se = math.sqrt(w * (1 - w) / roots.size)
        assert abs(freq - w) <= 3.0 * se


def test_zero_weight_atom_never_rooted():
    m = AtomicMeasure(np.array([0.1, 0.2j, -0.3]), np.array([0.0, 0.5, 0.5]))
    model = build_covariance(m)
    roots = draw_roots(model, SEED, np.arange(5000))
    assert np.all(roots != 0)


def test_all_weight_on_one_atom():
    m = AtomicMeasure(np.array([0.1, 0.2j, -0.3]), np.array([0.0, 1.0, 0.0]))
    model = build_covariance(m)
    roots = draw_roots(model, SEED, np.arange(200))
    assert np.all(roots == 1)


def test_rooted_sample_structure(model8):
    rooted = sample_rooted(model8, SEED, 4, 0.7)
    assert rooted.root == model8.measure.positions[rooted.root_index]
    shift = rooted.shifted_field - rooted.base_field
    assert np.allclose(shift, 0.7 * model8.matrix[rooted.root_index], rtol=1e-12)


def test_rooted_gamma_prime_zero(model8):
    rooted = sample_rooted(model8, SEED, 4, 0.0)
    assert np.array_equal(rooted.shifted_field, rooted.base_field)


# ----------------------------------------------------------- rooted identity


def test_identity_single_atom(single_model):
    check = verify_rooted_identity(single_model, SEED, 0, 0.8, 0.8)
    assert check.rel_err <= 1e-14
    assert check.lhs == pytest.approx(check.rhs, rel=1e-14)


def test_identity_gamma_prime_zero(model8):
    check = verify_rooted_identity(model8, SEED, 2, 0.8, 0.0)
    base = total_masses(model8, 0.8, SEED, 1, start=2)[0]
    assert check.lhs == pytest.approx(base, rel=1e-12)
    assert check.rel_err <= 1e-13


def test_identity_grid_every_replica(model8):
    errors = rooted_identity_errors(model8, SEED, 1000, 0.8, 0.8)
    assert errors.shape == (1000,)
    assert errors.max() <= 1e-10


def test_identity_vectorized_matches_scalar(model8):
    errors = rooted_identity_errors(model8, SEED, 8, 0.8, 0.6)
    for k in range(8):
        check = verify_rooted_identity(model8, SEED, k, 0.8, 0.6)
        # scalar path regenerates the same replica through the one-column product
        assert errors[k] == pytest.approx(check.rel_err, abs=1e-12)


@pytest.mark.parametrize("k", [1, BATCH - 1, BATCH + 1])
def test_identity_errors_prefix_matches_shorter_call(model20, k):
    # each replica's sums run over its own atoms only, so a call's first k
    # errors are those of a k-replica call, on either side of a block edge
    wide = rooted_identity_errors(model20, SEED, BATCH + 100, 0.8, 0.6)
    assert np.array_equal(rooted_identity_errors(model20, SEED, k, 0.8, 0.6), wide[:k])


def test_identity_underflow_raises(model8):
    # at gamma 40 on the 8x8 grid every right side underflows to 0, so each
    # relative error would be 0/0
    with pytest.raises(NumericalError, match=r"gamma=40, .* 50 of 50 replicas"):
        rooted_identity_errors(model8, 1, 50, 40.0, 0.8)


def test_inequality_mass_underflow_raises(model8):
    # at gamma 60 on the 8x8 grid every total mass underflows to 0, so fkg's
    # covariance and kahane's difference would be graded as exactly 0
    with pytest.raises(NumericalError, match=r"gamma=60 .* all 50 replicas"):
        fkg_check(model8, 60.0, 1.0, 2.0, 50, 1)
    with pytest.raises(NumericalError, match=r"gamma=60 .* all 50 replicas"):
        kahane_check(model8, 60.0, 0.9, 2.0, 50, 1)


def test_identity_rhs_monotone_in_gamma_prime(model8):
    # valid because the repaired matrix is entrywise nonnegative here
    assert model8.matrix.min() >= 0.0
    rhs = [verify_rooted_identity(model8, SEED, 5, 0.8, gp).rhs
           for gp in (0.0, 0.4, 0.8, 1.2)]
    assert all(a <= b * (1 + 1e-12) for a, b in zip(rhs, rhs[1:]))


# ------------------------------------------------------- change of measure


def test_change_of_measure_constant_statistic(model8):
    one = Statistic("one", lambda values, atoms, out: out.fill(0.0),
                    model8.measure.weights, lambda total: total + 1.0)
    report = verify_change_of_measure(model8, 0.8, one, 20000, SEED)
    assert report.mean_rooted == 1.0
    assert abs(report.mean_weighted - 1.0) <= 3.0 * report.se_weighted
    assert report.overlap


def test_change_of_measure_single_atom_field_value(single_model):
    gamma_prime = 0.7
    v = single_model.diag_variance[0]
    report = verify_change_of_measure(
        single_model, gamma_prime, atom_value_statistic(single_model, 0), 20000, SEED)
    assert abs(report.mean_rooted - gamma_prime * v) <= 3.0 * report.se_rooted
    assert abs(report.mean_weighted - gamma_prime * v) <= 3.0 * report.se_weighted
    assert report.overlap


def test_change_of_measure_gamma_prime_zero(model8):
    stat = clipped_mass_statistic(model8, 0.5, 10.0)
    report = verify_change_of_measure(model8, 0.0, stat, 500, SEED)
    # both branches see the identical replicas when the bias vanishes
    assert report.mean_weighted == pytest.approx(report.mean_rooted, rel=1e-12)
    assert report.overlap


def test_change_of_measure_paired_standard_error(model8):
    # the branches share replicas: grade on the SE of their per-replica
    # difference, and report the ESS of the mass weights
    gamma_prime, n = 0.6, 300
    stat = clipped_mass_statistic(model8, gamma_prime, 10.0)
    report = verify_change_of_measure(model8, gamma_prime, stat, n, SEED)
    indices = np.arange(n)
    values = field_matrix(model8, SEED, indices)
    masses = mass_columns(model8, values, gamma_prime).sum(axis=0)
    rows = model8.matrix[draw_roots(model8, SEED, indices)].T
    diff = (stat(values) * masses / model8.measure.total_mass
            - stat(values + gamma_prime * rows))
    assert report.se_difference == pytest.approx(
        diff.std(ddof=1) / math.sqrt(n), rel=1e-12)
    assert report.effective_sample_size == pytest.approx(
        masses.sum() ** 2 / np.sum(masses ** 2), rel=1e-12)
    assert 1.0 <= report.effective_sample_size < n
    assert report.overlap == (abs(report.mean_weighted - report.mean_rooted)
                              <= 3.0 * report.se_difference)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_change_of_measure_mass_underflow_raises(model8):
    # the gamma' 30 mass sums are below 1e-250, so their squares, and the
    # effective sample size's numerator and denominator, underflow to 0
    stat = clipped_mass_statistic(model8, 30.0, 10.0)
    with pytest.raises(NumericalError, match=r"gamma_prime=30 mass sums m of 50"):
        verify_change_of_measure(model8, 30.0, stat, 50, 1)


def test_statistics_are_their_summed_terms(model8):
    # F(h) = finish(sum_i weights_i * terms_i(h)); the atom-value weights are
    # one-hot, so every other field value is multiplied by 0
    values = field_matrix(model8, SEED, np.arange(40))
    assert np.array_equal(atom_value_statistic(model8, 5)(values), values[5])
    assert np.array_equal(atom_value_statistic(model8, 5)(values[:, 3]), values[5, 3])
    stat = clipped_mass_statistic(model8, 0.8, 1.5)
    weights = model8.measure.weights
    assert np.array_equal(stat.weights, weights)
    assert np.array_equal(stat(values),
                          np.minimum(weights @ _exponentials(model8, values, 0.8), 1.5))
    np.testing.assert_allclose(
        stat(values), np.minimum(mass_columns(model8, values, 0.8).sum(axis=0), 1.5),
        rtol=1e-13, atol=0)


def test_atom_value_statistic_needs_an_atom(model8):
    for index in (-1, model8.n):
        with pytest.raises(DomainError, match="0 <= index < 64"):
            atom_value_statistic(model8, index)


def test_clipped_mass_statistic_cap(model8):
    stat = clipped_mass_statistic(model8, 0.8, 0.5)
    values = np.full((model8.n, 3), 5.0)
    assert np.all(stat(values) <= 0.5)
    with pytest.raises(DomainError):
        clipped_mass_statistic(model8, 0.8, 0.0)


# --------------------------------------------------------- singular integral


def _singular_weight(model, beta):
    # exp(beta * G) between distinct atoms, 0 on the diagonal: rooted_kernel_sums
    # with it gives the singular integral sum_{i != root} e^{beta G(root, p_i)} mass_i
    p = model.measure.positions
    green = offdiagonal_green(p, pair_distances(p))
    weight = np.exp(beta * green)
    np.fill_diagonal(weight, 0.0)
    return weight


def test_beta_singular_zero_beta(two_model):
    # beta = 0: total unbiased mass minus the root atom's own mass
    gamma = 0.7
    samples = rooted_kernel_sums(two_model, SEED, np.arange(50), gamma,
                                 _singular_weight(two_model, 0.0))
    roots = draw_roots(two_model, SEED, np.arange(50))
    masses = mass_columns(two_model, field_matrix(two_model, SEED, np.arange(50)), gamma)
    expected = masses.sum(axis=0) - masses[roots, np.arange(50)]
    assert np.allclose(samples, expected, rtol=1e-12)


def test_beta_singular_one_term(two_model):
    # two atoms at distance 0.5: a single off-root term, evaluated directly
    gamma, beta = 0.7, 1.1
    value = rooted_kernel_sums(two_model, SEED, [3], gamma,
                               _singular_weight(two_model, beta))[0]
    roots = draw_roots(two_model, SEED, [3])
    root = int(roots[0])
    other = 1 - root
    masses = mass_columns(two_model, field_matrix(two_model, SEED, [3])[:, 0], gamma)
    p = two_model.measure.positions
    direct = math.exp(beta * green_disk(p[root], p[other])) * masses[other]
    assert value == pytest.approx(direct, rel=1e-10)


def test_beta_singular_mean_bound(model8):
    # E[sum_{i != root} e^{d*G} mass_i] <= 4 E_d / sigma since G <= log(2/|x-y|)
    gamma, d = 0.8, 2.0
    samples = rooted_kernel_sums(model8, SEED, np.arange(4000), gamma,
                                 _singular_weight(model8, d))
    bound = 4.0 * d_energy(model8.measure, d) / model8.measure.total_mass
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    assert samples.mean() <= bound + 3.0 * se


# ------------------------------------------------------- block-keyed streams


def test_roots_mid_block_range_match_aligned_call(model8):
    aligned = draw_roots(model8, SEED, np.arange(2 * BATCH))
    idx = np.arange(1000, 1100)
    assert np.array_equal(draw_roots(model8, SEED, idx), aligned[idx])


def test_roots_shuffled_and_duplicated_indices(model8):
    aligned = draw_roots(model8, SEED, np.arange(2 * BATCH))
    rng = np.random.default_rng(1)
    idx = np.r_[rng.permutation(2 * BATCH)[:300], 5, 5, 2047, 0]
    assert np.array_equal(draw_roots(model8, SEED, idx), aligned[idx])


def test_root_is_its_row_of_the_block_draw(model8):
    k = 2 * BATCH + 11
    u = gmclab.field.replica_generator(SEED, 2, ROOT_SUBSTREAM).random(BATCH)[11]
    cum = np.cumsum(model8.measure.weights)
    expected = min(np.searchsorted(cum, u * cum[-1], side="right"), model8.n - 1)
    assert draw_roots(model8, SEED, [k])[0] == expected


def test_roots_of_empty_index_list(model8):
    assert draw_roots(model8, SEED, []).shape == (0,)


def test_one_generator_per_block_and_substream(model4, monkeypatch):
    # the cost model: streams are built per block, never per replica
    made = []
    real = gmclab.field.replica_generator

    def counting(base_seed, block_index, substream=FIELD_SUBSTREAM):
        made.append((block_index, substream))
        return real(base_seed, block_index, substream)

    monkeypatch.setattr(gmclab.field, "replica_generator", counting)
    indices = np.arange(3 * BATCH + 5)
    field_matrix(model4, SEED, indices)
    draw_roots(model4, SEED, indices)
    assert len(made) == len(set(made))
    assert set(made) == {(block, sub) for block in range(4)
                         for sub in (ROOT_SUBSTREAM, FIELD_SUBSTREAM)}


# ------------------------------------------------------ block-streaming engine


@pytest.fixture(scope="module")
def model20():
    # n = 400 > field.STRIP, so the factor product runs in two strips
    return build_covariance(generate_uniform_grid(20, 0.8))


@pytest.mark.parametrize("model_name, start, n", [
    # starts mid-block, crosses blocks 0 | 1 | 2
    pytest.param("model8", 1000, 1100, id="1000-1100"),
    # blocks 0 and 2 hold one replica each
    pytest.param("model8", 1023, 1026, id="1023-1026"),
    pytest.param("model20", 1000, 1100, id="n400-1000-1100"),
    pytest.param("model20", 1023, 1026, id="n400-1023-1026"),
    # a clipped covariance: the rooted samplers read its rows as columns,
    # which holds because every repaired matrix is symmetric bit for bit
    pytest.param("cantor5_clipped", 1023, 1026, id="clipped-1023-1026"),
])
def test_streamed_samplers_match_materialized_path(request, model_name, start, n):
    # the reference materializes every stream block from replica 0 up to
    # the last one asked for, and reduces its terms with the engine's
    # weighted product per strip and per block (reference.strip_sums), so
    # every sum matches bit for bit
    model = request.getfixturevalue(model_name)
    gamma, beta = 0.8, 1.5
    weights = model.measure.weights
    whole = np.arange(-(-(start + n) // BATCH) * BATCH)
    picked = slice(start, start + n)
    values = field_matrix(model, SEED, whole)
    roots = draw_roots(model, SEED, whole)
    exps = _exponentials(model, values, gamma)
    p = model.measure.positions
    dist = np.abs(p[:, None] - p[None, :])
    np.fill_diagonal(dist, np.inf)
    green = np.log(np.abs(1.0 - np.outer(p, p.conj()))) - np.log(dist)
    singular = np.exp(beta * green)
    np.fill_diagonal(singular, 0.0)

    total = strip_sums(weights, exps)
    assert np.array_equal(total_masses(model, gamma, SEED, n, start=start), total[picked])
    energy = strip_sums(weights, exps * np.take(dist ** -beta, roots, axis=1))
    assert np.array_equal(local_energy_samples(model, gamma, beta, SEED, n, start=start),
                          energy[picked])
    kernel = strip_sums(weights, exps * np.take(singular, roots, axis=1))
    assert np.array_equal(rooted_kernel_sums(model, SEED, whole[picked], gamma, singular),
                          kernel[picked])
    # rooted_identity_errors always starts at replica 0
    rows = np.take(model.matrix, roots, axis=1)
    lhs = strip_sums(weights, exps * np.exp(gamma * gamma * rows))
    rhs = strip_sums(weights, _exponentials(model, values + gamma * rows, gamma))
    assert np.array_equal(rooted_identity_errors(model, SEED, start + n, gamma, gamma),
                          (np.abs(lhs - rhs) / rhs)[:start + n])
    # verify_change_of_measure likewise starts at 0; the mass statistic at the
    # same gamma, so its plain sums are the total masses and its shifted sums
    # the identity's right sides
    stat = clipped_mass_statistic(model, gamma, 2.0)
    report = verify_change_of_measure(model, gamma, stat, start + n, SEED)
    total, rhs = total[:start + n], rhs[:start + n]
    weighted = np.minimum(total, 2.0) * total / model.measure.total_mass
    rooted = np.minimum(rhs, 2.0)
    assert (report.mean_weighted, report.se_weighted) == mean_se(weighted)
    assert (report.mean_rooted, report.se_rooted) == mean_se(rooted)
    assert report.se_difference == mean_se(weighted - rooted)[1]
    assert report.effective_sample_size == total.sum() ** 2 / np.sum(total ** 2)


@pytest.mark.parametrize("model_name", ["model8", "model20", "cantor5_clipped"])
def test_strip_engine_sums_match_plain_sums(request, monkeypatch, model_name):
    # every sum the strip engine returns, each a sum over the atoms of w_i
    # times a positive term, lies within 1e-13 of a plain float64 sum of
    # w_i * term_i: with positive terms each sum's relative rounding error
    # stays below about n times the unit roundoff, 1.1e-13 at n = 1024
    model = request.getfixturevalue(model_name)
    gamma, gamma_prime, n = 0.8, 0.6, BATCH + 76
    sums = []
    real = gmclab.field._strip_sums

    def recording(*args, **kwargs):
        sums.append(real(*args, **kwargs))
        return sums[-1]

    monkeypatch.setattr(gmclab.field, "_strip_sums", recording)
    weight = _singular_weight(model, 1.5)
    total_masses(model, gamma, SEED, n)
    rooted_kernel_sums(model, SEED, range(n), gamma, weight)
    rooted_identity_errors(model, SEED, n, gamma, gamma_prime)
    verify_change_of_measure(model, gamma_prime,
                             clipped_mass_statistic(model, gamma, 10.0), n, SEED)

    values = field_matrix(model, SEED, np.arange(n))
    roots = draw_roots(model, SEED, np.arange(n))
    rows = model.matrix[:, roots]
    variance = model.diag_variance[:, None]

    def plain(terms):
        return np.sum(model.measure.weights[:, None] * terms, axis=0)

    def exps(h, g):
        return np.exp(g * h - 0.5 * g * g * variance)

    shifted = values + gamma_prime * rows
    expected = [
        [plain(exps(values, gamma))],
        [plain(exps(values, gamma) * weight[:, roots])],
        [plain(exps(values, gamma) * np.exp(gamma * gamma_prime * rows)),
         plain(exps(shifted, gamma))],
        [plain(exps(values, gamma_prime)), plain(exps(values, gamma)),
         plain(exps(shifted, gamma))],
    ]
    assert len(sums) == len(expected)
    for got, want in zip(sums, expected):
        np.testing.assert_allclose(got, np.array(want), rtol=1e-13, atol=0)


@pytest.fixture(scope="module")
def wide20(model20):
    # two whole blocks of every per-replica sampler, n = 400 > field.STRIP
    gamma, beta = 0.8, 1.5
    weight = _singular_weight(model20, beta)
    return {
        "total_masses": total_masses(model20, gamma, SEED, 2 * BATCH),
        "local_energy_samples": local_energy_samples(model20, gamma, beta, SEED, 2 * BATCH),
        "rooted_kernel_sums": rooted_kernel_sums(model20, SEED, range(2 * BATCH), gamma,
                                                 weight),
    }


@pytest.mark.parametrize("k", [0, 5, BATCH - 1, BATCH, 1500])
def test_one_replica_call_matches_wide_call(model20, wide20, k):
    # a lone replica is reduced inside its whole block, so its scalar is the
    # one a wider call computes, bit for bit
    gamma, beta = 0.8, 1.5
    lone = {
        "total_masses": total_masses(model20, gamma, SEED, 1, start=k),
        "local_energy_samples": local_energy_samples(model20, gamma, beta, SEED, 1,
                                                     start=k),
        "rooted_kernel_sums": rooted_kernel_sums(model20, SEED, range(k, k + 1), gamma,
                                                 _singular_weight(model20, beta)),
    }
    for name, value in lone.items():
        assert value.shape == (1,), name
        assert value[0] == wide20[name][k], name


@pytest.mark.parametrize("start", [0, 5])
def test_empty_range_draws_nothing(model20, monkeypatch, start):
    made = []
    real = gmclab.field.replica_generator

    def counting(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(gmclab.field, "replica_generator", counting)
    weight = _singular_weight(model20, 1.5)
    results = (total_masses(model20, 0.8, SEED, 0, start=start),
               local_energy_samples(model20, 0.8, 1.5, SEED, 0, start=start),
               rooted_kernel_sums(model20, SEED, range(start, start), 0.8, weight))
    for result in results:
        assert result.shape == (0,)
    # an identity check of no replicas has no errors to grade: it is refused
    with pytest.raises(DomainError, match="sample is empty"):
        rooted_identity_errors(model20, SEED, 0, 0.8, 0.8)
    assert made == []


def test_rooted_kernel_sums_take_any_index_list(model20, wide20):
    # shuffled, duplicated and gapped, across both blocks
    idx = [1500, 3, 3, BATCH - 1, 0, BATCH, 1500, 2 * BATCH - 1, 17]
    sums = rooted_kernel_sums(model20, SEED, idx, 0.8, _singular_weight(model20, 1.5))
    assert np.array_equal(sums, wide20["rooted_kernel_sums"][idx])


def _einsum_kernel_sums(model, indices, gamma, weight):
    # one einsum over each replica's root column and masses
    masses = mass_columns(model, field_matrix(model, SEED, indices), gamma)
    return np.einsum("ik,ik->k", weight[:, draw_roots(model, SEED, indices)], masses)


def _strip_kernel_sums(model, indices, gamma, weight):
    # the terms of the stream blocks from replica 0 up to the last index,
    # reduced as the strip engine reduces them: rooted_kernel_sums must
    # match these bit for bit
    whole = np.arange((max(indices) // BATCH + 1) * BATCH)
    terms = _exponentials(model, field_matrix(model, SEED, whole), gamma)
    terms *= np.take(weight, draw_roots(model, SEED, whole), axis=1)
    return strip_sums(model.measure.weights, terms)[indices]


def _sparse_weight(model, beta):
    # dist**-beta with every third row and every fifth column zeroed
    weight = pair_distances(model.measure.positions) ** -beta
    weight[::3] = 0.0
    weight[:, 1::5] = 0.0
    return weight


@pytest.mark.parametrize("indices", [
    pytest.param(np.arange(BATCH - 150, BATCH + 150), id="block-edge"),
    pytest.param(np.array([2 * BATCH + 5, 17, 17, BATCH - 1, 0, BATCH, 901]),
                 id="scattered"),
])
@pytest.mark.parametrize("make_weight", [
    pytest.param(lambda model: pair_distances(model.measure.positions) ** -1.8,
                 id="dist"),
    pytest.param(lambda model: _sparse_weight(model, 1.8), id="zero-rows-cols"),
])
@pytest.mark.parametrize("model_name", ["cantor5_clipped", "grid16_model"])
def test_rooted_kernel_sums_match_einsum(request, model_name, make_weight, indices):
    # the sums run over the root's column of the weight, which need not be
    # symmetric here (zero-rows-cols)
    model = request.getfixturevalue(model_name)
    weight = make_weight(model)
    sums = rooted_kernel_sums(model, SEED, indices, 1.2, weight)
    assert np.array_equal(sums, _strip_kernel_sums(model, indices, 1.2, weight))
    np.testing.assert_allclose(sums, _einsum_kernel_sums(model, indices, 1.2, weight),
                               rtol=1e-13, atol=0)
    # a root whose weight column is zero has an empty sum, exactly 0
    zero_column = ~weight[:, draw_roots(model, SEED, indices)].any(axis=0)
    assert np.all(sums[zero_column] == 0.0)


def _peak_bytes(call):
    # a first call outside the trace, so one-time imports (numpy.random) and
    # caches do not count
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def model24():
    model = build_covariance(generate_uniform_grid(24, 0.8))
    assert model.factor_rank == model.n
    return model


def test_total_masses_never_holds_a_block_of_field_values(model24):
    # the normals (BATCH, n) and one strip of STRIP rows: under 1.6 blocks
    block = model24.n * BATCH * 8
    peak = _peak_bytes(lambda: total_masses(model24, 0.8, SEED, 2 * BATCH + 10))
    assert peak < 1.6 * block


def test_rooted_kernel_sums_never_holds_a_block_of_field_values(cantor5_clipped):
    # the normals (BATCH, r), one strip and its (BATCH, STRIP) gather of the
    # roots' weights: about 0.6 blocks at r = 80 of n = 1024
    model = cantor5_clipped
    block = model.n * BATCH * 8
    weight = pair_distances(model.measure.positions) ** -1.8
    peak = _peak_bytes(lambda: rooted_kernel_sums(model, SEED, range(2 * BATCH + 10),
                                                  0.8, weight))
    assert peak < block


def test_rooted_identity_errors_holds_at_most_two_blocks(model24):
    # the normals, two strips and the roots' (BATCH, STRIP) covariance rows
    block = model24.n * BATCH * 8
    peak = _peak_bytes(lambda: rooted_identity_errors(model24, SEED, 2 * BATCH + 10,
                                                      0.8, 0.8))
    assert peak < 2.5 * block


def test_rooted_samplers_never_hold_a_block_of_field_values():
    # n = 1024: the normals are one block, and the strip engine adds a strip
    # of STRIP atoms per sum plus the roots' covariance rows over its atoms,
    # where a held (n, BATCH) field and its shifted copies made 2.25 and 3
    model = build_covariance(generate_uniform_grid(32, 0.8))
    block = model.n * BATCH * 8
    stat = clipped_mass_statistic(model, 0.6, 10.0)
    peak = _peak_bytes(lambda: rooted_identity_errors(model, SEED, BATCH + 10, 0.8, 0.8))
    assert peak < 2.0 * block
    peak = _peak_bytes(lambda: verify_change_of_measure(model, 0.6, stat, BATCH + 10, SEED))
    assert peak < 2.5 * block


def test_change_of_measure_memory_flat_in_replicas(grid16_model):
    stat = clipped_mass_statistic(grid16_model, 0.6, 10.0)

    def peak(n_replicas):
        tracemalloc.start()
        try:
            verify_change_of_measure(grid16_model, 0.6, stat, n_replicas, SEED)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(16 * BATCH) <= 1.25 * peak(2 * BATCH)


def test_change_of_measure_one_replica_is_not_graded(model8):
    rep = verify_change_of_measure(model8, 0.6, atom_value_statistic(model8, 0), 1, SEED)
    assert math.isnan(rep.se_weighted) and math.isnan(rep.se_rooted)
    assert rep.overlap is False


# ------------------------------------------------------ replica count checks


@pytest.mark.parametrize("call", [
    lambda m: total_masses(m, 0.8, 1, 2.5),
    lambda m: total_masses(m, 0.8, 1, 2, start=1.5),
    lambda m: total_masses(m, 0.8, 1, np.float64(2.0)),
    lambda m: total_masses(m, 0.8, 1, "2"),
    lambda m: check_replica_count(2.0),
    lambda m: estimate_s0(m, 0.8, 1.0, 1.0, 2, SEED, start=0.5),
], ids=["fractional-count", "fractional-start", "float-count", "string-count",
        "check-float-count", "s0-fractional-start"])
def test_replica_counts_and_starts_must_be_integers(model8, call):
    # range() would raise Python's TypeError; the library refuses first
    with pytest.raises(DomainError, match="must be an integer"):
        call(model8)


def test_numpy_integer_counts_and_starts_are_accepted(model8):
    assert np.array_equal(total_masses(model8, 0.8, SEED, np.int64(3), start=np.int32(2)),
                          total_masses(model8, 0.8, SEED, 3, start=2))


@pytest.mark.parametrize("call", [
    lambda m: laplace_transform(m, 0.8, [1.0], 0, SEED),
    lambda m: small_ball_tail(m, 0.8, [0.5], 0, SEED),
    lambda m: fkg_check(m, 0.8, 1.0, 2.0, 0, SEED),
    lambda m: kahane_check(m, 0.8, 0.9, 2.0, 0, SEED),
    lambda m: verify_bound(m, 0.6, 2.0, 2.0, 1.0, 0, SEED),
    lambda m: estimate_s0(m, 0.8, 1.0, 1.0, 0, SEED),
    lambda m: rooted_identity_errors(m, SEED, 0, 0.8, 0.8),
    lambda m: verify_change_of_measure(m, 0.6, atom_value_statistic(m, 0), 0, SEED),
], ids=["laplace", "tail", "fkg", "kahane", "bound", "s0", "identity", "change-of-measure"])
def test_zero_replicas_are_an_empty_sample(model8, call):
    # not an under- or overflow, and never an empty verdict
    with pytest.raises(DomainError, match="sample is empty"):
        call(model8)


# ---------------------------------------------------------- replica ceiling


def test_replica_ceiling_counts_rows_per_replica():
    check_replica_count(MAX_REPLICA_CELLS)
    check_replica_count(MAX_REPLICA_CELLS // 25, rows=25)
    with pytest.raises(ResourceLimitError):
        check_replica_count(MAX_REPLICA_CELLS + 1)
    with pytest.raises(ResourceLimitError):
        check_replica_count(MAX_REPLICA_CELLS // 25 + 1, rows=25)
    # the largest default count (20k) over a 25-point t grid, and the
    # benchmark's 12.5k, stay two orders of magnitude below the ceiling
    assert 100 * 25 * 20000 <= MAX_REPLICA_CELLS


def test_replica_ceiling_refuses_before_allocating(single_model):
    huge = 10 ** 13     # 72.8 TiB for one vector of total masses
    stat = atom_value_statistic(single_model, 0)
    calls = [
        lambda: total_masses(single_model, 0.8, SEED, huge),
        lambda: rooted_identity_errors(single_model, SEED, huge, 0.8, 0.8),
        lambda: verify_change_of_measure(single_model, 0.6, stat, huge, SEED),
        lambda: estimate_s0(single_model, 0.8, 1.0, 1.0, huge, SEED),
        lambda: small_ball_tail(single_model, 0.8, [0.5], huge, SEED),
        lambda: verify_bound(single_model, 0.6, 1.0, 1.0, 1.0, huge, SEED),
        lambda: fkg_check(single_model, 0.8, 1.0, 2.0, huge, SEED),
        lambda: kahane_check(single_model, 0.8, 0.5, 2.0, huge, SEED),
        # 25 t values: the len(t) x N matrix is what would not fit
        lambda: laplace_transform(single_model, 0.8, np.ones(25),
                                  MAX_REPLICA_CELLS // 25 + 1, SEED),
    ]
    tracemalloc.start()
    try:
        for call in calls:
            with pytest.raises(ResourceLimitError):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
