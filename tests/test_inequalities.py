import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

import gmclab.inequalities
from gmclab import (
    AtomicMeasure,
    DomainError,
    HypothesisViolationError,
    build_covariance,
    fkg_check,
    generate_uniform_grid,
    kahane_check,
    markov_psd_suite,
)
from reference import default_epsilon

SEED = 58


# ----------------------------------------------------------------------- fkg


def test_damped_masses_past_double_range_pass_without_warning(model8):
    # t * mass overflows for some replicas at gamma 3: their damped masses
    # are exactly 0, as every other one underflows to, so both statistics are 0
    fkg = fkg_check(model8, 3.0, 1.0, 1e307, 2000, SEED)
    kahane = kahane_check(model8, 3.0, 0.85, 1e307, 2000, SEED)
    assert fkg.passed and kahane.passed
    assert kahane.statistic == kahane.details["estimate_disk"] == 0.0


def test_fkg_gamma_zero_noise_floor():
    # constant masses: the sample covariance is pure rounding noise
    model = build_covariance(generate_uniform_grid(4, 0.8))
    verdict = fkg_check(model, 0.0, 1.0, 2.0, 1024, SEED)
    assert abs(verdict.statistic) <= 1e-30
    assert verdict.passed


def test_fkg_single_atom_quadrature(single_model):
    # same mass inside both functionals: Cov = L(s+t) - L(s) L(t)
    gamma, s, t = 0.9, 0.7, 1.3
    v = single_model.diag_variance[0]
    nodes, weights = np.polynomial.hermite.hermgauss(201)
    mass = np.exp(gamma * math.sqrt(2 * v) * nodes - 0.5 * gamma ** 2 * v)

    def laplace(u):
        return float(np.sum(weights * np.exp(-u * mass)) / math.sqrt(math.pi))

    oracle = laplace(s + t) - laplace(s) * laplace(t)
    verdict = fkg_check(single_model, gamma, s, t, 40000, SEED)
    assert abs(verdict.statistic - oracle) <= -verdict.threshold + 1e-12
    assert verdict.passed


def test_fkg_grid_positive_association():
    model = build_covariance(generate_uniform_grid(12, 0.8))
    verdict = fkg_check(model, 0.8, 1.0, 2.0, 10000, SEED)
    assert verdict.passed
    assert verdict.name == "fkg"
    assert verdict.n_replicas == 10000
    assert verdict.base_seed == SEED


def test_fkg_rejects_nonpositive_st(model8):
    with pytest.raises(DomainError):
        fkg_check(model8, 0.8, 0.0, 1.0, 100, SEED)
    with pytest.raises(DomainError):
        fkg_check(model8, 0.8, 1.0, -2.0, 100, SEED)


def test_fkg_negative_entry_violates_hypothesis():
    fake = SimpleNamespace(matrix=np.array([[1.0, -0.5], [-0.5, 1.0]]))
    with pytest.raises(HypothesisViolationError):
        fkg_check(fake, 0.8, 1.0, 2.0, 100, SEED)


def test_fkg_reproducible(model8):
    a = fkg_check(model8, 0.8, 1.0, 2.0, 3000, SEED)
    b = fkg_check(model8, 0.8, 1.0, 2.0, 3000, SEED)
    assert a.statistic == b.statistic
    assert a.threshold == b.threshold


# -------------------------------------------------------------------- kahane


def test_kahane_identical_domains(cantor3_model):
    verdict = kahane_check(cantor3_model, 0.6, 1.0, 2.0, 500, SEED)
    assert verdict.statistic == 0.0
    assert verdict.details["estimate_disk"] == verdict.details["estimate_subdisk"]
    assert verdict.passed


def test_kahane_gamma_zero(cantor3_model):
    verdict = kahane_check(cantor3_model, 0.0, 0.5, 2.0, 100, SEED)
    sigma = cantor3_model.measure.total_mass
    assert verdict.statistic == 0.0
    assert verdict.details["estimate_disk"] == pytest.approx(
        math.exp(-2.0 * sigma), rel=1e-12)
    assert verdict.details["estimate_subdisk"] == pytest.approx(
        math.exp(-2.0 * sigma), rel=1e-12)


def test_kahane_cantor_ordering(cantor3_model):
    verdict = kahane_check(cantor3_model, 0.6, 0.5, 5.0, 5000, SEED)
    assert verdict.passed
    assert verdict.name == "kahane"
    # domination makes the disk mass stochastically larger in convex order
    assert verdict.details["estimate_disk"] >= verdict.details["estimate_subdisk"] \
        + verdict.threshold


def test_kahane_default_epsilon_recorded(cantor3, cantor3_model):
    # the subdisk model is built at the epsilon of the model passed in
    verdict = kahane_check(cantor3_model, 0.6, 0.5, 5.0, 200, SEED)
    assert verdict.details["epsilon"] == default_epsilon(cantor3)
    override = kahane_check(build_covariance(cantor3, 0.01), 0.6, 0.5, 5.0, 200, SEED)
    assert override.details["epsilon"] == 0.01


def test_kahane_rejects(cantor3_model):
    with pytest.raises(DomainError):
        kahane_check(cantor3_model, 0.6, 0.3, 5.0, 100, SEED)   # support 0.4 >= r_inner
    with pytest.raises(DomainError):
        kahane_check(cantor3_model, 0.6, 1.5, 5.0, 100, SEED)
    with pytest.raises(DomainError):
        kahane_check(cantor3_model, 0.6, 0.5, 0.0, 100, SEED)


def test_kahane_ordering_error_names_first_least_gap(cantor3, monkeypatch):
    # 600-atom matrices, gapped by row tiles: the least gap -2 is reached at
    # (3, 500) and three more entries, and (3, 500) comes first in row order,
    # as np.argmin over the whole gap reads it
    rng = np.random.default_rng(SEED)
    big = rng.random((600, 600))
    big = big + big.T
    small = big - 1.0
    for i, j, gap in [(3, 500, 2.0), (100, 7, 2.0), (20, 400, 1.0)]:
        small[i, j] = small[j, i] = big[i, j] + gap
    gap = big - small
    i, j = np.unravel_index(int(np.argmin(gap)), gap.shape)
    assert (i, j) == (3, 500)
    expected = (f"post-repair kernel ordering violated at entry ({i}, {j}): "
                f"{small[i, j]:.12g} > {big[i, j]:.12g}")
    model = SimpleNamespace(matrix=big, measure=cantor3, epsilon=0.05)
    monkeypatch.setattr(gmclab.inequalities, "build_covariance",
                        lambda measure, epsilon, green: SimpleNamespace(matrix=small))
    with pytest.raises(HypothesisViolationError, match=re.escape(expected) + "$"):
        kahane_check(model, 0.6, 0.5, 5.0, 100, SEED)


def test_kahane_reproducible(cantor3_model):
    a = kahane_check(cantor3_model, 0.6, 0.5, 5.0, 2000, SEED)
    b = kahane_check(cantor3_model, 0.6, 0.5, 5.0, 2000, SEED)
    assert a.statistic == b.statistic


# ---------------------------------------------------------------- markov psd


def test_markov_full_disk_trivial(two_atom):
    verdicts = markov_psd_suite(two_atom, [1.0])
    assert len(verdicts) == 1
    assert verdicts[0].name == "markov_psd(r=1)"
    assert verdicts[0].statistic == 0.0
    assert verdicts[0].passed


def test_markov_single_atom_origin():
    m = AtomicMeasure(np.array([0j]), np.array([1.0]))
    verdicts = markov_psd_suite(m, [0.5])
    # 1x1 difference kernel: log(1) - log(r^2) + log(r) = log(1/r)
    assert verdicts[0].statistic == pytest.approx(math.log(2.0), rel=1e-14)
    assert verdicts[0].passed


def test_markov_grid_suite():
    measure = generate_uniform_grid(8, 0.4)
    verdicts = markov_psd_suite(measure, [0.5, 0.7, 0.9])
    assert [v.name for v in verdicts] == [
        "markov_psd(r=0.5)", "markov_psd(r=0.7)", "markov_psd(r=0.9)"]
    assert all(v.passed for v in verdicts)
    for v in verdicts:
        assert v.statistic >= v.threshold
        assert v.details["max_eig"] >= v.statistic


def test_markov_rejects_support_outside():
    measure = generate_uniform_grid(8, 0.8)
    with pytest.raises(DomainError):
        markov_psd_suite(measure, [0.5])
    with pytest.raises(DomainError):
        markov_psd_suite(generate_uniform_grid(4, 0.4), [1.5])
