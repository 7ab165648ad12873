"""Acceptance suite: one test per advertised guarantee, each at its stated
tolerance and replica budget, printing a single PASS/FAIL line."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from gmclab import (
    AtomicMeasure,
    atom_value_statistic,
    build_covariance,
    exponents,
    fit_loglog_slope,
    generate_cantor_dust,
    generate_uniform_grid,
    kahane_check,
    fkg_check,
    markov_psd_suite,
    rooted_identity_errors,
    save_measure,
    small_ball_tail,
    split_half_plane,
    t0_from_ratio,
    total_masses,
    verify_bound,
    verify_change_of_measure,
)

SEED = 20260814


def _grade(label, ok):
    print(f"\nACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def _cli(*argv):
    return subprocess.run([sys.executable, "-m", "gmclab", *map(str, argv)],
                          capture_output=True, text=True)


def test_criterion_01_exponent_arithmetic():
    rep = exponents(1.0, 2.0, 2.0, 1.0)
    ok = abs(rep.eta - 1.0 / 3.0) <= 1e-15
    ok = ok and t0_from_ratio(1.0, 1.0, 2.0) == 524288.0
    proc = _cli("exponents", "--gamma", 1.0, "--d", 2.0, "--l2",
                "--energy-ratio", 1.0, "--no-timestamp")
    out = json.loads(proc.stdout)
    ok = ok and proc.returncode == 0
    ok = ok and abs(out["exponents"]["eta"] - 1.0 / 3.0) <= 1e-15
    ok = ok and out["exponents"]["l2_t0"] == 524288.0
    _grade("01 exponent-arithmetic", ok)


def test_criterion_02_mean_mass_identity():
    model = build_covariance(generate_uniform_grid(16, 0.8))
    ok = True
    for gamma in (0.3, 0.8, 1.2):
        totals = total_masses(model, gamma, SEED, 20000)
        se = totals.std(ddof=1) / math.sqrt(totals.size)
        ok = ok and abs(totals.mean() - 1.0) <= 3.0 * se
    _grade("02 mean-mass-identity", ok)


def test_criterion_03_rooted_identity():
    model = build_covariance(generate_uniform_grid(8, 0.8))
    errors = rooted_identity_errors(model, SEED, 1000, 0.8, 0.8)
    _grade("03 rooted-identity", float(errors.max()) <= 1e-10)


def test_criterion_04_change_of_measure_law():
    model = build_covariance(AtomicMeasure(np.array([0.3 + 0j]), np.array([1.0])))
    gamma_prime = 0.7
    target = gamma_prime * model.diag_variance[0]
    rep = verify_change_of_measure(model, gamma_prime, atom_value_statistic(model, 0),
                                   100000, SEED)
    ok = abs(rep.mean_rooted - target) <= 3.0 * rep.se_rooted
    ok = ok and abs(rep.mean_weighted - target) <= 3.0 * rep.se_weighted
    ok = ok and rep.overlap
    _grade("04 change-of-measure-law", ok)


def test_criterion_05_negative_moment_bound():
    model = build_covariance(generate_uniform_grid(12, 0.8))
    rep = verify_bound(model, 0.8, 2.0, 2.0, 1.0, 50000, SEED)
    ok = bool(rep.points_pass.all())
    ok = ok and rep.event_frequency >= 0.5 - 3.0 * rep.event_se
    ok = ok and rep.verdict
    # underflow must be flagged, never silently graded as decay
    ok = ok and rep.trivial_pass == bool(np.all(rep.laplace.estimates == 0.0))
    ok = ok and rep.trivial_pass
    _grade("05 negative-moment-bound", ok)


def test_criterion_06_small_ball_property():
    model = build_covariance(AtomicMeasure(np.array([0.3 + 0j]), np.array([1.0])))
    gamma = 1.0
    v = model.diag_variance[0]
    eps = np.array([0.1, 0.3, 0.5])
    rep = small_ball_tail(model, gamma, eps, 100000, SEED)
    ok = True
    for e, freq, se in zip(eps, rep.frequencies, rep.standard_errors):
        z = (math.log(e) + 0.5 * gamma ** 2 * v) / (gamma * math.sqrt(v))
        target = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
        ok = ok and abs(freq - target) <= 3.0 * se
    _grade("06 small-ball-property", ok)


def test_criterion_07_kahane_direction():
    dust_model = build_covariance(generate_cantor_dust(3, 0.4))
    ok = True
    for t in (1.0, 5.0, 25.0):
        verdict = kahane_check(dust_model, 0.6, 0.5, t, 20000, SEED)
        ok = ok and verdict.passed
    _grade("07 kahane-direction", ok)


def test_criterion_08_fkg_sign():
    model = build_covariance(generate_uniform_grid(12, 0.8))
    verdict = fkg_check(model, 0.8, 1.0, 2.0, 50000, SEED)
    _grade("08 fkg-sign", verdict.passed and verdict.statistic >= verdict.threshold)


def test_criterion_09_markov_psd():
    measure = generate_uniform_grid(8, 0.4)
    verdicts = markov_psd_suite(measure, [0.5, 0.7, 0.9])
    _grade("09 markov-psd", all(v.passed for v in verdicts))


def test_criterion_10_splitter():
    rng = np.random.default_rng(SEED)
    ok = True
    for _ in range(50):
        n = int(rng.integers(13, 41))
        positions = 0.9 * np.sqrt(rng.uniform(0, 1, n)) * np.exp(
            2j * math.pi * rng.uniform(0, 1, n))
        weights = rng.uniform(0.5, 1.5, n)
        m = AtomicMeasure(positions, weights)
        assert weights.max() <= m.total_mass / 4.0   # precondition by design
        res = split_half_plane(m)
        ok = ok and res.margin > 0
        # exact recount against the returned cut
        proj = np.imag(m.positions * np.exp(1j * res.angle))
        upper = m.weights[proj >= res.offset + res.margin].sum()
        lower = m.weights[proj <= res.offset - res.margin].sum()
        ok = ok and upper == res.upper_mass and lower == res.lower_mass
        ok = ok and 4.0 * upper > m.total_mass and 4.0 * lower > m.total_mass
    _grade("10 splitter", ok)


def test_criterion_11_rerun_reproducibility(tmp_path):
    grid = tmp_path / "grid.csv"
    dust = tmp_path / "dust.csv"
    single = tmp_path / "single.csv"
    save_measure(generate_uniform_grid(8, 0.4), grid)
    save_measure(generate_cantor_dust(3, 0.4), dust)
    save_measure(AtomicMeasure(np.array([0.3 + 0j]), np.array([1.0])), single)
    runs = [
        ("laplace", "--measure", grid, "--gamma", 0.8, "--t", "1.0,5.0",
         "--replicas", 400),
        ("verify-bound", "--measure", grid, "--gamma", 0.8, "--d", 2.0,
         "--l2", "--replicas", 200),
        ("verify-identity", "--measure", grid, "--gamma", 0.8,
         "--gamma-prime", 0.8, "--replicas", 100),
        ("verify-change-of-measure", "--measure", single,
         "--gamma-prime", 0.7, "--statistic", "atom-value", "--replicas", 400),
        ("verify-ineq", "--which", "fkg", "--measure", grid, "--gamma", 0.8,
         "--replicas", 400),
        ("verify-ineq", "--which", "kahane", "--measure", dust, "--gamma", 0.6,
         "--r-inner", 0.5, "--replicas", 400),
        ("tail", "--measure", grid, "--gamma", 0.8, "--eps", "0.2,0.6",
         "--replicas", 400),
    ]
    ok = True
    for argv in runs:
        base = (*argv, "--seed", SEED, "--no-timestamp")
        first = _cli(*base)
        rerun = _cli(*base)
        ok = ok and first.stdout == rerun.stdout and first.stdout != ""
        ok = ok and first.returncode == rerun.returncode
    _grade("11 rerun-reproducibility", ok)


def test_note_asymptotic_slope():
    # qualitative stand-in for the all-orders claim: beyond t0 the fitted
    # log-log slope of the Laplace estimate is at least eta
    m = AtomicMeasure(np.array([0.5, -0.5]), np.full(2, 0.04))
    model = build_covariance(m)
    rep = verify_bound(model, 0.6, 1.0, 1.0, 1.0, 20000, SEED)
    ok = rep.verdict and not rep.trivial_pass
    ok = ok and bool(np.all(rep.laplace.estimates > 0.0))
    slope = fit_loglog_slope(rep.laplace.t_values, rep.laplace.estimates)
    ok = ok and slope >= rep.exponent.eta
    _grade("note asymptotic-slope", ok)
