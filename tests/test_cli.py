import argparse
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gmclab.cli
import gmclab.field
import gmclab.inequalities
import gmclab.kernel
from gmclab import (AtomicMeasure, DiskKernel, build_covariance, d_energy,
                    generate_cantor_dust, generate_uniform_grid, load_measure,
                    save_measure, verify_bound)

SEED = 7


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "gmclab", *map(str, argv)],
                          capture_output=True, text=True)


def report(proc):
    assert proc.stdout, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {"root": root, "single": root / "single.csv", "quad": root / "quad.csv",
             "heavy": root / "heavy.csv"}
    for key, argv in {"grid": ("grid", "--n", 16, "--radius", 0.8),
                      "small": ("grid", "--n", 8, "--radius", 0.4),
                      "cantor": ("cantor", "--level", 3, "--radius", 0.4),
                      "grid4": ("grid", "--n", 4, "--radius", 0.8),
                      "grid8": ("grid", "--n", 8, "--radius", 0.8),
                      "grid20": ("grid", "--n", 20, "--radius", 0.8),
                      "grid30": ("grid", "--n", 30, "--radius", 0.8),
                      "grid32": ("grid", "--n", 32, "--radius", 0.8),
                      "cantor5": ("cantor", "--level", 5, "--radius", 0.4)}.items():
        paths[key] = root / f"{key}.csv"
        proc = run_cli("generate", *argv, "--out", paths[key], "--no-timestamp")
        assert proc.returncode == 0, proc.stderr
    save_measure(AtomicMeasure(np.array([0.3 + 0j]), np.array([1.0])),
                 paths["single"])
    save_measure(AtomicMeasure(np.array([0.5, -0.5, 0.5j, -0.5j]),
                               np.full(4, 0.25)), paths["quad"])
    save_measure(AtomicMeasure(np.array([0.5j, -0.5j]), np.full(2, 0.5)),
                 paths["heavy"])
    return paths


# ------------------------------------------------------------------ generate


def test_generate_grid(files):
    lines = files["grid"].read_text().splitlines()
    assert lines[0] == "x,y,weight"
    assert len(lines) == 257
    atoms = load_measure(files["grid"])
    assert np.all(atoms.weights == 1.0 / 256.0)


def test_generate_grid_over_side_limit_exits_2(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert gmclab.cli.main(["generate", "grid", "--n", "257", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n_per_side must be <= 256\n"
    assert not out.exists()


def test_generate_cantor(files):
    assert len(files["cantor"].read_text().splitlines()) == 65


def test_generate_julia_notations(files):
    out_i = files["root"] / "julia_i.csv"
    out_j = files["root"] / "julia_j.csv"
    proc = run_cli("generate", "julia", "--c=-1+0i", "--pixels", 128,
                   "--out", out_i, "--no-timestamp")
    assert proc.returncode == 0, proc.stderr
    assert report(proc)["atoms"] > 0
    proc = run_cli("generate", "julia", "--c=-1+0j", "--pixels", 128,
                   "--out", out_j, "--no-timestamp")
    assert proc.returncode == 0
    # the electrical-engineering i spelling parses to the same constant
    assert out_i.read_text() == out_j.read_text()


def test_generate_config_echo(files):
    out = files["root"] / "echo.csv"
    proc = run_cli("generate", "grid", "--n", 4, "--radius", 0.5,
                   "--out", out, "--no-timestamp")
    rep = report(proc)
    assert rep["command"] == "generate"
    assert rep["config"]["n"] == 4
    assert rep["config"]["radius"] == 0.5
    assert rep["atoms"] == 16
    assert "timestamp" not in rep


def test_generate_ignores_kind_and_out_config_keys(tmp_path, capsys):
    # kind and --out are command-line only; a config file naming them is
    # ignored like any key the subcommand does not take
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"kind": "cantor", "out": 5}))
    out = tmp_path / "grid.csv"
    assert gmclab.cli.main(["generate", "grid", "--n", "4", "--out", str(out),
                            "--config", str(config), "--no-timestamp"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["config"]["kind"] == "grid"
    assert rep["config"]["out"] == str(out)
    assert load_measure(out).n == 16


# ----------------------------------------------------------- energy/exponents


def test_energy_matches_library(files):
    proc = run_cli("energy", "--measure", files["grid"], "--d", 1.0,
                   "--no-timestamp")
    assert proc.returncode == 0
    rep = report(proc)
    assert rep["energy"] == d_energy(load_measure(files["grid"]), 1.0)
    assert rep["total_mass"] == 1.0


def test_exponents_l2_reference():
    proc = run_cli("exponents", "--gamma", 1.0, "--d", 2.0, "--l2",
                   "--no-timestamp")
    assert proc.returncode == 0
    rep = report(proc)
    assert rep["exponents"]["eta"] == 1.0 / 3.0
    assert rep["exponents"]["l2_t0"] is None
    assert rep["config"]["beta"] == 2.0


def test_exponents_energy_ratio_threshold():
    proc = run_cli("exponents", "--gamma", 1.0, "--d", 2.0, "--l2",
                   "--energy-ratio", 1.0, "--no-timestamp")
    assert proc.returncode == 0
    rep = report(proc)
    assert rep["exponents"]["l2_t0"] == 524288.0


def test_exponents_ratio_from_measure(files):
    proc = run_cli("exponents", "--gamma", 0.5, "--d", 0.9, "--l2",
                   "--measure", files["cantor"], "--no-timestamp")
    rep = report(proc)
    atoms = load_measure(files["cantor"])
    assert rep["energy_ratio"] == pytest.approx(
        d_energy(atoms, 0.9) / atoms.total_mass, rel=1e-15)
    assert rep["exponents"]["l2_t0"] > 0


def test_exponents_overflowing_threshold_exits_2():
    # 2^4 * (2^5 * 1e300)^3 is past double range: a refusal, not a traceback
    proc = run_cli("exponents", "--gamma", 1.0, "--d", 2.0, "--l2",
                   "--energy-ratio", 1e300, "--no-timestamp")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: threshold t0")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("measure, argv, message", [
    ("grid8", ("energy", "--d", 400), "error: the d-energy at d = 400 overflows"),
    ("grid8", ("verify-bound", "--gamma", 1.4038224347294477, "--d", 2, "--l2",
               "--replicas", 100, "--seed", 1), "error: the t grid's top point 10^2 * t0"),
    ("grid4", ("verify-bound", "--epsilon", 1e-300, "--gamma", 1.2, "--d", 2,
               "--beta", 1.8, "--delta", 1, "--replicas", 500, "--seed", 2),
     "error: threshold t0 = 2^4 * s0^(1/eta) underflows to 0"),
], ids=["energy", "verify_bound_t_grid", "verify_bound_t0_underflow"])
def test_past_double_range_exits_2(files, measure, argv, message):
    # each once warned or passed vacuously and exited 0 with a null in its
    # report (for the t grid, bounds of 0.0; for t0, every t 0 and every
    # bound null)
    proc = run_cli(*argv, "--measure", files[measure], "--no-timestamp")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(message)
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("laplace", "--t", "1,5"),
    ("verify-ineq", "--which", "fkg"),
], ids=["laplace", "fkg"])
def test_clip_keeping_no_eigenvalue_exits_2(tmp_path, argv):
    # one atom at 0.9 has variance log(1/0.99) + log(0.19) < 0 at epsilon
    # 0.99: rank 0, a field that is 0 everywhere, once reported with exit 0
    measure = tmp_path / "edge.csv"
    save_measure(AtomicMeasure(np.array([0.9 + 0j]), np.array([1.0])), measure)
    proc = run_cli(*argv, "--measure", measure, "--epsilon", 0.99, "--gamma", 0.8,
                   "--replicas", 200, "--seed", 1, "--no-timestamp")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: at epsilon = 0.99, the clip keeps no eigenvalue")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("laplace", "--gamma", 3, "--t", 1e307, "--replicas", 500),
    ("verify-ineq", "--which", "kahane", "--gamma", 3, "--t", 1e307,
     "--r-inner", 0.85, "--replicas", 2000),
], ids=["laplace", "kahane"])
def test_damped_masses_past_double_range_exit_by_verdict(files, argv):
    # t * mass overflows for some replicas; exp(-inf) is exactly 0
    proc = run_cli(*argv, "--measure", files["grid8"], "--seed", 1, "--no-timestamp")
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("argv, message", [
    (("--gamma", "1.45", "--d", "2", "--beta", "2.2", "--delta", "1",
      "--energy-ratio", "5"), "needs gamma^2 < d (gamma=1.45, d=2)"),
    (("--gamma", "1.45", "--d", "2", "--beta", "2.2", "--delta", "1",
      "--measure", "MISSING"), "needs gamma^2 < d (gamma=1.45, d=2)"),
    (("--gamma", "1", "--d", "2", "--l2", "--energy-ratio", "1",
      "--measure", "MISSING"), "energy_ratio and measure each set"),
], ids=["ratio_unused", "measure_unused", "ratio_and_measure"])
def test_exponents_unused_threshold_input_exits_2(tmp_path, capsys, argv, message):
    # let through, the first reports "l2_t0": null, the second never opens
    # the missing file, and the third uses the ratio and ignores the file
    argv = [str(tmp_path / "nonexistent.csv") if a == "MISSING" else a for a in argv]
    assert gmclab.cli.main(["exponents", *argv, "--no-timestamp"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1


# ------------------------------------------------------------------- laplace


def test_laplace_gamma_zero(files):
    proc = run_cli("laplace", "--measure", files["grid"], "--gamma", 0.0,
                   "--t", 1.0, "--replicas", 50, "--seed", SEED,
                   "--no-timestamp")
    assert proc.returncode == 0
    rep = report(proc)
    assert rep["laplace"]["estimates"][0] == pytest.approx(
        math.exp(-1.0), rel=1e-12)
    assert rep["config"]["seed"] == SEED


def test_laplace_csv(files):
    csv_path = files["root"] / "laplace.csv"
    run_cli("laplace", "--measure", files["grid"], "--gamma", 0.0,
            "--t", "1.0,2.0", "--replicas", 20, "--seed", SEED,
            "--csv", csv_path, "--no-timestamp")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,estimate,stderr,bound"
    assert len(lines) == 3
    # no exponent in play, so the bound column stays empty
    assert all(line.endswith(",") for line in lines[1:])


def test_seed_recorded_when_omitted(files):
    proc = run_cli("laplace", "--measure", files["grid"], "--gamma", 0.0,
                   "--t", 1.0, "--replicas", 10, "--no-timestamp")
    rep = report(proc)
    assert isinstance(rep["config"]["seed"], int)
    assert rep["config"]["seed"] >= 0


def test_timestamp_present_by_default(files):
    proc = run_cli("laplace", "--measure", files["grid"], "--gamma", 0.0,
                   "--t", 1.0, "--replicas", 10, "--seed", SEED)
    assert "timestamp" in report(proc)


def test_config_file_priority(files):
    cfg = files["root"] / "cfg.json"
    cfg.write_text(json.dumps({"gamma": 0.8, "replicas": 64}))
    proc = run_cli("laplace", "--measure", files["grid"], "--config", cfg,
                   "--gamma", 0.3, "--t", 1.0, "--seed", SEED,
                   "--no-timestamp")
    rep = report(proc)
    # flags beat the config file; the file beats built-in defaults
    assert rep["config"]["gamma"] == 0.3
    assert rep["config"]["replicas"] == 64


# -------------------------------------------------------------- verify-bound


def test_verify_bound_trivial_warning(files):
    csv_path = files["root"] / "bound.csv"
    proc = run_cli("verify-bound", "--measure", files["grid"], "--gamma", 0.8,
                   "--d", 2.0, "--l2", "--replicas", 200, "--seed", SEED,
                   "--csv", csv_path, "--no-timestamp")
    assert proc.returncode == 0
    rep = report(proc)
    assert rep["bound"]["verdict"] is True
    assert "warning" in rep
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 26
    assert not lines[1].endswith(",")


def test_verify_bound_exit_mirrors_verdict(files):
    # general (non square-integrable) branch with an empirical threshold;
    # whatever the verdict, the exit code must agree with it
    proc = run_cli("verify-bound", "--measure", files["small"], "--gamma", 0.7,
                   "--d", 1.0, "--beta", 0.9, "--delta", 1.0,
                   "--replicas", 64, "--seed", 3, "--no-timestamp")
    assert proc.returncode in (0, 1)
    rep = report(proc)
    assert (proc.returncode == 0) == rep["bound"]["verdict"]


def test_verify_bound_overflowing_reference_is_null(files):
    # general branch at gamma^2 = 1.96 < d = 2: the ungraded square-integrable
    # reference (d + gamma^2)/(d - gamma^2) = 99 overflows, the graded t0 does not
    proc = run_cli("verify-bound", "--measure", files["cantor"], "--gamma", 1.4,
                   "--d", 2.0, "--beta", 2.5, "--delta", 1.0,
                   "--replicas", 200, "--seed", SEED, "--no-timestamp")
    assert proc.returncode in (0, 1), proc.stderr
    rep = report(proc)
    assert (proc.returncode == 0) == rep["bound"]["verdict"]
    assert rep["bound"]["exponent"]["l2_t0"] is None
    assert rep["bound"]["exponent"]["t0"] > 0


@pytest.mark.parametrize("beta, graded", [("0.361", True), ("0.3601", False)],
                         ids=["0.361", "0.3601"])
def test_verify_bound_overflowing_event_radius_exits_by_verdict(tmp_path, beta, graded):
    # the benchmark's light measure at beta just above gamma^2: L = 2000 (and
    # 20000) sends s0^-L past double range, which the capped radius absorbs.
    # At 0.3601, 1/eta = 7201 also sends t0 = 2^4 * s0^(1/eta) below double
    # range (s0 = 0.59): every t was 0 and every bound null, a pass with exit
    # 0, and the t grid is now refused before the Laplace stage
    path = tmp_path / "light.csv"
    save_measure(AtomicMeasure(np.array([0.5, -0.5]), np.full(2, 0.04)), path)
    proc = run_cli("verify-bound", "--measure", path, "--gamma", 0.6, "--d", 1,
                   "--beta", beta, "--delta", 1, "--replicas", 2000, "--seed", 1,
                   "--no-timestamp")
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) <= 1
    if not graded:
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: threshold t0 = 2^4 * s0^(1/eta) underflows to 0")
        return
    assert proc.returncode in (0, 1)
    rep = report(proc)
    assert (proc.returncode == 0) == rep["bound"]["verdict"]
    assert rep["bound"]["exponent"]["beta"] == float(beta)


def test_verify_bound_branch_follows_exponents(tmp_path):
    # beta = d = 2, delta = 1, gamma^2 < d is the square-integrable branch
    # whether or not --l2 spells it, and the library grades the same one
    path = tmp_path / "grid8.csv"
    save_measure(generate_uniform_grid(8, 0.8), path)
    argv = ("verify-bound", "--measure", path, "--gamma", 0.5, "--d", 2.0,
            "--replicas", 500, "--seed", 3, "--no-timestamp")
    spelled = report(run_cli(*argv, "--beta", 2.0, "--delta", 1.0))
    shorthand = report(run_cli(*argv, "--l2"))
    assert spelled["bound"] == shorthand["bound"]
    rep = verify_bound(build_covariance(load_measure(path)), 0.5, 2.0, 2.0, 1.0, 500, 3)
    assert spelled["bound"]["exponent"]["s0"] == rep.exponent.s0
    assert spelled["bound"]["exponent"]["t0"] == rep.exponent.t0 == rep.exponent.l2_t0


# ----------------------------------------------------------- verify-identity


def test_verify_identity_pass(files):
    proc = run_cli("verify-identity", "--measure", files["grid"],
                   "--gamma", 0.8, "--gamma-prime", 0.8, "--replicas", 50,
                   "--seed", SEED, "--no-timestamp")
    assert proc.returncode == 0
    rep = report(proc)
    assert rep["max_rel_err"] <= 1e-10
    assert rep["pass"] is True


def test_verify_identity_impossible_tolerance(files, capsys, monkeypatch):
    # the pass rule is max_rel_err <= cli.IDENTITY_TOLERANCE; no run can move
    # it, so the exit-1 path is reached by patching the module's constant
    monkeypatch.setattr(gmclab.cli, "IDENTITY_TOLERANCE", 1e-30)
    code, out, err = run_in_process(
        ["verify-identity", "--measure", str(files["grid"]), "--gamma", "0.8",
         "--gamma-prime", "0.8", "--replicas", "50", "--seed", str(SEED),
         "--no-timestamp"], capsys)
    assert (code, err) == (1, "")
    rep = json.loads(out)
    assert rep["pass"] is False
    assert rep["max_rel_err"] > 1e-30


def test_verify_identity_tolerance_is_not_a_parameter(files, tmp_path, capsys):
    # --tolerance is an unknown flag; a config file's tolerance is ignored,
    # like any key a subcommand does not take, and never echoed
    argv = ["verify-identity", "--measure", str(files["small"]), "--gamma", "0.8",
            "--gamma-prime", "0.8", "--replicas", "16", "--seed", str(SEED),
            "--no-timestamp"]
    code, out, err = run_in_process([*argv, "--tolerance", "1e-30"], capsys)
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --tolerance 1e-30" in err
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tolerance": 1e-30}))
    plain = run_in_process(argv, capsys)
    assert plain[0] == 0
    assert "tolerance" not in json.loads(plain[1])["config"]
    assert run_in_process([*argv, "--config", str(path)], capsys) == plain


# -------------------------------------------------------- change of measure


def test_verify_change_of_measure_atom_value(files):
    proc = run_cli("verify-change-of-measure", "--measure", files["single"],
                   "--gamma-prime", 0.7, "--statistic", "atom-value",
                   "--replicas", 2000, "--seed", 5, "--no-timestamp")
    assert proc.returncode == 0
    rep = report(proc)
    assert rep["change_of_measure"]["overlap"] is True


def test_verify_change_of_measure_mass_default(files):
    proc = run_cli("verify-change-of-measure", "--measure", files["grid"],
                   "--gamma-prime", 0.6, "--replicas", 500, "--seed", 11,
                   "--no-timestamp")
    assert proc.returncode == 0
    rep = report(proc)
    assert rep["config"]["statistic"] == "mass"
    assert rep["config"]["gamma"] == 0.6
    assert rep["config"]["cap"] == 10.0


@pytest.mark.parametrize("argv, message", [
    (("verify-identity", "--gamma", "40", "--gamma-prime", "0.8"),
     "gamma=40, gamma_prime=0.8 under- or overflow in 50 of 50 replicas"),
    (("verify-change-of-measure", "--gamma-prime", "30"),
     "the gamma_prime=30 mass sums m of 50 replicas under- or overflow"),
    (("verify-ineq", "--which", "fkg", "--gamma", "60"),
     "the total masses at gamma=60 under- or overflow: all 50 replicas"),
    (("verify-ineq", "--which", "kahane", "--gamma", "60", "--r-inner", "0.9"),
     "the total masses at gamma=60 under- or overflow: all 50 replicas"),
    (("laplace", "--gamma", "60", "--t", "1,5"),
     "the total masses at gamma=60 under- or overflow: all 50 replicas"),
    (("tail", "--gamma", "60", "--eps", "0.1"),
     "the total masses at gamma=60 under- or overflow: all 50 replicas"),
], ids=["identity", "change-of-measure", "fkg", "kahane", "laplace", "tail"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_underflowing_rooted_sums_exit_2(files, capsys, argv, message):
    # on the 8x8 grid of radius 0.8 every identity right side underflows to 0
    # at gamma 40, and the squares of the gamma' 30 mass sums do too: a null
    # max_rel_err or effective_sample_size with exit 1 when let through; at
    # gamma 60 every total mass does, which fkg and kahane would grade as a
    # pass on a statistic and threshold of 0, laplace as estimates of 1 and
    # tail as a frequency of 1, each with a standard error of 0. Each exits
    # 2 with its one error line and no numpy warning before it
    assert gmclab.cli.main([*argv, "--measure", str(files["grid8"]), "--replicas", "50",
                            "--seed", "1", "--no-timestamp"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1


# --------------------------------------------------------------- verify-ineq


def test_verify_ineq_markov(files):
    proc = run_cli("verify-ineq", "--which", "markov", "--measure",
                   files["small"], "--radii", "0.5,0.7,0.9", "--no-timestamp")
    assert proc.returncode == 0
    rep = report(proc)
    verdicts = rep["verdicts"]
    assert len(verdicts) == 3
    assert all(v["pass"] for v in verdicts)
    assert verdicts[0]["name"] == "markov_psd(r=0.5)"
    # it samples nothing, so the kernel arithmetic's version names its numbers
    assert rep["kernel_version"] == gmclab.kernel.KERNEL_VERSION == 1


def test_verify_ineq_fkg(files):
    proc = run_cli("verify-ineq", "--which", "fkg", "--measure", files["small"],
                   "--gamma", 0.8, "--s", 1.0, "--t", 2.0, "--replicas", 2000,
                   "--seed", SEED, "--no-timestamp")
    assert proc.returncode == 0
    assert report(proc)["verdicts"][0]["pass"] is True


def test_verify_ineq_fkg_gamma_zero(files):
    # at gamma 0 every mass is the base measure's total: a constant sample,
    # which the rule that refuses all-underflowed masses must still grade
    proc = run_cli("verify-ineq", "--which", "fkg", "--measure", files["small"],
                   "--gamma", 0.0, "--replicas", 200, "--seed", SEED, "--no-timestamp")
    assert proc.returncode == 0
    assert report(proc)["verdicts"][0]["name"] == "fkg"


def test_verify_ineq_kahane(files):
    proc = run_cli("verify-ineq", "--which", "kahane", "--measure",
                   files["cantor"], "--gamma", 0.6, "--r-inner", 0.5,
                   "--t", 5.0, "--replicas", 2000, "--seed", SEED,
                   "--no-timestamp")
    assert proc.returncode == 0
    rep = report(proc)
    assert rep["verdicts"][0]["pass"] is True
    # the regularization scale actually used is echoed back
    assert rep["config"]["epsilon"] > 0


def test_kahane_default_epsilon_builds_one_model_path(files, capsys, monkeypatch):
    # the disk model comes from the same build as every sampled command's, so
    # the default epsilon is found in its fill: no separate distance pass,
    # one build per kernel, and the epsilon laplace echoes on the measure
    def no_distance_pass(self):
        raise AssertionError("min_pair_distance called")
    monkeypatch.setattr(AtomicMeasure, "min_pair_distance", no_distance_pass)
    builds = []

    def counted(*args, **kwargs):
        builds.append(args)
        return build_covariance(*args, **kwargs)
    monkeypatch.setattr(gmclab.cli, "build_covariance", counted)
    monkeypatch.setattr(gmclab.inequalities, "build_covariance", counted)
    common = ["--measure", str(files["cantor"]), "--replicas", "200", "--seed", str(SEED),
              "--no-timestamp"]
    assert gmclab.cli.main(["verify-ineq", "--which", "kahane", "--r-inner", "0.5",
                            *common]) == 0
    kahane = json.loads(capsys.readouterr().out)
    assert len(builds) == 2
    assert gmclab.cli.main(["laplace", "--gamma", "0.6", "--t", "5.0", *common]) == 0
    laplace = json.loads(capsys.readouterr().out)
    assert kahane["config"]["epsilon"] == laplace["config"]["epsilon"]
    assert kahane["verdicts"][0]["details"]["epsilon"] == kahane["config"]["epsilon"]


# ---------------------------------------------------------------- split/tail


def test_split_feasible(files):
    proc = run_cli("split", "--measure", files["quad"], "--no-timestamp")
    assert proc.returncode == 0
    rep = report(proc)
    assert rep["split"]["margin"] > 0
    assert rep["split"]["lower_mass"] >= rep["total_mass"] / 4
    assert rep["split"]["upper_mass"] >= rep["total_mass"] / 4


def test_split_infeasible(files):
    proc = run_cli("split", "--measure", files["heavy"], "--no-timestamp")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_tail_gamma_zero(files):
    proc = run_cli("tail", "--measure", files["grid"], "--gamma", 0.0,
                   "--eps", 0.5, "--replicas", 20, "--seed", SEED,
                   "--no-timestamp")
    assert proc.returncode == 0
    rep = report(proc)
    assert rep["tail"]["frequencies"] == [0.0]


# ------------------------------------------------------- stream block edge


# 1500 replicas cross a stream block edge (BATCH = 1024), where the strip
# engine restarts its per-replica sums, one row per sum for the rooted ones
# (two for the identity, three for the change of measure). The grids' factors
# span the blocked Cholesky's layouts: 400 atoms are three block columns of
# kernel.CHOL_BLOCK = 128 atoms and a fourth of 16, 1024 atoms are 8 block
# columns over 4 strips, and 900 atoms end in a partial strip of 132 rows
# (STRIP = 256). The level-5 dust at epsilon 0.05 fails Cholesky, so the
# clipped build's range finder runs; at the default epsilon kahane's disk
# model finds epsilon in its fill and the subdisk model is built at it. On
# both verify-bound measures the event ball holds no second atom, so that
# stage draws no field block.
BLOCK_EDGE_ARGV = {
    "laplace_grid8": ("laplace", "grid8", "--gamma", "0.8", "--t", "1,5"),
    "identity_grid8": ("verify-identity", "grid8", "--gamma", "0.8",
                       "--gamma-prime", "0.8"),
    "com_grid8": ("verify-change-of-measure", "grid8", "--gamma-prime", "0.6"),
    "com_atom_value_grid8": ("verify-change-of-measure", "grid8", "--gamma-prime", "0.6",
                             "--statistic", "atom-value", "--atom-index", "5"),
    "laplace_grid20": ("laplace", "grid20", "--gamma", "0.8", "--t", "1,5"),
    "identity_grid20": ("verify-identity", "grid20", "--gamma", "0.8",
                        "--gamma-prime", "0.8"),
    "identity_grid32": ("verify-identity", "grid32", "--gamma", "0.8",
                        "--gamma-prime", "0.8"),
    "laplace_grid30": ("laplace", "grid30", "--gamma", "0.8", "--t", "1,5"),
    "identity_grid30": ("verify-identity", "grid30", "--gamma", "0.8",
                        "--gamma-prime", "0.8"),
    "kahane_clipped_cantor5": ("verify-ineq", "cantor5", "--which", "kahane",
                               "--epsilon", "0.05"),
    "kahane_cantor5": ("verify-ineq", "cantor5", "--which", "kahane"),
    "bound_clipped_cantor5": ("verify-bound", "cantor5", "--epsilon", "0.05",
                              "--gamma", "1.2", "--d", "2", "--beta", "1.8",
                              "--delta", "1"),
    "bound_grid8": ("verify-bound", "grid8", "--gamma", "1.2", "--d", "2",
                    "--beta", "1.8", "--delta", "1"),
}


@pytest.mark.parametrize("case", BLOCK_EDGE_ARGV)
def test_sampled_commands_pass_across_a_stream_block_edge(files, capsys, case):
    command, measure, *flags = BLOCK_EDGE_ARGV[case]
    assert gmclab.cli.main([command, "--measure", str(files[measure]), *flags,
                            "--replicas", "1500", "--seed", str(SEED),
                            "--no-timestamp"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["command"] == command


# ------------------------------------------------------------ error handling


def test_missing_measure_file(files):
    proc = run_cli("laplace", "--measure", files["root"] / "nope.csv",
                   "--gamma", 0.5, "--t", 1.0, "--no-timestamp")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_missing_required_parameter(files):
    proc = run_cli("laplace", "--measure", files["grid"], "--t", 1.0,
                   "--no-timestamp")
    assert proc.returncode == 2
    assert "gamma" in proc.stderr


def test_unknown_flag():
    proc = run_cli("laplace", "--bogus", 1)
    assert proc.returncode == 2


def test_out_writes_file(files):
    out = files["root"] / "report.json"
    proc = run_cli("energy", "--measure", files["grid"], "--d", 1.0,
                   "--out", out, "--no-timestamp")
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert json.loads(out.read_text())["command"] == "energy"


def assert_cannot_write(proc, path):
    """Exit 2 with one error line naming the path, and no traceback."""
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: cannot write {path}: ")
    assert proc.stderr.count("\n") == 1


def test_out_in_missing_directory_exits_2(files):
    out = files["root"] / "missing" / "report.json"
    proc = run_cli("laplace", "--measure", files["small"], "--gamma", 0.8,
                   "--t", 1.0, "--replicas", 16, "--seed", SEED, "--out", out)
    assert_cannot_write(proc, out)


@pytest.mark.parametrize("argv", [
    ("laplace", "--gamma", "0.8", "--t", "1.0"),
    ("verify-bound", "--gamma", "0.8", "--d", "2.0", "--l2"),
], ids=["laplace", "verify_bound"])
def test_csv_in_missing_directory_exits_2(files, argv):
    csv = files["root"] / "missing" / "plot.csv"
    proc = run_cli(*argv, "--measure", files["small"], "--replicas", 16,
                   "--seed", SEED, "--csv", csv)
    assert_cannot_write(proc, csv)


def test_generate_out_in_missing_directory_exits_2(files):
    out = files["root"] / "missing" / "grid.csv"
    proc = run_cli("generate", "grid", "--n", 4, "--out", out)
    assert_cannot_write(proc, out)


def _refuse_call(*args, **kwargs):
    raise AssertionError("called although an output path cannot be written")


@pytest.mark.parametrize("case", ["out_missing_dir", "out_is_dir", "out_under_file",
                                  "csv_missing_dir", "csv_is_dir", "generate_out"])
def test_unwritable_output_fails_before_any_work(files, tmp_path, capsys, monkeypatch,
                                                 case):
    # refused before the handler runs: neither a model build nor a sampler nor
    # a measure generator may be called, and no file is created or truncated
    monkeypatch.setattr(gmclab.cli, "build_covariance", _refuse_call)
    monkeypatch.setattr(gmclab.cli.bounds, "laplace_transform", _refuse_call)
    monkeypatch.setattr(gmclab.cli.measure_mod, "generate_uniform_grid", _refuse_call)
    report = tmp_path / "report.json"
    report.write_text("kept")
    (tmp_path / "file").write_text("kept")
    bad, reason = {
        "out_missing_dir": (tmp_path / "missing" / "r.json", "No such file or directory"),
        "out_is_dir": (tmp_path, "Is a directory"),
        "out_under_file": (tmp_path / "file" / "r.json", "Not a directory"),
        "csv_missing_dir": (tmp_path / "missing" / "p.csv", "No such file or directory"),
        "csv_is_dir": (tmp_path, "Is a directory"),
        "generate_out": (tmp_path / "missing" / "g.csv", "No such file or directory"),
    }[case]
    if case == "generate_out":
        argv = ["generate", "grid", "--n", "4", "--out", str(bad)]
    else:
        argv = ["laplace", "--measure", str(files["small"]), "--gamma", "0.8",
                "--t", "1.0", "--replicas", "400000", "--seed", str(SEED),
                "--no-timestamp"]
        argv += (["--out", str(bad)] if case.startswith("out")
                 else ["--out", str(report), "--csv", str(bad)])
    before = sorted(tmp_path.rglob("*"))
    assert gmclab.cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cannot write {bad}: {reason}\n"
    assert sorted(tmp_path.rglob("*")) == before
    assert report.read_text() == "kept"


@pytest.mark.parametrize("argv", [
    ["laplace", "--bogus", "1"],
    ["laplace", "--replicas", "x"],
    ["nosuch"],
    [],
], ids=["unknown_flag", "bad_type", "unknown_command", "no_command"])
def test_usage_errors_return_2(capsys, argv):
    # returned, not raised as SystemExit, with argparse's usage text
    assert gmclab.cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: gmclab")
    assert err.endswith("\n") and ": error: " in err.splitlines()[-1]


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        gmclab.cli.main(["laplace", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gmclab laplace")


# ------------------------------------------------------- config-file parity


@pytest.mark.parametrize("flags, params", [
    (("laplace", "--gamma", "0.8", "--t", "1.0,5.0", "--replicas", "300"),
     {"gamma": 0.8, "t": [1.0, 5.0], "replicas": 300}),
    (("verify-bound", "--gamma", "0.8", "--d", "2.0", "--l2", "--replicas", "120"),
     {"gamma": 0.8, "d": 2.0, "l2": True, "replicas": 120}),
], ids=["laplace", "verify-bound_l2"])
def test_config_file_run_matches_flags_run(files, tmp_path, capsys, flags, params):
    # the same parameters from --config and from flags resolve to the same
    # run: byte-identical reports and the same exit code
    config = tmp_path / "run.json"
    config.write_text(json.dumps({**params, "measure": str(files["grid"]), "seed": SEED}))
    runs = []
    for argv in ([flags[0], "--config", str(config)],
                 [*flags, "--measure", str(files["grid"]), "--seed", str(SEED)]):
        code = gmclab.cli.main([*argv, "--no-timestamp"])
        runs.append((code, capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert json.loads(runs[0][1])["command"] == flags[0]


# ------------------------------------------------------------ input checks


def test_too_many_atoms_exits_2(tmp_path, capsys):
    dust = tmp_path / "cantor7.csv"
    save_measure(generate_cantor_dust(7, 0.4), dust)
    for argv in (["laplace", "--measure", str(dust), "--gamma", "0.8", "--t", "1.0",
                  "--seed", str(SEED), "--no-timestamp"],
                 ["verify-ineq", "--which", "markov", "--measure", str(dust),
                  "--no-timestamp"]):
        assert gmclab.cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:")


@pytest.mark.parametrize("row", ["nan,0,0.5", "0.1,0.2,inf"], ids=["nan_x", "inf_weight"])
@pytest.mark.parametrize("argv", [
    ("energy", "--d", "1"),
    ("laplace", "--gamma", "0.8", "--t", "1.0", "--replicas", "16", "--seed", "7"),
    ("verify-ineq", "--which", "markov"),
], ids=["energy", "laplace", "markov"])
def test_non_finite_atoms_exit_2(tmp_path, capsys, row, argv):
    # let through, a NaN coordinate or an inf weight gives null energies, a
    # NaN eigenvalue or a Laplace estimate of 0.0, with exit 0 or 1
    path = tmp_path / "m.csv"
    path.write_text(f"x,y,weight\n-0.3,0.0,0.5\n{row}\n")
    assert gmclab.cli.main([*argv, "--measure", str(path), "--no-timestamp"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "must be finite" in err


SEEDED_ARGV = {
    "laplace": ("laplace", "--gamma", "0.8", "--t", "1.0"),
    "verify-bound": ("verify-bound", "--gamma", "0.8", "--d", "2.0", "--l2"),
    "verify-identity": ("verify-identity", "--gamma", "0.8", "--gamma-prime", "0.8"),
    "verify-change-of-measure": ("verify-change-of-measure", "--gamma-prime", "0.6"),
    "verify-ineq": ("verify-ineq", "--which", "fkg", "--gamma", "0.8"),
    "tail": ("tail", "--gamma", "0.8", "--eps", "0.5"),
}

BAD_INPUT = {
    "replicas_zero": (("--replicas", "0"), None),
    "replicas_negative": (("--replicas", "-5"), None),
    "replicas_one": (("--replicas", "1"), None),
    "nan_flag": (("--epsilon", "nan"), None),
    "inf_flag": (("--epsilon=-inf",), None),
    "config_replicas_zero": ((), {"replicas": 0}),
    "config_replicas_fraction": ((), {"replicas": 2.5}),
    "config_nan": ((), {"epsilon": float("nan")}),
    "seed_negative": (("--seed", "-1"), None),
    "config_seed_string": ((), {"seed": "abc"}),
    "config_seed_fraction": ((), {"seed": 1.5}),
    "config_epsilon_string": ((), {"epsilon": "0.05"}),
    "config_missing": (("--config", "MISSING"), None),
    "config_not_json": ((), "{not json"),
    "config_array": ((), [16]),
    "measure_missing": (("--measure", "MISSING"), None),
}


@pytest.mark.parametrize("bad", sorted(BAD_INPUT))
@pytest.mark.parametrize("command", sorted(SEEDED_ARGV))
def test_invalid_sampling_input_exits_2(files, tmp_path, capsys, command, bad):
    flags, config = BAD_INPUT[bad]
    # a --seed flag would override the config file's seed
    seed = () if isinstance(config, dict) and "seed" in config else ("--seed", str(SEED))
    # MISSING names a file that does not exist; a later --measure flag wins
    flags = [str(tmp_path / "missing") if flag == "MISSING" else flag for flag in flags]
    argv = [*SEEDED_ARGV[command], "--measure", str(files["small"]),
            *seed, "--no-timestamp", *flags]
    if config is not None:
        path = tmp_path / "cfg.json"
        # a string is the file's text as it is, anything else its JSON
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        argv += ["--config", str(path)]
    assert gmclab.cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, config", [
    (("laplace", "--gamma", "0.8", "--t", ""), None),
    (("laplace", "--gamma", "0.8"), {"t": []}),
    (("laplace", "--gamma", "0.8"), {"t": "1,2"}),
    (("laplace", "--t", "1.0"), {"gamma": "0.8"}),
    (("tail", "--gamma", "0.8", "--eps", ""), None),
    (("verify-ineq", "--which", "markov", "--radii", ""), None),
    (("verify-ineq", "--which", "markov"), {"radii": []}),
    (("laplace", "--gamma", "0.8", "--t", "1,,2"), None),
    (("tail", "--gamma", "0.8", "--eps", "0.1,0.5,"), None),
    (("generate", "julia", "--max-iter", "0"), None),
], ids=["laplace_empty_t", "config_empty_t", "config_t_string",
        "config_gamma_string", "tail_empty_eps", "markov_empty_radii",
        "config_empty_radii", "laplace_stray_comma", "tail_stray_comma",
        "julia_max_iter_zero"])
def test_empty_or_mistyped_values_exit_2(files, tmp_path, capsys, argv, config):
    source = (("--out", str(tmp_path / "measure.csv")) if argv[0] == "generate"
              else ("--measure", str(files["small"])))
    argv = [*argv, *source, "--no-timestamp"]
    if argv[0] not in ("generate", "verify-ineq"):
        argv += ["--seed", str(SEED), "--replicas", "16"]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert gmclab.cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1


def test_stream_version_only_in_sampled_reports(files, capsys):
    def run(*argv):
        assert gmclab.cli.main([*argv, "--no-timestamp"]) == 0
        return json.loads(capsys.readouterr().out)

    sampled = run(*SEEDED_ARGV["laplace"], "--measure", str(files["small"]),
                  "--replicas", "16", "--seed", str(SEED))
    assert sampled["stream_version"] == gmclab.field.STREAM_VERSION == 13
    markov = run("verify-ineq", "--which", "markov", "--measure", str(files["small"]))
    energy = run("energy", "--measure", str(files["small"]), "--d", "1.0")
    assert "stream_version" not in markov
    assert "stream_version" not in energy


@pytest.mark.parametrize("command", [*sorted(SEEDED_ARGV), "kahane"])
def test_sampled_reports_carry_clip_magnitude(files, capsys, command):
    # at epsilon 0.05 the PSD clip bites on this grid
    argv = SEEDED_ARGV.get(command, ("verify-ineq", "--which", "kahane"))
    assert gmclab.cli.main([*argv, "--measure", str(files["small"]),
                            "--epsilon", "0.05", "--replicas", "16",
                            "--seed", str(SEED), "--no-timestamp"]) in (0, 1)
    rep = json.loads(capsys.readouterr().out)
    atoms = load_measure(files["small"])
    clips = [build_covariance(atoms, 0.05).clip_magnitude]
    if command == "kahane":
        clips.append(build_covariance(atoms, 0.05, DiskKernel(0.5)).clip_magnitude)
    assert rep["stream_version"] == gmclab.field.STREAM_VERSION
    assert rep["clip_magnitude"] == max(clips) > 0.0


@pytest.mark.parametrize("command", [*sorted(SEEDED_ARGV), "kahane"])
@pytest.mark.parametrize("epsilon", [None, 0.05], ids=["cholesky", "clipped"])
def test_sampled_reports_carry_factor_rank(files, capsys, command, epsilon):
    argv = [*SEEDED_ARGV.get(command, ("verify-ineq", "--which", "kahane")),
            "--measure", str(files["small"]), "--replicas", "16",
            "--seed", str(SEED), "--no-timestamp"]
    if epsilon is not None:
        argv += ["--epsilon", str(epsilon)]
    assert gmclab.cli.main(argv) in (0, 1)
    rep = json.loads(capsys.readouterr().out)
    atoms = load_measure(files["small"])
    kernels = [DiskKernel(1.0), DiskKernel(0.5)] if command == "kahane" else [DiskKernel(1.0)]
    ranks = [build_covariance(atoms, rep["config"]["epsilon"], k).factor_rank
             for k in kernels]
    assert rep["factor_rank"] == max(ranks)
    assert (rep["factor_rank"] < atoms.n) == (epsilon is not None)
    if command == "kahane":
        details = rep["verdicts"][0]["details"]
        assert [details["factor_rank_disk"], details["factor_rank_subdisk"]] == ranks


@pytest.mark.parametrize("command", [*sorted(SEEDED_ARGV), "kahane"])
def test_impossible_replica_count_exits_2(files, capsys, command):
    # 1e13 replicas would need 72.8 TiB for the total masses alone
    argv = SEEDED_ARGV.get(command, ("verify-ineq", "--which", "kahane"))
    assert gmclab.cli.main([*argv, "--measure", str(files["single"]),
                            "--replicas", str(10 ** 13), "--seed", str(SEED),
                            "--no-timestamp"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "exceed the limit" in err


# ---------------------------------------------------------- README and table


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """The gmclab lines of the README's command line example block."""
    text = README.read_text()
    block = text.split("Command line:\n\n```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("gmclab ")]


def test_readme_command_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) == 10
    for argv in commands:
        code = gmclab.cli.main([*argv, "--no-timestamp"])
        err = capsys.readouterr().err
        assert code == 0, (argv, err)


def test_readme_quick_start_runs(capsys):
    text = README.read_text()
    code = text.split("Library:\n\n```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("True ")


HELP = (("-h", "--help"), "help", None, None)
CONFIG = (("--config",), "config", None, None)
NO_TIMESTAMP = (("--no-timestamp",), "no_timestamp", None, None)
REPORT_OUT = (("--out",), "out", None, None)
MEASURE = (("--measure",), "measure", None, None)
CSV = (("--csv",), "csv", None, None)
SAMPLING = ((("--seed",), "seed", "int", None),
            (("--replicas",), "replicas", "int", None),
            (("--epsilon",), "epsilon", "float", None))
COMMON = (HELP, CONFIG, NO_TIMESTAMP, REPORT_OUT, MEASURE)


def floats(*names):
    return tuple((("--" + name.replace("_", "-"),), name, "float", None)
                 for name in names)


# (option strings, dest, type, choices) of every action of each subcommand;
# a table edit that drops, renames or retypes a flag fails here
FLAG_SURFACE = {
    "generate": {HELP, CONFIG, NO_TIMESTAMP,
                 ((), "kind", None, ("grid", "cantor", "julia")),
                 (("--out",), "measure_out", None, None),
                 (("--n",), "n", "int", None),
                 (("--radius",), "radius", "float", None),
                 (("--level",), "level", "int", None),
                 (("--c",), "c", "_complex_arg", None),
                 (("--pixels",), "pixels", "int", None),
                 (("--max-iter",), "max_iter", "int", None)},
    "energy": {*COMMON, *floats("d")},
    "exponents": {*COMMON, *floats("gamma", "d", "beta", "delta", "energy_ratio"),
                  (("--l2",), "l2", None, None)},
    "laplace": {*COMMON, *SAMPLING, CSV, *floats("gamma"),
                (("--t",), "t", "_float_list", None)},
    "verify-bound": {*COMMON, *SAMPLING, CSV,
                     *floats("gamma", "d", "beta", "delta"),
                     (("--l2",), "l2", None, None)},
    "verify-identity": {*COMMON, *SAMPLING,
                        *floats("gamma", "gamma_prime")},
    "verify-change-of-measure": {
        *COMMON, *SAMPLING, *floats("gamma_prime", "gamma", "cap"),
        (("--statistic",), "statistic", None, ("mass", "atom-value")),
        (("--atom-index",), "atom_index", "int", None)},
    "verify-ineq": {*COMMON, *SAMPLING, *floats("gamma", "s", "t", "r_inner"),
                    (("--which",), "which", None, ("fkg", "kahane", "markov")),
                    (("--radii",), "radii", "_float_list", None)},
    "split": {*COMMON},
    "tail": {*COMMON, *SAMPLING, *floats("gamma"),
             (("--eps",), "eps", "_float_list", None)},
}


def test_flag_surface_is_pinned():
    parser = gmclab.cli.build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert sorted(subparsers.choices) == sorted(FLAG_SURFACE)
    for name, sub in subparsers.choices.items():
        surface = {(tuple(a.option_strings), a.dest,
                    getattr(a.type, "__name__", a.type),
                    tuple(a.choices) if a.choices else None)
                   for a in sub._actions}
        assert surface == FLAG_SURFACE[name], name


# ------------------------------------------------------------- shared parser


def test_main_builds_the_parser_once(files, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    gmclab.cli.build_parser.cache_clear()
    for _ in range(3):
        assert gmclab.cli.main(["energy", "--measure", str(files["small"]),
                                "--d", "1.0", "--no-timestamp"]) == 0
        assert gmclab.cli.main(["split", "--measure", str(files["small"]),
                                "--no-timestamp"]) == 0
    capsys.readouterr()
    # the root parser and one per subcommand, all from the first call
    assert len(built) == 1 + len(gmclab.cli.COMMANDS)
    assert gmclab.cli.build_parser() is gmclab.cli.build_parser()


def run_in_process(argv, capsys):
    """(exit code, stdout, stderr) of gmclab.cli.main in this process."""
    try:
        code = gmclab.cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_shared_parser_keeps_calls_independent(files, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"t": [1.0, 4.0], "epsilon": 0.05}))
    laplace = ("laplace", "--measure", str(files["small"]), "--gamma", "0.8",
               "--replicas", "40", "--seed", str(SEED), "--no-timestamp")
    sequence = [
        ("laplace", "--bogus", "1"),
        (*laplace, "--config", str(config)),
        # exits 2 on the missing t unless the config file's t leaked over
        laplace,
        ("generate", "grid", "--n", "4", "--out", str(tmp_path / "g.csv"),
         "--no-timestamp"),
        ("verify-ineq", "--which", "markov", "--measure", str(files["small"]),
         "--no-timestamp"),
        (*laplace, "--config", str(config)),
    ]
    in_process = [run_in_process(argv, capsys) for argv in sequence]
    assert [code for code, _, _ in in_process] == [2, 0, 2, 0, 0, 0]
    assert in_process[-1] == in_process[1]
    for argv, result in zip(sequence, in_process):
        proc = run_cli(*argv)
        assert result == (proc.returncode, proc.stdout, proc.stderr), argv


@pytest.mark.parametrize("argv, config", [
    (("generate", "grid"), {"n": "4"}),
    (("generate", "cantor"), {"level": 2.5}),
    (("generate", "julia"), {"c": "1+1x"}),
    (("energy",), {"d": "1"}),
    (("exponents", "--gamma", "1", "--d", "2"), {"l2": "yes"}),
    (("laplace", "--t", "1.0"), {"gamma": True}),
    (("verify-bound", "--gamma", "0.8", "--d", "2.0"), {"beta": [2.0]}),
    (("verify-identity", "--gamma", "0.8", "--gamma-prime", "0.8"),
     {"epsilon": "0.05"}),
    (("verify-change-of-measure", "--gamma-prime", "0.6"), {"atom_index": -1}),
    (("verify-change-of-measure", "--gamma-prime", "0.6"), {"statistic": "foo"}),
    (("verify-ineq",), {"which": "foo"}),
    (("verify-ineq", "--which", "markov"), {"radii": [0.5, "x"]}),
    (("split",), {"measure": 5}),
    (("tail", "--gamma", "0.8"), {"eps": [0.1, None]}),
], ids=["generate_grid", "generate_cantor", "generate_julia", "energy",
        "exponents", "laplace", "verify_bound", "verify_identity",
        "verify_com", "verify_com_statistic", "verify_ineq_which",
        "verify_ineq_radii", "split", "tail"])
def test_mistyped_config_value_exits_2(files, tmp_path, capsys, argv, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    argv = [*argv, "--config", str(path), "--no-timestamp"]
    if argv[0] == "generate":
        argv += ["--out", str(tmp_path / "measure.csv")]
    elif "measure" not in config:
        argv += ["--measure", str(files["small"])]
    if argv[0] in SEEDED_ARGV:
        argv += ["--seed", str(SEED), "--replicas", "16"]
    assert gmclab.cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:")
