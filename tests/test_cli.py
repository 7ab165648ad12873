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
from gmclab import (AtomicMeasure, DiskKernel, build_covariance, d_energy,
                    generate_cantor_dust, load_measure, save_measure)

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
    paths = {"root": root, "grid": root / "grid16.csv",
             "small": root / "grid8_small.csv", "cantor": root / "cantor3.csv",
             "single": root / "single.csv", "quad": root / "quad.csv",
             "heavy": root / "heavy.csv"}
    proc = run_cli("generate", "grid", "--n", 16, "--radius", 0.8,
                   "--out", paths["grid"], "--no-timestamp")
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("generate", "grid", "--n", 8, "--radius", 0.4,
                   "--out", paths["small"], "--no-timestamp")
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("generate", "cantor", "--level", 3, "--radius", 0.4,
                   "--out", paths["cantor"], "--no-timestamp")
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


# ----------------------------------------------------------- verify-identity


def test_verify_identity_pass(files):
    proc = run_cli("verify-identity", "--measure", files["grid"],
                   "--gamma", 0.8, "--gamma-prime", 0.8, "--replicas", 50,
                   "--seed", SEED, "--no-timestamp")
    assert proc.returncode == 0
    rep = report(proc)
    assert rep["max_rel_err"] <= 1e-10
    assert rep["pass"] is True


def test_verify_identity_impossible_tolerance(files):
    proc = run_cli("verify-identity", "--measure", files["grid"],
                   "--gamma", 0.8, "--gamma-prime", 0.8, "--replicas", 50,
                   "--seed", SEED, "--tolerance", 1e-30, "--no-timestamp")
    assert proc.returncode == 1
    assert report(proc)["pass"] is False


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


# --------------------------------------------------------------- verify-ineq


def test_verify_ineq_markov(files):
    proc = run_cli("verify-ineq", "--which", "markov", "--measure",
                   files["small"], "--radii", "0.5,0.7,0.9", "--no-timestamp")
    assert proc.returncode == 0
    verdicts = report(proc)["verdicts"]
    assert len(verdicts) == 3
    assert all(v["pass"] for v in verdicts)
    assert verdicts[0]["name"] == "markov_psd(r=0.5)"


def test_verify_ineq_fkg(files):
    proc = run_cli("verify-ineq", "--which", "fkg", "--measure", files["small"],
                   "--gamma", 0.8, "--s", 1.0, "--t", 2.0, "--replicas", 2000,
                   "--seed", SEED, "--no-timestamp")
    assert proc.returncode == 0
    assert report(proc)["verdicts"][0]["pass"] is True


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


# ------------------------------------------------------------- thread parity


@pytest.mark.parametrize("argv", [
    ("laplace", "--gamma", "0.8", "--t", "1.0,5.0", "--replicas", "300"),
    ("verify-bound", "--gamma", "0.8", "--d", "2.0", "--l2",
     "--replicas", "120"),
])
def test_reports_identical_across_threads(files, argv):
    base = (*argv, "--measure", str(files["grid"]), "--seed", str(SEED),
            "--no-timestamp")
    one = run_cli(*base)
    three = run_cli(*base)
    assert one.stdout == three.stdout
    assert one.returncode == three.returncode


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
}


@pytest.mark.parametrize("bad", sorted(BAD_INPUT))
@pytest.mark.parametrize("command", sorted(SEEDED_ARGV))
def test_invalid_sampling_input_exits_2(files, tmp_path, capsys, command, bad):
    flags, config = BAD_INPUT[bad]
    # a --seed flag would override the config file's seed
    seed = () if config and "seed" in config else ("--seed", str(SEED))
    argv = [*SEEDED_ARGV[command], "--measure", str(files["small"]),
            *seed, "--no-timestamp", *flags]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert gmclab.cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:")


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
], ids=["laplace_empty_t", "config_empty_t", "config_t_string",
        "config_gamma_string", "tail_empty_eps", "markov_empty_radii",
        "config_empty_radii", "laplace_stray_comma", "tail_stray_comma"])
def test_empty_or_mistyped_values_exit_2(files, tmp_path, capsys, argv, config):
    argv = [*argv, "--measure", str(files["small"]), "--no-timestamp"]
    if argv[0] != "verify-ineq":
        argv += ["--seed", str(SEED), "--replicas", "16"]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert gmclab.cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:")


def test_stream_version_only_in_sampled_reports(files, capsys):
    def run(*argv):
        assert gmclab.cli.main([*argv, "--no-timestamp"]) == 0
        return json.loads(capsys.readouterr().out)

    sampled = run(*SEEDED_ARGV["laplace"], "--measure", str(files["small"]),
                  "--replicas", "16", "--seed", str(SEED))
    assert sampled["stream_version"] == gmclab.field.STREAM_VERSION == 7
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
                        *floats("gamma", "gamma_prime", "tolerance")},
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


@pytest.mark.parametrize("argv, config", [
    (("generate", "grid"), {"n": "4"}),
    (("generate", "cantor"), {"level": 2.5}),
    (("generate", "julia"), {"c": "1+1x"}),
    (("energy",), {"d": "1"}),
    (("exponents", "--gamma", "1", "--d", "2"), {"l2": "yes"}),
    (("laplace", "--t", "1.0"), {"gamma": True}),
    (("verify-bound", "--gamma", "0.8", "--d", "2.0"), {"beta": [2.0]}),
    (("verify-identity", "--gamma", "0.8", "--gamma-prime", "0.8"),
     {"tolerance": "1e-10"}),
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
