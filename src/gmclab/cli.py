"""Command line front end.

Every subcommand reads parameters from flags, optionally backed by a JSON
config file (flags override the file), echoes the fully resolved parameters
into its JSON report and exits 0 on pass/success, 1 on a failed verdict, 2 on
usage or validation problems. Execution knobs (--out, --no-timestamp) never
enter the report, so reruns with the same seed are byte-identical.

The table ``COMMANDS`` is where a subcommand is declared: its handler, help
text, parameters with their defaults and the parameters that take a number
list. The parser, the config-file keys and the report's ``config`` echo all
derive from it; a parameter ``a_b`` is the flag ``--a-b``. ``_admitted`` is
the one map from a parameter to the values it admits.

From Python, ``main(argv)`` returns the exit code instead of exiting, 2 for
argparse's own usage errors too (unknown flag, bad value, missing
subcommand), after the same usage text on stderr; only ``--help`` raises
``SystemExit`` as usual. It builds the parser once per process
(``build_parser`` is cached), so repeated calls pay for the subparsers only
once; the parser is shared and must not be mutated. An output path (report,
CSV or measure file) whose directory is missing or not writable, or that
names a directory, exits 2 before any work is done, and no file is created.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import copy
import errno
import functools
import json
import os
import sys
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np

from . import bounds, gmc, inequalities, measure as measure_mod
from .errors import GmcLabError, HypothesisViolationError, ValidationError
from .field import STREAM_VERSION
from .gmc import MIN_REPLICAS
from .kernel import KERNEL_VERSION, build_covariance
from .reports import render_report, write_plot_csv

# verify-identity's pass rule, max_rel_err <= this; fixed, like every verdict's
IDENTITY_TOLERANCE = 1e-10
# parameters that take one of a fixed set of strings
CHOICES = {"kind": ("grid", "cantor", "julia"),
           "which": ("fkg", "kahane", "markov"),
           "statistic": ("mass", "atom-value")}
# parameters that hold other text; all others but l2 and the complex c hold numbers
TEXT_KEYS = frozenset({"measure"})
# integer parameters and their least value; the library checks tighter ranges
INTEGER_KEYS = {"replicas": MIN_REPLICAS, "seed": 0, "n": 0, "level": 0,
                "pixels": 0, "max_iter": 0, "atom_index": 0}


def _float_list(text: str) -> list[float]:
    """Comma-separated numbers; blank text gives [], which validation rejects."""
    if not text.strip():
        return []
    tokens = text.split(",")
    if not all(tok.strip() for tok in tokens):
        raise ValidationError(f"empty item in number list {text!r}")
    try:
        return [float(tok) for tok in tokens]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


def _complex_arg(text: str) -> complex:
    try:
        return complex(text.strip().replace("i", "j"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad complex number {text!r}") from exc


def _resolve(args: argparse.Namespace, defaults: dict, lists: tuple = ()) -> dict:
    """Merge defaults < config file < explicit flags; the keys in lists take
    a number or a non-empty list of numbers. The defaults are the table's
    own, shared by every call, so the merge works on a copy."""
    merged = copy.deepcopy(defaults)
    if getattr(args, "config", None):
        try:
            with open(args.config) as handle:
                file_cfg = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read config file: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ValidationError("config file must hold a JSON object")
        for key, value in file_cfg.items():
            if key in merged:
                merged[key] = value
    for key in defaults:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    _check_values(merged, lists)
    return merged


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return isinstance(value, int) or cmath.isfinite(value)


def _admitted(key: str):
    """(description, test, flag type) of the values a parameter admits; a
    flag type of None keeps the flag's text as it is."""
    if key in CHOICES:
        choices = CHOICES[key]
        return f"one of {', '.join(choices)}", lambda v: v in choices, None
    if key in TEXT_KEYS:
        return "a string", lambda v: isinstance(v, str), None
    if key == "l2":
        return "true or false", lambda v: isinstance(v, bool), None
    if key in INTEGER_KEYS:
        least = INTEGER_KEYS[key]
        return (f"an integer >= {least}",
                lambda v: _is_number(v) and isinstance(v, int) and v >= least, int)
    if key == "c":
        return ("a finite complex number",
                lambda v: (_is_number(v) or isinstance(v, complex)) and _is_finite(v),
                _complex_arg)
    return "a finite number", lambda v: _is_number(v) and _is_finite(v), float


def _check_values(cfg: dict, lists: tuple) -> None:
    """Reject values of the wrong type or range, empty lists and non-finite
    numbers, whether they came from a flag or from the config file; a c given
    as text is parsed to a complex number."""
    if isinstance(cfg.get("c"), str):
        try:
            cfg["c"] = _complex_arg(cfg["c"])
        except argparse.ArgumentTypeError as exc:
            raise ValidationError(str(exc)) from exc
    for key, value in cfg.items():
        if value is None:
            continue
        kind, test, _ = _admitted(key)
        items = [value]
        if key in lists:
            kind = f"{kind} or a non-empty list of them"
            if isinstance(value, list):
                items = value
        if not items or not all(map(test, items)):
            raise ValidationError(f"{key} must be {kind}, got {value!r}")


@contextlib.contextmanager
def _writing(path):
    """The one place an output file that cannot be written (missing
    directory, no permission) becomes a usage error, exit 2, instead of a
    traceback with the exit code of a failed verdict."""
    try:
        yield
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_writable(path) -> None:
    """Refuse an output path that open(path, "w") would refuse for a missing
    directory, a directory as path or no write permission, with _writing's
    message, creating and truncating nothing."""
    parent = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    with _writing(path):
        raise OSError(code, os.strerror(code), path)


def _require(cfg: dict, *keys: str) -> None:
    for key in keys:
        if cfg.get(key) is None:
            raise ValidationError(f"missing required parameter: {key}")


def _sampled_keys(clip_magnitude: float, factor_rank: int) -> dict:
    """Diagnostics every report of a sampled command carries."""
    return {"stream_version": STREAM_VERSION, "clip_magnitude": clip_magnitude,
            "factor_rank": factor_rank}


def _model_keys(model) -> dict:
    return _sampled_keys(model.clip_magnitude, model.factor_rank)


def _seeded_model(cfg: dict):
    """Fix the seed (drawn from entropy when absent) and build the unit-disk
    model of the measure; the epsilon it used is echoed in the config."""
    if cfg.get("seed") is None:
        cfg["seed"] = int(np.random.SeedSequence().entropy % (2 ** 63))
    _require(cfg, "measure")
    atoms = measure_mod.load_measure(cfg["measure"])
    model = build_covariance(atoms, cfg["epsilon"])
    cfg["epsilon"] = model.epsilon
    return model


def _require_exponents(cfg: dict) -> None:
    """gamma, d, beta and delta must be set; --l2 is shorthand for beta = d, delta = 1."""
    _require(cfg, "gamma", "d")
    if cfg["l2"]:
        cfg["beta"], cfg["delta"] = cfg["d"], 1.0
    _require(cfg, "beta", "delta")


# ---------------------------------------------------------------- handlers


def _cmd_generate(cfg, args) -> tuple[dict, dict, int]:
    if args.kind == "grid":
        atoms = measure_mod.generate_uniform_grid(cfg["n"], cfg["radius"])
        echoed = ("n",)
    elif args.kind == "cantor":
        atoms = measure_mod.generate_cantor_dust(cfg["level"], cfg["radius"])
        echoed = ("level",)
    else:
        if cfg["c"] is None:
            cfg["c"] = complex(-1.0, 0.0)
        atoms = measure_mod.generate_julia_boundary(
            cfg["c"], cfg["pixels"], cfg["max_iter"], cfg["radius"])
        echoed = ("c", "pixels", "max_iter")
    cfg = {"kind": args.kind, **{k: cfg[k] for k in ("radius", *echoed)},
           "out": args.measure_out}
    with _writing(args.measure_out):
        measure_mod.save_measure(atoms, args.measure_out)
    payload = {"atoms": atoms.n, "total_mass": atoms.total_mass,
               "support_radius": atoms.support_radius}
    return cfg, payload, 0


def _cmd_energy(cfg, args) -> tuple[dict, dict, int]:
    _require(cfg, "measure", "d")
    atoms = measure_mod.load_measure(cfg["measure"])
    value = measure_mod.d_energy(atoms, cfg["d"])
    return cfg, {"energy": value, "atoms": atoms.n,
                 "total_mass": atoms.total_mass}, 0


def _cmd_exponents(cfg, args) -> tuple[dict, dict, int]:
    _require_exponents(cfg)
    report = bounds.exponents(cfg["gamma"], cfg["d"], cfg["beta"], cfg["delta"])
    payload = {}
    ratio, path = cfg["energy_ratio"], cfg["measure"]
    # each sets the square-integrable threshold; one that would go unused is refused
    if ratio is not None and path is not None:
        raise ValidationError("energy_ratio and measure each set the "
                              "square-integrable threshold: give one")
    if (ratio is not None or path is not None) and not cfg["gamma"] ** 2 < cfg["d"]:
        raise ValidationError(
            "energy_ratio and measure set the square-integrable threshold, which "
            f"needs gamma^2 < d (gamma={cfg['gamma']:g}, d={cfg['d']:g})")
    if path is not None:
        atoms = measure_mod.load_measure(path)
        ratio = measure_mod.d_energy(atoms, cfg["d"]) / atoms.total_mass
        payload["energy_ratio"] = ratio
    if ratio is not None:
        report = replace(report,
                         l2_t0=bounds.t0_from_ratio(ratio, cfg["gamma"], cfg["d"]))
    payload["exponents"] = report
    return cfg, payload, 0


def _cmd_laplace(cfg, args) -> tuple[dict, dict, int]:
    _require(cfg, "gamma", "t")
    model = _seeded_model(cfg)
    report = bounds.laplace_transform(model, cfg["gamma"], cfg["t"],
                                      cfg["replicas"], cfg["seed"])
    if args.csv:
        with _writing(args.csv):
            write_plot_csv(args.csv, report)
    return cfg, {"laplace": report, **_model_keys(model)}, 0


def _cmd_verify_bound(cfg, args) -> tuple[dict, dict, int]:
    _require_exponents(cfg)
    model = _seeded_model(cfg)
    report = bounds.verify_bound(model, cfg["gamma"], cfg["d"], cfg["beta"],
                                 cfg["delta"], cfg["replicas"], cfg["seed"])
    if args.csv:
        with _writing(args.csv):
            write_plot_csv(args.csv, report.laplace)
    payload = {"bound": report, **_model_keys(model)}
    if report.trivial_pass:
        payload["warning"] = ("laplace estimates underflowed to zero at every "
                              "grid point; the bound holds vacuously at double "
                              "precision")
    return cfg, payload, 0 if report.verdict else 1


def _cmd_verify_identity(cfg, args) -> tuple[dict, dict, int]:
    _require(cfg, "gamma", "gamma_prime")
    model = _seeded_model(cfg)
    errors = gmc.rooted_identity_errors(model, cfg["seed"], cfg["replicas"],
                                        cfg["gamma"], cfg["gamma_prime"])
    worst = float(errors.max())
    ok = worst <= IDENTITY_TOLERANCE
    payload = {"max_rel_err": worst, "mean_rel_err": float(errors.mean()),
               "passed": bool(ok), **_model_keys(model)}
    return cfg, payload, 0 if ok else 1


def _cmd_verify_com(cfg, args) -> tuple[dict, dict, int]:
    _require(cfg, "gamma_prime", "statistic")
    model = _seeded_model(cfg)
    if cfg["statistic"] == "mass":
        if cfg["gamma"] is None:
            cfg["gamma"] = cfg["gamma_prime"]
        if cfg["cap"] is None:
            cfg["cap"] = 10.0 * model.measure.total_mass
        stat = gmc.clipped_mass_statistic(model, cfg["gamma"], cfg["cap"])
    else:
        stat = gmc.atom_value_statistic(model, cfg["atom_index"])
    report = gmc.verify_change_of_measure(model, cfg["gamma_prime"], stat,
                                          cfg["replicas"], cfg["seed"])
    return (cfg, {"change_of_measure": report, **_model_keys(model)},
            0 if report.overlap else 1)


def _cmd_verify_ineq(cfg, args) -> tuple[dict, dict, int]:
    _require(cfg, "which")
    try:
        if cfg["which"] == "fkg":
            model = _seeded_model(cfg)
            verdicts = [inequalities.fkg_check(model, cfg["gamma"], cfg["s"],
                                               cfg["t"], cfg["replicas"],
                                               cfg["seed"])]
            diagnostics = _model_keys(model)
        elif cfg["which"] == "kahane":
            model = _seeded_model(cfg)
            verdicts = [inequalities.kahane_check(model, cfg["gamma"],
                                                  cfg["r_inner"], cfg["t"],
                                                  cfg["replicas"], cfg["seed"])]
            details = verdicts[0].details
            diagnostics = _sampled_keys(
                max(details["clip_magnitude_subdisk"], details["clip_magnitude_disk"]),
                max(details["factor_rank_subdisk"], details["factor_rank_disk"]))
        else:
            _require(cfg, "measure")
            atoms = measure_mod.load_measure(cfg["measure"])
            verdicts = inequalities.markov_psd_suite(atoms, cfg["radii"])
            diagnostics = {"kernel_version": KERNEL_VERSION}
    except HypothesisViolationError as exc:
        return cfg, {"skipped": True, "reason": str(exc)}, 0
    payload = {"verdicts": verdicts, **diagnostics}
    all_pass = all(v.passed for v in verdicts)
    return cfg, payload, 0 if all_pass else 1


def _cmd_split(cfg, args) -> tuple[dict, dict, int]:
    _require(cfg, "measure")
    atoms = measure_mod.load_measure(cfg["measure"])
    result = measure_mod.split_half_plane(atoms)
    return cfg, {"split": result, "total_mass": atoms.total_mass}, 0


def _cmd_tail(cfg, args) -> tuple[dict, dict, int]:
    _require(cfg, "gamma", "eps")
    model = _seeded_model(cfg)
    report = bounds.small_ball_tail(model, cfg["gamma"], cfg["eps"],
                                    cfg["replicas"], cfg["seed"])
    return cfg, {"tail": report, **_model_keys(model)}, 0


# ------------------------------------------------------------------ table


class Command(NamedTuple):
    handler: Callable
    help: str
    # parameter -> default; each is a config-file key and a flag
    params: dict
    # parameters that take a number or a non-empty list of numbers
    lists: tuple = ()
    # whether --csv writes plot data t,estimate,stderr,bound
    csv: bool = False


COMMANDS = {
    "generate": Command(
        _cmd_generate, "write a generated measure as CSV",
        {"n": 16, "radius": 0.8, "level": 3,
         "c": None, "pixels": 256, "max_iter": 100}),
    "energy": Command(
        _cmd_energy, "interaction energy of a measure",
        {"measure": None, "d": None}),
    "exponents": Command(
        _cmd_exponents, "admissible decay exponents",
        {"gamma": None, "d": None, "beta": None, "delta": None, "l2": False,
         "energy_ratio": None, "measure": None}),
    "laplace": Command(
        _cmd_laplace, "Monte Carlo Laplace transform",
        {"measure": None, "gamma": None, "t": None, "replicas": 10000,
         "seed": None, "epsilon": None},
        lists=("t",), csv=True),
    "verify-bound": Command(
        _cmd_verify_bound, "negative-moment bound over a t grid",
        {"measure": None, "gamma": None, "d": None, "beta": None,
         "delta": None, "l2": False, "replicas": 10000, "seed": None,
         "epsilon": None},
        csv=True),
    "verify-identity": Command(
        _cmd_verify_identity, "rooted change-of-measure identity, replica by replica",
        {"measure": None, "gamma": None, "gamma_prime": None,
         "replicas": 1000, "seed": None, "epsilon": None}),
    "verify-change-of-measure": Command(
        _cmd_verify_com, "two-sample comparison of the rooted change of measure",
        {"measure": None, "gamma_prime": None, "statistic": "mass",
         "gamma": None, "cap": None, "atom_index": 0,
         "replicas": 10000, "seed": None, "epsilon": None}),
    "verify-ineq": Command(
        _cmd_verify_ineq, "correlation inequality harnesses",
        {"measure": None, "which": None, "gamma": 0.8, "s": 1.0,
         "t": 2.0, "r_inner": 0.5, "radii": [0.5, 0.7, 0.9],
         "replicas": 20000, "seed": None, "epsilon": None},
        lists=("radii",)),
    "split": Command(
        _cmd_split, "quarter-mass half-plane split", {"measure": None}),
    "tail": Command(
        _cmd_tail, "small-mass tail frequencies",
        {"measure": None, "gamma": None, "eps": None,
         "replicas": 10000, "seed": None, "epsilon": None},
        lists=("eps",)),
}


# ----------------------------------------------------------------- parser


class _UsageError(Exception):
    """An argparse usage error whose message is already on stderr."""


class _Parser(argparse.ArgumentParser):
    """argparse's parser with usage errors raised to main, which returns 2,
    instead of exiting; subparsers are made of the same class."""

    def error(self, message):
        # argparse prints the usage and the message, then exits 2
        try:
            super().error(message)
        except SystemExit:
            raise _UsageError(message) from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process from
    ``COMMANDS``. The returned parser is shared by all callers and must not
    be mutated; parsing only reads it."""
    parser = _Parser(
        prog="gmclab",
        description="Monte Carlo laboratory for multiplicative chaos measures "
                    "over atomic base measures on the unit disk")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.set_defaults(handler=command.handler, defaults=command.params,
                       lists=command.lists)
        p.add_argument("--config", help="JSON file with default parameters")
        if name == "generate":
            # kind and --out are command-line only, no config keys: --out
            # names the measure file and the report goes to stdout
            p.add_argument("kind", choices=CHOICES["kind"])
            p.add_argument("--out", dest="measure_out", required=True)
            p.set_defaults(out=None)
        else:
            p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp for byte-stable reports")
        if command.csv:
            p.add_argument("--csv", help="write plot data t,estimate,stderr,bound")
        for key in command.params:
            flag = "--" + key.replace("_", "-")
            if key == "l2":
                p.add_argument(flag, action="store_true", default=None)
            else:
                flag_type = _float_list if key in command.lists else _admitted(key)[2]
                p.add_argument(flag, type=flag_type, choices=CHOICES.get(key),
                               help="measure CSV path" if key == "measure" else None)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _resolve(args, args.defaults, args.lists)
        for path in (args.out, getattr(args, "csv", None),
                     getattr(args, "measure_out", None)):
            if path:
                _check_writable(path)
        cfg, payload, code = args.handler(cfg, args)
        text = render_report(args.command, cfg, payload,
                             timestamp=not args.no_timestamp)
        if args.out:
            with _writing(args.out), open(args.out, "w") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except GmcLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _UsageError:
        return 2
    return code


def run() -> None:
    sys.exit(main())
