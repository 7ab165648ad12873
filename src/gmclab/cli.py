"""Command line front end.

Every subcommand reads parameters from flags, optionally backed by a JSON
config file (flags override the file), echoes the fully resolved parameters
into its JSON report and exits 0 on pass/success, 1 on a failed verdict, 2 on
usage or validation problems. Execution knobs (--out, --no-timestamp) never
enter the report, so reruns with the same seed are byte-identical.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from dataclasses import replace

import numpy as np

from . import bounds, gmc, inequalities, measure as measure_mod
from .errors import GmcLabError, HypothesisViolationError, ValidationError
from .field import STREAM_VERSION
from .kernel import build_covariance, default_epsilon
from .reports import render_report, to_jsonable, write_plot_csv

IDENTITY_TOLERANCE = 1e-10
# fewer replicas leave every standard error undefined
MIN_REPLICAS = 2


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


def _complex_arg(text: str) -> complex:
    try:
        return complex(text.strip().replace("i", "j"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad complex number {text!r}") from exc


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge defaults < config file < explicit flags."""
    merged = dict(defaults)
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
    _check_values(merged)
    return merged


def _check_values(cfg: dict) -> None:
    """Reject replica counts too small to grade and non-finite numbers,
    whether they came from a flag or from the config file."""
    replicas = cfg.get("replicas")
    if replicas is not None and (isinstance(replicas, bool)
                                 or not isinstance(replicas, int)
                                 or replicas < MIN_REPLICAS):
        raise ValidationError(
            f"replicas must be an integer >= {MIN_REPLICAS}, got {replicas!r}")
    for key, value in cfg.items():
        for item in value if isinstance(value, list) else [value]:
            if (isinstance(item, (float, complex))
                    and not cmath.isfinite(item)):
                raise ValidationError(f"{key} must be finite, got {item!r}")


def _resolve_seed(cfg: dict) -> None:
    if cfg.get("seed") is None:
        cfg["seed"] = int(np.random.SeedSequence().entropy % (2 ** 63))
    cfg["seed"] = int(cfg["seed"])


def _require(cfg: dict, *keys: str) -> None:
    for key in keys:
        if cfg.get(key) is None:
            raise ValidationError(f"missing required parameter: {key}")


def _load_model(cfg: dict):
    _require(cfg, "measure")
    atoms = measure_mod.load_measure(cfg["measure"])
    model = build_covariance(atoms, cfg.get("epsilon"))
    cfg["epsilon"] = model.epsilon
    return model


# ---------------------------------------------------------------- handlers


def _cmd_generate(args) -> tuple[dict, dict, int]:
    defaults = {"kind": args.kind, "out": None, "n": 16, "radius": 0.8,
                "level": 3, "c": None, "pixels": 256, "max_iter": 100}
    cfg = _resolve(args, defaults)
    cfg["out"] = args.measure_out
    _require(cfg, "out")
    if args.kind == "grid":
        atoms = measure_mod.generate_uniform_grid(int(cfg["n"]), cfg["radius"])
        cfg = {k: cfg[k] for k in ("kind", "out", "n", "radius")}
    elif args.kind == "cantor":
        atoms = measure_mod.generate_cantor_dust(int(cfg["level"]), cfg["radius"])
        cfg = {k: cfg[k] for k in ("kind", "out", "level", "radius")}
    else:
        c = cfg["c"] if cfg["c"] is not None else complex(-1.0, 0.0)
        if isinstance(c, str):
            c = _complex_arg(c)
        atoms = measure_mod.generate_julia_boundary(
            c, int(cfg["pixels"]), int(cfg["max_iter"]), cfg["radius"])
        cfg = {"kind": cfg["kind"], "out": cfg["out"], "c": c,
               "pixels": cfg["pixels"], "max_iter": cfg["max_iter"],
               "radius": cfg["radius"]}
    measure_mod.save_measure(atoms, cfg["out"])
    payload = {"atoms": atoms.n, "total_mass": atoms.total_mass,
               "support_radius": atoms.support_radius}
    return cfg, payload, 0


def _cmd_energy(args) -> tuple[dict, dict, int]:
    cfg = _resolve(args, {"measure": None, "d": None})
    _require(cfg, "measure", "d")
    atoms = measure_mod.load_measure(cfg["measure"])
    value = measure_mod.d_energy(atoms, cfg["d"])
    return cfg, {"energy": value, "atoms": atoms.n,
                 "total_mass": atoms.total_mass}, 0


def _cmd_exponents(args) -> tuple[dict, dict, int]:
    defaults = {"gamma": None, "d": None, "beta": None, "delta": None,
                "l2": False, "energy_ratio": None, "measure": None}
    cfg = _resolve(args, defaults)
    _require(cfg, "gamma", "d")
    if cfg["l2"]:
        cfg["beta"], cfg["delta"] = cfg["d"], 1.0
    _require(cfg, "beta", "delta")
    report = bounds.exponents(cfg["gamma"], cfg["d"], cfg["beta"], cfg["delta"])
    payload = {}
    if cfg["gamma"] ** 2 < cfg["d"]:
        ratio = cfg["energy_ratio"]
        if ratio is None and cfg["measure"] is not None:
            atoms = measure_mod.load_measure(cfg["measure"])
            ratio = measure_mod.d_energy(atoms, cfg["d"]) / atoms.total_mass
            payload["energy_ratio"] = ratio
        if ratio is not None:
            report = replace(report,
                             l2_t0=bounds.t0_from_ratio(ratio, cfg["gamma"], cfg["d"]))
    payload["exponents"] = report
    return cfg, payload, 0


def _cmd_laplace(args) -> tuple[dict, dict, int]:
    defaults = {"measure": None, "gamma": None, "t": None, "replicas": 10000,
                "seed": None, "epsilon": None}
    cfg = _resolve(args, defaults)
    _require(cfg, "gamma", "t")
    _resolve_seed(cfg)
    model = _load_model(cfg)
    report = bounds.laplace_transform(model, cfg["gamma"], cfg["t"],
                                      int(cfg["replicas"]), cfg["seed"])
    if args.csv:
        write_plot_csv(args.csv, report.t_values, report.estimates,
                       report.standard_errors, report.bound_values)
    return cfg, {"laplace": report, "stream_version": STREAM_VERSION,
                 "clip_magnitude": model.clip_magnitude}, 0


def _cmd_verify_bound(args) -> tuple[dict, dict, int]:
    defaults = {"measure": None, "gamma": None, "d": None, "beta": None,
                "delta": None, "l2": False, "replicas": 10000, "seed": None,
                "epsilon": None}
    cfg = _resolve(args, defaults)
    _require(cfg, "gamma", "d")
    if cfg["l2"]:
        cfg["beta"], cfg["delta"] = cfg["d"], 1.0
    _require(cfg, "beta", "delta")
    _resolve_seed(cfg)
    model = _load_model(cfg)
    report = bounds.verify_bound(model, cfg["gamma"], cfg["d"], cfg["beta"],
                                 cfg["delta"], int(cfg["replicas"]), cfg["seed"],
                                 l2=bool(cfg["l2"]))
    if args.csv:
        write_plot_csv(args.csv, report.laplace.t_values, report.laplace.estimates,
                       report.laplace.standard_errors, report.laplace.bound_values)
    payload = {"bound": report, "stream_version": STREAM_VERSION,
               "clip_magnitude": model.clip_magnitude}
    if report.trivial_pass:
        payload["warning"] = ("laplace estimates underflowed to zero at every "
                              "grid point; the bound holds vacuously at double "
                              "precision")
    return cfg, payload, 0 if report.verdict else 1


def _cmd_verify_identity(args) -> tuple[dict, dict, int]:
    defaults = {"measure": None, "gamma": None, "gamma_prime": None,
                "replicas": 1000, "seed": None, "epsilon": None,
                "tolerance": IDENTITY_TOLERANCE}
    cfg = _resolve(args, defaults)
    _require(cfg, "gamma", "gamma_prime")
    _resolve_seed(cfg)
    model = _load_model(cfg)
    errors = gmc.rooted_identity_errors(model, cfg["seed"], int(cfg["replicas"]),
                                        cfg["gamma"], cfg["gamma_prime"])
    worst = float(errors.max())
    ok = worst <= cfg["tolerance"]
    payload = {"max_rel_err": worst, "mean_rel_err": float(errors.mean()),
               "passed": bool(ok), "stream_version": STREAM_VERSION,
               "clip_magnitude": model.clip_magnitude}
    return cfg, payload, 0 if ok else 1


def _cmd_verify_com(args) -> tuple[dict, dict, int]:
    defaults = {"measure": None, "gamma_prime": None, "statistic": "mass",
                "gamma": None, "cap": None, "atom_index": 0,
                "replicas": 10000, "seed": None, "epsilon": None}
    cfg = _resolve(args, defaults)
    _require(cfg, "gamma_prime")
    _resolve_seed(cfg)
    model = _load_model(cfg)
    if cfg["statistic"] == "mass":
        if cfg["gamma"] is None:
            cfg["gamma"] = cfg["gamma_prime"]
        if cfg["cap"] is None:
            cfg["cap"] = 10.0 * model.measure.total_mass
        stat = gmc.clipped_mass_statistic(model, cfg["gamma"], cfg["cap"])
    elif cfg["statistic"] == "atom-value":
        index = int(cfg["atom_index"])
        if not 0 <= index < model.n:
            raise ValidationError("atom_index out of range")
        stat = gmc.atom_value_statistic(index)
    else:
        raise ValidationError("statistic must be 'mass' or 'atom-value'")
    report = gmc.verify_change_of_measure(model, cfg["gamma_prime"], stat,
                                          int(cfg["replicas"]), cfg["seed"])
    return cfg, {"change_of_measure": report, "stream_version": STREAM_VERSION,
                 "clip_magnitude": model.clip_magnitude}, 0 if report.overlap else 1


def _cmd_verify_ineq(args) -> tuple[dict, dict, int]:
    defaults = {"measure": None, "which": None, "gamma": 0.8, "s": 1.0,
                "t": 2.0, "r_inner": 0.5, "radii": [0.5, 0.7, 0.9],
                "replicas": 20000, "seed": None, "epsilon": None}
    cfg = _resolve(args, defaults)
    _require(cfg, "which")
    try:
        if cfg["which"] == "fkg":
            _resolve_seed(cfg)
            model = _load_model(cfg)
            verdicts = [inequalities.fkg_check(model, cfg["gamma"], cfg["s"],
                                               cfg["t"], int(cfg["replicas"]),
                                               cfg["seed"])]
            clip = model.clip_magnitude
        elif cfg["which"] == "kahane":
            _resolve_seed(cfg)
            _require(cfg, "measure")
            atoms = measure_mod.load_measure(cfg["measure"])
            if cfg["epsilon"] is None:
                cfg["epsilon"] = default_epsilon(atoms)
            verdicts = [inequalities.kahane_check(atoms, cfg["gamma"],
                                                  cfg["r_inner"], cfg["t"],
                                                  int(cfg["replicas"]), cfg["seed"],
                                                  epsilon=cfg["epsilon"])]
            details = verdicts[0].details
            clip = max(details["clip_magnitude_subdisk"],
                       details["clip_magnitude_disk"])
        elif cfg["which"] == "markov":
            _require(cfg, "measure")
            atoms = measure_mod.load_measure(cfg["measure"])
            verdicts = inequalities.markov_psd_suite(atoms, cfg["radii"])
        else:
            raise ValidationError("which must be fkg, kahane or markov")
    except HypothesisViolationError as exc:
        return cfg, {"skipped": True, "reason": str(exc)}, 0
    payload = {"verdicts": verdicts}
    if cfg["which"] != "markov":
        payload["stream_version"] = STREAM_VERSION
        payload["clip_magnitude"] = clip
    all_pass = all(v.passed for v in verdicts)
    return cfg, payload, 0 if all_pass else 1


def _cmd_split(args) -> tuple[dict, dict, int]:
    cfg = _resolve(args, {"measure": None})
    _require(cfg, "measure")
    atoms = measure_mod.load_measure(cfg["measure"])
    result = measure_mod.split_half_plane(atoms)
    return cfg, {"split": result, "total_mass": atoms.total_mass}, 0


def _cmd_tail(args) -> tuple[dict, dict, int]:
    defaults = {"measure": None, "gamma": None, "eps": None,
                "replicas": 10000, "seed": None, "epsilon": None}
    cfg = _resolve(args, defaults)
    _require(cfg, "gamma", "eps")
    _resolve_seed(cfg)
    model = _load_model(cfg)
    report = bounds.small_ball_tail(model, cfg["gamma"], cfg["eps"],
                                    int(cfg["replicas"]), cfg["seed"])
    return cfg, {"tail": report, "stream_version": STREAM_VERSION,
                 "clip_magnitude": model.clip_magnitude}, 0


# ----------------------------------------------------------------- parser


def _add_exec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with default parameters")
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp for byte-stable reports")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmclab",
        description="Monte Carlo laboratory for multiplicative chaos measures "
                    "over atomic base measures on the unit disk")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a generated measure as CSV")
    p.add_argument("kind", choices=["grid", "cantor", "julia"])
    p.add_argument("--out", dest="measure_out", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--radius", type=float)
    p.add_argument("--level", type=int)
    p.add_argument("--c", type=_complex_arg)
    p.add_argument("--pixels", type=int)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.set_defaults(handler=_cmd_generate)
    p.add_argument("--config", help="JSON file with default parameters")
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(out=None)

    def command(name, handler, help_text, *, seeded=True, csv=False):
        q = sub.add_parser(name, help=help_text)
        _add_exec_flags(q)
        q.set_defaults(handler=handler)
        q.add_argument("--measure", help="measure CSV path")
        if seeded:
            q.add_argument("--seed", type=int)
            q.add_argument("--replicas", type=int)
            q.add_argument("--epsilon", type=float)
        if csv:
            q.add_argument("--csv", help="write plot data t,estimate,stderr,bound")
        else:
            q.set_defaults(csv=None)
        return q

    q = command("energy", _cmd_energy, "interaction energy of a measure", seeded=False)
    q.add_argument("--d", type=float)

    q = command("exponents", _cmd_exponents, "admissible decay exponents", seeded=False)
    q.add_argument("--gamma", type=float)
    q.add_argument("--d", type=float)
    q.add_argument("--beta", type=float)
    q.add_argument("--delta", type=float)
    q.add_argument("--l2", action="store_true", default=None)
    q.add_argument("--energy-ratio", dest="energy_ratio", type=float)

    q = command("laplace", _cmd_laplace, "Monte Carlo Laplace transform", csv=True)
    q.add_argument("--gamma", type=float)
    q.add_argument("--t", type=_float_list)

    q = command("verify-bound", _cmd_verify_bound,
                "negative-moment bound over a t grid", csv=True)
    q.add_argument("--gamma", type=float)
    q.add_argument("--d", type=float)
    q.add_argument("--beta", type=float)
    q.add_argument("--delta", type=float)
    q.add_argument("--l2", action="store_true", default=None)

    q = command("verify-identity", _cmd_verify_identity,
                "rooted change-of-measure identity, replica by replica")
    q.add_argument("--gamma", type=float)
    q.add_argument("--gamma-prime", dest="gamma_prime", type=float)
    q.add_argument("--tolerance", type=float)

    q = command("verify-change-of-measure", _cmd_verify_com,
                "two-sample comparison of the rooted change of measure")
    q.add_argument("--gamma-prime", dest="gamma_prime", type=float)
    q.add_argument("--gamma", type=float)
    q.add_argument("--statistic", choices=["mass", "atom-value"])
    q.add_argument("--cap", type=float)
    q.add_argument("--atom-index", dest="atom_index", type=int)

    q = command("verify-ineq", _cmd_verify_ineq, "correlation inequality harnesses")
    q.add_argument("--which", choices=["fkg", "kahane", "markov"])
    q.add_argument("--gamma", type=float)
    q.add_argument("--s", type=float)
    q.add_argument("--t", type=float)
    q.add_argument("--r-inner", dest="r_inner", type=float)
    q.add_argument("--radii", type=_float_list)

    command("split", _cmd_split, "quarter-mass half-plane split", seeded=False)

    q = command("tail", _cmd_tail, "small-mass tail frequencies")
    q.add_argument("--gamma", type=float)
    q.add_argument("--eps", type=_float_list)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, payload, code = args.handler(args)
    except GmcLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = render_report(args.command, cfg, payload,
                         timestamp=not args.no_timestamp)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return code


def run() -> None:
    sys.exit(main())
