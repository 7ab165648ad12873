"""The benchmark's workloads: measures, CLI command lists and reference checks.

Each workload is a list of gmclab CLI commands over measures generated at
bench time through the public API. The workload seed reaches the program
only as ``--seed``; no command passes ``--threads``, so the default worker
count is what a user gets and deleting the pool cannot break a run.

Why these three (each one exercises a layer the other two bypass):

* many_replicas: small n, large N. Per-replica stream setup in
  ``field.normal_block`` and ``gmc.draw_roots`` takes nearly all the time.
  The light two-atom measure is the only case whose Laplace grid is graded
  non-trivially.
* many_atoms: n = 2304, small N. ``build_covariance`` dominates; the raw
  matrix is already positive definite, so the eigen-repair is wasted work.
* coarse_fractal: n = 1024 Cantor dust at a coarse epsilon, mid N. The PSD
  clip removes real eigenvalues, Cholesky of the repaired matrix falls back
  to QR, and the n x N arrays set peak memory.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

# tail frequencies must sit within this many binomial standard errors of the
# closed-form lognormal CDF; 5 SE makes a false alarm rarer than 1e-6 per
# threshold, so a miss means a wrong sampler, not an unlucky seed
TAIL_SE_TOLERANCE = 5.0
IDENTITY_TOLERANCE = 1e-10

SINGLE_ATOM = 0.3
LIGHT_ATOM, LIGHT_WEIGHT = 0.5, 0.04
TAIL_GAMMA = 1.0
TAIL_EPS = (0.1, 0.3, 0.5)


@dataclass(frozen=True)
class Command:
    """One CLI call: ``argv`` plus the measure file, replicas and epsilon."""

    label: str
    measure: str
    argv: tuple[str, ...]
    replicas: int
    epsilon: float | None = None
    # DiskKernel radii the command builds a covariance model for
    kernel_radii: tuple[float, ...] = (1.0,)
    checks: tuple[str, ...] = ()

    def cli_argv(self, measure_dir: str) -> list[str]:
        args = [*self.argv, "--measure", os.path.join(measure_dir, f"{self.measure}.csv"),
                "--replicas", str(self.replicas)]
        if self.epsilon is not None:
            args += ["--epsilon", repr(self.epsilon)]
        return args


def _cmd(label, measure, *argv, replicas, **kw) -> Command:
    return Command(label, measure, argv, replicas, **kw)


WORKLOADS: dict[str, tuple[Command, ...]] = {
    "many_replicas": (
        _cmd("tail", "single", "tail", "--gamma", str(TAIL_GAMMA),
             "--eps", ",".join(map(str, TAIL_EPS)),
             replicas=12500, checks=("tail_lognormal",)),
        _cmd("verify-bound --l2", "light", "verify-bound",
             "--gamma", "0.6", "--d", "1", "--l2",
             replicas=5000, checks=("graded_nontrivially",)),
        _cmd("laplace", "grid8", "laplace", "--gamma", "0.8", "--t", "1,5,25",
             replicas=5000),
        _cmd("verify-change-of-measure", "grid8", "verify-change-of-measure",
             "--gamma-prime", "0.6",
             replicas=5000),
        _cmd("verify-identity", "grid8", "verify-identity",
             "--gamma", "0.8", "--gamma-prime", "0.8",
             replicas=5000, checks=("identity",)),
    ),
    "many_atoms": (
        _cmd("laplace", "grid48", "laplace", "--gamma", "0.8", "--t", "1,5,25",
             replicas=2000),
        _cmd("verify-identity", "grid48", "verify-identity",
             "--gamma", "0.8", "--gamma-prime", "0.8",
             replicas=1000, checks=("identity",)),
    ),
    "coarse_fractal": (
        _cmd("verify-bound", "cantor5", "verify-bound",
             "--gamma", "1.2", "--d", "2", "--beta", "1.8", "--delta", "1",
             replicas=8000, epsilon=0.05, checks=("graded_trivially",)),
        _cmd("verify-ineq kahane", "cantor5", "verify-ineq", "--which", "kahane",
             replicas=8000, epsilon=0.05, kernel_radii=(0.5, 1.0)),
        _cmd("verify-ineq fkg", "cantor5", "verify-ineq", "--which", "fkg",
             replicas=8000, epsilon=0.05),
    ),
}


# Workloads whose end-to-end times are scaled to reference speed (see
# run.REFERENCE_S). Only many_replicas qualifies: its CLI calls take about
# 0.3 s, so the reference timed around each call follows the host's speed.
# The calls of the other two take seconds each; scaling them by the
# reference timed around them widened their run-to-run spread.
SCALED = frozenset({"many_replicas"})


def write_measures(directory: str, keys) -> None:
    """Generate every measure a workload names and save it as CSV."""
    import numpy as np
    from gmclab import (AtomicMeasure, generate_cantor_dust,
                        generate_uniform_grid, save_measure)

    factories = {
        "single": lambda: AtomicMeasure(np.array([SINGLE_ATOM + 0j]), np.array([1.0])),
        "light": lambda: AtomicMeasure(np.array([LIGHT_ATOM + 0j, -LIGHT_ATOM + 0j]),
                                       np.full(2, LIGHT_WEIGHT)),
        "grid8": lambda: generate_uniform_grid(8, 0.8),
        "grid48": lambda: generate_uniform_grid(48, 0.8),
        "cantor5": lambda: generate_cantor_dust(5, 0.4),
    }
    for key in sorted(set(keys)):
        save_measure(factories[key](), os.path.join(directory, f"{key}.csv"))


def _normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _tail_lognormal(report: dict, command: Command) -> str | None:
    # one atom at p, weight 1: mass = exp(gamma*h - gamma^2 v/2), h ~ N(0, v)
    # with v = log(1/eps) + log(1 - p^2) and the default eps = (1 - p)/2
    eps = (1.0 - SINGLE_ATOM) / 2.0
    v = math.log(1.0 / eps) + math.log(1.0 - SINGLE_ATOM ** 2)
    freqs = report["tail"]["frequencies"]
    if len(freqs) != len(TAIL_EPS):
        return f"expected {len(TAIL_EPS)} tail frequencies, got {len(freqs)}"
    n = command.replicas
    for threshold, freq in zip(TAIL_EPS, freqs):
        z = (math.log(threshold) + 0.5 * TAIL_GAMMA ** 2 * v) / (TAIL_GAMMA * math.sqrt(v))
        target = _normal_cdf(z)
        se = math.sqrt(target * (1.0 - target) / n)
        if not abs(freq - target) <= TAIL_SE_TOLERANCE * se:
            return f"tail frequency {freq} at {threshold} vs closed form {target:.6f}"
    return None


def _identity(report: dict, command: Command) -> str | None:
    worst = report["max_rel_err"]
    if worst is None or not worst <= IDENTITY_TOLERANCE:
        return f"max_rel_err {worst} exceeds {IDENTITY_TOLERANCE}"
    return None


def _trivial_pass(expected: bool):
    def check(report: dict, command: Command) -> str | None:
        if report["bound"]["trivial_pass"] is not expected:
            return f"trivial_pass is {report['bound']['trivial_pass']}, expected {expected}"
        return None
    return check


CHECKS = {
    "tail_lognormal": _tail_lognormal,
    "identity": _identity,
    "graded_nontrivially": _trivial_pass(False),
    "graded_trivially": _trivial_pass(True),
}


def check_report(command: Command, code, report: dict | None) -> str | None:
    """Reason the command missed its expected outcome, or None."""
    if code != 0:
        return f"exit code {code}"
    if report is None:
        return "no report written"
    for name in command.checks:
        try:
            problem = CHECKS[name](report, command)
        except (KeyError, TypeError) as exc:
            problem = f"report lacks the field {name} reads: {exc!r}"
        if problem:
            return f"{name}: {problem}"
    return None
