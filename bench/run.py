"""gmclab benchmark: time CLI workloads end to end, or trace them per layer.

    python3 bench/run.py --workload many_replicas --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root. Each workload runs in a fresh child process
that imports gmclab from ``src`` and drives ``gmclab.cli.main`` in-process, so
its peak memory is its own. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. With ``--trace
0`` the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones from a traced run (see tracing.py). Scratch files go to ``.bench_tmp`` in
the repository root and are removed afterwards.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".bench_tmp")

CHILD_TIMEOUT_S = 170
# at least two passes, so report bytes can be compared between them
MIN_PASSES = 2
# each set-up phase repeats the set-up until it has run this long
SETUP_PHASE_S = 0.25

# timed inside every untraced pass, so the sampling share of a pass is its
# wall time minus these, measured on the same pass
SETUP_FUNCTIONS = ("measure.load_measure", "kernel.build_covariance")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("replicas_per_s", "1/s"),
              ("peak_rss_mb", "MB"))

# On the workloads in workloads.SCALED, end-to-end times are scaled to a host
# on which Speed.reference_s() takes this long. Each virtual CPU of a shared
# host switches between speeds about 1.4x apart every few seconds, for
# interpreted and BLAS code alike. Timing the fixed reference unit right
# before and after each timed call and dividing by it removes most of that
# swing, as long as the calls are short against those few seconds.
REFERENCE_S = 0.008
# the reference unit runs on at most this many CPUs, to bound its cost
REFERENCE_CPUS = 8


class Speed:
    """Scale factors to reference speed, one per timed call.

    Each call to ``factor`` times the reference unit once more and averages
    it with the previous timing, which brackets the call just made. With
    ``scaled`` false every factor is 1 and nothing is timed.
    """

    def __init__(self, scaled: bool = True):
        self.scaled = scaled
        self.references: list[float] = []
        if scaled:
            import numpy as np

            self._matrix = np.random.default_rng(0).standard_normal((192, 192))
            self.last = self.reference_s()
            self.references.append(self.last)

    def _reference_part(self) -> float:
        import numpy as np

        t0 = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i
        for key in range(13):
            np.random.Generator(np.random.Philox(key)).standard_normal(64)
        for _ in range(2):
            self._matrix @ self._matrix
        return time.perf_counter() - t0

    def reference_s(self, repeats: int = 3) -> float:
        """Wall time of a fixed unit of interpreted, Philox and BLAS work.

        The unit runs once on each CPU the process may use (at most
        REFERENCE_CPUS of them), since each virtual CPU of a shared host
        slows down on its own, and the mean is returned. On each CPU the unit
        runs in ``repeats`` equal parts and each part counts at its fastest,
        so a garbage-collection pause inside one part does not count.
        """
        if not hasattr(os, "sched_setaffinity"):
            return repeats * min(self._reference_part() for _ in range(repeats))
        allowed = os.sched_getaffinity(0)
        times = []
        try:
            for cpu in sorted(allowed)[:REFERENCE_CPUS]:
                os.sched_setaffinity(0, {cpu})
                times.append(repeats * min(self._reference_part() for _ in range(repeats)))
        finally:
            os.sched_setaffinity(0, allowed)
        return statistics.fmean(times)

    def factor(self) -> float:
        if not self.scaled:
            return 1.0
        before, self.last = self.last, self.reference_s()
        self.references.append(self.last)
        return REFERENCE_S / ((before + self.last) / 2.0)


# ------------------------------------------------------------ child side


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    commit = ""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                    capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(np),
        "commit": commit or "unknown",
    }


def _blas_threads(np):
    """Thread count of the OpenBLAS bundled with numpy, else the env setting."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") \
        or "default"


class Runner:
    """Runs one workload's command list through gmclab.cli.main and grades it."""

    def __init__(self, name: str, seed: int, workdir: str):
        self.commands = workloads.WORKLOADS[name]
        self.seed = seed
        self.workdir = workdir
        self.first_bytes: dict[str, bytes] = {}
        self.attempted = 0
        self.failures: list[str] = []
        workloads.write_measures(workdir, [c.measure for c in self.commands])

    def run_pass(self, tracer=None, pass_index: int = 0, speed=None, clock=None):
        """One pass over the command list.

        Returns the summed CLI wall time, that time scaled by ``speed``, and
        the scaled time net of the set-up that ``clock`` (a Tracer over
        SETUP_FUNCTIONS) clocked inside the pass; without ``clock`` the last
        is 0.
        """
        from gmclab import cli

        speed = speed or Speed(scaled=False)
        wall = scaled = sampling = 0.0
        out = os.path.join(self.workdir, "report.json")
        for command in self.commands:
            if os.path.exists(out):
                os.remove(out)
            argv = command.cli_argv(self.workdir) + [
                "--seed", str(self.seed), "--no-timestamp", "--out", out]
            if tracer is not None:
                tracer.pass_index, tracer.command = pass_index, command.label
            code = None
            setup0 = sum(clock.seconds.values()) if clock is not None else 0.0
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # graded as a miss; the run goes on
                traceback.print_exc()
                code = "exception"
            elapsed = time.perf_counter() - t0
            wall += elapsed
            factor = speed.factor()
            scaled += elapsed * factor
            if clock is not None:
                setup = sum(clock.seconds.values()) - setup0
                sampling += (elapsed - setup) * factor
            self._grade(command, code, out)
        return wall, scaled, sampling

    def _grade(self, command, code, out: str) -> None:
        self.attempted += 1
        data, report = None, None
        if os.path.exists(out):
            with open(out, "rb") as handle:
                data = handle.read()
            try:
                report = json.loads(data)
            except ValueError:
                report = None
        problem = workloads.check_report(command, code, report)
        first = self.first_bytes.setdefault(command.label, data)
        if problem is None and data != first:
            problem = "report bytes differ from the first pass"
        if problem is not None:
            self.failures.append(f"{command.label}: {problem}")
            print(f"MISS {command.label}: {problem}", file=sys.stderr)

    def setup_once(self) -> float:
        """Time to load every measure and build every covariance model a pass needs.

        A model the pass builds k times (same measure, epsilon and radius) is
        built once here and its time counted k times, which halves the set-up
        phase on many_atoms and so leaves room for more passes in a run.
        """
        from gmclab import DiskKernel, build_covariance, load_measure

        total = 0.0
        atoms = {}
        for command in self.commands:
            t0 = time.perf_counter()
            atoms[command.measure] = load_measure(
                os.path.join(self.workdir, f"{command.measure}.csv"))
            total += time.perf_counter() - t0
        models = Counter((c.measure, c.epsilon, radius)
                         for c in self.commands for radius in c.kernel_radii)
        for (measure, epsilon, radius), count in models.items():
            t0 = time.perf_counter()
            build_covariance(atoms[measure], epsilon, DiskKernel(radius))
            total += count * (time.perf_counter() - t0)
        return total


def _timed_run(runner: Runner, seconds: float, scaled: bool) -> dict:
    raw_walls, walls, raw_setups, setups, sampling = [], [], [], [], []
    start = time.perf_counter()
    speed = Speed(scaled)
    while True:
        cycle_start = time.perf_counter()
        while True:
            raw_setups.append(runner.setup_once())
            setups.append(raw_setups[-1] * speed.factor())
            if time.perf_counter() - cycle_start >= SETUP_PHASE_S:
                break
        with tracing.Tracer(only=SETUP_FUNCTIONS) as clock:
            wall, scaled_wall, net = runner.run_pass(speed=speed, clock=clock)
        raw_walls.append(wall)
        walls.append(scaled_wall)
        sampling.append(net)
        cycle = time.perf_counter() - cycle_start
        if len(walls) >= MIN_PASSES and time.perf_counter() - start + cycle > seconds:
            break
    result = {"walls": walls, "setups": setups, "sampling": sampling}
    if scaled:
        result.update(raw_walls=raw_walls, raw_setups=raw_setups,
                      references=speed.references)
    return result


def _traced_run(runner: Runner, seconds: float) -> dict:
    plain, traced = [], []
    tracer = tracing.Tracer()
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        plain.append(runner.run_pass()[0])
        with tracer:
            traced.append(runner.run_pass(tracer, len(traced))[0])
        pair = time.perf_counter() - pair_start
        if time.perf_counter() - start + pair > seconds:
            break
    overhead = statistics.median(traced) - statistics.median(plain)
    _, by_command = tracing.columns_per_replica(tracer)
    return {
        "walls": plain, "traced_walls": traced,
        "layers": tracing.layer_metrics(tracer, len(traced), overhead),
        "columns_per_replica": by_command,
        "missing": tracer.missing,
        "observe_errors": sorted(tracer.observe_errors),
    }


def child_main(args) -> int:
    sys.path.insert(0, SRC)
    workdir = os.path.join(TMP, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = Runner(args.workload, args.seed, workdir)
        if args.trace:
            result = _traced_run(runner, args.seconds)
        else:
            result = _timed_run(runner, args.seconds,
                                args.workload in workloads.SCALED)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(TMP)
        except OSError:  # another run still uses it
            pass
    result.update(
        attempted=runner.attempted, failures=runner.failures,
        replicas=sum(c.replicas for c in runner.commands),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=_environment())
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------- parent side


def _spawn(name: str, args) -> dict:
    argv = [sys.executable, os.path.abspath(__file__), "--child",
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _metrics(child: dict, trace_on: bool) -> dict:
    if trace_on:
        return {name: {"value": child["layers"][name], "unit": unit}
                for name, unit in tracing.LAYER_METRICS}
    values = {
        "wall_s": statistics.median(child["walls"]),
        "setup_s": statistics.median(child["setups"]),
        "replicas_per_s": child["replicas"] / statistics.median(child["sampling"]),
        "peak_rss_mb": child["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _describe(name: str, child: dict, metrics: dict) -> None:
    print(f"# {name} env {json.dumps(child['env'], sort_keys=True)}")
    for key in ("walls", "raw_walls", "traced_walls", "setups", "raw_setups", "sampling",
                "references"):
        if key in child:
            times = " ".join(f"{t:.4f}" for t in sorted(child[key]))
            print(f"# {name} {len(child[key])} {key} (s, sorted): {times}")
    for metric, entry in metrics.items():
        note = "  (computed, not measured)" if metric in tracing.COMPUTED else ""
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}{note}")
    attempted, failed = child["attempted"], len(child["failures"])
    print(f"{name} failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for label, ratio in sorted(child.get("columns_per_replica", {}).items()):
        print(f"{name} command '{label}' field.columns_per_replica {ratio:.6g}")
    for missing in child.get("missing", ()):
        print(f"{name} trace missing {missing}")
    for error in child.get("observe_errors", ()):
        print(f"{name} trace could not read the arguments of {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    if not os.path.isfile(os.path.join(SRC, "gmclab", "cli.py")):
        print(f"error: no gmclab sources under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = _spawn(name, args)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(len(r["failures"]) for r in results.values())
    metrics = {}
    for name, child in results.items():
        per_workload = _metrics(child, bool(args.trace))
        _describe(name, child, per_workload)
        if len(names) == 1:
            metrics = per_workload
        else:
            metrics.update({f"{name}.{k}": v for k, v in per_workload.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
