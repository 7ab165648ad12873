"""Tests of the benchmark's tracer and metric plumbing.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import json
import os

import numpy as np
import pytest

import gmclab
import gmclab.bounds
import gmclab.cli
import gmclab.field
import gmclab.gmc
import gmclab.inequalities
import gmclab.kernel
import run
import tracing
import workloads
from tracing import Span, Tracer, self_times, union_length

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

BINDINGS = [
    (gmclab.field, "field_matrix"),
    (gmclab.field, "normal_block"),
    (gmclab.bounds, "field_matrix"),
    (gmclab.gmc, "replica_generator"),
    (gmclab.cli, "build_covariance"),
    (gmclab.inequalities, "total_masses"),
    (gmclab, "build_covariance"),
    (gmclab.kernel.DiskKernel, "entry_matrix"),
    (gmclab.cli, "main"),
]


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6), (6, 6), (4, 4.5)]) == 4.5


def test_self_time_subtracts_union_of_overlapping_thread_children():
    spans = [
        Span("field.field_matrix", 0.0, 10.0, None),
        # two pool threads, overlapping in [3, 5]
        Span("field.normal_block", 1.0, 5.0, 0),
        Span("field.normal_block", 3.0, 8.0, 0),
        # grandchild: counts against its parent only
        Span("field.replica_generator", 3.5, 4.5, 2),
        # child overrunning its parent is clipped to the parent interval
        Span("gmc.mass_columns", 9.0, 11.0, 0),
    ]
    own = self_times(spans)
    assert own == pytest.approx([10.0 - 7.0 - 1.0, 4.0, 4.0, 1.0, 2.0])


def _tiny_cli(tmp_path, *argv):
    measure = tmp_path / "grid.csv"
    gmclab.save_measure(gmclab.generate_uniform_grid(4, 0.8), measure)
    out = tmp_path / "report.json"
    code = gmclab.cli.main([*argv, "--measure", str(measure), "--seed", "3",
                            "--no-timestamp", "--out", str(out)])
    return code, out.read_bytes()


def test_wrappers_replace_every_binding_and_are_restored():
    before = [getattr(owner, attr) for owner, attr in BINDINGS]
    with Tracer() as tracer:
        during = [getattr(owner, attr) for owner, attr in BINDINGS]
        model = gmclab.build_covariance(gmclab.generate_uniform_grid(4, 0.8))
        gmclab.gmc.total_masses(model, 0.8, 1, 8)
    after = [getattr(owner, attr) for owner, attr in BINDINGS]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))
    names = {s.name for s in tracer.spans}
    assert {"kernel.build_covariance", "kernel.entry_matrix",
            "field.field_matrix", "field.normal_block"} <= names
    assert tracer.calls["field.replica_generator"] == 8
    assert tracer.missing == []


def test_traced_and_untraced_runs_write_identical_reports(tmp_path):
    argv = ("verify-ineq", "--which", "fkg", "--gamma", "0.8", "--replicas", "3000")
    plain = _tiny_cli(tmp_path, *argv)
    with Tracer() as tracer:
        traced = _tiny_cli(tmp_path, *argv)
    assert plain == traced
    assert tracer.calls["field.replica_generator"] == 3000


def test_missing_function_is_reported_not_fatal(monkeypatch, tmp_path):
    monkeypatch.delattr(gmclab.field, "normal_block")
    monkeypatch.setattr(gmclab.field, "field_matrix",
                        lambda model, base_seed, indices, threads=1: np.zeros(
                            (model.n, len(indices))))
    tracer = Tracer()
    with tracer:
        pass
    assert "field.normal_block" in tracer.missing
    metrics = tracing.layer_metrics(tracer, 1, 0.0)
    assert metrics["field.normal_block.s"] == 0.0
    assert metrics["trace.missing"] >= 1


def test_kahane_generates_two_columns_per_replica(tmp_path):
    dust = tmp_path / "dust.csv"
    gmclab.save_measure(gmclab.generate_cantor_dust(2, 0.4), dust)
    with Tracer() as tracer:
        tracer.command = "verify-ineq kahane"
        gmclab.cli.main(["verify-ineq", "--which", "kahane", "--measure", str(dust),
                         "--replicas", "300", "--seed", "1", "--no-timestamp",
                         "--out", str(tmp_path / "r.json")])
    overall, by_command = tracing.columns_per_replica(tracer)
    assert by_command == {"verify-ineq kahane": 2.0}
    metrics = tracing.layer_metrics(tracer, 1, 0.0)
    assert metrics["kernel.build_covariance.calls"] == 2
    assert metrics["kernel.clip_useful_ratio"] in (0.0, 0.5, 1.0)
    assert metrics["field.field_matrix.columns"] == 600


def test_tail_check_rejects_a_shifted_frequency():
    command = workloads.WORKLOADS["many_replicas"][0]
    assert command.checks == ("tail_lognormal",)
    eps = (1.0 - workloads.SINGLE_ATOM) / 2.0
    v = np.log(1.0 / eps) + np.log(1.0 - workloads.SINGLE_ATOM ** 2)
    exact = [workloads._normal_cdf((np.log(t) + 0.5 * v) / np.sqrt(v))
             for t in workloads.TAIL_EPS]
    good = {"tail": {"frequencies": exact}}
    assert workloads.check_report(command, 0, good) is None
    bad = {"tail": {"frequencies": [f + 0.02 for f in exact]}}
    assert "tail_lognormal" in workloads.check_report(command, 0, bad)
    assert workloads.check_report(command, 1, good) == "exit code 1"


def test_benchmark_json_names_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_reference_timing_restores_cpu_affinity():
    before = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    assert run.Speed().reference_s() > 0
    if before is not None:
        assert os.sched_getaffinity(0) == before


def test_unscaled_speed_times_nothing():
    speed = run.Speed(scaled=False)
    assert speed.factor() == 1.0 and speed.references == []
    speed = run.Speed(scaled=True)
    assert speed.factor() > 0 and len(speed.references) == 2


def test_setup_counts_a_repeated_model_once_per_use(tmp_path, monkeypatch):
    runner = run.Runner("many_atoms", 1, str(tmp_path))
    built = []
    monkeypatch.setattr(gmclab, "build_covariance", lambda *args: built.append(args))
    runner.setup_once()
    # laplace and verify-identity need the same model: one build stands for two
    assert len(built) == 1
    assert sum(len(c.kernel_radii) for c in runner.commands) == 2
