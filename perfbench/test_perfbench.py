"""Tests of the benchmark itself: span arithmetic, layer accounting on real
CLI calls, and the output checks."""

import copy
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import harness
from tracing import Tracer

sys.path.insert(0, str(harness.SRC))

TINY = [
    ("scan", ["scan", "--kind", "uniform_random", "--d", "2", "--family", "simplex",
              "--k", "2", "--schedule", "30;60;120", "--t", harness.K2_T]),
    ("count", ["count", "--kind", "homogeneous", "--d", "2", "--m", "6",
               "--family", "volume", "--t", "0.1", "--delta", "0.01"]),
    ("energy", ["energy", "--kind", "uniform_random", "--d", "2", "--n", "300", "--s-grid", "1;1.5"]),
    ("ft", ["ft", "--kind", "chain_spheres", "--d", "3", "--rmin", "1", "--rmax", "20",
            "--nradii", "6", "--samples", "20000"]),
]


@pytest.fixture(scope="module")
def tiny():
    harness.WORKLOADS["tiny"] = TINY
    yield "tiny"
    del harness.WORKLOADS["tiny"]


@pytest.fixture(scope="module")
def tiny_pass(tiny, tmp_path_factory):
    return harness.run_pass(tiny, 3, tmp_path_factory.mktemp("out"))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_child_spans():
    clock = FakeClock()
    mod = types.SimpleNamespace()

    def leaf(x):
        clock.now += x
        return x

    def outer():
        clock.now += 1.0
        mod.leaf(3.0)
        clock.now += 2.0
        mod.leaf(4.0)
        return "done"

    mod.leaf, mod.outer = leaf, outer
    tracer = Tracer(clock)
    tracer.wrap(mod, "outer", "top", lambda args, result: {"calls": 1})
    tracer.wrap(mod, "leaf", "bottom", lambda args, result: {"work": int(args["x"])})

    assert mod.outer() == "done"
    metrics = tracer.layer_metrics()
    assert metrics["top.busy_s"] == 10.0
    assert metrics["top.self_s"] == 3.0
    assert metrics["bottom.busy_s"] == metrics["bottom.self_s"] == 7.0
    assert metrics["top.calls"] == 1 and metrics["bottom.work"] == 7
    assert tracer.wall() == 10.0

    tracer.restore()
    assert mod.outer is outer and mod.leaf is leaf


def test_same_layer_nesting_counts_busy_time_once():
    clock = FakeClock()
    mod = types.SimpleNamespace()

    def inner():
        clock.now += 2.0

    def dispatch():
        clock.now += 0.5
        mod.inner()

    mod.inner, mod.dispatch = inner, dispatch
    tracer = Tracer(clock)
    tracer.wrap(mod, "dispatch", "layer")
    tracer.wrap(mod, "inner", "layer")
    mod.dispatch()
    metrics = tracer.layer_metrics()
    assert metrics["layer.busy_s"] == metrics["layer.self_s"] == 2.5


def test_layers_account_for_traced_wall(tiny, tmp_path):
    calls, tracer = harness.traced_pass(tiny, 3, tmp_path)
    assert [c.rc for c in calls] == [0, 0, 0, 0]
    metrics = harness.layer_metrics(calls, tracer)

    accounted = sum(metrics.get(name, 0.0) for name in harness.ACCOUNTED)
    assert accounted == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert abs(metrics["trace.unaccounted_s"]) <= 1e-9 * metrics["trace.wall_s"]
    assert metrics["cli.invocations"] == 4
    assert metrics["expfit.scans"] == 1
    assert metrics["configcount.simplex.calls"] == 3
    assert metrics["configcount.simplex.tuples"] == sum(calls[0].outputs["count"])
    assert metrics["configcount.volume.tuples"] == calls[1].outputs["count"][0]
    assert metrics["energy.pairs"] == 30 * 29 + 60 * 59 + 120 * 119 + 2 * 300 * 299
    assert metrics["fourierlab.mc.samples"] == 6 * 20000
    assert metrics["pointgen.points"] == 30 + 60 + 120 + 36 + 300
    assert metrics["cli.bytes_written"] > 0
    assert list(tmp_path.iterdir()) == []

    from configeo import cli, configcount, energy, expfit

    for module in (cli, configcount, energy, expfit):
        assert not any(hasattr(v, "__wrapped__") for v in vars(module).values() if callable(v))


def test_wrong_recorded_count_is_a_failure(tiny, tiny_pass):
    passes = [tiny_pass]
    recorded = json.loads(json.dumps({c.label: c.outputs for c in passes[0]}))
    assert harness.check(tiny, 3, passes, recorded) == []

    recorded["count"]["count"][0] += 1
    failures = harness.check(tiny, 3, passes, recorded)
    assert len(failures) == 1 and failures[0].startswith("pass 0 count: count")


def test_float_outputs_checked_within_tolerance(tiny, tiny_pass):
    passes = [tiny_pass]
    recorded = json.loads(json.dumps({c.label: c.outputs for c in passes[0]}))
    recorded["ft"]["magnitude"][2] *= 1 + 1e-12
    assert harness.check(tiny, 3, passes, recorded) == []
    recorded["energy"]["value"][1] *= 1 + 1e-6
    assert [f.split(":")[0] for f in harness.check(tiny, 3, passes, recorded)] == ["pass 0 energy"]


def test_unrecorded_seed_is_checked_by_the_oracle_and_across_passes(tiny, tiny_pass, tmp_path):
    first = copy.deepcopy(tiny_pass)
    second = harness.run_pass(tiny, 3, tmp_path)
    assert harness.check(tiny, 3, [first, second], None) == []

    second[1].outputs["count"][0] -= 1
    first[0].outputs["count"][1] += 1
    second[3].rc = 1
    failures = harness.check(tiny, 3, [first, second], None)
    assert any("scan" in f and "oracle" in f for f in failures)
    assert "pass 1 count: count" in " ".join(failures)
    assert "pass 1 ft: exit code 1" in failures


def test_runner_fails_without_the_package(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "survey-dense", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
