"""Workloads, one pass over a workload's CLI invocations, the per-layer split
of a traced pass, and the output checks.

`run.py` runs every pass in a fresh interpreter as

    python3 perfbench/harness.py <workload> <seed> <trace 0|1> <scratch dir>

which prints one JSON object on its last stdout line.  A pass calls
`configeo.cli.main` once for every invocation of the workload, in order, each
into its own temporary `--out` directory under <scratch dir>, removed
afterwards.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED = Path(__file__).with_name("expected.json")

# Report columns that are checked: exact integers, and floats within RTOL of
# the recorded value (energy values and Monte Carlo magnitudes are seeded and
# deterministic, so the tolerance only absorbs last-digit summation changes).
CHECKED_COLUMNS = {"n": int, "count": int, "delta": float, "value": float, "magnitude": float}
RTOL = 1e-9

# Scan targets are fixed to the ones `scan` samples itself at seed 0.  Without
# them the seed also picks the target, and the work per seed varied by 1.7x.
K2_T = "0.84394696501007338;0.28126463736981633;0.60262134029998871"
K3_T = (
    "0.76996015502993531;0.98045084307525887;0.35494626443462163;"
    "0.36793876986303059;0.86132037137071527;0.93668851904153538"
)

# workload -> [(label, argv without --seed/--out)]; why each exists: NOTES.md
WORKLOADS: dict[str, list[tuple[str, list[str]]]] = {
    "scan-simplex-k2": [
        ("scan", ["scan", "--kind", "uniform_random", "--d", "2", "--family", "simplex",
                  "--k", "2", "--schedule", "250;500;1000;2000", "--t", K2_T]),
    ],
    "scan-simplex-k3": [
        ("scan", ["scan", "--kind", "homogeneous", "--d", "3", "--family", "simplex",
                  "--k", "3", "--schedule", "27;64;125;216", "--t", K3_T]),
    ],
    "survey-dense": [
        ("count-volume-d2", ["count", "--kind", "homogeneous", "--d", "2", "--m", "20",
                             "--family", "volume", "--t", "0.1", "--delta", "0.005"]),
        ("count-volume-d3", ["count", "--kind", "homogeneous", "--d", "3", "--m", "5",
                             "--family", "volume", "--t", "0.02", "--delta", "0.002"]),
        ("count-area2-d3", ["count", "--kind", "homogeneous", "--d", "3", "--m", "7",
                            "--family", "area2", "--t", "0.1", "--delta", "0.005"]),
        ("count-angle-d2", ["count", "--kind", "homogeneous", "--d", "2", "--m", "20",
                            "--family", "angle", "--t", "1.0", "--delta", "0.01"]),
        ("energy-d2", ["energy", "--kind", "uniform_random", "--d", "2", "--n", "8000",
                       "--s-grid", "1;1.9"]),
        ("ft-chain-spheres-d3", ["ft", "--kind", "chain_spheres", "--d", "3", "--rmin", "1",
                                 "--rmax", "20", "--nradii", "24", "--samples", "400000"]),
    ],
}

# Layer times that partition the traced wall time: leaf layers by busy time,
# layers that call other layers by self time.
ACCOUNTED = (
    "cli.self_s",
    "expfit.self_s",
    "fourierlab.decay_fit.self_s",
    "fourierlab.mc.busy_s",
    "pointgen.busy_s",
    "energy.busy_s",
    "configcount.simplex.busy_s",
    "configcount.volume.busy_s",
    "configcount.area2.busy_s",
    "configcount.angle.busy_s",
)


@dataclass
class Invocation:
    label: str
    rc: int | None  # None when main raised
    seconds: float
    outputs: dict[str, list]
    bytes_written: int


def read_outputs(out_dir: Path) -> dict[str, list]:
    """The checked columns of every CSV report in out_dir."""
    outputs: dict[str, list] = {}
    for path in sorted(out_dir.glob("*.csv")):
        lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
        for row in csv.DictReader(lines):
            for column, cast in CHECKED_COLUMNS.items():
                if column in row:
                    outputs.setdefault(column, []).append(cast(row[column]))
    return outputs


def run_pass(workload: str, seed: int, scratch: Path, tracer: Tracer | None = None) -> list[Invocation]:
    from configeo import cli

    calls = []
    for request, (label, argv) in enumerate(WORKLOADS[workload]):
        out_dir = Path(tempfile.mkdtemp(dir=scratch))
        if tracer is not None:
            tracer.request = request
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = time.perf_counter()
                try:
                    rc = cli.main(argv + ["--seed", str(seed), "--out", str(out_dir)])
                except Exception:  # a crash is one failed invocation; the run goes on
                    rc = None
                    traceback.print_exc()
                seconds = time.perf_counter() - start
            if rc != 0:
                sys.stderr.write(f"{label}: exit code {rc}\n{sink.getvalue()}")
            files = [p for p in out_dir.iterdir() if p.is_file()]
            calls.append(Invocation(label, rc, seconds, read_outputs(out_dir),
                                    sum(p.stat().st_size for p in files)))
        finally:
            shutil.rmtree(out_dir)
    return calls


def install_tracing(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    from configeo import cli, configcount, energy, expfit

    def by_family(args):
        return f"configcount.{args['query'].family}"

    def points(args, ps):
        return {"calls": 1, "points": ps.n}

    def tuples(args, report):
        return {"calls": 1, "tuples": report.count}

    def pairs(args, value):
        return {"calls": 1, "pairs": args["ps"].n * (args["ps"].n - 1)}

    plan = [
        (cli, "main", "cli", lambda args, rc: {"invocations": 1}),
        (cli, "run_scan", "expfit", lambda args, report: {"scans": 1}),
        (cli, "generate", "pointgen", points),
        (expfit, "generate", "pointgen", points),
        (cli, "run_query", by_family, None),
        (expfit, "run_query", by_family, None),
        (configcount, "count_simplex", "configcount.simplex", tuples),
        (configcount, "count_volume", "configcount.volume", tuples),
        (configcount, "count_area2", "configcount.area2", tuples),
        (configcount, "count_angle", "configcount.angle", tuples),
        (cli, "energy_profile", "energy", None),
        (expfit, "is_adaptable", "energy", None),
        (energy, "discrete_energy", "energy", pairs),
        (cli, "decay_fit", "fourierlab.decay_fit", None),
        (cli, "ft_montecarlo", "fourierlab.mc", lambda args, out: {"samples": args["samples"]}),
    ]
    for module, name, layer, count in plan:
        if hasattr(module, name):
            tracer.wrap(module, name, layer, count)
        else:
            sys.stderr.write(f"trace: {module.__name__}.{name} is gone; its layer is not traced\n")


def traced_pass(workload: str, seed: int, scratch: Path) -> tuple[list[Invocation], Tracer]:
    tracer = Tracer()
    install_tracing(tracer)
    try:
        calls = run_pass(workload, seed, scratch, tracer)
    finally:
        tracer.restore()
    return calls, tracer


def layer_metrics(calls: list[Invocation], tracer: Tracer) -> dict[str, float]:
    metrics = tracer.layer_metrics()
    metrics["cli.bytes_written"] = sum(c.bytes_written for c in calls)
    metrics["trace.wall_s"] = tracer.wall()
    metrics["trace.unaccounted_s"] = metrics["trace.wall_s"] - sum(
        metrics.get(name, 0.0) for name in ACCOUNTED
    )
    return metrics


def mismatch(got: dict[str, list], want: dict[str, list]) -> str | None:
    """Why got differs from want, or None when it matches."""
    if sorted(got) != sorted(want):
        return f"columns {sorted(got)}, expected {sorted(want)}"
    for column, values in want.items():
        if len(got[column]) != len(values):
            return f"{column}: {len(got[column])} rows, expected {len(values)}"
        for g, w in zip(got[column], values):
            bad = g != w if isinstance(w, int) else abs(g - w) > RTOL * abs(w)
            if bad:
                return f"{column}: {g!r}, expected {w!r}"
    return None


def oracle_mismatch(argv: list[str], seed: int, outputs: dict[str, list]) -> str | None:
    """Recount the scan steps the exhaustive oracle can afford, on the point
    sets `scan` generates (step i uses seed + i)."""
    from configeo.configcount import BRUTE_EVAL_BUDGET, count_simplex_brute
    from configeo.pointgen import GeneratorSpec, generate

    flags = dict(zip(argv[1::2], argv[2::2]))
    kind, d, k = flags["--kind"], int(flags["--d"]), int(flags["--k"])
    t = tuple(float(x) for x in flags["--t"].split(";"))
    steps = zip(outputs.get("n", []), outputs.get("delta", []), outputs.get("count", []))
    for step, (n, delta, count) in enumerate(steps):
        if n ** (k + 1) > BRUTE_EVAL_BUDGET:
            continue
        if kind == "homogeneous":
            spec = GeneratorSpec.make(kind, d=d, m=round(n ** (1.0 / d)), seed=seed + step, jitter=0.25)
        else:
            spec = GeneratorSpec.make(kind, d=d, n=n, seed=seed + step)
        want = count_simplex_brute(generate(spec), k, t, delta).count
        if want != count:
            return f"n={n}: count {count}, oracle {want}"
    return None


def check(workload: str, seed: int, passes: list[list[Invocation]], expected: dict | None) -> list[str]:
    """One message per failed invocation: an unexpected exit code, or outputs
    that differ from the recorded ones (or, with none recorded, from the first
    pass or from the oracle)."""
    argv = dict(WORKLOADS[workload])
    reference = expected or {c.label: c.outputs for c in passes[0]}
    oracle = {
        label: oracle_mismatch(args, seed, reference[label])
        for label, args in argv.items()
        if args[0] == "scan" and label in reference
    }
    failures = []
    for i, calls in enumerate(passes):
        for c in calls:
            if c.rc != 0:
                why = f"exit code {c.rc}"
            elif c.label not in reference:
                why = "no recorded outputs"
            else:
                why = mismatch(c.outputs, reference[c.label]) or oracle.get(c.label)
            if why:
                failures.append(f"pass {i} {c.label}: {why}")
    return failures


def blas_threads() -> int | str:
    """OpenBLAS's thread count, read from the copy numpy loaded."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
    }


def main(argv: list[str]) -> int:
    workload, seed, trace, scratch = argv[1], int(argv[2]), argv[3] == "1", Path(argv[4])
    sys.path.insert(0, str(SRC))
    import configeo.cli

    if not Path(configeo.cli.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"configeo was imported from {configeo.cli.__file__}, not from {SRC}\n")
        return 2
    if trace:
        calls, tracer = traced_pass(workload, seed, scratch)
    else:
        calls = run_pass(workload, seed, scratch)
    result = {
        "invocations": [asdict(c) for c in calls],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace:
        result["layers"] = layer_metrics(calls, tracer)
        result["spans"] = tracer.as_records()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
