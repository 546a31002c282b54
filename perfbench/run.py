"""configeo benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload scan-simplex-k2 --seed 0 --seconds 30 --trace 0

Run from the repository root.  Set-up time is measured over fresh
interpreters that only import `configeo.cli`.  Every pass over the workload
then runs in a fresh interpreter of its own (`harness.py`), so each pass pays
the first-call costs a CLI user pays, and its peak memory is its own.  Passes
repeat while another one is expected to end within `--seconds`.  With
`--trace 0` the metrics are the end-to-end ones of BENCHMARK.json; with
`--trace 1` the per-layer ones, from untraced passes followed by traced
passes, never at the same time.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Results, span records and the outputs of seeds with no
recorded values are written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 7
RUN_LIMIT_S = 170  # the whole run ends within this, or fails
SETUP_PROBE = (
    "import time, configeo.cli; "
    "print(time.clock_gettime(time.CLOCK_MONOTONIC), configeo.cli.__file__)"
)


def setup_seconds(env: dict) -> float:
    """Fresh interpreter start until `configeo.cli` is imported."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    probe = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    ready, path = probe.stdout.split(maxsplit=1)
    if not Path(path.strip()).resolve().is_relative_to(SRC):
        raise RuntimeError(f"configeo was imported from {path.strip()}, not from {SRC}")
    return float(ready) - start


def git_commit() -> str:
    """HEAD of the checkout, read without running git (none outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def repeat(budget: float, one_pass) -> list:
    """Run one_pass() while another pass is expected to end within budget;
    always at least once."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(one_pass())
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > budget:
            return results


def pass_seconds(result: dict) -> float:
    return sum(c["seconds"] for c in result["invocations"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still kills and waits for its child and removes its scratch
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (SRC / "configeo" / "cli.py").is_file():
        print(f"run.py: no configeo sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    recorded = json.loads(harness.EXPECTED.read_text(encoding="utf-8")).get(args.workload, {})
    recorded = recorded.get(str(args.seed))

    env = dict(os.environ, PYTHONPATH=str(SRC))
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir()

    def one_pass(trace: int) -> dict:
        child = subprocess.run(
            [sys.executable, str(HERE / "harness.py"), args.workload, str(args.seed),
             str(trace), str(scratch)],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            raise RuntimeError(f"harness exited with code {child.returncode}")
        return json.loads(child.stdout.splitlines()[-1])

    try:
        setup_seconds(env)  # writes the bytecode caches; not timed
        setups = [setup_seconds(env) for _ in range(SETUP_REPEATS)]
        timed = repeat(args.seconds / 2 if args.trace else args.seconds, lambda: one_pass(0))
        traced = repeat(args.seconds / 2, lambda: one_pass(1)) if args.trace else []
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    passes = [[harness.Invocation(**c) for c in p["invocations"]] for p in timed + traced]
    sys.path.insert(0, str(SRC))  # the oracle checks call the package
    failures = harness.check(args.workload, args.seed, passes, recorded)
    attempted = sum(len(calls) for calls in passes)
    walls = [pass_seconds(p) for p in timed]

    if traced:
        names = set().union(*(p["layers"] for p in traced))
        measured = {n: statistics.median(p["layers"].get(n, 0.0) for p in traced) for n in names}
        measured["trace.overhead_s"] = statistics.median(map(pass_seconds, traced)) - statistics.median(walls)
    else:
        measured = {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": max(p["peak_rss_kb"] for p in timed) / 1024.0,
            "setup_s": statistics.median(setups),
        }
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}

    env_record = dict(harness.environment(), commit=git_commit())
    tag = f"{args.workload}-seed{args.seed}"
    if traced:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(traced[-1]["spans"]))
    outputs = {c.label: c.outputs for c in passes[0]}
    if recorded is None:
        (OUT / f"outputs-{tag}.json").write_text(json.dumps(outputs, indent=1))
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps({
        "env": env_record, "metrics": metrics, "pass_seconds": walls,
        "traced_pass_seconds": [pass_seconds(p) for p in traced], "setup_seconds": setups,
        "attempted": attempted, "failures": failures, "outputs": outputs,
    }, indent=1))

    for why in failures:
        print(f"FAILED {why}")
    print(f"env: {json.dumps(env_record)}")
    print(
        f"{args.workload} seed={args.seed}: {len(walls)} timed passes"
        + (f", {len(traced)} traced" if traced else "")
        + f", {SETUP_REPEATS} set-ups, outputs "
        + ("checked against recorded values" if recorded is not None
           else f"not recorded for this seed (written to {OUT.name}/outputs-{tag}.json)")
        + f"; failed_frac={len(failures)}/{attempted}"
    )
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
