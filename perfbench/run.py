"""Run one mubtomo benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload qudit-exact --seed 1 --seconds 20 --trace 0

Run from a source checkout: the package is imported from ``src/``. One
client runs a closed loop in this process, with every BLAS pool capped at
one thread. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced ops and prints the per-layer metrics
instead (see layers.py). The last line of stdout is the result object;
the line before it records the environment and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import harness

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = (
    "MUBTOMO_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
WORKLOADS = ("qudit-exact", "qudit-shots-cli", "cv-quads-cli", "radon-roundtrip")
END_TO_END = [
    ("ops_per_s", "1/s", "higher"),
    ("op_s_p50", "s", "lower"),
    ("op_s_tail", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("recon_error", "1", "lower"),
]
MIN_OPS = 11  # op_s_tail needs more than ten samples
SETUP_PROBES = 2  # fresh processes; with this one, setup_s is a median of three
PROBE_TIMEOUT_S = 120


def set_up(name: str, seed: int, workdir: str):
    """Import numpy and mubtomo, then run one untimed warm-up pass.

    Returns the workload and the wall seconds this took.
    """
    start = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[name](seed, workdir)
    inp = workload.make_input(0)
    try:
        workload.check(inp, workload.run(inp))
    except Exception as exc:  # the timed ops count every failure; set-up completes
        print(f"warm-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    return workload, time.perf_counter() - start


def median_or_zero(values) -> float:
    """Median, or 0 when no op passed (the result then reads correct: false)."""
    return statistics.median(values) if values else 0.0


def probe_setup(name: str, seed: int) -> float:
    """setup_s measured in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                          text=True, cwd=ROOT)
    return proc.stdout.strip() or "unknown"


def environment(args, attempted: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_cap": {var: os.environ[var] for var in THREAD_VARS},
        "loop": "closed",
        "clients": 1,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": attempted,
    }


def end_to_end(res: harness.LoopResult, setups) -> tuple[dict, dict]:
    """End-to-end metric values, and the sample count behind each."""
    times = res.op_seconds()
    tail = harness.tail_percentile(times) or (100.0, max(times, default=0.0))
    values = {
        "ops_per_s": len(times) / res.window,
        "op_s_p50": median_or_zero(times),
        "op_s_tail": tail[1],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "recon_error": median_or_zero(res.errors),
    }
    samples = {
        "ops_per_s": len(times),
        "op_s_p50": len(times),
        "op_s_tail": len(times),
        "op_s_tail_percentile": tail[0],
        "setup_s": len(setups),
        "peak_rss_mb": 1,
        "recon_error": len(res.errors),
    }
    return values, samples


def traced_loop(workload, args):
    """Odd ops run traced, even ops untraced; returns the loop and per-layer metrics."""
    import layers

    tracer = harness.Tracer()
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "mubtomo"]
    bindings = harness.bindings_for(tracer, layers.targets(), modules)
    totals = layers.LayerTotals()

    def run(i, inp):
        if i % 2 == 0:
            return workload.run(inp)
        with tracer.op(i, bindings):
            return workload.run(inp)

    def after(i, start, end):
        if i % 2:
            totals.add(tracer.take(), start, end)

    res = harness.run_loop(workload.make_input, run, workload.check, args.seconds,
                           MIN_OPS, after=after)
    traced = {i for i, *_ in res.intervals if i % 2}
    untraced = {i for i, *_ in res.intervals if i % 2 == 0}
    untraced_p50 = median_or_zero(res.op_seconds(untraced))
    values = totals.metrics(median_or_zero(res.op_seconds(traced)) - untraced_p50)
    spans_s = sum(v for k, v in values.items() if k.endswith(".s"))
    closure = {
        "traced_ops": totals.ops,
        "layer_self_s_plus_unattributed": spans_s + values["trace.unattributed_s"],
        "traced_op_s": values["trace.op_s"],
        "untraced_op_s_p50": untraced_p50,
        "moves": {name: moves for name, _, _, moves in layers.PER_LAYER},
    }
    units = {name: unit for name, unit, *_ in layers.PER_LAYER}
    return res, values, units, closure


def measure(args, workdir: str) -> int:
    workload, first_setup = set_up(args.workload, args.seed, workdir)
    if args.trace:
        res, values, units, record = traced_loop(workload, args)
    else:
        res = harness.run_loop(workload.make_input, lambda i, inp: workload.run(inp),
                               workload.check, args.seconds, MIN_OPS)
        setups = [first_setup] + [probe_setup(args.workload, args.seed)
                                  for _ in range(SETUP_PROBES)]
        values, samples = end_to_end(res, setups)
        record = {"samples": samples, "failed_ops": res.failed / res.attempted}
        units = {name: unit for name, unit, _ in END_TO_END}
    print(json.dumps({"env": environment(args, res.attempted), **record}))
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    src = ROOT / "src"
    if not (src / "mubtomo" / "__init__.py").is_file():
        print(f"run.py: no mubtomo package under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is imported anywhere in the process
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": set_up(args.workload, args.seed, workdir)[1]}))
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run is still using it
            pass


if __name__ == "__main__":
    raise SystemExit(main())
