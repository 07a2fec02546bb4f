"""Run one workload of the reference benchmark and print its metrics.

Usage, from the repository root::

    python3 e2ebench/run.py --workload cold_pipeline --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics and writes its
spans to ``.e2ebench/trace-<workload>-seed<seed>.json``.  The report
goes to standard output; its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every op and every end-of-run check passed.  ``--setup-only``
times one cold set-up and prints its seconds; a run starts such
processes for its ``setup_s`` samples.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Scratch space for stores, job directories and trace files.
WORKDIR = ROOT / ".e2ebench"

#: The workloads, in ``BENCHMARK.json`` order (``e2ebench.workloads``
#: imports the program, so it is imported only inside a timed set-up).
WORKLOAD_NAMES = ("cold_pipeline", "atlas_sweep", "served")

#: Longest one set-up sample may take.
SETUP_TIMEOUT_S = 120


def calibrate() -> float:
    """Median ms of a fixed pure-Python loop (run metadata only)."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        sum(i * i % 7 for i in range(300_000))
        times.append((time.perf_counter() - t0) * 1000.0)
    return sorted(times)[len(times) // 2]


def git_rev() -> str | None:
    """The checkout's git commit, or ``None`` outside a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def src_digest() -> str:
    """SHA-256 over the program's source files: identifies the code run."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one cold set-up, print its seconds and exit "
                        "(a run takes its set-up samples this way)")
    return p.parse_args(argv)


def cold_setup(args, size, workdir: Path, tracer):
    """Import the program, then build and set up the workload.

    Returns the workload and the seconds this took.  Called once per
    process, so every sample pays the program's imports and the warm-up
    op's lazy initialisation.
    """
    t0 = time.perf_counter()
    from e2ebench.workloads import REFERENCE, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, size or REFERENCE, workdir, tracer)
    try:
        workload.setup()
    except BaseException:
        workload.close()
        raise
    return workload, time.perf_counter() - t0


def setup_sample(args) -> float:
    """Seconds of one cold set-up of the run's workload and seed, taken
    in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed:\n{proc.stderr[-2000:]}")
    return float(proc.stdout.split()[-1])


def _print_metrics(metrics: dict) -> None:
    for name, (value, unit, detail) in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {unit:<6} {detail}")


def main(argv=None, size=None, max_ops: int | None = None) -> int:
    """Run one workload; returns the exit code.

    ``size`` and ``max_ops`` exist for the benchmark's own tests (a tiny
    op size and a fixed op count); the command line always runs
    :data:`~e2ebench.workloads.REFERENCE` for ``--seconds``, and set-up
    samples always set up ``REFERENCE``.

    ``setup_s`` is the median of ``size.setup_reps`` cold set-ups: the
    run's own, and one fresh process each (:func:`setup_sample`) at
    evenly spaced points of the op window, so that the samples meet
    more than one phase of the host's speed.
    """
    import numpy as np

    from e2ebench.metrics import (
        END_TO_END,
        RECONCILE_TOLERANCE_S,
        UNGATED,
        per_layer,
        whole_op,
    )
    from e2ebench.spans import Tracer

    args = parse_args(argv)
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(workdir)
    if args.setup_only:
        try:
            workload, seconds = cold_setup(args, size, workdir / "setup", None)
            workload.close()
        finally:
            tempfile.tempdir = None
            shutil.rmtree(workdir, ignore_errors=True)
        print(repr(seconds))
        return 0

    tracer = Tracer() if args.trace else None
    calib_before = calibrate()
    workload = None
    try:
        workload, seconds = cold_setup(args, size, workdir / "setup", tracer)
        setup_times = [seconds]
        reps = workload.size.setup_reps
        workload.pause_for(lambda: setup_times.append(setup_sample(args)),
                           [args.seconds * j / reps for j in range(1, reps)])
        gc.collect()
        ops = workload.run(args.seconds, max_ops)
        problems = workload.finish()
        measured = whole_op(ops, setup_times, workload.window_s, workload.TAIL_PERCENTILE)
        if tracer is None:
            metrics = {name: measured[name] for name in END_TO_END}
            ungated = {name: measured[name] for name in UNGATED
                       if name != "hit_p50_s" or workload.HITS}
            breakdowns = []
        else:
            metrics, breakdowns = per_layer(tracer.spans, ops, workload.counters(), measured)
            ungated = {}
        meta = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "git_rev": git_rev(),
            "src_digest": src_digest(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            **workload.describe(),
            "setup_samples_s": setup_times,
        }
    finally:
        if workload is not None:
            workload.close()
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
    meta["calibration_ms"] = {"before": calib_before, "after": calibrate()}

    for b in breakdowns:
        if abs(b["residual"]) > RECONCILE_TOLERANCE_S:
            problems.append(f"traced op {b['op']} does not reconcile: residual "
                            f"{b['residual']:.3g} s")
    failed = [op for op in ops if op.error is not None]
    correct = not failed and not problems

    print(f"e2ebench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    if tracer is not None:
        out = WORKDIR / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"meta": meta, "spans": tracer.records()}))
        print(f"spans written to {out.relative_to(ROOT)}")
        print("traced compute ops (self seconds per layer + un-attributed = wall):")
        for b in breakdowns:
            if b["kind"] != "compute":
                continue
            parts = " ".join(f"{k}={v:.4f}" for k, v in sorted(b["layers"].items()))
            print(f"  op {b['op']:>3}: {parts} unattributed={b['unattributed']:.6f} "
                  f"wall={b['wall']:.4f}")
    print("metrics:")
    _print_metrics(metrics)
    if ungated:
        print("not gated (these did not repeat within a tenth between runs):")
        _print_metrics(ungated)
    print(f"ops: attempted {len(ops)}, failed {len(failed)}")
    for op in failed[:10]:
        print(f"  failed {op.kind} op: {op.error}")
    for reason in problems:
        print(f"  failed run check: {reason}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        print(f"e2ebench: no program source under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    # Import the program from this checkout's source tree, and this
    # package as ``e2ebench`` rather than as loose modules.
    sys.path[0] = str(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
