"""Host-profiler overhead guard.

The phase-accounting instrumentation (``repro.obs.hostprof``) sits on the
simulator's slow paths — bus dispatch, protocol misses, network sends,
cache flushes — guarded by a single ``ACTIVE is None`` check when
disabled.  This benchmark pins the *enabled* cost: it runs the matmul
workload with phase accounting off and on and asserts the relative
slowdown stays under a threshold (CI pins 10%).

Each mode runs one warmup then ``--batches`` timed runs; the per-run cost
is the *minimum over batches* (the standard floor-of-noise estimator:
scheduling jitter only ever adds time), so one noisy batch cannot fail
the guard spuriously.

Usage::

    PYTHONPATH=src python benchmarks/hostprof_overhead_bench.py \
        --workload matmul --batches 3 --threshold 0.10

Prints a JSON summary to stdout; exits 1 when the overhead exceeds the
threshold.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _run_once(spec, hostprof: bool) -> float:
    """One observed run; returns host seconds of the whole run."""
    from repro.harness.runner import run_program
    from repro.obs.session import Observer

    observer = Observer(chrome=False, hostprof=hostprof,
                        meta={"name": f"{spec.name}/overhead"})
    start = time.perf_counter()
    run_program(spec.program, spec.config, spec.params_fn, observer=observer)
    elapsed = time.perf_counter() - start
    if hostprof:
        report = observer.observation.hostprof
        assert report is not None and report["conserved"], \
            "phase accounting must conserve during the guard run"
    return elapsed


def _measure_mode(spec, hostprof: bool, batches: int) -> dict:
    _run_once(spec, hostprof)  # warmup: imports, allocator, caches
    batch_s = [_run_once(spec, hostprof) for _ in range(batches)]
    return {
        "hostprof": hostprof,
        "batches_s": [round(b, 6) for b in batch_s],
        "run_s": min(batch_s),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="simulator run cost: phase accounting on vs off",
    )
    parser.add_argument("--workload", default="matmul",
                        help="workload to run (default matmul)")
    parser.add_argument("--batches", type=int, default=3,
                        help="timed runs per mode; min wins (default 3)")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="max tolerated relative overhead (default 0.10)")
    args = parser.parse_args(argv)

    from repro.workloads.base import get_workload

    spec = get_workload(args.workload)
    off = _measure_mode(spec, False, args.batches)
    on = _measure_mode(spec, True, args.batches)
    overhead = on["run_s"] / off["run_s"] - 1.0
    summary = {
        "workload": args.workload,
        "batches": args.batches,
        "hostprof_off_s": round(off["run_s"], 6),
        "hostprof_on_s": round(on["run_s"], 6),
        "overhead_frac": round(overhead, 4),
        "threshold_frac": args.threshold,
        "ok": overhead <= args.threshold,
        "modes": [off, on],
    }
    json.dump(summary, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    if not summary["ok"]:
        print(
            f"hostprof overhead {overhead:.1%} exceeds the "
            f"{args.threshold:.0%} budget", file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
