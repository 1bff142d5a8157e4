"""Overhead guard for always-on verification.

``repro-serve`` now runs bench jobs with ``--verify`` on by default; two
numbers justify the flip, and this bench measures both:

* **The gate (<10%, CI-enforced): a cached service round trip.**  The
  service memoizes job results by content hash, so verification executes
  once per unique job; every later submission of the same job is served
  from the artifact cache.  The guard submits an identical bench job to a
  fresh in-process :class:`~repro.service.queue.JobQueue` twice, times
  the second (cache-hit) round trip with verification on vs off, and
  asserts the verified flavour adds less than ``--threshold`` (plus a
  1 ms absolute floor — cache hits are sub-millisecond, where pure ratio
  would amplify scheduler noise).  This pins the design property that
  verification cost never leaks into the cache-hit path: a naive service
  that re-verified artifacts on every serve would fail here.

* **Informational: the cold (first-execution) overhead.**  One
  ``bench_workload`` run with the checker vs without, reported as
  ``cold_overhead_frac`` with a lenient ``--cold-threshold`` backstop
  (default 35%) so a pathological regression still fails even though the
  honest steady-state number is the cached one.

Cold rounds interleave the modes (off, then on, back to back per round)
and the median of per-round ratios wins — minutes-scale machine drift
hits both modes of a round equally, so the ratio survives load the raw
minima do not.  All timings are process CPU time, immune to co-tenant
wall-clock stalls.

Usage::

    PYTHONPATH=src python benchmarks/verify_overhead_bench.py \
        --workload mp3d --repeats 4 --threshold 0.10

Prints a JSON summary to stdout; exits 1 when a guard fails.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time

#: absolute tolerance added to the cached-round-trip gate: cache hits are
#: sub-millisecond, where a pure ratio would amplify scheduler noise into
#: spurious failures
CACHED_FLOOR_S = 0.001


def _cached_roundtrip(workload: str, verify: bool, hits: int) -> float:
    """Best CPU time of a cache-hit bench-job round trip (cold run first,
    outside the clock)."""
    from repro.service.queue import JobQueue, ServiceConfig

    data_dir = tempfile.mkdtemp(prefix="verify-bench-")
    try:
        queue = JobQueue(ServiceConfig(data_dir=data_dir))
        queue.start()
        queue.submit("bench", {"workload": workload, "verify": verify})
        queue.drain(timeout=600)
        times = []
        for _ in range(hits):
            start = time.process_time()
            submitted = queue.submit(
                "bench", {"workload": workload, "verify": verify}
            )
            queue.drain(timeout=60)
            times.append(time.process_time() - start)
        if not submitted["cached"]:
            raise RuntimeError("re-submission was not served from cache")
        queue.stop()
        return min(times)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def _timed(workload: str, verify: bool) -> float:
    from repro.obs.baseline import bench_workload

    start = time.process_time()
    bench_workload(workload, verify=verify)
    return time.process_time() - start


def _cold_overhead(workload: str, repeats: int) -> float:
    """Median per-round overhead ratio of verify-on over verify-off."""
    _timed(workload, verify=False)  # warm imports/caches outside the clock
    ratios = []
    for _ in range(repeats):
        off = _timed(workload, verify=False)
        ratios.append(_timed(workload, verify=True) / off - 1.0)
    return round(statistics.median(ratios), 4)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="verify-overhead guards: cached service round trip "
                    "(gated) and cold bench run (backstop)",
    )
    parser.add_argument("--workload", default="mp3d",
                        help="Figure-6 workload to bench (default mp3d)")
    parser.add_argument("--repeats", type=int, default=4,
                        help="interleaved cold rounds; median ratio wins")
    parser.add_argument("--hits", type=int, default=5,
                        help="cache-hit round trips per mode; min wins")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="max tolerated cached-round-trip overhead "
                             "(default 0.10)")
    parser.add_argument("--cold-threshold", type=float, default=0.35,
                        help="regression backstop on the cold overhead "
                             "(default 0.35)")
    args = parser.parse_args(argv)

    cached_off = _cached_roundtrip(args.workload, False, args.hits)
    cached_on = _cached_roundtrip(args.workload, True, args.hits)
    cached_budget = cached_off * (1.0 + args.threshold) + CACHED_FLOOR_S
    cold = _cold_overhead(args.workload, args.repeats)
    cached_ok = cached_on <= cached_budget
    cold_ok = cold <= args.cold_threshold
    summary = {
        "workload": args.workload,
        "cached_off_s": round(cached_off, 6),
        "cached_on_s": round(cached_on, 6),
        "cached_budget_s": round(cached_budget, 6),
        "cached_overhead_frac": round(cached_on / cached_off - 1.0, 4),
        "threshold_frac": args.threshold,
        "cold_overhead_frac": cold,
        "cold_threshold_frac": args.cold_threshold,
        "cached_ok": cached_ok,
        "cold_ok": cold_ok,
        "ok": cached_ok and cold_ok,
    }
    json.dump(summary, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    if not cached_ok:
        print(
            f"verified cache-hit round trip {cached_on * 1e3:.2f}ms exceeds "
            f"budget {cached_budget * 1e3:.2f}ms "
            f"({args.threshold:.0%} + {CACHED_FLOOR_S * 1e3:.0f}ms floor)",
            file=sys.stderr,
        )
    if not cold_ok:
        print(
            f"cold verify overhead {cold:.1%} exceeds "
            f"the {args.cold_threshold:.0%} backstop", file=sys.stderr,
        )
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
