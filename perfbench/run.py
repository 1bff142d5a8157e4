"""Repo benchmark: the Cachier pipeline end to end, and layer by layer.

    python3 perfbench/run.py --workload matmul --seed 1 --seconds 28 --trace 0

Each pass is one fresh worker process (``worker.py``) that runs the public
pipeline a user runs: ``get_workload`` -> ``build_variants`` (trace run,
``Cachier`` analysis, both ``annotate`` calls) -> ``run_program`` for every
variant; on ``mc-explore``, the seeded-bug searches and then the
exhaustive ``repro.mc.explore``.  Load is closed-loop batch work: one pass
at a time, one process, one thread.  Passes repeat until another would
overrun ``--seconds``, and build-only passes fill what is left of it.
Every figure is the median over passes; ``build_s`` also counts the
build-only passes, and ``setup_s`` is the median of at least
``SETUP_SAMPLES`` process starts.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
Their times are paced (``pace.py``): host seconds scaled to a fixed host
speed by a reference loop sampled in and around every timed span, because
the shared host's own speed drifts by tens of percent between runs.
``--trace 1`` runs one untraced and one traced pass (``layers.py``) and
reports the per-layer metrics; it also checks that the traced pass gives
the untraced pass's simulated outputs and that its counters equal the
simulator's own.  Every pass's outputs are checked (``checks.py``).  The
last line of stdout is one JSON object; the lines before it are for
people.  The exit code is 1 when any operation failed and 2 when the
benchmark cannot run at all.

``--write-expected`` records this workload's seed-1 outputs in
``expected_seed1.json``, for a change that moves simulated results on
purpose and says why.

Seeds: ``--seed`` goes to ``get_workload(..., seed=)`` and nowhere else.
Seed 1 is the development seed; seed 2 is held out for gain claims.  On
matmul and tomcatv the seed changes data values only; on mp3d it changes
the access pattern; mc-explore has no seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check_pass, check_traced, ops_by_name  # noqa: E402
from pace import REF_S  # noqa: E402
from worker import WORKLOADS  # noqa: E402

EXPECTED = HERE / "expected_seed1.json"
BENCH_BASELINES = {"matmul": ROOT / "benchmarks" / "baselines" / "BENCH_matmul.json"}
OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 7
#: a run must end within 180 s; no pass may start a wait beyond this
DEADLINE_S = 170

#: EXPERIMENTS.md E1, measured cachier / cachier+pf normalized cycles
EXPERIMENTS_NORM = {"matmul": (0.946, 0.832), "tomcatv": (0.955, 0.959)}



def load_spec() -> dict:
    """BENCHMARK.json: run length and the metric names and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class BenchError(Exception):
    """The benchmark itself cannot run (no program, a worker died)."""


def spawn(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    """Run one worker; returns its result plus the measured ``setup_s``,
    paced when the worker is (its ``ready`` line carries the set-up's
    reference samples)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload, "--seed", str(seed), *flags]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if not line.startswith("ready "):
            raise BenchError(f"worker for {workload} failed during set-up")
        paced = json.loads(line[len("ready "):])
        if paced:
            setup_s = (setup_s - paced["stolen"]) * REF_S / paced["ref"]
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker for {workload} passed the run deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited with {proc.returncode}")
    result = json.loads(out.splitlines()[-1]) if out.strip() else {}
    result["setup_s"] = setup_s
    result["wall_s"] = time.perf_counter() - start
    return result


def pass_metrics(workload: str, result: dict) -> dict:
    """End-to-end figures of one clean untraced pass; ``setup_s``,
    ``build_s`` and ``total_s`` are taken over all samples in :func:`main`."""
    ops = ops_by_name(result)
    if workload == "mc-explore":
        mc = ops["explore"]["mc"]
        refs, states = mc["transitions"], mc["states"]
    else:
        refs = sum(
            op["digest"]["hits"] + op["digest"]["read_misses"]
            + op["digest"]["write_misses"] + op["digest"]["write_faults"]
            for name, op in ops.items() if name.startswith("run:")
        )
        # a simulated run follows one path, reaching one protocol state
        # per applied reference; the model checker counts distinct states
        states = refs
    run_s = result["run_s"]
    return {
        "run_s": run_s,
        "refs_per_s": refs / run_s,
        "states_per_s": states / run_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def norms(result: dict) -> dict:
    """Simulated cycles of cachier and cachier+pf over plain (exact)."""
    cycles = {
        op["op"][4:]: op["digest"]["cycles"]
        for op in result["ops"] if op["op"].startswith("run:") and op["ok"]
    }
    if "plain" not in cycles:
        return {}
    return {
        name: cycles[variant] / cycles["plain"]
        for name, variant in (("cachier_norm", "cachier"),
                              ("cachier_pf_norm", "cachier+pf"))
        if variant in cycles
    }


def layer_metrics(traced: dict, untraced_total: float, traced_total: float) -> dict:
    """Per-layer figures of the traced pass, summed over its stages."""
    calls: dict[str, int] = {}
    ns: dict[str, int] = {}
    for stage in traced["layers"]["timed"].values():
        for key, (n, self_ns) in stage.items():
            calls[key] = calls.get(key, 0) + n
            ns[key] = ns.get(key, 0) + self_ns
    counts: dict[str, int] = {}
    for stage in traced["layers"]["counts"].values():
        for key, n in stage.items():
            counts[key] = counts.get(key, 0) + n

    def sec(*keys):
        return sum(ns.get(k, 0) for k in keys) / 1e9

    def per(keys, n):
        return sum(ns.get(k, 0) for k in keys) / n if n else 0.0

    explore_timed = traced["layers"]["timed"].get("explore", {})
    explore_counts = traced["layers"]["counts"].get("explore", {})
    events = calls.get("interp", 0)
    hits = calls.get("coherence.hit", 0) + calls.get("coherence.hit_pf", 0)
    verify = [op["verify"] for op in traced["ops"] if "verify" in op]
    cache_total = sum(v["cache_hits"] + v["cache_misses"] for v in verify)
    return {
        "interp.events": events,
        "interp.self_s": sec("interp", "interp.end"),
        "interp.ns_per_event": per(("interp", "interp.end"), events),
        "machine.self_s": sec("machine"),
        "machine.ns_per_event": per(("machine",), events),
        "coherence.hits": hits,
        "coherence.hit_ns": per(("coherence.hit", "coherence.hit_pf"), hits),
        "coherence.txns": calls.get("coherence.txn", 0),
        "coherence.txn_ns": per(("coherence.txn",), calls.get("coherence.txn", 0)),
        "coherence.directive_ops": calls.get("coherence.directive", 0),
        "coherence.directive_ns": per(
            ("coherence.directive",), calls.get("coherence.directive", 0)
        ),
        "coherence.flush_s": sec("coherence.flush"),
        "network.msgs": counts.get("network.msgs", 0),
        "network.send_ns": per(("network.send",), calls.get("network.send", 0)),
        "events.published": calls.get("events.publish", 0),
        "events.dispatch_ns": per(
            ("events.publish",), calls.get("events.publish", 0)
        ),
        "obs.handler_s": sec("obs.handler"),
        "obs.finalize_s": sec("obs.finalize"),
        "verify.handler_s": sec("verify.handler", "verify.finalize"),
        "verify.checks": sum(v["checks"] for v in verify),
        "verify.cache_hit_frac": (
            sum(v["cache_hits"] for v in verify) / cache_total if cache_total else 0.0
        ),
        "trace.handler_s": sec("trace.handler"),
        "trace.records": counts.get("trace.records", 0),
        "cachier.analyze_s": sec("cachier.analyze"),
        "cachier.annotate_s": sec("cachier.annotate"),
        "cachier.directives": counts.get("cachier.directives", 0),
        # the exhaustive exploration alone, as ExploreResult counts it
        "mc.states": explore_counts.get("mc.states", 0),
        "mc.transitions": explore_timed.get("mc.apply", (0, 0))[0],
        "mc.materialize_ns": per(("mc.materialize",), calls.get("mc.materialize", 0)),
        "mc.apply_ns": per(("mc.apply",), calls.get("mc.apply", 0)),
        "mc.canonical_ns": per(("mc.canonical",), calls.get("mc.canonical", 0)),
        "tracing.overhead_frac": traced_total / untraced_total - 1,
    }


def reference_lines(workload: str, sim: dict) -> list[str]:
    """The simulated speed-ups beside the paper's and EXPERIMENTS.md's."""
    if workload == "mc-explore":
        return ["simulated speed-ups: none (the model checker runs no program)"]
    from repro.harness.figure6 import PAPER_CACHIER_NORM

    lines = []
    ours = EXPERIMENTS_NORM.get(workload)
    for i, name in enumerate(("cachier_norm", "cachier_pf_norm")):
        value = sim.get(name)
        if value is None:
            continue
        text = f"{name:<16} {value:.4f} ratio (simulated cycles over plain)"
        if ours is not None:
            text += f"; EXPERIMENTS.md {ours[i]:.3f} (error {value - ours[i]:+.4f})"
        paper = PAPER_CACHIER_NORM.get(workload) if name == "cachier_norm" else None
        if paper is not None:
            text += f"; paper ~{paper:.2f} (error {value - paper:+.4f})"
        lines.append(text)
    if workload == "mp3d-observed":
        lines.append("mp3d-observed is scaled off the paper's configuration: "
                     "no reference value applies")
    lines.append("the simulator is not validated against hardware; errors are "
                 "against the paper's reported figures, not a measurement")
    return lines


def load_expected(workload: str) -> dict:
    return json.loads(EXPECTED.read_text()).get(workload, {})


def load_bench(workload: str) -> dict | None:
    path = BENCH_BASELINES.get(workload)
    return json.loads(path.read_text())["variants"] if path else None


def write_expected(workload: str, result: dict) -> None:
    ops = ops_by_name(result)
    if not all(op["ok"] for op in ops.values()):
        raise BenchError("a failed pass cannot become the expected output")
    if workload == "mc-explore":
        entry = {"mutations": ops["build"]["mutations"], "mc": ops["explore"]["mc"]}
    else:
        entry = {
            "programs": ops["build"]["programs"],
            "runs": {
                name[4:]: op["digest"] for name, op in ops.items()
                if name.startswith("run:")
            },
        }
    data = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    data[workload] = entry
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    spec = load_spec()
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path.insert(0, str(ROOT / "src"))
    workload, seed = args.workload, args.seed
    start = time.perf_counter()
    deadline = start + DEADLINE_S

    if args.write_expected:
        if seed != 1:
            raise BenchError("expected outputs are recorded at seed 1")
        write_expected(workload, spawn(workload, 1, deadline))
        print(f"recorded {workload} in {EXPECTED.name}")
        return 0

    pace = () if args.trace else ("--pace",)
    passes = []
    while True:
        passes.append(spawn(workload, seed, deadline, *pace))
        elapsed = time.perf_counter() - start
        if args.trace or elapsed + passes[-1]["wall_s"] > args.seconds:
            break
    # Fill the rest of the window with build-only passes: the build is the
    # shortest timed stage, so it needs the most samples to be steady.
    builds = []
    estimate = passes[-1]["setup_s"] + passes[-1]["build_s"]
    while not args.trace and time.perf_counter() - start + estimate <= args.seconds:
        builds.append(spawn(workload, seed, deadline, *pace, "--stop-after", "build"))
        estimate = builds[-1]["wall_s"]
    setups = [r["setup_s"] for r in passes + builds]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(
            spawn(workload, seed, deadline, *pace, "--stop-after", "setup")["setup_s"]
        )
    traced = spawn(workload, seed, deadline, "--trace") if args.trace else None

    expected, bench = load_expected(workload), load_bench(workload)
    results = [(f"pass {i + 1}", p) for i, p in enumerate(passes)]
    results += [(f"build {i + 1}", b) for i, b in enumerate(builds)]
    if traced:
        results.append(("traced", traced))
    failures: dict[str, list[str]] = {}
    attempted = 0
    clean, build_times = [], []
    for label, result in results:
        attempted += len(result["ops"])
        found = check_pass(workload, seed, result, expected, bench)
        if result is traced:
            for op, reasons in check_traced(passes[0], traced).items():
                found.setdefault(op, []).extend(reasons)
        for op, reasons in found.items():
            failures[f"{label} {op}"] = reasons
        if found or result is traced:
            continue
        build_times.append(result["build_s"])
        if label.startswith("pass"):
            clean.append(pass_metrics(workload, result))
    failed = len(failures)
    if not clean:  # no pass ran end to end: nothing to measure
        for op, reasons in failures.items():
            print(f"FAILED {op}: {'; '.join(reasons)}")
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1

    e2e = {name: statistics.median(m[name] for m in clean) for name in clean[0]}
    e2e["setup_s"] = statistics.median(setups)
    e2e["build_s"] = statistics.median(build_times)
    e2e["total_s"] = e2e["setup_s"] + e2e["build_s"] + e2e["run_s"]
    sim = norms(passes[0])

    print(f"perfbench {workload} seed {seed}: {len(passes)} untraced pass(es), "
          f"{len(builds)} build-only, {len(setups)} set-ups"
          f"{', 1 traced pass' if traced else ''}; {attempted} operations, "
          f"{failed} failed (fail_frac {failed / attempted:.4f})")
    for op, reasons in failures.items():
        print(f"FAILED {op}: {'; '.join(reasons)}")
    if traced:
        print("times below are wall-clock: the passes of a traced run are not paced")
    else:
        speeds = [r["host_speed"] for r in passes + builds]
        print(f"host speed {min(speeds):.3f}-{max(speeds):.3f} of nominal over the "
              f"passes; times below are paced to the nominal speed")
    for name, unit in end_to_end.items():
        print(f"{name:<16} {e2e[name]:.6g} {unit}")
    for line in reference_lines(workload, sim):
        print(line)

    if traced:
        untraced_total = passes[0]["setup_s"] + passes[0]["build_s"] + passes[0]["run_s"]
        traced_total = traced["setup_s"] + traced["build_s"] + traced["run_s"]
        layer = layer_metrics(traced, untraced_total, traced_total)
        layer["cachier_norm"] = sim.get("cachier_norm", 0.0)
        layer["cachier_pf_norm"] = sim.get("cachier_pf_norm", 0.0)
        for name, unit in per_layer.items():
            print(f"{name:<24} {layer[name]:.6g} {unit}")
        OUT_DIR.mkdir(exist_ok=True)
        trace_out = OUT_DIR / f"{workload}-seed{seed}.trace.json"
        trace_out.write_text(json.dumps(traced["layers"]) + "\n")
        print(f"spans and per-stage aggregates written to {trace_out.relative_to(ROOT)}")
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in per_layer.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in end_to_end.items()}

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        sys.exit(2)
