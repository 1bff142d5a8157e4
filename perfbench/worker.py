"""One benchmark pass in a fresh process: set up, build, run, report.

``run.py`` starts one worker per pass, so every pass begins with empty
caches and a fresh simulated machine, and reports its own peak RSS.  The
worker speaks on stdout: the line ``ready <json>`` once the workload is
set up (``run.py`` times process start to that line as ``setup_s``; the
JSON holds the set-up's reference samples), then one JSON line with the
pass's timings, outputs and, when traced, the layer records.  Anything
the program prints goes to stderr.

    python3 perfbench/worker.py --workload matmul --seed 1 [--pace] [--trace | --stop-after STAGE]

``--pace`` paces every timed span with the host-speed reference
(``pace.py``); without it, times are plain wall-clock.  ``--stop-after
setup`` or ``build`` ends the pass after that stage, for extra set-up and
build samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import pace

SRC = Path(__file__).resolve().parents[1] / "src"

#: workload name -> (repro workload, get_workload kwargs, observed runs).
#: mc-explore is not a get_workload workload; see run_mc.
WORKLOADS = {
    "matmul": ("matmul", {}, False),
    "tomcatv": ("tomcatv", {}, False),
    "mp3d-observed": (
        "mp3d", {"nparticles": 1024, "ncells": 256, "steps": 6}, True,
    ),
    "mc-explore": (None, {}, False),
}

#: the exhaustive model-checker configuration (faults on, serial)
MC_CONFIG = {"nodes": 2, "blocks": 1, "epochs": 3}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digest(result) -> dict:
    """The simulated outcome of one timing run; exact and deterministic."""
    stats = result.stats
    return {
        "cycles": result.cycles,
        "epochs": result.epochs,
        "hits": stats.hits,
        "read_misses": stats.read_misses,
        "write_misses": stats.write_misses,
        "write_faults": stats.write_faults,
        "traffic": {kind.value: n for kind, n in sorted(
            result.traffic.items(), key=lambda item: item[0].value
        )},
        "traps": result.sw_traps,
        "recalls": result.recalls,
    }


def racy_elements(cachier) -> dict[str, list[int]]:
    """Flat indices, per array, of the elements ``SharingReport.race_vars()``
    flags (names like ``CELL[117]``; unlabelled addresses are skipped)."""
    racy: dict[str, list[int]] = {}
    for ref in cachier.report.race_vars():
        name, _, inner = ref.partition("[")
        if not inner:
            continue
        indices = tuple(int(i) for i in inner.rstrip("]").split(","))
        racy.setdefault(name, []).append(cachier.labels.get(name).flat_index(indices))
    return {name: sorted(flat) for name, flat in sorted(racy.items())}


def memory_digest(values: dict, racy: dict[str, list[int]]) -> dict[str, str]:
    """Per-array hash of final shared memory without the racy elements,
    whose final value may depend on the interleaving that directives are
    allowed to change."""
    import numpy as np

    return {
        array: sha256(np.delete(flat, racy.get(array, [])).tobytes())
        for array, flat in sorted(values.items())
    }


class Pass:
    """Collects one pass's operations and stage timings."""

    def __init__(self, tracer, pacer, stop_after: str | None) -> None:
        self.tracer = tracer
        self.clock = pace.wall_span if pacer is None else pacer.span
        self.stop_after = stop_after
        self.ops: list[dict] = []
        self.out: dict = {"build_s": 0.0, "run_s": 0.0}

    def stage(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    def op(self, name: str, timing: str, fn) -> bool:
        """Run one operation; a raise fails it.  ``timing`` names the stage
        total (build_s / run_s) its time adds to: the ``seconds`` ``fn``
        reports from a :attr:`clock` span, which leaves out output
        hashing, else (when it raised) its wall-clock."""
        record = {"op": name, "ok": True, "error": None}
        self.ops.append(record)
        start = time.perf_counter()
        try:
            with self.stage(name):
                record.update(fn() or {})
        except Exception as exc:  # a failed operation is a result, not a crash
            record["ok"] = False
            record["error"] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        record.setdefault("seconds", time.perf_counter() - start)
        self.out[timing] += record["seconds"]
        return record["ok"]


def run_simulator(name: str, kwargs: dict, observed: bool, seed: int,
                  work: Pass, ready) -> None:
    from repro.harness.runner import run_program
    from repro.harness.variants import build_variants
    from repro.lang.unparse import unparse_program
    from repro.obs.session import Observer
    from repro.workloads import get_workload

    spec = get_workload(name, seed=seed, **kwargs)
    ready()

    built = {}

    def build():
        with work.clock() as span:
            built["vs"] = vs = build_variants(spec)
        built["racy"] = racy = racy_elements(vs.cachier)
        return {
            "seconds": span.seconds,
            "wall_s": span.wall,
            "programs": {
                variant: sha256(unparse_program(program).encode())
                for variant, program in vs.programs.items()
            },
            "racy_elements": {array: len(flat) for array, flat in racy.items()},
        }

    if not work.op("build", "build_s", build) or work.stop_after == "build":
        return
    vs, racy = built["vs"], built["racy"]

    def timing_run(variant):
        program = vs.programs[variant]
        with work.clock() as span:
            observer = Observer(profile=True, critpath=True) if observed else None
            result, store = run_program(
                program, spec.config, spec.params_fn, observer=observer,
                verify=observed, verify_label=f"{spec.name}/{variant}",
            )
        out = {
            "digest": run_digest(result),
            "memory": memory_digest(store.values, racy),
            "seconds": span.seconds,
            "wall_s": span.wall,
        }
        report = result.extra.get("verify_report")
        if report is not None:
            out["verify"] = {
                "checks": sum(report.checks.values()),
                "cache_hits": report.cache.get("hits", 0),
                "cache_misses": report.cache.get("misses", 0),
            }
        return out

    for variant in vs.programs:
        work.op(f"run:{variant}", "run_s", lambda v=variant: timing_run(v))


def run_mc(work: Pass, ready) -> None:
    from repro.mc.explore import explore
    from repro.mc.model import MCConfig
    from repro.mc.mutations import MUTATIONS

    config = MCConfig(**MC_CONFIG)
    ready()

    def seeded_bugs():
        # the checker must still find every seeded protocol bug
        found = {}
        with work.clock() as span:
            results = {m: explore(config, mutate=m) for m in sorted(MUTATIONS)}
        for mutation, res in results.items():
            found[mutation] = {
                "invariant": res.violation.invariant if res.violation else None,
                "schedule": len(res.schedule or ()),
            }
        return {"mutations": found, "seconds": span.seconds, "wall_s": span.wall}

    def exhaust():
        with work.clock() as span:
            res = explore(config, jobs=1)
        return {"seconds": span.seconds, "wall_s": span.wall, "mc": {
            "states": res.states,
            "transitions": res.transitions,
            "depth": res.depth,
            "exhausted": res.exhausted,
            "violation": res.violation.as_dict() if res.violation else None,
        }}

    if work.op("build", "build_s", seeded_bugs) and work.stop_after != "build":
        work.op("explore", "run_s", exhaust)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pace", action="store_true")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--stop-after", choices=("setup", "build"))
    args = parser.parse_args(argv)
    if args.pace and args.trace:
        parser.error("the traced pass is not paced: its reference samples "
                     "would land in the layers' self times")
    pacer = None
    if args.pace:
        pacer = pace.Pacer()
        pacer.start()
        pacer.sample()

    protocol_out = sys.stdout
    sys.stdout = sys.stderr  # keep the protocol lines alone on stdout
    sys.path.insert(0, str(SRC))

    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)

    def ready():
        setup = {}
        if pacer is not None:
            pacer.sample()
            setup = {"stolen": pacer.stolen, "ref": pacer.mean_since(0)}
        protocol_out.write(f"ready {json.dumps(setup)}\n")
        protocol_out.flush()
        if args.stop_after == "setup":
            sys.exit(0)

    work = Pass(tracer, pacer, args.stop_after)
    name, kwargs, observed = WORKLOADS[args.workload]
    try:
        with work.stage("pass"):
            if name is None:
                run_mc(work, ready)
            else:
                run_simulator(name, kwargs, observed, args.seed, work, ready)
    finally:  # also on the early exit after set-up
        if pacer is not None:
            pacer.stop()

    out = dict(work.out)
    if pacer is not None:
        # host speed over the pass, as a share of the nominal speed
        out["host_speed"] = pace.REF_S / statistics.median(pacer.samples)
    out["ops"] = work.ops
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["layers"] = tracer.export()
    protocol_out.write(json.dumps(out) + "\n")
    protocol_out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
