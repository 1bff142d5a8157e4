"""Output checks: pure functions from worker results to failed operations.

Each check returns ``{operation: [reason, ...]}``; an operation fails when
it raised or any check on its output failed.  ``selftest.py`` feeds these
functions perturbed results to show a wrong output is never passed.
"""

from __future__ import annotations

from collections import defaultdict

#: On these workloads the seed only changes data values, never the access
#: pattern, so the simulated digest of seed 1 holds for every seed.  On
#: mp3d the seed moves molecules, so the digest is checked at seed 1 only.
SEED_INVARIANT = {"matmul", "tomcatv", "mc-explore"}

#: variants whose simulated cycles must equal a committed BENCH baseline
BENCH_VARIANTS = ("plain", "cachier")


def ops_by_name(result: dict) -> dict:
    """A pass's operation records keyed by operation name."""
    return {op["op"]: op for op in result["ops"]}


def check_pass(workload: str, seed: int, result: dict, expected: dict,
               bench: dict | None = None) -> dict[str, list[str]]:
    """Failures of one untraced or traced pass.

    ``expected`` is this workload's entry of ``expected_seed1.json``;
    ``bench`` is the committed BENCH baseline's ``variants`` table, if the
    workload has one.
    """
    fail: dict[str, list[str]] = defaultdict(list)
    ops = ops_by_name(result)
    for name, op in ops.items():
        if not op["ok"]:
            fail[name].append(op["error"])
    digest_applies = seed == 1 or workload in SEED_INVARIANT

    if workload == "mc-explore":
        build, explore = ops.get("build"), ops.get("explore")
        if build and build["ok"]:
            for mutation, found in build["mutations"].items():
                if found["invariant"] is None:
                    fail["build"].append(f"seeded bug {mutation} not found")
            if build["mutations"] != expected["mutations"]:
                fail["build"].append(
                    f"seeded-bug results {build['mutations']} != expected "
                    f"{expected['mutations']}"
                )
        if explore and explore["ok"]:
            mc = explore["mc"]
            if not mc["exhausted"] or mc["violation"] is not None:
                fail["explore"].append(
                    f"exploration not exhausted clean: exhausted="
                    f"{mc['exhausted']} violation={mc['violation']}"
                )
            if mc != expected["mc"]:
                fail["explore"].append(f"explore result {mc} != expected {expected['mc']}")
        return dict(fail)

    build = ops.get("build")
    if build is None or not build["ok"]:
        return dict(fail)
    runs = {name[4:]: op for name, op in ops.items() if name.startswith("run:")}
    if seed == 1 and build["programs"] != expected["programs"]:
        bad = sorted(
            v for v in set(build["programs"]) | set(expected["programs"])
            if build["programs"].get(v) != expected["programs"].get(v)
        )
        fail["build"].append(f"program text differs from expected: {bad}")
    if sorted(build["programs"]) != sorted(expected["runs"]):
        fail["build"].append(
            f"variants {sorted(build['programs'])} != expected {sorted(expected['runs'])}"
        )
    if digest_applies:
        for variant, want in expected["runs"].items():
            op = runs.get(variant)
            if op is not None and op["ok"] and op["digest"] != want:
                fail[f"run:{variant}"].append(
                    f"simulated digest {op['digest']} != expected {want}"
                )
    if digest_applies and bench is not None:
        for variant in BENCH_VARIANTS:
            op = runs.get(variant)
            want = bench[variant]["cycles"]
            if op is not None and op["ok"] and op["digest"]["cycles"] != want:
                fail[f"run:{variant}"].append(
                    f"cycles {op['digest']['cycles']} != BENCH baseline {want}"
                )

    # CICO directives are hints: on every element Cachier does not flag as
    # racy (the worker hashes memory without those), each variant must
    # leave shared memory exactly as plain does.
    plain = runs.get("plain")
    if plain is not None and plain["ok"]:
        for variant, op in runs.items():
            if variant == "plain" or not op["ok"]:
                continue
            differ = sorted(
                array for array, digest in plain["memory"].items()
                if op["memory"].get(array) != digest
            )
            if differ:
                fail[f"run:{variant}"].append(
                    f"final shared memory differs from plain on {differ} "
                    f"(outside the elements flagged as racy)"
                )
    return dict(fail)


#: what an operation produced, as opposed to how long it took
OUTPUT_KEYS = ("programs", "racy_elements", "digest", "memory", "mc", "mutations")


def _outputs(op: dict) -> dict:
    return {key: op.get(key) for key in OUTPUT_KEYS}


def check_traced(untraced: dict, traced: dict) -> dict[str, list[str]]:
    """The traced pass must reproduce the untraced pass's outputs, and its
    boundary counters must equal the simulator's own numbers."""
    fail: dict[str, list[str]] = defaultdict(list)
    plain_ops = ops_by_name(untraced)
    timed = traced["layers"]["timed"]
    counts = traced["layers"]["counts"]
    for name, op in ops_by_name(traced).items():
        if not op["ok"]:
            continue
        ref = plain_ops.get(name)
        if ref is None or _outputs(ref) != _outputs(op):
            fail[name].append("traced outputs differ from the untraced pass")
        stage_t, stage_c = timed.get(name, {}), counts.get(name, {})
        calls = {key: rec[0] for key, rec in stage_t.items()}
        if "digest" in op:
            d = op["digest"]
            pairs = (
                ("coherence hits", calls.get("coherence.hit", 0), d["hits"]),
                (
                    "slow-path transactions + acquiring check-outs",
                    calls.get("coherence.txn", 0)
                    + stage_c.get("coherence.checkout_acquire", 0),
                    d["read_misses"] + d["write_misses"] + d["write_faults"],
                ),
                ("network messages", stage_c.get("network.msgs", 0),
                 sum(d["traffic"].values())),
            )
        elif "mc" in op:
            pairs = (
                ("mc transitions", calls.get("mc.apply", 0), op["mc"]["transitions"]),
                ("mc states", stage_c.get("mc.states", 0), op["mc"]["states"]),
            )
        else:
            pairs = ()
        for what, seen, counted in pairs:
            if seen != counted:
                fail[name].append(
                    f"traced {what} {seen} != simulator's {counted}"
                )
    return dict(fail)
