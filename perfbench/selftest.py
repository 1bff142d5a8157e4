"""Self-tests of the benchmark's output checks.

A wrong simulated output must fail an operation, never pass silently.
Each case takes a pass that matches the committed seed-1 outputs, breaks
one thing, and asserts the checks name the operation it broke.  The last
case runs the real mc-explore pipeline once, end to end, against a
perturbed expected file.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from checks import check_pass, check_traced, ops_by_name  # noqa: E402
from worker import memory_digest  # noqa: E402

EXPECTED = json.loads(run.EXPECTED.read_text())
MEMORY = {"A": "a" * 64, "C": "c" * 64}


def matching_pass(workload: str) -> dict:
    """A pass whose outputs equal the committed seed-1 outputs."""
    exp = EXPECTED[workload]
    if workload == "mc-explore":
        return {"ops": [
            {"op": "build", "ok": True, "error": None,
             "mutations": copy.deepcopy(exp["mutations"])},
            {"op": "explore", "ok": True, "error": None,
             "mc": copy.deepcopy(exp["mc"])},
        ]}
    ops = [{"op": "build", "ok": True, "error": None,
            "programs": dict(exp["programs"]), "racy_elements": {}}]
    for variant, digest in exp["runs"].items():
        ops.append({"op": f"run:{variant}", "ok": True, "error": None,
                    "digest": copy.deepcopy(digest), "memory": dict(MEMORY)})
    return {"ops": ops}


def op(result: dict, name: str) -> dict:
    return ops_by_name(result)[name]


def failed_ops(workload: str, result: dict, seed: int = 1) -> set[str]:
    bench = run.load_bench(workload)
    return set(check_pass(workload, seed, result, EXPECTED[workload], bench))


def test_matching_passes_are_clean():
    for workload in EXPECTED:
        assert failed_ops(workload, matching_pass(workload)) == set(), workload


def test_perturbed_digest_fails_its_run():
    for workload in ("matmul", "tomcatv", "mp3d-observed"):
        result = matching_pass(workload)
        op(result, "run:cachier")["digest"]["cycles"] += 1
        assert failed_ops(workload, result) == {"run:cachier"}, workload
        result = matching_pass(workload)
        op(result, "run:plain")["digest"]["traffic"]["data"] -= 1
        assert failed_ops(workload, result) == {"run:plain"}, workload


def test_seed_invariant_digest_is_checked_on_other_seeds():
    result = matching_pass("tomcatv")
    op(result, "run:hand")["digest"]["recalls"] += 1
    assert failed_ops("tomcatv", result, seed=7) == {"run:hand"}
    # mp3d's access pattern moves with the seed: no digest to hold it to
    result = matching_pass("mp3d-observed")
    op(result, "run:hand")["digest"]["recalls"] += 1
    assert failed_ops("mp3d-observed", result, seed=7) == set()


def test_perturbed_program_text_fails_the_build():
    result = matching_pass("matmul")
    op(result, "build")["programs"]["cachier+pf"] = "0" * 64
    assert failed_ops("matmul", result) == {"build"}
    result = matching_pass("matmul")
    del op(result, "build")["programs"]["hand"]
    assert failed_ops("matmul", result) == {"build"}


def test_bench_baseline_is_enforced():
    result = matching_pass("matmul")
    exp = copy.deepcopy(EXPECTED["matmul"])
    exp["runs"]["plain"]["cycles"] += 1
    op(result, "run:plain")["digest"]["cycles"] += 1
    found = check_pass("matmul", 1, result, exp, run.load_bench("matmul"))
    assert set(found) == {"run:plain"} and "BENCH" in found["run:plain"][0]


def test_memory_difference_fails_the_variant():
    result = matching_pass("mp3d-observed")
    op(result, "run:cachier+pf")["memory"]["C"] = "d" * 64
    assert failed_ops("mp3d-observed", result, seed=5) == {"run:cachier+pf"}


def test_memory_digest_ignores_only_racy_elements():
    import numpy as np

    plain = {"CELL": np.arange(8.0), "POS": np.arange(4.0)}
    racy = {"CELL": [2, 5]}
    other = {name: values.copy() for name, values in plain.items()}
    other["CELL"][5] = -1.0  # a racy element: allowed to differ
    assert memory_digest(other, racy) == memory_digest(plain, racy)
    other["CELL"][4] = -1.0  # not flagged: must show
    assert memory_digest(other, racy)["CELL"] != memory_digest(plain, racy)["CELL"]
    assert memory_digest(other, racy)["POS"] == memory_digest(plain, racy)["POS"]


def test_raised_operation_fails():
    result = matching_pass("matmul")
    failed = op(result, "run:hand+pf")
    failed.update(ok=False, error="VerifyError: swmr")
    del failed["digest"], failed["memory"]
    assert failed_ops("matmul", result) == {"run:hand+pf"}


def test_model_checker_results_are_held():
    result = matching_pass("mc-explore")
    op(result, "explore")["mc"]["states"] -= 1
    assert failed_ops("mc-explore", result) == {"explore"}
    result = matching_pass("mc-explore")
    op(result, "explore")["mc"]["exhausted"] = False
    assert failed_ops("mc-explore", result) == {"explore"}
    result = matching_pass("mc-explore")
    op(result, "build")["mutations"]["skip_downgrade"]["invariant"] = None
    assert failed_ops("mc-explore", result) == {"build"}


def test_traced_cross_check():
    untraced = matching_pass("matmul")
    traced = copy.deepcopy(untraced)
    layers = {"timed": {}, "counts": {}}
    for o in traced["ops"]:
        if "digest" in o:
            d = o["digest"]
            layers["timed"][o["op"]] = {
                "coherence.hit": [d["hits"], 0],
                "coherence.txn": [d["read_misses"] + d["write_misses"], 0],
            }
            layers["counts"][o["op"]] = {
                "coherence.checkout_acquire": d["write_faults"],
                "network.msgs": sum(d["traffic"].values()),
            }
    traced["layers"] = layers
    assert check_traced(untraced, traced) == {}
    layers["timed"]["run:cachier"]["coherence.hit"][0] -= 1
    layers["counts"]["run:plain"]["network.msgs"] += 1
    op(traced, "run:hand")["digest"]["cycles"] += 1
    assert set(check_traced(untraced, traced)) == {
        "run:cachier", "run:plain", "run:hand",
    }


def test_end_to_end_run_fails_on_a_perturbed_expected_file():
    broken = copy.deepcopy(EXPECTED)
    broken["mc-explore"]["mc"]["transitions"] += 1
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        path = Path(tmp) / "expected.json"
        path.write_text(json.dumps(broken))
        saved, run.EXPECTED = run.EXPECTED, path
        try:
            status = run.main(["--workload", "mc-explore", "--seconds", "1"])
        finally:
            run.EXPECTED = saved
    assert status == 1


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failures}/{len(tests)} self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
