#!/usr/bin/env python3
"""Self-test of the perfbench benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

1. Runs every workload for a few ops, untraced and traced, and checks the
   last output line: exactly the keys correct/attempted/failed/metrics,
   exactly the metric names and units BENCHMARK.json lists for that mode,
   finite values, correct == true and ok_frac == 1.
2. Negative case: dense_real with a perturbed reference must report
   correct == false and ok_frac < 1.
3. The benchmark must refuse to run when a behaviour-changing SRUMMA_*
   variable is set.

Exits 0 when every check passes.
"""

import json
import math
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OPS = "3"


def run(workload, trace, *extra, env=None):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--max-ops", OPS, *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env=env, timeout=600)


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_format(res, trace, label):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, label
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1, label
    assert isinstance(res["failed"], int), label
    want = SPEC["per_layer" if trace else "end_to_end"]
    got = res["metrics"]
    assert list(got) == [m["name"] for m in want], (
        f"{label}: metric names differ from BENCHMARK.json")
    for m in want:
        v = got[m["name"]]
        assert set(v) == {"value", "unit"}, label
        assert v["unit"] == m["unit"], f"{label}: unit of {m['name']}"
        assert isinstance(v["value"], (int, float)), label
        assert math.isfinite(v["value"]), f"{label}: {m['name']} not finite"


def main():
    failures = 0

    def check(label, fn):
        nonlocal failures
        try:
            fn()
            print(f"ok   {label}")
        except AssertionError as e:
            failures += 1
            print(f"FAIL {label}: {e}")

    for w in SPEC["workloads"]:
        for trace in (0, 1):
            label = f"{w['name']} --trace {trace}"

            def positive(w=w, trace=trace, label=label):
                res = result(run(w["name"], trace))
                check_format(res, trace, label)
                assert res["correct"] is True, f"{label}: not correct"
                assert res["failed"] == 0, label
                if not trace:
                    assert res["metrics"]["ok_frac"]["value"] == 1, label
            check(label, positive)

    def negative():
        res = result(run("dense_real", 0, "--perturb-reference"))
        check_format(res, 0, "perturbed reference")
        assert res["correct"] is False, "a perturbed reference passed"
        assert res["failed"] >= 1
        assert res["metrics"]["ok_frac"]["value"] < 1
    check("dense_real with a perturbed reference fails its ops", negative)

    def refuses_foreign_env():
        env = dict(os.environ, SRUMMA_ENGINE="1")
        proc = run("dense_real", 0, env=env)
        assert proc.returncode != 0, "ran with SRUMMA_ENGINE set"
        assert not proc.stdout.strip().startswith("{")
    check("refuses a behaviour-changing SRUMMA_* variable", refuses_foreign_env)

    print("self-test", "passed" if failures == 0 else f"FAILED ({failures})")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
