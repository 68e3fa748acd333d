"""Self-check of the benchmark itself (not part of the test suite).

    python3 bench/selfcheck.py        # from the root of the checkout

Runs every workload at a tiny size, untraced and traced, and asserts that
every metric BENCHMARK.json names is emitted with its unit, that no check
fails, that the instance-set hash is the same for a fixed seed and differs
across seeds, that BENCHMARK.json and bench/metrics.py agree, and that the
benchmark refuses to run where there is no program to measure.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from run import WORKLOADS  # noqa: E402


def bench(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def result(workload, seed, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    env = json.loads(next(ln for ln in lines if ln.startswith("environment "))
                     .split(" ", 1)[1])
    return out, env


def check_result(out, spec, what):
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, what
    assert out["correct"] is True and out["failed"] == 0, (what, out)
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1, what
    assert set(out["metrics"]) == {name for name, _ in spec}, what
    for name, unit in spec:
        m = out["metrics"][name]
        assert m["unit"] == unit, (what, name, m)
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (what, name)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)

    for name, (make_inputs, _) in workloads.WORKLOADS.items():
        h = workloads.instance_hash(make_inputs(7, tiny=False))
        assert h == workloads.instance_hash(make_inputs(7, tiny=False)), name
        assert h != workloads.instance_hash(make_inputs(8, tiny=False)), name

    for name in WORKLOADS:
        plain, env0 = result(name, 7, 0)
        check_result(plain, END_TO_END, f"{name} --trace 0")
        traced, env1 = result(name, 7, 1)
        check_result(traced, PER_LAYER, f"{name} --trace 1")
        assert len(env0["instance_sha256"]) == 1, name
        assert env0["instance_sha256"] == env1["instance_sha256"], name
        _, env2 = result(name, 8, 0)
        assert env2["instance_sha256"] != env0["instance_sha256"], name
        print(f"ok  {name}: {plain['attempted']} checks untraced, "
              f"coverage {traced['metrics']['trace.coverage']['value']:.3f}")

    # no program next to the benchmark: no result, non-zero exit
    proc = bench(HERE, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode != 0 and "correct" not in proc.stdout, proc.stdout
    print("ok  refuses to run without src/entlink")


if __name__ == "__main__":
    main()
