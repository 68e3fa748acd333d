"""entlink benchmark.

    python3 bench/run.py --workload {policy-lp,oracle-crosscheck,cli-selftest}
                         --seed N --seconds S --trace {0,1} [--tiny]

Run from the root of a source checkout; the program is imported from
`src/`.  Every pass runs in a fresh worker process (bench/worker.py), one
at a time, with no warm-up, because every CLI call and script pays the
cold start.  Passes repeat the same seed-generated instance set until the
next one would end after --seconds (at least MIN_CYCLES of them).

--trace 0 reports the end-to-end metrics: medians over passes of the pass
wall time, the set-up time (fresh interpreter until `entlink.cli` is
imported and the inputs exist) and the worker's peak RSS.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones (medians), the tracing overhead and, on policy-lp, the LP
ladder extras: the m*=12 waiting LP, and m*=8 and m*=12 again with BLAS
pinned to one thread through the worker's environment.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  `attempted` and `failed`
count output checks; `correct` also needs every worker to finish and every
pass to see the same instance-set hash.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("policy-lp", "oracle-crosscheck", "cli-selftest")
MIN_CYCLES = 3        # cycles of workers per run, whatever --seconds says
WORKER_TIMEOUT_S = 150
BLAS1_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Run:
    def __init__(self, root, args):
        self.root, self.args = root, args
        self.src = os.path.join(root, "src")
        self.attempted = self.failed = 0
        self.hashes = set()
        self.env = None

    def spawn(self, trace=False, ladder=False, setup_only=False, extra_env=None):
        """One worker; returns (result or None, set-up seconds)."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--src", self.src,
               "--workload", self.args.workload, "--seed", str(self.args.seed)]
        cmd += [flag for flag, on in (("--trace", trace), ("--tiny", self.args.tiny),
                                      ("--ladder", ladder), ("--setup-only", setup_only)) if on]
        env = dict(os.environ)
        env.update(extra_env or {})
        t_spawn = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=env, capture_output=True,
                                  text=True, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._worker_failed(f"worker timed out after {WORKER_TIMEOUT_S} s")
            return None, None
        lines = proc.stdout.strip().splitlines()
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            res = None
        if proc.returncode != 0 or res is None:
            self._worker_failed(f"worker exit {proc.returncode}: {proc.stderr[-2000:]}")
            return None, None
        setup_s = res["t_ready"] - t_spawn
        if setup_only:
            return res, setup_s
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        for msg in res["failures"]:
            print(f"FAILED check: {msg}", file=sys.stderr)
        self.hashes.add(res["instance_sha256"])
        self.env = self.env or res["env"]
        return res, setup_s

    def _worker_failed(self, msg):
        print(msg, file=sys.stderr)
        self.attempted += 1
        self.failed += 1

    def cycles(self, kinds):
        """Cycle through `kinds` (dicts of spawn arguments) until the next
        cycle would end after --seconds; at least `MIN_CYCLES` cycles."""
        out = {i: [] for i in range(len(kinds))}
        start = time.perf_counter()
        cycle_s = []
        while True:
            t = time.perf_counter()
            for i, kw in enumerate(kinds):
                res, setup_s = self.spawn(**kw)
                if res is not None:
                    out[i].append((res, setup_s))
            cycle_s.append(time.perf_counter() - t)
            elapsed = time.perf_counter() - start
            if (len(cycle_s) >= MIN_CYCLES
                    and elapsed + statistics.median(cycle_s) > self.args.seconds):
                return [out[i] for i in range(len(kinds))]


def median(values):
    return statistics.median(values) if values else None


def untraced(run):
    # a set-up-only worker after each pass doubles the set-up samples and
    # spreads them over the run
    done, setup_only = run.cycles([{}, {"setup_only": True}])
    setups = [s for _, s in done + setup_only]
    walls = [r["wall_s"] for r, _ in done]
    print("pass wall_s: " + " ".join(f"{w:.4f}" for w in walls))
    print("set-up s:    " + " ".join(f"{s:.4f}" for s in setups))
    return {
        "wall_s": median(walls),
        "setup_s": median(setups),
        "peak_rss_mb": median([r["peak_rss_mb"] for r, _ in done]),
    }, len(done), len(setups)


def traced(run):
    plain, traced_ = run.cycles([{}, {"trace": True}])
    layers = {name: median([r["layers"][name] for r, _ in traced_])
              for name in traced_[0][0]["layers"]} if traced_ else {}
    if plain and traced_:
        layers["trace.overhead_s"] = (median([r["wall_s"] for r, _ in traced_])
                                      - median([r["wall_s"] for r, _ in plain]))
    ladder = {"lp.solve_s.m12": 0.0, "lp.solve_s.m8.blas1": 0.0, "lp.solve_s.m12.blas1": 0.0}
    if run.args.workload == "policy-lp" and not run.args.tiny:
        res, _ = run.spawn(trace=True, ladder=True)
        if res is not None:
            ladder["lp.solve_s.m12"] = res["layers"]["lp.solve_s.m12"]
        res, _ = run.spawn(trace=True, ladder=True, extra_env=BLAS1_ENV)
        if res is not None:
            ladder["lp.solve_s.m8.blas1"] = res["layers"]["lp.solve_s.m8"]
            ladder["lp.solve_s.m12.blas1"] = res["layers"]["lp.solve_s.m12"]
    layers.update(ladder)
    return layers, len(plain), len(traced_)


def source_identity(root):
    """The git commit when the checkout is a repository, and always a hash
    of the program's sources."""
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "entlink")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return commit, h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="small instances, for the benchmark's self-check only")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "entlink", "__init__.py")):
        print("bench: run from the root of an entlink checkout (src/entlink not found)",
              file=sys.stderr)
        return 2

    run = Run(root, args)
    if args.trace:
        values, n_plain, n_traced = traced(run)
        spec, what = PER_LAYER, f"{n_traced} traced and {n_plain} untraced passes"
    else:
        values, n_passes, n_setups = untraced(run)
        spec, what = END_TO_END, f"{n_passes} passes, {n_setups} set-ups"
    if any(values.get(name) is None for name, _ in spec):
        print("bench: no pass finished; no result", file=sys.stderr)
        return 1

    commit, src_sha = source_identity(root)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "commit": commit, "src_sha256": src_sha,
              "instance_sha256": sorted(run.hashes), "env": run.env}
    print("environment " + json.dumps(record, sort_keys=True))
    print(f"{args.workload}: medians of {what}")
    for name, unit in spec:
        print(f"  {name:32s} {values[name]:.6g} {unit}")
    failed_frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'failed_frac':32s} {failed_frac:.6g} ratio ({run.failed} of {run.attempted} checks)")

    correct = run.failed == 0 and run.attempted > 0 and len(run.hashes) == 1
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
