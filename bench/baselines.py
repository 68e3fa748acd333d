"""Re-measure the single-call baselines listed in ROADMAP.md (open item 1)
with the benchmark's tracer.

    python3 bench/baselines.py [--repeats N]     # from the checkout root

Each case runs in this one process after a warm-up LP, so the first-solve
cost is not in any figure; each is the median of N calls (the m*=12 LP
runs once).  Times are tracer self times of the named layer, so they
exclude model building.  Parameters: p1 = p2 = q = 0.5, uniform f,
cutoffs at the storage bound, seed 1.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import entlink  # noqa: E402
import entlink.cli  # noqa: E402,F401
from entlink import elemlink, mc, qstate, twolink  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import blas_info  # noqa: E402
from workloads import random_pair  # noqa: E402


def two_link(m):
    return twolink.TwoLinkModel(0.5, 0.5, 0.5, m, m, twolink.uniform_f_table(m, m))


def measure(tracer, layer, fn, repeats):
    """Median over `repeats` calls of the self time of spans named `layer`."""
    times = []
    for _ in range(repeats):
        start = len(tracer.spans)
        fn()
        selfs = tracer.self_times()
        times.append(sum(st for s, st in zip(tracer.spans[start:], selfs[start:])
                         if s.name == layer))
    return statistics.median(times)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    tracer = Tracer()
    tracer.install()
    twolink.lp_optimal_waiting_time(two_link(4))  # warm-up

    rng = np.random.default_rng(1)
    cfg = mc.SimConfig(seed=1, trials=100_000, horizon=10_000)
    elem = elemlink.ElemLinkModel(0.5, 10, np.concatenate([[0.0], np.ones(11)]))
    elem_policy = entlink.Policy.stationary(elemlink.cutoff_decision(elem, 10))

    def pairs(n):
        return qstate.tensor(*(random_pair(rng) for _ in range(n + 1)))

    rows = []
    for m in (5, 8, 12):
        reps = 1 if m == 12 else args.repeats
        rows.append((f"lp_optimal_waiting_time m*={m}: lp.solve", measure(
            tracer, "lp.solve", lambda: twolink.lp_optimal_waiting_time(two_link(m)), reps)))
    for m in (5, 10):
        model = two_link(m)
        d = twolink.cutoff_decision(model, m, m)
        rows.append((f"simulate_two_link 100k m*={m}", measure(
            tracer, "mc.simulate_two_link", lambda: mc.simulate_two_link(model, d, cfg),
            args.repeats)))
    elem_cfg = mc.SimConfig(seed=1, trials=100_000, horizon=200)
    rows.append(("simulate_elem 100k n=12 T=200", measure(
        tracer, "mc.simulate_elem", lambda: mc.simulate_elem(elem, elem_policy, elem_cfg),
        args.repeats)))
    for n in (3, 4):
        joint = pairs(n)
        dims = (2,) * (2 * n + 2)
        rho = qstate.DensityOperator(joint, dims)
        rows.append((f"DensityOperator validation dim {joint.shape[0]}", measure(
            tracer, "qstate.DensityOperator", lambda: qstate.DensityOperator(joint, dims),
            args.repeats)))
        rows.append((f"swap_chain_channel dim {joint.shape[0]}", measure(
            tracer, "qstate.swap_chain_channel", lambda: qstate.swap_chain_channel(rho, n, 2),
            args.repeats)))

    print(f"# {time.strftime('%Y-%m-%d')}, blas threads "
          + ", ".join(f"{b['package']}={b['threads']}" for b in blas_info()))
    for name, seconds in rows:
        print(f"{name:48s} {seconds:9.4f} s")


if __name__ == "__main__":
    main()
