"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-9 run the same checks as the CLI --selftest; criterion 10 runs
the CLI in a new process and in this one and compares their CSV byte for
byte.
"""

import subprocess
import sys

from entlink import cli, selftest, twolink


def _run(fn, *args):
    r = fn(*args)
    line = "PASS" if r["passed"] else "FAIL"
    print(f"[{line}] {r['criterion']}: max_err={r['max_err']:.3g} "
          f"({r['seconds']:.2f}s) {r['note']}")
    assert r["passed"], r


def test_criterion_01_steady_state_closed_form():
    _run(selftest.criterion_steady_state)


def test_criterion_02_lp_vs_best_cutoff():
    _run(selftest.criterion_lp_vs_cutoffs)


def test_criterion_03_two_link_waiting_lp():
    _run(selftest.criterion_two_link_waiting)


def test_criterion_03_fails_a_wait_off_by_1e_9(monkeypatch):
    # the optimum matches the closed form within ~1e-14 relative, so an
    # error of 1e-9 relative (up to ~1e-7 steps on this grid) must fail
    real = twolink.lp_optimal_waiting_time
    monkeypatch.setattr(twolink, "lp_optimal_waiting_time",
                        lambda model: (real(model)[0] * (1 + 1e-9), None))
    assert not selftest.criterion_two_link_waiting()["passed"]


def test_criterion_04_joining_fidelity_formulas():
    _run(selftest.criterion_joining_fidelities)


def test_criterion_05_distillation():
    _run(selftest.criterion_distillation)


def test_criterion_06_collective_waiting():
    _run(selftest.criterion_collective_waiting)


def test_criterion_07_satellite_link():
    _run(selftest.criterion_satellite_link)


def test_criterion_08_backward_recursion():
    _run(selftest.criterion_backward_recursion)


def test_criterion_09_key_rates():
    _run(selftest.criterion_key_rates)


def test_criterion_10_selftest_determinism(tmp_path):
    argv = ["--selftest", "--seed", "20260824", "--out"]
    r = subprocess.run([sys.executable, "-m", "entlink.cli", *argv, str(tmp_path / "a.csv")],
                       capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, r.stderr
    assert cli.main([*argv, str(tmp_path / "b.csv")]) == 0
    outs = [(tmp_path / name).read_bytes() for name in ("a.csv", "b.csv")]
    identical = outs[0] == outs[1]
    print(f"[{'PASS' if identical else 'FAIL'}] selftest CSV byte-identical "
          f"across same-seed runs ({len(outs[0])} bytes)")
    assert identical
