"""Executable acceptance checks.

Each criterion_* function runs one end-to-end validation against an
independent oracle and returns a small result record.  The CLI exposes
them through --selftest; the test suite asserts each one passes.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import elemlink, mc, oracles, qstate, satlink, twolink, waiting
from .lp import load_scipy_module

DEFAULT_SEED = 20260824  # of every criterion, run_all and the CLI's --seed


def _record(name, passed, max_err, seconds, note=""):
    return {"criterion": name, "passed": bool(passed),
            "max_err": float(max_err), "seconds": float(seconds), "note": note}


def _random_density(rng, dim):
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def criterion_steady_state(seed=DEFAULT_SEED):
    """Closed-form stationary distribution vs the direct solve, 200 random
    single-link instances."""
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    max_err = 0.0
    for _ in range(200):
        p = rng.uniform(0.05, 1.0)
        m_star = int(rng.integers(0, 9))
        f = np.concatenate([[0.0], rng.uniform(0, 1, m_star + 1)])
        model = elemlink.ElemLinkModel(p, m_star, f)
        d = oracles.random_decision(rng, model.n, 2)
        s_closed, _ = elemlink.steady_state_closed_form(model, d)
        P = elemlink.policy_matrix(model, d)
        s_num = oracles.stationary_distribution(P)
        max_err = max(max_err, float(np.max(np.abs(s_closed - s_num))))
    dt = time.perf_counter() - t0
    return _record("steady-state closed form vs direct solve",
                   max_err <= 1e-9 and dt < 5.0, max_err, dt)


def criterion_lp_vs_cutoffs(seed=DEFAULT_SEED):
    """Single-link optimum, the best memory cutoff, vs the steady-state
    occupation LP, 100 random monotone instances."""
    rng = np.random.default_rng(seed + 1)
    t0 = time.perf_counter()
    max_err = 0.0
    for _ in range(100):
        p = rng.uniform(0.05, 1.0)
        m_star = int(rng.integers(0, 7))
        vals = np.sort(rng.uniform(0, 1, m_star + 1))[::-1]
        model = elemlink.ElemLinkModel(p, m_star, np.concatenate([[0.0], vals]))
        value, _ = elemlink.lp_optimal_steady(model)
        lp_value = oracles.steady_state_lp(elemlink.build_mdp(model), model.f)
        max_err = max(max_err, abs(value - lp_value))
    dt = time.perf_counter() - t0
    return _record("single-link LP vs best cutoff",
                   max_err <= 1e-7 and dt < 10.0, max_err, dt)


def criterion_two_link_waiting(seed=DEFAULT_SEED):
    """Two-link minimum wait by Howard's steps (`lp_optimal_waiting_time`)
    vs the symmetric closed form on a fixed grid, within 1e-12 relative at
    every point; max_err is the largest absolute error.  The seed is not
    used."""
    t0 = time.perf_counter()
    max_err, close = 0.0, True
    f = twolink.uniform_f_table(5, 5)
    for p in [round(0.1 * k, 1) for k in range(1, 11)]:
        for q in (0.2, 0.5, 0.8, 1.0):
            model = twolink.TwoLinkModel(p, p, q, 5, 5, f)
            t_lp, _ = twolink.lp_optimal_waiting_time(model)
            t_an = twolink.analytic_symmetric_waiting_time(p, q, 5)
            max_err = max(max_err, abs(t_lp - t_an))
            close = close and abs(t_lp - t_an) <= 1e-12 * t_an
    dt = time.perf_counter() - t0
    return _record("two-link optimal wait vs closed form",
                   close and dt < 60.0, max_err, dt)


def criterion_joining_fidelities(seed=DEFAULT_SEED):
    """Closed-form post-joining fidelities vs brute-force channels, 50
    random qubit inputs per protocol."""
    rng = np.random.default_rng(seed + 2)
    t0 = time.perf_counter()
    max_err = 0.0
    for trial in range(50):
        n = 1 + trial % 2
        rhos = [_random_density(rng, 4) for _ in range(n + 1)]
        joint = qstate.DensityOperator(
            qstate.tensor(*rhos), tuple([2] * (2 * n + 2)))
        out = qstate.swap_chain_channel(joint, n, 2)
        direct = qstate.fidelity_to_pure(out, qstate.bell(2))
        ops = [qstate.DensityOperator(r, (2, 2)) for r in rhos]
        formula = qstate.swap_fidelity(
            [qstate.bell_overlap_table(r, 2) for r in ops])
        max_err = max(max_err, abs(direct - formula))

        out_g = qstate.ghz_swap_channel(joint, n)
        direct_g = qstate.fidelity_to_pure(out_g, qstate.ghz(n + 2))
        ztabs = [[qstate.fidelity_to_pure(r, qstate.bell(2, z, 0))
                  for z in (0, 1)] for r in ops]
        formula_g = qstate.ghz_swap_fidelity(ztabs)
        max_err = max(max_err, abs(direct_g - formula_g))

        A = np.array([[0, trial % 2], [trial % 2, 0]])
        pair_joint = qstate.DensityOperator(
            qstate.tensor(rhos[0], rhos[1]), (2, 2, 2, 2))
        out_gr = qstate.graph_dist_channel(pair_joint, A)
        direct_gr = qstate.fidelity_to_pure(out_gr, qstate.graph_state(A))
        formula_gr = qstate.graph_dist_fidelity(
            [qstate.bell_overlap_table(r, 2) for r in ops[:2]], A)
        max_err = max(max_err, abs(direct_gr - formula_gr))
    dt = time.perf_counter() - t0
    return _record("joining fidelity formulas vs brute force",
                   max_err <= 1e-10 and dt < 30.0, max_err, dt)


def criterion_distillation(seed=DEFAULT_SEED):
    """Distillation closed forms vs the instrument channel."""
    rng = np.random.default_rng(seed + 3)
    t0 = time.perf_counter()
    max_err = 0.0
    phi = qstate.bell(2)
    P = np.outer(phi, phi.conj())

    def iso(f):
        return qstate.DensityOperator(f * P + (1 - f) * (np.eye(4) - P) / 3, (2, 2))

    pairs = [(rng.uniform(0.25, 1.0), rng.uniform(0.25, 1.0)) for _ in range(20)]
    pairs.append((0.8, 0.8))
    for f1, f2 in pairs:
        p_f, out_f = qstate.distill_bbpssw(f1, f2)
        p_c, sigma = qstate.bbpssw_instrument(iso(f1), iso(f2))
        out_c = qstate.fidelity_to_pure(sigma, phi)
        max_err = max(max_err, abs(p_f - p_c), abs(out_f - out_c))
    p_ref, f_ref = qstate.distill_bbpssw(0.8, 0.8)
    exact_ok = abs(p_ref - 0.768889) < 1e-6 and abs(f_ref - 0.838150) < 1e-6
    dt = time.perf_counter() - t0
    return _record("distillation formulas vs instrument",
                   max_err <= 1e-10 and exact_ok, max_err, dt)


def criterion_collective_waiting(seed=DEFAULT_SEED):
    """Collective waiting closed form vs pmf summation and Monte Carlo."""
    t0 = time.perf_counter()
    max_err = 0.0
    t = np.arange(1, 2500)
    for M in range(1, 7):
        for p in [round(0.1 * k, 1) for k in range(1, 10)]:
            for t_req in (0, 1, 5):
                exp_cf = waiting.collective_expected_infty(M, p, t_req)
                s = math.fsum(t * waiting.collective_pmf_infty(M, p, t_req, t))
                max_err = max(max_err, abs(exp_cf - s))
    exact = abs(waiting.collective_expected_infty(1, 0.5, 0) - 2.0)
    for p in (0.2, 0.5, 0.9):
        exact = max(exact, abs(waiting.collective_expected_infty(1, p, 0) - 1 / p))
    cfg = mc.SimConfig(seed=seed, trials=100_000)
    res = mc.simulate_collective(2, 0.5, 0, cfg)
    samples = res["wait_samples"]
    mean, se = samples.mean(), samples.std(ddof=1) / math.sqrt(samples.size)
    mc_ok = abs(mean - 8 / 3) <= 4 * se
    dt = time.perf_counter() - t0
    return _record("collective waiting closed form vs pmf and MC",
                   max_err <= 1e-8 and exact <= 1e-12 and mc_ok, max_err, dt,
                   note=f"mc_mean={mean:.6f}")


def criterion_satellite_link(seed=DEFAULT_SEED):
    """Heralded-link closed form vs the beamsplitter dilation; entanglement
    test vs initial fidelity; greedy cutoff formula vs direct scan."""
    rng = np.random.default_rng(seed + 4)
    t0 = time.perf_counter()
    max_err = 0.0
    for _ in range(10):
        eta1, eta2 = rng.uniform(0.05, 1.0, 2)
        nb1, nb2 = rng.uniform(0.0, 1.0, 2)
        f_S = rng.uniform(0.0, 1.0)
        src = satlink.SatSourceParams(f_S, nb1, nb2)
        link = satlink.heralded_link(eta1, eta2, src)
        p_or, coeffs_or = oracles.beamsplitter_heralded_link(
            eta1, eta2, f_S, nb1, nb2)
        max_err = max(max_err, abs(link.p - p_or),
                      float(np.max(np.abs(link.p * link.coeffs.as_array()
                                          - coeffs_or))))
    ent_ok = True
    for _ in range(1000):
        eta1, eta2 = rng.uniform(0.05, 1.0, 2)
        nb1, nb2 = rng.uniform(0.0, 1.0, 2)
        f_S = rng.uniform(0.0, 1.0)
        link = satlink.heralded_link(eta1, eta2,
                                     satlink.SatSourceParams(f_S, nb1, nb2))
        if satlink.entangled(link) != (link.coeffs.phi_plus > 0.5):
            ent_ok = False
            break
    cut_ok = satlink.forward_cutoff(0.6, 100) == 80
    for _ in range(200):
        p = rng.uniform(0.55, 1.0)
        t_coh = rng.uniform(1.0, 200.0)
        want = satlink.forward_cutoff(p, t_coh)
        m = 0
        while satlink.memory_f(m + 1, t_coh, 0.5, 0.5) > p and m < 10_000:
            m += 1
        if want != m:
            cut_ok = False
            break
    dt = time.perf_counter() - t0
    return _record("satellite link vs dilation oracle",
                   max_err <= 1e-10 and ent_ok and cut_ok, max_err, dt)


def criterion_backward_recursion(seed=DEFAULT_SEED):
    """Finite-horizon optimum vs exhaustive policy enumeration, and the
    history-indexed recursion vs the age-time dynamic program."""
    rng = np.random.default_rng(seed + 5)
    t0 = time.perf_counter()
    max_err = 0.0
    for m_star in range(3):
        for t in range(1, 5):
            for _ in range(3):
                p = rng.uniform(0.1, 1.0)
                f = np.concatenate([[0.0], rng.uniform(0, 1, m_star + 1)])
                model = elemlink.ElemLinkModel(p, m_star, f)
                v_dp, _ = elemlink.optimal_backward(model, t)
                v_ex = oracles.exhaustive_markov_policy_value(model, t)
                max_err = max(max_err, abs(v_dp - v_ex))
    hist_err = 0.0
    for m_star in range(4):
        for t in range(1, 7):
            p = rng.uniform(0.1, 1.0)
            f = np.concatenate([[0.0], rng.uniform(0, 1, m_star + 1)])
            model = elemlink.ElemLinkModel(p, m_star, f)
            v_dp, _ = elemlink.optimal_backward(model, t)
            v_h, _ = oracles.optimal_backward_history(model, t)
            hist_err = max(hist_err, abs(v_dp - v_h))
    dt = time.perf_counter() - t0
    return _record("backward recursion vs exhaustive search",
                   max_err <= 1e-12 and hist_err <= 1e-12,
                   max(max_err, hist_err), dt)


def _brentq(f, a, b):
    """`scipy.optimize.brentq(f, a, b, xtol=1e-12)`: its compiled loop,
    loaded on first use, with the arguments brentq passes (rtol 4 eps, at
    most 100 iterations, RuntimeError when it does not converge)."""
    zeros = load_scipy_module("optimize._zeros")
    return zeros._brentq(f, a, b, 1e-12, 4 * np.finfo(float).eps, 100, (), False, True)


def criterion_key_rates(seed=DEFAULT_SEED):
    """Exact key-rate anchor points, the BB84 threshold location, and the
    protocol threshold ordering; the seed is not used."""
    t0 = time.perf_counter()
    ok = satlink.key_rate_bb84(0.0) == 1.0
    ok = ok and satlink.key_rate_di(0.0, 2 * math.sqrt(2)) == 1.0
    q_bb84 = _brentq(satlink.key_rate_bb84, 0.01, 0.25)
    ok = ok and abs(q_bb84 - 0.1100) <= 1e-3
    q_six = _brentq(satlink.key_rate_six_state, 0.05, 0.3)
    q_di = _brentq(lambda q: satlink.key_rate_di(q, 2 * math.sqrt(2) * (1 - 2 * q)),
                   1e-4, 0.14)
    ok = ok and q_di < q_bb84 < q_six
    dt = time.perf_counter() - t0
    return _record("key-rate anchors and thresholds", ok,
                   abs(q_bb84 - 0.1100), dt,
                   note=f"thresholds di={q_di:.4f} bb84={q_bb84:.4f} six={q_six:.4f}")


CRITERIA = [
    criterion_steady_state,
    criterion_lp_vs_cutoffs,
    criterion_two_link_waiting,
    criterion_joining_fidelities,
    criterion_distillation,
    criterion_collective_waiting,
    criterion_satellite_link,
    criterion_backward_recursion,
    criterion_key_rates,
]


def run_all(seed=DEFAULT_SEED):
    out = []
    for fn in CRITERIA:
        try:
            out.append(fn(seed))
        except Exception as exc:  # a crash counts as a failure, not an abort
            out.append(_record(fn.__name__, False, float("nan"), 0.0,
                               note=f"exception: {exc}"))
    return out
