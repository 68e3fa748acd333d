import itertools
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entlink import lp as L
from entlink import markov, qstate
from entlink import twolink as TL
from entlink import oracles
from entlink.oracles import two_link_absorbing_chain, two_link_lp
from entlink.markov import DecisionFunction, ModelError
from entlink.twolink import TwoLinkModel

from conftest import policy_chain


def sym_model(p, q, m_star):
    return TL.TwoLinkModel(p, p, q, m_star, m_star,
                           TL.uniform_f_table(m_star, m_star))


def both_active(model):
    return np.outer(np.arange(model.n1) > 0, np.arange(model.n2) > 0).ravel()


def dense(C):
    """The dense array of an `lp.Csc`, whose entries are distinct."""
    out = np.zeros(C.shape)
    out[C.indices, np.repeat(np.arange(C.shape[1]), np.diff(C.indptr))] = C.data
    return out


def exact_symmetric_wait(p, q, t_star):
    """The symmetric-cutoff closed form in exact rational arithmetic, at the
    float inputs' exact values."""
    p, q = Fraction(p), Fraction(q)
    r = (1 - p) ** t_star
    return (3 - 2 * p * (1 - r) - 2 * r) / (q * p * (2 - p * (1 - 2 * r) - 2 * r))


def rel_err(value, exact):
    return abs(float((Fraction(value) - exact) / exact))


def test_f_table_validation():
    f = TL.uniform_f_table(1, 1)
    bad = f.copy()
    bad[0, 1, 1] = 0.5  # mass on x=0
    with pytest.raises(ModelError):
        TL.TwoLinkModel(0.5, 0.5, 0.5, 1, 1, bad)
    bad = f.copy()
    bad[1, 0, 1] = 0.5  # inactive link with nonzero f
    with pytest.raises(ModelError):
        TL.TwoLinkModel(0.5, 0.5, 0.5, 1, 1, bad)
    # float bounds were accepted with n == 16.0, and evaluate_policy raised a TypeError
    with pytest.raises(ModelError, match="storage bounds must be >= 0 and of integer type"):
        TL.TwoLinkModel(0.5, 0.5, 0.5, 2.0, 2.0, TL.uniform_f_table(2, 2))
    with pytest.raises(ModelError, match="storage bounds must be >= 0 and of integer type"):
        TL.uniform_f_table(2.0, 2)
    with pytest.raises(ModelError, match="storage bounds must be >= 0 and of integer type"):
        TL.uniform_f_table(True, 2)
    m = np.int64(2)
    assert TL.TwoLinkModel(0.5, 0.5, 0.5, m, 2, TL.uniform_f_table(m, 2)).n == 16


def test_all_action_matrices_column_stochastic():
    # each K^a plus the mass that ends the cycle (a swap attempt at a
    # both-active state) is column-stochastic, stored with no zeros
    for (p1, p2, q, m1, m2) in [(0.3, 0.8, 0.5, 0, 0), (0.5, 0.5, 0.7, 2, 1),
                                (1.0, 0.4, 1.0, 1, 3), (0.0, 1.0, 0.5, 2, 2)]:
        model = TL.TwoLinkModel(p1, p2, q, m1, m2, TL.uniform_f_table(m1, m2))
        B = model.blocks
        assert isinstance(B, L.Csc) and B.shape == (model.n, len(TL.ACTIONS) * model.n)
        assert np.all(B.data > 0) and not B.data.flags.writeable
        exits = np.concatenate([both_active(model) * (k == TL.SWAP)
                                for k in range(len(TL.ACTIONS))])
        np.testing.assert_allclose(dense(B).sum(axis=0) + exits, 1.0, rtol=0, atol=1e-15)


def test_absorbing_set_is_done():
    # the renewal form has no absorbing state; the oracle's dense chain has
    # one, `done` at n1*n2.  At p = 1e-13 the start state's self-loop is
    # within 1e-12 of 1 under every action, yet the state is transient
    for p, m_star in ((0.5, 1), (1e-13, 2)):
        model = sym_model(p, 0.5, m_star)
        T, reward, init = two_link_absorbing_chain(model)
        done = model.n1 * model.n2
        assert model.n == done and T.shape == (len(TL.ACTIONS), done + 1, done + 1)
        leaves = np.any(T * (1 - np.eye(done + 1)) != 0, axis=(0, 1))
        assert np.flatnonzero(~leaves).tolist() == [done]
        assert init[done] == 0 and reward.shape == (len(TL.ACTIONS), done + 1)


@pytest.mark.parametrize("p1, p2, q", [(True, 0.5, 0.5), (0.5, np.True_, 0.5),
                                       (0.5, 0.5, True), (True, 0.5, True), (0.5, 0.5, "1"),
                                       (0.5, float("nan"), 0.5)])
def test_non_probability_parameters_raise(p1, p2, q):
    # TwoLinkModel(True, .5, True, 1, 1, ...) was accepted as p1 = q = 1
    with pytest.raises(ModelError, match="must be a real number in"):
        TL.TwoLinkModel(p1, p2, q, 1, 1, TL.uniform_f_table(1, 1))


def test_lps_need_positive_probabilities():
    # zero p or q makes the LPs infeasible: invalid input, not a numerical failure
    for p, q in ((0.5, 0.0), (0.0, 0.5)):
        for solve in (TL.lp_optimal_value, TL.lp_optimal_waiting_time):
            with pytest.raises(ModelError, match="needs q, p1, p2 > 0") as info:
                solve(sym_model(p, q, 1))
            assert not isinstance(info.value, markov.NumericalError)


def test_swap_action_success_mass():
    # an attempt at (0, 0) ends the cycle: its swap column is empty
    model = sym_model(0.5, 0.7, 1)
    src = model.idx(0, 0)
    col = TL.SWAP * model.n + src
    assert model.blocks.indptr[col + 1] == model.blocks.indptr[col]
    # in the oracle's absorbing chain the swap succeeds with probability q
    # into done, and a failure regenerates both links afresh
    T = two_link_absorbing_chain(model)[0][TL.SWAP]
    assert T[model.n, src] == pytest.approx(0.7)
    assert T[model.idx(-1, -1), src] == pytest.approx(0.3 * 0.5 * 0.5)
    assert T[model.idx(0, 0), src] == pytest.approx(0.3 * 0.5 * 0.5)


def test_swap_on_inactive_links_shifts_ages():
    model = sym_model(0.5, 0.7, 2)
    T = dense(model.blocks)[:, TL.SWAP * model.n:]
    # link 1 active at age 0, link 2 inactive: age shifts, no swap attempt
    src = model.idx(0, -1)
    assert T[model.idx(1, -1), src] == pytest.approx(1.0)
    # both inactive: stay
    src = model.idx(-1, -1)
    assert T[src, src] == pytest.approx(1.0)
    # link at the storage bound with partner inactive: discarded
    src = model.idx(2, -1)
    assert T[model.idx(-1, -1), src] == pytest.approx(1.0)


def _rule_matrices(model):
    """The two-link transition rules written out state by state."""

    def link_next(p, m, m_star, request):
        if request:
            return {-1: 1 - p, 0: p}
        if m == -1 or m == m_star:
            return {-1: 1.0}  # inactive stays so; a pair at the bound is discarded
        return {m + 1: 1.0}

    done = model.n1 * model.n2
    mats = {a: np.zeros((done + 1, done + 1)) for a in TL.ACTIONS}
    for T in mats.values():
        T[done, done] = 1.0
    for m1, m2 in itertools.product(range(-1, model.m1_star + 1),
                                    range(-1, model.m2_star + 1)):
        src = model.idx(m1, m2)
        for a in TL.ACTIONS:
            T = mats[a]
            if a == "swap" and m1 >= 0 and m2 >= 0:
                T[done, src] += model.q
                req = (True, True)
                weight = 1 - model.q
            else:
                req = (False, False) if a == "swap" else (a[0] == "1", a[1] == "1")
                weight = 1.0
            nxt1 = link_next(model.p1, m1, model.m1_star, req[0])
            nxt2 = link_next(model.p2, m2, model.m2_star, req[1])
            for n1, pr1 in nxt1.items():
                for n2, pr2 in nxt2.items():
                    T[model.idx(n1, n2), src] += weight * (pr1 * pr2)
    return mats


def test_build_matches_state_by_state_rules():
    rng = np.random.default_rng(20260824)
    cases = [(1.0, 1.0, 1.0, 0, 0), (1.0, 0.3, 1.0, 2, 0), (0.4, 1.0, 0.6, 0, 3)]
    for _ in range(20):
        cases.append((*rng.uniform(0, 1, 3), *rng.integers(0, 5, 2)))
    for p1, p2, q, m1, m2 in cases:
        model = TL.TwoLinkModel(p1, p2, q, int(m1), int(m2),
                                TL.uniform_f_table(int(m1), int(m2)))
        chain = two_link_absorbing_chain(model)[0]
        n = model.n
        for a, T in _rule_matrices(model).items():
            k = TL.ACTIONS.index(a)
            np.testing.assert_allclose(chain[k], T, rtol=0, atol=1e-15)
            # the renewal block: the attempt mass leaves the cycle
            K = T[:n, :n].copy()
            if a == "swap":
                K[:, both_active(model)] = 0.0
            np.testing.assert_allclose(dense(model.blocks)[:, k * n:(k + 1) * n], K,
                                       rtol=0, atol=1e-15)


def test_evaluate_policy_raises_when_solve_loses_mass():
    # at p = 1e-13 the exit mass S.z of one cycle is 1 - 1e-3
    model = sym_model(1e-13, 0.5, 2)
    with pytest.raises(markov.NumericalError, match="ill-conditioned"):
        TL.evaluate_policy(model, TL.cutoff_decision(model, 2, 2))
    # the absorbing solve raised here from p = 1e-5 down, and was off by
    # 1.1e-11 at p = 1e-3; the renewal ratios stay within 1e-15
    for p in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
        model = sym_model(p, 0.5, 2)
        wait, f_abs = TL.evaluate_policy(model, TL.cutoff_decision(model, 2, 2))
        assert rel_err(wait, exact_symmetric_wait(p, 0.5, 2)) <= 1e-15, p
        assert f_abs == 1.0


def test_analytic_waiting_time_at_small_p():
    # 2 - 2r with r = (1 - p)^t* lost 2.3e-14 at p = 1e-3 and 1.5e-9 at 1e-8
    for p in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
        for t_star in (1, 2, 5):
            got = TL.analytic_symmetric_waiting_time(p, 0.5, t_star)
            assert rel_err(got, exact_symmetric_wait(p, 0.5, t_star)) <= 1e-15, (p, t_star)
    assert TL.analytic_symmetric_waiting_time(1.0, 0.5, 0) == 2.0
    assert TL.analytic_symmetric_waiting_time(1.0, 0.5, 3) == 2.0


@pytest.mark.parametrize("p, q", [(True, 0.5), ("0.5", 0.5), (0.5, True), (0.5, "0.5")],
                         ids=["p-bool", "p-str", "q-bool", "q-str"])
def test_analytic_waiting_time_rejects_non_probabilities(p, q):
    # analytic_symmetric_waiting_time(True, 0.5, 2) gave 2.0, and a string
    # raised a bare TypeError
    with pytest.raises(ModelError, match="must be real numbers in"):
        TL.analytic_symmetric_waiting_time(p, q, 2)


def test_analytic_waiting_time_that_overflows_raises():
    # q p (p + 2u(1 - p)) underflowed to 0 at p = 1e-170 (ZeroDivisionError)
    # and to a subnormal at 1e-160, which gave inf
    for p in (1e-160, 1e-170, 5e-324):
        with pytest.raises(markov.NumericalError, match="analytic_symmetric_waiting_time"):
            TL.analytic_symmetric_waiting_time(p, 0.5, 2)
    assert TL.analytic_symmetric_waiting_time(1e-150, 0.5, 2) == pytest.approx(
        1 / (0.5 * 1e-150 * 5e-150), rel=1e-12)


def test_evaluate_matches_the_oracle_chain(rng):
    # random decisions: the renewal ratios against (I - Q)^{-1} of the
    # oracle's dense absorbing chain; the swap action counts as "00" away
    # from the both-active states in both
    for _ in range(20):
        m1, m2 = (int(v) for v in rng.integers(0, 4, 2))
        f = np.zeros((2, m1 + 2, m2 + 2))
        f[1, 1:, 1:] = rng.uniform(0, 1, (m1 + 1, m2 + 1))
        model = TL.TwoLinkModel(*rng.uniform(0.05, 1.0, 3), m1, m2, f)
        table = rng.dirichlet(np.ones(len(TL.ACTIONS)), size=model.n)
        wait, f_abs = TL.evaluate_policy(model, markov.DecisionFunction(table))
        T, reward, init = two_link_absorbing_chain(model)
        P = policy_chain(T, markov.DecisionFunction(
            np.vstack([table, np.eye(len(TL.ACTIONS))[0]])))
        y = np.linalg.solve(np.eye(model.n) - P[:-1, :-1], init[:-1])
        assert wait == pytest.approx(y.sum(), rel=1e-11)
        # the total swap reward q f(s) d(s)(swap) over the visits y
        assert f_abs == pytest.approx((reward[TL.SWAP, :-1] * table[:, TL.SWAP]) @ y,
                                      rel=1e-11)


def test_evaluate_wait_is_one_over_q_when_both_links_are_always_up():
    # both links up at every step (p = 1, m* = 0): every cycle is one step
    # and ends in an attempt that succeeds with probability q, so E[T] = 1/q
    q = 0.3
    model = TwoLinkModel(1.0, 1.0, q, 0, 0, TL.uniform_f_table(0, 0))
    d = TL.cutoff_decision(model, 0, 0)
    assert TL.evaluate_policy(model, d) == pytest.approx((1 / q, 1.0), abs=1e-12)


def test_cycle_exit_mass_is_one_under_the_uniform_decision(rng):
    # renewal form: under any decision one cycle ends in exactly one swap
    # attempt, so the exit mass S.z of z = (I - K^d)^{-1} g is 1
    for _ in range(10):
        m1, m2 = (int(m) for m in rng.integers(0, 4, 2))
        model = TwoLinkModel(*rng.uniform(0.1, 1.0, 3), m1, m2, TL.uniform_f_table(m1, m2))
        (rows, cols, vals), S = TL.policy_kernel(model,
                                                 DecisionFunction(np.full((model.n, 5), 1 / 5)))
        K = np.zeros((model.n, model.n))
        np.add.at(K, (rows, cols), vals)
        z = np.linalg.solve(np.eye(model.n) - K, TL.initial_distribution(model))
        assert S @ z == pytest.approx(1.0, abs=1e-10)
        assert np.all(z >= -1e-12)


def test_evaluate_cutoff_matches_analytic():
    for p in (0.3, 0.6, 1.0):
        for q in (0.4, 1.0):
            for ts in (0, 1, 2):
                model = sym_model(p, q, ts)
                d = TL.cutoff_decision(model, ts, ts)
                wait, f_abs = TL.evaluate_policy(model, d)
                assert wait == pytest.approx(
                    TL.analytic_symmetric_waiting_time(p, q, ts), abs=1e-9)
                assert f_abs == pytest.approx(1.0, abs=1e-9)


def test_analytic_anchor_points():
    assert TL.analytic_symmetric_waiting_time(1.0, 1.0, 0) == pytest.approx(1.0)
    assert TL.analytic_symmetric_waiting_time(0.5, 0.5, 0) == pytest.approx(8.0)


def test_lp_waiting_equals_analytic_grid():
    f = TL.uniform_f_table(5, 5)
    for p in (0.2, 0.7):
        for q in (0.5, 1.0):
            model = TL.TwoLinkModel(p, p, q, 5, 5, f)
            t_lp, d = TL.lp_optimal_waiting_time(model)
            assert t_lp == pytest.approx(
                TL.analytic_symmetric_waiting_time(p, q, 5), rel=1e-12)
            # the extracted decision achieves the optimum
            wait, _ = TL.evaluate_policy(model, d)
            assert wait == pytest.approx(t_lp, rel=1e-12)


def test_lp_has_a_variable_per_state_and_action(monkeypatch):
    # the renewal LP oracle: "swap" where a link is inactive duplicates
    # "00"; a state with no LP mass is uniform over all five actions
    seen, real_solve = [], L.solve
    monkeypatch.setattr(L, "solve", lambda lp: seen.append(lp) or real_solve(lp))
    model = TwoLinkModel(0.5, 0.5, 0.5, 3, 3, TL.uniform_f_table(3, 3))
    _, d = two_link_lp(model, "min")
    assert seen[0].A.shape == (model.n, len(TL.ACTIONS) * model.n)
    assert (d.table == 1 / len(TL.ACTIONS)).all(axis=1).any()


@pytest.mark.parametrize("m_star", [2, 5, 8])
def test_waiting_lp_reaches_its_optimum(m_star, rng):
    # swapping as soon as both links are up, cutoff (m1*, m2*), waits least
    # for any f; the LP oracle, solved from no basis, finds that wait
    for _ in range(4):
        f = TL.uniform_f_table(m_star, m_star)
        f[1, 1:, 1:] = rng.uniform(0, 1, (m_star + 1, m_star + 1))
        model = TL.TwoLinkModel(*10 ** rng.uniform(-3, 0, 3), m_star, m_star, f)
        wait, _ = two_link_lp(model, "min")
        want, _ = TL.evaluate_policy(model, TL.cutoff_decision(model, m_star, m_star))
        assert wait == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("m_star", [2, 5, 8])
def test_fidelity_lp_reaches_its_optimum_for_f_decreasing_with_age(m_star, rng):
    # for such an f, swapping only fresh links, cutoff (0, 0), is optimal;
    # the LP oracle, solved from no basis, finds its value
    for _ in range(4):
        u = rng.uniform(0, 1, (m_star + 1, m_star + 1))
        f = TL.uniform_f_table(m_star, m_star)
        f[1, 1:, 1:] = np.minimum.accumulate(np.minimum.accumulate(u, axis=0), axis=1)
        model = TL.TwoLinkModel(*10 ** rng.uniform(-3, 0, 3), m_star, m_star, f)
        value, _ = two_link_lp(model, "max")
        assert value == pytest.approx(f[1, 1, 1], rel=1e-12)


def test_lp_optima_at_p_near_one_are_exact():
    # started cold, HiGHS stopped at its tolerances: a decision waiting
    # 1.0000100003500023 steps against cutoff (1, 0)'s 1.000010000100001,
    # and an f of 0.9999999999859491 where the best is 1
    model = TL.TwoLinkModel(1.0, 0.99999, 1.0, 1, 0, TL.uniform_f_table(1, 0))
    wait, _ = TL.lp_optimal_waiting_time(model)
    want, _ = TL.evaluate_policy(model, TL.cutoff_decision(model, 1, 0))
    assert wait == pytest.approx(want, rel=1e-15)
    f = np.zeros((2, 6, 7))
    f[1, 5, 4], f[1, 5, 6] = 1.0, 0.0625
    value, _ = TL.lp_optimal_value(TL.TwoLinkModel(0.5, 0.99999, 1.0, 4, 5, f))
    assert value == pytest.approx(1.0, rel=1e-15)


def test_lp_value_equals_policy_iteration_on_random_models(rng):
    for _ in range(4):
        m1, m2 = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        f = np.zeros((2, m1 + 2, m2 + 2))
        f[1, 1:, 1:] = rng.uniform(0.4, 1.0, (m1 + 1, m2 + 1))
        model = TL.TwoLinkModel(rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.0),
                                rng.uniform(0.3, 1.0), m1, m2, f)
        v1, d = TL.lp_optimal_value(model)
        v2, _ = two_link_lp(model, "max")  # the simplex, not Howard's steps
        assert v1 == pytest.approx(v2, abs=1e-7)
        # re-evaluation reproduces the optimum
        _, f_abs = TL.evaluate_policy(model, d)
        assert f_abs == pytest.approx(v1, abs=1e-7)


def test_lp_value_beats_every_cutoff(rng):
    m_star = 2
    f = np.zeros((2, 4, 4))
    f[1, 1:, 1:] = rng.uniform(0.4, 1.0, (3, 3))
    model = TL.TwoLinkModel(0.5, 0.6, 0.8, m_star, m_star, f)
    v, _ = TL.lp_optimal_value(model)
    for t1 in range(m_star + 1):
        for t2 in range(m_star + 1):
            _, f_abs = TL.evaluate_policy(model, TL.cutoff_decision(model, t1, t2))
            assert f_abs <= v * (1 + 1e-12)


def _damped_memory(gamma):
    """Amplitude damping on both memory qubits of a stored pair."""
    ad = qstate.amplitude_damping(gamma)
    return qstate.KrausChannel([np.kron(a, b) for a in ad.kraus for b in ad.kraus])


def _damped_bell_model(p1, p2, q, gamma, m_star):
    """Bell pairs whose two memory qubits both decay by amplitude damping."""
    phi = qstate.bell(2)
    sigma0 = qstate.DensityOperator(np.outer(phi, phi.conj()), (2, 2))
    memory = _damped_memory(gamma)
    f = TL.two_link_f_from_physics(sigma0, memory, sigma0, memory, phi,
                                   m_star, m_star)
    return TL.TwoLinkModel(p1, p2, q, m_star, m_star, f)


def test_lp_waiting_tight_solver_tolerance():
    # at HiGHS's default 1e-7 feasibility tolerances the absorbing LP's value
    # sat 2.2e-8 relative away from the value of its own decision; the LP
    # entry points now raise past 1e-9
    model = _damped_bell_model(0.8765, 0.4115, 0.9837, 0.0421, 8)
    t_lp, d = TL.lp_optimal_waiting_time(model)
    assert t_lp == pytest.approx(TL.evaluate_policy(model, d)[0], rel=1e-9)


@pytest.mark.parametrize("m_star", [2, 4, 6])
def test_lps_vs_policy_iteration(rng, m_star):
    model = _damped_bell_model(*rng.uniform(0.1, 0.9, 2), rng.uniform(0.3, 1.0),
                               rng.uniform(0.005, 0.05), m_star)
    # the optima by Howard's steps against the renewal LP oracle
    t_pi, _ = TL.lp_optimal_waiting_time(model)
    t_lp, _ = two_link_lp(model, "min")
    assert t_lp == pytest.approx(t_pi, rel=1e-10)
    v_pi, _ = TL.lp_optimal_value(model)
    v_lp, _ = two_link_lp(model, "max")
    assert v_lp == pytest.approx(v_pi, rel=1e-10)


def test_two_link_f_from_physics_ideal_memories():
    phi = qstate.bell(2)
    sigma0 = qstate.DensityOperator(np.outer(phi, phi.conj()), (2, 2))
    ident = qstate.KrausChannel([np.eye(4)])
    f = TL.two_link_f_from_physics(sigma0, ident, sigma0, ident, phi, 1, 1)
    assert np.allclose(f[1, 1:, 1:], 1.0, atol=1e-12)
    assert np.all(f[0] == 0) and np.all(f[1, 0, :] == 0)


def _channel_f_table(sigma1_0, mem1, sigma2_0, mem2, m1_star, m2_star):
    """The f table by brute force: joint state -> swap channel -> overlap."""
    def aged(sigma, mem, m_star):
        out = [sigma.mat]
        for _ in range(m_star):
            out.append(mem(out[-1]))
        return out

    d = 2
    f = np.zeros((2, m1_star + 2, m2_star + 2))
    for m1, r1 in enumerate(aged(sigma1_0, mem1, m1_star)):
        for m2, r2 in enumerate(aged(sigma2_0, mem2, m2_star)):
            joint = qstate.DensityOperator(np.kron(r1, r2), (d, d, d, d))
            out = qstate.swap_chain_channel(joint, 1, d)
            f[1, m1 + 1, m2 + 1] = np.clip(
                qstate.fidelity_to_pure(out, qstate.bell(d)), 0.0, 1.0)
    return f


def _dephased_memory(lam):
    Z = np.diag([1.0, -1.0])
    return qstate.KrausChannel([np.sqrt(1 - lam) * np.eye(4),
                                np.sqrt(lam) * np.kron(Z, np.eye(2))])


@pytest.mark.parametrize("gamma", [0.0, 0.005, 0.05, 0.3])
def test_two_link_f_matches_swap_channel(gamma):
    phi = qstate.bell(2)
    bell_pair = qstate.DensityOperator(np.outer(phi, phi.conj()), (2, 2))
    noisy = qstate.DensityOperator(
        0.85 * bell_pair.mat + 0.15 * np.diag([0.1, 0.2, 0.3, 0.4]), (2, 2))
    cases = [(bell_pair, _damped_memory(gamma), bell_pair, _damped_memory(gamma), 8, 8),
             (bell_pair, _damped_memory(gamma), noisy, _dephased_memory(gamma), 3, 7),
             (noisy, _dephased_memory(gamma / 2), bell_pair, _damped_memory(gamma), 6, 0)]
    for s1, mem1, s2, mem2, m1, m2 in cases:
        f = TL.two_link_f_from_physics(s1, mem1, s2, mem2, phi, m1, m2)
        assert np.max(np.abs(f - _channel_f_table(s1, mem1, s2, mem2, m1, m2))) <= 1e-14


def test_two_link_f_needs_the_phi_target():
    phi = qstate.bell(2)
    sigma0 = qstate.DensityOperator(np.outer(phi, phi.conj()), (2, 2))
    memory = _damped_memory(0.05)
    f = TL.two_link_f_from_physics(sigma0, memory, sigma0, memory, phi, 2, 2)
    # a global phase is fine
    assert np.array_equal(
        TL.two_link_f_from_physics(sigma0, memory, sigma0, memory, 1j * phi, 2, 2), f)
    for target in (qstate.bell(2, 1, 0), qstate.bell(2, 0, 1), 2 * phi,
                   (phi + qstate.bell(2, 1, 1)) / np.sqrt(2), phi[:2]):
        with pytest.raises(qstate.QuantumError):
            TL.two_link_f_from_physics(sigma0, memory, sigma0, memory, target, 2, 2)


@pytest.mark.parametrize("m1, m2", [(-1, 2), (2, 2.5), (True, 2), (2, np.float64(1.0))])
def test_two_link_f_from_physics_rejects_bad_storage_bounds(m1, m2):
    # -1 gave a (2, 1, n2) table no TwoLinkModel accepts, 2.5 ended in a
    # TypeError and True was taken as 1
    phi = qstate.bell(2)
    sigma0 = qstate.DensityOperator(np.outer(phi, phi.conj()), (2, 2))
    ident = qstate.KrausChannel([np.eye(4)])
    with pytest.raises(ModelError, match="storage bounds must be >= 0 and of integer type"):
        TL.two_link_f_from_physics(sigma0, ident, sigma0, ident, phi, m1, m2)


def test_evaluate_policy_solves_once(monkeypatch):
    calls = []

    def counting_splu(A):
        calls.append(A)
        return L.splu(A)

    monkeypatch.setattr(TL, "splu", counting_splu)
    model = sym_model(0.4, 0.5, 4)
    wait, f_abs = TL.evaluate_policy(model, TL.cutoff_decision(model, 2, 3))
    assert len(calls) == 1
    assert np.isfinite(wait) and f_abs == pytest.approx(1.0)
    # one sparse LU of I - K^d, with no zeros stored
    assert isinstance(calls[0], L.Csc) and np.all(calls[0].data != 0)


def test_initial_distribution():
    model = sym_model(0.4, 0.5, 1)
    init = TL.initial_distribution(model)
    assert init.sum() == pytest.approx(1.0)
    assert init[model.idx(0, 0)] == pytest.approx(0.16)
    assert init[model.idx(-1, -1)] == pytest.approx(0.36)
    assert init.size == model.n == model.n1 * model.n2


@pytest.mark.parametrize("t1, t2", [(1.5, 2), (2, 2.0), (np.nan, 1), (1, "2"), (-1, 0),
                                    (0, 3)])
def test_cutoff_decision_rejects_non_cutoffs(t1, t2):
    # (1.5, 2) used to give a rule no integer cutoff gives: waiting time
    # 6.22 at p = q = 0.5, m* = 2, against 5.60 at t* = (2, 2)
    with pytest.raises(ModelError, match="cutoffs must be integers"):
        TL.cutoff_decision(sym_model(0.5, 0.5, 2), t1, t2)
    TL.cutoff_decision(sym_model(0.5, 0.5, 2), np.int64(1), 2)


def test_evaluate_policy_raises_when_absorption_is_unreachable():
    # waiting forever at (-1, -1) makes I - K^d exactly singular
    model = sym_model(0.5, 0.5, 2)
    table = TL.cutoff_decision(model, 2, 2).table.copy()
    table[model.idx(-1, -1)] = np.eye(len(TL.ACTIONS))[0b00]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelError, match="unreachable"):
            TL.evaluate_policy(model, markov.DecisionFunction(table))


def test_evaluate_policy_ignores_a_trap_the_start_never_reaches():
    # at p1 = p2 = 1 every cycle starts at (0, 0); "swap" everywhere makes
    # (-1, -1) a pure self-loop, so I - K^d is exactly singular, yet the
    # first attempt ends every cycle and the wait is 1/q
    model = TL.TwoLinkModel(1.0, 1.0, 0.5, 0, 0, TL.uniform_f_table(0, 0))
    swap = markov.DecisionFunction.deterministic([TL.SWAP] * model.n, len(TL.ACTIONS))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert TL.evaluate_policy(model, swap) == (2.0, 1.0)
    assert TL.evaluate_policy(model, TL.cutoff_decision(model, 0, 0)) == (2.0, 1.0)


def test_evaluate_policy_raises_when_no_swap_succeeds():
    # q = 0: no swap ever succeeds; the absorbing solve reported this as an
    # ill-conditioned solve ("absorbed mass 0")
    model = sym_model(0.5, 0.0, 2)
    with pytest.raises(ModelError, match="unreachable") as info:
        TL.evaluate_policy(model, TL.cutoff_decision(model, 2, 2))
    assert not isinstance(info.value, markov.NumericalError)


def test_evaluate_policy_raises_when_no_link_is_generated():
    # p1 = p2 = 0: all start mass sits in (-1, -1), which no action leaves,
    # so its column of I - K^d is empty
    model = sym_model(0.0, 0.5, 2)
    with pytest.raises(ModelError, match="unreachable"):
        TL.evaluate_policy(model, TL.cutoff_decision(model, 2, 2))


def test_evaluate_policy_raises_model_error_for_a_decision_that_never_swaps():
    # (0, 0) requests link 1 instead of attempting the swap, so no cycle
    # ends; the solve of I - K^d reported this as exit mass 0
    model = TL.TwoLinkModel(0.32, 0.61, 0.58, 0, 0, TL.uniform_f_table(0, 0))
    with pytest.raises(ModelError, match="unreachable") as info:
        TL.evaluate_policy(model, markov.DecisionFunction.deterministic([3, 3, 0, 2], 5))
    assert not isinstance(info.value, markov.NumericalError)


def reaches_a_trap(model, d):
    """Whether the start reaches a state that cannot reach `done` in the
    dense absorbing chain under d, by boolean transitive closure."""
    T, _, start = two_link_absorbing_chain(model)
    P = policy_chain(T, markov.DecisionFunction(
        np.vstack([d.table, np.eye(len(TL.ACTIONS))[0]])))
    reach = (P > 0) | np.eye(len(P), dtype=bool)  # reach[t, s]: s leads to t
    for _ in range(len(P).bit_length()):
        reach = (reach.astype(int) @ reach.astype(int)) > 0
    reached = reach[:, start > 0].any(axis=1)
    return bool(np.any(reached & ~reach[-1]))


def test_evaluate_policy_raises_model_error_exactly_for_reached_traps():
    # a seeded scan of deterministic decisions: a trap the start reaches is
    # a ModelError, and every other decision evaluates to a finite wait
    rng = np.random.default_rng(1)
    traps = 0
    for _ in range(2000):
        m1, m2 = (int(m) for m in rng.integers(0, 3, 2))
        model = TL.TwoLinkModel(*rng.uniform(0.1, 1.0, 3), m1, m2, TL.uniform_f_table(m1, m2))
        d = markov.DecisionFunction.deterministic(rng.integers(0, 5, model.n), 5)
        if reaches_a_trap(model, d):
            traps += 1
            with pytest.raises(ModelError, match="unreachable") as info:
                TL.evaluate_policy(model, d)
            assert not isinstance(info.value, markov.NumericalError)
        else:
            wait, f_abs = TL.evaluate_policy(model, d)
            assert np.isfinite(wait) and f_abs == pytest.approx(1.0)
    assert 0 < traps < 2000



_probability = st.floats(0.01, 1.0)


@st.composite
def two_link_models(draw):
    """m* <= 6, p1, p2, q >= 0.01 and any f table in [0, 1]."""
    m1, m2 = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    f = np.zeros((2, m1 + 2, m2 + 2))
    f[1, 1:, 1:] = np.reshape(draw(st.lists(st.floats(0.0, 1.0), min_size=(m1 + 1) * (m2 + 1),
                                            max_size=(m1 + 1) * (m2 + 1))), (m1 + 1, m2 + 1))
    return TL.TwoLinkModel(draw(_probability), draw(_probability), draw(_probability),
                           m1, m2, f)


@settings(max_examples=40, deadline=None)
@given(two_link_models())
def test_lp_value_is_the_best_f(model):
    # nothing charges for time and discarding is free, so some policy waits
    # for the best pair of ages
    value, d = TL.lp_optimal_value(model)
    assert value == pytest.approx(model.f[1, 1:, 1:].max(), rel=1e-12, abs=1e-12)
    assert value <= 1.0  # f <= 1, and the ratio is summed alike above and below


@settings(max_examples=40, deadline=None)
@given(two_link_models())
def test_lp_wait_is_the_storage_bound_cutoff(model):
    # keeping each link up to its storage bound is optimal (the paper shows
    # the one-link analogue); HiGHS's 1e-10 tolerances left the LP's
    # decision up to ~2.5e-10 relative above it (p1 = 1, p2 = 0.99999)
    wait, _ = TL.lp_optimal_waiting_time(model)
    cutoff = TL.cutoff_decision(model, model.m1_star, model.m2_star)
    assert wait == pytest.approx(TL.evaluate_policy(model, cutoff)[0], rel=1e-12)


def test_lp_value_at_small_p_is_right_or_raises():
    # f = 0.9 on every both-active state, so every policy gives 0.9; the
    # absorbing LP returned 0.8999741207 at p = 1e-6 without an error.  The
    # renewal LP oracle is right or raises, and Howard's steps are right
    f = 0.9 * TL.uniform_f_table(2, 2)
    for q in (0.5, 1.0):
        model = TL.TwoLinkModel(1e-6, 1e-6, q, 2, 2, f)
        assert TL.lp_optimal_value(model)[0] == pytest.approx(0.9, rel=1e-12)
        try:
            value, _ = two_link_lp(model, "max")
        except markov.NumericalError as exc:
            assert "differs from the value" in str(exc) or "solve:" in str(exc)
        else:
            assert value == pytest.approx(0.9, rel=1e-9)


def test_lp_guard_raises_when_the_lp_value_is_off(monkeypatch):
    model = sym_model(0.5, 0.5, 2)
    real = oracles.lp.mdp_occupation_lp

    def off(*args, **kwargs):
        value, d = real(*args, **kwargs)
        return value * (1 + 2e-9), d

    monkeypatch.setattr(oracles.lp, "mdp_occupation_lp", off)
    for sense in ("max", "min"):
        with pytest.raises(markov.NumericalError, match="differs from the value"):
            two_link_lp(model, sense)


def test_large_waiting_lp_memory():
    # the absorbing form's dense (5, n, n) array alone was ~760 MB at m* = 64.
    # The child prints its own peak (VmHWM, kB): Linux carries ru_maxrss
    # across exec, so that would read the peak of this test process, ~195 MB
    code = ("from entlink import twolink as TL\n"
            "m = 64\n"
            "model = TL.TwoLinkModel(0.3, 0.4, 0.6, m, m, TL.uniform_f_table(m, m))\n"
            "wait, d = TL.lp_optimal_waiting_time(model)\n"
            "TL.evaluate_policy(model, d)\n"
            "with open('/proc/self/status') as status:\n"
            "    print(status.read().split('VmHWM:')[1].split()[0])\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       timeout=120)
    assert r.returncode == 0, r.stderr
    assert float(r.stdout) / 1024 < 200, r.stdout


def test_waiting_optimum_at_m_star_256():
    # the renewal LP took 2.7 s and 340 MB here; Howard's steps take one
    # factor of I - K^d per step, ~0.2 s and ~110 MB (2 cores)
    code = ("import time\n"
            "from entlink import twolink as TL\n"
            "model = TL.TwoLinkModel(0.3, 0.3, 0.5, 256, 256, TL.uniform_f_table(256, 256))\n"
            "t0 = time.perf_counter()\n"
            "wait, _ = TL.lp_optimal_waiting_time(model)\n"
            "seconds = time.perf_counter() - t0\n"
            "with open('/proc/self/status') as status:\n"
            "    print(repr(wait), seconds, status.read().split('VmHWM:')[1].split()[0])\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       timeout=120)
    assert r.returncode == 0, r.stderr
    wait, seconds, peak_kb = (float(x) for x in r.stdout.split())
    assert rel_err(wait, exact_symmetric_wait(0.3, 0.5, 256)) <= 1e-12
    assert seconds < 1.5 and peak_kb / 1024 < 150, r.stdout


def _random_models(rng, count):
    """m* <= 6, p1, p2, q in 10^U[-3, 0] and a uniform random f, in the
    order of draws (m1*, m2*), (p1, p2, q), f."""
    for _ in range(count):
        m1, m2 = (int(m) for m in rng.integers(0, 7, 2))
        p1, p2, q = 10 ** rng.uniform(-3, 0, 3)
        f = TL.uniform_f_table(m1, m2)
        f[1, 1:, 1:] = rng.uniform(0, 1, (m1 + 1, m2 + 1))
        yield TL.TwoLinkModel(p1, p2, q, m1, m2, f)


def test_fidelity_optimum_is_deterministic_where_the_lp_mixed():
    # from its start basis the LP ended with 2.7e-7 on a second action at one
    # state, a decision worth 0.9800966854343841, 1.0e-9 below the optimum
    *_, model = _random_models(np.random.default_rng(2024), 142)
    assert (model.m1_star, model.m2_star) == (3, 3)
    value, d = TL.lp_optimal_value(model)
    assert set(np.unique(d.table)) == {0.0, 1.0}
    assert value == pytest.approx(0.9800966864123505, rel=1e-12)


def test_optima_are_never_worse_than_the_lp_oracle():
    # Howard's steps against the simplex on the same renewal LP: each
    # optimum is at least the LP's within 1e-12, from a deterministic
    # decision, and the steps stop under their cap (else NumericalError)
    for model in _random_models(np.random.default_rng(7), 150):
        f, d_f = TL.lp_optimal_value(model)
        wait, d_wait = TL.lp_optimal_waiting_time(model)
        for d in (d_f, d_wait):
            assert set(np.unique(d.table)) == {0.0, 1.0}
        assert f >= two_link_lp(model, "max")[0] * (1 - 1e-12)
        assert wait <= two_link_lp(model, "min")[0] * (1 + 1e-12)
