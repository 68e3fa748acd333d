import numpy as np
import pytest

from scipy.linalg import lu_factor

from entlink import markov, qstate
from entlink import twolink as TL
from entlink.oracles import lp_optimal_value_displayed, policy_iteration_absorbing
from entlink.markov import ModelError, absorbing_states


def sym_model(p, q, m_star):
    return TL.TwoLinkModel(p, p, q, m_star, m_star,
                           TL.uniform_f_table(m_star, m_star))


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


def test_all_action_matrices_column_stochastic():
    # StochasticMatrix already validates; build a few shapes to exercise it
    for (p1, p2, q, m1, m2) in [(0.3, 0.8, 0.5, 0, 0), (0.5, 0.5, 0.7, 2, 1),
                                (1.0, 0.4, 1.0, 1, 3)]:
        f = TL.uniform_f_table(m1, m2)
        TL.build_two_link_mdp(TL.TwoLinkModel(p1, p2, q, m1, m2, f))


def test_absorbing_set_is_x1_block():
    model = sym_model(0.5, 0.5, 1)
    mdp = TL.build_two_link_mdp(model)
    half = model.n1 * model.n2
    assert absorbing_states(mdp) == list(range(half, 2 * half))


def test_swap_action_success_mass():
    # from (0, 0, 0), swap succeeds with probability q into (1, 0, 0)
    model = sym_model(0.5, 0.7, 1)
    mdp = TL.build_two_link_mdp(model)
    T = mdp.transitions["swap"].entries
    src = model.idx(0, 0, 0)
    assert T[model.idx(1, 0, 0), src] == pytest.approx(0.7)
    # failure regenerates both links afresh
    assert T[model.idx(0, -1, -1), src] == pytest.approx(0.3 * 0.5 * 0.5)
    assert T[model.idx(0, 0, 0), src] == pytest.approx(0.3 * 0.5 * 0.5)


def test_swap_on_inactive_links_shifts_ages():
    model = sym_model(0.5, 0.7, 2)
    mdp = TL.build_two_link_mdp(model)
    T = mdp.transitions["swap"].entries
    # link 1 active at age 0, link 2 inactive: age shifts, no swap attempt
    src = model.idx(0, 0, -1)
    assert T[model.idx(0, 1, -1), src] == pytest.approx(1.0)
    # both inactive: stay
    src = model.idx(0, -1, -1)
    assert T[src, src] == pytest.approx(1.0)
    # link at the storage bound with partner inactive: discarded
    src = model.idx(0, 2, -1)
    assert T[model.idx(0, -1, -1), src] == pytest.approx(1.0)


def _rule_matrices(model):
    """The two-link transition rules written out state by state."""

    def link_next(p, m, m_star, request):
        if request:
            return {-1: 1 - p, 0: p}
        if m == -1 or m == m_star:
            return {-1: 1.0}  # inactive stays so; a pair at the bound is discarded
        return {m + 1: 1.0}

    mats = {a: np.zeros((model.n, model.n)) for a in TL.ACTIONS}
    for x, m1, m2 in model.states:
        src = model.idx(x, m1, m2)
        for a in TL.ACTIONS:
            T = mats[a]
            if x == 1:
                T[src, src] = 1.0
                continue
            if a == "swap" and m1 >= 0 and m2 >= 0:
                T[model.idx(1, m1, m2), src] += model.q
                req = (True, True)
                weight = 1 - model.q
            else:
                req = (False, False) if a == "swap" else (a[0] == "1", a[1] == "1")
                weight = 1.0
            nxt1 = link_next(model.p1, m1, model.m1_star, req[0])
            nxt2 = link_next(model.p2, m2, model.m2_star, req[1])
            for n1, pr1 in nxt1.items():
                for n2, pr2 in nxt2.items():
                    T[model.idx(0, n1, n2), src] += weight * (pr1 * pr2)
    return mats


def test_build_matches_state_by_state_rules():
    rng = np.random.default_rng(20260824)
    cases = [(1.0, 1.0, 1.0, 0, 0), (1.0, 0.3, 1.0, 2, 0), (0.4, 1.0, 0.6, 0, 3)]
    for _ in range(20):
        cases.append((*rng.uniform(0, 1, 3), *rng.integers(0, 5, 2)))
    for p1, p2, q, m1, m2 in cases:
        model = TL.TwoLinkModel(p1, p2, q, int(m1), int(m2),
                                TL.uniform_f_table(int(m1), int(m2)))
        mdp = TL.build_two_link_mdp(model)
        for a, T in _rule_matrices(model).items():
            np.testing.assert_allclose(mdp.transitions[a].entries, T,
                                       rtol=0, atol=1e-15)


def test_evaluate_policy_raises_when_solve_loses_mass():
    # at p = 1e-6 the waiting time is ~4e11 steps and the solve loses 3e-5
    # of the absorbed mass; it used to return 3.99989e11 and f 0.99997
    model = sym_model(1e-6, 0.5, 2)
    d = TL.cutoff_decision(model, 2, 2)
    with pytest.raises(ModelError, match="ill-conditioned"):
        TL.evaluate_policy(model, d)
    model = sym_model(1e-3, 0.5, 2)
    wait, f_abs = TL.evaluate_policy(model, TL.cutoff_decision(model, 2, 2))
    assert wait == pytest.approx(TL.analytic_symmetric_waiting_time(1e-3, 0.5, 2),
                                 rel=1e-9)
    assert f_abs == pytest.approx(1.0, rel=1e-9)


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
                TL.analytic_symmetric_waiting_time(p, q, 5), abs=1e-6)
            # the extracted decision achieves the optimum
            wait, _ = TL.evaluate_policy(model, d)
            assert wait == pytest.approx(t_lp, abs=1e-6)


def test_lp_value_generic_equals_displayed(rng):
    for _ in range(4):
        m1, m2 = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        f = np.zeros((2, m1 + 2, m2 + 2))
        f[1, 1:, 1:] = rng.uniform(0.4, 1.0, (m1 + 1, m2 + 1))
        model = TL.TwoLinkModel(rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.0),
                                rng.uniform(0.3, 1.0), m1, m2, f)
        v1, d = TL.lp_optimal_value(model)
        v2 = lp_optimal_value_displayed(model)
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
            assert f_abs <= v + 1e-8


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
    # at HiGHS's default 1e-7 feasibility tolerances this LP value sits
    # 2.2e-8 relative away from the value of its own decision
    model = _damped_bell_model(0.8765, 0.4115, 0.9837, 0.0421, 8)
    t_lp, d = TL.lp_optimal_waiting_time(model)
    assert t_lp == pytest.approx(TL.evaluate_policy(model, d)[0], rel=1e-9)


@pytest.mark.parametrize("m_star", [2, 4, 6])
def test_lps_vs_policy_iteration(rng, m_star):
    model = _damped_bell_model(*rng.uniform(0.1, 0.9, 2), rng.uniform(0.3, 1.0),
                               rng.uniform(0.005, 0.05), m_star)
    mdp = TL.build_two_link_mdp(model)
    init = TL.initial_distribution(model).entries
    t_lp, _ = TL.lp_optimal_waiting_time(model)
    t_pi = policy_iteration_absorbing(mdp, np.ones(model.n), "min", init)
    assert t_lp == pytest.approx(t_pi, rel=1e-10)
    f = model.f_flat()
    v_lp, _ = TL.lp_optimal_value(model)
    v_pi = policy_iteration_absorbing(
        mdp, [f @ mdp.transitions[a].entries for a in TL.ACTIONS], "max", init)
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


def test_evaluate_policy_factors_once(monkeypatch):
    calls = []

    def counting_lu_factor(a, *args, **kwargs):
        calls.append(a.shape)
        return lu_factor(a, *args, **kwargs)

    monkeypatch.setattr(markov, "lu_factor", counting_lu_factor)
    model = sym_model(0.4, 0.5, 4)
    wait, f_abs = TL.evaluate_policy(model, TL.cutoff_decision(model, 2, 3))
    assert len(calls) == 1
    assert np.isfinite(wait) and f_abs == pytest.approx(1.0)


def test_initial_distribution():
    model = sym_model(0.4, 0.5, 1)
    init = TL.initial_distribution(model).entries
    assert init.sum() == pytest.approx(1.0)
    assert init[model.idx(0, 0, 0)] == pytest.approx(0.16)
    assert init[model.idx(0, -1, -1)] == pytest.approx(0.36)
    assert np.all(init[model.n1 * model.n2:] == 0)
