import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entlink import elemlink as E
from entlink import oracles, qstate
from entlink.markov import ModelError, Policy, policy_matrix, stationary_distribution


def model(p, f_vals):
    f = np.concatenate([[0.0], np.asarray(f_vals, dtype=float)])
    return E.ElemLinkModel(p, len(f_vals) - 1, f)


def test_validation():
    with pytest.raises(ModelError):
        E.ElemLinkModel(0.5, 1, np.array([0.1, 1.0, 0.9]))  # f(-1) != 0
    with pytest.raises(ModelError):
        E.ElemLinkModel(0.5, 1, np.array([0.0, 1.0]))  # wrong length
    with pytest.raises(ModelError):
        E.ElemLinkModel(1.5, 0, np.array([0.0, 1.0]))


def test_transition_matrices_shape_and_columns():
    m = model(0.4, [1.0, 0.9, 0.8])
    mdp = E.build_mdp(m)
    T0 = mdp.transitions[E.WAIT].entries
    T1 = mdp.transitions[E.REQUEST].entries
    # wait: inactive absorbs, ages shift, top age wraps to inactive
    assert T0[0, 0] == 1.0
    assert T0[2, 1] == 1.0 and T0[3, 2] == 1.0
    assert T0[0, 3] == 1.0
    # request: every column is (1-p, p, 0, ...)
    assert np.allclose(T1[0], 0.6) and np.allclose(T1[1], 0.4)
    assert np.allclose(T1[2:], 0.0)


def test_steady_state_spec_anchor_t0():
    m = model(0.3, [1.0])
    s, _ = E.steady_state_closed_form(m, E.cutoff_decision(m, 0))
    assert s.entries == pytest.approx([0.7, 0.3], abs=1e-12)


def test_steady_state_spec_anchor_t2():
    m = model(0.5, [1.0, 0.9, 0.8])
    s, ftilde = E.steady_state_closed_form(m, E.cutoff_decision(m, 2))
    assert s.entries == pytest.approx([0.25] * 4, abs=1e-12)
    assert ftilde == pytest.approx(0.675, abs=1e-12)


def test_closed_form_vs_eig_random_decisions(rng):
    for _ in range(50):
        p = rng.uniform(0.05, 1.0)
        ms = int(rng.integers(0, 7))
        m = E.ElemLinkModel(p, ms, np.concatenate([[0.0], rng.uniform(0, 1, ms + 1)]))
        d = oracles.random_decision(rng, m.n, 2)
        s, _ = E.steady_state_closed_form(m, d)
        P = policy_matrix(E.build_mdp(m), d)
        assert np.max(np.abs(s.entries - oracles.stationary_eig(P))) < 1e-9


def test_cutoff_steady_values_consistent_with_closed_form(rng):
    for _ in range(20):
        p = rng.uniform(0.1, 1.0)
        ms = int(rng.integers(0, 5))
        m = E.ElemLinkModel(p, ms, np.concatenate([[0.0], rng.uniform(0, 1, ms + 1)]))
        for ts in range(ms + 1):
            s, ftilde = E.steady_state_closed_form(m, E.cutoff_decision(m, ts))
            ft, x, fr = E.cutoff_steady_values(m, ts)
            assert ftilde == pytest.approx(ft, abs=1e-12)
            assert 1 - s.entries[0] == pytest.approx(x, abs=1e-12)
            assert ft / x == pytest.approx(fr, abs=1e-12)


def test_never_discard_transient_vs_evolve(rng):
    p = 0.35
    m = model(p, [1.0, 0.95, 0.9, 0.85, 0.8])
    pol = Policy.stationary(E.cutoff_decision(m, math.inf))
    for t in range(1, 6):  # t - 1 <= m_star, no wraparound yet
        ft, x, fr = E.cutoff_infty_transient(m, t)
        ft2, x2, fr2 = E.ftilde_x_f(m, pol, t)
        assert ft == pytest.approx(ft2, abs=1e-12)
        assert x == pytest.approx(x2, abs=1e-12)
        assert x == pytest.approx(1 - (1 - p) ** t, abs=1e-12)


def test_forward_decision_is_greedy_cutoff(rng):
    # for nonincreasing f the rule is a cutoff at the first age where
    # keeping the pair stops beating a fresh attempt
    for _ in range(20):
        p = rng.uniform(0.05, 1.0)
        ms = int(rng.integers(0, 6))
        vals = np.sort(rng.uniform(0, 1, ms + 1))[::-1]
        m = E.ElemLinkModel(p, ms, np.concatenate([[0.0], vals]))
        d = E.forward_recursion_decision(m)
        assert d.table[0, E.REQUEST] == 1.0
        for age in range(ms + 1):
            nxt = m.f[age + 2] if age < ms else 0.0
            want = E.WAIT if nxt > p * m.f[1] else E.REQUEST
            assert d.table[age + 1, want] == 1.0


def test_lp_optimum_is_best_cutoff(rng):
    for _ in range(30):
        p = rng.uniform(0.05, 1.0)
        ms = int(rng.integers(0, 7))
        vals = np.sort(rng.uniform(0, 1, ms + 1))[::-1]
        m = E.ElemLinkModel(p, ms, np.concatenate([[0.0], vals]))
        value, d = E.lp_optimal_steady(m)
        best = max(E.cutoff_steady_values(m, t)[0] for t in range(ms + 1))
        assert value == pytest.approx(best, abs=1e-7)
        # re-evaluating the extracted decision reproduces the optimum
        _, ftilde = E.steady_state_closed_form(m, d)
        assert ftilde == pytest.approx(value, abs=1e-7)


def test_backward_vs_exhaustive(rng):
    for ms in range(3):
        for t in range(1, 5):
            p = rng.uniform(0.1, 1.0)
            m = E.ElemLinkModel(p, ms,
                                np.concatenate([[0.0], rng.uniform(0, 1, ms + 1)]))
            v, _ = E.optimal_backward(m, t)
            assert v == pytest.approx(
                oracles.exhaustive_markov_policy_value(m, t), abs=1e-12)


def test_history_equals_markov(rng):
    for ms in range(4):
        for t in range(1, 7):
            p = rng.uniform(0.1, 1.0)
            m = E.ElemLinkModel(p, ms,
                                np.concatenate([[0.0], rng.uniform(0, 1, ms + 1)]))
            v1, _ = E.optimal_backward(m, t)
            v2, _ = oracles.optimal_backward_history(m, t)
            assert v1 == pytest.approx(v2, abs=1e-12)


def test_history_cap():
    m = model(0.5, [1.0])
    with pytest.raises(ModelError):
        oracles.optimal_backward_history(m, 9)


def test_backward_policy_achieves_its_value(rng):
    p = 0.45
    m = model(p, [1.0, 0.9, 0.7])
    for t in (1, 3, 5):
        v, pol = E.optimal_backward(m, t)
        ft, _, _ = E.ftilde_x_f(m, pol, t)
        assert ft == pytest.approx(v, abs=1e-12)


def test_f_from_physics_amplitude_damping():
    phi = qstate.bell(2)
    sigma0 = qstate.DensityOperator(np.outer(phi, phi.conj()), (2, 2))
    gamma = 0.2
    ch = qstate.amplitude_damping(gamma)
    mem = qstate.KrausChannel(
        [np.kron(K1, K2) for K1 in ch.kraus for K2 in ch.kraus])
    f = E.f_from_physics(sigma0, mem, phi, 2)
    assert f[0] == 0.0
    assert f[1] == pytest.approx(1.0, abs=1e-12)
    # one step of two-sided damping on |Phi+>: F = (1 + 2(1-g) + (1-g)^2)/4 + g^2/4
    g = gamma
    expect = (1 + 2 * (1 - g) + (1 - g) ** 2 + g * g) / 4
    assert f[2] == pytest.approx(expect, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.05, max_value=1.0),
       st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=10**6))
def test_steady_state_probabilities_property(p, ms, seed):
    rng = np.random.default_rng(seed)
    m = E.ElemLinkModel(p, ms, np.concatenate([[0.0], rng.uniform(0, 1, ms + 1)]))
    d = oracles.random_decision(rng, m.n, 2)
    s, ftilde = E.steady_state_closed_form(m, d)
    assert s.entries.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(s.entries >= -1e-15)
    assert 0 <= ftilde <= 1 + 1e-12
