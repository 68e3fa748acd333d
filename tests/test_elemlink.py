import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entlink import elemlink as E
from entlink import oracles
from entlink.markov import ModelError, Policy
from entlink.twolink import TwoLinkModel, uniform_f_table

from conftest import deterministic_decisions


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
    # a float m_star was accepted, and lp_optimal_steady raised a TypeError
    with pytest.raises(ModelError, match="m_star must be >= 0 and of integer type"):
        E.ElemLinkModel(0.5, 2.0, [0, 1, .9, .8])
    assert E.ElemLinkModel(0.5, np.int64(2), [0, 1, .9, .8]).n == 4


def test_transition_matrices_shape_and_columns():
    m = model(0.4, [1.0, 0.9, 0.8])
    T0, T1 = E.build_mdp(m)
    # wait: inactive absorbs, ages shift, top age wraps to inactive
    assert T0[0, 0] == 1.0
    assert T0[2, 1] == 1.0 and T0[3, 2] == 1.0
    assert T0[0, 3] == 1.0
    # request: every column is (1-p, p, 0, ...)
    assert np.allclose(T1[0], 0.6) and np.allclose(T1[1], 0.4)
    assert np.allclose(T1[2:], 0.0)


@pytest.mark.parametrize("t_star", [-1, 1.5, 2.0, np.nan, -math.inf, "2",
                                    pytest.param(np.float64(2.0), id="float64-2.0"),
                                    pytest.param(True, id="bool")])
def test_cutoff_decision_rejects_non_cutoffs(t_star):
    # NaN and -1 used to give request-always, the t* = 0 rule, in
    # cutoff_decision; 1.5 and np.float64(2.0) ended in a slicing TypeError
    # in cutoff_steady_values
    m = model(0.5, [1.0, 0.9, 0.8])
    for rule in (E.cutoff_decision, E.cutoff_steady_values):
        with pytest.raises(ModelError, match="t_star must be an integer"):
            rule(m, t_star)


def test_bool_storage_bound_raises():
    # built a model whose m_star was True
    with pytest.raises(ModelError, match="m_star must be >= 0 and of integer type"):
        E.ElemLinkModel(0.5, True, [0.0, 1.0, 0.9])


@pytest.mark.parametrize("p", [True, False, np.True_, "0.5", math.nan, 1.5])
def test_non_probability_p_raises(p):
    # True was taken as p = 1
    with pytest.raises(ModelError, match="p must be a real number in"):
        E.ElemLinkModel(p, 2, [0.0, 1.0, 0.9, 0.8])


def test_cutoff_decision_accepts_integers_and_infinity():
    m = model(0.5, [1.0, 0.9, 0.8])
    assert np.array_equal(E.cutoff_decision(m, np.int64(1)).table,
                          E.cutoff_decision(m, 1).table)
    assert np.array_equal(E.cutoff_decision(m, math.inf).table,
                          E.cutoff_decision(m, 3).table)


def test_steady_state_spec_anchor_t0():
    m = model(0.3, [1.0])
    s, _ = E.steady_state_closed_form(m, E.cutoff_decision(m, 0))
    assert s == pytest.approx([0.7, 0.3], abs=1e-12)


def test_steady_state_spec_anchor_t2():
    m = model(0.5, [1.0, 0.9, 0.8])
    s, ftilde = E.steady_state_closed_form(m, E.cutoff_decision(m, 2))
    assert s == pytest.approx([0.25] * 4, abs=1e-12)
    assert ftilde == pytest.approx(0.675, abs=1e-12)


def test_closed_form_vs_eig_random_decisions(rng):
    for _ in range(50):
        p = rng.uniform(0.05, 1.0)
        ms = int(rng.integers(0, 7))
        m = E.ElemLinkModel(p, ms, np.concatenate([[0.0], rng.uniform(0, 1, ms + 1)]))
        d = oracles.random_decision(rng, m.n, 2)
        s, _ = E.steady_state_closed_form(m, d)
        P = E.policy_matrix(m, d)
        assert np.max(np.abs(s - oracles.stationary_eig(P))) < 1e-9


def test_cutoff_steady_values_consistent_with_closed_form(rng):
    for _ in range(20):
        p = rng.uniform(0.1, 1.0)
        ms = int(rng.integers(0, 5))
        m = E.ElemLinkModel(p, ms, np.concatenate([[0.0], rng.uniform(0, 1, ms + 1)]))
        for ts in (*range(ms + 1), math.inf):
            s, ftilde = E.steady_state_closed_form(m, E.cutoff_decision(m, ts))
            ft, x, fr = E.cutoff_steady_values(m, ts)
            assert ftilde == pytest.approx(ft, abs=1e-12)
            assert 1 - s[0] == pytest.approx(x, abs=1e-12)
            assert ft / x == pytest.approx(fr, abs=1e-12)


def test_never_discard_transient_vs_evolve(rng):
    p = 0.35
    m = model(p, [1.0, 0.95, 0.9, 0.85, 0.8])
    pol = Policy.stationary(E.cutoff_decision(m, math.inf))
    for t in range(1, m.m_star + 3):  # the first discarded pair is inactive at m* + 2
        ft, x, fr = E.cutoff_infty_transient(m, t)
        ft2, x2, fr2 = E.ftilde_x_f(m, pol, t)
        assert ft == pytest.approx(ft2, abs=1e-12)
        assert x == pytest.approx(x2, abs=1e-12)
        if t <= m.m_star + 1:  # nothing discarded yet
            assert x == pytest.approx(1 - (1 - p) ** t, abs=1e-12)
    for t in (0, m.m_star + 3):  # past m* + 2 it left out the regenerated pairs
        with pytest.raises(ModelError, match=r"\[1, m_star \+ 2\]"):
            E.cutoff_infty_transient(m, t)


@pytest.mark.parametrize("p", [1e-17, 1e-300])
def test_never_discard_at_tiny_p(p):
    # 1 - Pr[inactive] gave X = 0.0 here, so F was None or printed as 0.0
    m = model(p, [1.0, 0.9, 0.8])
    pol = Policy.stationary(E.cutoff_decision(m, math.inf))
    for ft, x, fr in (E.ftilde_x_f(m, pol, 3), E.cutoff_infty_transient(m, 3),
                      E.cutoff_steady_values(m, math.inf)):
        assert x == pytest.approx(3 * p, rel=1e-12)
        assert fr == pytest.approx(0.9, rel=1e-12)
        assert ft <= x


def test_waiting_time_vs_absorbing_chain(rng):
    # Kemeny & Snell: make every active state absorbing; from the
    # distribution at t_req + 1 the wait is 1 + the expected inactive steps
    for _ in range(120):
        p = 10 ** rng.uniform(-3, 0)
        ms = int(rng.integers(0, 7))
        m = E.ElemLinkModel(p, ms, np.concatenate([[0.0], rng.uniform(0, 1, ms + 1)]))
        d = oracles.random_decision(rng, m.n, 2)
        t_req = int(rng.integers(0, 12))
        # the one transient state is the inactive one, whose self-loop
        # under d is Q = 1 - r: y = (1 - Q)^{-1} start[inactive]
        P = E.policy_matrix(m, d)
        start = E.evolve(m, Policy.stationary(d), t_req + 1)
        y = np.linalg.solve(np.eye(1) - P[:1, :1], start[:1])
        assert E.expected_waiting_time(m, d, t_req) == pytest.approx(
            1 + y.sum(), rel=1e-9, abs=0)


def test_waiting_time_of_a_slow_link():
    # the hazard series stopped at 10,000 terms and called this divergent
    m = model(1e-3, [1.0] * 5)
    wait = E.expected_waiting_time(m, E.cutoff_decision(m, 2), 1)
    assert wait == pytest.approx(1 + (1 - 1e-3) ** 2 / 1e-3, rel=1e-12)
    assert wait == pytest.approx(999.001, rel=1e-12)


@pytest.mark.parametrize("call, name", [
    # 0.5 ended in range()'s TypeError and -1 was reported by `evolve`
    pytest.param(lambda m, d: E.expected_waiting_time(m, d, 0.5), "expected_waiting_time",
                 id="expected_waiting_time-fractional"),
    pytest.param(lambda m, d: E.expected_waiting_time(m, d, -1), "expected_waiting_time",
                 id="expected_waiting_time-negative"),
    pytest.param(lambda m, d: E.optimal_backward(m, 2.5), "optimal_backward",
                 id="optimal_backward-fractional"),
    pytest.param(lambda m, d: E.ftilde_x_f(m, Policy.stationary(d), 2.5), "evolve",
                 id="evolve-fractional"),
    # 1.5 and 2.0 ended in range()'s TypeError and True was taken as 1
    pytest.param(lambda m, d: E.cutoff_infty_transient(m, 1.5), "cutoff_infty_transient",
                 id="cutoff_infty_transient-fractional"),
    pytest.param(lambda m, d: E.cutoff_infty_transient(m, np.float64(2.0)),
                 "cutoff_infty_transient", id="cutoff_infty_transient-float"),
    pytest.param(lambda m, d: E.cutoff_infty_transient(m, True), "cutoff_infty_transient",
                 id="cutoff_infty_transient-bool"),
])
def test_non_integer_or_negative_times_raise_model_error(call, name):
    m = model(0.5, [1.0, 0.9, 0.8])
    with pytest.raises(ModelError, match=f"^{name}: t.* must be an integer"):
        call(m, E.cutoff_decision(m, 2))


def test_numpy_integer_times_accepted():
    m = model(0.5, [1.0, 0.9, 0.8])
    d = E.cutoff_decision(m, 2)
    assert E.expected_waiting_time(m, d, np.int64(3)) == E.expected_waiting_time(m, d, 3)
    assert E.optimal_backward(m, np.int32(4))[0] == E.optimal_backward(m, 4)[0]
    assert E.cutoff_infty_transient(m, np.int64(3)) == E.cutoff_infty_transient(m, 3)


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


def _best_cutoff_exact(m):
    """The best cutoff's F~ = p (f(0) + ... + f(t)) / (1 + t p), in exact
    rationals of the model's floats."""
    p, f = Fraction(m.p), [Fraction(x) for x in m.f[1:]]
    return max(p * sum(f[:t + 1]) / (1 + t * p) for t in range(m.m_star + 1))


@pytest.mark.parametrize("p", [1e-4, 1e-6, 1e-7, 1e-8])
def test_lp_optimum_is_exact_at_small_p(p):
    # the diagonal 1 - fl(1 - p) of I - T^request was off by ~ulp(1)/p
    # relative: 5e-9 at p = 1e-8
    m = model(p, [1.0, 0.9, 0.8, 0.7])
    value, _ = E.lp_optimal_steady(m)
    best = _best_cutoff_exact(m)
    assert abs(Fraction(value) - best) <= Fraction(1e-14) * best


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0.0, 1.0]) | st.floats(min_value=-12.0, max_value=0.0).map(
           lambda e: 10.0 ** e),
       st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=9))
def test_lp_optimum_is_best_cutoff_at_any_p(p, f):
    # some cutoff is optimal for any f (the paper's theorem); a subnormal f
    # times p underflows, hence the absolute 1e-300
    m = model(p, f)
    value, _ = E.lp_optimal_steady(m)
    best = _best_cutoff_exact(m)
    assert abs(Fraction(value) - best) <= Fraction(1e-12) * best + Fraction(1e-300)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1.0, exclude_max=True),
       st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=5))
def test_best_cutoff_is_the_best_deterministic_decision(p, f):
    # the theorem checked: the best cutoff is the best of all 2^(m*+2)
    # deterministic decisions, and the steady-state occupation LP, solved,
    # agrees.  Not p = 1, where waiting at -1 and requesting at age 0 make
    # two closed classes, so the stationary distribution is not unique; and
    # the LP only while 1 - p >= 1e-9, since HiGHS drops smaller entries
    m = model(p, f)
    value, d = E.lp_optimal_steady(m)
    best = max(float(m.f @ oracles.stationary_distribution(E.policy_matrix(m, dd)))
               for dd in deterministic_decisions(m.n, 2))
    assert value == pytest.approx(best, rel=0, abs=1e-12)
    if 1 - p >= 1e-9:
        assert value == pytest.approx(oracles.steady_state_lp(E.build_mdp(m), m.f), rel=0,
                                      abs=1e-9)
    assert E.steady_state_closed_form(m, d)[1] == pytest.approx(value, rel=0, abs=1e-12)


def test_backward_vs_exhaustive(rng):
    for ms in range(3):
        for t in range(1, 5):
            p = rng.uniform(0.1, 1.0)
            m = E.ElemLinkModel(p, ms,
                                np.concatenate([[0.0], rng.uniform(0, 1, ms + 1)]))
            v, _ = E.optimal_backward(m, t)
            assert v == pytest.approx(
                oracles.exhaustive_markov_policy_value(m, t), abs=1e-12)


def _exhaustive_literal(model, t):
    """Every deterministic time-indexed Markov policy enumerated on its own:
    one step matrix per step, one propagation from g per policy."""
    T = E.build_mdp(model)
    n, n_actions = model.n, len(T)
    best = -np.inf
    for assignment in itertools.product(range(n_actions ** n), repeat=t - 1):
        dist = E.g_vector(model)
        for code in assignment:
            P = np.empty((n, n))
            for s in range(n):
                P[:, s] = T[(code // n_actions ** s) % n_actions][:, s]
            dist = P @ dist
        best = max(best, float(model.f @ dist))
    return best


def test_exhaustive_oracle_equals_literal_enumeration(rng):
    for ms in range(3):
        for t in range(1, 5):
            p = rng.uniform(0.1, 1.0)
            m = E.ElemLinkModel(p, ms,
                                np.concatenate([[0.0], rng.uniform(0, 1, ms + 1)]))
            assert oracles.exhaustive_markov_policy_value(m, t) == _exhaustive_literal(m, t)
    with pytest.raises(ModelError):
        oracles.exhaustive_markov_policy_value(m, 0)


def test_exhaustive_oracle_caps_its_arrays():
    # at m* = 2 the last step holds 16**(t - 1) distributions of 4 floats:
    # 2**22 at t = 6, 2**26 at t = 7; at m* = 100 the step matrices alone
    # would be 2**102; each call over the cap raises before it allocates
    m = E.ElemLinkModel(0.5, 2, np.array([0.0, 1.0, 0.9, 0.8]))
    assert oracles.exhaustive_markov_policy_value(m, 6) == pytest.approx(
        E.optimal_backward(m, 6)[0], rel=0, abs=1e-12)
    big = E.ElemLinkModel(0.5, 100, np.append(0.0, np.linspace(1, 0, 101)))
    for model, t in ((m, 7), (m, 10 ** 12), (big, 1)):
        with pytest.raises(ModelError, match="at most 16777216 floats"):
            oracles.exhaustive_markov_policy_value(model, t)


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


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.05, max_value=1.0),
       st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=10**6))
def test_steady_state_probabilities_property(p, ms, seed):
    rng = np.random.default_rng(seed)
    m = E.ElemLinkModel(p, ms, np.concatenate([[0.0], rng.uniform(0, 1, ms + 1)]))
    d = oracles.random_decision(rng, m.n, 2)
    s, ftilde = E.steady_state_closed_form(m, d)
    assert s.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(s >= -1e-15)
    assert 0 <= ftilde <= 1 + 1e-12


# p at the ends of [0, 1] and at the tiniest normal scale, then anywhere in it
_PROBABILITIES = st.sampled_from([0.0, 1e-300, 1.0]) | st.floats(min_value=0.0, max_value=1.0)


def _assert_column_stochastic(T):
    assert ((T >= 0) & (T <= 1)).all()
    assert np.abs(T.sum(axis=-2) - 1).max() <= 1e-15


@settings(max_examples=100, deadline=None)
@given(_PROBABILITIES, st.integers(min_value=0, max_value=8))
def test_build_mdp_is_column_stochastic(p, m_star):
    # the check the chain's wrapper type made on every build, now held by
    # construction
    m = E.ElemLinkModel(p, m_star, np.zeros(m_star + 2))
    T = E.build_mdp(m)
    assert T.shape == (2, m.n, m.n)
    _assert_column_stochastic(T)
    g = E.g_vector(m)
    assert ((g >= 0) & (g <= 1)).all() and abs(g.sum() - 1) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(_PROBABILITIES, _PROBABILITIES, _PROBABILITIES,
       st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_two_link_absorbing_chain_is_column_stochastic(p1, p2, q, m1, m2):
    model = TwoLinkModel(p1, p2, q, m1, m2, uniform_f_table(m1, m2))
    T, _, start = oracles.two_link_absorbing_chain(model)
    assert T.shape[1:] == (model.n + 1, model.n + 1)
    _assert_column_stochastic(T)
    assert abs(start.sum() - 1) <= 1e-15


def test_chain_builders_return_fresh_arrays():
    m = model(0.5, [1.0, 0.9])
    for build in (E.build_mdp, E.g_vector):
        a, b = build(m), build(m)
        assert a is not b and a.flags.writeable
