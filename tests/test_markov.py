import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entlink.markov import DecisionFunction, ModelError, Policy
from entlink.elemlink import (ElemLinkModel, build_mdp, cutoff_decision, evolve,
                              expected_waiting_time, ftilde_x_f, g_vector, policy_matrix,
                              steady_state_closed_form)
from entlink.oracles import random_decision, stationary_distribution, stationary_eig
from entlink import elemlink, markov, twolink as TL
from entlink.twolink import TwoLinkModel


def random_model(rng, n):
    """A single-link model with n states, p in (0.05, 1) and a random f."""
    return ElemLinkModel(rng.uniform(0.05, 1.0), n - 2,
                         np.concatenate([[0.0], rng.uniform(0, 1, n - 1)]))


@pytest.mark.parametrize("make", [
    lambda: DecisionFunction([[np.nan, 1.0]]),
], ids=["DecisionFunction"])
def test_nan_entries_are_rejected(make):
    with pytest.raises(ModelError):
        make()


_MODEL = ElemLinkModel(0.5, 0, [0.0, 1.0])  # states -1 and 0
_ONE_ACTION = DecisionFunction([[1.0], [1.0]])
_TWO_ACTIONS = DecisionFunction([[0.5, 0.5], [0.5, 0.5]])
_THREE_AGES = ElemLinkModel(0.5, 2, [0, 1, .9, .8])


@pytest.mark.parametrize("make", [
    lambda: DecisionFunction([1.0, 0.0]),
    lambda: DecisionFunction([[1.5, -0.5]]),
    lambda: DecisionFunction([[0.5, 0.4]]),
    lambda: policy_matrix(_MODEL, DecisionFunction([[1.0], [1.0], [1.0]])),
    lambda: evolve(_MODEL, Policy.stationary(_TWO_ACTIONS), 0),
    # a decision with one action where the chain has two
    lambda: evolve(_MODEL, Policy.stationary(_ONE_ACTION), 2),
    # a time-indexed policy returned its last decision at t = 0 and counted
    # from the end for t < 0
    lambda: Policy.time_indexed([_ONE_ACTION] * 2).decision_at(0),
    lambda: Policy.time_indexed([_ONE_ACTION] * 2).decision_at(-1),
    lambda: Policy.time_indexed([_ONE_ACTION] * 2).decision_at(1.5),
    lambda: Policy.time_indexed([_ONE_ACTION] * 2).decision_at(True),
    lambda: Policy.stationary(_ONE_ACTION).decision_at(np.float64(2.0)),
    # a decision that is no DecisionFunction raised an AttributeError later
    lambda: Policy.stationary(np.eye(2)),
    lambda: Policy.time_indexed([_ONE_ACTION, np.eye(2)]),
    lambda: TL.evaluate_policy(TwoLinkModel(0.5, 0.5, 0.5, 0, 0, TL.uniform_f_table(0, 0)),
                            DecisionFunction(np.full((5, 5), 1 / 5))),
    # a decision whose shape does not match the model: column 0 read as
    # wait, a bare IndexError, and a wait that took no step
    lambda: steady_state_closed_form(_THREE_AGES, DecisionFunction(np.full((4, 3), 1 / 3))),
    lambda: steady_state_closed_form(_THREE_AGES, DecisionFunction(np.full((3, 2), 0.5))),
    lambda: expected_waiting_time(_THREE_AGES, DecisionFunction(np.full((3, 2), 0.5)), 0),
    # -1 picked the last action; the others raised a bare IndexError
    lambda: DecisionFunction.deterministic([-1, 0], 2),
    lambda: DecisionFunction.deterministic([2, 0], 2),
    lambda: DecisionFunction.deterministic([0.5, 0], 2),
    lambda: DecisionFunction.deterministic([True, False], 2),
], ids=["DecisionFunction-1d", "DecisionFunction-entries",
        "DecisionFunction-rows", "policy_matrix-shape", "evolve-t-0", "evolve-size",
        "decision_at-0", "decision_at-negative", "decision_at-fractional", "decision_at-bool",
        "decision_at-stationary-float", "stationary-array", "time_indexed-array",
        "evaluate_policy-size", "steady_state_closed_form-actions",
        "steady_state_closed_form-states", "expected_waiting_time-states",
        "deterministic-negative", "deterministic-too-large", "deterministic-fractional",
        "deterministic-bool"])
def test_malformed_input_raises_model_error(make):
    # NaN entries have their own test
    with pytest.raises(ModelError):
        make()


@pytest.mark.parametrize("make, data, field", [
    (DecisionFunction, [[0.5, 0.5], [1.0, 0.0]], "table"),
    (lambda f: ElemLinkModel(0.5, 1, f), [0.0, 1.0, 0.9], "f"),
    (lambda f: TwoLinkModel(0.5, 0.5, 0.5, 0, 0, f),
     [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.9]]], "f"),
], ids=["DecisionFunction", "ElemLinkModel", "TwoLinkModel"])
def test_constructor_copies_the_callers_array(make, data, field):
    a = np.array(data)
    obj = make(a)
    a[...] = 0.0  # the caller's buffer stays writable
    held = getattr(obj, field)
    assert held.tolist() == data
    assert not held.flags.writeable


def test_policy_matrix_mixes_actions(rng):
    model = random_model(rng, 4)
    d = random_decision(rng, 4, 2)
    T = build_mdp(model)
    P = policy_matrix(model, d)
    expect = np.zeros((4, 4))
    for s in range(4):
        for a in range(2):
            expect[:, s] += d.table[s, a] * T[a][:, s]
    assert np.allclose(P, expect, atol=1e-14)


def test_evolve_matches_matrix_powers(rng):
    model = random_model(rng, 5)
    d = DecisionFunction(np.full((5, 2), 1 / 2))
    P = policy_matrix(model, d)
    out = evolve(model, Policy.stationary(d), 4)
    assert np.allclose(out, np.linalg.matrix_power(P, 3) @ g_vector(model))


def _stepwise(model, policy, t):
    v = g_vector(model)
    for step in range(1, t):
        v = policy_matrix(model, policy.decision_at(step)) @ v
    return v


def test_evolve_reuses_decisions_bitwise(rng):
    model = random_model(rng, 6)
    d1, d2 = random_decision(rng, 6, 2), random_decision(rng, 6, 2)
    for pol in (Policy.time_indexed([d1, d2] * 10), Policy.time_indexed([d1] * 20),
                Policy.stationary(d2)):
        for t in (1, 2, 7, 21):
            out = evolve(model, pol, t)
            assert out.tobytes() == _stepwise(model, pol, t).tobytes()
            assert out.flags.writeable  # a fresh array, also at t = 1


def _to_the_edge(a, rng):
    """a with each row sum moved up or down, at random, by 0.95 PROB_TOL *
    length: decision tables that pass the check by the least margin.  The
    shift goes onto the smallest entry or off the largest."""
    a = np.array(a)
    shift = 0.95 * markov.PROB_TOL * a.shape[-1] * rng.choice([-1.0, 1.0], size=a.shape[:-1])
    at = np.where(shift > 0, a.argmin(axis=-1), a.argmax(axis=-1))[..., None]
    np.put_along_axis(a, at, np.take_along_axis(a, at, -1) + shift[..., None], -1)
    return a


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10**6))
def test_evolve_at_the_edge_of_the_tolerance_is_bitwise_stepwise(n, seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, n)
    ds = [DecisionFunction(_to_the_edge(rng.dirichlet(np.ones(2), size=n), rng))
          for _ in range(2)]
    for pol in (Policy.time_indexed(ds * 15), Policy.stationary(ds[0])):
        for t in (1, 3, 30):
            out = evolve(model, pol, t)
            assert np.isfinite(out).all()
            assert out.tobytes() == _stepwise(model, pol, t).tobytes()


# rows that sum to 1 + 1.9e-12, inside the 2e-12 a 2-entry row may miss by
_EDGE_ROW = [0.5 + 1.9e-12, 0.5]


def test_evolve_does_not_recheck_the_distribution():
    # a distribution rechecked at each step raised "sums along axis 0 differ
    # from 1" at t = 3: two steps of columns that sum to 1 + 1.9e-12 leave
    # 1 + 3.8e-12 of mass
    pol = Policy.stationary(DecisionFunction([_EDGE_ROW] * 2))
    out = evolve(_MODEL, pol, 3)
    assert out.sum() - 1 > 2 * markov.PROB_TOL
    assert out == pytest.approx([0.75, 0.25], abs=1e-11)
    assert out.tobytes() == _stepwise(_MODEL, pol, 3).tobytes()


def test_expected_waiting_time_at_the_edge_of_the_tolerance():
    # raised the same ModelError through `evolve`
    model = ElemLinkModel(0.3, 2, [0, 1, .9, .8])
    wait = expected_waiting_time(model, DecisionFunction([_EDGE_ROW] * 4), 3)
    want = expected_waiting_time(model, DecisionFunction(np.full((4, 2), 0.5)), 3)
    assert wait == pytest.approx(want, rel=1e-10)


def test_policy_matrix_does_not_recheck_the_chain():
    # raised "StochasticMatrix: sums along axis 0 differ from 1"; the
    # columns of P^d sum to 1 + 1.9e-12
    P = policy_matrix(_MODEL, DecisionFunction([_EDGE_ROW] * 2))
    assert P == pytest.approx(np.array([[0.75, 0.75], [0.25, 0.25]]), abs=1e-11)


def test_stationary_evolve_builds_the_policy_matrix_once(rng, monkeypatch):
    model = random_model(rng, 4)
    calls = []

    def counting(model, d):
        calls.append(d)
        return policy_matrix(model, d)

    monkeypatch.setattr(elemlink, "policy_matrix", counting)
    evolve(model, Policy.stationary(DecisionFunction(np.full((4, 2), 1 / 2))), 200)
    assert len(calls) == 1


def test_time_indexed_policy_horizon(rng):
    model = random_model(rng, 3)
    pol = Policy.time_indexed([DecisionFunction(np.full((3, 2), 1 / 2))] * 2)
    evolve(model, pol, 3)
    with pytest.raises(ModelError):
        evolve(model, pol, 4)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=10**6))
def test_stationary_is_fixed_point(n, seed):
    rng = np.random.default_rng(seed)
    cols = rng.dirichlet(np.ones(n), size=n).T + 1e-4
    cols /= cols.sum(axis=0)
    s = stationary_distribution(cols)
    assert np.max(np.abs(cols @ s - s)) < 1e-10


def test_stationary_matches_eig_oracle(rng):
    for _ in range(30):
        n = int(rng.integers(2, 10))
        cols = rng.dirichlet(np.ones(n), size=n).T + 1e-4
        cols /= cols.sum(axis=0)
        assert np.max(np.abs(stationary_distribution(cols) - stationary_eig(cols))) < 1e-9


def test_stationary_of_a_periodic_chain_is_one_direct_solve(monkeypatch):
    # the chain alternates between ages 0 and 1, so its powers never settle;
    # one least-squares solve gives the answer
    model = ElemLinkModel(1.0, 1, [0, 1, 0.9])
    d = cutoff_decision(model, 1)
    calls = []
    lstsq = np.linalg.lstsq

    def counted_lstsq(*args, **kwargs):
        calls.append(args)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
    s = stationary_distribution(policy_matrix(model, d))
    assert len(calls) == 1
    want, _ = steady_state_closed_form(model, d)
    assert want.tolist() == [0.0, 0.5, 0.5]
    assert np.max(np.abs(s - want)) <= 1e-12


@pytest.mark.parametrize("P", [
    np.eye(2),
    # transient state 0 feeds the closed classes {1, 2} and {3}
    np.array([[0.0, 0.0, 0.0, 0.0],
              [0.5, 0.2, 0.6, 0.0],
              [0.0, 0.8, 0.4, 0.0],
              [0.5, 0.0, 0.0, 1.0]]),
], ids=["identity", "two-closed-classes"])
def test_stationary_raises_when_not_unique(P):
    with pytest.raises(ModelError, match="not unique"):
        stationary_distribution(P)


@pytest.mark.parametrize("value, low, want", [
    (3, 1, True), (np.int64(0), 0, True), (0, 1, False), (-1, 0, False),
    (2.0, 0, False), (np.float64(2.0), 0, False), (True, 0, False), ("2", 0, False)])
def test_is_count_takes_integers_but_no_bools(value, low, want):
    assert markov.is_count(value, low) == want


@pytest.mark.parametrize("value, want", [
    (0, True), (1, True), (0.5, True), (np.float64(0.25), True), (np.int64(1), True),
    (np.float32(0.5), True), (-0.1, False), (1.5, False), (math.nan, False),
    (True, False), (False, False), (np.True_, False), ("0.5", False), (None, False),
    (np.array(0.5), False)])
def test_is_probability_takes_real_numbers_but_no_bools(value, want):
    assert markov.is_probability(value) == want


@pytest.mark.parametrize("value, want", [
    (0, True), (-3, True), (2.5, True), (math.nan, True), (-math.inf, True),
    (np.float32(0.5), True), (np.int64(7), True), (True, False), (np.True_, False),
    ("1", False), (None, False), (1j, False), (np.array(0.5), False)])
def test_is_real_takes_numbers_but_no_bools(value, want):
    assert markov.is_real(value) == want


def test_policy_of_a_non_decision_raises_model_error():
    # raised AttributeError: 'numpy.ndarray' object has no attribute 'table'
    model = ElemLinkModel(0.5, 2, [0, 1, .9, .8])
    with pytest.raises(ModelError, match="DecisionFunction"):
        ftilde_x_f(model, Policy.stationary(np.eye(2)), 3)


def test_stationary_of_one_closed_class_with_a_tiny_leak():
    # waiting at -1 and requesting at age 0: the one closed class is {-1},
    # reached from age 0 with probability 1.1e-16, which the least-squares
    # rank cutoff dropped ("not unique, rank 1 < 2")
    model = ElemLinkModel(0.9999999999999999, 0, [0, 1])
    d = DecisionFunction.deterministic([elemlink.WAIT, elemlink.REQUEST], 2)
    assert stationary_distribution(policy_matrix(model, d)).tolist() == [1.0, 0.0]


def test_is_real_keeps_its_verdicts_past_the_float_fast_path():
    for value in (True, np.bool_(True), 1j, np.complex128(1), Fraction(1, 2), "0.5"):
        assert not markov.is_real(value)
    for value in (0.5, math.nan, math.inf, 3, np.float32(0.5), np.float64(0.5), np.int8(3)):
        assert markov.is_real(value)
