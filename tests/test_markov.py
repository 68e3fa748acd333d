import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entlink.markov import (
    DecisionFunction,
    Mdp,
    ModelError,
    Policy,
    ProbVector,
    evolve,
    policy_matrix,
)
from entlink.elemlink import (ElemLinkModel, build_mdp, cutoff_decision,
                              expected_waiting_time, ftilde_x_f,
                              steady_state_closed_form)
from entlink.oracles import stationary_distribution, stationary_eig
from entlink import markov, twolink as TL
from entlink.twolink import TwoLinkModel

from conftest import random_mdp


def test_probvector_rejects_bad_sum():
    with pytest.raises(ModelError):
        ProbVector([0.5, 0.6])
    with pytest.raises(ModelError):
        ProbVector([-0.1, 1.1])


def test_stochastic_matrix_rejects_row_convention():
    # an action matrix whose rows sum to one but columns not: must be rejected
    M = np.array([[0.9, 0.1], [0.3, 0.7]])
    with pytest.raises(ModelError):
        Mdp([M])
    Mdp([M.T])


@pytest.mark.parametrize("make", [
    lambda: ProbVector([np.nan, 1.0]),
    lambda: DecisionFunction([[np.nan, 1.0]]),
    lambda: Mdp([[[np.nan, 0.0], [1.0, 1.0]]]),
], ids=["ProbVector", "DecisionFunction", "Mdp"])
def test_nan_entries_are_rejected(make):
    with pytest.raises(ModelError):
        make()


_MDP = Mdp([[[0.5, 0.0], [0.5, 1.0]]])
_ONE_ACTION = DecisionFunction([[1.0], [1.0]])


@pytest.mark.parametrize("make", [
    lambda: ProbVector([[0.5, 0.5]]),
    lambda: ProbVector([1.5, -0.5]),
    lambda: ProbVector([0.5, 0.5 + 3e-12]),
    lambda: Mdp([[[1.5, 0.0], [-0.5, 1.0]]]),
    lambda: DecisionFunction([1.0, 0.0]),
    lambda: DecisionFunction([[1.5, -0.5]]),
    lambda: DecisionFunction([[0.5, 0.4]]),
    lambda: policy_matrix(_MDP, DecisionFunction([[1.0], [1.0], [1.0]])),
    lambda: evolve(_MDP, Policy.stationary(_ONE_ACTION), ProbVector([1.0, 0.0]), 0),
    lambda: evolve(_MDP, Policy.stationary(_ONE_ACTION), ProbVector([1.0, 0.0, 0.0]), 2),
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
], ids=["ProbVector-2d", "ProbVector-entries", "ProbVector-sum",
        "Mdp-entries", "DecisionFunction-1d", "DecisionFunction-entries",
        "DecisionFunction-rows", "policy_matrix-shape", "evolve-t-0", "evolve-size",
        "decision_at-0", "decision_at-negative", "decision_at-fractional", "decision_at-bool",
        "decision_at-stationary-float", "stationary-array", "time_indexed-array",
        "evaluate_policy-size"])
def test_malformed_input_raises_model_error(make):
    # NaN entries, Mdp shapes and Mdp column sums have their own tests
    with pytest.raises(ModelError):
        make()


@pytest.mark.parametrize("make, data, field", [
    (ProbVector, [0.25, 0.75], "entries"),
    (DecisionFunction, [[0.5, 0.5], [1.0, 0.0]], "table"),
    (Mdp, [[[0.5, 0.0], [0.5, 1.0]]], "T"),
    (lambda f: ElemLinkModel(0.5, 1, f), [0.0, 1.0, 0.9], "f"),
    (lambda f: TwoLinkModel(0.5, 0.5, 0.5, 0, 0, f),
     [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.9]]], "f"),
], ids=["ProbVector", "DecisionFunction", "Mdp",
        "ElemLinkModel", "TwoLinkModel"])
def test_constructor_copies_the_callers_array(make, data, field):
    a = np.array(data)
    obj = make(a)
    a[...] = 0.0  # the caller's buffer stays writable
    held = getattr(obj, field)
    assert held.tolist() == data
    assert not held.flags.writeable


def test_mdp_holds_a_read_only_array_as_it_is():
    T = np.array([[[0.5, 0.0], [0.5, 1.0]]])
    T.setflags(write=False)
    assert Mdp(T).T is T


def test_mdp_validation():
    T = np.array([[[0.5, 0.0], [0.5, 1.0]], [[1.0, 0.0], [0.0, 1.0]]])
    off = T.copy()
    off[1, 0, 0] += 1e-9  # one action's column sums to 1 + 1e-9
    for bad in (T[0], np.full((2, 2, 3), 0.5), off):
        with pytest.raises(ModelError):
            Mdp(bad)
    mdp = Mdp(T)
    assert mdp.n == 2
    with pytest.raises(ValueError):
        mdp.T[0, 0, 0] = 0.0


def test_policy_matrix_mixes_actions(rng):
    mdp = random_mdp(rng, 4, 3)
    d = DecisionFunction(rng.dirichlet(np.ones(3), size=4))
    P = policy_matrix(mdp, d)
    expect = np.zeros((4, 4))
    for s in range(4):
        for a in range(3):
            expect[:, s] += d.table[s, a] * mdp.T[a][:, s]
    assert np.allclose(P, expect, atol=1e-14)


def test_evolve_matches_matrix_powers(rng):
    mdp = random_mdp(rng, 5, 2)
    d = DecisionFunction(np.full((5, 2), 1 / 2))
    pol = Policy.stationary(d)
    init = ProbVector(rng.dirichlet(np.ones(5)))
    P = policy_matrix(mdp, d)
    out = evolve(mdp, pol, init, 4)
    assert np.allclose(out, np.linalg.matrix_power(P, 3) @ init.entries)


def _stepwise(mdp, policy, init, t):
    v = init.entries
    for step in range(1, t):
        v = policy_matrix(mdp, policy.decision_at(step)) @ v
    return v


def test_evolve_reuses_decisions_bitwise(rng):
    mdp = random_mdp(rng, 6, 3)
    init = ProbVector(rng.dirichlet(np.ones(6)))
    d1 = DecisionFunction(rng.dirichlet(np.ones(3), size=6))
    d2 = DecisionFunction(rng.dirichlet(np.ones(3), size=6))
    for pol in (Policy.time_indexed([d1, d2] * 10), Policy.time_indexed([d1] * 20),
                Policy.stationary(d2)):
        for t in (1, 2, 7, 21):
            out = evolve(mdp, pol, init, t)
            assert out.tobytes() == _stepwise(mdp, pol, init, t).tobytes()
            assert out.flags.writeable  # a fresh array, also at t = 1


def _to_the_edge(a, axis, rng):
    """a with each sum along `axis` moved up or down, at random, by 0.95
    PROB_TOL * length: inputs that pass the simplex check by the least
    margin.  The shift goes onto the smallest entry or off the largest."""
    a = np.moveaxis(np.array(a), axis, -1)
    shift = 0.95 * markov.PROB_TOL * a.shape[-1] * rng.choice([-1.0, 1.0], size=a.shape[:-1])
    at = np.where(shift > 0, a.argmin(axis=-1), a.argmax(axis=-1))[..., None]
    np.put_along_axis(a, at, np.take_along_axis(a, at, -1) + shift[..., None], -1)
    return np.moveaxis(a, -1, axis)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=10**6))
def test_evolve_at_the_edge_of_the_tolerance_is_bitwise_stepwise(n, na, seed):
    rng = np.random.default_rng(seed)
    mdp = Mdp(_to_the_edge(random_mdp(rng, n, na).T, 1, rng))
    ds = [DecisionFunction(_to_the_edge(rng.dirichlet(np.ones(na), size=n), 1, rng))
          for _ in range(2)]
    init = ProbVector(_to_the_edge(rng.dirichlet(np.ones(n)), 0, rng))
    for pol in (Policy.time_indexed(ds * 15), Policy.stationary(ds[0])):
        for t in (1, 3, 30):
            out = evolve(mdp, pol, init, t)
            assert np.isfinite(out).all()
            assert out.tobytes() == _stepwise(mdp, pol, init, t).tobytes()


# rows that sum to 1 + 1.9e-12, inside the 2e-12 a 2-entry row may miss by
_EDGE_ROW = [0.5 + 1.9e-12, 0.5]


def test_evolve_does_not_recheck_the_distribution():
    # raised "ProbVector: sums along axis 0 differ from 1" at t = 3
    mdp = Mdp([[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
    pol = Policy.stationary(DecisionFunction([_EDGE_ROW] * 2))
    init = ProbVector([0.5, 0.5])
    out = evolve(mdp, pol, init, 3)
    assert out == pytest.approx([0.5, 0.5], abs=1e-11)
    assert out.tobytes() == _stepwise(mdp, pol, init, 3).tobytes()


def test_expected_waiting_time_at_the_edge_of_the_tolerance():
    # raised the same ModelError through `evolve`
    model = ElemLinkModel(0.3, 2, [0, 1, .9, .8])
    wait = expected_waiting_time(model, DecisionFunction([_EDGE_ROW] * 4), 3)
    want = expected_waiting_time(model, DecisionFunction(np.full((4, 2), 0.5)), 3)
    assert wait == pytest.approx(want, rel=1e-10)


def test_policy_matrix_does_not_recheck_the_chain():
    # raised "StochasticMatrix: sums along axis 0 differ from 1"
    T = [[0.5 + 1.9e-12, 0.5], [0.5, 0.5 + 1.9e-12]]  # columns sum to 1 + 1.9e-12
    P = policy_matrix(Mdp([T, T]), DecisionFunction([_EDGE_ROW] * 2))
    assert P == pytest.approx(np.full((2, 2), 0.5), abs=1e-11)


def test_stationary_evolve_builds_the_policy_matrix_once(rng, monkeypatch):
    mdp = random_mdp(rng, 4, 2)
    calls = []

    def counting(mdp, d):
        calls.append(d)
        return policy_matrix(mdp, d)

    monkeypatch.setattr(markov, "policy_matrix", counting)
    evolve(mdp, Policy.stationary(DecisionFunction(np.full((4, 2), 1 / 2))),
           ProbVector(np.full(4, 0.25)), 200)
    assert len(calls) == 1


def test_time_indexed_policy_horizon(rng):
    mdp = random_mdp(rng, 3, 2)
    ds = [DecisionFunction(np.full((3, 2), 1 / 2))] * 2
    pol = Policy.time_indexed(ds)
    init = ProbVector(np.full(3, 1 / 3))
    evolve(mdp, pol, init, 3)
    with pytest.raises(ModelError):
        evolve(mdp, pol, init, 4)


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
    s = stationary_distribution(policy_matrix(build_mdp(model), d))
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


def test_policy_of_a_non_decision_raises_model_error():
    # raised AttributeError: 'numpy.ndarray' object has no attribute 'table'
    model = ElemLinkModel(0.5, 2, [0, 1, .9, .8])
    with pytest.raises(ModelError, match="DecisionFunction"):
        ftilde_x_f(model, Policy.stationary(np.eye(2)), 3)
