import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entlink.markov import (
    DecisionFunction,
    ModelError,
    Policy,
    ProbVector,
    StochasticMatrix,
    absorbing_states,
    absorption_distribution,
    absorption_time,
    decompose_absorbing,
    evolve,
    policy_matrix,
    stationary_distribution,
)
from entlink.oracles import stationary_eig

from conftest import random_absorbing_mdp, random_mdp


def test_probvector_rejects_bad_sum():
    with pytest.raises(ModelError):
        ProbVector([0.5, 0.6])
    with pytest.raises(ModelError):
        ProbVector([-0.1, 1.1])


def test_probvector_labels():
    v = ProbVector([0.25, 0.75], states=(-1, 0))
    assert v[-1] == 0.25 and v[0] == 0.75
    assert len(v) == 2


def test_stochastic_matrix_rejects_row_convention():
    # rows summing to one but columns not: must be rejected
    M = np.array([[0.9, 0.1], [0.3, 0.7]])
    with pytest.raises(ModelError):
        StochasticMatrix(M)
    StochasticMatrix(M.T)


def test_policy_matrix_mixes_actions(rng):
    mdp = random_mdp(rng, 4, 3)
    d = DecisionFunction(rng.dirichlet(np.ones(3), size=4))
    P = policy_matrix(mdp, d).entries
    expect = np.zeros((4, 4))
    for s in range(4):
        for a in range(3):
            expect[:, s] += d.table[s, a] * mdp.transitions[a].entries[:, s]
    assert np.allclose(P, expect, atol=1e-14)


def test_evolve_matches_matrix_powers(rng):
    mdp = random_mdp(rng, 5, 2)
    d = DecisionFunction.uniform(5, 2)
    pol = Policy.stationary(d)
    init = ProbVector(rng.dirichlet(np.ones(5)))
    P = policy_matrix(mdp, d).entries
    out = evolve(mdp, pol, init, 4)
    assert np.allclose(out.entries, np.linalg.matrix_power(P, 3) @ init.entries)


def test_time_indexed_policy_horizon(rng):
    mdp = random_mdp(rng, 3, 2)
    ds = [DecisionFunction.uniform(3, 2)] * 2
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
    P = StochasticMatrix(cols)
    s = stationary_distribution(P)
    assert np.max(np.abs(P.entries @ s.entries - s.entries)) < 1e-10


def test_stationary_matches_eig_oracle(rng):
    for _ in range(30):
        n = int(rng.integers(2, 10))
        cols = rng.dirichlet(np.ones(n), size=n).T + 1e-4
        cols /= cols.sum(axis=0)
        P = StochasticMatrix(cols)
        assert np.max(np.abs(stationary_distribution(P).entries
                             - stationary_eig(P))) < 1e-9


def test_absorbing_detection(rng):
    mdp = random_absorbing_mdp(rng, 3, 2, 2)
    assert absorbing_states(mdp) == [3, 4]


def test_absorption_time_geometric(rng):
    # single transient state, success prob p each step: E[T] = 1/p
    p = 0.3
    T = np.array([[1 - p, 0.0], [p, 1.0]])
    from entlink.markov import Mdp
    mdp = Mdp(states=(0, 1), actions=(0,), transitions={0: StochasticMatrix(T)})
    d = DecisionFunction(np.ones((2, 1)))
    dec = decompose_absorbing(mdp, d)
    assert absorption_time(dec, [1.0]) == pytest.approx(1 / p, abs=1e-12)
    assert absorption_distribution(dec, [1.0]) == pytest.approx([1.0])


def test_absorbing_state_with_rounded_self_loop():
    # a self-loop summed as 0.7 + 0.2 + 0.1 is 1 - 1.1e-16, not 1.0
    from entlink.lp import mdp_occupation_lp
    from entlink.markov import Mdp
    loop = 0.7 + 0.2 + 0.1
    assert loop != 1.0
    T = StochasticMatrix([[0.5, 0.0], [0.5, loop]])
    mdp = Mdp(states=(0, 1), actions=(0,), transitions={0: T})
    assert absorbing_states(mdp) == [1]
    dec = decompose_absorbing(mdp, DecisionFunction(np.ones((2, 1))))
    assert absorption_time(dec, [1.0]) == pytest.approx(2.0, abs=1e-12)
    value, _ = mdp_occupation_lp(mdp, np.ones(2), "min", [1.0, 0.0])
    assert value == pytest.approx(2.0, abs=1e-9)


def test_absorption_distribution_sums_to_one(rng):
    mdp = random_absorbing_mdp(rng, 4, 3, 2)
    d = DecisionFunction.uniform(7, 2)
    dec = decompose_absorbing(mdp, d)
    init = rng.dirichlet(np.ones(4))
    dist = absorption_distribution(dec, init)
    assert dist.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all(dist >= -1e-12)
