import itertools

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linear_sum_assignment

from entlink import lp as L
from entlink.markov import (
    Mdp,
    absorbing_solve,
    policy_matrix,
    stationary_distribution,
)
from entlink.oracles import policy_iteration_absorbing

from conftest import deterministic_decisions, random_absorbing_mdp, random_mdp


def _vertices(A, b):
    """Every basic feasible solution of A x = b, x >= 0 (A of full row
    rank): pick the basic columns, put every other variable at 0, solve for
    the basic ones."""
    m, n = A.shape
    out = []
    for basis in itertools.combinations(range(n), m):
        x = np.zeros(n)
        x[list(basis)] = np.linalg.solve(A[:, basis], b)
        if np.all(x >= -1e-9):
            out.append(x)
    return out


def test_random_lps_match_vertex_enumeration(rng):
    outcomes = set()
    for trial in range(60):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, n))
        A = rng.normal(size=(m, n))
        b = A @ rng.uniform(0, 1, n)  # feasible by construction
        c = rng.normal(size=n)
        prob = L.LinearProgram(c, "min", A, b)
        # extreme rays of the recession cone: A d = 0, d >= 0, sum d = 1
        rays = _vertices(np.vstack([A, np.ones(n)]), np.append(np.zeros(m), 1.0))
        if any(c @ d < -1e-9 for d in rays):
            outcomes.add("unbounded")
            with pytest.raises(L.NumericalError, match="unbounded"):
                L.solve(prob)
        else:
            outcomes.add("optimal")
            value, x = L.solve(prob)
            best = min(c @ v for v in _vertices(A, b))
            assert value == pytest.approx(best, abs=1e-7), trial
            assert np.max(np.abs(A @ x - b)) < 1e-8
            assert np.all(x >= 0)
    assert outcomes == {"optimal", "unbounded"}


def test_infeasible_detected():
    # x1 + x2 = -1 with x >= 0
    prob = L.LinearProgram([1.0, 1.0], "min", [[1.0, 1.0]], [-1.0])
    with pytest.raises(L.NumericalError, match="infeasible"):
        L.solve(prob)


def test_unbounded_detected():
    prob = L.LinearProgram([-1.0, 0.0], "min", [[0.0, 1.0]], [1.0])
    with pytest.raises(L.NumericalError, match="unbounded"):
        L.solve(prob)


def test_max_sense():
    # x1 + x2 = 1 with x >= 0 already bounds both variables by 1
    prob = L.LinearProgram([1.0, 2.0], "max", [[1.0, 1.0]], [1.0])
    value, x = L.solve(prob)
    assert value == pytest.approx(2.0, abs=1e-9)
    assert x == pytest.approx([0.0, 1.0], abs=1e-9)


def test_degenerate_lp_terminates():
    # heavily degenerate assignment LP: x[i*n + j] assigns row i to column j;
    # the row and column sums bound every variable by 1
    n = 6
    A = np.zeros((2 * n, n * n))
    for i in range(n):
        A[i, i * n:(i + 1) * n] = 1.0
        A[n + i, i::n] = 1.0
    b = np.ones(2 * n)
    rng = np.random.default_rng(0)
    c = rng.integers(0, 3, n * n).astype(float)
    value, _ = L.solve(L.LinearProgram(c, "min", A, b))
    cost = c.reshape(n, n)
    rows, cols = linear_sum_assignment(cost)
    assert value == pytest.approx(cost[rows, cols].sum(), abs=1e-8)


def test_steady_state_lp_vs_exhaustive(rng):
    for _ in range(8):
        n, na = int(rng.integers(2, 5)), 2
        mdp = random_mdp(rng, n, na)
        f = rng.uniform(0, 1, n)
        value, d = L.mdp_occupation_lp(mdp, f, "max")
        best = -np.inf
        for dd in deterministic_decisions(n, na):
            s = stationary_distribution(policy_matrix(mdp, dd))
            best = max(best, float(f @ s.entries))
        assert value == pytest.approx(best, abs=1e-7)
        # the extracted decision achieves the LP value
        s = stationary_distribution(policy_matrix(mdp, d))
        assert float(f @ s.entries) == pytest.approx(value, abs=1e-7)


def _absorbed_f_reward(mdp, f):
    # f vanishes on transient states: f @ T^a is the f collected on absorption
    return [f @ T for T in mdp.T]


def test_absorbing_value_lp_vs_exhaustive(rng):
    for _ in range(6):
        nt, nb, na = int(rng.integers(2, 4)), 2, 2
        mdp = random_absorbing_mdp(rng, nt, nb, na)
        f = np.zeros(nt + nb)
        f[nt:] = rng.uniform(0, 1, nb)
        init = np.zeros(nt + nb)
        init[:nt] = rng.dirichlet(np.ones(nt))
        reward = _absorbed_f_reward(mdp, f)
        value, d = L.mdp_occupation_lp(mdp, reward, "max", init)
        best = -np.inf
        for dd in deterministic_decisions(nt + nb, na):
            y, R = absorbing_solve(mdp, dd, init)
            best = max(best, float(f[nt:] @ (R @ y)))
        assert value == pytest.approx(best, abs=1e-7)
        assert policy_iteration_absorbing(mdp, reward, "max", init) == pytest.approx(
            best, abs=1e-9)
        y, R = absorbing_solve(mdp, d, init)
        assert float(f[nt:] @ (R @ y)) == pytest.approx(value, abs=1e-7)


def test_min_absorption_lp_vs_exhaustive(rng):
    for _ in range(6):
        nt, nb, na = int(rng.integers(2, 4)), 1, 2
        mdp = random_absorbing_mdp(rng, nt, nb, na)
        init = np.zeros(nt + nb)
        init[:nt] = rng.dirichlet(np.ones(nt))
        value, d = L.mdp_occupation_lp(mdp, np.ones(nt + nb), "min", init)
        best = np.inf
        for dd in deterministic_decisions(nt + nb, na):
            best = min(best, absorbing_solve(mdp, dd, init)[0].sum())
        assert value == pytest.approx(best, abs=1e-7)
        assert policy_iteration_absorbing(
            mdp, np.ones(nt + nb), "min", init) == pytest.approx(best, abs=1e-9)
        assert absorbing_solve(mdp, d, init)[0].sum() == pytest.approx(value, abs=1e-7)


def test_absorbing_lp_counts_initial_absorbed_mass(rng):
    mdp = random_absorbing_mdp(rng, 2, 2, 2)
    f = np.array([0.0, 0.0, 0.3, 0.9])
    reward = _absorbed_f_reward(mdp, f)
    # all mass already absorbed: the LP earns nothing, f @ init is the value
    init = np.array([0.0, 0.0, 0.0, 1.0])
    value, _ = L.mdp_occupation_lp(mdp, reward, "max", init)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert value + f @ init == pytest.approx(0.9, abs=1e-9)
    # part absorbed: LP value plus the absorbed f is the exhaustive optimum
    init = np.array([0.3, 0.2, 0.4, 0.1])
    value, _ = L.mdp_occupation_lp(mdp, reward, "max", init)
    best = max(float(f[2:] @ (init[2:] + R @ y))
               for y, R in (absorbing_solve(mdp, dd, init)
                            for dd in deterministic_decisions(4, 2)))
    assert value + f @ init == pytest.approx(best, abs=1e-7)


def test_reward_shape_checked():
    mdp = random_mdp(np.random.default_rng(1), 3, 2)
    with pytest.raises(L.ModelError):
        L.mdp_occupation_lp(mdp, np.ones(4), "max")


def _dense_reference_matrix(mdp, keep, steady):
    """The constraint matrix as first built: a dense I - T^a block per action,
    side by side, plus the row of ones in steady state."""
    k = keep.size
    A = np.hstack([np.eye(k) - T[np.ix_(keep, keep)] for T in mdp.T])
    if steady:
        A = np.vstack([A, np.ones((1, A.shape[1]))])
    return sparse.csc_array(A)


def _sparsify(mdp, rng, s_loop):
    """Zero some entries of every column (exact zeros in the LP blocks) and
    make action 0 keep state `s_loop` where it is (a zero diagonal entry)."""
    T = mdp.T.copy()
    for Ta in T:
        for s in range(Ta.shape[1]):
            col = Ta[:, s] * (rng.uniform(size=Ta.shape[0]) < 0.6)
            if col.sum() > 0 and Ta[s, s] < 1:
                Ta[:, s] = col / col.sum()
    T[0, :, s_loop] = 0.0
    T[0, s_loop, s_loop] = 1.0
    return Mdp(T)


@pytest.mark.parametrize("steady", [True, False], ids=["steady", "absorbing"])
def test_constraint_matrix_matches_dense_construction(rng, monkeypatch, steady):
    seen = []
    real_solve = L.solve

    def capture(lp):
        seen.append(lp)
        return real_solve(lp)

    monkeypatch.setattr(L, "solve", capture)
    for _ in range(10):
        na = int(rng.integers(2, 4))
        if steady:
            n = int(rng.integers(2, 7))
            mdp = _sparsify(random_mdp(rng, n, na), rng, int(rng.integers(n)))
            keep, init = np.arange(n), None
        else:
            nt, nb = int(rng.integers(2, 6)), int(rng.integers(1, 3))
            n = nt + nb
            mdp = _sparsify(random_absorbing_mdp(rng, nt, nb, na), rng,
                            int(rng.integers(nt)))
            keep, init = np.arange(nt), np.append(rng.dirichlet(np.ones(nt)), np.zeros(nb))
        # absorbing: "min" of the time spent keeps the self-looping action bounded
        L.mdp_occupation_lp(mdp, np.ones(n), "min" if init is not None else "max", init)
        got, want = seen[-1].A, _dense_reference_matrix(mdp, keep, steady)
        assert got.format == "csc" and got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
