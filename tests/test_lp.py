import itertools
import subprocess
import sys

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

from entlink import oracles as L
from entlink import twolink as TL
from entlink.markov import Csc, csc_from_entries
from entlink.oracles import (mdp_occupation_lp, stationary_distribution, steady_state_lp,
                             two_link_lp)

from conftest import (csc, deterministic_decisions, policy_chain, random_absorbing_mdp,
                      random_mdp)


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


def _random_lps(rng, count=60):
    """`count` random (A, b, c), feasible by construction; some unbounded."""
    for _ in range(count):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, n))
        A = rng.normal(size=(m, n))
        b = A @ rng.uniform(0, 1, n)
        yield A, b, rng.normal(size=n)


def test_random_lps_match_vertex_enumeration(rng):
    outcomes = set()
    for trial, (A, b, c) in enumerate(_random_lps(rng)):
        m, n = A.shape
        prob = L.LinearProgram(c, "min", csc(A), b)
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


def scipy_csc(C):
    """A `markov.Csc` as the scipy.sparse array of the same arrays."""
    return sparse.csc_array((C.data, C.indices, C.indptr), shape=C.shape)


def _linprog_solve(lp):
    """What `solve` returned when it went through scipy.optimize.linprog."""
    sign = -1.0 if lp.sense == "max" else 1.0
    res = linprog(sign * lp.objective, A_eq=scipy_csc(lp.A), b_eq=lp.b, method="highs",
                  options={"primal_feasibility_tolerance": L.PRIMAL_FEAS_TOL,
                           "dual_feasibility_tolerance": L.DUAL_FEAS_TOL})
    if res.status != 0:
        return res.status
    x = np.maximum(res.x, 0.0)
    return float(lp.objective @ x), x


def _decay_table(m_star):
    f = np.zeros((2, m_star + 2, m_star + 2))
    age = np.add.outer(np.arange(m_star + 1), np.arange(m_star + 1))
    f[1, 1:, 1:] = np.exp(-age / 12.0)
    return f


def _two_link_lps(monkeypatch):
    """The two-link LPs that `two_link_lp` solves."""
    seen = []
    real_solve = L.solve

    def capture(lp):
        seen.append(lp)
        return real_solve(lp)

    monkeypatch.setattr(L, "solve", capture)
    for m_star in (2, 4, 6):
        model = TL.TwoLinkModel(0.5, 0.6, 0.7, m_star, m_star, _decay_table(m_star))
        two_link_lp(model, "min")
        two_link_lp(model, "max")
    monkeypatch.undo()
    return seen


def test_solve_matches_linprog_bitwise(rng, monkeypatch):
    # pins "same HiGHS computation": `solve` hands HiGHS what linprog did,
    # with linprog's options, so x and the value agree to the bit.  This is
    # not an oracle; vertex enumeration, the assignment LP and policy
    # iteration stay the independent checks.
    lps = [L.LinearProgram(c, "min", csc(A), b) for A, b, c in _random_lps(rng)]
    two_link = _two_link_lps(monkeypatch)
    assert len(two_link) == 6
    for i, lp in enumerate(lps + two_link):
        want = _linprog_solve(lp)
        if isinstance(want, int):
            assert want == 3, i
            with pytest.raises(L.NumericalError, match="unbounded"):
                L.solve(lp)
            continue
        value, x = L.solve(lp)
        assert x.tobytes() == want[1].tobytes(), i
        assert value == want[0], i


@pytest.mark.parametrize("where", ["c", "b", "A"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_input_rejected(where, bad):
    # HiGHS would return nan for a NaN cost and print to stdout for an
    # infinite right-hand side
    c, A, b = np.array([1.0, 2.0]), np.array([[1.0, 1.0]]), np.array([1.0])
    {"c": c, "b": b, "A": A}[where].flat[0] = bad
    with pytest.raises(L.ModelError, match="finite"):
        L.LinearProgram(c, "min", csc(A), b)


def test_csc_from_entries_sums_duplicates_as_scipy_does(rng):
    # up to 5 entries at one position, as the two-link policy kernel gives:
    # summed left to right in input order, the bits of scipy's
    # sum_duplicates on the stably sorted entries
    for _ in range(30):
        shape = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        k = int(rng.integers(0, 30))
        rows, cols = rng.integers(0, shape[0], k), rng.integers(0, shape[1], k)
        vals = rng.normal(size=k) * (rng.uniform(size=k) < 0.8)  # some exact zeros
        got = csc_from_entries(rows, cols, vals, shape)
        keep = vals != 0
        order = np.lexsort((rows[keep], cols[keep]))
        indptr = np.append(0, np.cumsum(np.bincount(cols[keep], minlength=shape[1])))
        want = sparse.csc_array((vals[keep][order], rows[keep][order].astype(np.int32),
                                 indptr.astype(np.int32)), shape=shape)
        want.sum_duplicates()
        assert isinstance(got, Csc) and got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert np.count_nonzero(got.data) == int((want != 0).sum())


def test_duplicate_entry_lp_solves():
    # a column with a repeated row index made HiGHS abort the interpreter
    # ("double free or corruption"), so the solve of repeated entries runs
    # in its own process
    code = ("from entlink import oracles as L\n"
            "from entlink.markov import csc_from_entries\n"
            "A = csc_from_entries([0, 0, 0], [0, 0, 1], [0.5, 0.5, 1.0], (1, 2))\n"
            "v, x = L.solve(L.LinearProgram([1.0, 2.0], 'min', A, [1.0]))\n"
            "print(v, x.tolist())")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "1.0 [1.0, 0.0]\n"


def test_failed_solve_names_status_and_writes_nothing(capfd, monkeypatch):
    # stopped early: HiGHS's run of this p = 1e-4 LP fails after presolve,
    # with no solve info
    seen, real_solve = [], L.solve
    monkeypatch.setattr(L, "solve", lambda lp: seen.append(lp) or real_solve(lp))
    model = TL.TwoLinkModel(1e-4, 1e-4, 0.5, 2, 2, TL.uniform_f_table(2, 2))
    with pytest.raises(L.NumericalError, match="stopped early .model status 'Not Set'"):
        two_link_lp(model, "min")
    monkeypatch.undo()
    assert len(seen) == 1
    # optimal, but the primal residual check fails
    model = TL.TwoLinkModel(1e-5, 1e-5, 0.5, 2, 2, TL.uniform_f_table(2, 2))
    with pytest.raises(L.NumericalError,
                       match=r"residual .* .model status 'Optimal', \d+ simplex iterations"):
        two_link_lp(model, "min")
    assert capfd.readouterr() == ("", "")


def _outcome(lp):
    try:
        value, x = L.solve(lp)
    except L.NumericalError as exc:
        return str(exc)
    return value, x.tobytes()


def test_reused_solver_matches_a_fresh_one_after_failures(monkeypatch):
    # `solve` keeps one HiGHS object for the process: an infeasible, an
    # unbounded or a stopped-early LP before a feasible one must leave
    # neither the feasible LP's bits nor a later message's iteration count
    # different from what a new object gives
    infeasible = L.LinearProgram([1.0, 1.0], "min", csc([[1.0, 1.0]]), [-1.0])
    unbounded = L.LinearProgram([-1.0, 0.0], "min", csc([[0.0, 1.0]]), [1.0])
    feasible = _two_link_lps(monkeypatch)[:2]
    seen, real_solve = [], L.solve
    monkeypatch.setattr(L, "solve", lambda lp: seen.append(lp) or real_solve(lp))
    with pytest.raises(L.NumericalError, match="stopped early"):
        two_link_lp(TL.TwoLinkModel(1e-4, 1e-4, 0.5, 2, 2, TL.uniform_f_table(2, 2)), "min")
    monkeypatch.undo()
    stopped = seen[0]
    sequence = [infeasible, feasible[0], unbounded, feasible[1], stopped, feasible[0],
                infeasible, stopped, feasible[1]]
    shared = [_outcome(lp) for lp in sequence]
    assert L._solver() is L._solver()
    # the uncached helper loads nothing new but makes a new object, with new
    # options, on every call
    monkeypatch.setattr(L, "_solver", L._solver.__wrapped__)
    assert shared == [_outcome(lp) for lp in sequence]
    assert [type(o) for o in shared] == [str, tuple, str, tuple, str, tuple, str, str, tuple]
    assert "stopped early" in shared[4] and "unbounded" in shared[2]


def test_solver_is_made_on_the_first_solve():
    # an import-time HiGHS binding or object would add to the memory of
    # every process, also those that solve no LP
    code = ("from entlink import cli, oracles as L\n"
            "from entlink.markov import csc_from_entries\n"
            "print(L._solver.cache_info().currsize)\n"
            "A = csc_from_entries([0], [0], [1.0], (1, 1))\n"
            "L.solve(L.LinearProgram([1.0], 'min', A, [1.0]))\n"
            "print(L._solver.cache_info().currsize)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "0\n1\n"


def test_infeasible_detected():
    # x1 + x2 = -1 with x >= 0
    prob = L.LinearProgram([1.0, 1.0], "min", csc([[1.0, 1.0]]), [-1.0])
    with pytest.raises(L.NumericalError, match="infeasible"):
        L.solve(prob)


def test_unbounded_detected():
    prob = L.LinearProgram([-1.0, 0.0], "min", csc([[0.0, 1.0]]), [1.0])
    with pytest.raises(L.NumericalError, match="unbounded"):
        L.solve(prob)


def test_max_sense():
    # x1 + x2 = 1 with x >= 0 already bounds both variables by 1
    prob = L.LinearProgram([1.0, 2.0], "max", csc([[1.0, 1.0]]), [1.0])
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
    value, _ = L.solve(L.LinearProgram(c, "min", csc(A), b))
    cost = c.reshape(n, n)
    rows, cols = linear_sum_assignment(cost)
    assert value == pytest.approx(cost[rows, cols].sum(), abs=1e-8)


def test_steady_state_lp_vs_exhaustive(rng):
    for _ in range(8):
        n, na = int(rng.integers(2, 5)), 2
        T = random_mdp(rng, n, na)
        f = rng.uniform(0, 1, n)
        best = -np.inf
        for dd in deterministic_decisions(n, na):
            s = stationary_distribution(policy_chain(T, dd))
            best = max(best, float(f @ s))
        assert steady_state_lp(T, f) == pytest.approx(best, abs=1e-7)


def _absorbed_f_reward(T, f):
    # f vanishes on transient states: f @ T^a is the f collected on absorption
    return f @ T


def _visits(K, d, init):
    """Expected visits (I - K^d)^{-1} init, K the transient blocks (dense)."""
    Kd = np.einsum("ats,sa->ts", K, d.table)
    return np.linalg.solve(np.eye(len(init)) - Kd, init)


def _transient(T, nt):
    """The renewal form of an absorbing MDP T whose first nt states are
    transient: the blocks K^a = T^a on them, with absorption ending the
    cycle, as an (actions, nt, nt) array."""
    return T[:, :nt, :nt]


def test_absorbing_value_lp_vs_exhaustive(rng):
    for _ in range(6):
        nt, nb, na = int(rng.integers(2, 4)), 2, 2
        T = random_absorbing_mdp(rng, nt, nb, na)
        f = np.zeros(nt + nb)
        f[nt:] = rng.uniform(0, 1, nb)
        init = np.zeros(nt + nb)
        init[:nt] = rng.dirichlet(np.ones(nt))
        reward = _absorbed_f_reward(T, f)
        K = _transient(T, nt)
        value, d = L.mdp_occupation_lp(csc(np.hstack(K)), reward[:, :nt], "max", init[:nt])
        best = -np.inf
        for dd in deterministic_decisions(nt, na):
            y = _visits(K, dd, init[:nt])
            best = max(best, float((reward[:, :nt].T * dd.table).sum(axis=1) @ y))
        assert value == pytest.approx(best, abs=1e-7)
        y = _visits(K, d, init[:nt])
        assert float((reward[:, :nt].T * d.table).sum(axis=1) @ y) == pytest.approx(
            value, abs=1e-7)


def test_min_absorption_lp_vs_exhaustive(rng):
    for _ in range(6):
        nt, nb, na = int(rng.integers(2, 4)), 1, 2
        T = random_absorbing_mdp(rng, nt, nb, na)
        init = rng.dirichlet(np.ones(nt))
        K = _transient(T, nt)
        value, d = L.mdp_occupation_lp(csc(np.hstack(K)), np.ones(nt), "min", init)
        best = min(_visits(K, dd, init).sum() for dd in deterministic_decisions(nt, na))
        assert value == pytest.approx(best, abs=1e-7)
        assert _visits(K, d, init).sum() == pytest.approx(value, abs=1e-7)


def test_absorbing_lp_counts_initial_absorbed_mass(rng):
    T = random_absorbing_mdp(rng, 2, 2, 2)
    f = np.array([0.0, 0.0, 0.3, 0.9])
    reward = _absorbed_f_reward(T, f)[:, :2]
    K = _transient(T, 2)
    # all mass already absorbed: the cycle starts with no mass and earns
    # nothing, and a state with no mass is uniform over all actions
    value, d = L.mdp_occupation_lp(csc(np.hstack(K)), reward, "max", np.zeros(2))
    assert value == pytest.approx(0.0, abs=1e-12)
    assert np.array_equal(d.table, np.full((2, 2), 0.5))
    # part absorbed: the LP value over the transient mass plus the absorbed f
    # is the exhaustive optimum
    init = np.array([0.3, 0.2, 0.4, 0.1])
    value, _ = L.mdp_occupation_lp(csc(np.hstack(K)), reward, "max", init[:2])
    best = max(float(f[2:] @ init[2:] + (reward.T * dd.table).sum(axis=1)
                     @ _visits(K, dd, init[:2])) for dd in deterministic_decisions(2, 2))
    assert value + f[2:] @ init[2:] == pytest.approx(best, abs=1e-7)


@pytest.mark.parametrize("make", [
    lambda: L.LinearProgram([1.0, 2.0], "min", sparse.csc_array([[1.0, 1.0]]), [1.0]),
    lambda: mdp_occupation_lp(sparse.csc_array(np.eye(2)), np.ones(2), "max", np.ones(2)),
    lambda: L.LinearProgram([1.0, 2.0], "min", np.array([[1.0, 1.0]]), [1.0]),
    lambda: mdp_occupation_lp(np.eye(2), np.ones(2), "max", np.ones(2)),
], ids=["LinearProgram-scipy-sparse", "mdp_occupation_lp-scipy-sparse",
        "LinearProgram-dense", "mdp_occupation_lp-dense"])
def test_malformed_input_raises_model_error(make):
    # a matrix is a markov.Csc, nothing else: scipy.sparse and dense arrays
    # were converted
    with pytest.raises(L.ModelError, match="markov.Csc"):
        make()


def test_reward_shape_checked():
    T = random_mdp(np.random.default_rng(1), 3, 2)
    with pytest.raises(L.ModelError, match="reward must have shape"):
        L.mdp_occupation_lp(csc(np.hstack(T)), np.ones(4), "max", np.ones(3))


def test_rounded_self_loop_absorbs_in_the_oracle_and_the_renewal_lp():
    # a self-loop summed as 0.7 + 0.2 + 0.1 is 1 - 1.1e-16, not 1.0; the
    # renewal LP takes the transient block alone, so the rounded loop of the
    # absorbing state never enters it: half the mass ends each step
    loop = 0.7 + 0.2 + 0.1
    assert loop != 1.0
    T = np.array([[0.5, 0.0], [0.5, loop]])
    value, _ = mdp_occupation_lp(csc(T[:1, :1]), np.ones(1), "min", [1.0])
    assert value == pytest.approx(2.0, abs=1e-9)


def _dense_reference_matrix(K):
    """The constraint matrix built densely: an I - K^a block per action,
    side by side."""
    return sparse.csc_array(np.hstack([np.eye(K.shape[1]) - Ka for Ka in K]))


def _sparsify(T, rng, s_loop):
    """Zero some entries of every column (exact zeros in the LP blocks) and
    make action 0 keep state `s_loop` where it is (a zero diagonal entry)."""
    T = T.copy()
    for Ta in T:
        for s in range(Ta.shape[1]):
            col = Ta[:, s] * (rng.uniform(size=Ta.shape[0]) < 0.6)
            if col.sum() > 0 and Ta[s, s] < 1:
                Ta[:, s] = col / col.sum()
    T[0, :, s_loop] = 0.0
    T[0, s_loop, s_loop] = 1.0
    return T


def test_constraint_matrix_matches_dense_construction(rng, monkeypatch):
    seen = []
    real_solve = L.solve

    def capture(lp):
        seen.append(lp)
        return real_solve(lp)

    monkeypatch.setattr(L, "solve", capture)
    for _ in range(10):
        na = int(rng.integers(2, 4))
        nt, nb = int(rng.integers(2, 6)), int(rng.integers(1, 3))
        T = _sparsify(random_absorbing_mdp(rng, nt, nb, na), rng, int(rng.integers(nt)))
        # "min" of the time spent keeps the self-looping action bounded; the
        # blocks are the transient ones, as in the renewal form
        K = _transient(T, nt)
        L.mdp_occupation_lp(csc(np.hstack(K)), np.ones(nt), "min", rng.dirichlet(np.ones(nt)))
        got, want = seen[-1].A, _dense_reference_matrix(K)
        assert isinstance(got, Csc) and got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
