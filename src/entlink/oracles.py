"""Independent brute-force oracles used by the selftest and the test
suite.  Nothing here shares code paths with the implementations it checks:
stationary vectors come from a least-squares solve on the one closed class
of the chain's graph and, checking that, an eigendecomposition;
Bell-diagonal states from the Bell projectors; Pauli error rates from
traces against the state; optimal policies from
exhaustive enumeration, Howard's policy iteration on an explicit dense
absorbing chain, or, for the two-link optimum that production finds by
Howard's steps, the renewal LP by HiGHS's dual simplex from no basis (so
not Howard's method); the single-link steady-state optimum from the
occupation LP (not the best cutoff),
finite-horizon optima from a literal history-indexed recursion, and the
heralded satellite link from an explicit beamsplitter dilation on
truncated Fock spaces.

The dilation's unitary comes from numpy's `eigh`, not `scipy.linalg.expm`:
dense linear algebra uses numpy's OpenBLAS pool only (see `qstate`), since
after a 9x9 `expm` an 81x81 numpy matmul took 4.0 ms, not 0.08 ms (2 cores;
scipy's HiGHS was measured and causes no such stall).
"""

from __future__ import annotations

import itertools

import numpy as np

from . import lp
from .elemlink import REQUEST, WAIT, ElemLinkModel, build_mdp, g_vector
from .markov import DecisionFunction, ModelError, NumericalError
from .qstate import (DensityOperator, QuantumError, bell, bell_basis, partial_trace,
                     permute_subsystems, tensor, weyl_x, weyl_z)
from .twolink import (SWAP, TwoLinkModel, evaluate_policy, initial_distribution,
                      optimum_setup)

LP_RTOL = 1e-9  # an LP's value may differ from its decision's value by this share


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """The probability vector v with P v = v.  The graph of P > 0 decides
    uniqueness: v is unique when the chain has exactly one closed class,
    that is when some states C are reached from every state, and C is that
    class.  v is 0 off C and, on C, comes from one least-squares solve of
    [P_C - I; 1^T] v_C = e; periodic chains need nothing else.  Raises
    ModelError when there is more than one closed class or v fails the
    residual or sign check."""
    n = len(P)
    reach = (P.T > 0) | np.eye(n, dtype=bool)  # reach[s, t]: s leads to t
    for _ in range(max(n - 1, 1).bit_length()):
        reach = reach @ reach
    C = reach.all(axis=0)
    if not C.any():
        raise ModelError("stationary_distribution: not unique, the chain has "
                         "more than one closed class")
    k = int(C.sum())
    M = np.vstack([P[np.ix_(C, C)] - np.eye(k), np.ones((1, k))])
    rhs = np.zeros(k + 1)
    rhs[-1] = 1.0
    sol = np.zeros(n)
    sol[C] = np.linalg.lstsq(M, rhs, rcond=None)[0]
    resid = np.max(np.abs(P @ sol - sol))
    if resid > 1e-10 or np.any(sol < -1e-9):
        raise ModelError(f"stationary_distribution: chain appears non-ergodic (resid {resid:g})")
    sol = np.clip(sol, 0.0, None)
    return sol / sol.sum()


def stationary_eig(P: np.ndarray) -> np.ndarray:
    """Stationary vector via full eigendecomposition (unit eigenvalue)."""
    vals, vecs = np.linalg.eig(P)
    k = int(np.argmin(np.abs(vals - 1.0)))
    v = np.real(vecs[:, k])
    v = np.where(np.abs(v) < 1e-14, 0.0, v)
    if v.sum() < 0:
        v = -v
    return v / v.sum()


def bell_diagonal_density(coeffs) -> DensityOperator:
    """The state of `BellDiagCoeffs` coeffs, as sum_i c_i |B_i><B_i|."""
    mat = sum(c * np.outer(b, b.conj()) for c, b in zip(coeffs.as_array(), bell_basis(2)))
    return DensityOperator(mat, (2, 2))


def qbers_from_state(rho: DensityOperator):
    """Pauli-correlation error rates of a two-qubit state."""
    if rho.dim != 4:
        raise QuantumError("qbers_from_state: expected a two-qubit state")
    X = weyl_x(2)
    Z = weyl_z(2).real.astype(complex)
    Y = 1j * X @ Z
    qx = 0.5 * (1 - np.trace(tensor(X, X) @ rho.mat).real)
    qy = 0.5 * (1 + np.trace(tensor(Y, Y) @ rho.mat).real)
    qz = 0.5 * (1 - np.trace(tensor(Z, Z) @ rho.mat).real)
    return qx, qy, qz


_FLOAT_CAP = 1 << 24  # floats in the exhaustive oracle's largest array (128 MB)


def exhaustive_markov_policy_value(model: ElemLinkModel, t: int) -> float:
    """Best expected figure of merit at horizon t over every deterministic
    time-indexed Markov policy, by full enumeration: the k = n_actions**n
    step matrices, built once as a (k, n, n) array, take every policy
    prefix's distribution one step on in one stacked matmul.  Those matrices
    and the last step's k**(t - 1) distributions hold at most _FLOAT_CAP
    floats each."""
    T = build_mdp(model)
    n, na = model.n, len(T)
    bits = n * np.log2(na)  # log2 k, exact for two actions: no big int is formed
    if t < 1 or max(bits + np.log2(n * n), (t - 1) * bits + np.log2(n)) > np.log2(_FLOAT_CAP):
        raise ModelError(f"exhaustive_markov_policy_value: t must be >= 1, and the step "
                         f"matrices and the policy prefixes at most {_FLOAT_CAP} floats")
    codes = np.arange(na ** n)
    steps = np.stack([T[codes // na ** s % na, :, s] for s in range(n)], axis=2)
    dists = g_vector(model)[None, :, None]
    for _ in range(t - 1):
        dists = (steps[None] @ dists[:, None]).reshape(-1, n, 1)
    return float(np.max(model.f[None, None, :] @ dists))


_HISTORY_T_CAP = 8


def optimal_backward_history(model: ElemLinkModel, t: int):
    """Literal history-indexed backward recursion.  Exponential in t; capped
    so it stays a cross-check rather than a workhorse."""
    if t < 1:
        raise ModelError("optimal_backward_history: t must be >= 1")
    if t > _HISTORY_T_CAP:
        raise ModelError(f"optimal_backward_history: t capped at {_HISTORY_T_CAP}")
    T = build_mdp(model)
    g = g_vector(model)
    states = range(model.n)
    policy_table = {}

    def w(history):
        # history: tuple (m_1, a_1, m_2, a_2, ..., m_j) of state/action indices,
        # carrying the probability of the path implicitly through recursion
        j = (len(history) + 1) // 2
        m_j = history[-1]
        if j == t:
            return model.f[m_j]
        best, best_a = -1.0, WAIT
        for a in (REQUEST, WAIT):  # wait checked last so ties keep wait
            total = 0.0
            for m_next in states:
                pr = T[a][m_next, m_j]
                if pr > 0:
                    total += pr * w(history + (a, m_next))
            if total > best or (a == WAIT and total >= best):
                best, best_a = total, a
        policy_table[history] = best_a
        return best

    value = sum(g[m1] * w((m1,)) for m1 in states if g[m1] > 0)
    return float(value), policy_table


def steady_state_lp(T: np.ndarray, reward) -> float:
    """Best stationary average reward of the MDP T ((actions, n, n), T[a]
    column-stochastic) for reward r(s), by the occupation LP built densely:
    sum_a (I - T^a) z_a = 0, sum z = 1.  The diagonal of I - T^a is its
    off-diagonal column sum, which does not cancel at small p."""
    na, n, _ = T.shape
    off = T * (1 - np.eye(n))
    A = np.vstack([np.hstack([np.diag(o.sum(axis=0)) - o for o in off]), np.ones(na * n)])
    rows, cols = np.nonzero(A)
    A = lp.csc_from_entries(rows, cols, A[rows, cols], A.shape)
    return lp.solve(lp.LinearProgram(np.tile(reward, na), "max", A, np.append(np.zeros(n), 1.0)))[0]


def random_decision(rng, n_states: int, n_actions: int) -> DecisionFunction:
    table = rng.dirichlet(np.ones(n_actions), size=n_states)
    return DecisionFunction(table)


def two_link_absorbing_chain(model: TwoLinkModel):
    """The two-link model as an absorbing MDP, built densely: the n1*n2
    states, then one absorbing state `done`.  Action "ab" is the Kronecker
    product of the links' matrices; "swap" moves q to `done` and restarts
    both links with the rest at a both-active state, and waits on both
    elsewhere.  Returns the (actions, n + 1, n + 1) array T, the reward
    q f(m1, m2) a swap collects, and the start distribution over all
    states."""
    links = [ElemLinkModel(p, m, np.zeros(m + 2))
             for p, m in ((model.p1, model.m1_star), (model.p2, model.m2_star))]
    (T1, g1), (T2, g2) = [(build_mdp(link), g_vector(link)) for link in links]
    done = model.n
    T = np.zeros((SWAP + 1, done + 1, done + 1))
    for k in range(SWAP + 1):
        a1, a2 = divmod(k, 2) if k != SWAP else (WAIT, WAIT)
        T[k, :done, :done] = np.kron(T1[a1], T2[a2])
    T[:, done, done] = 1.0
    both = np.flatnonzero(np.outer(np.arange(model.n1) > 0, np.arange(model.n2) > 0))
    T[SWAP][:done, both] = (1 - model.q) * np.kron(g1, g2)[:, None]
    T[SWAP][done, both] = model.q
    reward = np.zeros((SWAP + 1, done + 1))
    reward[SWAP, :done] = model.q * model.f[1].reshape(-1)
    return T, reward, np.append(np.kron(g1, g2), 0.0)


def policy_iteration_absorbing(T: np.ndarray, reward, sense: str, initial) -> float:
    """Best total reward until absorption from `initial`, by Howard's policy
    iteration (Howard 1960): evaluate with (I - Q)^{-1}, then switch each
    state to its greedy action where that is strictly better.  A state is
    absorbing when no action moves mass off it; `reward` is r(s) or r(a, s)
    over all states.  The start is the uniform decision, which must reach
    absorption."""
    na, n, _ = T.shape
    tra = np.flatnonzero(np.any(T * (1 - np.eye(n)) != 0, axis=(0, 1)))
    sign = 1.0 if sense == "max" else -1.0
    r = sign * np.broadcast_to(np.asarray(reward, dtype=float), (na, n))[:, tra]
    Q = T[:, tra[:, None], tra]
    table = np.full((len(tra), na), 1.0 / na)
    for _ in range(1000):
        Qd = np.einsum("ats,sa->ts", Q, table)
        v = np.linalg.solve(np.eye(len(tra)) - Qd.T, (r.T * table).sum(axis=1))
        q = r + np.einsum("ats,t->as", Q, v)
        best = q.argmax(axis=0)
        better = q[best, np.arange(len(tra))] > v + 1e-12 * max(1.0, np.abs(v).max())
        if not better.any():
            return sign * float(np.asarray(initial, dtype=float)[tra] @ v)
        table[better] = np.eye(na)[best[better]]
    raise ModelError("policy_iteration_absorbing: no convergence")


def two_link_lp(model: TwoLinkModel, sense: str):
    """The two-link optimum of `sense` by the paper's renewal LP, solved by
    HiGHS's dual simplex from no basis, not by Howard's steps: the LP
    decision's `evaluate_policy` value and the decision.  NumericalError
    when the LP's own value is further than LP_RTOL from that value (at
    small p HiGHS can call a wrong optimum optimal)."""
    reward, _ = optimum_setup(model, sense, "two_link_lp")
    value, d = lp.mdp_occupation_lp(model.blocks, reward, sense, initial_distribution(model))
    wait, f = evaluate_policy(model, d)
    value, evaluated = (value / model.q, wait) if sense == "min" else (value, f)
    if not abs(value - evaluated) <= LP_RTOL * abs(evaluated):  # NaN fails too
        raise NumericalError(f"two_link_lp: the LP value {value!r} differs from the value "
                             f"{evaluated!r} of its decision")
    return evaluated, d


# ---------------------------------------------------------------------------
# beamsplitter dilation for the satellite link

_FOCK_DIM = 3  # photon numbers 0, 1, 2 per mode


def _annihilation(dim=_FOCK_DIM):
    a = np.zeros((dim, dim))
    for k in range(1, dim):
        a[k - 1, k] = np.sqrt(k)
    return a


def _bs_unitary(eta, dim=_FOCK_DIM):
    """Two-mode beamsplitter exp(theta G), transmittance eta = cos^2 theta;
    exact on the photon-number-conserving subspace despite the truncation."""
    a = _annihilation(dim)
    G = tensor(a.T, a) - tensor(a, a.T)
    w, V = np.linalg.eigh(1j * G)  # G real antisymmetric: iG Hermitian, U real
    theta = np.arccos(np.sqrt(eta))
    return ((V * np.exp(-1j * theta * w)) @ V.conj().T).real


def _arm_channel_outputs(eta, nbar):
    """Action of one arm's loss-plus-thermal-background channel on the four
    single-photon basis operators |i><j| (i, j in {H, V})."""
    d = _FOCK_DIM
    U = _bs_unitary(eta)
    U_full = tensor(U, U)  # order (A_H, E_H, A_V, E_V)
    env = np.zeros((d * d, d * d))
    env[0, 0] = 1 - nbar               # vacuum in both background modes
    env[1 * d + 0, 1 * d + 0] = nbar / 2  # one background photon, H
    env[0 * d + 1, 0 * d + 1] = nbar / 2  # one background photon, V
    # single-photon signal indices in the (A_H, A_V) Fock space
    sig = {"H": 1 * d + 0, "V": 0 * d + 1}
    outs = {}
    for i in ("H", "V"):
        for j in ("H", "V"):
            S = np.zeros((d * d, d * d))
            S[sig[i], sig[j]] = 1.0
            inp = tensor(S, env)  # order (A_H, A_V, E_H, E_V)
            inp, _ = permute_subsystems(inp, (d, d, d, d), [0, 2, 1, 3])
            out = U_full @ inp @ U_full.conj().T
            outs[(i, j)] = partial_trace(out, (d, d, d, d), keep=[0, 2])
    return outs


def beamsplitter_heralded_link(eta1, eta2, f_S, nbar1, nbar2):
    """Explicit dilation computation of the heralded two-station state.

    Returns (p, unnormalized Bell coefficients) of the post-selected block
    with exactly one photon at each station.
    """
    d = _FOCK_DIM
    pols = ("H", "V")
    # polarization-Bell-diagonal source state, coefficients over HV basis
    qt = (1 - f_S) / 3
    bells = [bell(2, 0, 0), bell(2, 1, 0), bell(2, 0, 1), bell(2, 1, 1)]
    rho_s = sum(c * np.outer(b, b.conj())
                for c, b in zip((f_S, qt, qt, qt), bells))
    o1 = _arm_channel_outputs(eta1, nbar1)
    o2 = _arm_channel_outputs(eta2, nbar2)
    dd = d * d
    out = np.zeros((dd * dd, dd * dd), dtype=complex)
    for i, j, k, l in itertools.product(range(2), repeat=4):
        w = rho_s[i * 2 + k, j * 2 + l]
        if w != 0:
            out += w * tensor(o1[(pols[i], pols[j])], o2[(pols[k], pols[l])])
    sig = {"H": 1 * d + 0, "V": 0 * d + 1}
    idx = [sig[p1] * dd + sig[p2] for p1 in pols for p2 in pols]
    sigma = out[np.ix_(idx, idx)]  # unnormalized heralded two-qubit block
    p = float(np.trace(sigma).real)
    coeffs = np.array([np.real(b.conj() @ sigma @ b) for b in bells])
    return p, coeffs
