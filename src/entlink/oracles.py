"""Independent brute-force oracles used by the selftest and the test
suite.  Nothing here shares code paths with the implementations it checks:
stationary vectors come from an eigendecomposition, optimal policies from
exhaustive enumeration or Howard's policy iteration, finite-horizon
optima from a literal history-indexed recursion, and the heralded
satellite link from an explicit beamsplitter dilation on truncated Fock
spaces.  `lp_optimal_value_displayed` transcribes the two-link constraint
blocks as displayed, as a check on the generic occupation-LP builder.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.linalg import expm

from . import lp as _lp
from .elemlink import REQUEST, WAIT, ElemLinkModel, build_mdp, g_vector
from .markov import DecisionFunction, Mdp, ModelError, StochasticMatrix, absorbing_states
from .twolink import ACTIONS, TwoLinkModel, build_two_link_mdp, initial_distribution
from .qstate import bell, partial_trace, permute_subsystems


def stationary_eig(P: StochasticMatrix) -> np.ndarray:
    """Stationary vector via full eigendecomposition (unit eigenvalue)."""
    vals, vecs = np.linalg.eig(P.entries)
    k = int(np.argmin(np.abs(vals - 1.0)))
    v = np.real(vecs[:, k])
    v = np.where(np.abs(v) < 1e-14, 0.0, v)
    if v.sum() < 0:
        v = -v
    return v / v.sum()


def exhaustive_markov_policy_value(model: ElemLinkModel, t: int) -> float:
    """Best expected figure of merit at horizon t over every deterministic
    time-indexed Markov policy, by full enumeration."""
    mdp = build_mdp(model)
    T = [mdp.transitions[a].entries for a in mdp.actions]
    n = model.n
    g = g_vector(model).entries
    best = -np.inf
    n_actions = len(T)
    per_step = n_actions ** n
    for assignment in itertools.product(range(per_step), repeat=t - 1):
        dist = g
        for code in assignment:
            P = np.empty((n, n))
            for s in range(n):
                a = (code // n_actions ** s) % n_actions
                P[:, s] = T[a][:, s]
            dist = P @ dist
        val = float(model.f @ dist)
        if val > best:
            best = val
    return best


_HISTORY_T_CAP = 8


def optimal_backward_history(model: ElemLinkModel, t: int):
    """Literal history-indexed backward recursion.  Exponential in t; capped
    so it stays a cross-check rather than a workhorse."""
    if t < 1:
        raise ModelError("optimal_backward_history: t must be >= 1")
    if t > _HISTORY_T_CAP:
        raise ModelError(f"optimal_backward_history: t capped at {_HISTORY_T_CAP}")
    mdp = build_mdp(model)
    T = {a: mdp.transitions[a].entries for a in (WAIT, REQUEST)}
    g = g_vector(model).entries
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


def random_decision(rng, n_states: int, n_actions: int) -> DecisionFunction:
    table = rng.dirichlet(np.ones(n_actions), size=n_states)
    return DecisionFunction(table)


def policy_iteration_absorbing(mdp: Mdp, reward, sense: str, initial) -> float:
    """Best total reward until absorption from `initial`, by Howard's policy
    iteration (Howard 1960): evaluate with (I - Q)^{-1}, then switch each
    state to its greedy action where that is strictly better.  `reward` is
    r(s) or r(a, s) over all states, as for `lp.mdp_occupation_lp`.  The
    start is the uniform decision, which must reach absorption."""
    absorbing = absorbing_states(mdp)
    tra = [i for i in range(mdp.n) if i not in absorbing]
    na = len(mdp.actions)
    sign = 1.0 if sense == "max" else -1.0
    r = sign * np.broadcast_to(np.asarray(reward, dtype=float), (na, mdp.n))[:, tra]
    Q = np.array([mdp.transitions[a].entries[np.ix_(tra, tra)] for a in mdp.actions])
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


def lp_optimal_value_displayed(model: TwoLinkModel):
    """Same optimum built from the constraint blocks as displayed for this
    model (absorption fed only by the swap action); kept as an independent
    transcription guard against the generic builder."""
    mdp = build_two_link_mdp(model)
    half = model.n1 * model.n2
    tra = list(range(half))
    ab = list(range(half, model.n))
    na = len(ACTIONS)
    nt = nb = half
    Qs, Rs = {}, {}
    for a in ACTIONS:
        T = mdp.transitions[a].entries
        Qs[a] = T[np.ix_(tra, tra)]
        Rs[a] = T[np.ix_(ab, tra)]
    init = initial_distribution(model).entries[tra]

    off_x, off_y, off_w, off_v = 0, nb, nb + nt, nb + nt + na * nb
    nvar = off_v + na * nt
    wsl = lambda k: slice(off_w + k * nb, off_w + (k + 1) * nb)
    vsl = lambda k: slice(off_v + k * nt, off_v + (k + 1) * nt)

    rows, rhs = [], []
    blk = np.zeros((nb, nvar))
    blk[:, off_x:off_x + nb] = -np.eye(nb)
    for k in range(na):
        blk[:, wsl(k)] += np.eye(nb)
    rows.append(blk); rhs.append(np.zeros(nb))
    blk = np.zeros((nt, nvar))
    blk[:, off_y:off_y + nt] = np.eye(nt)
    for k, a in enumerate(ACTIONS):
        blk[:, vsl(k)] -= Qs[a]
    rows.append(blk); rhs.append(init)
    blk = np.zeros((nt, nvar))
    blk[:, off_y:off_y + nt] = -np.eye(nt)
    for k in range(na):
        blk[:, vsl(k)] += np.eye(nt)
    rows.append(blk); rhs.append(np.zeros(nt))
    # only the swap action reaches x=1, per the model definition
    blk = np.zeros((nb, nvar))
    blk[:, off_x:off_x + nb] = -np.eye(nb)
    blk[:, vsl(ACTIONS.index("swap"))] += Rs["swap"]
    rows.append(blk); rhs.append(np.zeros(nb))

    c = np.zeros(nvar)
    c[off_x:off_x + nb] = model.f_flat()[ab]
    lo = np.zeros(nvar)
    hi = np.full(nvar, np.inf)
    hi[off_x:off_x + nb] = 1.0
    hi[off_w:off_w + na * nb] = 1.0
    lp = _lp.LinearProgram(c, "max", np.vstack(rows), np.concatenate(rhs), lo, hi)
    sol = _lp.solve(lp)
    if sol.status != "optimal":
        raise ModelError(f"lp_optimal_value_displayed: LP {sol.status}")
    return sol.objective_value


# ---------------------------------------------------------------------------
# beamsplitter dilation for the satellite link

_FOCK_DIM = 3  # photon numbers 0, 1, 2 per mode


def _annihilation(dim=_FOCK_DIM):
    a = np.zeros((dim, dim))
    for k in range(1, dim):
        a[k - 1, k] = np.sqrt(k)
    return a


def _bs_unitary(eta, dim=_FOCK_DIM):
    """Two-mode beamsplitter with transmittance eta; exact on the photon-
    number-conserving subspace despite the truncation."""
    a = _annihilation(dim)
    G = np.kron(a.T, a) - np.kron(a, a.T)
    theta = np.arccos(np.sqrt(eta))
    return expm(theta * G)


def _arm_channel_outputs(eta, nbar):
    """Action of one arm's loss-plus-thermal-background channel on the four
    single-photon basis operators |i><j| (i, j in {H, V})."""
    d = _FOCK_DIM
    U = _bs_unitary(eta)
    U_full = np.kron(U, U)  # order (A_H, E_H, A_V, E_V)
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
            inp = np.kron(S, env)  # order (A_H, A_V, E_H, E_V)
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
            out += w * np.kron(o1[(pols[i], pols[j])], o2[(pols[k], pols[l])])
    sig = {"H": 1 * d + 0, "V": 0 * d + 1}
    idx = [sig[p1] * dd + sig[p2] for p1 in pols for p2 in pols]
    sigma = out[np.ix_(idx, idx)]  # unnormalized heralded two-qubit block
    p = float(np.trace(sigma).real)
    coeffs = np.array([np.real(b.conj() @ sigma @ b) for b in bells])
    return p, coeffs
