"""Finite-state probability vectors, column-stochastic matrices and MDPs.

Conventions: matrices act on probability column vectors from the left,
entry (s', s) is the transition probability s -> s'.  Columns sum to one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

PROB_TOL = 1e-12
STATIONARY_TOL = 1e-12  # power-iteration stop: max |Pv - v|
STATIONARY_MAX_ITER = 10_000  # then fall back to the direct solve
MASS_RTOL = 1e-8  # absorbed mass may differ from initial mass by this share


class ModelError(ValueError):
    """Raised on malformed probabilistic inputs (bad sums, shape mismatch)."""


def _check_prob_entries(a, what):
    if np.any(a < -PROB_TOL) or np.any(a > 1 + PROB_TOL):
        raise ModelError(f"{what}: entries outside [0, 1]")


class ProbVector:
    """Probability distribution over a fixed finite state set.

    Inputs violating the simplex constraints (beyond 1e-12) are rejected
    rather than renormalized, so modeling bugs surface early.
    """

    __slots__ = ("entries", "states")

    def __init__(self, entries, states=None):
        entries = np.asarray(entries, dtype=float)
        if entries.ndim != 1:
            raise ModelError("ProbVector: expected a 1-d array")
        _check_prob_entries(entries, "ProbVector")
        if abs(entries.sum() - 1.0) > PROB_TOL * max(1, entries.size):
            raise ModelError(f"ProbVector: entries sum to {entries.sum()!r}, not 1")
        self.entries = entries
        self.entries.setflags(write=False)
        self.states = tuple(states) if states is not None else tuple(range(entries.size))
        if len(self.states) != entries.size:
            raise ModelError("ProbVector: state labels do not match entry count")

    def __len__(self):
        return self.entries.size

    def __getitem__(self, state):
        return self.entries[self.states.index(state)]

    def __repr__(self):
        return f"ProbVector({np.array2string(self.entries, precision=6)})"


class StochasticMatrix:
    """Column-stochastic transition matrix; entry (s', s) = Pr[s -> s']."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = np.asarray(entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ModelError("StochasticMatrix: expected a square matrix")
        _check_prob_entries(entries, "StochasticMatrix")
        colsums = entries.sum(axis=0)
        bad = np.abs(colsums - 1.0) > PROB_TOL * max(1, entries.shape[0])
        if np.any(bad):
            raise ModelError(
                f"StochasticMatrix: columns {np.nonzero(bad)[0].tolist()} do not sum to 1"
            )
        self.entries = entries
        self.entries.setflags(write=False)

    @property
    def n(self):
        return self.entries.shape[0]


@dataclass(frozen=True)
class Mdp:
    """State set, action set, and one column-stochastic matrix per action."""

    states: tuple
    actions: tuple
    transitions: dict  # action label -> StochasticMatrix

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "actions", tuple(self.actions))
        n = len(self.states)
        if set(self.transitions) != set(self.actions):
            raise ModelError("Mdp: transitions must cover exactly the action set")
        for a, T in self.transitions.items():
            if T.n != n:
                raise ModelError(f"Mdp: transition matrix for action {a!r} has wrong size")

    @property
    def n(self):
        return len(self.states)


class DecisionFunction:
    """Randomized stationary decision rule: table[s, a] = d(s)(a)."""

    __slots__ = ("table",)

    def __init__(self, table):
        table = np.asarray(table, dtype=float)
        if table.ndim != 2:
            raise ModelError("DecisionFunction: expected a 2-d table")
        _check_prob_entries(table, "DecisionFunction")
        rows = table.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > PROB_TOL * max(1, table.shape[1])):
            raise ModelError("DecisionFunction: rows must sum to 1")
        self.table = table
        self.table.setflags(write=False)

    @classmethod
    def deterministic(cls, action_indices, n_actions):
        t = np.zeros((len(action_indices), n_actions))
        t[np.arange(len(action_indices)), action_indices] = 1.0
        return cls(t)

    @classmethod
    def uniform(cls, n_states, n_actions):
        return cls(np.full((n_states, n_actions), 1.0 / n_actions))


class Policy:
    """Stationary or time-indexed policy; build it with one of the two
    constructor classmethods."""

    def __init__(self, kind, payload):
        self.kind = kind
        self._payload = payload

    @classmethod
    def stationary(cls, d: DecisionFunction):
        return cls("stationary", d)

    @classmethod
    def time_indexed(cls, ds):
        ds = list(ds)
        if not ds:
            raise ModelError("Policy.time_indexed: empty decision list")
        return cls("time_indexed", ds)

    def decision_at(self, t) -> DecisionFunction:
        """Decision function applied between time t and t+1 (t >= 1)."""
        if self.kind == "stationary":
            return self._payload
        ds = self._payload
        if t - 1 >= len(ds):
            raise ModelError(f"Policy horizon too short for step {t}")
        return ds[t - 1]


@dataclass(frozen=True)
class AbsorbingDecomposition:
    """Block structure of P^d with transient states listed before absorbing.

    Q: transient -> transient block, R: transient -> absorbing block,
    both with columns indexed by transient states; lu: the LU factors of
    I - Q, shared by every solve on this decomposition.
    """

    Q: np.ndarray
    R: np.ndarray
    transient_idx: tuple
    absorbing_idx: tuple
    lu: tuple


def policy_matrix(mdp: Mdp, d: DecisionFunction) -> StochasticMatrix:
    """P^d = sum_a T^a D_a, with D_a = diag of the per-state action probs."""
    if d.table.shape != (mdp.n, len(mdp.actions)):
        raise ModelError(
            f"decision table shape {d.table.shape} does not match "
            f"({mdp.n}, {len(mdp.actions)})"
        )
    P = np.zeros((mdp.n, mdp.n))
    for j, a in enumerate(mdp.actions):
        P += mdp.transitions[a].entries * d.table[:, j]  # broadcasts over columns
    return StochasticMatrix(P)


def evolve(mdp: Mdp, policy: Policy, initial: ProbVector, t: int) -> ProbVector:
    """Distribution at time t, starting from `initial` at time 1."""
    if t < 1:
        raise ModelError("evolve: t must be >= 1")
    if len(initial) != mdp.n:
        raise ModelError("evolve: initial vector size mismatch")
    v = initial.entries
    for step in range(1, t):
        P = policy_matrix(mdp, policy.decision_at(step))
        v = P.entries @ v
    return ProbVector(v, initial.states)


def stationary_distribution(P: StochasticMatrix) -> ProbVector:
    """Unit-eigenvalue probability vector of P by power iteration.

    Falls back to a direct solve of (P - I)v = 0 with sum(v) = 1 when the
    iteration stalls; raises if neither converges (non-ergodic chain).
    """
    n = P.n
    v = np.full(n, 1.0 / n)
    A = P.entries
    for _ in range(STATIONARY_MAX_ITER):
        w = A @ v
        if np.max(np.abs(w - v)) <= STATIONARY_TOL:
            w = np.clip(w, 0.0, None)
            return ProbVector(w / w.sum())
        v = w
    M = np.vstack([A - np.eye(n), np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    resid = np.max(np.abs(A @ sol - sol))
    if resid > 1e-10 or np.any(sol < -1e-9):
        raise ModelError(f"stationary_distribution: chain appears non-ergodic (resid {resid:g})")
    sol = np.clip(sol, 0.0, None)
    return ProbVector(sol / sol.sum())


def absorbing_states(mdp: Mdp):
    """States s with T^a|s> = |s> for every action a, up to PROB_TOL (a
    self-loop summed as 0.7 + 0.2 + 0.1 is 1 - 1.1e-16)."""
    diag = np.array([np.diag(mdp.transitions[a].entries) for a in mdp.actions])
    return np.flatnonzero(np.all(diag >= 1 - PROB_TOL, axis=0)).tolist()


def decompose_absorbing(mdp: Mdp, d: DecisionFunction) -> AbsorbingDecomposition:
    abs_idx = absorbing_states(mdp)
    tra_idx = [i for i in range(mdp.n) if i not in abs_idx]
    P = policy_matrix(mdp, d).entries
    Q = P[np.ix_(tra_idx, tra_idx)]
    R = P[np.ix_(abs_idx, tra_idx)]
    return AbsorbingDecomposition(
        Q=Q,
        R=R,
        transient_idx=tuple(tra_idx),
        absorbing_idx=tuple(abs_idx),
        lu=lu_factor(np.eye(len(tra_idx)) - Q),
    )


def _expected_visits(dec: AbsorbingDecomposition, initial_transient) -> np.ndarray:
    """Expected visits y = (I - Q)^{-1} |init> to the transient states, or
    ModelError when absorption is unreachable or the solve breaks the mass
    balance 1^T R y = 1^T init.  `init` may sum to less than 1."""
    init = np.asarray(
        initial_transient.entries if isinstance(initial_transient, ProbVector)
        else initial_transient, dtype=float)
    if init.size != dec.Q.shape[0]:
        raise ModelError("absorbing solve: initial vector size mismatch")
    y = lu_solve(dec.lu, init)
    if not np.all(np.isfinite(y)):
        raise ModelError("absorbing solve: absorption unreachable from initial mass")
    mass = init.sum()
    absorbed = dec.R.sum(axis=0) @ y
    if abs(absorbed - mass) > MASS_RTOL * mass:
        raise ModelError(
            f"absorbing solve: ill-conditioned, absorbed mass {absorbed:.12g} "
            f"differs from initial mass {mass:.12g}")
    if np.any(y < -1e-9 * np.abs(y).max(initial=0.0)):
        raise ModelError("absorbing solve: absorption unreachable from initial mass")
    return y


def absorption_time(dec: AbsorbingDecomposition, initial_transient) -> float:
    """Expected steps to absorption: <gamma| (I - Q)^{-1} |init>; with some
    initial mass already absorbed, the contribution of the transient mass."""
    return float(_expected_visits(dec, initial_transient).sum())


def absorption_distribution(dec: AbsorbingDecomposition, initial_transient) -> np.ndarray:
    """Distribution over absorbing states at absorption: R (I - Q)^{-1} |init>."""
    return dec.R @ _expected_visits(dec, initial_transient)
