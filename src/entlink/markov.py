"""Finite-state probability vectors, MDPs and policies.

Inputs are checked once, by `ProbVector`, `Mdp` and `DecisionFunction`;
what is derived from them (P^d, an evolved distribution) is a plain array.

Conventions: matrices act on probability column vectors from the left,
entry (s', s) is the transition probability s -> s'.  Columns sum to one.
No model here has an absorbing state: the two-link model is a renewal
process whose cycles end at a swap attempt (`twolink`), solved sparse
there, so this module needs numpy only.
"""

from __future__ import annotations

import numpy as np

PROB_TOL = 1e-12
MASS_RTOL = 1e-8  # the mass that ends a renewal cycle may miss 1 by this share


class ModelError(ValueError):
    """Raised on malformed probabilistic inputs (bad sums, shape mismatch)."""


def is_count(value, low: int) -> bool:
    """Whether value is an integer (Python or numpy; a bool is not) >= low."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= low


def is_probability(value) -> bool:
    """Whether value is a real number (Python or numpy; a bool is not) in
    [0, 1]; NaN is not."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and 0 <= value <= 1)


class NumericalError(ModelError):
    """Raised when a well-posed model defeats the numerics: an
    ill-conditioned solve or a solver that stops early."""


def _check_simplex(a, axis, what):
    """Entries in [0, 1] (NaN fails) and sums along `axis` within
    PROB_TOL * max(1, length) of 1."""
    if not ((a >= -PROB_TOL) & (a <= 1 + PROB_TOL)).all():
        raise ModelError(f"{what}: entries outside [0, 1]")
    bad = abs(a.sum(axis=axis) - 1.0) > PROB_TOL * max(1, a.shape[axis])
    if bad.any():
        raise ModelError(f"{what}: sums along axis {axis} differ from 1")


class ProbVector:
    """Probability distribution over the states 0..n-1 of a finite chain.

    Inputs violating the simplex constraints (beyond 1e-12) are rejected
    rather than renormalized, so modeling bugs surface early.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = np.array(entries, dtype=float)
        if entries.ndim != 1:
            raise ModelError("ProbVector: expected a 1-d array")
        _check_simplex(entries, 0, "ProbVector")
        self.entries = entries
        self.entries.setflags(write=False)

    def __len__(self):
        return self.entries.size

    def __repr__(self):
        return f"ProbVector({np.array2string(self.entries, precision=6)})"


class Mdp:
    """One column-stochastic matrix T[a] per action, held as one read-only
    array of shape (actions, n, n); the actions and the states are
    positions in it.  A writable T is copied, so the caller's array stays
    writable; a read-only float array is held as it is."""

    __slots__ = ("T",)

    def __init__(self, T):
        T = np.asarray(T, dtype=float)
        if T.flags.writeable:
            T = T.copy()
        if T.ndim != 3 or T.shape[1] != T.shape[2]:
            raise ModelError("Mdp: expected an (actions, n, n) array")
        _check_simplex(T, 1, "Mdp")
        self.T = T
        self.T.setflags(write=False)

    @property
    def n(self):
        return self.T.shape[1]


class DecisionFunction:
    """Randomized stationary decision rule: table[s, a] = d(s)(a)."""

    __slots__ = ("table",)

    def __init__(self, table):
        table = np.array(table, dtype=float)
        if table.ndim != 2:
            raise ModelError("DecisionFunction: expected a 2-d table")
        _check_simplex(table, 1, "DecisionFunction")
        self.table = table
        self.table.setflags(write=False)

    @classmethod
    def deterministic(cls, action_indices, n_actions):
        t = np.zeros((len(action_indices), n_actions))
        t[np.arange(len(action_indices)), action_indices] = 1.0
        return cls(t)


class Policy:
    """Stationary or time-indexed policy; build it with one of the two
    constructor classmethods."""

    def __init__(self, kind, payload):
        self.kind = kind
        self._payload = payload

    @classmethod
    def stationary(cls, d: DecisionFunction):
        if not isinstance(d, DecisionFunction):
            raise ModelError("Policy.stationary: the decision must be a DecisionFunction")
        return cls("stationary", d)

    @classmethod
    def time_indexed(cls, ds):
        ds = list(ds)
        if not ds:
            raise ModelError("Policy.time_indexed: empty decision list")
        if not all(isinstance(d, DecisionFunction) for d in ds):
            raise ModelError("Policy.time_indexed: every decision must be a DecisionFunction")
        return cls("time_indexed", ds)

    def decision_at(self, t) -> DecisionFunction:
        """Decision function applied between time t and t+1 (t >= 1)."""
        if not is_count(t, 1):
            raise ModelError("Policy.decision_at: t must be an integer >= 1")
        if self.kind == "stationary":
            return self._payload
        ds = self._payload
        if t - 1 >= len(ds):
            raise ModelError(f"Policy horizon too short for step {t}")
        return ds[t - 1]


def policy_matrix(mdp: Mdp, d: DecisionFunction) -> np.ndarray:
    """P^d = sum_a T^a D_a, with D_a = diag of the per-state action probs."""
    if d.table.shape != (mdp.n, len(mdp.T)):
        raise ModelError(
            f"decision table shape {d.table.shape} does not match "
            f"({mdp.n}, {len(mdp.T)})"
        )
    P = np.zeros((mdp.n, mdp.n))
    for T, da in zip(mdp.T, d.table.T):
        P += T * da  # broadcasts over columns
    return P


def evolve(mdp: Mdp, policy: Policy, initial: ProbVector, t: int) -> np.ndarray:
    """Distribution at time t as an array, starting from `initial` at time
    1; P^d is built once per (read-only) decision object."""
    if not is_count(t, 1):
        raise ModelError("evolve: t must be an integer >= 1")
    if len(initial) != mdp.n:
        raise ModelError("evolve: initial vector size mismatch")
    v = initial.entries.copy()  # the caller's to change, at t = 1 as at any t
    mats = {}
    for step in range(1, t):
        d = policy.decision_at(step)
        if id(d) not in mats:
            mats[id(d)] = policy_matrix(mdp, d)
        v = mats[id(d)] @ v
    return v
