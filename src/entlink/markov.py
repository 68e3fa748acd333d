"""Decision rules, policies, and the predicates that check model inputs.

A chain is a plain array built from a checked model (`elemlink`,
`twolink`), so the inputs a caller supplies are checked here: a
`DecisionFunction` table, a `Policy`, a count (`is_count`), a real
number (`is_real`) or a probability (`is_probability`).  What is derived
from them (P^d, an evolved distribution) is a plain array, checked no
further.

Conventions: matrices act on probability column vectors from the left,
entry (s', s) is the transition probability s -> s'.  Columns sum to one.
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


def is_real(value) -> bool:
    """Whether value is a real number: a Python or numpy int or float, not a
    bool.  NaN and the infinities are real numbers here."""
    if type(value) is float:  # the common case, on the hot path of satlink.memory_f
        return True
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def is_probability(value) -> bool:
    """Whether value is a real number (`is_real`) in [0, 1]; NaN is not."""
    return is_real(value) and 0 <= value <= 1


class NumericalError(ModelError):
    """Raised when a well-posed model defeats the numerics: an
    ill-conditioned solve or a solver that stops early."""


class DecisionFunction:
    """Randomized stationary decision rule: table[s, a] = d(s)(a).  Entries
    lie in [0, 1] (NaN fails) and each row sums to 1 within PROB_TOL per
    action."""

    __slots__ = ("table",)

    def __init__(self, table):
        table = np.array(table, dtype=float)
        if table.ndim != 2:
            raise ModelError("DecisionFunction: expected a 2-d table")
        if not ((table >= -PROB_TOL) & (table <= 1 + PROB_TOL)).all():
            raise ModelError("DecisionFunction: entries outside [0, 1]")
        if (abs(table.sum(axis=1) - 1.0) > PROB_TOL * max(1, table.shape[1])).any():
            raise ModelError("DecisionFunction: rows do not sum to 1")
        self.table = table
        self.table.setflags(write=False)

    @classmethod
    def deterministic(cls, action_indices, n_actions):
        """The rule that takes action action_indices[s] at state s; each is
        an integer (a bool is not) in [0, n_actions)."""
        actions = np.asarray(action_indices)
        if not (is_count(n_actions, 1) and actions.ndim == 1 and actions.dtype.kind in "iu"
                and ((actions >= 0) & (actions < n_actions)).all()):
            raise ModelError("DecisionFunction.deterministic: actions must be integers "
                             "in [0, n_actions)")
        t = np.zeros((actions.size, n_actions))
        t[np.arange(actions.size), actions] = 1.0
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
