"""Occupation-measure linear programs for MDPs, solved with HiGHS.

`mdp_occupation_lp` builds the one LP every model here needs (Puterman
1994, *Markov Decision Processes*, ch. 6-8).  Its variables z_a(s) >= 0
are the occupation of state s under action a:

- steady state (`initial=None`): the long-run fraction of steps spent in
  s choosing a, with sum_a (I - T^a) z_a = 0 and sum z = 1; the objective
  is the average reward;
- absorbing (`initial` given): the expected number of visits to the
  transient state s choosing a, with sum_a (I - Q^a) z_a = the transient
  part of `initial`; the objective is the total reward until absorption.

The optimal decision is d(s)(a) = z_a(s) / sum_a z_a(s), uniform where a
state carries no mass.  `solve` passes a `LinearProgram` to
`scipy.optimize.linprog(method="highs")` and checks the primal residual of
the answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .markov import DecisionFunction, Mdp, ModelError, NumericalError, absorbing_mask

FEAS_TOL = 1e-8
# HiGHS's default 1e-7 leaves two-link LP values up to ~1e-7 relative away
# from the exact value of the decision they return
PRIMAL_FEAS_TOL = 1e-10
DUAL_FEAS_TOL = 1e-10


@dataclass
class LinearProgram:
    """maximize/minimize c.x subject to A x = b, x >= 0; A, dense or
    scipy.sparse, is stored as a CSC array."""

    objective: np.ndarray
    sense: str  # "max" | "min"
    A: sparse.csc_array
    b: np.ndarray

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.A = sparse.csc_array(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.A.shape != (self.b.size, self.objective.size):
            raise ModelError("LinearProgram: constraint matrix shape mismatch")
        if self.sense not in ("max", "min"):
            raise ModelError("LinearProgram: sense must be 'max' or 'min'")


def solve(lp: LinearProgram) -> tuple[float, np.ndarray]:
    """Optimal value and an optimal x, or NumericalError naming HiGHS's
    status: "infeasible", "unbounded", or "stopped early: <message>"; also
    when the answer fails the primal residual check."""
    sign = -1.0 if lp.sense == "max" else 1.0
    # linprog's default bounds are x >= 0
    res = linprog(sign * lp.objective, A_eq=lp.A, b_eq=lp.b, method="highs",
                  options={"primal_feasibility_tolerance": PRIMAL_FEAS_TOL,
                           "dual_feasibility_tolerance": DUAL_FEAS_TOL})
    if res.status != 0:
        status = {2: "infeasible", 3: "unbounded"}.get(
            res.status, f"stopped early: {res.message}")
        raise NumericalError(f"solve: HiGHS reports the LP {status}")
    x = res.x
    resid = np.max(np.abs(lp.A @ x - lp.b)) if lp.b.size else 0.0
    if resid > FEAS_TOL * 10:
        raise NumericalError(f"solve: HiGHS reported optimal, but the primal "
                             f"residual is {resid:.3g}")
    x = np.maximum(x, 0.0)
    return float(lp.objective @ x), x


def mdp_occupation_lp(mdp: Mdp, reward, sense: str, initial=None
                      ) -> tuple[float, DecisionFunction]:
    """Best stationary average reward (`initial=None`), or best total reward
    until absorption from `initial`, and a decision that attains it.

    `reward` is r(s), or r(a, s) with one row per action, and `initial` an
    array, both over all states.  In the absorbing case only transient
    states are read, and mass that `initial` puts on absorbing states earns
    nothing.  The models here give feasible, bounded LPs (two links once
    p1, p2, q > 0), so `solve` raises NumericalError for any other status.
    """
    na, n = mdp.T.shape[:2]
    reward = np.asarray(reward, dtype=float)
    if reward.shape not in ((n,), (na, n)):
        raise ModelError("mdp_occupation_lp: reward must have shape (n,) or "
                         "(actions, n)")
    if initial is None:
        keep = np.arange(n)
        rhs = np.zeros(n)
    else:
        absorbing = absorbing_mask(mdp)
        if not absorbing.any():
            raise ModelError("mdp_occupation_lp: no absorbing states")
        keep = np.flatnonzero(~absorbing)
        init = np.asarray(initial, dtype=float)
        if init.size != n:
            raise ModelError("mdp_occupation_lp: initial size mismatch")
        rhs = init[keep]
    k = keep.size
    # column a*k + s of A is (I - T^a)[keep, s]; exact zeros are not stored
    blocks = -mdp.T[:, keep[:, None], keep]
    blocks[:, np.arange(k), np.arange(k)] += 1.0
    act, row, col = np.nonzero(blocks)
    data, col = blocks[act, row, col], act * k + col
    if initial is None:
        row = np.append(row, np.full(na * k, k))
        col = np.append(col, np.arange(na * k))
        data = np.append(data, np.ones(na * k))
        rhs = np.append(rhs, 1.0)
    # int32 indices, as scipy's CSR and COO conversions would hand to HiGHS
    A = sparse.csc_array((data, (row.astype(np.int32), col.astype(np.int32))),
                         shape=(rhs.size, na * k))
    c = np.broadcast_to(reward, (na, n))[:, keep].reshape(-1)
    value, x = solve(LinearProgram(c, sense, A, rhs))
    z = x.reshape(na, k)
    mass = z.sum(axis=0)
    table = np.full((n, na), 1.0 / na)
    hit = mass > 0
    table[keep[hit]] = (z[:, hit] / mass[hit]).T
    return value, DecisionFunction(table)
