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
state carries no mass.  `solve` hands a `LinearProgram`'s CSC arrays
straight to the HiGHS dual simplex solver that ships with scipy (Huangfu &
Hall 2018, Math. Prog. Comp. 10), with the options
`scipy.optimize.linprog(method="highs")` would pass, so HiGHS does the same
computation and returns the same bits.  It then checks the answer as
linprog did (no NaN, no entry below -10 sqrt(1e-9)) and against a tighter
primal residual bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
# scipy's private binding to its bundled HiGHS.  linprog reaches the same
# calls only after cleaning its inputs, a CSC -> COO -> CSC round trip and
# one options manager per option checked: about three quarters of a small
# LP's solve time.  Taken as an attribute of scipy.optimize: the form
# `from scipy.optimize._highspy import _core` measured ~0.1 s more set-up
# time in the benchmark's worker (-X importtime put it in scipy.special's
# import), for a reason not found.
from scipy.optimize import _highspy

from .markov import DecisionFunction, Mdp, ModelError, NumericalError, absorbing_mask

highs = _highspy._core

FEAS_TOL = 1e-8
# HiGHS's default 1e-7 leaves two-link LP values up to ~1e-7 relative away
# from the exact value of the decision they return
PRIMAL_FEAS_TOL = 1e-10
DUAL_FEAS_TOL = 1e-10
# linprog's result check: no entry of x below -10 sqrt(tol), tol = 1e-9
BOUND_TOL = 10 * np.sqrt(1e-9)

# the options linprog(method="highs") sets, at the two tolerances above
_OPTIONS = highs.HighsOptions()
_OPTIONS.presolve = "on"
_OPTIONS.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
_OPTIONS.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
_OPTIONS.primal_feasibility_tolerance = PRIMAL_FEAS_TOL
_OPTIONS.dual_feasibility_tolerance = DUAL_FEAS_TOL
_OPTIONS.output_flag = False
_OPTIONS.log_to_console = False
_VERDICT = {highs.HighsModelStatus.kInfeasible: "infeasible",
            highs.HighsModelStatus.kModelError: "infeasible",
            highs.HighsModelStatus.kUnbounded: "unbounded"}


@dataclass
class LinearProgram:
    """maximize/minimize c.x subject to A x = b, x >= 0; A, dense or
    scipy.sparse, is stored as a CSC array with sorted row indices and no
    duplicate entries (summed on a copy, so the caller's array is kept).
    Every entry of c, b and A must be finite."""

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
        if not all(np.isfinite(v).all() for v in (self.objective, self.b, self.A.data)):
            raise ModelError("LinearProgram: objective, A and b must be finite")
        if not self.A.has_canonical_format:
            self.A = self.A.copy()
            self.A.sum_duplicates()


def solve(lp: LinearProgram) -> tuple[float, np.ndarray]:
    """Optimal value and an optimal x, or NumericalError naming HiGHS's
    verdict ("infeasible", "unbounded" or "stopped early"), its model status
    and its simplex iteration count; also when the answer has a NaN, an
    entry below -BOUND_TOL or a primal residual above 10 FEAS_TOL."""
    m, n = lp.A.shape
    model = highs.HighsLp()
    model.num_col_, model.num_row_ = n, m
    model.a_matrix_.num_col_, model.a_matrix_.num_row_ = n, m
    model.a_matrix_.format_ = highs.MatrixFormat.kColwise
    model.a_matrix_.start_ = lp.A.indptr
    model.a_matrix_.index_ = lp.A.indices
    model.a_matrix_.value_ = lp.A.data
    model.col_cost_ = (-1.0 if lp.sense == "max" else 1.0) * lp.objective
    model.col_lower_ = np.zeros(n)
    model.col_upper_ = np.full(n, highs.kHighsInf)
    model.row_lower_ = model.row_upper_ = lp.b
    solver = highs._Highs()
    solver.passOptions(_OPTIONS)
    if solver.passModel(model) == highs.HighsStatus.kError:
        status = highs.HighsModelStatus.kModelError
    else:
        solver.run()
        status = solver.getModelStatus()
    info = solver.getInfo()
    detail = f"model status {solver.modelStatusToString(status)!r}, " + (
        f"{info.simplex_iteration_count} simplex iterations" if info.valid
        else "no iteration count")
    if status != highs.HighsModelStatus.kOptimal:
        raise NumericalError(f"solve: HiGHS reports the LP "
                             f"{_VERDICT.get(status, 'stopped early')} ({detail})")
    x = np.array(solver.getSolution().col_value)
    if np.isnan(x).any() or (x < -BOUND_TOL).any():
        raise NumericalError(f"solve: HiGHS reported optimal, but x has a NaN "
                             f"or an entry below {-BOUND_TOL:.3g} ({detail})")
    resid = np.max(np.abs(lp.A @ x - lp.b)) if lp.b.size else 0.0
    if resid > FEAS_TOL * 10:
        raise NumericalError(f"solve: HiGHS reported optimal, but the primal "
                             f"residual is {resid:.3g} ({detail})")
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
    # int32 indices, the width of HiGHS's HighsInt
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
