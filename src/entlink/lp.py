"""Occupation-measure linear programs for MDPs, solved with HiGHS.

`mdp_occupation_lp` builds the one LP every model here needs (Puterman
1994, *Markov Decision Processes*, ch. 6-8), over one renewal cycle, from
the actions' matrices side by side as a `Csc`.  Its variables z_a(s) >= 0,
one per state-action pair, are the expected number of visits to state s
choosing a before the cycle ends: sum_a (I - K^a) z_a = `initial`, where
K^a is T^a with the mass that ends the cycle removed.  The objective is
the total reward over the cycle.  Its one user is `oracles.two_link_lp`,
the two-link LP (a swap attempt ends the cycle) that checks `twolink`'s
Howard steps: no production path solves an LP.

The optimal decision is d(s)(a) = z_a(s) / sum_a z_a(s), uniform over the
actions where a state carries no mass.  `solve` hands a
`LinearProgram`'s CSC arrays straight to the HiGHS dual simplex solver
that ships with scipy (Huangfu & Hall 2018, Math. Prog. Comp. 10), with
the options `scipy.optimize.linprog(method="highs")` would pass, so HiGHS
does the same computation, presolve and dual simplex from no basis, and
returns the same bits.  The binding is loaded, and one HiGHS object made
with those options, on the first `solve`: only the oracles and `--selftest`
solve LPs, so no other command maps HiGHS.  That object serves every solve
in the process: `passModel` clears the last model, its solution and its
info, as in a new object.  It is not for two threads at once.  `solve`
then checks the answer as linprog did (no NaN, no entry below
-10 sqrt(1e-9)) and against a tighter primal residual bound.

scipy's compiled kernels are loaded from their files by `load_scipy_module`,
since the `__init__` of a scipy package imports most of scipy: two thirds
of a cold `import entlink.cli`.  So sparse matrices here are `Csc` records
of plain arrays.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from .markov import DecisionFunction, ModelError, NumericalError


def load_scipy_module(name):
    """scipy's compiled module `scipy.<name>`, loaded from its file with no
    scipy package's `__init__` run.  It enters sys.modules under its dotted
    name before it is executed, so a later import of it, also through its
    packages, gets this same object.  ImportError names a missing one."""
    full = f"scipy.{name}"
    if full in sys.modules:
        return sys.modules[full]
    scipy = importlib.util.find_spec("scipy")  # finds scipy, does not import it
    base = scipy and os.path.join(scipy.submodule_search_locations[0], *name.split("."))
    path = next((base + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES
                 if base and os.path.isfile(base + suffix)), None)
    if path is None:
        raise ImportError(f"load_scipy_module: scipy has no compiled module {full}",
                          name=full)
    spec = importlib.util.spec_from_file_location(full, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    return module


FEAS_TOL = 1e-8
# HiGHS's default 1e-7 leaves two-link LP values up to ~1e-7 relative away
# from the exact value of the decision they return
PRIMAL_FEAS_TOL = 1e-10
DUAL_FEAS_TOL = 1e-10
# linprog's result check: no entry of x below -10 sqrt(tol), tol = 1e-9
BOUND_TOL = 10 * np.sqrt(1e-9)


# a new _Highs() with passOptions costs ~88 us (2-core host), a quarter of
# a small steady-state LP's solve, and the selftest solves 100 of those
@functools.cache
def _solver():
    """scipy's private HiGHS binding, the one HiGHS object of the process,
    with the options linprog(method="highs") sets at the two tolerances
    above, and the verdict of each failing model status, all made on the
    first solve.  linprog reaches the same calls only after a CSC -> COO ->
    CSC round trip and one options manager per option checked: about three
    quarters of a small LP's solve time."""
    highs = load_scipy_module("optimize._highspy._core")
    options = highs.HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.primal_feasibility_tolerance = PRIMAL_FEAS_TOL
    options.dual_feasibility_tolerance = DUAL_FEAS_TOL
    options.output_flag = False
    options.log_to_console = False
    solver = highs._Highs()
    solver.passOptions(options)
    verdict = {highs.HighsModelStatus.kInfeasible: "infeasible",
               highs.HighsModelStatus.kModelError: "infeasible",
               highs.HighsModelStatus.kUnbounded: "unbounded"}
    return highs, solver, verdict


@dataclass(frozen=True, eq=False)
class Csc:
    """A sparse matrix in compressed sparse column form, as HiGHS takes
    it: column j holds data[indptr[j]:indptr[j + 1]] at the
    rows indices[indptr[j]:indptr[j + 1]], sorted and distinct, with int32
    indices (HiGHS's HighsInt).  Made by `csc_from_entries`."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    def __ne__(self, other):
        """Which stored entries differ from the scalar `other`, so that
        `(A != 0).sum()` counts the nonzeros as for a scipy.sparse array."""
        return self.data != other


def csc_from_entries(rows, cols, vals, shape) -> Csc:
    """The Csc of vals at (rows, cols), zeros dropped, built from the stably
    sorted entries.  Duplicates are summed by one `np.bincount`, left to
    right in input order, as scipy's `sum_duplicates` sums them: the same
    bits."""
    nonzero = np.asarray(vals) != 0
    rows, cols, vals = (np.asarray(x)[nonzero] for x in (rows, cols, vals))
    order = np.lexsort((rows, cols))
    rows, cols, vals = rows[order], cols[order], vals[order]
    first = (np.diff(rows, prepend=-1) != 0) | (np.diff(cols, prepend=-1) != 0)
    at = np.cumsum(first) - 1  # the entry each one is summed into
    data = np.bincount(at, weights=vals).astype(float)  # int64 when there are none
    indptr = np.append(0, np.cumsum(np.bincount(cols[first], minlength=shape[1])))
    return Csc(data, rows[first].astype(np.int32), indptr.astype(np.int32), tuple(shape))


@dataclass
class LinearProgram:
    """maximize/minimize c.x subject to A x = b, x >= 0, with A a Csc.
    Every entry of c, b and A must be finite."""

    objective: np.ndarray
    sense: str  # "max" | "min"
    A: Csc
    b: np.ndarray

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        if not isinstance(self.A, Csc):
            raise ModelError("LinearProgram: A must be an lp.Csc")
        self.b = np.asarray(self.b, dtype=float)
        if self.A.shape != (self.b.size, self.objective.size):
            raise ModelError("LinearProgram: constraint matrix shape mismatch")
        if self.sense not in ("max", "min"):
            raise ModelError("LinearProgram: sense must be 'max' or 'min'")
        if not all(np.isfinite(v).all() for v in (self.objective, self.b, self.A.data)):
            raise ModelError("LinearProgram: objective, A and b must be finite")


def solve(lp: LinearProgram) -> tuple[float, np.ndarray]:
    """Optimal value and an optimal x, or NumericalError naming HiGHS's
    verdict ("infeasible", "unbounded" or "stopped early"), its model status
    and its simplex iteration count; also when the answer has a NaN, an
    entry below -BOUND_TOL or a primal residual above 10 FEAS_TOL."""
    m, n = lp.A.shape
    highs, solver, verdict = _solver()
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
                             f"{verdict.get(status, 'stopped early')} ({detail})")
    x = np.array(solver.getSolution().col_value)
    if np.isnan(x).any() or (x < -BOUND_TOL).any():
        raise NumericalError(f"solve: HiGHS reported optimal, but x has a NaN "
                             f"or an entry below {-BOUND_TOL:.3g} ({detail})")
    A = lp.A
    Ax = np.bincount(A.indices, A.data * np.repeat(x, np.diff(A.indptr)), minlength=m)
    resid = np.max(np.abs(Ax - lp.b)) if m else 0.0
    if resid > FEAS_TOL * 10:
        raise NumericalError(f"solve: HiGHS reported optimal, but the primal "
                             f"residual is {resid:.3g} ({detail})")
    x = np.maximum(x, 0.0)
    return float(lp.objective @ x), x


def mdp_occupation_lp(K: Csc, reward, sense: str, initial) -> tuple[float, DecisionFunction]:
    """Best total reward over one cycle from `initial`, and a decision that
    attains it.

    K = [K^0 | K^1 | ...], a Csc, holds one (n, n) block per action side by
    side: K^a's column s falls short of 1 by the chance that the cycle ends
    when a is taken at s.  `reward` is r(s) or r(a, s), and `initial` an
    array over the n states.  The models here give feasible, bounded LPs
    (two links once p1, p2, q > 0), so `solve` raises NumericalError for
    any other status."""
    if not isinstance(K, Csc):
        raise ModelError("mdp_occupation_lp: K must be an lp.Csc")
    n = K.shape[0]
    na = K.shape[1] // max(n, 1)
    if n == 0 or K.shape[1] != na * n:
        raise ModelError("mdp_occupation_lp: K must be (n, actions * n)")
    reward = np.asarray(reward, dtype=float)
    if reward.shape not in ((n,), (na, n)):
        raise ModelError("mdp_occupation_lp: reward must have shape (n,) or "
                         "(actions, n)")
    rhs = np.asarray(initial, dtype=float)
    if rhs.shape != (n,):
        raise ModelError("mdp_occupation_lp: initial size mismatch")
    j = np.arange(na * n)  # stacked column j = a*n + s of I - K is (I - K^a)[:, s]
    c = np.repeat(j, np.diff(K.indptr))
    on = K.indices == c % n
    diag = np.ones(j.size)
    diag[c[on]] -= K.data[on]
    A = csc_from_entries(np.append(K.indices[~on], j % n), np.append(c[~on], j),
                         np.append(-K.data[~on], diag), (n, j.size))
    lp = LinearProgram(np.broadcast_to(reward, (na, n)).ravel(), sense, A, rhs)
    value, x = solve(lp)
    z = x.reshape(na, n)
    mass = z.sum(axis=0)  # uniform over the actions where a state has no mass
    table = np.where(mass > 0, z / np.where(mass > 0, mass, 1.0), 1 / na)
    return value, DecisionFunction(table.T)
