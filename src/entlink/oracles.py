"""Independent brute-force oracles used by the selftest and the test
suite.  Nothing here shares code paths with the implementations it checks:
stationary vectors come from a least-squares solve on the one closed class
of the chain's graph and, checking that, an eigendecomposition;
Bell-diagonal states from the Bell projectors; Pauli error rates from
traces against the state; optimal policies from exhaustive enumeration or
from occupation-measure LPs (Puterman 1994, *Markov Decision Processes*,
ch. 6-8) by HiGHS's dual simplex from no basis: the single-link
steady-state optimum (not the best cutoff) and the two-link optima that
production finds by Howard's steps (not Howard's method); finite-horizon
optima from a literal history-indexed recursion, and the heralded
satellite link from an explicit beamsplitter dilation on truncated Fock
spaces.

`mdp_occupation_lp` builds the LP over one renewal cycle from the blocks
K^a side by side as a `Csc`, K^a being T^a with the mass that ends the
cycle removed.  Its variables z_a(s) >= 0 are the expected visits to s
choosing a before the cycle ends, sum_a (I - K^a) z_a = `initial`, and
its objective is the total reward over the cycle.  The decision is
d(s)(a) = z_a(s) / sum_a z_a(s), uniform over the actions where s carries
no mass.  `solve` hands a `LinearProgram`'s CSC arrays straight to the
HiGHS binding that ships with scipy (Huangfu & Hall 2018, Math. Prog.
Comp. 10), with the options `scipy.optimize.linprog(method="highs")`
would pass: the same computation, presolve and dual simplex from no basis,
and the same bits.  The binding is loaded, and one HiGHS object made, on
the first `solve`, so only the oracles and `--selftest` map HiGHS.  That
object serves every solve in the process (`passModel` clears the last
model, its solution and its info, as in a new object), and not two threads
at once.  `solve` checks the answer as linprog did (no NaN, no entry
below -10 sqrt(1e-9)) and against a tighter primal residual bound.
scipy's compiled kernels are loaded from their files by
`load_scipy_module`, since the `__init__` of a scipy package imports most
of scipy: two thirds of a cold `import entlink.cli`.

The dilation's unitary comes from numpy's `eigh`, not `scipy.linalg.expm`:
dense linear algebra uses numpy's OpenBLAS pool only (see `qstate`), since
after a 9x9 `expm` an 81x81 numpy matmul took 4.0 ms, not 0.08 ms (2 cores;
scipy's HiGHS was measured and causes no such stall).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import os
import sys
from dataclasses import dataclass

import numpy as np

from .elemlink import REQUEST, WAIT, ElemLinkModel, build_mdp, g_vector
from .markov import Csc, DecisionFunction, ModelError, NumericalError, csc_from_entries
from .qstate import (DensityOperator, QuantumError, bell, bell_basis, partial_trace,
                     permute_subsystems, tensor, weyl_x, weyl_z)
from .twolink import (ACTIONS, SWAP, TwoLinkModel, evaluate_policy, initial_distribution,
                      optimum_setup)

LP_RTOL = 1e-9  # an LP's value may differ from its decision's value by this share


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
            raise ModelError("LinearProgram: A must be a markov.Csc")
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
        raise ModelError("mdp_occupation_lp: K must be a markov.Csc")
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
    A = csc_from_entries(rows, cols, A[rows, cols], A.shape)
    return solve(LinearProgram(np.tile(reward, na), "max", A, np.append(np.zeros(n), 1.0)))[0]


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


def two_link_lp(model: TwoLinkModel, sense: str):
    """The two-link optimum of `sense` by the paper's renewal LP, solved by
    HiGHS's dual simplex from no basis, not by Howard's steps: the LP
    decision's `evaluate_policy` value and the decision.  NumericalError
    when the LP's own value is further than LP_RTOL from that value (at
    small p HiGHS can call a wrong optimum optimal)."""
    reward, _ = optimum_setup(model, sense, "two_link_lp")
    K = csc_from_entries(*model.blocks, (model.n, len(ACTIONS) * model.n))
    value, d = mdp_occupation_lp(K, reward, sense, initial_distribution(model))
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
