"""Two neighboring links plus entanglement swapping, in renewal form.

The states (m1, m2), at positions idx(m1, m2), hold the age m_j of link j
(-1 when inactive).  Actions "00", "01", "10", "11" regenerate the
requested links (first digit = link 1).  "swap" attempts the joining
measurement at a both-active state and is "00" anywhere else.  An attempt
succeeds with probability q, and a failure regenerates both links from
g = g1 (x) g2, the start distribution.  So the process is a run of i.i.d.
cycles, each from g to the first swap attempt (Brand, Coopmans & Elkouss
2020, IEEE JSAC 38(3)), and no state is absorbing.

Under a decision d, S_s is the chance that d attempts the swap at s and K^d
is P^d with that attempt mass removed.  The expected visits of one cycle,
z = (I - K^d)^{-1} g, satisfy S.z = 1; the expected wait is 1^T z / q
(Wald's identity) and the expected fidelity of the end-to-end link is
sum_s S_s f(s) z_s.  The LPs are sum_a (I - K^a) z_a = g, z >= 0, with swap
variables at the both-active states only, so q enters no solve.  Each K^a
is a sparse Kronecker product of the two links' own matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse.linalg import splu

from .markov import MASS_RTOL, DecisionFunction, ModelError, NumericalError, ProbVector
from . import lp as _lp
from .elemlink import WAIT, ElemLinkModel, aged_states, build_mdp, g_vector
from .qstate import (DensityOperator, KrausChannel, QuantumError, bell,
                     bell_overlap_table, swap_fidelity)

ACTIONS = ("00", "01", "10", "11", "swap")  # the names of the action positions
SWAP = 4
TARGET_TOL = 1e-10  # |Phi> up to a phase: unit norm and |<Phi|target>| = 1
LP_RTOL = 1e-9  # an LP's value may differ from its decision's value by this share


@dataclass(frozen=True)
class TwoLinkModel:
    p1: float
    p2: float
    q: float
    m1_star: int
    m2_star: int
    # shape (2, m1_star+2, m2_star+2), indices (x, m1+1, m2+1); only x = 1,
    # the fidelity of the end-to-end link swapped from (m1, m2), is read
    f: np.ndarray

    def __post_init__(self):
        for val, name in ((self.p1, "p1"), (self.p2, "p2"), (self.q, "q")):
            if not 0 <= val <= 1:
                raise ModelError(f"TwoLinkModel: {name} out of [0, 1]")
        if self.m1_star < 0 or self.m2_star < 0:
            raise ModelError("TwoLinkModel: storage bounds must be >= 0")
        f = np.array(self.f, dtype=float)
        if f.shape != (2, self.m1_star + 2, self.m2_star + 2):
            raise ModelError("TwoLinkModel: f table shape mismatch")
        if not np.all((f >= 0) & (f <= 1)):  # NaN fails too
            raise ModelError("TwoLinkModel: f values must lie in [0, 1]")
        if np.any(f[0] != 0):
            raise ModelError("TwoLinkModel: f[0] must vanish")
        if np.any(f[1, 0, :] != 0) or np.any(f[1, :, 0] != 0):
            raise ModelError("TwoLinkModel: f must vanish when a link is inactive")
        object.__setattr__(self, "f", f)
        self.f.setflags(write=False)

    @property
    def n1(self):
        return self.m1_star + 2

    @property
    def n2(self):
        return self.m2_star + 2

    @property
    def n(self):
        return self.n1 * self.n2

    def idx(self, m1, m2):
        return (m1 + 1) * self.n2 + (m2 + 1)

    @cached_property
    def blocks(self):
        """[K^00 | K^01 | K^10 | K^11 | K^swap], the five actions' blocks side
        by side as one read-only (n, 5n) CSC array, built on first use."""
        return _stacked_blocks(self)


def uniform_f_table(m1_star, m2_star):
    """f[1] = 1 wherever both links are active; handy for waiting-time-only
    studies."""
    if not min(m1_star, m2_star) >= 0:
        raise ModelError("uniform_f_table: storage bounds must be >= 0")
    f = np.zeros((2, m1_star + 2, m2_star + 2))
    f[1, 1:, 1:] = 1.0
    return f


def _links(model: TwoLinkModel):
    """The two elementary links; f = 0 because only their dynamics are used."""
    return [ElemLinkModel(p, m_star, np.zeros(m_star + 2))
            for p, m_star in ((model.p1, model.m1_star), (model.p2, model.m2_star))]


def _both_active(model: TwoLinkModel) -> np.ndarray:
    """True at the states where both links are active, in index order."""
    return np.outer(np.arange(model.n1) > 0, np.arange(model.n2) > 0).ravel()


def _stacked_blocks(model: TwoLinkModel):
    """Action "ab", at position 2a + b, applies a to link 1 and b to link 2
    (WAIT = 0, REQUEST = 1): over the nonzeros v1 at (r1, c1) and v2 at
    (r2, c2) of the links' matrices, K^ab has v1 v2 at (r1 n2 + r2,
    c1 n2 + c2), and no n x n block is formed.  K^swap is K^00 with the
    both-active columns empty, since an attempt ends the cycle."""
    T1, T2 = [build_mdp(link).T for link in _links(model)]
    n, both = model.n, _both_active(model)
    rows, cols, vals = [], [], []
    for k in range(len(ACTIONS)):
        a1, a2 = divmod(k, 2) if k != SWAP else (WAIT, WAIT)
        (r1, c1), (r2, c2) = np.nonzero(T1[a1]), np.nonzero(T2[a2])
        c = np.add.outer(c1 * model.n2, c2).ravel()
        keep = ~both[c] if k == SWAP else slice(None)
        rows.append(np.add.outer(r1 * model.n2, r2).ravel()[keep])
        cols.append(k * n + c[keep])
        vals.append(np.multiply.outer(T1[a1][r1, c1], T2[a2][r2, c2]).ravel()[keep])
    K = _lp.csc_from_entries(*map(np.concatenate, (rows, cols, vals)), (n, len(ACTIONS) * n))
    for a in (K.data, K.indices, K.indptr):
        a.setflags(write=False)
    return K


def initial_distribution(model: TwoLinkModel) -> ProbVector:
    """g = g1 (x) g2: both links freshly requested at t = 1, which is also
    where a failed swap attempt restarts them."""
    g1, g2 = [g_vector(link).entries for link in _links(model)]
    return ProbVector(np.kron(g1, g2))


def policy_kernel(model: TwoLinkModel, d: DecisionFunction):
    """K^d = sum_a K^a D_a as entries (rows, cols, vals), those of the K^a
    scaled by d, in action order (swap last) and not summed, and S, the
    chance that d attempts the swap at each state."""
    if d.table.shape != (model.n, len(ACTIONS)):
        raise ModelError(f"policy_kernel: decision table shape {d.table.shape} does "
                         f"not match ({model.n}, {len(ACTIONS)})")
    B = model.blocks
    cols = np.repeat(np.arange(B.shape[1]), np.diff(B.indptr))
    return ((B.indices, cols % model.n, B.data * d.table.T.ravel()[cols]),
            d.table[:, SWAP] * _both_active(model))


def two_link_f_from_physics(sigma1_0: DensityOperator, mem1: KrausChannel,
                            sigma2_0: DensityOperator, mem2: KrausChannel,
                            target, m1_star: int, m2_star: int) -> np.ndarray:
    """f(1, m1, m2) = fidelity to the target of the link swapped from link j
    aged m_j steps: the closed form `swap_fidelity`, in one batched call over
    the two links' Bell-overlap tables of every age.  The target must be
    |Phi> = bell(d) up to a phase."""
    d = int(round(math.sqrt(sigma1_0.dim)))
    phi, target = bell(d), np.asarray(target, dtype=complex)
    if (target.shape != phi.shape or abs(np.linalg.norm(target) - 1) > TARGET_TOL
            or abs(abs(np.vdot(phi, target)) - 1) > TARGET_TOL):
        raise QuantumError("two_link_f_from_physics: target must be bell(d) "
                           "up to a global phase")
    T1, T2 = [bell_overlap_table(np.array(aged_states(sigma, mem, m_star)), d)
              for sigma, mem, m_star in ((sigma1_0, mem1, m1_star),
                                         (sigma2_0, mem2, m2_star))]
    f = np.zeros((2, m1_star + 2, m2_star + 2))
    f[1, 1:, 1:] = np.clip(swap_fidelity([T1[:, None], T2[None]]), 0.0, 1.0)
    return f


def cutoff_decision(model: TwoLinkModel, t1_star: int, t2_star: int) -> DecisionFunction:
    """Swap as soon as both links are active and each is at most its cutoff
    t_j* old; otherwise link j requests when it is inactive or at least t_j*
    old and waits otherwise, action "ab" = 2a + b.  The cutoffs are integers
    within the storage bounds."""
    for t, bound in ((t1_star, model.m1_star), (t2_star, model.m2_star)):
        if not isinstance(t, (int, np.integer)) or not 0 <= t <= bound:
            raise ModelError("cutoff_decision: cutoffs must be integers that "
                             "respect the storage bounds")
    m1, m2 = np.arange(-1, model.m1_star + 1)[:, None], np.arange(-1, model.m2_star + 1)
    swap = (m1 >= 0) & (m1 <= t1_star) & (m2 >= 0) & (m2 <= t2_star)
    ab = 2 * ((m1 < 0) | (m1 >= t1_star)) + ((m2 < 0) | (m2 >= t2_star))
    return DecisionFunction.deterministic(np.where(swap, SWAP, ab).ravel(), len(ACTIONS))


def _visits(A, g):
    """A^{-1} g, or None when A is exactly singular or the solve is not a
    finite, nonnegative vector of visits: some mass never ends its cycle."""
    try:
        z = splu(A).solve(g)
    except RuntimeError:  # exactly singular
        return None
    return z if np.all(np.isfinite(z)) and np.all(z >= -1e-9 * np.abs(z).max()) else None


def evaluate_policy(model: TwoLinkModel, d: DecisionFunction):
    """Expected waiting time and expected f of the end-to-end link under d:
    the ratios 1^T z / (q S.z) and sum_s S_s f(s) z_s / S.z, whose division
    by S.z (= 1 exactly) cancels the solve's scale error at small p.  Raises
    ModelError when some start mass never ends its cycle, NumericalError
    when S.z misses 1 by more than MASS_RTOL."""
    if model.q <= 0:
        raise ModelError("evaluate_policy: the end-to-end link is unreachable (q = 0)")
    (rows, cols, vals), S = policy_kernel(model, d)
    n = model.n
    # the diagonal of I - K^d as the off-diagonal column sum plus S, not as
    # 1 - K_ss, which cancels near 1 (Grassmann, Taksar & Heyman 1985)
    off = rows != cols
    diag = np.bincount(cols[off], weights=vals[off], minlength=n) + S
    A = _lp.csc_from_entries(np.append(rows[off], range(n)), np.append(cols[off], range(n)),
                             np.append(-vals[off], diag), (n, n))
    g = initial_distribution(model).entries
    z = _visits(A, g)
    if z is None:  # a trap g never reaches is harmless: retry on the states it reaches
        live = front = g > 0
        pos = vals > 0
        while front.any():
            front = np.bincount(rows[pos][front[cols[pos]]], minlength=n).astype(bool) & ~live
            live = live | front
        sub = _visits(A[live][:, live], g[live])
        if sub is not None:
            z = np.zeros(n)
            z[live] = sub
    if z is None:
        raise ModelError("evaluate_policy: the end-to-end link is unreachable from the start")
    exits = S * z  # summed alike below, so that f <= 1 gives E[f] <= 1
    mass = exits.sum()
    if abs(mass - 1) > MASS_RTOL:
        raise NumericalError(f"evaluate_policy: ill-conditioned, the cycle's exit mass "
                             f"{mass:.12g} differs from 1")
    return (float(z.sum() / (model.q * mass)),
            float((model.f[1].reshape(-1) * exits).sum() / mass))


def _renewal_lp(model: TwoLinkModel, reward, sense, what):
    """The renewal LP's decision and its `evaluate_policy` value (the wait
    for "min", f for "max"), or NumericalError when the LP's own value is
    further than LP_RTOL from that: at small p HiGHS can call a wrong
    optimum optimal."""
    if model.q <= 0 or model.p1 <= 0 or model.p2 <= 0:
        raise ModelError(f"{what}: needs q, p1, p2 > 0")
    allowed = np.ones((len(ACTIONS), model.n), bool)
    allowed[SWAP] = _both_active(model)
    value, d = _lp.mdp_occupation_lp(model.blocks, reward, sense,
                                     initial_distribution(model).entries, allowed)
    wait, f = evaluate_policy(model, d)
    value, evaluated = (value / model.q, wait) if sense == "min" else (value, f)
    if not abs(value - evaluated) <= LP_RTOL * abs(evaluated):  # NaN fails too
        raise NumericalError(f"{what}: the LP value {value!r} differs from the value "
                             f"{evaluated!r} of its decision")
    return evaluated, d


def lp_optimal_value(model: TwoLinkModel):
    """Best stationary expected f of the end-to-end link, the most
    sum_s f(s) z_swap(s), and a decision that attains it."""
    reward = np.zeros((len(ACTIONS), model.n))
    reward[SWAP] = model.f[1].reshape(-1)
    return _renewal_lp(model, reward, "max", "lp_optimal_value")


def lp_optimal_waiting_time(model: TwoLinkModel):
    """Minimum expected steps to form the end-to-end link over stationary
    policies, from the fresh-request start (the least 1^T z, over q), and a
    decision that attains it."""
    return _renewal_lp(model, np.ones(model.n), "min", "lp_optimal_waiting_time")


def analytic_symmetric_waiting_time(p: float, q: float, t_star: int) -> float:
    """Known closed form for equal links under the joint cutoff rule, with
    u = 1 - (1 - p)^t* computed without cancellation:
    (1 + 2u(1 - p)) / (q p (p + 2u(1 - p)))."""
    if not (0 < p <= 1 and 0 < q <= 1):
        raise ModelError("analytic_symmetric_waiting_time: p, q must lie in (0, 1]")
    if not isinstance(t_star, (int, np.integer)) or t_star < 0:
        raise ModelError("analytic_symmetric_waiting_time: t_star must be an integer >= 0")
    u = float(t_star > 0) if p == 1 else -math.expm1(t_star * math.log1p(-p))
    v = 2 * u * (1 - p)
    return (1 + v) / (q * p * (p + v))
