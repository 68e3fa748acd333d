"""Two neighboring links plus entanglement swapping as one MDP.

The transient states (m1, m2), at positions idx(m1, m2), hold the age m_j
of link j (-1 when inactive).  Actions "00", "01", "10", "11" regenerate
the requested links (first digit = link 1), "swap" attempts the joining
measurement with success probability q.  Success moves the mass to the one
absorbing state, at position `done` = n1*n2 after every transient state;
the fidelity it collects, f(m1, m2), is a reward of the swap action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .markov import (
    DecisionFunction,
    Mdp,
    ModelError,
    ProbVector,
    absorbing_solve,
)
from . import lp as _lp
from .elemlink import WAIT, ElemLinkModel, aged_states, build_mdp, g_vector
from .qstate import (DensityOperator, KrausChannel, QuantumError, bell,
                     bell_overlap_table, swap_fidelity)

ACTIONS = ("00", "01", "10", "11", "swap")  # the names of the action positions
SWAP = 4
TARGET_TOL = 1e-10  # |Phi> up to a phase: unit norm and |<Phi|target>| = 1


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
    def done(self):
        return self.n1 * self.n2

    @property
    def n(self):
        return self.done + 1

    def idx(self, m1, m2):
        return (m1 + 1) * self.n2 + (m2 + 1)


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


def build_two_link_mdp(model: TwoLinkModel) -> Mdp:
    """Kronecker products of the links' matrices on the transient states:
    action "ab", at position 2a + b, applies a to link 1 and b to link 2
    (WAIT = 0, REQUEST = 1); "swap" waits on both unless both are active,
    then succeeds with probability q (to `done`) or regenerates both.  Every
    action leaves `done` in place."""
    done = model.done
    (T1, g1), (T2, g2) = [(build_mdp(link).T, g_vector(link).entries)
                          for link in _links(model)]
    T = np.zeros((len(ACTIONS), model.n, model.n))
    for k in range(len(ACTIONS)):
        a1, a2 = divmod(k, 2) if k != SWAP else (WAIT, WAIT)
        T[k, :done, :done] = np.kron(T1[a1], T2[a2])
    T[:, done, done] = 1.0
    both = np.flatnonzero(np.outer(np.arange(model.n1) > 0, np.arange(model.n2) > 0))
    T[SWAP][:done, both] = (1 - model.q) * np.kron(g1, g2)[:, None]
    T[SWAP][done, both] = model.q
    T.setflags(write=False)  # so that Mdp holds it without a copy
    return Mdp(T)


def initial_distribution(model: TwoLinkModel) -> ProbVector:
    """Both links freshly requested at t=1, end-to-end link not yet formed."""
    g1, g2 = [g_vector(link).entries for link in _links(model)]
    v = np.zeros(model.n)
    v[:model.done] = np.kron(g1, g2)
    return ProbVector(v)


def two_link_f_from_physics(sigma1_0: DensityOperator, mem1: KrausChannel,
                            sigma2_0: DensityOperator, mem2: KrausChannel,
                            target, m1_star: int, m2_star: int) -> np.ndarray:
    """f(1, m1, m2) = fidelity to the target of the link swapped from link j
    aged m_j steps: the closed form `swap_fidelity` over the two links'
    Bell-overlap tables.  The target must be |Phi> = bell(d) up to a phase."""
    d = int(round(math.sqrt(sigma1_0.dim)))
    phi, target = bell(d), np.asarray(target, dtype=complex)
    if (target.shape != phi.shape or abs(np.linalg.norm(target) - 1) > TARGET_TOL
            or abs(abs(np.vdot(phi, target)) - 1) > TARGET_TOL):
        raise QuantumError("two_link_f_from_physics: target must be bell(d) "
                           "up to a global phase")
    T1, T2 = [[bell_overlap_table(s, d) for s in aged_states(sigma, mem, m_star)]
              for sigma, mem, m_star in ((sigma1_0, mem1, m1_star),
                                         (sigma2_0, mem2, m2_star))]
    f = np.zeros((2, m1_star + 2, m2_star + 2))
    for m1, t1 in enumerate(T1):
        for m2, t2 in enumerate(T2):
            f[1, m1 + 1, m2 + 1] = np.clip(swap_fidelity([t1, t2]), 0.0, 1.0)
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
    # every action leaves `done` in place, so it takes "swap" too
    return DecisionFunction.deterministic(np.append(np.where(swap, SWAP, ab), SWAP), len(ACTIONS))


def evaluate_policy(model: TwoLinkModel, d: DecisionFunction):
    """Expected absorption time and expected f at absorption under d."""
    y, R = absorbing_solve(build_two_link_mdp(model), d,
                           initial_distribution(model).entries)
    if len(R) > 1:  # p1 = p2 = 0: (-1, -1) absorbs too, no link ever forms
        raise ModelError("evaluate_policy: the end-to-end link is unreachable")
    return float(y.sum()), float(model.f[1].reshape(-1) @ (R[0] * y))


def swap_reward(model: TwoLinkModel) -> np.ndarray:
    """r(a, s), shape (actions, n): the f that action a at s collects on
    absorption, q f(m1, m2) for "swap" and 0 otherwise."""
    r = np.zeros((len(ACTIONS), model.n))
    r[SWAP, :model.done] = model.q * model.f[1].reshape(-1)
    return r


def lp_optimal_value(model: TwoLinkModel):
    """Best stationary expected f at absorption, via the absorbing
    occupation LP with the reward `swap_reward`."""
    if model.q <= 0 or model.p1 <= 0 or model.p2 <= 0:
        raise ModelError("lp_optimal_value: needs q, p1, p2 > 0")
    return _lp.mdp_occupation_lp(build_two_link_mdp(model), swap_reward(model),
                                 "max", initial_distribution(model).entries)


def lp_optimal_waiting_time(model: TwoLinkModel):
    """Minimum expected steps to form the end-to-end link, over stationary
    policies, from the fresh-request start."""
    if model.q <= 0 or model.p1 <= 0 or model.p2 <= 0:
        raise ModelError("lp_optimal_waiting_time: needs q, p1, p2 > 0")
    mdp = build_two_link_mdp(model)
    return _lp.mdp_occupation_lp(mdp, np.ones(model.n), "min",
                                 initial_distribution(model).entries)


def analytic_symmetric_waiting_time(p: float, q: float, t_star: int) -> float:
    """Known closed form for equal links under the joint cutoff rule."""
    if not (0 < p <= 1 and 0 < q <= 1):
        raise ModelError("analytic_symmetric_waiting_time: p, q must lie in (0, 1]")
    if not isinstance(t_star, (int, np.integer)) or t_star < 0:
        raise ModelError("analytic_symmetric_waiting_time: t_star must be an integer >= 0")
    r = (1 - p) ** t_star
    num = 3 - 2 * p * (1 - r) - 2 * r
    den = q * p * (2 - p * (1 - 2 * r) - 2 * r)
    return num / den
