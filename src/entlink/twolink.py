"""Two neighboring links plus entanglement swapping as one MDP.

State (x, m1, m2): x flags the end-to-end link, m_j is the age of link j
(-1 when inactive).  Actions "00", "01", "10", "11" regenerate the
requested links (first digit = link 1), "swap" attempts the joining
measurement with success probability q.  States with x = 1 are absorbing.
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
    StochasticMatrix,
    absorption_distribution,
    absorption_time,
    decompose_absorbing,
)
from . import lp as _lp
from .elemlink import REQUEST, WAIT, ElemLinkModel, build_mdp, g_vector
from .qstate import DensityOperator, KrausChannel, fidelity_to_pure, swap_chain_channel

ACTIONS = ("00", "01", "10", "11", "swap")


@dataclass(frozen=True)
class TwoLinkModel:
    p1: float
    p2: float
    q: float
    m1_star: int
    m2_star: int
    f: np.ndarray  # shape (2, m1_star+2, m2_star+2), indices (x, m1+1, m2+1)

    def __post_init__(self):
        for val, name in ((self.p1, "p1"), (self.p2, "p2"), (self.q, "q")):
            if not 0 <= val <= 1:
                raise ModelError(f"TwoLinkModel: {name} out of [0, 1]")
        if self.m1_star < 0 or self.m2_star < 0:
            raise ModelError("TwoLinkModel: storage bounds must be >= 0")
        f = np.asarray(self.f, dtype=float)
        if f.shape != (2, self.m1_star + 2, self.m2_star + 2):
            raise ModelError("TwoLinkModel: f table shape mismatch")
        if np.any(f[0] != 0):
            raise ModelError("TwoLinkModel: f must vanish on x=0 states")
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
        return 2 * self.n1 * self.n2

    def idx(self, x, m1, m2):
        return x * self.n1 * self.n2 + (m1 + 1) * self.n2 + (m2 + 1)

    @property
    def states(self):
        return tuple((x, m1, m2)
                     for x in (0, 1)
                     for m1 in range(-1, self.m1_star + 1)
                     for m2 in range(-1, self.m2_star + 1))

    def f_flat(self):
        return self.f.reshape(-1)


def uniform_f_table(m1_star, m2_star, value=1.0):
    """f = value on every x=1 state with both links active; handy for
    waiting-time-only studies."""
    f = np.zeros((2, m1_star + 2, m2_star + 2))
    f[1, 1:, 1:] = value
    return f


def _link_blocks(p, m_star):
    """Wait and request matrices and post-request vector of one link."""
    link = ElemLinkModel(p, m_star, np.zeros(m_star + 2))
    mdp = build_mdp(link)
    return (mdp.transitions[WAIT].entries, mdp.transitions[REQUEST].entries,
            g_vector(link).entries)


def build_two_link_mdp(model: TwoLinkModel) -> Mdp:
    n1, n2 = model.n1, model.n2
    T10, T11, g1 = _link_blocks(model.p1, model.m1_star)
    T20, T21, g2 = _link_blocks(model.p2, model.m2_star)
    eye_block = np.eye(n1 * n2)
    mats = {}
    for a in ("00", "01", "10", "11"):
        A1 = T10 if a[0] == "0" else T11
        A2 = T20 if a[1] == "0" else T21
        M = np.zeros((model.n, model.n))
        M[: n1 * n2, : n1 * n2] = np.kron(A1, A2)
        M[n1 * n2:, n1 * n2:] = eye_block
        mats[a] = StochasticMatrix(M)

    # swap action
    gamma1 = np.zeros(n1); gamma1[1:] = 1.0  # functional over active ages of link 1
    gamma2 = np.zeros(n2); gamma2[1:] = 1.0
    act1 = np.diag(gamma1)
    act2 = np.diag(gamma2)
    S1 = np.zeros((n1, n1))
    for m in range(model.m1_star):
        S1[m + 2, m + 1] = 1.0
    S2 = np.zeros((n2, n2))
    for m in range(model.m2_star):
        S2[m + 2, m + 1] = 1.0
    e1_m = np.zeros(n1); e1_m[0] = 1.0  # |-1> of link 1
    e2_m = np.zeros(n2); e2_m[0] = 1.0
    top = ((1 - model.q) * np.outer(np.kron(g1, g2), np.kron(gamma1, gamma2))
           + np.kron(S1, np.outer(e2_m, e2_m))
           + np.kron(np.outer(e1_m, e1_m), S2)
           + np.outer(np.kron(e1_m, e2_m), np.kron(e1_m, e2_m)))
    # a link at its storage bound with the partner inactive gets discarded
    e1_top = np.zeros(n1); e1_top[-1] = 1.0
    e2_top = np.zeros(n2); e2_top[-1] = 1.0
    top += np.outer(np.kron(e1_m, e2_m), np.kron(e1_m, e2_top))
    top += np.outer(np.kron(e1_m, e2_m), np.kron(e1_top, e2_m))
    M = np.zeros((model.n, model.n))
    M[: n1 * n2, : n1 * n2] = top
    M[n1 * n2:, : n1 * n2] = model.q * np.kron(act1, act2)
    M[n1 * n2:, n1 * n2:] = eye_block
    mats["swap"] = StochasticMatrix(M)
    return Mdp(states=model.states, actions=ACTIONS, transitions=mats)


def initial_distribution(model: TwoLinkModel) -> ProbVector:
    """Both links freshly requested at t=1, end-to-end link not yet formed."""
    *_, g1 = _link_blocks(model.p1, model.m1_star)
    *_, g2 = _link_blocks(model.p2, model.m2_star)
    v = np.zeros(model.n)
    v[: model.n1 * model.n2] = np.kron(g1, g2)
    return ProbVector(v, model.states)


def two_link_f_from_physics(sigma1_0: DensityOperator, mem1: KrausChannel,
                            sigma2_0: DensityOperator, mem2: KrausChannel,
                            target, m1_star: int, m2_star: int) -> np.ndarray:
    """f(1, m1, m2) = post-swap overlap with the target when link j has aged
    m_j steps; computed by the exact one-intermediate-node channel."""
    d = int(round(math.sqrt(sigma1_0.dim)))
    states1 = []
    s = sigma1_0.mat
    for _ in range(m1_star + 1):
        states1.append(s)
        s = mem1(s)
    states2 = []
    s = sigma2_0.mat
    for _ in range(m2_star + 1):
        states2.append(s)
        s = mem2(s)
    f = np.zeros((2, m1_star + 2, m2_star + 2))
    for m1 in range(m1_star + 1):
        for m2 in range(m2_star + 1):
            joint = DensityOperator(np.kron(states1[m1], states2[m2]),
                                    (d, d, d, d))
            out = swap_chain_channel(joint, 1, d)
            f[1, m1 + 1, m2 + 1] = np.clip(fidelity_to_pure(out, target), 0.0, 1.0)
    return f


def cutoff_decision(model: TwoLinkModel, t1_star: int, t2_star: int) -> DecisionFunction:
    if not (0 <= t1_star <= model.m1_star and 0 <= t2_star <= model.m2_star):
        raise ModelError("cutoff_decision: cutoffs must respect storage bounds")
    na = len(ACTIONS)
    table = np.zeros((model.n, na))
    ai = {a: k for k, a in enumerate(ACTIONS)}
    for m1 in range(-1, model.m1_star + 1):
        for m2 in range(-1, model.m2_star + 1):
            i = model.idx(0, m1, m2)
            if 0 <= m1 <= t1_star and 0 <= m2 <= t2_star:
                table[i, ai["swap"]] = 1.0
            elif 0 <= m1 < t1_star and m2 == -1:
                table[i, ai["01"]] = 1.0
            elif m1 == -1 and 0 <= m2 < t2_star:
                table[i, ai["10"]] = 1.0
            elif (m1, m2) in ((-1, -1), (-1, t2_star), (t1_star, -1)):
                table[i, ai["11"]] = 1.0
            else:
                # ages beyond the cutoff are unreachable under this rule;
                # regenerate both so the matrix stays well defined
                table[i, ai["11"]] = 1.0
    # absorbing states: the choice is immaterial, keep it uniform
    half = model.n1 * model.n2
    table[half:, :] = 1.0 / na
    return DecisionFunction(table)


def evaluate_policy(model: TwoLinkModel, d: DecisionFunction):
    """Expected absorption time and expected f at absorption under d."""
    mdp = build_two_link_mdp(model)
    dec = decompose_absorbing(mdp, d)
    init = initial_distribution(model).entries[list(dec.transient_idx)]
    waiting = absorption_time(dec, init)
    dist = absorption_distribution(dec, init)
    f_abs = model.f_flat()[list(dec.absorbing_idx)]
    return waiting, float(f_abs @ dist)


def lp_optimal_value(model: TwoLinkModel):
    """Best stationary expected f at absorption, via the absorbing
    occupation LP."""
    mdp = build_two_link_mdp(model)
    init = initial_distribution(model).entries
    # f vanishes on x=0 states, so f @ T^a is the f collected on absorption
    f = model.f_flat()
    reward = [f @ mdp.transitions[a].entries for a in ACTIONS]
    value, d = _lp.mdp_occupation_lp(mdp, reward, "max", init)
    return value + float(f @ init), d


def lp_optimal_waiting_time(model: TwoLinkModel):
    """Minimum expected steps to form the end-to-end link, over stationary
    policies, from the fresh-request start."""
    if model.q <= 0 or model.p1 <= 0 or model.p2 <= 0:
        raise ModelError("lp_optimal_waiting_time: needs q, p1, p2 > 0")
    mdp = build_two_link_mdp(model)
    return _lp.mdp_occupation_lp(mdp, np.ones(model.n), "min",
                                 initial_distribution(model))


def analytic_symmetric_waiting_time(p: float, q: float, t_star: int) -> float:
    """Known closed form for equal links under the joint cutoff rule."""
    if p <= 0 or q <= 0:
        raise ModelError("analytic_symmetric_waiting_time: p, q must be > 0")
    r = (1 - p) ** t_star
    num = 3 - 2 * p * (1 - r) - 2 * r
    den = q * p * (2 - p * (1 - 2 * r) - 2 * r)
    return num / den
