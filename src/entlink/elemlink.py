"""Single-link MDP: generation with success probability p, ageing memory up
to m_star steps, and the wait/request decision problem.

States are labeled -1 (inactive), 0, 1, ..., m_star (age of the stored
pair).  Action 0 = wait, action 1 = request a fresh generation attempt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .markov import (
    DecisionFunction,
    Mdp,
    ModelError,
    Policy,
    ProbVector,
    StochasticMatrix,
    evolve,
)
from . import lp as _lp
from .qstate import DensityOperator, KrausChannel, fidelity_to_pure

WAIT, REQUEST = 0, 1


@dataclass(frozen=True)
class ElemLinkModel:
    p: float
    m_star: int
    f: np.ndarray  # indexed over (-1, 0, ..., m_star)

    def __post_init__(self):
        if not 0 <= self.p <= 1:
            raise ModelError("ElemLinkModel: p out of [0, 1]")
        if self.m_star < 0:
            raise ModelError("ElemLinkModel: m_star must be >= 0")
        f = np.asarray(self.f, dtype=float)
        if f.size != self.m_star + 2:
            raise ModelError("ElemLinkModel: f must cover (-1, 0, ..., m_star)")
        if f[0] != 0.0:
            raise ModelError("ElemLinkModel: f(-1) must be 0")
        if np.any(f < 0) or np.any(f > 1):
            raise ModelError("ElemLinkModel: f values must lie in [0, 1]")
        object.__setattr__(self, "f", f)
        self.f.setflags(write=False)

    @property
    def states(self):
        return tuple(range(-1, self.m_star + 1))

    @property
    def n(self):
        return self.m_star + 2


def g_vector(model: ElemLinkModel) -> ProbVector:
    """Post-request distribution: inactive with prob 1-p, fresh with prob p."""
    v = np.zeros(model.n)
    v[0] = 1 - model.p
    v[1] = model.p
    return ProbVector(v, model.states)


def build_mdp(model: ElemLinkModel) -> Mdp:
    n = model.n
    T0 = np.zeros((n, n))
    T0[0, 0] = 1.0  # inactive stays inactive under wait
    for m in range(model.m_star):
        T0[m + 2, m + 1] = 1.0  # age by one step
    T0[0, n - 1] = 1.0  # storage bound hit: link discarded
    T1 = np.zeros((n, n))
    T1[0, :] = 1 - model.p
    T1[1, :] = model.p
    return Mdp(states=model.states, actions=(WAIT, REQUEST),
               transitions={WAIT: StochasticMatrix(T0),
                            REQUEST: StochasticMatrix(T1)})


def aged_states(sigma0: DensityOperator, memory: KrausChannel, m_star: int):
    """Density matrices of the link after 0, 1, ..., m_star steps in memory."""
    states = [sigma0.mat]
    for _ in range(m_star):
        states.append(memory(states[-1]))
    return states


def f_from_physics(sigma0: DensityOperator, memory: KrausChannel,
                   target, m_star: int) -> np.ndarray:
    """f(m) = overlap of the m-times-decohered link state with the target."""
    f = np.zeros(m_star + 2)
    for m, state in enumerate(aged_states(sigma0, memory, m_star)):
        f[m + 1] = np.clip(fidelity_to_pure(state, target), 0.0, 1.0)
    return f


def cutoff_decision(model: ElemLinkModel, t_star) -> DecisionFunction:
    """Memory-cutoff rule d^{t*}: request when inactive or when the pair has
    reached age t*; wait at ages below t*.  t_star=math.inf never discards."""
    table = np.zeros((model.n, 2))
    table[0, REQUEST] = 1.0
    for m in range(0, model.m_star + 1):
        if t_star is math.inf or math.isinf(t_star):
            table[m + 1, WAIT] = 1.0
        elif m < t_star:
            table[m + 1, WAIT] = 1.0
        else:
            table[m + 1, REQUEST] = 1.0
    return DecisionFunction(table)


def ftilde_x_f(model: ElemLinkModel, policy: Policy, t: int,
               initial: ProbVector | None = None):
    """Expected figure of merit, activity probability, and their ratio at
    time t, starting from the post-request distribution at t=1."""
    if initial is None:
        initial = g_vector(model)
    dist = evolve(build_mdp(model), policy, initial, t)
    ftilde = float(model.f @ dist.entries)
    x = float(1.0 - dist.entries[0])
    if x <= 0:
        return ftilde, x, None
    return ftilde, x, ftilde / x


def steady_state_closed_form(model: ElemLinkModel, d: DecisionFunction):
    """Stationary distribution of P^d and the stationary expected value, in
    closed form, for any stationary decision d (alpha(m) = wait prob)."""
    p = model.p
    alpha = d.table[:, WAIT]  # indexed like states: alpha[0] is state -1
    a_minus1 = alpha[0]
    a = alpha[1:]  # ages 0..m_star
    prod_all = float(np.prod(a))
    abar_minus1 = 1 - a_minus1
    # cumulative products prod_{m'=0}^{m-1} alpha(m') for m = 1..m_star
    cumprods = np.cumprod(a[:-1]) if model.m_star >= 1 else np.array([])
    s = np.zeros(model.n)
    s[0] = 1 - p * (1 - prod_all)
    s[1] = p * abar_minus1
    for m in range(1, model.m_star + 1):
        s[m + 1] = p * abar_minus1 * cumprods[m - 1]
    norm = s.sum()
    if norm <= 0:
        raise ModelError("steady_state_closed_form: degenerate normalization")
    s /= norm
    ftilde_inf = float(model.f @ s)
    return ProbVector(s, model.states), ftilde_inf


def cutoff_steady_values(model: ElemLinkModel, t_star: int):
    """Stationary (F~, X, F) under the memory-cutoff rule with finite t*."""
    if not 0 <= t_star <= model.m_star:
        raise ModelError("cutoff_steady_values: t_star must lie in [0, m_star]")
    p = model.p
    fsum = float(model.f[1:t_star + 2].sum())  # f(0) + ... + f(t*)
    denom = 1 + t_star * p
    ftilde_inf = p * fsum / denom
    x_inf = (t_star + 1) * p / denom
    f_inf = fsum / (t_star + 1)
    return ftilde_inf, x_inf, f_inf


def cutoff_infty_transient(model: ElemLinkModel, t: int):
    """(F~, X, F) at finite time t under the never-discard rule, assuming
    t - 1 <= m_star so no wraparound has occurred."""
    if t < 1:
        raise ModelError("cutoff_infty_transient: t must be >= 1")
    p = model.p
    ftilde = 0.0
    for m in range(min(t, model.m_star + 1)):
        ftilde += model.f[m + 1] * p * (1 - p) ** (t - m - 1)
    x = 1 - (1 - p) ** t
    f = ftilde / x if x > 0 else None
    return ftilde, x, f


def forward_recursion_decision(model: ElemLinkModel) -> DecisionFunction:
    """Greedy one-step-lookahead rule: request when inactive; wait at age m
    exactly when keeping the pair one more step beats a fresh attempt."""
    table = np.zeros((model.n, 2))
    table[0, REQUEST] = 1.0
    pf0 = model.p * model.f[1]
    for m in range(model.m_star + 1):
        nxt = model.f[m + 2] if m < model.m_star else 0.0  # age past m* wraps to inactive
        if nxt > pf0:
            table[m + 1, WAIT] = 1.0
        else:
            table[m + 1, REQUEST] = 1.0
    return DecisionFunction(table)


def lp_optimal_steady(model: ElemLinkModel):
    """Best stationary steady-state expected value via the occupation LP."""
    return _lp.mdp_occupation_lp(build_mdp(model), model.f, "max")


def optimal_backward(model: ElemLinkModel, t: int):
    """Best achievable expected figure of merit at horizon t, by backward
    induction over (age, time); returns the value and the time-indexed
    deterministic policy.  Ties broken toward waiting."""
    if t < 1:
        raise ModelError("optimal_backward: t must be >= 1")
    mdp = build_mdp(model)
    T = {a: mdp.transitions[a].entries for a in (WAIT, REQUEST)}
    V = model.f.copy()
    decisions = []
    for _ in range(t - 1):
        q_wait = T[WAIT].T @ V
        q_req = T[REQUEST].T @ V
        choose_req = q_req > q_wait + 0.0  # strict: ties go to wait
        V = np.where(choose_req, q_req, q_wait)
        table = np.zeros((model.n, 2))
        table[np.arange(model.n), np.where(choose_req, REQUEST, WAIT)] = 1.0
        decisions.append(DecisionFunction(table))
    decisions.reverse()
    value = float(g_vector(model).entries @ V)
    policy = Policy.time_indexed(decisions) if decisions else Policy.stationary(
        cutoff_decision(model, math.inf))
    return value, policy
