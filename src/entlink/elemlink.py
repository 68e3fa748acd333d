"""Single-link MDP: generation with success probability p, ageing memory up
to m_star steps, and the wait/request decision problem.

States are labeled -1 (inactive), 0, 1, ..., m_star (age of the stored
pair).  Action 0 = wait, action 1 = request a fresh generation attempt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .markov import DecisionFunction, ModelError, Policy, is_count, is_probability

WAIT, REQUEST = 0, 1


@dataclass(frozen=True)
class ElemLinkModel:
    p: float
    m_star: int
    f: np.ndarray  # indexed over (-1, 0, ..., m_star)

    def __post_init__(self):
        if not is_probability(self.p):
            raise ModelError("ElemLinkModel: p must be a real number in [0, 1]")
        if not is_count(self.m_star, 0):
            raise ModelError("ElemLinkModel: m_star must be >= 0 and of integer type")
        f = np.array(self.f, dtype=float)
        if f.size != self.m_star + 2:
            raise ModelError("ElemLinkModel: f must cover (-1, 0, ..., m_star)")
        if f[0] != 0.0:
            raise ModelError("ElemLinkModel: f(-1) must be 0")
        if not np.all((f >= 0) & (f <= 1)):  # NaN fails too
            raise ModelError("ElemLinkModel: f values must lie in [0, 1]")
        object.__setattr__(self, "f", f)
        self.f.setflags(write=False)

    @property
    def states(self):
        return tuple(range(-1, self.m_star + 1))

    @property
    def n(self):
        return self.m_star + 2


def g_vector(model: ElemLinkModel) -> np.ndarray:
    """Post-request distribution: inactive with prob 1-p, fresh with prob p."""
    v = np.zeros(model.n)
    v[0] = 1 - model.p
    v[1] = model.p
    return v


def build_mdp(model: ElemLinkModel) -> np.ndarray:
    """T[a] for a = WAIT, REQUEST as one (2, n, n) array; each column sums
    to 1 by construction from the checked model."""
    n = model.n
    T = np.zeros((2, n, n))
    T[WAIT, 0, 0] = 1.0  # inactive stays inactive under wait
    for m in range(model.m_star):
        T[WAIT, m + 2, m + 1] = 1.0  # age by one step
    T[WAIT, 0, n - 1] = 1.0  # storage bound hit: link discarded
    T[REQUEST, 0, :] = 1 - model.p
    T[REQUEST, 1, :] = model.p
    return T


def _check_decision(model: ElemLinkModel, d: DecisionFunction, name: str):
    """ModelError unless d has a (wait, request) row for each of model's states."""
    if d.table.shape != (model.n, 2):
        raise ModelError(
            f"{name}: decision table shape {d.table.shape} does not match ({model.n}, 2)")


def policy_matrix(model: ElemLinkModel, d: DecisionFunction) -> np.ndarray:
    """P^d = sum_a T^a D_a, with D_a = diag of the per-state action probs."""
    _check_decision(model, d, "policy_matrix")
    P = np.zeros((model.n, model.n))
    for T, da in zip(build_mdp(model), d.table.T):
        P += T * da  # broadcasts over columns
    return P


def evolve(model: ElemLinkModel, policy: Policy, t: int) -> np.ndarray:
    """Distribution at time t as a fresh array, from `g_vector` at time 1;
    P^d is built once per (read-only) decision object."""
    if not is_count(t, 1):
        raise ModelError("evolve: t must be an integer >= 1")
    v = g_vector(model)
    mats = {}
    for step in range(1, t):
        d = policy.decision_at(step)
        if id(d) not in mats:
            mats[id(d)] = policy_matrix(model, d)
        v = mats[id(d)] @ v
    return v


def cutoff_decision(model: ElemLinkModel, t_star) -> DecisionFunction:
    """Memory-cutoff rule d^{t*}: request when inactive or when the pair has
    reached age t*; wait at ages below t*.  t_star is an integer >= 0, or
    math.inf, which never discards."""
    if not (t_star == math.inf or is_count(t_star, 0)):
        raise ModelError("cutoff_decision: t_star must be an integer >= 0 or math.inf")
    ages = np.arange(model.m_star + 1)
    return DecisionFunction.deterministic(
        np.append(REQUEST, np.where(ages < t_star, WAIT, REQUEST)), 2)


def ftilde_x_f(model: ElemLinkModel, policy: Policy, t: int):
    """Expected figure of merit, activity probability, and their ratio at
    time t, starting from the post-request distribution at t=1."""
    dist = evolve(model, policy, t)
    ftilde = float(model.f @ dist)
    x = float(dist[1:].sum())  # not 1 - Pr[inactive], which is 0 at tiny p
    if x <= 0:
        return ftilde, x, None
    return ftilde, x, ftilde / x


def expected_waiting_time(model: ElemLinkModel, d: DecisionFunction, t_req: int) -> float:
    """Expected steps from a request at step t_req until the link is first
    active (step t_req + 1 counts 1), from the post-request distribution at
    t=1 under d.  The one inactive state leaves with the same probability
    r = p d(-1)(request) at every step, so the wait is 1 + (1 - X(t_req + 1)) / r."""
    if not is_count(t_req, 0):
        raise ModelError("expected_waiting_time: t_req must be an integer >= 0")
    _check_decision(model, d, "expected_waiting_time")
    _, x, _ = ftilde_x_f(model, Policy.stationary(d), t_req + 1)
    if x >= 1:
        return 1.0
    r = model.p * float(d.table[0, REQUEST])
    wait = 1 + (1 - x) / r if r > 0 else math.inf
    if wait == math.inf:
        raise ModelError("expected_waiting_time: no finite wait, the inactive link "
                         f"regenerates with probability {r:g} per step")
    return wait


def steady_state_closed_form(model: ElemLinkModel, d: DecisionFunction):
    """Stationary distribution of P^d and the stationary expected value, in
    closed form, for any stationary decision d (alpha(m) = wait prob)."""
    _check_decision(model, d, "steady_state_closed_form")
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
    return s, ftilde_inf


def cutoff_steady_values(model: ElemLinkModel, t_star):
    """Stationary (F~, X, F) under the memory-cutoff rule, t* in [0, m_star]
    or math.inf.  Never discarding holds a pair to age m_star and then spends
    one step inactive, so a cycle has 1/p inactive steps, not (1 - p)/p."""
    never = t_star == math.inf
    if not (never or (is_count(t_star, 0) and t_star <= model.m_star)):
        raise ModelError("cutoff_steady_values: t_star must be an integer in [0, m_star] "
                         "or math.inf")
    p = model.p
    held = model.m_star + 1 if never else t_star + 1
    fsum = float(model.f[1:held + 1].sum())  # f(0) + ... + f(held - 1)
    denom = 1 + (held if never else held - 1) * p
    ftilde_inf = p * fsum / denom
    x_inf = held * p / denom
    f_inf = fsum / held
    return ftilde_inf, x_inf, f_inf


def cutoff_infty_transient(model: ElemLinkModel, t: int):
    """(F~, X, F) at time t under the never-discard rule.  Exact for t in
    [1, m_star + 2]; later t would need the regenerations of the pairs
    discarded at the storage bound, so they raise ModelError."""
    if not (is_count(t, 1) and t <= model.m_star + 2):
        raise ModelError("cutoff_infty_transient: t must be an integer in [1, m_star + 2]")
    p = model.p
    ftilde = x = 0.0
    for m in range(min(t, model.m_star + 1)):
        w = p * (1 - p) ** (t - m - 1)  # Pr[the pair is m steps old at t]
        ftilde += model.f[m + 1] * w
        x += w
    f = ftilde / x if x > 0 else None
    return ftilde, x, f


def forward_recursion_decision(model: ElemLinkModel) -> DecisionFunction:
    """Greedy one-step-lookahead rule: request when inactive; wait at age m
    exactly when keeping the pair one more step beats a fresh attempt."""
    nxt = np.append(model.f[2:], 0.0)  # age past m* wraps to inactive
    return DecisionFunction.deterministic(
        np.append(REQUEST, np.where(nxt > model.p * model.f[1], WAIT, REQUEST)), 2)


def lp_optimal_steady(model: ElemLinkModel):
    """Best stationary steady-state expected value, which the occupation LP
    would give, and the best memory cutoff that attains it, for any f.  The
    LP has a deterministic optimum (Puterman 1994, sec. 8.8).  A
    deterministic decision that waits at -1 ends inactive, with value 0.
    One that requests at -1 holds each fresh pair until the first age at
    which it requests, so on the states it visits it is a cutoff rule.  So
    the optimum is the best of the cutoffs t* = 0, ..., m_star, inf; the
    first best wins."""
    cutoffs = (*range(model.m_star + 1), math.inf)
    values = [cutoff_steady_values(model, t)[0] for t in cutoffs]
    best = int(np.argmax(values))
    return values[best], cutoff_decision(model, cutoffs[best])


def optimal_backward(model: ElemLinkModel, t: int):
    """Best achievable expected figure of merit at horizon t, by backward
    induction over (age, time); returns the value and the time-indexed
    deterministic policy.  Ties broken toward waiting."""
    if not is_count(t, 1):
        raise ModelError("optimal_backward: t must be an integer >= 1")
    T = build_mdp(model)
    V = model.f.copy()
    decisions = []
    for _ in range(t - 1):
        q_wait = T[WAIT].T @ V
        q_req = T[REQUEST].T @ V
        choose_req = q_req > q_wait + 0.0  # strict: ties go to wait
        V = np.where(choose_req, q_req, q_wait)
        decisions.append(DecisionFunction.deterministic(
            np.where(choose_req, REQUEST, WAIT), 2))
    decisions.reverse()
    value = float(g_vector(model) @ V)
    policy = Policy.time_indexed(decisions) if decisions else Policy.stationary(
        cutoff_decision(model, math.inf))
    return value, policy
