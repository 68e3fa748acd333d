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
sum_s S_s f(s) z_s.  The optima solve the LPs sum_a (I - K^a) z_a = g,
z >= 0, by Howard's steps, which the simplex takes on them (Puterman 1994,
sec. 6.9), so q enters no solve; `oracles.two_link_lp` is the LP.  Each K^a
is a sparse Kronecker product of the two links' own matrices, kept as its
nonzero entries (`TwoLinkModel.blocks`).  Each solve with I - K^d is a
dense solve on its boundary states (`_censor`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .markov import (MASS_RTOL, DecisionFunction, ModelError, NumericalError, is_count,
                     is_probability)
from .elemlink import WAIT, ElemLinkModel, build_mdp, g_vector
from .qstate import (DensityOperator, KrausChannel, QuantumError, bell,
                     bell_overlap_table, swap_fidelity)

ACTIONS = ("00", "01", "10", "11", "swap")  # the names of the action positions
SWAP = 4
TARGET_TOL = 1e-10  # |Phi> up to a phase: unit norm and |<Phi|target>| = 1
HOWARD_RTOL = 1e-10  # the least gain that switches an action, relative to max(1, max|v|)
ERROR_MARGIN = 10  # ... and the least, in multiples of the values' solve error
HOWARD_STEPS = 1000


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
            if not is_probability(val):
                raise ModelError(f"TwoLinkModel: {name} must be a real number in [0, 1]")
        if not (is_count(self.m1_star, 0) and is_count(self.m2_star, 0)):
            raise ModelError("TwoLinkModel: storage bounds must be >= 0 and of integer type")
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
        by side as one (n, 5n) matrix: its nonzero entries (rows, cols, vals),
        read-only and ordered by column, then row; built on first use."""
        return _stacked_blocks(self)


def uniform_f_table(m1_star, m2_star):
    """f[1] = 1 wherever both links are active; handy for waiting-time-only
    studies."""
    if not (is_count(m1_star, 0) and is_count(m2_star, 0)):
        raise ModelError("uniform_f_table: storage bounds must be >= 0 and of integer type")
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
    T1, T2 = [build_mdp(link) for link in _links(model)]
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
    rows, cols, vals = map(np.concatenate, (rows, cols, vals))
    keep = vals != 0  # a product of two tiny probabilities can round to 0
    order = np.lexsort((rows[keep], cols[keep]))  # the positions are distinct
    entries = tuple(x[keep][order] for x in (rows, cols, vals))
    for a in entries:
        a.setflags(write=False)
    return entries


def initial_distribution(model: TwoLinkModel) -> np.ndarray:
    """g = g1 (x) g2: both links freshly requested at t = 1, which is also
    where a failed swap attempt restarts them."""
    g1, g2 = [g_vector(link) for link in _links(model)]
    return np.kron(g1, g2)


def policy_kernel(model: TwoLinkModel, d: DecisionFunction):
    """K^d = sum_a K^a D_a as entries (rows, cols, vals), those of the K^a
    scaled by d, in action order (swap last) and not summed, and S, the
    chance that d attempts the swap at each state."""
    if d.table.shape != (model.n, len(ACTIONS)):
        raise ModelError(f"policy_kernel: decision table shape {d.table.shape} does "
                         f"not match ({model.n}, {len(ACTIONS)})")
    rows, cols, vals = model.blocks
    return ((rows, cols % model.n, vals * d.table.T.ravel()[cols]),
            d.table[:, SWAP] * _both_active(model))


def two_link_f_from_physics(sigma1_0: DensityOperator, mem1: KrausChannel,
                            sigma2_0: DensityOperator, mem2: KrausChannel,
                            target, m1_star: int, m2_star: int) -> np.ndarray:
    """f(1, m1, m2) = fidelity to the target of the link swapped from link j
    aged m_j steps: the closed form `swap_fidelity`, in one batched call over
    the two links' Bell-overlap tables of every age.  The target must be
    |Phi> = bell(d) up to a phase."""
    if not (is_count(m1_star, 0) and is_count(m2_star, 0)):
        raise ModelError("two_link_f_from_physics: storage bounds must be >= 0 and of integer type")
    d = int(round(math.sqrt(sigma1_0.dim)))
    phi, target = bell(d), np.asarray(target, dtype=complex)
    if (target.shape != phi.shape or abs(np.linalg.norm(target) - 1) > TARGET_TOL
            or abs(abs(np.vdot(phi, target)) - 1) > TARGET_TOL):
        raise QuantumError("two_link_f_from_physics: target must be bell(d) "
                           "up to a global phase")
    tables = []
    for sigma, mem, m_star in ((sigma1_0, mem1, m1_star), (sigma2_0, mem2, m2_star)):
        aged = [sigma.mat]  # the link's state after 0, 1, ..., m_star steps in memory
        for _ in range(m_star):
            aged.append(mem(aged[-1]))
        tables.append(bell_overlap_table(np.array(aged), d))
    T1, T2 = tables
    f = np.zeros((2, m1_star + 2, m2_star + 2))
    f[1, 1:, 1:] = np.clip(swap_fidelity([T1[:, None], T2[None]]), 0.0, 1.0)
    return f


def cutoff_decision(model: TwoLinkModel, t1_star: int, t2_star: int) -> DecisionFunction:
    """Swap as soon as both links are active and each is at most its cutoff
    t_j* old; otherwise link j requests when it is inactive or at least t_j*
    old and waits otherwise, action "ab" = 2a + b.  The cutoffs are integers
    within the storage bounds."""
    for t, bound in ((t1_star, model.m1_star), (t2_star, model.m2_star)):
        if not (is_count(t, 0) and t <= bound):
            raise ModelError("cutoff_decision: cutoffs must be integers that "
                             "respect the storage bounds")
    m1, m2 = np.arange(-1, model.m1_star + 1)[:, None], np.arange(-1, model.m2_star + 1)
    swap = (m1 >= 0) & (m1 <= t1_star) & (m2 >= 0) & (m2 <= t2_star)
    ab = 2 * ((m1 < 0) | (m1 >= t1_star)) + ((m2 < 0) | (m2 >= t2_star))
    return DecisionFunction.deterministic(np.where(swap, SWAP, ab).ravel(), len(ACTIONS))


def _closure(seed, src, dst):
    """The states reached from the mask `seed` along the edges src -> dst."""
    seen = front = seed
    while front.any():
        front = np.bincount(dst[front[src]], minlength=seed.size).astype(bool) & ~seen
        seen = seen | front
    return seen


def _censor(model: TwoLinkModel, kernel, S):
    """I - K^d censored onto the boundary states B, those with an age of -1
    or 0, 2(n1 + n2) - 4 of them: the stochastic complement (Meyer 1989,
    SIAM Review 31(2)).  Under "00" both ages advance, so a state with both
    ages >= 1 is entered only from its diagonal predecessor, by the K^d entry
    W, and is visited C times per visit to the state e of B that enters its
    diagonal, C the product of W along it.  Folding each column t of K^d,
    scaled by C_t, into e(t) gives I - K_B, with the diagonal the
    off-diagonal column sum plus the censored exit mass sum C S, not
    1 - K_ee, which cancels near 1 (Grassmann, Taksar & Heyman 1985).
    Returns I - K_B as K_B's positive entries off the diagonal (row, column,
    value) and the diagonal, B as a mask, e as a position in B, C, W as an
    (n1, n2) grid, and K^d's nonzeros in B's rows (row in B, column, value)."""
    rows, cols, vals = (x[kernel[2] != 0] for x in kernel)
    i, j = np.indices((model.n1, model.n2))
    k = np.maximum(np.minimum(i, j) - 1, 0)  # the steps from the entry state
    border = (k == 0).ravel()
    at = np.cumsum(border) - 1  # the states of B, renumbered
    entry = at[((i - k) * model.n2 + j - k).ravel()]
    inner = ~border[rows]
    W = np.bincount(rows[inner], vals[inner], model.n).reshape(i.shape)
    C = np.ones(i.shape)
    for a in range(2, model.n1):
        C[a, 2:] = C[a - 1, 1:-1] * W[a, 2:]
    C = C.ravel()
    r, c, v = at[rows[~inner]], cols[~inner], vals[~inner]
    e, w = entry[c], v * C[c]
    nb, off = at[-1] + 1, (r != e) & (w > 0)
    diag = np.bincount(e[off], w[off], nb) + np.bincount(entry, C * S, nb)
    return (r[off], e[off], w[off], diag), border, entry, C, W, (r, c, v)


def _solve(system, b, what, keep=True, trans=False):
    """x with A x = b, or A^T x = b, for A = I - K_B (`_censor`'s system) on
    the states `keep`, which lead to no other state, 0 elsewhere, by LAPACK.
    A state whose column holds only a nonzero diagonal leads to no other, so
    it is solved apart, by substitution.  NumericalError if A is singular."""
    i, j, w, diag = system
    lone = keep & (np.bincount(j, minlength=diag.size) == 0) & (diag > 0)
    rest, x = keep & ~lone, np.zeros(b.shape)
    k, nl = np.count_nonzero(rest), np.count_nonzero(lone)
    at = np.where(rest, np.cumsum(rest), k + np.cumsum(lone)) - 1  # rest first, then lone
    t = rest[j]  # the entries in rest columns, all in kept rows
    A = np.bincount(at[i[t]] * k + at[j[t]], -w[t], (k + nl) * k).reshape(k + nl, k)
    A.flat[:k * k:k + 1] = diag[rest]  # A[:k] is rest x rest, A[k:] lone x rest
    try:
        if trans:
            x[lone] = b[lone] / diag[lone, None]
            x[rest] = np.linalg.solve(A[:k].T, b[rest] - A[k:].T @ x[lone])
        else:
            x[rest] = np.linalg.solve(A[:k], b[rest])
            x[lone] = (b[lone] - A[k:] @ x[rest]) / diag[lone, None]
    except np.linalg.LinAlgError as exc:  # an exactly zero pivot
        raise NumericalError(f"{what}: ill-conditioned, I - K^d is singular") from exc
    return x


def _cycle_values(model: TwoLinkModel, kernel, S, b, what):
    """x with (I - K^d)^T x = b, b (n, k): I - K_B solved transposed for b
    censored alike (sum_t C_t b_t at each entry state), then one backward
    sweep, x_t = b_t + (K^d's B rows)^T x + W x at t's diagonal successor."""
    system, border, entry, C, W, (r, c, v) = _censor(model, kernel, S)
    y = np.column_stack([np.bincount(entry, C * col, system[3].size) for col in b.T])
    y = _solve(system, y, what, trans=True)
    x = b + np.column_stack([np.bincount(c, v * col[r], model.n) for col in y.T])
    x[border] = y
    x = x.reshape(*W.shape, -1)
    for a in range(model.n1 - 2, 1, -1):
        x[a, 2:-1] += W[a + 1, 3:, None] * x[a + 1, 3:]
    return x.reshape(model.n, -1)


def evaluate_policy(model: TwoLinkModel, d: DecisionFunction):
    """Expected waiting time and expected f of the end-to-end link under d:
    the ratios 1^T z / (q S.z) and sum_s S_s f(s) z_s / S.z, whose division
    by S.z (= 1 exactly) cancels the solve's scale error at small p.  z is
    solved on the states of B that g reaches, which lead to no other, and is
    C z_e elsewhere.  Raises ModelError when a reached state cannot reach a
    swap attempt, and then NumericalError for a singular I - K_B, negative
    or non-finite visits, or S.z off 1 by more than MASS_RTOL."""
    if model.q <= 0:
        raise ModelError("evaluate_policy: the end-to-end link is unreachable (q = 0)")
    kernel, S = policy_kernel(model, d)
    system, border, entry, C, _, _ = _censor(model, kernel, S)
    g = initial_distribution(model)[border]
    live = _closure(g > 0, system[1], system[0])  # along B's edges, column to row
    ends = live & (np.bincount(entry, C * S, g.size) > 0)  # the swap attempts, censored
    if not _closure(ends, *system[:2])[live].all():  # backward
        raise ModelError("evaluate_policy: the end-to-end link is unreachable from the start")
    z = C * _solve(system, g[:, None], "evaluate_policy", live)[entry, 0]
    if not (np.all(np.isfinite(z)) and np.all(z >= -1e-9 * z.max())):
        raise NumericalError("evaluate_policy: ill-conditioned, negative or non-finite visits")
    exits = S * z  # summed alike below, so that f <= 1 gives E[f] <= 1
    mass = exits.sum()
    if abs(mass - 1) > MASS_RTOL:
        raise NumericalError(f"evaluate_policy: ill-conditioned, the cycle's exit mass "
                             f"{mass:.12g} differs from 1")
    return (float(z.sum() / (model.q * mass)),
            float((model.f[1].reshape(-1) * exits).sum() / mass))


def optimum_setup(model: TwoLinkModel, sense, what):
    """An optimum's reward and start: 1 per step ("min") from cutoff (m1*,
    m2*), which waits least for any f, or f per swap attempt ("max") from
    cutoff (0, 0), best for an f that falls with age.  Both starts end their
    cycle from every state: ModelError unless q, p1, p2 > 0."""
    if model.q <= 0 or model.p1 <= 0 or model.p2 <= 0:
        raise ModelError(f"{what}: needs q, p1, p2 > 0")
    if sense == "min":
        return (np.ones((len(ACTIONS), model.n)),
                cutoff_decision(model, model.m1_star, model.m2_star))
    reward = np.zeros((len(ACTIONS), model.n))
    reward[SWAP] = model.f[1].reshape(-1)
    return reward, cutoff_decision(model, 0, 0)


def _howard(model: TwoLinkModel, sense, what):
    """Howard's policy iteration (Howard 1960) from `optimum_setup`'s start.
    Each step solves (I - K^d)^T v = r_d for the values and prices every
    action, Q = r + K^T v.  The same solve gives (I - K^d)^T x = S, whose
    answer is 1 exactly, so err = max|x - 1| is the solve's error.  A state
    switches to its best action where the gain exceeds max(HOWARD_RTOL,
    ERROR_MARGIN err) max(1, max|v|): switching on smaller, noisy gains
    cycled.  Once none switches, returns the decision's `evaluate_policy`
    value (the wait for "min", f for "max") and the decision."""
    reward, start = optimum_setup(model, sense, what)
    (rows, cols, vals), states = model.blocks, np.arange(model.n)
    r = reward if sense == "max" else -reward
    act = start.table.argmax(axis=1)
    for _ in range(HOWARD_STEPS):
        d = DecisionFunction.deterministic(act, len(ACTIONS))
        kernel, S = policy_kernel(model, d)
        v, x = _cycle_values(model, kernel, S, np.column_stack([r[act, states], S]), what).T
        if not (np.isfinite(v).all() and np.isfinite(x).all()):
            raise NumericalError(f"{what}: ill-conditioned, non-finite values")
        Q = r + np.bincount(cols, vals * v[rows], r.size).reshape(r.shape)
        best = Q.argmax(axis=0)
        gain = Q[best, states] - Q[act, states]
        err = np.abs(x - 1).max()
        switch = gain > max(HOWARD_RTOL, ERROR_MARGIN * err) * max(1.0, np.abs(v).max())
        if not switch.any():
            wait, f = evaluate_policy(model, d)
            return (wait if sense == "min" else f), d
        act = np.where(switch, best, act)
    raise NumericalError(f"{what}: no optimum after {HOWARD_STEPS} Howard steps, the "
                         f"last largest gain {gain.max():.3g}")


def lp_optimal_value(model: TwoLinkModel):
    """Best stationary expected f of the end-to-end link, the most
    sum_s f(s) z_swap(s), and a deterministic decision that attains it."""
    return _howard(model, "max", "lp_optimal_value")


def lp_optimal_waiting_time(model: TwoLinkModel):
    """Minimum expected steps to form the end-to-end link over stationary
    policies, from the fresh-request start (the least 1^T z, over q), and a
    deterministic decision that attains it."""
    return _howard(model, "min", "lp_optimal_waiting_time")


def analytic_symmetric_waiting_time(p: float, q: float, t_star: int) -> float:
    """Known closed form for equal links under the joint cutoff rule, with
    u = 1 - (1 - p)^t* computed without cancellation:
    (1 + 2u(1 - p)) / (q p (p + 2u(1 - p)))."""
    if not (is_probability(p) and is_probability(q) and p > 0 and q > 0):
        raise ModelError("analytic_symmetric_waiting_time: p, q must be real numbers in (0, 1]")
    if not is_count(t_star, 0):
        raise ModelError("analytic_symmetric_waiting_time: t_star must be an integer >= 0")
    u = float(t_star > 0) if p == 1 else -math.expm1(t_star * math.log1p(-p))
    v = 2 * u * (1 - p)
    denom = q * p * (p + v)  # ~p^2: 0 or subnormal at tiny p
    wait = (1 + v) / denom if denom > 0 else math.inf
    if wait == math.inf:
        raise NumericalError(f"analytic_symmetric_waiting_time: the wait at p = {p:g}, "
                             f"q = {q:g} overflows a float")
    return wait
