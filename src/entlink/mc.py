"""Seeded Monte Carlo trajectory sampling: the independent statistical
oracle for the analytic results.

RNG: numpy PCG64 via default_rng; a fixed seed gives the same bytes.  A step
moves each trajectory to the first successor whose running transition
probability reaches its uniform draw, looked up in a table that holds only
each state's positive-probability successors (`_successor_table`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elemlink import ElemLinkModel, build_mdp, g_vector
from .markov import ModelError, Policy, policy_matrix
from .twolink import TwoLinkModel, build_two_link_mdp, initial_distribution

RNG_ALGORITHM = "PCG64"


@dataclass(frozen=True)
class SimConfig:
    seed: int
    trials: int = 100_000
    horizon: int = 1_000

    def __post_init__(self):
        if self.trials < 1 or self.horizon < 1:
            raise ModelError("SimConfig: trials and horizon must be >= 1")

    def rng(self):
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(0,)))


def _successor_table(P: np.ndarray):
    """Inverse-CDF table of a column-stochastic P, one column per state.

    cum[k, s] is the running sum of column s over its first k+1 nonzeros in
    index order, inf past the last; nxt[k, s] is the k-th successor, and the
    later rows (one more than cum has) repeat the last.  Exact zeros leave a
    running sum unchanged, so this picks the state the dense cumsum picks for
    any 0 < u <= sum; u = 0 gives the first successor, u > sum the last.
    """
    cols, rows = np.nonzero(P.T > 0)  # by state, then successor index
    width = np.bincount(cols, minlength=P.shape[1])
    ends = np.cumsum(width)
    rank = np.arange(cols.size) - np.repeat(ends - width, width)
    cum = np.zeros((width.max(), P.shape[1]))
    cum[rank, cols] = P[rows, cols]
    cum = np.cumsum(cum, axis=0)  # sequential adds, as in the dense cumsum
    cum[np.arange(len(cum))[:, None] >= width] = np.inf
    nxt = np.tile(rows[ends - 1], (len(cum) + 1, 1))
    nxt[rank, cols] = rows
    return cum, nxt.ravel()


def _step(table, states, u):
    """Next states of trajectories in `states` for uniform draws u."""
    cum, nxt = table
    k = np.zeros(states.size, dtype=np.intp)
    for row in cum:
        k += u > row[states]
    return nxt[k * cum.shape[1] + states]


def simulate_elem(model: ElemLinkModel, policy: Policy, cfg: SimConfig):
    """Sample trajectories of the single-link chain; returns per-time
    estimates of the state distribution, F~ and X with standard errors."""
    rng = cfg.rng()
    n = model.n
    t_max = cfg.horizon
    g = g_vector(model).entries
    mdp = build_mdp(model)
    counts = np.zeros((t_max, n), dtype=np.int64)
    states = rng.choice(n, size=cfg.trials, p=g)
    tables = {}  # successor table per decision function seen
    for t in range(1, t_max + 1):
        counts[t - 1] = np.bincount(states, minlength=n)
        if t == t_max:
            break
        d = policy.decision_at(t)
        if id(d) not in tables:
            tables[id(d)] = _successor_table(policy_matrix(mdp, d).entries)
        states = _step(tables[id(d)], states, rng.random(cfg.trials))
    freq = counts / cfg.trials
    ftilde = freq @ model.f
    x = 1.0 - freq[:, 0]
    se_f = np.sqrt(np.clip((freq * model.f ** 2).sum(axis=1) - ftilde ** 2, 0, None)
                   / cfg.trials)
    se_x = np.sqrt(np.clip(x * (1 - x), 0, None) / cfg.trials)
    return {"freq": freq, "ftilde": ftilde, "x": x,
            "ftilde_se": se_f, "x_se": se_x, "rng": RNG_ALGORITHM}


def simulate_two_link(model: TwoLinkModel, d, cfg: SimConfig):
    """Sample absorption of the two-link chain under a stationary decision.
    Returns waiting-time samples and f-at-absorption samples; trajectories
    that exhaust the horizon are reported, never silently dropped."""
    rng = cfg.rng()
    mdp = build_two_link_mdp(model)
    table = _successor_table(policy_matrix(mdp, d).entries)
    half = model.n1 * model.n2
    init = initial_distribution(model).entries
    f_flat = model.f_flat()
    states = rng.choice(model.n, size=cfg.trials, p=init)
    waits = np.zeros(cfg.trials, dtype=np.int64)
    done = states >= half
    for t in range(1, cfg.horizon + 1):
        active = ~done
        if not active.any():
            break
        u = rng.random(int(active.sum()))
        nxt = _step(table, states[active], u)
        states[active] = nxt
        newly = active.copy()
        newly[active] = nxt >= half
        waits[newly] = t
        done |= newly
    exhausted = int((~done).sum())
    return {"wait_samples": waits[done], "f_samples": f_flat[states[done]],
            "exhausted": exhausted, "rng": RNG_ALGORITHM}


def simulate_collective(M: int, p: float, t_req: int, cfg: SimConfig):
    """Waiting-time samples for M independent never-discarded links after a
    request at step t_req."""
    if M < 1 or not 0 < p <= 1 or t_req < 0:
        raise ModelError("simulate_collective: bad arguments")
    rng = cfg.rng()
    # each link first succeeds at a geometric step; it stays up afterwards
    first_up = rng.geometric(p, size=(cfg.trials, M))
    ready = first_up.max(axis=1)  # first step when all links are up
    waits = np.maximum(ready - t_req, 1)
    return {"wait_samples": waits, "rng": RNG_ALGORITHM}
