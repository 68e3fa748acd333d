"""Seeded Monte Carlo trajectory sampling: the independent statistical
oracle for the analytic results.

RNG: numpy PCG64 via default_rng; a fixed seed gives the same bytes.  A step
moves each trajectory to the first successor whose running transition
probability reaches its uniform draw, looked up in a table that holds only
each state's positive-probability successors (`_successor_table`); a draw
above all but a state's last running sum picks its last successor, so a step
makes (widest column - 1) compares per trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elemlink import ElemLinkModel, build_mdp, g_vector
from .markov import ModelError, Policy, policy_matrix
from .twolink import TwoLinkModel, initial_distribution, policy_kernel

RNG_ALGORITHM = "PCG64"


@dataclass(frozen=True)
class SimConfig:
    seed: int
    trials: int = 100_000
    horizon: int = 1_000

    def __post_init__(self):
        for v in (self.seed, self.trials, self.horizon):
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise ModelError("SimConfig: seed, trials and horizon must be integers")
        if self.seed < 0:
            raise ModelError("SimConfig: seed must be >= 0")
        if self.trials < 1 or self.horizon < 1:
            raise ModelError("SimConfig: trials and horizon must be >= 1")

    def rng(self):
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(0,)))


def _successor_table(P: np.ndarray):
    """Inverse-CDF table of a column-stochastic P, one column per state.

    cum[k, s] is the running sum of column s over its first k+1 nonzeros in
    index order, inf from the last nonzero on: a draw above every earlier sum
    already counts up to the last successor, so the last sum is never read
    and cum has one row fewer than the widest column.  nxt[k, s] is the k-th
    successor, and the later rows repeat the last.  Exact zeros leave a
    running sum unchanged, so this picks the state the dense cumsum picks for
    any 0 < u <= sum; u = 0 gives the first successor, u > sum the last.
    """
    cols, rows = np.nonzero(P.T > 0)  # by state, then successor index
    width = np.bincount(cols, minlength=P.shape[1])
    ends = np.cumsum(width)
    rank = np.arange(cols.size) - np.repeat(ends - width, width)
    cum = np.zeros((width.max(), P.shape[1]))
    cum[rank, cols] = P[rows, cols]
    cum = np.cumsum(cum, axis=0)[:-1]  # sequential adds, as in the dense cumsum
    cum[np.arange(len(cum))[:, None] >= width - 1] = np.inf
    nxt = np.tile(rows[ends - 1], (len(cum) + 1, 1))
    nxt[rank, cols] = rows
    return cum, nxt.ravel()


def _step(table, states, u):
    """Next states of trajectories in `states` for uniform draws u."""
    cum, nxt = table
    k = np.zeros(states.size, dtype=np.intp)
    for row in cum:
        k += u > row.take(states)
    k *= cum.shape[1]
    k += states
    return nxt[k]


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
    """Sample the two-link chain under a stationary decision until a swap
    succeeds.  Returns waiting-time samples and samples of f of the
    end-to-end link; trajectories that exhaust the horizon are reported,
    never silently dropped."""
    rng = cfg.rng()
    n, N = model.n, model.n + 1
    (rows, cols, vals), S = policy_kernel(model, d)
    g = initial_distribution(model).entries
    # P^d with an absorbing state appended at n, each entry summed in action
    # order: an attempt at s, the last action, moves q S_s there and
    # restarts (1 - q) S_s from g
    P = np.zeros((N, N))
    np.add.at(P, (rows, cols), vals)
    P[:n, :n] += np.outer((1 - model.q) * g, S)
    P[n, :n] = model.q * S
    P[n, n] = 1.0
    cum, succ = _successor_table(P)
    # a step from s into the absorbing state lands on N + s instead, so a
    # finished trajectory keeps the state it swapped from, whose f it collected
    table = cum, np.where(succ == n, N + np.arange(succ.size) % N, succ)
    states = rng.choice(N, size=cfg.trials, p=np.append(g, 0.0))
    waits = np.zeros(cfg.trials, dtype=np.int64)
    # step only the running trajectories: run holds their trial ids and cur
    # their states, both in trial order, which fixes the uniform each draws
    run = np.arange(cfg.trials)
    cur = states
    for t in range(1, cfg.horizon + 1):
        if not run.size:
            break
        cur = _step(table, cur, rng.random(run.size))
        fin = cur >= N
        ids = run[fin]
        states[ids] = cur[fin]
        waits[ids] = t
        keep = ~fin
        run, cur = run[keep], cur[keep]
    done = waits > 0
    return {"wait_samples": waits[done],
            "f_samples": model.f[1].reshape(-1)[states[done] - N],
            "exhausted": run.size, "rng": RNG_ALGORITHM}


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
