"""Seeded Monte Carlo trajectory sampling: the independent statistical
oracle for the analytic results.

RNG: numpy PCG64 via default_rng; a fixed seed gives the same bytes, which
also depend on numpy's binomial sampler.  Trajectories are i.i.d., so the
sampler moves state counts, not trajectories: at each step every state sends
its count to its positive-probability successors by one multinomial draw
(`_step`), the same law as stepping each trajectory (Kemeny & Snell 1960,
ch. II).  A step costs O(states x widest column), whatever the trial count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp as _lp
from .elemlink import ElemLinkModel, g_vector, policy_matrix
from .markov import ModelError, NumericalError, Policy, is_count
from .twolink import TwoLinkModel, initial_distribution, policy_kernel
from .waiting import _check

RNG_ALGORITHM = "PCG64"


@dataclass(frozen=True)
class SimConfig:
    seed: int
    trials: int = 100_000
    horizon: int = 1_000

    def __post_init__(self):
        if not (is_count(self.seed, 0) and is_count(self.trials, 1)
                and is_count(self.horizon, 1)):
            raise ModelError("SimConfig: seed must be an integer >= 0, and trials and "
                             "horizon integers >= 1")

    def rng(self):
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(0,)))


def _successor_table(rows, cols, vals, shape):
    """Successor lists of the columns of the column-stochastic matrix of the
    given shape whose entries are (rows, cols, vals), duplicates summed and
    zeros dropped: succ[s] lists the positive-probability successors of
    state s in index order and prob[s] their probabilities.  Each row is
    padded to the widest by repeating its last successor with probability 0,
    so the rounding remainder that Generator.multinomial gives its last
    category stays with that successor."""
    C = _lp.csc_from_entries(rows, cols, vals, shape)
    width = np.diff(C.indptr)
    s = np.repeat(np.arange(shape[1]), width)
    rank = np.arange(C.data.size) - C.indptr[s]
    succ = np.repeat(C.indices[C.indptr[1:] - 1], width.max()).reshape(shape[1], -1)
    succ[s, rank] = C.indices
    prob = np.zeros(succ.shape)
    prob[s, rank] = C.data
    return succ, prob


def _step(table, counts, rng, size):
    """Counts over `size` states one step after `counts`: state s sends its
    counts[s] trajectories to its successors by one multinomial draw."""
    succ, prob = table
    moves = rng.multinomial(counts, prob)
    # float sums of integer counts, exact below 2**53
    return np.bincount(succ.ravel(), weights=moves.ravel(), minlength=size).astype(np.int64)


def simulate_elem(model: ElemLinkModel, policy: Policy, cfg: SimConfig):
    """Sample trajectories of the single-link chain; returns per-time
    estimates of the state distribution, F~ and X with standard errors."""
    rng = cfg.rng()
    n, t_max = model.n, cfg.horizon
    counts = np.zeros((t_max, n), dtype=np.int64)
    counts[0] = rng.multinomial(cfg.trials, g_vector(model))
    tables = {}  # successor table per decision function seen
    for t in range(1, t_max):
        d = policy.decision_at(t)
        if id(d) not in tables:
            P = policy_matrix(model, d)
            rows, cols = np.nonzero(P)
            tables[id(d)] = _successor_table(rows, cols, P[rows, cols], (n, n))
        counts[t] = _step(tables[id(d)], counts[t - 1], rng, n)
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
    end-to-end link, paired and ordered by wait, then by the state swapped
    from; trajectories that exhaust the horizon are reported, never silently
    dropped."""
    rng = cfg.rng()
    n, q = model.n, model.q
    (rows, cols, vals), S = policy_kernel(model, d)
    g = initial_distribution(model)
    # an attempt at s restarts (1 - q) S_s from g and finishes q S_s at n + s,
    # so each finished trajectory keeps the state whose f it collected
    s, r = np.flatnonzero(S), np.flatnonzero(g)
    table = _successor_table(
        np.concatenate([rows, np.tile(r, s.size), n + s]),
        np.concatenate([cols, np.repeat(s, r.size), s]),
        np.concatenate([vals, np.outer((1 - q) * S[s], g[r]).ravel(), q * S[s]]),
        (2 * n, n))
    running = rng.multinomial(cfg.trials, g)
    finished = []  # per step: the wait, the states finished from and how many
    for t in range(1, cfg.horizon + 1):
        if not running.any():
            break
        counts = _step(table, running, rng, 2 * n)
        running, fin = counts[:n], counts[n:]
        done = np.flatnonzero(fin)
        finished.append((np.full(done.size, t), done, fin[done]))
    waits, froms, k = map(np.concatenate, zip(*finished))
    return {"wait_samples": np.repeat(waits, k),
            "f_samples": np.repeat(model.f[1].reshape(-1)[froms], k),
            "exhausted": int(running.sum()), "rng": RNG_ALGORITHM}


def simulate_collective(M: int, p: float, t_req: int, cfg: SimConfig):
    """Waiting-time samples for M independent never-discarded links after a
    request at step t_req; the arguments are checked as in `waiting`.
    Raises NumericalError when a draw saturates at the int64 maximum, where
    numpy's geometric sampler clips a step it cannot represent."""
    _check("simulate_collective", M, p, t_req)
    rng = cfg.rng()
    # each link first succeeds at a geometric step; it stays up afterwards
    first_up = rng.geometric(p, size=(cfg.trials, M))
    if (first_up == np.iinfo(np.int64).max).any():
        raise NumericalError(f"simulate_collective: a first success step at p = {p:g} "
                             f"overflows int64")
    ready = first_up.max(axis=1)  # first step when all links are up
    waits = np.maximum(ready - t_req, 1)
    return {"wait_samples": waits, "rng": RNG_ALGORITHM}
