"""Waiting-time statistics for one or more continuously regenerated links.

All formulas assume the never-discard regime: once a link is up it stays
up, so by the time a request arrives at step t_req each link has had
t_req + 1 attempts.
"""

from __future__ import annotations

import numpy as np

from .markov import ModelError, policy_matrix

TAIL_TOL = 1e-12
HORIZON = 10_000  # most hazard terms `elem_expected_general` sums


def _pk(p, k):
    return 1 - (1 - p) ** k


def collective_pmf_infty(M: int, p: float, t_req: int, t):
    """Pr[all M links first simultaneously active t steps after the request],
    a float for an integer t and an array for an integer array t."""
    t = np.asarray(t)
    if np.any(t < 1):
        raise ModelError("collective_pmf_infty: t must be >= 1")
    if M < 1 or t_req < 0:
        raise ModelError("collective_pmf_infty: bad M or t_req")
    head = _pk(p, t_req + 1)
    hi = (1 - (1 - head) * (1 - p) ** (t - 1)) ** M
    lo = (1 - (1 - head) * (1 - p) ** np.maximum(t - 2, 0)) ** M
    pmf = np.where(t == 1, head ** M, hi - lo)
    return pmf if pmf.ndim else float(pmf)


def _binomial_rows(M, p):
    """Yield the Bin(j; m, p) weights, j = 0..m, for m = 1..M.  Pascal's rule
    builds each weight as a sum of non-negative terms."""
    w = np.ones(1)
    for _ in range(M):
        w = np.append(w * (1 - p), 0.0) + np.insert(w * p, 0, 0.0)
        yield w


def collective_expected_infty(M: int, p: float, t_req: int) -> float:
    """Expected collective waiting time from non-negative terms only: the
    wait E_m for m links still down solves E_m (1 - (1-p)^m) =
    1 + sum_{j>=1} Bin(j; m, p) E_{m-j}, and E[W] = 1 + sum_k Bin(k; M, head)
    E_{M-k} with head = 1 - (1-p)^(t_req+1) the share up at the first step."""
    if not 0 < p <= 1:
        raise ModelError("collective_expected_infty: p must lie in (0, 1]")
    if M < 1 or t_req < 0:
        raise ModelError("collective_expected_infty: bad M or t_req")
    E = np.zeros(M + 1)
    for m, w in enumerate(_binomial_rows(M, p), start=1):
        E[m] = (1 + w[1:] @ E[m - 1::-1]) / w[1:].sum()
    *_, head = _binomial_rows(M, _pk(p, t_req + 1))
    return float(1 + head @ E[::-1])


def hazard_trace(mdp, policy, initial, t_req: int):
    """Yield the hazards h_k = Pr[link active at step t_req + k given
    inactive at steps t_req+1 .. t_req+k-1], k = 1, 2, ..., of a single-link
    chain: the sequence that makes the waiting-time product form exact.  The
    chain starts from the ProbVector `initial` at step 1 and evolves under
    `policy`; being active means being in any state other than 0, the
    inactive state.  The sequence ends after a hazard of exactly 1, when no
    inactive mass is left."""
    if t_req < 0:
        raise ModelError("hazard_trace: t_req must be >= 0")
    v = initial.entries
    for step in range(1, t_req + 1):
        v = policy_matrix(mdp, policy.decision_at(step)).entries @ v
    t = t_req + 1
    while (total := v.sum()) > 0:
        yield 1.0 - v[0] / total
        pruned = np.zeros_like(v)
        pruned[0] = v[0]
        v = policy_matrix(mdp, policy.decision_at(t)).entries @ pruned
        t += 1


def elem_expected_general(hazards):
    """Expected waiting time for a single link from its hazard sequence.

    hazards: iterable of h_k = Pr[active k steps after the request |
    inactive at the k-1 steps before], k = 1, 2, ... (see hazard_trace).
    Returns (expectation, tail_bound); the sum is truncated once a geometric
    envelope on the remaining mass drops below 1e-12.
    """
    total = 0.0
    survive = 1.0  # prob the link was never active at steps 1 .. current-1
    for t, x in zip(range(1, HORIZON + 1), hazards):
        x = float(x)
        if not 0 <= x <= 1 + 1e-12:
            raise ModelError("elem_expected_general: X outside [0, 1]")
        total += t * survive * x
        survive *= 1 - x
        if survive < TAIL_TOL and x > 0:
            # remaining mass bounded by survive * (t + 1/x) / x style envelope
            tail = survive * (t + 1 / x) / x
            if tail < TAIL_TOL:
                return total, tail
    if survive > 1e-6:
        raise ModelError("elem_expected_general: series not converging "
                         f"(surviving mass {survive:g} at horizon {HORIZON})")
    return total, survive * HORIZON


def virtual_expected(collective_expected: float, q: float) -> float:
    """Expected virtual-link waiting time: collective waiting scaled by the
    mean number of joining attempts (independent geometric with success q)."""
    if not 0 < q <= 1:
        raise ModelError("virtual_expected: q must lie in (0, 1]")
    return collective_expected / q
