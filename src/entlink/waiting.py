"""Waiting-time statistics for one or more continuously regenerated links.

All formulas assume the never-discard regime: once a link is up it stays
up, so by the time a request arrives at step t_req each link has had
t_req + 1 attempts.
"""

from __future__ import annotations

import numpy as np

from .markov import ModelError, policy_matrix

TAIL_TOL = 1e-12


def _pk(p, k):
    return 1 - (1 - p) ** k


def collective_pmf_infty(M: int, p: float, t_req: int, t: int) -> float:
    """Pr[all M links first simultaneously active t steps after the request]."""
    if t < 1:
        raise ModelError("collective_pmf_infty: t must be >= 1")
    if M < 1 or t_req < 0:
        raise ModelError("collective_pmf_infty: bad M or t_req")
    head = _pk(p, t_req + 1)
    if t == 1:
        return head ** M
    hi = (1 - (1 - head) * (1 - p) ** (t - 1)) ** M
    lo = (1 - (1 - head) * (1 - p) ** (t - 2)) ** M
    return hi - lo


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


def hazard_trace(mdp, policy, initial, t_req: int, inactive_index: int = 0):
    """Conditional activity probabilities for a single-link chain.

    Returns a callable h with h(t_req + k) = Pr[link active at step t_req+k
    given inactive at steps t_req+1 .. t_req+k-1], the hazard sequence that
    makes the waiting-time product form exact.  The chain starts from
    `initial` at step 1 and evolves under `policy`; being active means being
    in any state other than `inactive_index`.
    """
    v = np.asarray(initial.entries if hasattr(initial, "entries") else initial,
                   dtype=float).copy()
    for step in range(1, t_req + 1):
        v = policy_matrix(mdp, policy.decision_at(step)).entries @ v
    cache = []
    state = {"v": v, "t": t_req + 1}

    def h(t):
        k = t - t_req
        if k < 1:
            raise ModelError("hazard_trace: t must exceed t_req")
        while len(cache) < k:
            v = state["v"]
            total = v.sum()
            if total <= 0:
                cache.append(1.0)  # no surviving mass; value is immaterial
                continue
            cache.append(1.0 - v[inactive_index] / total)
            pruned = np.zeros_like(v)
            pruned[inactive_index] = v[inactive_index]
            P = policy_matrix(mdp, policy.decision_at(state["t"])).entries
            state["v"] = P @ pruned
            state["t"] += 1
        return cache[k - 1]

    return h


def elem_expected_general(x_trace, t_req: int, horizon: int = 10_000):
    """Expected waiting time for a single link from its hazard sequence.

    x_trace: callable t -> Pr[active at step t | inactive at steps
    t_req+1 .. t-1], for t > t_req (see hazard_trace).  Returns
    (expectation, tail_bound); the sum is truncated once a geometric
    envelope on the remaining mass drops below 1e-12.
    """
    if t_req < 0:
        raise ModelError("elem_expected_general: t_req must be >= 0")
    total = 0.0
    survive = 1.0  # prob the link was never active at t_req+1 .. current-1
    for t in range(1, horizon + 1):
        x = float(x_trace(t_req + t))
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
                         f"(surviving mass {survive:g} at horizon {horizon})")
    return total, survive * horizon


def virtual_expected(collective_expected: float, q: float) -> float:
    """Expected virtual-link waiting time: collective waiting scaled by the
    mean number of joining attempts (independent geometric with success q)."""
    if not 0 < q <= 1:
        raise ModelError("virtual_expected: q must lie in (0, 1]")
    return collective_expected / q
