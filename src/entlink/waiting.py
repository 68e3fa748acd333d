"""Collective waiting time of M continuously regenerated links, and of the
virtual link joined from them.

Every formula assumes the never-discard regime: once a link is up it stays
up, so by the time a request arrives at step t_req each link has had
t_req + 1 attempts.  One link under any stationary decision, discarding
included, is `elemlink.expected_waiting_time`.
"""

from __future__ import annotations

import math

import numpy as np

from .markov import ModelError, NumericalError, is_count, is_probability


def _pk(p, k):
    return 1 - (1 - p) ** k


def _check(name, M, p, t_req):
    if not (is_probability(p) and p > 0):
        raise ModelError(f"{name}: p must be a real number in (0, 1]")
    for value, low in ((M, 1), (t_req, 0)):
        if not is_count(value, low):
            raise ModelError(f"{name}: M must be an integer >= 1, t_req an integer >= 0")


def collective_pmf_infty(M: int, p: float, t_req: int, t):
    """Pr[all M links first simultaneously active t steps after the request],
    a float for an integer t and an array for an integer array t."""
    _check("collective_pmf_infty", M, p, t_req)
    t = np.asarray(t)
    if not np.issubdtype(t.dtype, np.integer) or np.any(t < 1):
        raise ModelError("collective_pmf_infty: t must be an integer >= 1")
    head = _pk(p, t_req + 1)
    hi = (1 - (1 - head) * (1 - p) ** (t - 1)) ** M
    lo = (1 - (1 - head) * (1 - p) ** np.maximum(t - 2, 0)) ** M
    pmf = np.where(t == 1, head ** M, hi - lo)
    return pmf if pmf.ndim else float(pmf)


def _binomial_rows(M, p):
    """Yield the Bin(j; m, p) weights, j = 0..m, for m = 1..M.  Pascal's rule
    builds each weight as a sum of non-negative terms, row m over row m - 1
    in one array: each yielded row is a view that the next one overwrites."""
    w = np.zeros(M + 1)
    w[0] = 1.0
    for m in range(1, M + 1):
        w[1:m + 1] = w[1:m + 1] * (1 - p) + w[:m] * p  # w[m] was 0: 0 + w[m-1] p
        w[0] *= 1 - p
        yield w[:m + 1]


# M^2 up to which the recursion runs, so small M keep its bits (M <= 1000)
RECURSION_TERMS = 10**6
# the most terms either form may take: a few seconds
MAX_TERMS = 10**8
_CHUNK = 2**20  # tail-sum terms per vector


def _recursion(M, p, t_req):
    """The wait E_m for m links still down solves E_m (1 - (1-p)^m) =
    1 + sum_{j>=1} Bin(j; m, p) E_{m-j}, and E[W] = 1 + sum_k Bin(k; M, head)
    E_{M-k} with head = 1 - (1-p)^(t_req+1) the share up at the first step:
    M^2 / 2 terms."""
    E = np.zeros(M + 1)
    for m, w in enumerate(_binomial_rows(M, p), start=1):
        E[m] = (1 + w[1:] @ E[m - 1::-1]) / w[1:].sum()
    *_, head = _binomial_rows(M, _pk(p, t_req + 1))
    return float(1 + head @ E[::-1])


def _tail_terms(M, p, t_req):
    """How many terms `_tail_sum` adds, rounded up: past j = (ln M - ln p +
    40) / -ln(1-p) the rest of the tail is below M (1-p)^j / p <= e^-40."""
    if p == 1:
        return 0.0
    return max(0.0, (math.log(M) - math.log(p) + 40) / -math.log1p(-p) - t_req)


def _tail_sum(M, p, t_req):
    """E[W] = 1 + sum_{t>=1} Pr[W > t], where a link is down at step t with
    probability (1-p)^(t_req+t), so Pr[W > t] = 1 - (1 - (1-p)^(t_req+t))^M,
    each term positive as -expm1(M log1p(-(1-p)^(t_req+t)))."""
    total, terms = 1.0, math.ceil(_tail_terms(M, p, t_req))
    for start in range(0, terms, _CHUNK):
        j = t_req + 1.0 + np.arange(start, min(start + _CHUNK, terms))
        total += -np.expm1(M * np.log1p(-np.exp(j * math.log1p(-p)))).sum()
    return float(total)


def collective_expected_infty(M: int, p: float, t_req: int) -> float:
    """Expected collective waiting time from non-negative terms only: by the
    recursion over the links still down while M^2 <= RECURSION_TERMS or it
    needs fewer terms, else by the tail sum.  ModelError when both need more
    than MAX_TERMS, NumericalError when the wait, about H_M / p, overflows a
    float."""
    _check("collective_expected_infty", M, p, t_req)
    square, tail = int(M) ** 2, _tail_terms(M, p, t_req)
    if min(square, tail) > MAX_TERMS:
        raise ModelError(f"collective_expected_infty: M = {M}, p = {p:g} needs more than "
                         f"{MAX_TERMS:.0e} terms")
    with np.errstate(over="ignore", invalid="ignore"):
        wait = (_recursion if square <= max(RECURSION_TERMS, tail) else _tail_sum)(M, p, t_req)
    if not math.isfinite(wait):
        raise NumericalError(f"collective_expected_infty: the wait at M = {M}, p = {p:g} "
                             f"overflows a float")
    return wait


def virtual_expected(collective_expected: float, q: float) -> float:
    """Expected virtual-link waiting time: collective waiting scaled by the
    mean number of joining attempts (independent geometric with success q)."""
    if not (is_probability(q) and q > 0):
        raise ModelError("virtual_expected: q must be a real number in (0, 1]")
    if not 0 <= collective_expected < np.inf:  # NaN fails too
        raise ModelError("virtual_expected: the collective wait must be finite and >= 0")
    return collective_expected / q
