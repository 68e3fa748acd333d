import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entlink import elemlink, waiting as W
from entlink.markov import DecisionFunction, ModelError, NumericalError


def test_pmf_is_a_distribution():
    t = np.arange(1, 3000)
    for M in (1, 2, 4):
        for p in (0.2, 0.6):
            for t_req in (0, 3):
                total = math.fsum(W.collective_pmf_infty(M, p, t_req, t))
                assert total == pytest.approx(1.0, abs=1e-10)


def test_expected_equals_pmf_sum():
    t = np.arange(1, 4000)
    for M in (1, 3, 6):
        for p in (0.15, 0.5, 0.9):
            for t_req in (0, 2, 5):
                s = math.fsum(t * W.collective_pmf_infty(M, p, t_req, t))
                assert W.collective_expected_infty(M, p, t_req) == pytest.approx(
                    s, abs=1e-8)


def test_expected_equals_pmf_sum_many_links():
    # inclusion-exclusion over M terms cancelled catastrophically here
    # (524.40 instead of 466.14 at M=60, p=0.01; -2.07e42 at M=200)
    t = np.arange(1, 9000)
    for M in (20, 60, 200):
        for p, t_req in ((0.01, 0), (0.01, 30), (0.3, 2)):
            s = math.fsum(t * W.collective_pmf_infty(M, p, t_req, t))
            assert W.collective_expected_infty(M, p, t_req) == pytest.approx(
                s, rel=1e-10)
    assert W.collective_expected_infty(60, 0.01, 0) == pytest.approx(466.14, abs=0.01)


def test_single_link_is_geometric():
    for p in (0.1, 0.37, 1.0):
        assert W.collective_expected_infty(1, p, 0) == pytest.approx(1 / p, abs=1e-12)


def test_p_one_gives_unit_waiting():
    for M in (1, 2, 5):
        assert W.collective_expected_infty(M, 1.0, 3) == pytest.approx(1.0)
        assert W.collective_pmf_infty(M, 1.0, 3, 1) == pytest.approx(1.0)


def test_t_req_reduces_waiting():
    vals = [W.collective_expected_infty(3, 0.3, t) for t in (0, 1, 5, 20)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    # in the long-request limit every link is already up
    assert W.collective_expected_infty(3, 0.3, 200) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=6),
       st.floats(min_value=0.05, max_value=1.0),
       st.integers(min_value=0, max_value=8))
def test_expected_monotone_in_M(M, p, t_req):
    a = W.collective_expected_infty(M, p, t_req)
    b = W.collective_expected_infty(M + 1, p, t_req)
    assert b >= a - 1e-9
    assert a >= 1 - 1e-12


def test_collective_wait_of_many_links_takes_the_tail_sum():
    # the recursion's Pascal rows are O(M^2): M = 100000 ran for minutes
    t0 = time.perf_counter()
    wait = W.collective_expected_infty(100_000, 0.3, 2)
    assert time.perf_counter() - t0 < 0.1
    assert wait == W._tail_sum(100_000, 0.3, 2)
    for M, p in ((4000, 0.3), (1000, 1e-3), (16000, 0.3)):
        assert W._tail_sum(M, p, 2) == pytest.approx(W._recursion(M, p, 2), rel=1e-13, abs=0)


def test_collective_wait_past_both_term_bounds_raises():
    # M^2 = 1e10 recursion terms and ~6e10 tail-sum terms
    with pytest.raises(ModelError, match="needs more than"):
        W.collective_expected_infty(100_000, 1e-9, 0)


def _never_discard(p):
    # m_star beyond every t_req below, so the storage bound never fires
    m = elemlink.ElemLinkModel(p, 200, np.concatenate([[0.0], np.ones(201)]))
    return m, elemlink.cutoff_decision(m, math.inf)


@pytest.mark.parametrize("p", [0.3, 0.4, 1e-3, 1e-6])
def test_single_link_wait_matches_collective(p):
    m, d = _never_discard(p)
    for t_req in (0, 1, 2, 3, 20, 150):
        assert elemlink.expected_waiting_time(m, d, t_req) == pytest.approx(
            W.collective_expected_infty(1, p, t_req), rel=1e-12, abs=0)


def test_single_link_wait_rejects_bad_input():
    m, d = _never_discard(0.3)
    with pytest.raises(ModelError):
        elemlink.expected_waiting_time(m, d, -1)
    never_request = d.table.copy()
    never_request[0] = (1.0, 0.0)
    with pytest.raises(ModelError, match="no finite wait"):
        elemlink.expected_waiting_time(m, DecisionFunction(never_request), 2)
    for p in (0.0, 5e-324):  # no regeneration, and a wait that overflows
        m, d = _never_discard(p)
        with pytest.raises(ModelError, match="no finite wait"):
            elemlink.expected_waiting_time(m, d, 0)
    # a link surely active at t_req + 1 waits one step, regenerating or not
    m, d = _never_discard(1.0)
    assert elemlink.expected_waiting_time(m, DecisionFunction(never_request), 0) == 1.0


def test_virtual_expected():
    assert W.virtual_expected(4.0, 0.5) == pytest.approx(8.0)
    assert W.virtual_expected(4.0, 1.0) == pytest.approx(4.0)
    with pytest.raises(ModelError):
        W.virtual_expected(4.0, 0.0)


@pytest.mark.parametrize("wait", [-3.0, math.nan, math.inf, -math.inf])
def test_virtual_expected_rejects_bad_collective_wait(wait):
    # a negative wait once gave virtual_expected(-3.0, 0.5) = -6.0, NaN gave NaN
    with pytest.raises(ModelError):
        W.virtual_expected(wait, 0.5)


@pytest.mark.parametrize("q", [True, "0.5"], ids=["bool", "str"])
def test_virtual_expected_rejects_a_non_probability_q(q):
    # virtual_expected(2.0, True) gave 2.0, and "0.5" raised a bare TypeError
    with pytest.raises(ModelError, match="q must be a real number"):
        W.virtual_expected(2.0, q)


def test_argument_validation():
    with pytest.raises(ModelError):
        W.collective_pmf_infty(0, 0.5, 0, 1)
    with pytest.raises(ModelError):
        W.collective_pmf_infty(1, 0.5, 0, 0)
    with pytest.raises(ModelError):
        W.collective_expected_infty(1, 0.0, 0)


# p = 1.5 once gave the "pmf" [2.25, -1.6875, 0.703125] at t = 1..3 and an
# expected wait of 3.4035 at M = 2, t_req = 1.5; M = 2.0 raised a TypeError;
# a bool is no count
@pytest.mark.parametrize("M, p, t_req", [
    (2, 1.5, 0), (2, -0.2, 0), (2, 0.0, 0), (2, math.nan, 0),
    (2, 0.3, 1.5), (2, 0.3, 2.0), (2, 0.3, -1), (2.0, 0.3, 0), (0, 0.3, 0),
    (True, 0.3, 0), (2, 0.3, False), (2, True, 0), (2, np.True_, 0), (2, "0.5", 0)])
def test_bad_model_raises(M, p, t_req):
    with pytest.raises(ModelError):
        W.collective_pmf_infty(M, p, t_req, 1)
    with pytest.raises(ModelError):
        W.collective_expected_infty(M, p, t_req)


@pytest.mark.parametrize("t", [1.5, 2.0, np.array([1.0, 2.0]), np.array([1, 0]), 0])
def test_pmf_needs_integer_t_from_one(t):
    with pytest.raises(ModelError, match="t must be an integer"):
        W.collective_pmf_infty(2, 0.3, 0, t)


def test_numpy_integers_are_accepted():
    assert W.collective_expected_infty(np.int64(2), 0.3, np.int64(1)) == \
        W.collective_expected_infty(2, 0.3, 1)
    assert W.collective_pmf_infty(2, 0.3, np.int64(1), np.int64(3)) == \
        W.collective_pmf_infty(2, 0.3, 1, 3)


def _pmf_scalar_reference(M, p, t_req, t):
    """The pmf for one integer t, term by term as first written."""
    head = 1 - (1 - p) ** (t_req + 1)
    if t == 1:
        return head ** M
    hi = (1 - (1 - head) * (1 - p) ** (t - 1)) ** M
    lo = (1 - (1 - head) * (1 - p) ** (t - 2)) ** M
    return hi - lo


def test_pmf_over_an_array_of_t_matches_scalar_formula():
    t = np.arange(1, 600)
    for M in (1, 6, 200):
        for p in (0.01, 0.3, 0.9, 1.0):
            for t_req in (0, 1, 5):
                got = W.collective_pmf_infty(M, p, t_req, t)
                want = [_pmf_scalar_reference(M, p, t_req, int(k)) for k in t]
                assert got.shape == t.shape
                assert got == pytest.approx(want, abs=1e-13)


def test_pmf_scalar_t_gives_float_and_bad_t_raises():
    for t in (1, 3, np.int64(7)):
        v = W.collective_pmf_infty(3, 0.4, 1, t)
        assert type(v) is float
        assert v == pytest.approx(_pmf_scalar_reference(3, 0.4, 1, int(t)), abs=1e-15)
    with pytest.raises(ModelError):
        W.collective_pmf_infty(2, 0.5, 0, np.array([3, 0, 5]))
    with pytest.raises(ModelError):
        W.collective_pmf_infty(2, 0.5, 0, np.array([-1]))


def test_collective_wait_that_overflows_raises():
    # the true wait, about H_M / p, overflows a float: the recursion
    # returned NaN with two RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="the wait at M = 2, .* overflows a float"):
            W.collective_expected_infty(2, 5e-324, 0)
        assert W.collective_expected_infty(2, 1e-300, 0) == pytest.approx(1.5e300)


def test_binomial_rows_are_bitwise_the_append_insert_rule():
    # each row built in place does the additions that np.append and
    # np.insert spelled out, in the same order
    for p in (1e-12, 0.1, 1 / 3, 0.5, 0.7, 0.9, 1.0):
        for M in (1, 2, 1000):
            w = np.ones(1)
            for row in W._binomial_rows(M, p):
                w = np.append(w * (1 - p), 0.0) + np.insert(w * p, 0, 0.0)
                assert row.tobytes() == w.tobytes()
            assert len(w) == M + 1
