import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entlink import waiting as W
from entlink.markov import ModelError


def test_pmf_is_a_distribution():
    for M in (1, 2, 4):
        for p in (0.2, 0.6):
            for t_req in (0, 3):
                total = sum(W.collective_pmf_infty(M, p, t_req, t)
                            for t in range(1, 3000))
                assert total == pytest.approx(1.0, abs=1e-10)


def test_expected_equals_pmf_sum():
    for M in (1, 3, 6):
        for p in (0.15, 0.5, 0.9):
            for t_req in (0, 2, 5):
                s = sum(t * W.collective_pmf_infty(M, p, t_req, t)
                        for t in range(1, 4000))
                assert W.collective_expected_infty(M, p, t_req) == pytest.approx(
                    s, abs=1e-8)


def test_expected_equals_pmf_sum_many_links():
    # inclusion-exclusion over M terms cancelled catastrophically here
    # (524.40 instead of 466.14 at M=60, p=0.01; -2.07e42 at M=200)
    for M in (20, 60, 200):
        for p, t_req in ((0.01, 0), (0.01, 30), (0.3, 2)):
            s = sum(t * W.collective_pmf_infty(M, p, t_req, t)
                    for t in range(1, 9000))
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


def test_elem_expected_general_matches_collective():
    # never-discard hazards: already-active head at the first step, then p
    p, t_req = 0.3, 2

    def hazard(t):
        return 1 - (1 - p) ** (t_req + 1) if t == t_req + 1 else p

    e, tail = W.elem_expected_general(hazard, t_req)
    assert tail < 1e-11
    assert e == pytest.approx(W.collective_expected_infty(1, p, t_req), abs=1e-8)


def test_hazard_trace_from_chain_matches_collective():
    from entlink import elemlink
    from entlink.markov import Policy
    import math

    # m_star far beyond the truncation horizon, so the storage-bound
    # wraparound never fires and the chain is effectively never-discard
    p, t_req = 0.4, 3
    m = elemlink.ElemLinkModel(p, 200, np.concatenate([[0.0], np.ones(201)]))
    pol = Policy.stationary(elemlink.cutoff_decision(m, math.inf))
    h = W.hazard_trace(elemlink.build_mdp(m), pol, elemlink.g_vector(m), t_req)
    assert h(t_req + 1) == pytest.approx(1 - (1 - p) ** (t_req + 1), abs=1e-12)
    assert h(t_req + 2) == pytest.approx(p, abs=1e-12)
    e, _ = W.elem_expected_general(h, t_req)
    assert e == pytest.approx(W.collective_expected_infty(1, p, t_req), abs=1e-8)


def test_elem_expected_general_rejects_bad_trace():
    with pytest.raises(ModelError):
        W.elem_expected_general(lambda t: 1.5, 0)
    with pytest.raises(ModelError):
        W.elem_expected_general(lambda t: 0.0, 0, horizon=50)


def test_virtual_expected():
    assert W.virtual_expected(4.0, 0.5) == pytest.approx(8.0)
    assert W.virtual_expected(4.0, 1.0) == pytest.approx(4.0)
    with pytest.raises(ModelError):
        W.virtual_expected(4.0, 0.0)


def test_argument_validation():
    with pytest.raises(ModelError):
        W.collective_pmf_infty(0, 0.5, 0, 1)
    with pytest.raises(ModelError):
        W.collective_pmf_infty(1, 0.5, 0, 0)
    with pytest.raises(ModelError):
        W.collective_expected_infty(1, 0.0, 0)
