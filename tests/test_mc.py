import hashlib
import math

import numpy as np
import pytest

from entlink import elemlink, mc, twolink, waiting
from entlink.markov import DecisionFunction, ModelError, Policy


def elem_model(p=0.5, f_vals=(1.0, 0.9, 0.8)):
    return elemlink.ElemLinkModel(p, len(f_vals) - 1,
                                  np.concatenate([[0.0], f_vals]))


def test_config_validation():
    with pytest.raises(ModelError):
        mc.SimConfig(seed=1, trials=0)
    with pytest.raises(ModelError):
        mc.SimConfig(seed=1, horizon=0)
    with pytest.raises(ModelError, match="seed"):
        mc.SimConfig(seed=-1)


@pytest.mark.parametrize("kwargs", [
    {"seed": 1.5}, {"seed": True}, {"seed": np.float64(2.0)},
    {"seed": 1, "trials": 10.5}, {"seed": 1, "trials": False},
    {"seed": 1, "horizon": 3.0}, {"seed": 1, "horizon": "3"}])
def test_config_rejects_non_integers(kwargs):
    with pytest.raises(ModelError, match="integers"):
        mc.SimConfig(**kwargs)


def test_config_accepts_numpy_integers():
    cfg = mc.SimConfig(seed=np.int64(3), trials=np.int32(10), horizon=np.uint8(5))
    assert cfg.rng().random() == mc.SimConfig(seed=3).rng().random()


def test_same_seed_bitwise_reproducible():
    m = elem_model()
    pol = Policy.stationary(elemlink.cutoff_decision(m, 2))
    cfg = mc.SimConfig(seed=7, trials=5000, horizon=30)
    a = mc.simulate_elem(m, pol, cfg)
    b = mc.simulate_elem(m, pol, cfg)
    assert np.array_equal(a["freq"], b["freq"])
    assert a["rng"] == "PCG64"


def test_elem_matches_steady_state():
    m = elem_model(0.5)
    pol = Policy.stationary(elemlink.cutoff_decision(m, 2))
    cfg = mc.SimConfig(seed=11, trials=200_000, horizon=60)
    res = mc.simulate_elem(m, pol, cfg)
    ft, x, _ = elemlink.cutoff_steady_values(m, 2)
    t = 59
    assert abs(res["ftilde"][t] - ft) < 4 * res["ftilde_se"][t] + 1e-9
    assert abs(res["x"][t] - x) < 4 * res["x_se"][t] + 1e-9


def test_elem_transient_matches_closed_form():
    m = elem_model(0.35, (1.0, 0.95, 0.9, 0.85))
    pol = Policy.stationary(elemlink.cutoff_decision(m, math.inf))
    cfg = mc.SimConfig(seed=13, trials=200_000, horizon=4)
    res = mc.simulate_elem(m, pol, cfg)
    for t in (1, 2, 3):
        ft, x, _ = elemlink.cutoff_infty_transient(m, t)
        assert abs(res["ftilde"][t - 1] - ft) < 4 * res["ftilde_se"][t - 1] + 1e-9


def test_two_link_matches_analytic():
    model = twolink.TwoLinkModel(0.5, 0.5, 0.5, 2, 2, twolink.uniform_f_table(2, 2))
    d = twolink.cutoff_decision(model, 2, 2)
    cfg = mc.SimConfig(seed=17, trials=100_000, horizon=5000)
    res = mc.simulate_two_link(model, d, cfg)
    assert res["exhausted"] == 0
    w = res["wait_samples"]
    expect = twolink.analytic_symmetric_waiting_time(0.5, 0.5, 2)
    se = w.std(ddof=1) / math.sqrt(w.size)
    assert abs(w.mean() - expect) < 4 * se
    assert res["f_samples"].mean() == pytest.approx(1.0)


def test_collective_matches_closed_form():
    cfg = mc.SimConfig(seed=19, trials=150_000)
    for M, p, t_req in [(2, 0.5, 0), (4, 0.3, 2)]:
        res = mc.simulate_collective(M, p, t_req, cfg)
        w = res["wait_samples"]
        se = w.std(ddof=1) / math.sqrt(w.size)
        expect = waiting.collective_expected_infty(M, p, t_req)
        assert abs(w.mean() - expect) < 4 * se


def test_collective_validation():
    cfg = mc.SimConfig(seed=1, trials=10)
    with pytest.raises(ModelError):
        mc.simulate_collective(0, 0.5, 0, cfg)
    with pytest.raises(ModelError):
        mc.simulate_collective(1, 0.0, 0, cfg)


def _digest(*arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()[:16]


def test_golden_bytes():
    # same seed, same bytes: these digests are the dense-cumsum sampler's
    # output, which the successor tables reproduce exactly
    m = elemlink.ElemLinkModel(0.3, 4, [0, 1, .9, .8, .7, .6])
    pol = Policy.time_indexed([elemlink.cutoff_decision(m, t % 5) for t in range(40)])
    res = mc.simulate_elem(m, pol, mc.SimConfig(seed=3, trials=20_000, horizon=40))
    assert _digest(res["freq"]) == "ce82152241862908"
    # the uniform decision mixes all five actions: the widest successor lists
    model = twolink.TwoLinkModel(0.4, 0.6, 0.7, 3, 4, 0.9 * twolink.uniform_f_table(3, 4))
    res = mc.simulate_two_link(model, DecisionFunction.uniform(model.n, 5),
                               mc.SimConfig(seed=5, trials=20_000, horizon=2_000))
    assert res["exhausted"] == 0
    assert _digest(res["wait_samples"], res["f_samples"]) == "de7e3e10c0709c19"
    # a short horizon leaves some trajectories running: the samples and the
    # exhausted count pin which trajectories finish, by trial, and an f that
    # differs between swap states pins the state each one finished from
    f = twolink.uniform_f_table(5, 5)
    f[1] *= np.linspace(0.5, 1.0, 49).reshape(7, 7)
    model = twolink.TwoLinkModel(0.1, 0.2, 0.7, 5, 5, f)
    cfg = mc.SimConfig(seed=7, trials=50_000, horizon=50)
    for d, exhausted, digest in [
            (DecisionFunction.uniform(model.n, 5), 45_118, "3e346ca2e5bbb6e4"),
            (twolink.cutoff_decision(model, 5, 5), 3_258, "ec7a5687800ebba0")]:
        res = mc.simulate_two_link(model, d, cfg)
        assert res["exhausted"] == exhausted
        assert res["wait_samples"].size == cfg.trials - exhausted
        assert _digest(res["wait_samples"], res["f_samples"]) == digest


def _dense_index(column, u):
    return int((u > np.cumsum(column)).sum())


def _edge_matrix():
    P = np.zeros((10, 10))
    P[[1, 4, 6], 0] = [0.2, 0.5, 0.3]  # zeros before, between and after
    P[[0, 2, 3, 5, 6, 8, 9], 1] = 1 / 7  # running sum ends at 1 - 2**-52
    P[9, 2:] = 1.0
    return P


def test_successor_table_edge_draws():
    P = _edge_matrix()
    top = np.nextafter(1.0, 0.0)  # the largest draw of Generator.random
    assert np.cumsum(P[:, 1])[-1] < top
    table = mc._successor_table(P)
    for s in (0, 1):
        col = P[:, s]
        sums = np.cumsum(col)[col > 0]
        draws = [0.0, top]
        for c in sums:
            draws += [np.nextafter(c, 0.0), c, np.nextafter(c, 2.0)]
        for u in draws:
            got = int(mc._step(table, np.array([s]), np.array([u]))[0])
            assert col[got] > 0, (s, u)
            dense = _dense_index(col, u)
            if dense < col.size and col[dense] > 0:
                assert got == dense, (s, u)
    # where the dense rule fails, the table gives the first or last successor
    assert mc._step(table, np.array([0]), np.array([0.0]))[0] == 1
    assert _dense_index(P[:, 1], top) == 10
    assert mc._step(table, np.array([1]), np.array([top]))[0] == 9


def test_successor_table_matches_dense_rule(rng):
    n = 30
    P = rng.random((n, n)) * (rng.random((n, n)) < 0.15)
    P[rng.integers(n, size=n), np.arange(n)] += 0.01  # every column nonzero
    P /= P.sum(axis=0)
    states = rng.integers(n, size=20_000)
    u = rng.random(states.size)
    got = mc._step(mc._successor_table(P), states, u)
    dense = (u[:, None] > np.cumsum(P.T, axis=1)[states]).sum(axis=1)
    assert np.array_equal(got, dense)


def _check_against_dense(P, s):
    """Every draw at and either side of column s's running sums, and the
    extreme draws, picks the successor the dense rule picks; u = 0 picks the
    first successor, and a draw above the sum the last."""
    table = mc._successor_table(P)
    col = P[:, s]
    succ = np.flatnonzero(col)
    draws = [0.0, np.nextafter(1.0, 0.0)]
    for c in np.cumsum(col)[succ]:
        draws += [np.nextafter(c, 0.0), c, np.nextafter(c, 2.0)]
    for u in draws:
        got = int(mc._step(table, np.array([s]), np.array([u]))[0])
        assert got == (succ[0] if u == 0 else min(_dense_index(col, u), succ[-1])), (s, u)


def test_successor_table_one_successor_per_state():
    P = np.eye(5)[[2, 0, 4, 1, 3]]  # a permutation: one successor per column
    cum, nxt = mc._successor_table(P)
    assert cum.shape == (0, 5)
    states = np.arange(5).repeat(3)
    u = np.tile([0.0, 0.5, np.nextafter(1.0, 0.0)], 5)
    assert np.array_equal(mc._step((cum, nxt), states, u), P.argmax(axis=0)[states])
    for s in range(5):
        _check_against_dense(P, s)


def test_successor_table_two_successors_at_most():
    P = np.zeros((4, 4))
    P[[1, 3], 0] = [0.3, 0.7]
    P[[0, 2], 1] = [0.25, 0.75]
    P[2, 2] = 1.0
    P[[0, 3], 3] = [0.5, 0.5]
    cum, _ = mc._successor_table(P)
    assert cum.shape == (1, 4)
    for s in range(4):
        _check_against_dense(P, s)
