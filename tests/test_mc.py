import math

import numpy as np
import pytest

from entlink import elemlink, mc, twolink, waiting
from entlink.markov import ModelError, Policy


def elem_model(p=0.5, f_vals=(1.0, 0.9, 0.8)):
    return elemlink.ElemLinkModel(p, len(f_vals) - 1,
                                  np.concatenate([[0.0], f_vals]))


def test_config_validation():
    with pytest.raises(ModelError):
        mc.SimConfig(seed=1, trials=0)
    with pytest.raises(ModelError):
        mc.SimConfig(seed=1, horizon=0)


def test_same_seed_bitwise_reproducible():
    m = elem_model()
    pol = Policy.stationary(elemlink.cutoff_decision(m, 2))
    cfg = mc.SimConfig(seed=7, trials=5000, horizon=30)
    a = mc.simulate_elem(m, pol, cfg)
    b = mc.simulate_elem(m, pol, cfg)
    assert np.array_equal(a["freq"], b["freq"])
    assert a["rng"] == "PCG64"


def test_different_streams_differ():
    cfg = mc.SimConfig(seed=7, trials=100)
    assert cfg.rng(0).random() != cfg.rng(1).random()


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
