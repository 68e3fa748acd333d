import hashlib
import math

import numpy as np
import pytest

from entlink import elemlink, mc, oracles, twolink, waiting
from entlink.markov import DecisionFunction, ModelError, Policy, evolve, policy_matrix


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
    # same seed, same bytes: these digests are the count sampler's output,
    # which also depends on numpy's binomial sampler
    m = elemlink.ElemLinkModel(0.3, 4, [0, 1, .9, .8, .7, .6])
    pol = Policy.time_indexed([elemlink.cutoff_decision(m, t % 5) for t in range(40)])
    res = mc.simulate_elem(m, pol, mc.SimConfig(seed=3, trials=20_000, horizon=40))
    assert _digest(res["freq"]) == "7fe05b3274e2e241"
    # the uniform decision mixes all five actions: the widest successor lists
    model = twolink.TwoLinkModel(0.4, 0.6, 0.7, 3, 4, 0.9 * twolink.uniform_f_table(3, 4))
    res = mc.simulate_two_link(model, DecisionFunction.uniform(model.n, 5),
                               mc.SimConfig(seed=5, trials=20_000, horizon=2_000))
    assert res["exhausted"] == 0
    assert _digest(res["wait_samples"], res["f_samples"]) == "32192c0873acbdc0"
    # a short horizon leaves some trajectories running: the samples and the
    # exhausted count pin how many finish at each wait, and an f that differs
    # between swap states pins the states they finished from
    f = twolink.uniform_f_table(5, 5)
    f[1] *= np.linspace(0.5, 1.0, 49).reshape(7, 7)
    model = twolink.TwoLinkModel(0.1, 0.2, 0.7, 5, 5, f)
    cfg = mc.SimConfig(seed=7, trials=50_000, horizon=50)
    for d, exhausted, digest in [
            (DecisionFunction.uniform(model.n, 5), 45_264, "2cf13619cc6eae10"),
            (twolink.cutoff_decision(model, 5, 5), 3_174, "dc767e621b51778c")]:
        res = mc.simulate_two_link(model, d, cfg)
        assert res["exhausted"] == exhausted
        assert res["wait_samples"].size == cfg.trials - exhausted
        assert _digest(res["wait_samples"], res["f_samples"]) == digest


def _random_entries(rng, n, m):
    """Entries of a random column-stochastic (m, n) matrix, with duplicates
    and explicit zeros among them, and the dense matrix they sum to."""
    P = rng.random((m, n)) * (rng.random((m, n)) < 0.2)
    P[rng.integers(m, size=n), np.arange(n)] += 0.01  # every column nonzero
    P /= P.sum(axis=0)
    rows, cols = np.nonzero(P)
    half = rng.random(rows.size) < 0.3  # split into two entries
    return (np.concatenate([rows, rows[half], rng.integers(m, size=10)]),
            np.concatenate([cols, cols[half], rng.integers(n, size=10)]),
            np.concatenate([P[rows, cols] * np.where(half, 0.5, 1), 0.5 * P[rows, cols][half],
                            np.zeros(10)]), P)


def test_successor_table_holds_only_positive_successors(rng):
    for n, m in [(1, 1), (5, 5), (30, 30), (12, 24)]:
        rows, cols, vals, P = _random_entries(rng, n, m)
        succ, prob = mc._successor_table(rows, cols, vals, (m, n))
        width = (P > 0).sum(axis=0)
        assert succ.shape == prob.shape == (n, width.max())
        for s in range(n):
            w = width[s]
            assert np.array_equal(succ[s, :w], np.flatnonzero(P[:, s]))
            assert np.allclose(prob[s, :w], P[succ[s, :w], s], rtol=1e-15, atol=0)
            assert np.all(prob[s, :w] > 0)
            # the padding repeats the last successor with probability 0
            assert np.all(succ[s, w:] == succ[s, w - 1]) and np.all(prob[s, w:] == 0)


def test_step_moves_only_to_positive_successors(rng):
    rows, cols, vals, P = _random_entries(rng, 30, 40)
    table = mc._successor_table(rows, cols, vals, (40, 30))
    for s in range(30):
        counts = np.zeros(30, dtype=np.int64)
        counts[s] = 100_000
        out = mc._step(table, counts, rng, 40)
        assert out.dtype == np.int64 and out.sum() == 100_000
        assert np.all(out[P[:, s] == 0] == 0), s


class _FixedMoves:
    """Stands in for a Generator whose multinomial returns given moves."""

    def __init__(self, moves):
        self.moves = moves

    def multinomial(self, counts, prob):
        assert np.array_equal(self.moves.sum(axis=1), counts)
        return self.moves


def test_remainder_goes_to_the_last_successor():
    # column 1's seven entries of 1/7 sum to 1 - 2**-52 and column 0 is wider,
    # so column 1 is padded: Generator.multinomial gives whatever the rounding
    # leaves to the last category, which for column 1 is padding
    P = np.zeros((10, 3))
    P[:8, 0] = 1 / 8
    P[[0, 2, 3, 5, 6, 8, 9], 1] = 1 / 7
    P[4, 2] = 1.0
    assert np.cumsum(P[:, 1])[-1] == 1 - 2 ** -52
    rows, cols = np.nonzero(P)
    table = mc._successor_table(rows, cols, P[rows, cols], (10, 3))
    moves = np.zeros((3, 8), dtype=np.int64)
    moves[1, [0, 6, 7]] = [1, 2, 3]  # the last successor, 9, then padding
    moves[2, [0, 7]] = [4, 5]
    out = mc._step(table, moves.sum(axis=1), _FixedMoves(moves), 10)
    assert np.array_equal(out, np.bincount([0] + [9] * 5 + [4] * 9, minlength=10))
    # numpy accepts the short row, and every count lands on a successor
    for s in range(3):
        counts = np.zeros(3, dtype=np.int64)
        counts[s] = 10 ** 12
        out = mc._step(table, counts, np.random.default_rng(s), 10)
        assert out.sum() == 10 ** 12 and np.all(out[P[:, s] == 0] == 0)


def test_counts_are_conserved():
    m = elem_model(0.3, (1.0, 0.9, 0.8, 0.7))
    pol = Policy.stationary(elemlink.cutoff_decision(m, 2))
    res = mc.simulate_elem(m, pol, mc.SimConfig(seed=2, trials=12_345, horizon=30))
    assert np.all(np.rint(res["freq"] * 12_345).sum(axis=1) == 12_345)
    model = twolink.TwoLinkModel(0.1, 0.2, 0.7, 3, 3, twolink.uniform_f_table(3, 3))
    for d in (DecisionFunction.uniform(model.n, 5), twolink.cutoff_decision(model, 3, 3)):
        for horizon in (1, 7, 60, 10_000):
            res = mc.simulate_two_link(model, d, mc.SimConfig(seed=3, trials=9_999,
                                                              horizon=horizon))
            w = res["wait_samples"]
            # running plus finished equals trials
            assert w.size + res["exhausted"] == 9_999
            assert w.size == res["f_samples"].size and np.all(np.diff(w) >= 0)
            assert np.all((w >= 1) & (w <= horizon))


def test_two_link_exhausted_count_matches_survival_mass():
    # the count still running at the horizon is Binomial(trials, 1^T (P^d)^50 g)
    f = twolink.uniform_f_table(5, 5)
    f[1] *= np.linspace(0.5, 1.0, 49).reshape(7, 7)
    model = twolink.TwoLinkModel(0.1, 0.2, 0.7, 5, 5, f)
    mdp, _, g = oracles.two_link_absorbing_chain(model)
    trials = 50_000
    for d, exact in [(DecisionFunction.uniform(model.n, 5), 45_311.8),
                     (twolink.cutoff_decision(model, 5, 5), 3_246.0)]:
        table = np.vstack([d.table, np.eye(5)[0]])  # any action at `done`
        P = policy_matrix(mdp, DecisionFunction(table)).entries
        alive = 1 - (np.linalg.matrix_power(P, 50) @ g)[-1]
        assert trials * alive == pytest.approx(exact, abs=0.05)
        for seed in range(7, 12):
            res = mc.simulate_two_link(model, d, mc.SimConfig(seed=seed, trials=trials,
                                                              horizon=50))
            z = (res["exhausted"] - trials * alive) / math.sqrt(trials * alive * (1 - alive))
            assert abs(z) <= 4, (seed, res["exhausted"])


def test_elem_counts_match_evolve():
    # each time's count of every state is Binomial(trials, evolve's mass)
    m = elemlink.ElemLinkModel(0.3, 4, [0, 1, .9, .8, .7, .6])
    pol = Policy.time_indexed([elemlink.cutoff_decision(m, t % 5) for t in range(40)])
    trials = 20_000
    res = mc.simulate_elem(m, pol, mc.SimConfig(seed=3, trials=trials, horizon=40))
    mdp = elemlink.build_mdp(m)
    for t in range(1, 41):
        pi = evolve(mdp, pol, elemlink.g_vector(m), t).entries
        counts = res["freq"][t - 1] * trials
        assert np.all(counts[pi == 0] == 0)
        mid = pi > 0
        z = (counts[mid] - trials * pi[mid]) / np.sqrt(trials * pi[mid] * (1 - pi[mid]))
        assert np.all(np.abs(z) <= 4), (t, z)
