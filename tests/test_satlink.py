import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entlink import elemlink, oracles, qstate, satlink as S


def test_path_length_anchors():
    assert S.path_length(S.SatGeometry(1e-9, 500.0)) == pytest.approx(500.0, abs=1e-6)
    # independently evaluated from the displayed formula with R = 6378 km
    assert S.path_length(S.SatGeometry(2000.0, 500.0)) == pytest.approx(1151.602, abs=0.05)


def test_path_length_monotone_in_d():
    Ls = [S.path_length(S.SatGeometry(d, 500.0)) for d in np.linspace(0.001, 4000, 40)]
    assert all(b > a for a, b in zip(Ls, Ls[1:]))


def test_eta_sg_zenith_anchor():
    opt = S.OpticalParams()
    # at L = h the satellite is at zenith: eta = eta_fs * eta_zen
    eta = S.eta_sg(500.0, 500.0, opt)
    assert eta == pytest.approx(0.0414245 * 0.5, rel=1e-4)


def test_eta_sg_below_horizon_is_zero():
    opt = S.OpticalParams()
    # cos(zeta) goes negative for long-enough slant paths
    L = S.path_length(S.SatGeometry(6000.0, 500.0))
    assert S.eta_sg(L, 500.0, opt) == 0.0


def test_eta_sg_decreasing_in_L():
    opt = S.OpticalParams()
    vals = [S.eta_sg(L, 500.0, opt) for L in (500, 700, 1000, 1500)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_heralded_link_vs_beamsplitter_oracle(rng):
    for _ in range(6):
        e1, e2 = rng.uniform(0.05, 1.0, 2)
        n1, n2 = rng.uniform(0.0, 1.0, 2)
        fS = rng.uniform(0.0, 1.0)
        link = S.heralded_link(e1, e2, S.SatSourceParams(fS, n1, n2))
        p_o, co = oracles.beamsplitter_heralded_link(e1, e2, fS, n1, n2)
        assert link.p == pytest.approx(p_o, abs=1e-12)
        assert np.allclose(link.p * link.coeffs.as_array(), co, atol=1e-12)


def test_heralded_link_ideal_case():
    link = S.heralded_link(1.0, 1.0, S.SatSourceParams(1.0, 0.0, 0.0))
    assert link.p == pytest.approx(1.0)
    assert link.coeffs.phi_plus == pytest.approx(1.0)


def test_coefficients_sum_to_one(rng):
    for _ in range(50):
        link = S.heralded_link(rng.uniform(0.05, 1), rng.uniform(0.05, 1),
                               S.SatSourceParams(rng.uniform(0, 1),
                                                rng.uniform(0, 1),
                                                rng.uniform(0, 1)))
        assert link.coeffs.as_array().sum() == pytest.approx(1.0, abs=1e-12)


def test_entangled_iff_fidelity_above_half(rng):
    for _ in range(300):
        fS = rng.uniform(0.0, 1.0)
        link = S.heralded_link(rng.uniform(0.05, 1), rng.uniform(0.05, 1),
                               S.SatSourceParams(fS, rng.uniform(0, 1),
                                                rng.uniform(0, 1)))
        assert S.entangled(link, fS) == (link.coeffs.phi_plus > 0.5)


def test_multiplexed_p():
    assert S.multiplexed_p(0.1, 1) == pytest.approx(0.1)
    assert S.multiplexed_p(0.1, 3) == pytest.approx(1 - 0.9 ** 3)


def test_memory_f_matches_amplitude_damped_state():
    # Bell-diagonal (a+b, a-b, g, g) aged m steps in two damping memories
    link = S.heralded_link(0.8, 0.7, S.SatSourceParams(0.95, 0.1, 0.2))
    rho = link.coeffs.to_density()
    t_coh = 8.0
    lam_step = math.exp(-1 / t_coh)
    gamma = 1 - lam_step  # one step of damping per memory per time step
    ch = qstate.amplitude_damping(gamma)
    mem = qstate.KrausChannel(
        [np.kron(K1, K2) for K1 in ch.kraus for K2 in ch.kraus])
    phi = qstate.bell(2)
    state = rho.mat
    for m in range(4):
        expect = S.memory_f(m, t_coh, link.alpha, link.beta)
        assert qstate.fidelity_to_pure(state, phi) == pytest.approx(expect, abs=1e-12)
        state = mem(state)


def test_memory_f_vector_feeds_elem_model():
    f = S.memory_f_vector(3, 10.0, 0.45, 0.5)
    m = elemlink.ElemLinkModel(0.5, 3, f)
    assert m.f[0] == 0.0
    assert m.f[1] == pytest.approx(S.memory_f(0, 10.0, 0.45, 0.5))


def test_cutoff_steady_sinh_matches_elemlink(rng):
    for _ in range(10):
        p = rng.uniform(0.1, 1.0)
        t_coh = rng.uniform(2.0, 100.0)
        ts = int(rng.integers(0, 6))
        al, be = rng.uniform(0.2, 0.5), rng.uniform(0.4, 0.5)
        f = S.memory_f_vector(ts, t_coh, al, be)
        m = elemlink.ElemLinkModel(p, ts, f)
        ft, _, fr = elemlink.cutoff_steady_values(m, ts)
        ft2, fr2 = S.cutoff_steady_sinh(ts, t_coh, al, be, p)
        assert ft == pytest.approx(ft2, abs=1e-12)
        assert fr == pytest.approx(fr2, abs=1e-12)


def test_cutoff_steady_sinh_vs_direct_sum():
    # coherence times of 1e-3 and below used to overflow sinh
    p, al, be = 0.3, 0.45, 0.5
    for t_coh in (1e-4, 1e-3, 0.5, 50.0, 1e6):
        for ts in (0, 1, 7, 40):
            fsum = sum(S.memory_f(m, t_coh, al, be) for m in range(ts + 1))
            ft, fr = S.cutoff_steady_sinh(ts, t_coh, al, be, p)
            assert fr == pytest.approx(fsum / (ts + 1), rel=1e-12)
            assert ft == pytest.approx(p * fsum / (1 + ts * p), rel=1e-12)


def test_ftilde_infty_closed_vs_direct_sum(rng):
    for _ in range(10):
        p = rng.uniform(0.05, 1.0)
        t_coh = rng.uniform(2.0, 100.0)
        t = int(rng.integers(1, 30))
        al, be = rng.uniform(0.2, 0.5), rng.uniform(0.4, 0.5)
        direct = sum(S.memory_f(m, t_coh, al, be) * p * (1 - p) ** (t - m - 1)
                     for m in range(t))
        assert S.ftilde_infty_closed(t, t_coh, al, be, p) == pytest.approx(
            direct, abs=1e-12)


def test_ftilde_infty_closed_degenerate_ratio():
    # pick p so that e^{2/t_coh}(1-p) = 1 and the closed form must fall back
    t_coh = 5.0
    p = 1 - math.exp(-2 / t_coh)
    t = 12
    direct = sum(S.memory_f(m, t_coh, 0.4, 0.5) * p * (1 - p) ** (t - m - 1)
                 for m in range(t))
    assert S.ftilde_infty_closed(t, t_coh, 0.4, 0.5, p) == pytest.approx(direct, abs=1e-10)


def test_forward_cutoff_anchors():
    assert S.forward_cutoff(0.6, 100.0) == 80
    assert S.forward_cutoff(0.5, 100.0) == math.inf
    assert S.forward_cutoff(0.3, 7.0) == math.inf
    assert S.forward_cutoff(1.0, 100.0) == 0


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.55, max_value=0.999),
       st.floats(min_value=1.0, max_value=150.0))
def test_forward_cutoff_matches_greedy_scan(p, t_coh):
    ts = S.forward_cutoff(p, t_coh)
    m = 0
    while S.memory_f(m + 1, t_coh, 0.5, 0.5) > p and m < 20_000:
        m += 1
    # ties sit exactly on the ceil boundary; allow the rounding step there
    if abs(S.memory_f(m + 1, t_coh, 0.5, 0.5) - p) > 1e-12:
        assert ts == m


def test_coherence_steps():
    assert S.coherence_steps(1.0, 100.0) == pytest.approx(299792.458 / 200.0)


def test_key_rate_anchor_points():
    assert S.key_rate_bb84(0.0) == 1.0
    assert S.key_rate_six_state(0.0) == 1.0
    assert S.key_rate_di(0.0, 2 * math.sqrt(2)) == 1.0
    with pytest.raises(S.SatError):
        S.key_rate_di(0.1, 1.9)


def test_h2_symmetry_and_peak():
    assert S.h2(0.5) == pytest.approx(1.0)
    assert S.h2(0.1) == pytest.approx(S.h2(0.9), abs=1e-12)
    assert S.h2(0.0) == 0.0 and S.h2(1.0) == 0.0


def test_qber_and_rates_perfect_state():
    Q, K, rate = S.qber_and_rates(0.5, 0.5, "bb84", 1, 0.3)
    assert Q == pytest.approx(0.0, abs=1e-12)
    assert K == pytest.approx(1.0)
    assert rate == pytest.approx(0.3)


def test_qber_and_rates_clamps_negative_key():
    Q, K, rate = S.qber_and_rates(0.30, 0.30, "bb84", 2, 0.5)
    assert K < 0
    assert rate == 0.0


def test_qbers_match_fidelity_identity(rng):
    for _ in range(10):
        G = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        mat = G @ G.conj().T
        rho = qstate.DensityOperator(mat / np.trace(mat).real, (2, 2))
        qx, qy, qz = S.qbers_from_state(rho)
        f = qstate.fidelity_to_pure(rho, qstate.bell(2))
        assert f == pytest.approx(1 - (qx + qy + qz) / 2, abs=1e-10)


def test_qber_formulas_match_state_qbers(rng):
    # Bell-diagonal link: z-basis QBER equals the BB84 formula's ingredients
    link = S.heralded_link(0.7, 0.8, S.SatSourceParams(0.92, 0.1, 0.05))
    rho = link.coeffs.to_density()
    qx, qy, qz = S.qbers_from_state(rho)
    Q6, _, _ = S.qber_and_rates(link.alpha, link.beta, "6state", 1, link.p)
    assert Q6 == pytest.approx((qx + qy + qz) / 3, abs=1e-10)
    Qb, _, _ = S.qber_and_rates(link.alpha, link.beta, "bb84", 1, link.p)
    assert Qb == pytest.approx((qx + qz) / 2, abs=1e-10)
