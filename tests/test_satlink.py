import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from entlink import elemlink, oracles, qstate, satlink as S


def test_path_length_anchors():
    assert S.path_length(S.SatGeometry(1e-9, 500.0)) == pytest.approx(500.0, abs=1e-6)
    # independently evaluated from the displayed formula with R = 6378 km
    assert S.path_length(S.SatGeometry(2000.0, 500.0)) == pytest.approx(1151.602, abs=0.05)


def test_path_length_monotone_in_d():
    Ls = [S.path_length(S.SatGeometry(d, 500.0)) for d in np.linspace(0.001, 4000, 40)]
    assert all(b > a for a, b in zip(Ls, Ls[1:]))


def test_eta_sg_zenith_anchor():
    # at L = h the satellite is at zenith: eta = eta_fs * eta_zen
    eta = S.eta_sg(500.0, 500.0, 0.5)
    assert eta == pytest.approx(0.0414245 * 0.5, rel=1e-4)


def test_eta_sg_below_horizon_is_zero():
    # cos(zeta) goes negative for long-enough slant paths
    L = S.path_length(S.SatGeometry(6000.0, 500.0))
    assert S.eta_sg(L, 500.0, 0.5) == 0.0


def test_eta_sg_decreasing_in_L():
    vals = [S.eta_sg(L, 500.0, 0.5) for L in (500, 700, 1000, 1500)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("eta_zen", [0.0, -0.5, 1.5, math.nan])
def test_eta_sg_rejects_zenith_transmittance_outside_unit_interval(eta_zen):
    with pytest.raises(S.SatError, match="eta_zen"):
        S.eta_sg(500.0, 500.0, eta_zen)


def test_heralded_link_vs_beamsplitter_oracle(rng):
    for _ in range(6):
        e1, e2 = rng.uniform(0.05, 1.0, 2)
        n1, n2 = rng.uniform(0.0, 1.0, 2)
        fS = rng.uniform(0.0, 1.0)
        link = S.heralded_link(e1, e2, S.SatSourceParams(fS, n1, n2))
        p_o, co = oracles.beamsplitter_heralded_link(e1, e2, fS, n1, n2)
        assert link.p == pytest.approx(p_o, abs=1e-12)
        assert np.allclose(link.p * link.coeffs.as_array(), co, atol=1e-12)


ETA_GRID = [0.05, 0.1, 0.25, 0.5, 0.7, 0.9, 0.99, 1.0]


def _generator_and_photon_number():
    a = oracles._annihilation()
    one = np.eye(a.shape[0])
    return np.kron(a.T, a) - np.kron(a, a.T), np.kron(a.T @ a, one) + np.kron(one, a.T @ a)


@pytest.mark.parametrize("eta", ETA_GRID)
def test_bs_unitary_is_real_orthogonal_and_conserves_photons(eta):
    _, N = _generator_and_photon_number()
    U = oracles._bs_unitary(eta)
    assert U.dtype == np.float64
    assert np.abs(U.T @ U - np.eye(len(U))).max() <= 1e-13
    assert np.abs(U @ N - N @ U).max() <= 1e-13


def test_bs_unitary_is_the_identity_at_full_transmittance():
    U = oracles._bs_unitary(1.0)
    assert np.abs(U - np.eye(len(U))).max() <= 1e-13


@pytest.mark.parametrize("eta", ETA_GRID)
def test_bs_unitary_matches_the_matrix_exponential(eta):
    G, _ = _generator_and_photon_number()
    reference = expm(np.arccos(np.sqrt(eta)) * G)
    assert np.abs(oracles._bs_unitary(eta) - reference).max() <= 1e-13


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


def _npt(rho):
    """Whether the partial transpose of the two-qubit rho has a negative
    eigenvalue (Peres-Horodecki)."""
    pt = rho.mat.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    return bool(np.linalg.eigvalsh(pt).min() < 0)


def test_entangled_iff_fidelity_above_half(rng):
    # the partial transpose of the state is the independent check
    for _ in range(300):
        link = S.heralded_link(rng.uniform(0.05, 1), rng.uniform(0.05, 1),
                               S.SatSourceParams(rng.uniform(0.0, 1.0), rng.uniform(0, 1),
                                                rng.uniform(0, 1)))
        assert S.entangled(link) is _npt(oracles.bell_diagonal_density(link.coeffs))
        assert S.entangled(link) == (link.coeffs.phi_plus > 0.5)


def test_multiplexed_p():
    assert S.multiplexed_p(0.1, 1) == pytest.approx(0.1)
    assert S.multiplexed_p(0.1, 3) == pytest.approx(1 - 0.9 ** 3)


def test_memory_f_matches_amplitude_damped_state():
    # Bell-diagonal (a+b, a-b, g, g) aged m steps in two damping memories
    link = S.heralded_link(0.8, 0.7, S.SatSourceParams(0.95, 0.1, 0.2))
    rho = oracles.bell_diagonal_density(link.coeffs)
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


def test_cutoff_steady_values_on_memory_decay_vs_direct_sum():
    # coherence times of 1e-3 and below decay to 0 within one step
    p, al, be = 0.3, 0.45, 0.5
    for t_coh in (1e-4, 1e-3, 0.5, 50.0, 1e6):
        for ts in (0, 1, 7, 40):
            fsum = sum(S.memory_f(m, t_coh, al, be) for m in range(ts + 1))
            model = elemlink.ElemLinkModel(p, ts, S.memory_f_vector(ts, t_coh, al, be))
            ft, _, fr = elemlink.cutoff_steady_values(model, ts)
            assert fr == pytest.approx(fsum / (ts + 1), rel=1e-12)
            assert ft == pytest.approx(p * fsum / (1 + ts * p), rel=1e-12)


def test_never_discard_transient_on_memory_decay_vs_direct_sum(rng):
    for _ in range(10):
        p = rng.uniform(0.05, 1.0)
        t_coh = rng.uniform(2.0, 100.0)
        t = int(rng.integers(1, 30))
        al, be = rng.uniform(0.2, 0.5), rng.uniform(0.4, 0.5)
        direct = sum(S.memory_f(m, t_coh, al, be) * p * (1 - p) ** (t - m - 1)
                     for m in range(t))
        model = elemlink.ElemLinkModel(p, t - 1, S.memory_f_vector(t - 1, t_coh, al, be))
        assert elemlink.cutoff_infty_transient(model, t)[0] == pytest.approx(
            direct, abs=1e-12)


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


@pytest.mark.parametrize("t_coh", [-1.0, 0.0, math.nan, math.inf])
def test_coherence_steps_rejects_bad_coherence_time(t_coh):
    # -1 gave -1498.96 steps and nan gave nan
    with pytest.raises(S.SatError, match="t_coh"):
        S.coherence_steps(t_coh, 100.0)


def test_key_rate_anchor_points():
    assert S.key_rate_bb84(0.0) == 1.0
    assert S.key_rate_six_state(0.0) == 1.0
    assert S.key_rate_di(0.0, 2 * math.sqrt(2)) == 1.0
    assert S.key_rate_bb84(1.0) == 1.0  # every bit flipped: Bob inverts them
    assert S.key_rate_six_state(1.0) == pytest.approx(-0.5)
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
        qx, qy, qz = oracles.qbers_from_state(rho)
        f = qstate.fidelity_to_pure(rho, qstate.bell(2))
        assert f == pytest.approx(1 - (qx + qy + qz) / 2, abs=1e-10)


def test_qber_formulas_match_state_qbers(rng):
    # Bell-diagonal link: z-basis QBER equals the BB84 formula's ingredients
    link = S.heralded_link(0.7, 0.8, S.SatSourceParams(0.92, 0.1, 0.05))
    rho = oracles.bell_diagonal_density(link.coeffs)
    qx, qy, qz = oracles.qbers_from_state(rho)
    Q6, _, _ = S.qber_and_rates(link.alpha, link.beta, "6state", 1, link.p)
    assert Q6 == pytest.approx((qx + qy + qz) / 3, abs=1e-10)
    Qb, _, _ = S.qber_and_rates(link.alpha, link.beta, "bb84", 1, link.p)
    assert Qb == pytest.approx((qx + qz) / 2, abs=1e-10)


@pytest.mark.parametrize("make, error", [
    (lambda: S.SatGeometry(-1.0, 500.0), S.SatError),
    (lambda: S.SatGeometry(100.0, 0.0), S.SatError),
    (lambda: S.SatSourceParams(1.5), S.SatError),
    (lambda: S.SatSourceParams(1.0, nbar1=2.0), S.SatError),
    (lambda: S.SatSourceParams(1.0, M=0), S.SatError),
    (lambda: S.eta_sg(400.0, 500.0, 0.5), S.SatError),
    (lambda: S.heralded_link(1.5, 0.5, S.SatSourceParams(1.0)), S.SatError),
    (lambda: S.heralded_link(0.0, 0.5, S.SatSourceParams(1.0)), S.SatError),
    (lambda: S.multiplexed_p(0.5, 0), S.SatError),
    (lambda: S.memory_f(1, 0.0, 0.5, 0.5), S.SatError),
    (lambda: S.forward_cutoff(1.5, 10.0), S.SatError),
    (lambda: S.coherence_steps(1.0, 0.0), S.SatError),
    (lambda: S.qber_and_rates(0.5, 0.5, "b92", 1, 0.5), S.SatError),
    (lambda: oracles.qbers_from_state(qstate.DensityOperator(np.eye(2) / 2)),
     qstate.QuantumError),
    (lambda: S.SatGeometry(math.nan, 500.0), S.SatError),
    (lambda: S.SatGeometry(math.inf, 500.0), S.SatError),
    (lambda: S.SatGeometry(100.0, math.nan), S.SatError),
    (lambda: S.SatGeometry(100.0, math.inf), S.SatError),
    (lambda: S.SatSourceParams(1.0, M=math.nan), S.SatError),
    (lambda: S.eta_sg(math.nan, 500.0, 0.5), S.SatError),
    (lambda: S.heralded_link(math.nan, 0.5, S.SatSourceParams(1.0)), S.SatError),
    (lambda: S.multiplexed_p(0.5, math.nan), S.SatError),
    (lambda: S.coherence_steps(1.0, math.nan), S.SatError),
    (lambda: S.key_rate_di(0.1, math.nan), S.SatError),
    # a negative age once gave a "fidelity" of 1.1107 (m = -1), 1.859 (m = -5)
    (lambda: S.memory_f(-1, 10.0, 0.5, 0.5), S.SatError),
    (lambda: S.memory_f(math.nan, 10.0, 0.5, 0.5), S.SatError),
    (lambda: S.memory_f(math.inf, 10.0, 0.5, 0.5), S.SatError),
    # a QBER outside [0, 1] once gave a BB84 rate of 1.0
    (lambda: S.key_rate_bb84(-0.1), S.SatError),
    (lambda: S.key_rate_bb84(1.2), S.SatError),
    (lambda: S.key_rate_bb84(math.nan), S.SatError),
    (lambda: S.key_rate_six_state(-0.1), S.SatError),
    (lambda: S.key_rate_six_state(1.2), S.SatError),
    (lambda: S.key_rate_six_state(math.nan), S.SatError),
    (lambda: S.key_rate_di(-0.1, 2.5), S.SatError),
    (lambda: S.key_rate_di(1.2, 2.5), S.SatError),
    (lambda: S.key_rate_di(math.nan, 2.5), S.SatError),
    # a probability outside [0, 1] once gave multiplexed_p(1.5, 2) = 0.75 and
    # a fractional M gave multiplexed_p(0.5, 2.5) = 0.823
    (lambda: S.multiplexed_p(1.5, 2), S.SatError),
    (lambda: S.multiplexed_p(-0.1, 2), S.SatError),
    (lambda: S.multiplexed_p(math.nan, 2), S.SatError),
    (lambda: S.multiplexed_p(0.5, 2.5), S.SatError),
    # an altitude of 0 divided by zero at L = 0 and gave a transmittance of
    # 0.0 at L > 0, for a geometry SatGeometry rejects
    (lambda: S.eta_sg(0.0, 0.0, 0.5), S.SatError),
    (lambda: S.eta_sg(100.0, 0.0, 0.5), S.SatError),
    (lambda: S.eta_sg(100.0, math.nan, 0.5), S.SatError),
    (lambda: S.eta_sg(math.inf, 500.0, 0.5), S.SatError),
    # t_coh = 0 divided by zero, nan gave nan, a negative one gave a cutoff
    # of -1, and inf overflowed
    (lambda: S.memory_f(1, math.nan, 0.5, 0.5), S.SatError),
    (lambda: S.memory_f(1, math.inf, 0.5, 0.5), S.SatError),
    (lambda: S.forward_cutoff(0.7, -1.0), S.SatError),
    (lambda: S.forward_cutoff(0.7, 0.0), S.SatError),
    (lambda: S.forward_cutoff(0.7, math.nan), S.SatError),
    (lambda: S.forward_cutoff(0.7, math.inf), S.SatError),
    # a storage bound that is not a count ended in numpy's TypeError
    (lambda: S.memory_f_vector(2.5, 12.0, 0.5, 0.5), S.SatError),
    (lambda: S.memory_f_vector(-3, 12.0, 0.5, 0.5), S.SatError),
    # S above Tsirelson's bound gave a rate (0.531 at S = 5) or overflowed,
    # and h2 took any q
    (lambda: S.key_rate_di(0.1, 5.0), S.SatError),
    (lambda: S.key_rate_di(0.1, 1e300), S.SatError),
    (lambda: S.h2(math.nan), S.SatError),
    (lambda: S.h2(1.5), S.SatError),
    (lambda: S.h2(-0.5), S.SatError),
    # M and p went unchecked: M = -3 gave a key rate of -1.5, p = 1.7 gave
    # 1.7 and p = nan gave nan, and SatSourceParams took M = 2.5
    (lambda: S.qber_and_rates(0.5, 0.5, "bb84", -3, 0.5), S.SatError),
    (lambda: S.qber_and_rates(0.5, 0.5, "bb84", 2.5, 0.5), S.SatError),
    (lambda: S.qber_and_rates(0.5, 0.5, "bb84", 1, 1.7), S.SatError),
    (lambda: S.qber_and_rates(0.5, 0.5, "bb84", 1, math.nan), S.SatError),
    (lambda: S.SatSourceParams(1.0, M=2.5), S.SatError),
    # a bool passed as a count: multiplexed_p(0.5, True) gave 0.5
    (lambda: S.multiplexed_p(0.5, True), S.SatError),
    (lambda: S.SatSourceParams(1.0, M=True), S.SatError),
    (lambda: S.memory_f_vector(True, 12.0, 0.5, 0.5), S.SatError),
    # an infinite d gave 0.0 steps
    (lambda: S.coherence_steps(1.0, math.inf), S.SatError),
    # a bool passed as a probability (forward_cutoff(True, 10.0) gave 0 and
    # multiplexed_p(True, 2) gave 1), and a string raised a bare TypeError
    (lambda: S.SatSourceParams(True), S.SatError),
    (lambda: S.SatSourceParams("0.9"), S.SatError),
    (lambda: S.SatSourceParams(1.0, nbar1=True), S.SatError),
    (lambda: S.SatSourceParams(1.0, nbar1="0.1"), S.SatError),
    (lambda: S.SatSourceParams(1.0, nbar2=True), S.SatError),
    (lambda: S.SatSourceParams(1.0, nbar2="0.1"), S.SatError),
    (lambda: S.eta_sg(600.0, 500.0, True), S.SatError),
    (lambda: S.eta_sg(600.0, 500.0, "0.5"), S.SatError),
    (lambda: S.heralded_link(True, 0.5, S.SatSourceParams(1.0)), S.SatError),
    (lambda: S.heralded_link(0.5, "0.5", S.SatSourceParams(1.0)), S.SatError),
    (lambda: S.multiplexed_p(True, 2), S.SatError),
    (lambda: S.multiplexed_p("0.5", 2), S.SatError),
    (lambda: S.forward_cutoff(True, 10.0), S.SatError),
    (lambda: S.forward_cutoff("0.7", 10.0), S.SatError),
    (lambda: S.h2(True), S.SatError),
    (lambda: S.h2("0.5"), S.SatError),
    (lambda: S.key_rate_bb84(True), S.SatError),
    (lambda: S.key_rate_bb84("0.1"), S.SatError),
    # alpha and beta were read unchecked: 4.0, NaN, 0.5 and a TypeError
    (lambda: S.memory_f(0, 10.0, 2.0, 2.0), S.SatError),
    (lambda: S.memory_f(0, 10.0, math.nan, 0.5), S.SatError),
    (lambda: S.memory_f(0, 10.0, False, 0.5), S.SatError),
    (lambda: S.memory_f(0, 10.0, 0.5, "0.5"), S.SatError),
    # a string raised a bare TypeError, and a bool passed as a number:
    # memory_f(True, ...) gave 0.835 and coherence_steps(True, 2.0) 74948.1
    (lambda: S.memory_f(1, "5", 0.5, 0.5), S.SatError),
    (lambda: S.coherence_steps("1", 2.0), S.SatError),
    (lambda: S.SatGeometry("1", 500.0), S.SatError),
    (lambda: S.forward_cutoff(0.7, "5"), S.SatError),
    (lambda: S.memory_f(True, 5.0, 0.5, 0.5), S.SatError),
    (lambda: S.coherence_steps(True, 2.0), S.SatError),
    (lambda: S.SatGeometry(1.0, "500"), S.SatError),
    (lambda: S.eta_sg(600.0, "500", 0.5), S.SatError),
    (lambda: S.eta_sg("600", 500.0, 0.5), S.SatError),
], ids=["SatGeometry-d", "SatGeometry-h", "SatSourceParams-f_S", "SatSourceParams-nbar",
        "SatSourceParams-M", "eta_sg-path", "heralded_link-eta", "heralded_link-zero-p",
        "multiplexed_p-M", "memory_f-t_coh", "forward_cutoff-p", "coherence_steps-d",
        "qber_and_rates-protocol", "qbers_from_state-dim", "SatGeometry-d-nan",
        "SatGeometry-d-inf", "SatGeometry-h-nan", "SatGeometry-h-inf",
        "SatSourceParams-M-nan", "eta_sg-path-nan", "heralded_link-eta-nan",
        "multiplexed_p-M-nan", "coherence_steps-d-nan", "key_rate_di-S-nan",
        "memory_f-m-negative", "memory_f-m-nan", "memory_f-m-inf",
        "key_rate_bb84-Q-negative", "key_rate_bb84-Q-above-one", "key_rate_bb84-Q-nan",
        "key_rate_six_state-Q-negative", "key_rate_six_state-Q-above-one",
        "key_rate_six_state-Q-nan", "key_rate_di-Q-negative", "key_rate_di-Q-above-one",
        "key_rate_di-Q-nan", "multiplexed_p-p-above-one", "multiplexed_p-p-negative",
        "multiplexed_p-p-nan", "multiplexed_p-M-fractional", "eta_sg-h-zero-at-L-zero",
        "eta_sg-h-zero", "eta_sg-h-nan", "eta_sg-path-inf", "memory_f-t_coh-nan",
        "memory_f-t_coh-inf", "forward_cutoff-negative", "forward_cutoff-zero",
        "forward_cutoff-nan", "forward_cutoff-inf", "memory_f_vector-fractional",
        "memory_f_vector-negative", "key_rate_di-S-above-tsirelson", "key_rate_di-S-huge",
        "h2-nan", "h2-above-one", "h2-negative", "qber_and_rates-M-negative",
        "qber_and_rates-M-fractional", "qber_and_rates-p-above-one", "qber_and_rates-p-nan",
        "SatSourceParams-M-fractional", "multiplexed_p-M-bool", "SatSourceParams-M-bool",
        "memory_f_vector-bool", "coherence_steps-d-inf", "SatSourceParams-f_S-bool",
        "SatSourceParams-f_S-str", "SatSourceParams-nbar1-bool", "SatSourceParams-nbar1-str",
        "SatSourceParams-nbar2-bool", "SatSourceParams-nbar2-str", "eta_sg-eta_zen-bool",
        "eta_sg-eta_zen-str", "heralded_link-eta-bool", "heralded_link-eta-str",
        "multiplexed_p-p-bool", "multiplexed_p-p-str", "forward_cutoff-p-bool",
        "forward_cutoff-p-str", "h2-bool", "h2-str", "key_rate_bb84-Q-bool",
        "key_rate_bb84-Q-str", "memory_f-above-one", "memory_f-alpha-nan",
        "memory_f-alpha-bool", "memory_f-beta-str", "memory_f-t_coh-str",
        "coherence_steps-t_coh-str", "SatGeometry-d-str", "forward_cutoff-t_coh-str",
        "memory_f-m-bool", "coherence_steps-t_coh-bool", "SatGeometry-h-str",
        "eta_sg-h-str", "eta_sg-path-str"])
def test_malformed_input_raises(make, error):
    with pytest.raises(error):
        make()


def test_memory_f_vector_takes_numpy_integers():
    assert S.memory_f_vector(np.int64(2), 12.0, 0.5, 0.5).tolist() == \
        S.memory_f_vector(2, 12.0, 0.5, 0.5).tolist()


def test_di_rate_accepts_every_chsh_value_it_computes():
    # S = 2 sqrt(2) (1 - 2Q) never exceeds the bound it is checked against,
    # so a link rate is a number, or below S = 2 none, with the QBER kept
    for fidelity in np.linspace(0.75, 1.0, 2001):
        alpha, beta = fidelity / 2 + 0.125, fidelity / 2 - 0.125
        Q = (2 / 3) * (1 - (alpha + beta))
        if 2 * math.sqrt(2) * (1 - 2 * Q) < 2:
            assert S.qber_and_rates(alpha, beta, "di", 1, 0.5) == (Q, None, 0.0)
        elif Q >= 0:
            assert math.isfinite(S.qber_and_rates(alpha, beta, "di", 1, 0.5)[1])
