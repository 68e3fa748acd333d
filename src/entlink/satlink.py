"""Satellite-to-ground link case study: geometry, transmittance, the
heralded Bell-diagonal state with thermal background, memory decay, the
greedy cutoff, and QKD key rates.  Policy values under memory decay are
`elemlink`'s, evaluated on `memory_f_vector`.

Lengths: ground separation, altitude, and path length in km; aperture,
beam waist, and wavelength in meters.  Time is counted in heralding steps
of duration 2d/c (round-trip classical signaling between the stations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .markov import is_count, is_probability, is_real
from .qstate import BellDiagCoeffs

C_KM_PER_S = 299792.458
R_EARTH_KM = 6378.0
APERTURE_RADIUS_M = 0.75  # receiver
BEAM_WAIST_M = 0.025
WAVELENGTH_M = 810e-9


class SatError(ValueError):
    pass


@dataclass(frozen=True)
class SatGeometry:
    d: float  # ground-station separation along the surface, km
    h: float  # orbit altitude, km

    def __post_init__(self):
        if not (is_real(self.d) and is_real(self.h)
                and 0 <= self.d < math.inf and 0 < self.h < math.inf):  # NaN fails too
            raise SatError("SatGeometry: need real, finite d >= 0 and h > 0")


@dataclass(frozen=True)
class SatSourceParams:
    f_S: float
    nbar1: float = 0.0
    nbar2: float = 0.0
    M: int = 1

    def __post_init__(self):
        if not is_probability(self.f_S):
            raise SatError("SatSourceParams: f_S must be a real number in [0, 1]")
        if not (is_probability(self.nbar1) and is_probability(self.nbar2)):
            raise SatError("SatSourceParams: nbar must be a real number in [0, 1]")
        if not is_count(self.M, 1):
            raise SatError("SatSourceParams: M must be an integer >= 1")


@dataclass(frozen=True)
class HeraldedLink:
    p: float
    coeffs: BellDiagCoeffs
    alpha: float
    beta: float


def path_length(geom: SatGeometry) -> float:
    """Slant range from a ground station to the satellite at the midpoint."""
    R = R_EARTH_KM
    s = math.sin(geom.d / (4 * R))
    return math.sqrt(4 * R * (R + geom.h) * s * s + geom.h * geom.h)


def eta_sg(L: float, h: float, eta_zen: float) -> float:
    """Satellite-to-ground transmittance: diffraction-limited free-space
    collection times zenith-angle-corrected atmospheric absorption, with
    eta_zen the atmospheric transmittance at zenith."""
    if not (is_probability(eta_zen) and eta_zen > 0):
        raise SatError("eta_sg: eta_zen must be a real number in (0, 1]")
    if not (is_real(h) and 0 < h < math.inf):  # NaN fails too, as in SatGeometry
        raise SatError("eta_sg: need real, finite h > 0")
    if not (is_real(L) and h <= L < math.inf):
        raise SatError("eta_sg: path length cannot be below the altitude or infinite")
    L_m = L * 1000.0
    rayleigh_range_m = math.pi * BEAM_WAIST_M ** 2 / WAVELENGTH_M
    w = BEAM_WAIST_M * math.sqrt(1 + (L_m / rayleigh_range_m) ** 2)
    eta_fs = 1 - math.exp(-2 * APERTURE_RADIUS_M ** 2 / w ** 2)
    cos_zen = h / L - (L * L - h * h) / (2 * R_EARTH_KM * L)
    if cos_zen <= 0:
        return 0.0  # below the horizon
    eta_atm = eta_zen ** (1 / cos_zen)
    return eta_fs * eta_atm


def _arm_factors(eta, nbar):
    x = (1 - nbar) * eta + (nbar / 2) * ((1 - 2 * eta) ** 2 + eta ** 2)
    y = (nbar / 2) * (1 - eta) ** 2
    z = (1 - nbar) * eta - nbar * eta * (1 - 2 * eta)
    return x, y, z


def heralded_link(eta1: float, eta2: float, src: SatSourceParams) -> HeraldedLink:
    """Bell-diagonal state and success probability of the dual-rail link
    after loss and thermal background on both arms, heralded on one photon
    arriving at each station."""
    if not (is_probability(eta1) and is_probability(eta2)):
        raise SatError("heralded_link: eta must be a real number in [0, 1]")
    x1, y1, z1 = _arm_factors(eta1, src.nbar1)
    x2, y2, z2 = _arm_factors(eta2, src.nbar2)
    a = x1 * x2 + y1 * y2
    b = z1 * z2
    c = x1 * y2 + y1 * x2
    p = (x1 + y1) * (x2 + y2)
    if not p > 0:
        raise SatError("heralded_link: zero heralding probability")
    qt = (1 - src.f_S) / 3
    alpha = (0.5 * src.f_S * a + 0.5 * qt * (a + 2 * c)) / (a + c)
    beta = (0.5 * src.f_S * b - 0.5 * qt * b) / (a + c)
    gamma = (0.5 * src.f_S * c + 0.5 * qt * (2 * a + c)) / (a + c)
    coeffs = BellDiagCoeffs(alpha + beta, alpha - beta, gamma, gamma)
    return HeraldedLink(p=p, coeffs=coeffs, alpha=alpha, beta=beta)


def _check_multiplexing(name, p, M):
    if not is_probability(p):
        raise SatError(f"{name}: p must be a real number in [0, 1]")
    if not is_count(M, 1):
        raise SatError(f"{name}: M must be an integer >= 1")


def multiplexed_p(p_single: float, M: int) -> float:
    _check_multiplexing("multiplexed_p", p_single, M)
    return 1 - (1 - p_single) ** M


def entangled(link: HeraldedLink) -> bool:
    """Partial-transpose criterion for the heralded Bell-diagonal state: it
    is entangled iff one Bell coefficient exceeds 1/2 (Horodecki &
    Horodecki 1996)."""
    return bool(link.coeffs.as_array().max() > 0.5)


# ---------------------------------------------------------------------------
# memory decay and policy values

def _check_t_coh(name, t_coh):
    if not (is_real(t_coh) and 0 < t_coh < math.inf):  # NaN fails too
        raise SatError(f"{name}: t_coh must be positive and finite")


def memory_f(m: int, t_coh: float, alpha: float, beta: float) -> float:
    """Target overlap after m steps in two amplitude-damping memories;
    SatError unless alpha and beta are real and the overlap is in [0, 1]."""
    _check_t_coh("memory_f", t_coh)
    if not (is_real(m) and 0 <= m < math.inf):  # NaN fails too
        raise SatError("memory_f: the age m must be a real number, finite and >= 0")
    if not (is_real(alpha) and is_real(beta)):
        raise SatError("memory_f: alpha and beta must be real numbers")
    lam = math.exp(-m / t_coh)
    f = alpha * lam * lam + (beta - 0.5) * lam + 0.5
    if not 0 <= f <= 1:  # NaN fails too
        raise SatError(f"memory_f: f values must lie in [0, 1]; alpha, beta give {f!r}")
    return f


def memory_f_vector(m_star: int, t_coh: float, alpha: float, beta: float) -> np.ndarray:
    """f over the link states (-1, 0, ..., m_star)."""
    if not is_count(m_star, 0):
        raise SatError("memory_f_vector: m_star must be an integer >= 0")
    f = np.zeros(m_star + 2)
    for m in range(m_star + 1):
        f[m + 1] = memory_f(m, t_coh, alpha, beta)
    return f


def forward_cutoff(p: float, t_coh: float):
    """Cutoff equivalent to the greedy lookahead rule for an ideal source
    in decaying memories: never discard at low p, discard immediately when
    generation is near-deterministic."""
    if not is_probability(p):
        raise SatError("forward_cutoff: p must be a real number in [0, 1]")
    _check_t_coh("forward_cutoff", t_coh)
    if p <= 0.5:
        return math.inf
    if p >= (1 + math.exp(-2 / t_coh)) / 2:
        return 0
    return math.ceil(-(t_coh / 2) * math.log(2 * p - 1) - 1)


def coherence_steps(t_coh_seconds: float, d_km: float) -> float:
    """Coherence time in heralding steps of duration 2d/c."""
    if not (is_real(d_km) and 0 < d_km < math.inf):  # NaN fails too
        raise SatError("coherence_steps: d must be positive and finite")
    _check_t_coh("coherence_steps", t_coh_seconds)
    return t_coh_seconds * C_KM_PER_S / (2 * d_km)


# ---------------------------------------------------------------------------
# QKD rates

def h2(q: float) -> float:
    """Binary entropy in bits of q in [0, 1]."""
    if not is_probability(q):
        raise SatError("h2: q must be a real number in [0, 1]")
    if q == 0 or q == 1:
        return 0.0
    return -q * math.log2(q) - (1 - q) * math.log2(1 - q)


def _check_qber(name, Q):
    if not is_probability(Q):
        raise SatError(f"{name}: QBER must be a real number in [0, 1]")


def key_rate_bb84(Q: float) -> float:
    _check_qber("key_rate_bb84", Q)
    return 1 - 2 * h2(Q)


def key_rate_six_state(Q: float) -> float:
    _check_qber("key_rate_six_state", Q)
    if Q == 0:
        return 1.0
    t1 = (1 - 3 * Q / 2)
    if t1 <= 0:
        # entropy terms degenerate; the rate is deep below zero here anyway
        t1_term = 0.0
    else:
        t1_term = t1 * math.log2(t1)
    return 1 + t1_term + (3 * Q / 2) * math.log2(Q / 2)


def key_rate_di(Q: float, S: float) -> float:
    _check_qber("key_rate_di", Q)
    if not S >= 2:
        raise SatError("key_rate_di: CHSH value below 2 has no real-valued rate")
    if not S <= 2 * math.sqrt(2):
        raise SatError("key_rate_di: CHSH value above Tsirelson's bound 2 sqrt(2)")
    # at S = 2 sqrt(2) the argument rounds to 1 + 2.2e-16
    return 1 - h2(Q) - h2(min((1 + math.sqrt((S / 2) ** 2 - 1)) / 2, 1.0))


def qber_and_rates(alpha: float, beta: float, protocol: str, M: int, p: float):
    """QBER, raw key fraction, and multiplexed key bits per time step for a
    Bell-diagonal link with coefficients (alpha+beta, alpha-beta, g, g);
    protocol is "bb84", "6state" or "di", the last with CHSH value
    S = 2 sqrt(2) (1 - 2Q).  Below S = 2 the DI key fraction is None (no
    real-valued rate) and the rate 0."""
    _check_multiplexing("qber_and_rates", p, M)
    if protocol == "bb84":
        Q = 0.75 - beta / 2 - alpha
        K = key_rate_bb84(Q)
    elif protocol == "6state":
        Q = (2 / 3) * (1 - (alpha + beta))
        K = key_rate_six_state(Q)
    elif protocol == "di":
        Q = (2 / 3) * (1 - (alpha + beta))
        S = 2 * math.sqrt(2) * (1 - 2 * Q)
        if is_probability(Q) and S < 2:
            return Q, None, 0.0
        K = key_rate_di(Q, S)
    else:
        raise SatError(f"qber_and_rates: unknown protocol {protocol!r}")
    rate = M * p * max(K, 0.0)
    return Q, K, rate
