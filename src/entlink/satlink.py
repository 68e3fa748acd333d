"""Satellite-to-ground link case study: geometry, transmittance, the
heralded Bell-diagonal state with thermal background, memory decay,
closed-form policy values, the greedy cutoff, and QKD key rates.

Lengths: ground separation, altitude, and path length in km; aperture,
beam waist, and wavelength in meters.  Time is counted in heralding steps
of duration 2d/c (round-trip classical signaling between the stations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstate import BellDiagCoeffs, DensityOperator, QuantumError, weyl_x, weyl_z

C_KM_PER_S = 299792.458
R_EARTH_KM = 6378.0


class SatError(ValueError):
    pass


@dataclass(frozen=True)
class SatGeometry:
    d: float  # ground-station separation along the surface, km
    h: float  # orbit altitude, km
    R_earth: float = R_EARTH_KM

    def __post_init__(self):
        if self.d < 0 or self.h <= 0:
            raise SatError("SatGeometry: need d >= 0 and h > 0")


@dataclass(frozen=True)
class OpticalParams:
    r: float = 0.75          # receiver aperture radius, m
    w0: float = 0.025        # beam waist, m
    wavelength: float = 810e-9
    eta_zen: float = 0.5     # atmospheric transmittance at zenith

    def __post_init__(self):
        if min(self.r, self.w0, self.wavelength) <= 0:
            raise SatError("OpticalParams: lengths must be positive")
        if not 0 < self.eta_zen <= 1:
            raise SatError("OpticalParams: eta_zen must lie in (0, 1]")

    @property
    def rayleigh_range_m(self):
        return math.pi * self.w0 ** 2 / self.wavelength


@dataclass(frozen=True)
class SatSourceParams:
    f_S: float
    nbar1: float = 0.0
    nbar2: float = 0.0
    M: int = 1

    def __post_init__(self):
        if not 0 <= self.f_S <= 1:
            raise SatError("SatSourceParams: f_S out of [0, 1]")
        for nb in (self.nbar1, self.nbar2):
            if not 0 <= nb <= 1:
                raise SatError("SatSourceParams: nbar out of [0, 1]")
        if self.M < 1:
            raise SatError("SatSourceParams: M must be >= 1")


@dataclass(frozen=True)
class HeraldedLink:
    p: float
    coeffs: BellDiagCoeffs
    alpha: float
    beta: float
    gamma_coef: float
    a: float
    b: float
    c: float


def path_length(geom: SatGeometry) -> float:
    """Slant range from a ground station to the satellite at the midpoint."""
    R = geom.R_earth
    s = math.sin(geom.d / (4 * R))
    return math.sqrt(4 * R * (R + geom.h) * s * s + geom.h * geom.h)


def eta_sg(L: float, h: float, opt: OpticalParams, R_earth: float = R_EARTH_KM) -> float:
    """Satellite-to-ground transmittance: diffraction-limited free-space
    collection times zenith-angle-corrected atmospheric absorption."""
    if L < h:
        raise SatError("eta_sg: path length cannot be below the altitude")
    L_m = L * 1000.0
    w = opt.w0 * math.sqrt(1 + (L_m / opt.rayleigh_range_m) ** 2)
    eta_fs = 1 - math.exp(-2 * opt.r ** 2 / w ** 2)
    cos_zen = h / L - (L * L - h * h) / (2 * R_earth * L)
    if cos_zen <= 0:
        return 0.0  # below the horizon
    eta_atm = opt.eta_zen ** (1 / cos_zen)
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
    for eta in (eta1, eta2):
        if not 0 <= eta <= 1:
            raise SatError("heralded_link: eta out of [0, 1]")
    x1, y1, z1 = _arm_factors(eta1, src.nbar1)
    x2, y2, z2 = _arm_factors(eta2, src.nbar2)
    a = x1 * x2 + y1 * y2
    b = z1 * z2
    c = x1 * y2 + y1 * x2
    p = (x1 + y1) * (x2 + y2)
    if p <= 0:
        raise SatError("heralded_link: zero heralding probability")
    qt = (1 - src.f_S) / 3
    alpha = (0.5 * src.f_S * a + 0.5 * qt * (a + 2 * c)) / (a + c)
    beta = (0.5 * src.f_S * b - 0.5 * qt * b) / (a + c)
    gamma = (0.5 * src.f_S * c + 0.5 * qt * (2 * a + c)) / (a + c)
    coeffs = BellDiagCoeffs(alpha + beta, alpha - beta, gamma, gamma)
    return HeraldedLink(p=p, coeffs=coeffs, alpha=alpha, beta=beta,
                        gamma_coef=gamma, a=a, b=b, c=c)


def multiplexed_p(p_single: float, M: int) -> float:
    if M < 1:
        raise SatError("multiplexed_p: M must be >= 1")
    return 1 - (1 - p_single) ** M


def entangled(link: HeraldedLink, f_S: float) -> bool:
    """Partial-transpose criterion for the heralded Bell-diagonal state."""
    if f_S <= 0.5:
        return False
    return (2 * (f_S - 1) * link.a + (4 * f_S - 1) * link.b
            - (1 + 2 * f_S) * link.c) > 0


# ---------------------------------------------------------------------------
# memory decay and policy values

def memory_f(m: int, t_coh: float, alpha: float, beta: float) -> float:
    """Target overlap after m steps in two amplitude-damping memories."""
    if t_coh <= 0:
        raise SatError("memory_f: t_coh must be positive")
    lam = math.exp(-m / t_coh)
    return alpha * lam * lam + (beta - 0.5) * lam + 0.5


def memory_f_vector(m_star: int, t_coh: float, alpha: float, beta: float) -> np.ndarray:
    """f over the link states (-1, 0, ..., m_star)."""
    f = np.zeros(m_star + 2)
    for m in range(m_star + 1):
        f[m + 1] = memory_f(m, t_coh, alpha, beta)
    return f


def _geom_exp_sum(t_star, t_coh):
    # sum_{m=0}^{t*} e^{-m/t_coh} as an expm1 ratio, which cannot overflow
    # for small t_coh as a sinh ratio does
    return math.expm1(-(t_star + 1) / t_coh) / math.expm1(-1 / t_coh)


def cutoff_steady_sinh(t_star: int, t_coh: float, alpha: float, beta: float,
                       p: float):
    """Stationary (F~, F) under the cutoff rule, with the decay sums in
    closed form."""
    if t_star < 0:
        raise SatError("cutoff_steady_sinh: t_star must be >= 0")
    s1 = _geom_exp_sum(t_star, t_coh)
    s2 = _geom_exp_sum(t_star, t_coh / 2)
    fsum = alpha * s2 + (beta - 0.5) * s1 + 0.5 * (t_star + 1)
    ftilde = p * fsum / (1 + t_star * p)
    return ftilde, fsum / (t_star + 1)


def ftilde_infty_closed(t: int, t_coh: float, alpha: float, beta: float,
                        p: float) -> float:
    """Expected figure of merit at time t under the never-discard rule."""
    if t < 1:
        raise SatError("ftilde_infty_closed: t must be >= 1")
    if not 0 < p <= 1:
        raise SatError("ftilde_infty_closed: p must lie in (0, 1]")
    e1 = math.exp(1 / t_coh)
    e2 = math.exp(2 / t_coh)
    d2 = 1 - e2 * (1 - p)
    d1 = 1 - e1 * (1 - p)
    if abs(d1) < 1e-9 or abs(d2) < 1e-9:
        # geometric ratio 1: evaluate the sum directly instead
        return sum(memory_f(m, t_coh, alpha, beta) * p * (1 - p) ** (t - m - 1)
                   for m in range(t))
    term2 = alpha * p * e2 * (math.exp(-2 * t / t_coh) - (1 - p) ** t) / d2
    term1 = (beta - 0.5) * p * e1 * (math.exp(-t / t_coh) - (1 - p) ** t) / d1
    term0 = 0.5 * (1 - (1 - p) ** t)
    return term2 + term1 + term0


def forward_cutoff(p: float, t_coh: float):
    """Cutoff equivalent to the greedy lookahead rule for an ideal source
    in decaying memories: never discard at low p, discard immediately when
    generation is near-deterministic."""
    if not 0 <= p <= 1:
        raise SatError("forward_cutoff: p out of [0, 1]")
    if p <= 0.5:
        return math.inf
    if p >= (1 + math.exp(-2 / t_coh)) / 2:
        return 0
    return math.ceil(-(t_coh / 2) * math.log(2 * p - 1) - 1)


def coherence_steps(t_coh_seconds: float, d_km: float) -> float:
    """Coherence time in heralding steps of duration 2d/c."""
    if d_km <= 0:
        raise SatError("coherence_steps: d must be positive")
    return t_coh_seconds * C_KM_PER_S / (2 * d_km)


# ---------------------------------------------------------------------------
# QKD rates

def h2(q: float) -> float:
    if q <= 0 or q >= 1:
        return 0.0
    return -q * math.log2(q) - (1 - q) * math.log2(1 - q)


def key_rate_bb84(Q: float) -> float:
    return 1 - 2 * h2(Q)


def key_rate_six_state(Q: float) -> float:
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
    if S < 2:
        raise SatError("key_rate_di: CHSH value below 2 has no real-valued rate")
    return 1 - h2(Q) - h2((1 + math.sqrt((S / 2) ** 2 - 1)) / 2)


def qber_and_rates(alpha: float, beta: float, protocol: str, M: int, p: float,
                   S: float | None = None):
    """QBER, raw key fraction, and multiplexed key bits per time step for a
    Bell-diagonal link with coefficients (alpha+beta, alpha-beta, g, g)."""
    protocol = protocol.lower()
    if protocol == "bb84":
        Q = 0.75 - beta / 2 - alpha
        K = key_rate_bb84(Q)
    elif protocol in ("6state", "six-state", "sixstate"):
        Q = (2 / 3) * (1 - (alpha + beta))
        K = key_rate_six_state(Q)
    elif protocol == "di":
        Q = (2 / 3) * (1 - (alpha + beta))
        if S is None:
            S = 2 * math.sqrt(2) * (1 - 2 * Q)
        K = key_rate_di(Q, S)
    else:
        raise SatError(f"qber_and_rates: unknown protocol {protocol!r}")
    rate = M * p * max(K, 0.0)
    return Q, K, rate


def qbers_from_state(rho: DensityOperator):
    """Pauli-correlation error rates of a two-qubit state."""
    if rho.dim != 4:
        raise QuantumError("qbers_from_state: expected a two-qubit state")
    X = weyl_x(2)
    Z = weyl_z(2).real.astype(complex)
    Y = 1j * X @ Z
    qx = 0.5 * (1 - np.trace(np.kron(X, X) @ rho.mat).real)
    qy = 0.5 * (1 + np.trace(np.kron(Y, Y) @ rho.mat).real)
    qz = 0.5 * (1 - np.trace(np.kron(Z, Z) @ rho.mat).real)
    return qx, qy, qz
