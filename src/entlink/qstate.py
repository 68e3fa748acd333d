"""Exact finite-dimensional quantum states and channels.

Everything here is dense complex linear algebra: Bell/GHZ/graph states,
the three joining protocols as Kraus-sum channels, their closed-form
output fidelities, BBPSSW distillation, amplitude damping, and the d-rail
pure-loss map.  Subsystems are ordered as written: A, R_1^1, R_1^2, ...,
R_n^1, R_n^2, B for swapping chains.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-9


class QuantumError(ValueError):
    pass


class DensityOperator:
    """Validated density matrix with a subsystem-dimension list."""

    __slots__ = ("mat", "dims")

    def __init__(self, mat, dims=None):
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise QuantumError("DensityOperator: not square")
        if np.max(np.abs(mat - mat.conj().T)) > HERM_TOL:
            raise QuantumError("DensityOperator: not Hermitian")
        if abs(np.trace(mat).real - 1.0) > TRACE_TOL:
            raise QuantumError(f"DensityOperator: trace {np.trace(mat).real!r}")
        ev = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
        if ev.min() < EIG_FLOOR:
            raise QuantumError(f"DensityOperator: min eigenvalue {ev.min():g}")
        self.mat = mat
        self.mat.setflags(write=False)
        self.dims = tuple(dims) if dims is not None else (mat.shape[0],)
        if int(np.prod(self.dims)) != mat.shape[0]:
            raise QuantumError("DensityOperator: dims do not multiply to size")

    @property
    def dim(self):
        return self.mat.shape[0]


class KrausChannel:
    """Trace-preserving CP map given by Kraus matrices."""

    __slots__ = ("kraus",)

    def __init__(self, kraus):
        kraus = [np.asarray(K, dtype=complex) for K in kraus]
        if not kraus:
            raise QuantumError("KrausChannel: no Kraus operators")
        s = sum(K.conj().T @ K for K in kraus)
        if np.max(np.abs(s - np.eye(kraus[0].shape[1]))) > HERM_TOL * 10:
            raise QuantumError("KrausChannel: not trace preserving")
        self.kraus = kraus

    def __call__(self, mat):
        mat = mat.mat if isinstance(mat, DensityOperator) else np.asarray(mat, dtype=complex)
        return sum(K @ mat @ K.conj().T for K in self.kraus)


@dataclass(frozen=True)
class BellDiagCoeffs:
    """Coefficients of (Phi+, Phi-, Psi+, Psi-)."""

    phi_plus: float
    phi_minus: float
    psi_plus: float
    psi_minus: float

    def __post_init__(self):
        c = self.as_array()
        if np.any(c < -1e-12):
            raise QuantumError("BellDiagCoeffs: negative coefficient")
        if abs(c.sum() - 1.0) > 1e-12:
            raise QuantumError(f"BellDiagCoeffs: sum {c.sum()!r} != 1")

    def as_array(self):
        return np.array([self.phi_plus, self.phi_minus, self.psi_plus, self.psi_minus])

    def to_density(self) -> DensityOperator:
        mat = sum(c * np.outer(b, b.conj())
                  for c, b in zip(self.as_array(), _bell_basis_2()))
        return DensityOperator(mat, (2, 2))

    def overlap_table(self):
        """(z, x) -> <Phi^{z,x}|rho|Phi^{z,x}> for the qubit Bell basis."""
        # ordering: Phi^{0,0}=Phi+, Phi^{1,0}=Phi-, Phi^{0,1}=Psi+, Phi^{1,1}=Psi- (up to phase)
        t = np.empty((2, 2))
        t[0, 0] = self.phi_plus
        t[1, 0] = self.phi_minus
        t[0, 1] = self.psi_plus
        t[1, 1] = self.psi_minus
        return t


# ---------------------------------------------------------------------------
# elementary constructions

def weyl_z(d):
    return np.diag(np.exp(2j * np.pi * np.arange(d) / d))


def weyl_x(d):
    X = np.zeros((d, d), dtype=complex)
    for k in range(d):
        X[(k + 1) % d, k] = 1.0
    return X


def bell(d, z=0, x=0):
    """(Z^z X^x (x) 1)|Phi>, |Phi> = d^{-1/2} sum_k |k,k>."""
    if not (0 <= z < d and 0 <= x < d):
        raise QuantumError("bell: z, x must lie in [0, d)")
    phi = np.zeros(d * d, dtype=complex)
    for k in range(d):
        phi[k * d + k] = 1.0 / np.sqrt(d)
    op = np.kron(np.linalg.matrix_power(weyl_z(d), z)
                 @ np.linalg.matrix_power(weyl_x(d), x), np.eye(d))
    return op @ phi


def _bell_basis_2():
    return [bell(2, 0, 0), bell(2, 1, 0), bell(2, 0, 1), bell(2, 1, 1)]


def ghz(n):
    if n < 2:
        raise QuantumError("ghz: n must be >= 2")
    v = np.zeros(2 ** n, dtype=complex)
    v[0] = v[-1] = 1 / np.sqrt(2)
    return v


def graph_state(adjacency):
    """Graph state CZ(G)|+...+> from an adjacency matrix, by the sign formula
    <alpha|G> = (-1)^(sum over edges ij of alpha_i alpha_j) / sqrt(2^n)."""
    A = np.asarray(adjacency)
    n = A.shape[0]
    if A.shape != (n, n) or np.any(A != A.T) or np.any(np.diag(A) != 0):
        raise QuantumError("graph_state: adjacency must be symmetric with zero diagonal")
    v = np.zeros(2 ** n, dtype=complex)
    for idx in range(2 ** n):
        alpha = np.array([(idx >> (n - 1 - i)) & 1 for i in range(n)])
        exponent = sum(A[i, j] * alpha[i] * alpha[j]
                       for i in range(n) for j in range(i + 1, n))
        v[idx] = (-1) ** exponent
    return v / np.sqrt(2 ** n)


def tensor(*mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


def permute_subsystems(mat, dims, perm):
    """Reorder tensor factors of an operator: factor perm[k] moves to slot k."""
    n = len(dims)
    mat = np.asarray(mat, dtype=complex).reshape(list(dims) * 2)
    axes = list(perm) + [n + p for p in perm]
    mat = mat.transpose(axes)
    newdims = [dims[p] for p in perm]
    size = int(np.prod(newdims))
    return mat.reshape(size, size), tuple(newdims)


def partial_trace(mat, dims, keep):
    """Trace out every subsystem not listed in `keep` (order preserved)."""
    n = len(dims)
    keep = list(keep)
    drop = [i for i in range(n) if i not in keep]
    perm = keep + drop
    m, nd = permute_subsystems(mat, dims, perm)
    dk = int(np.prod([dims[i] for i in keep])) if keep else 1
    dd = int(np.prod([dims[i] for i in drop])) if drop else 1
    m = m.reshape(dk, dd, dk, dd)
    return np.einsum("ajbj->ab", m)


def fidelity_to_pure(rho, psi):
    mat = rho.mat if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    if mat.shape[0] != psi.size:
        raise QuantumError("fidelity_to_pure: dimension mismatch")
    return float(np.real(psi.conj() @ mat @ psi))


def amplitude_damping(gamma) -> KrausChannel:
    if not 0 <= gamma <= 1:
        raise QuantumError("amplitude_damping: gamma out of range")
    K0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    K1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return KrausChannel([K0, K1])


# ---------------------------------------------------------------------------
# joining protocols

def swap_chain_channel(rho_joint: DensityOperator, n: int, d: int) -> DensityOperator:
    """Entanglement swapping over n intermediate nodes.

    Input subsystem order A, R_1^1, R_1^2, ..., R_n^1, R_n^2, B.  The A
    factor may be trivial (dimension 1) to realize plain teleportation.
    """
    dims = rho_joint.dims
    if len(dims) != 2 * n + 2:
        raise QuantumError("swap_chain_channel: expected 2n+2 subsystems")
    dA, dB = dims[0], dims[-1]
    if any(dims[i] != d for i in range(1, 2 * n + 1)) or dB != d:
        raise QuantumError("swap_chain_channel: middle/B factors must have dimension d")
    Z, X = weyl_z(d), weyl_x(d)
    out = np.zeros((dA * dB, dA * dB), dtype=complex)
    bells = {(z, x): bell(d, z, x) for z in range(d) for x in range(d)}
    for zs in itertools.product(range(d), repeat=n):
        for xs in itertools.product(range(d), repeat=n):
            W = (np.linalg.matrix_power(Z, sum(zs) % d)
                 @ np.linalg.matrix_power(X, sum(xs) % d))
            factors = [np.eye(dA)]
            for j in range(n):
                factors.append(bells[(zs[j], xs[j])].conj()[None, :])
            factors.append(W)
            K = tensor(*factors)
            out += K @ rho_joint.mat @ K.conj().T
    return DensityOperator(out, (dA, dB))


def swap_fidelity(bell_overlaps) -> float:
    """Closed-form post-swap fidelity to |Phi> from per-link Bell-overlap
    tables; table i has entry [z, x] = <Phi^{z,x}|rho_i|Phi^{z,x}>."""
    tables = [np.asarray(t, dtype=float) for t in bell_overlaps]
    if len(tables) < 2:
        raise QuantumError("swap_fidelity: need at least two links")
    d = tables[0].shape[0]
    for t in tables:
        if t.shape != (d, d):
            raise QuantumError("swap_fidelity: inconsistent table shapes")
        if np.any(t < -1e-12) or t.sum() > 1 + 1e-9:
            raise QuantumError("swap_fidelity: malformed overlap table")
    n = len(tables) - 1
    total = 0.0
    for pairs in itertools.product(itertools.product(range(d), range(d)), repeat=n):
        zp = (-sum(z for z, _ in pairs)) % d
        xp = (-sum(x for _, x in pairs)) % d
        term = tables[0][zp, xp]
        for j, (z, x) in enumerate(pairs):
            term *= tables[j + 1][z, x]
        total += term
    return float(total)


_CNOT = np.array([[1, 0, 0, 0],
                  [0, 1, 0, 0],
                  [0, 0, 0, 1],
                  [0, 0, 1, 0]], dtype=complex)


def _K_meas(x):
    # <x| on the second qubit after a CNOT across the pair
    bra = np.zeros((1, 2), dtype=complex)
    bra[0, x] = 1.0
    return np.kron(np.eye(2), bra) @ _CNOT


def ghz_swap_channel(rho_joint: DensityOperator, n: int) -> DensityOperator:
    """Chain of n CNOT-and-measure nodes turning n+1 qubit pairs into a
    candidate (n+2)-party GHZ state.  Qubits only."""
    dims = rho_joint.dims
    if len(dims) != 2 * n + 2 or any(di != 2 for di in dims):
        raise QuantumError("ghz_swap_channel: expected 2n+2 qubit subsystems")
    X = weyl_x(2).real
    dim_out = 2 ** (n + 2)
    out = np.zeros((dim_out, dim_out), dtype=complex)
    for xs in itertools.product(range(2), repeat=n):
        factors = [np.eye(2)]  # A
        for j in range(n):
            blk = _K_meas(xs[j])
            if j > 0:
                blk = blk @ np.kron(np.linalg.matrix_power(X, xs[j - 1]), np.eye(2))
            factors.append(blk)
        factors.append(np.linalg.matrix_power(X, xs[-1]))  # correction on B
        K = tensor(*factors)
        out += K @ rho_joint.mat @ K.conj().T
    return DensityOperator(out, tuple([2] * (n + 2)))


def ghz_swap_fidelity(z_overlaps) -> float:
    """Prop-style GHZ fidelity from per-link values <Phi^{z,0}|rho_i|Phi^{z,0}>,
    given as a list of length-2 arrays (index z)."""
    tables = [np.asarray(t, dtype=float) for t in z_overlaps]
    n = len(tables) - 1
    if n < 1:
        raise QuantumError("ghz_swap_fidelity: need at least two links")
    total = 0.0
    for zs in itertools.product(range(2), repeat=n):
        term = tables[0][sum(zs) % 2]
        for j, z in enumerate(zs):
            term *= tables[j + 1][z]
        total += term
    return float(total)


def graph_dist_channel(rho_joint: DensityOperator, adjacency) -> DensityOperator:
    """Central-node graph-state distribution; input subsystems interleaved
    as A_1, R_1, A_2, R_2, ..., A_n, R_n (qubits)."""
    A = np.asarray(adjacency)
    n = A.shape[0]
    dims = rho_joint.dims
    if len(dims) != 2 * n or any(di != 2 for di in dims):
        raise QuantumError("graph_dist_channel: expected 2n qubit subsystems")
    # group to (A_1..A_n, R_1..R_n)
    perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    m, _ = permute_subsystems(rho_joint.mat, dims, perm)
    G = graph_state(A)
    Zs = [np.eye(2, dtype=complex), weyl_z(2)]
    dim_out = 2 ** n
    out = np.zeros((dim_out, dim_out), dtype=complex)
    for xs in itertools.product(range(2), repeat=n):
        zvec = tensor(*[Zs[x] for x in xs])
        gx = (zvec @ G)  # |G^x> = Z^x |G>
        K = np.kron(zvec, gx.conj()[None, :])
        out += K @ m @ K.conj().T
    return DensityOperator(out, tuple([2] * n))


def graph_dist_fidelity(overlap_tables, adjacency) -> float:
    """Prop-style graph-state fidelity; table i has entry [z, x] =
    <Phi^{z,x}|rho_i|Phi^{z,x}> for the i-th pair."""
    A = np.asarray(adjacency)
    n = A.shape[0]
    tables = [np.asarray(t, dtype=float) for t in overlap_tables]
    if len(tables) != n:
        raise QuantumError("graph_dist_fidelity: need one table per vertex")
    total = 0.0
    for xs in itertools.product(range(2), repeat=n):
        zs = A @ np.array(xs) % 2
        term = 1.0
        for i in range(n):
            term *= tables[i][int(zs[i]), xs[i]]
        total += term
    return float(total)


def bell_overlap_table(rho, d: int) -> np.ndarray:
    """[z, x] -> <Phi^{z,x}|rho|Phi^{z,x}>; rho a DensityOperator or matrix."""
    t = np.empty((d, d))
    for z in range(d):
        for x in range(d):
            t[z, x] = fidelity_to_pure(rho, bell(d, z, x))
    return t


# ---------------------------------------------------------------------------
# distillation

def isotropic_twirl(rho: DensityOperator) -> DensityOperator:
    if rho.dim != 4:
        raise QuantumError("isotropic_twirl: expected a two-qubit state")
    phi = bell(2, 0, 0)
    F = fidelity_to_pure(rho, phi)
    P = np.outer(phi, phi.conj())
    return DensityOperator(F * P + (1 - F) * (np.eye(4) - P) / 3, (2, 2))


def bbpssw_instrument(rho1: DensityOperator, rho2: DensityOperator):
    """Twirl both inputs, run the CNOT-and-compare instrument, postselect on
    matching outcomes.  Returns (p_succ, conditional output state)."""
    r1 = isotropic_twirl(rho1).mat
    r2 = isotropic_twirl(rho2).mat
    joint = np.kron(r1, r2)  # order A1 B1 A2 B2
    m, _ = permute_subsystems(joint, (2, 2, 2, 2), [0, 2, 1, 3])  # A1 A2 B1 B2
    succ = np.zeros((4, 4), dtype=complex)
    for xa, xb in ((0, 0), (1, 1)):
        K = np.kron(_K_meas(xa), _K_meas(xb))  # (A1A2 -> A1) (x) (B1B2 -> B1)
        succ += K @ m @ K.conj().T
    p = float(np.real(np.trace(succ)))
    if p <= 0:
        raise QuantumError("bbpssw_instrument: zero success probability")
    return p, DensityOperator(succ / p, (2, 2))


def distill_bbpssw(f1: float, f2: float):
    """Closed-form success probability and output fidelity for the
    twirl-CNOT-compare distillation step."""
    for f in (f1, f2):
        if not 0.25 <= f <= 1 + 1e-12:
            raise QuantumError("distill_bbpssw: fidelities must lie in [1/4, 1]")
    p_succ = (8 / 9) * f1 * f2 - (2 / 9) * (f1 + f2) + 5 / 9
    f_out = ((10 / 9) * f1 * f2 - (1 / 9) * (f1 + f2) + 1 / 9) / p_succ
    return p_succ, f_out


# ---------------------------------------------------------------------------
# loss

def pure_loss_drail(X, eta: float) -> np.ndarray:
    """d-rail erasure: eta X + (1-eta) Tr[X] |vac><vac|, vacuum appended as
    the last basis index."""
    if not 0 <= eta <= 1:
        raise QuantumError("pure_loss_drail: eta out of range")
    X = X.mat if isinstance(X, DensityOperator) else np.asarray(X, dtype=complex)
    d = X.shape[0]
    out = np.zeros((d + 1, d + 1), dtype=complex)
    out[:d, :d] = eta * X
    out[d, d] = (1 - eta) * np.trace(X)
    return out
