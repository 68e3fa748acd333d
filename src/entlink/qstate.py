"""Exact finite-dimensional quantum states and channels.

Everything here is dense complex linear algebra: Bell/GHZ/graph states,
the three joining protocols as brute-force channels, their closed-form
output fidelities, BBPSSW distillation and amplitude damping.  Subsystems
are ordered as written: A, R_1^1, R_1^2, ..., R_n^1, R_n^2, B for
swapping chains.  The swap and GHZ chains apply each node's measurement
to the reshaped joint state, one node and one outcome at a time, and
never form a Kraus matrix of the whole chain.  `DensityOperator`
validates in one work buffer, which LAPACK's zpotrf factors in place.

Constant operators (Bell vectors, Weyl corrections, node factors), which
the selftest asks for hundreds of times, are built on first use into
small private caches of read-only arrays; public functions hand out copies.

The whole package does its dense linear algebra with numpy's OpenBLAS
only.  `scipy.linalg` loads a second OpenBLAS thread pool, and the two
stall each other: on a 2-core host one 81x81 numpy matmul took 0.08 ms
alone and 4.0 ms right after a 9x9 `scipy.linalg.expm`.  Of scipy the
package loads only the compiled SuperLU module at import and HiGHS on the
first LP solve, which only the oracles and `--selftest` make (see `lp`);
both were measured and do not stall.  zpotrf is numpy's OpenBLAS one,
called through ctypes, and only in its ILP64 (64-bit integer) build.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .markov import is_count, is_probability

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-9


class QuantumError(ValueError):
    pass


def _lapack_routine(names):
    """The first ILP64 routine of `names` that the OpenBLAS numpy loaded
    exports, typed as zpotrf(uplo, n, a, lda, info)."""
    path = np.linalg._umath_linalg.__file__
    lib, int64 = ctypes.CDLL(path), ctypes.POINTER(ctypes.c_int64)
    for routine in (getattr(lib, name) for name in names if hasattr(lib, name)):
        routine.argtypes = [ctypes.c_char_p, int64, ctypes.c_void_p, int64, int64]
        routine.restype = None
        return routine
    raise ImportError(f"qstate: {path} exports none of {', '.join(names)}")


_zpotrf = _lapack_routine(("scipy_zpotrf_64_", "zpotrf_64_"))


def _cholesky_in_place(work):
    """zpotrf('L') in place on `work` read by columns: 0, or the order of
    the first leading minor that is not positive definite."""
    n = len(work)
    if work.dtype != np.complex128 or work.shape != (n, n) or not work.flags.c_contiguous:
        raise TypeError("_cholesky_in_place: needs a C-ordered square complex128 array")
    info = ctypes.c_int64()
    _zpotrf(b"L", ctypes.c_int64(n), work.ctypes.data, ctypes.c_int64(n), info)
    if info.value < 0:  # a fault of the binding, not of the matrix
        arg = ("uplo", "n", "a", "lda")[-info.value - 1]
        raise RuntimeError(f"zpotrf: illegal argument {-info.value} ({arg})")
    return info.value


class DensityOperator:
    """Validated density matrix with a subsystem-dimension list."""

    __slots__ = ("mat", "dims")

    def __init__(self, mat, dims=None):
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise QuantumError("DensityOperator: not square")
        if not np.isfinite(mat).all():  # NaN would pass the tests below
            raise QuantumError("DensityOperator: non-finite entries")
        # the one work buffer: conj(mat.T), transposed in cache-sized tiles, then
        # compared with mat and made the Hermitian part H = 0.5 (mat + conj(mat.T))
        # in one pass over row blocks of ~2^14 entries
        n = mat.shape[0]
        work = np.empty(mat.shape, dtype=complex)
        for i in range(0, n, 64):
            for j in range(0, n, 64):
                np.conj(mat[j:j + 64, i:i + 64].T, out=work[i:i + 64, j:j + 64])
        step = max(1, 2 ** 14 // n)
        for i in range(0, n, step):
            block, rows = mat[i:i + step], work[i:i + step]
            if np.max(np.abs(block - rows)) > HERM_TOL:
                raise QuantumError("DensityOperator: not Hermitian")
            rows += block
            rows *= 0.5
        if abs(np.trace(mat).real - 1.0) > TRACE_TOL:
            raise QuantumError(f"DensityOperator: trace {np.trace(mat).real!r}")
        # positive semidefinite down to EIG_FLOOR iff H plus |EIG_FLOOR| I has a
        # Cholesky factor; eigvalsh decides only the near-misses Cholesky refuses.
        # H is exactly Hermitian, so read by columns work is conj(H): zpotrf's input
        work.flat[::n + 1] -= EIG_FLOOR
        if _cholesky_in_place(work):
            ev = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
            if ev.min() < EIG_FLOOR:
                raise QuantumError(f"DensityOperator: min eigenvalue {ev.min():g}")
        if mat.flags.writeable:  # the caller's to change: hold a copy, made in the work buffer
            np.copyto(work, mat)
            mat = work
        self.mat = mat
        self.mat.setflags(write=False)
        self.dims = tuple(dims) if dims is not None else (mat.shape[0],)
        if not all(is_count(k, 1) for k in self.dims):
            raise QuantumError("DensityOperator: dims must be integers >= 1")
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
        if not np.max(np.abs(s - np.eye(kraus[0].shape[1]))) <= HERM_TOL * 10:  # NaN fails
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
        if not np.all(c >= -1e-12):  # NaN fails too
            raise QuantumError("BellDiagCoeffs: negative coefficient")
        if not abs(c.sum() - 1.0) <= 1e-12:
            raise QuantumError(f"BellDiagCoeffs: sum {c.sum()!r} != 1")

    def as_array(self):
        return np.array([self.phi_plus, self.phi_minus, self.psi_plus, self.psi_minus])


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
    """(Z^z X^x (x) 1)|Phi>, |Phi> = d^{-1/2} sum_k |k,k>: the entry at
    |k+x, k> is omega^{z(k+x)} / sqrt(d)."""
    if not (0 <= z < d and 0 <= x < d):
        raise QuantumError("bell: z, x must lie in [0, d)")
    return _bell(operator.index(d), operator.index(z), operator.index(x)).copy()


def bell_basis(d):
    """The d^2 Bell vectors as rows, row x*d + z holding bell(d, z, x); for
    d = 2 that is Phi+, Phi-, Psi+, Psi- (up to phase)."""
    return _bell_basis(operator.index(d)).copy()


def _read_only(a):
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=16)
def _bell(d, z, x):
    omega_z = np.diag(np.linalg.matrix_power(weyl_z(d), z))
    k = np.arange(d)
    row = (k + x) % d
    phi = np.zeros(d * d, dtype=complex)
    phi[row * d + k] = omega_z[row] * (1.0 / np.sqrt(d))
    return _read_only(phi)


@functools.lru_cache(maxsize=4)
def _bell_basis(d):
    return _read_only(np.array([_bell(d, z, x) for x in range(d) for z in range(d)]))


def ghz(n):
    if n < 2:
        raise QuantumError("ghz: n must be >= 2")
    v = np.zeros(2 ** n, dtype=complex)
    v[0] = v[-1] = 1 / np.sqrt(2)
    return v


def _adjacency(adjacency, name):
    """The adjacency matrix of a simple graph: square, symmetric, entries 0
    or 1, zero diagonal."""
    A = np.asarray(adjacency)
    if (A.ndim != 2 or A.shape[0] != A.shape[1] or (A != A.T).any()
            or A.diagonal().any() or not ((A == 0) | (A == 1)).all()):
        raise QuantumError(f"{name}: adjacency must be symmetric 0/1 with zero diagonal")
    return A


def graph_state(adjacency):
    """Graph state CZ(G)|+...+> from an adjacency matrix, by the sign formula
    <alpha|G> = (-1)^(sum over edges ij of alpha_i alpha_j) / sqrt(2^n)."""
    A = _adjacency(adjacency, "graph_state")
    n = A.shape[0]
    alpha = np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1) & 1  # row = bits of alpha
    exponent = np.einsum("ki,ij,kj->k", alpha, np.triu(A, 1), alpha)
    return np.where(exponent % 2, -1.0, 1.0).astype(complex) / np.sqrt(2 ** n)


def _kron(x, y):
    """np.kron(x, y) of 2-d arrays: the same products, so the same bits,
    without np.kron's per-call reshaping."""
    return (x[:, None, :, None] * y[None, :, None, :]).reshape(
        x.shape[0] * y.shape[0], x.shape[1] * y.shape[1])


def tensor(*mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = _kron(out, np.atleast_2d(np.asarray(m, dtype=complex)))
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
    m, _ = permute_subsystems(mat, dims, perm)
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
    if not is_probability(gamma):
        raise QuantumError("amplitude_damping: gamma must be a real number in [0, 1]")
    K0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    K1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return KrausChannel([K0, K1])


# ---------------------------------------------------------------------------
# joining protocols

def _measure_nodes(mat, dim_done, n, key0, node):
    """Apply n measuring nodes in turn to the operator `mat`, keeping each
    outcome branch unnormalized and summing branches that share a key.

    Every node acts on the next P = d^2 dimensions after the first
    `dim_done` ones.  `node(key)` gives, for a branch with that key, the
    node factors F of shape (outcomes, m, P) and the key of each outcome's
    new branch; outcome o maps the branch's operator M to F_o M F_o^dag,
    so the node leaves m dimensions behind (m = 1 for a Bell measurement).
    Returns {key: operator}; the first branch has key `key0`.
    """
    branches = {key0: mat}
    for _ in range(n):
        new = {}
        for key, M in branches.items():
            F, keys = node(key)
            _, m, P = F.shape
            rest = M.shape[0] // (dim_done * P)
            # one outcome at a time, ket side then bra side: each product is
            # C-ordered, so the reshapes are views, and rebinding U frees the
            # ket side before the next outcome's
            for Fo, k in zip(F, keys):
                U = np.matmul(Fo, M.reshape(dim_done, P, -1))
                U = np.matmul(Fo.conj(), U.reshape(dim_done, m, rest * dim_done, P, rest))
                part = U.reshape(dim_done * m * rest, -1)
                new[k] = new[k] + part if k in new else part
        branches = new
        dim_done *= m
    return branches


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
    d = operator.index(d)
    bras = _bell_basis(d).conj()[:, None, :]  # outcome x*d + z -> <Phi^{z,x}|
    corrections = _weyl_corrections(d)

    def node(key):
        s, t = key
        return bras, [((s + z) % d, (t + x) % d) for x in range(d) for z in range(d)]

    out = np.zeros((dA * dB, dA * dB), dtype=complex)
    for (s, t), M in _measure_nodes(rho_joint.mat, dA, n, (0, 0), node).items():
        W = _kron(np.eye(dA), corrections[s, t])
        out += W @ M @ W.conj().T
    return DensityOperator(out, (dA, dB))


@functools.lru_cache(maxsize=4)
def _weyl_corrections(d):
    """Z^s X^t at [s, t]."""
    Z, X = weyl_z(d), weyl_x(d)
    return _read_only(np.array([[np.linalg.matrix_power(Z, s) @ np.linalg.matrix_power(X, t)
                                 for t in range(d)] for s in range(d)]))


def _overlap_tables(tables, what, shape=None):
    """The tables as float arrays whose last axes have `shape` (default:
    square, the size of the first table's last axis), with entries
    >= -1e-12 and each table summing to at most 1 + 1e-9 (NaN fails);
    leading axes are batch axes."""
    tables = [np.asarray(t, dtype=float) for t in tables]
    if shape is None:
        shape = (np.shape(tables[0])[-1:] or (0,)) * 2
    axes = tuple(range(-len(shape), 0))
    for t in tables:
        if t.shape[t.ndim - len(shape):] != shape:
            raise QuantumError(f"{what}: inconsistent table shapes")
        if not ((t >= -1e-12).all() and (t.sum(axis=axes) <= 1 + 1e-9).all()):
            raise QuantumError(f"{what}: malformed overlap table")
    return tables


def swap_fidelity(bell_overlaps):
    """Closed-form post-swap fidelity to |Phi> from per-link Bell-overlap
    tables; table i has entry [..., z, x] = <Phi^{z,x}|rho_i|Phi^{z,x}>.
    Leading batch axes broadcast and give an array of fidelities."""
    if len(bell_overlaps) < 2:
        raise QuantumError("swap_fidelity: need at least two links")
    # [z, x] first, so that an unbatched entry is a scalar, not a 0-d array
    tables = [t.transpose(t.ndim - 2, t.ndim - 1, *range(t.ndim - 2))
              for t in _overlap_tables(bell_overlaps, "swap_fidelity")]
    d = tables[0].shape[0]
    n = len(tables) - 1
    total = 0.0
    for pairs in itertools.product(itertools.product(range(d), range(d)), repeat=n):
        zp = (-sum(z for z, _ in pairs)) % d
        xp = (-sum(x for _, x in pairs)) % d
        term = tables[0][zp, xp]
        for j, (z, x) in enumerate(pairs):
            term = term * tables[j + 1][z, x]
        total = total + term
    return float(total) if np.ndim(total) == 0 else total


_CNOT = np.array([[1, 0, 0, 0],
                  [0, 1, 0, 0],
                  [0, 0, 0, 1],
                  [0, 0, 1, 0]], dtype=complex)


@functools.lru_cache(maxsize=2)
def _K_meas(x):
    # <x| on the second qubit after a CNOT across the pair
    bra = np.zeros((1, 2), dtype=complex)
    bra[0, x] = 1.0
    return _read_only(_kron(np.eye(2), bra) @ _CNOT)


@functools.lru_cache(maxsize=1)
def _ghz_node():
    """X^0, X^1 and node j's factors (one per outcome) after the correction
    X^k that node j-1's outcome asks of R_j^1, at [k]."""
    X = (_read_only(np.eye(2)), _read_only(weyl_x(2).real))
    return X, tuple(_read_only(np.array([_K_meas(x) @ _kron(X[k], np.eye(2)) for x in (0, 1)]))
                    for k in (0, 1))


def ghz_swap_channel(rho_joint: DensityOperator, n: int) -> DensityOperator:
    """Chain of n CNOT-and-measure nodes turning n+1 qubit pairs into a
    candidate (n+2)-party GHZ state.  Qubits only."""
    dims = rho_joint.dims
    if len(dims) != 2 * n + 2 or any(di != 2 for di in dims):
        raise QuantumError("ghz_swap_channel: expected 2n+2 qubit subsystems")
    X, factors = _ghz_node()
    dim_out = 2 ** (n + 2)
    out = np.zeros((dim_out, dim_out), dtype=complex)
    for x, M in _measure_nodes(rho_joint.mat, 2, n, 0, lambda k: (factors[k], [0, 1])).items():
        W = _kron(np.eye(dim_out // 2), X[x])  # correction on B
        out += W @ M @ W.conj().T
    return DensityOperator(out, tuple([2] * (n + 2)))


def ghz_swap_fidelity(z_overlaps) -> float:
    """Prop-style GHZ fidelity from per-link values <Phi^{z,0}|rho_i|Phi^{z,0}>,
    given as a list of length-2 arrays (index z)."""
    n = len(z_overlaps) - 1
    if n < 1:
        raise QuantumError("ghz_swap_fidelity: need at least two links")
    tables = _overlap_tables(z_overlaps, "ghz_swap_fidelity", (2,))
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
    A = _adjacency(adjacency, "graph_dist_channel")
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
        K = _kron(zvec, gx.conj()[None, :])
        out += K @ m @ K.conj().T
    return DensityOperator(out, tuple([2] * n))


def graph_dist_fidelity(overlap_tables, adjacency) -> float:
    """Prop-style graph-state fidelity; table i has entry [z, x] =
    <Phi^{z,x}|rho_i|Phi^{z,x}> for the i-th pair."""
    A = _adjacency(adjacency, "graph_dist_fidelity")
    n = A.shape[0]
    if len(overlap_tables) != n:
        raise QuantumError("graph_dist_fidelity: need one table per vertex")
    tables = _overlap_tables(overlap_tables, "graph_dist_fidelity", (2, 2))
    total = 0.0
    for xs in itertools.product(range(2), repeat=n):
        zs = A @ np.array(xs) % 2
        term = 1.0
        for i in range(n):
            term *= tables[i][int(zs[i]), xs[i]]
        total += term
    return float(total)


def bell_overlap_table(rho, d: int) -> np.ndarray:
    """[..., z, x] -> <Phi^{z,x}|rho|Phi^{z,x}>; rho a DensityOperator, a
    matrix or a stack of matrices (leading batch axes)."""
    mat = rho.mat if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=complex)
    if mat.shape[-2:] != (d * d, d * d):
        raise QuantumError("bell_overlap_table: dimension mismatch")
    basis = _bell_basis(operator.index(d))  # row x*d + z
    overlaps = np.sum((basis.conj() @ mat) * basis, axis=-1).real
    return overlaps.reshape(*mat.shape[:-2], d, d).swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# distillation

def isotropic_twirl(rho: DensityOperator) -> DensityOperator:
    if rho.dim != 4:
        raise QuantumError("isotropic_twirl: expected a two-qubit state")
    phi = _bell(2, 0, 0)
    F = fidelity_to_pure(rho, phi)
    P = np.outer(phi, phi.conj())
    return DensityOperator(F * P + (1 - F) * (np.eye(4) - P) / 3, (2, 2))


def bbpssw_instrument(rho1: DensityOperator, rho2: DensityOperator):
    """Twirl both inputs, run the CNOT-and-compare instrument, postselect on
    matching outcomes.  Returns (p_succ, conditional output state)."""
    r1 = isotropic_twirl(rho1).mat
    r2 = isotropic_twirl(rho2).mat
    joint = _kron(r1, r2)  # order A1 B1 A2 B2
    m, _ = permute_subsystems(joint, (2, 2, 2, 2), [0, 2, 1, 3])  # A1 A2 B1 B2
    succ = np.zeros((4, 4), dtype=complex)
    for xa, xb in ((0, 0), (1, 1)):
        K = _kron(_K_meas(xa), _K_meas(xb))  # (A1A2 -> A1) (x) (B1B2 -> B1)
        succ += K @ m @ K.conj().T
    # twirled inputs give p = (8/9) F1 F2 - (2/9)(F1 + F2) + 5/9 >= 1/3
    p = float(np.real(np.trace(succ)))
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
