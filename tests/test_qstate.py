import ast
import functools
import hashlib
import inspect
import itertools
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entlink import qstate as Q
from entlink.oracles import bell_diagonal_density


def random_density(rng, d):
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def _bell_reference(d, z, x):
    """(Z^z X^x (x) 1)|Phi> by matrix products."""
    phi = np.zeros(d * d, dtype=complex)
    for k in range(d):
        phi[k * d + k] = 1.0 / np.sqrt(d)
    op = np.kron(np.linalg.matrix_power(Q.weyl_z(d), z)
                 @ np.linalg.matrix_power(Q.weyl_x(d), x), np.eye(d))
    return op @ phi


def test_bell_closed_form_is_bitwise_the_operator_product():
    for d in range(1, 6):
        for z in range(d):
            for x in range(d):
                assert Q.bell(d, z, x).tobytes() == _bell_reference(d, z, x).tobytes()
        basis = Q.bell_basis(d)
        for x in range(d):
            for z in range(d):
                assert basis[x * d + z].tobytes() == _bell_reference(d, z, x).tobytes()


def _swap_chain_kraus(mat, n, d, dA):
    """Swap chain as the dense Kraus sum over all d^(2n) outcomes."""
    Z, X = Q.weyl_z(d), Q.weyl_x(d)
    out = np.zeros((dA * d, dA * d), dtype=complex)
    for zs in itertools.product(range(d), repeat=n):
        for xs in itertools.product(range(d), repeat=n):
            W = (np.linalg.matrix_power(Z, sum(zs) % d)
                 @ np.linalg.matrix_power(X, sum(xs) % d))
            factors = [np.eye(dA)]
            for z, x in zip(zs, xs):
                factors.append(Q.bell(d, z, x).conj()[None, :])
            factors.append(W)
            K = Q.tensor(*factors)
            out += K @ mat @ K.conj().T
    return out


def _ghz_swap_kraus(mat, n):
    """GHZ chain as the dense Kraus sum over all 2^n outcomes."""
    X = Q.weyl_x(2).real
    out = np.zeros((2 ** (n + 2),) * 2, dtype=complex)
    for xs in itertools.product(range(2), repeat=n):
        factors = [np.eye(2)]  # A
        for j in range(n):
            blk = Q._K_meas(xs[j])
            if j > 0:
                blk = blk @ np.kron(np.linalg.matrix_power(X, xs[j - 1]), np.eye(2))
            factors.append(blk)
        factors.append(np.linalg.matrix_power(X, xs[-1]))  # correction on B
        K = Q.tensor(*factors)
        out += K @ mat @ K.conj().T
    return out


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from([2, 3]),
       st.sampled_from([1, 2]), st.booleans())
def test_swap_chain_channel_equals_kraus_sum(seed, d, n, trivial_a):
    # a random joint state, entangled across the links, not just a product
    rng = np.random.default_rng(seed)
    dA = 1 if trivial_a else d
    joint = Q.DensityOperator(random_density(rng, dA * d ** (2 * n + 1)),
                              (dA,) + (d,) * (2 * n + 1))
    out = Q.swap_chain_channel(joint, n, d)
    assert out.dims == (dA, d)
    assert np.allclose(out.mat, _swap_chain_kraus(joint.mat, n, d, dA), rtol=0, atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from([1, 2]))
def test_ghz_swap_channel_equals_kraus_sum(seed, n):
    rng = np.random.default_rng(seed)
    joint = Q.DensityOperator(random_density(rng, 2 ** (2 * n + 2)), (2,) * (2 * n + 2))
    out = Q.ghz_swap_channel(joint, n)
    assert out.dims == (2,) * (n + 2)
    assert np.allclose(out.mat, _ghz_swap_kraus(joint.mat, n), rtol=0, atol=1e-14)


def test_bell_basis_orthonormal():
    for d in (2, 3):
        vecs = [Q.bell(d, z, x) for z in range(d) for x in range(d)]
        Gm = np.array([[v.conj() @ w for w in vecs] for v in vecs])
        assert np.allclose(Gm, np.eye(d * d), atol=1e-12)


def test_density_operator_validation():
    with pytest.raises(Q.QuantumError):
        Q.DensityOperator(np.eye(2))  # trace 2
    with pytest.raises(Q.QuantumError):
        Q.DensityOperator(np.array([[0.5, 0.5], [-0.5, 0.5]]))  # not Hermitian
    with pytest.raises(Q.QuantumError):
        Q.DensityOperator(np.diag([1.5, -0.5]))  # negative eigenvalue


def _with_lowest_eigenvalue(rng, dim, lowest):
    """U diag(lowest, positive rest) U^dag with unit trace, U random unitary."""
    U, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    rest = rng.uniform(0.5, 1.5, dim - 1)
    ev = np.concatenate([[lowest], rest * (1 - lowest) / rest.sum()])
    return (U * ev) @ U.conj().T


@pytest.mark.parametrize("upper", [True, False])
def test_density_operator_sees_a_deviation_on_one_side_only(upper):
    # the Hermitian check compares mat with its conjugate transpose in row
    # chunks; a deviation just above HERM_TOL in one triangle must be seen
    rng = np.random.default_rng(5)
    dim = 256
    rho = random_density(rng, dim)
    rho = (rho + rho.conj().T) / 2  # exactly Hermitian before the deviation
    i, j = (3, 200) if upper else (200, 3)
    rho[i, j] += 1.01 * Q.HERM_TOL
    with pytest.raises(Q.QuantumError, match="not Hermitian"):
        Q.DensityOperator(rho)
    rho[i, j] -= 0.02 * Q.HERM_TOL  # now 0.99 HERM_TOL off: accepted
    Q.DensityOperator(rho)


def test_density_operator_sees_a_deviation_in_a_far_tile():
    # conj(mat.T) is written in 64 x 64 tiles; (250, 3) lies in the tile
    # farthest below the diagonal, and its mirror in the one farthest above
    rng = np.random.default_rng(6)
    rho = random_density(rng, 256)
    rho = (rho + rho.conj().T) / 2
    rho[250, 3] += 2e-10
    with pytest.raises(Q.QuantumError, match="not Hermitian"):
        Q.DensityOperator(rho)
    rho[250, 3] -= 2e-10 - 1e-11
    Q.DensityOperator(rho)


@pytest.mark.parametrize("dim", [4, 64, 256])
def test_density_operator_eigenvalue_floor(dim):
    # the floor is EIG_FLOOR = -1e-9, on the lowest eigenvalue
    rng = np.random.default_rng(dim)
    for lowest in (-0.5e-9, -0.99e-9):
        Q.DensityOperator(_with_lowest_eigenvalue(rng, dim, lowest))
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    Q.DensityOperator(np.outer(psi, psi.conj()))  # rank 1
    for lowest in (-1.01e-9, -2e-9):
        with pytest.raises(Q.QuantumError, match="min eigenvalue"):
            Q.DensityOperator(_with_lowest_eigenvalue(rng, dim, lowest))


def test_density_operator_holds_a_copy_of_a_writable_array():
    # the caller's complex array was held, and made read-only, as it was
    a = np.eye(2, dtype=complex) / 2
    rho = Q.DensityOperator(a)
    assert a.flags.writeable and not rho.mat.flags.writeable
    a[0, 0] = 1.0
    assert rho.mat.tolist() == [[0.5, 0], [0, 0.5]]
    b = np.eye(2, dtype=complex) / 2
    b.setflags(write=False)
    assert Q.DensityOperator(b).mat is b  # a read-only array is held as it is


def test_qstate_does_not_import_scipy():
    # scipy's LAPACK wrappers run on scipy's own OpenBLAS thread pool; with
    # numpy's pool also live, the two contend for the cores.  A Cholesky
    # through scipy.linalg.lapack.zpotrf in DensityOperator took the
    # selftest's joining-fidelity criterion from 0.35 s to 0.64 s at
    # default BLAS threads on a 2-core host; np.linalg.cholesky did not.
    tree = ast.parse(inspect.getsource(Q))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert not [name for name in imported if name.split(".")[0] == "scipy"]


def test_permute_subsystems_roundtrip(rng=np.random.default_rng(1)):
    rho = random_density(rng, 8)
    m, nd = Q.permute_subsystems(rho, (2, 2, 2), [2, 0, 1])
    back, _ = Q.permute_subsystems(m, nd, list(np.argsort([2, 0, 1])))
    assert np.allclose(back, rho, atol=1e-14)


def test_permute_subsystems_on_product(rng=np.random.default_rng(2)):
    a, b = random_density(rng, 2), random_density(rng, 3)
    m, nd = Q.permute_subsystems(np.kron(a, b), (2, 3), [1, 0])
    assert nd == (3, 2)
    assert np.allclose(m, np.kron(b, a), atol=1e-14)


def test_partial_trace(rng=np.random.default_rng(3)):
    a, b = random_density(rng, 2), random_density(rng, 3)
    assert np.allclose(Q.partial_trace(np.kron(a, b), (2, 3), keep=[0]), a, atol=1e-13)
    assert np.allclose(Q.partial_trace(np.kron(a, b), (2, 3), keep=[1]), b, atol=1e-13)


def _cz_graph_state(n, edges):
    """CZ(G)|+...+> as a product of two-qubit CZ gates, I - 2|11><11| on
    qubits i, j and identities elsewhere."""
    plus = np.full(2, 1 / np.sqrt(2))
    v = Q.tensor(*[plus[:, None]] * n)[:, 0]
    one = np.diag([0.0, 1.0])
    for i, j in edges:
        proj = Q.tensor(*[one if k in (i, j) else np.eye(2) for k in range(n)])
        v = (np.eye(2 ** n) - 2 * proj) @ v
    return v


def test_graph_state_matches_cz_construction():
    for n in (2, 3, 4):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(2 ** len(pairs)):
            edges = [e for k, e in enumerate(pairs) if mask >> k & 1]
            A = np.zeros((n, n), dtype=int)
            for i, j in edges:
                A[i, j] = A[j, i] = 1
            assert np.allclose(Q.graph_state(A), _cz_graph_state(n, edges),
                               rtol=0, atol=1e-12)


def _graph_state_by_loops(A):
    n = A.shape[0]
    v = np.zeros(2 ** n, dtype=complex)
    for idx in range(2 ** n):
        alpha = np.array([(idx >> (n - 1 - i)) & 1 for i in range(n)])
        exponent = sum(A[i, j] * alpha[i] * alpha[j]
                       for i in range(n) for j in range(i + 1, n))
        v[idx] = (-1) ** exponent
    return v / np.sqrt(2 ** n)


def test_graph_state_is_bitwise_the_loop_over_basis_states():
    for n in (0, 1, 2, 3, 4):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(2 ** len(pairs)):
            A = np.zeros((n, n), dtype=int)
            for k, (i, j) in enumerate(pairs):
                A[i, j] = A[j, i] = mask >> k & 1
            for B in (A, A.astype(bool), A.astype(float)):
                assert Q.graph_state(B).tobytes() == _graph_state_by_loops(B).tobytes()


def test_graph_state_two_vertices_is_bell_like():
    A = np.array([[0, 1], [1, 0]])
    v = Q.graph_state(A)
    H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    w = np.kron(np.eye(2), H) @ v  # CZ|++> maps to |Phi+> under H on one side
    assert abs(abs(w.conj() @ Q.bell(2)) - 1) < 1e-12


def test_swap_ideal_inputs_give_unit_fidelity():
    phi = Q.bell(2)
    rho = np.outer(phi, phi.conj())
    joint = Q.DensityOperator(Q.tensor(rho, rho), (2, 2, 2, 2))
    out = Q.swap_chain_channel(joint, 1, 2)
    assert Q.fidelity_to_pure(out, phi) == pytest.approx(1.0, abs=1e-12)


def test_swap_channel_trace_preserving(rng=np.random.default_rng(4)):
    joint = Q.DensityOperator(
        Q.tensor(random_density(rng, 4), random_density(rng, 4)), (2,) * 4)
    out = Q.swap_chain_channel(joint, 1, 2)
    assert np.trace(out.mat).real == pytest.approx(1.0, abs=1e-12)


def test_teleportation_via_trivial_a_factor(rng=np.random.default_rng(5)):
    # A of dimension 1: the swap becomes teleportation of the R^2 half;
    # feed |psi><psi| (x) |Phi+> so the output is exactly |psi>
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi /= np.linalg.norm(psi)
    phi = Q.bell(2)
    joint = Q.DensityOperator(
        Q.tensor(np.outer(psi, psi.conj()), np.outer(phi, phi.conj())),
        (1, 2, 2, 2))
    out = Q.swap_chain_channel(joint, 1, 2)
    assert Q.fidelity_to_pure(out, psi) == pytest.approx(1.0, abs=1e-12)


def test_swap_fidelity_formula_random(rng=np.random.default_rng(6)):
    for n in (1, 2):
        rhos = [random_density(rng, 4) for _ in range(n + 1)]
        joint = Q.DensityOperator(Q.tensor(*rhos), (2,) * (2 * n + 2))
        direct = Q.fidelity_to_pure(Q.swap_chain_channel(joint, n, 2), Q.bell(2))
        tables = [Q.bell_overlap_table(Q.DensityOperator(r, (2, 2)), 2) for r in rhos]
        assert direct == pytest.approx(Q.swap_fidelity(tables), abs=1e-12)


def test_swap_fidelity_formula_qutrit(rng=np.random.default_rng(7)):
    rhos = [random_density(rng, 9) for _ in range(2)]
    joint = Q.DensityOperator(Q.tensor(*rhos), (3, 3, 3, 3))
    direct = Q.fidelity_to_pure(Q.swap_chain_channel(joint, 1, 3), Q.bell(3))
    tables = [Q.bell_overlap_table(Q.DensityOperator(r, (3, 3)), 3) for r in rhos]
    assert direct == pytest.approx(Q.swap_fidelity(tables), abs=1e-12)


def test_channels_at_dim_1024_match_the_closed_forms(rng=np.random.default_rng(17)):
    # n = 4 nodes: a 2^10 = 1024-dimensional joint state, as in the largest
    # channel check of the benchmark's oracle-crosscheck pass
    n = 4
    rhos = [random_density(rng, 4) for _ in range(n + 1)]
    joint = Q.DensityOperator(Q.tensor(*rhos), (2,) * (2 * n + 2))
    links = [Q.DensityOperator(r, (2, 2)) for r in rhos]
    direct = Q.fidelity_to_pure(Q.swap_chain_channel(joint, n, 2), Q.bell(2))
    tables = [Q.bell_overlap_table(r, 2) for r in links]
    assert direct == pytest.approx(Q.swap_fidelity(tables), abs=1e-10)
    direct_g = Q.fidelity_to_pure(Q.ghz_swap_channel(joint, n), Q.ghz(n + 2))
    zt = [[Q.fidelity_to_pure(r, Q.bell(2, z, 0)) for z in (0, 1)] for r in links]
    assert direct_g == pytest.approx(Q.ghz_swap_fidelity(zt), abs=1e-10)


def test_ghz_channel_ideal_and_formula(rng=np.random.default_rng(8)):
    phi = Q.bell(2)
    rho = np.outer(phi, phi.conj())
    joint = Q.DensityOperator(Q.tensor(rho, rho), (2,) * 4)
    out = Q.ghz_swap_channel(joint, 1)
    assert Q.fidelity_to_pure(out, Q.ghz(3)) == pytest.approx(1.0, abs=1e-12)
    rhos = [random_density(rng, 4) for _ in range(3)]
    joint = Q.DensityOperator(Q.tensor(*rhos), (2,) * 6)
    direct = Q.fidelity_to_pure(Q.ghz_swap_channel(joint, 2), Q.ghz(4))
    zt = [[Q.fidelity_to_pure(r, Q.bell(2, z, 0)) for z in (0, 1)] for r in rhos]
    assert direct == pytest.approx(Q.ghz_swap_fidelity(zt), abs=1e-12)


def test_graph_channel_ideal_and_formula(rng=np.random.default_rng(9)):
    A = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    phi = Q.bell(2)
    rho = np.outer(phi, phi.conj())
    joint = Q.DensityOperator(Q.tensor(rho, rho, rho), (2,) * 6)
    out = Q.graph_dist_channel(joint, A)
    assert Q.fidelity_to_pure(out, Q.graph_state(A)) == pytest.approx(1.0, abs=1e-12)
    rhos = [random_density(rng, 4) for _ in range(3)]
    joint = Q.DensityOperator(Q.tensor(*rhos), (2,) * 6)
    direct = Q.fidelity_to_pure(Q.graph_dist_channel(joint, A), Q.graph_state(A))
    tables = [Q.bell_overlap_table(Q.DensityOperator(r, (2, 2)), 2) for r in rhos]
    assert direct == pytest.approx(Q.graph_dist_fidelity(tables, A), abs=1e-12)


# weight 2 once read as "no edge" (the no-edge fidelity), 0.5 gave a NaN
# amplitude and -1 a bare ValueError from an integer power
@pytest.mark.parametrize("w", [2, 0.5, -1, np.nan])
def test_graph_functions_reject_a_weighted_graph(w):
    A = np.array([[0, w], [w, 0]])
    phi = Q.bell(2)
    rho = np.outer(phi, phi.conj())
    joint = Q.DensityOperator(Q.tensor(rho, rho), (2,) * 4)
    tables = [Q.bell_overlap_table(Q.DensityOperator(rho, (2, 2)), 2)] * 2
    with pytest.raises(Q.QuantumError, match="0/1"):
        Q.graph_state(A)
    with pytest.raises(Q.QuantumError, match="0/1"):
        Q.graph_dist_channel(joint, A)
    with pytest.raises(Q.QuantumError, match="0/1"):
        Q.graph_dist_fidelity(tables, A)


@pytest.mark.parametrize("A", [
    [[0, 1], [1, 0]], [[False, True], [True, False]], [[0.0, 1.0], [1.0, 0.0]],
    [[0.0, np.nan], [np.nan, 0.0]], [[0, 2], [2, 0]], [[0, 2, 0], [2, 0, 1], [0, 1, 0]],
    [[0, 1 + 0j], [1, 0]], [[0, 0], [0, 0]],
], ids=["int", "bool", "float", "nan", "two", "two-in-3x3", "complex", "empty-graph"])
def test_adjacency_entries_are_judged_as_isin_judged_them(A):
    A = np.asarray(A)
    accepted = (not np.any(A != A.T) and not np.any(np.diag(A) != 0)
                and np.isin(A, (0, 1)).all())
    try:
        Q._adjacency(A, "graph_state")
    except Q.QuantumError:
        assert not accepted
    else:
        assert accepted


def test_isotropic_twirl_preserves_fidelity(rng=np.random.default_rng(10)):
    rho = Q.DensityOperator(random_density(rng, 4), (2, 2))
    f = Q.fidelity_to_pure(rho, Q.bell(2))
    tw = Q.isotropic_twirl(rho)
    assert Q.fidelity_to_pure(tw, Q.bell(2)) == pytest.approx(f, abs=1e-12)


def test_distillation_exact_point():
    p, f = Q.distill_bbpssw(0.8, 0.8)
    assert p == pytest.approx(0.768889, abs=1e-6)
    assert f == pytest.approx(0.838150, abs=1e-6)


def test_distillation_improves_above_half():
    for f in (0.6, 0.75, 0.9):
        _, fo = Q.distill_bbpssw(f, f)
        assert fo > f


def test_distillation_formula_vs_instrument(rng=np.random.default_rng(11)):
    phi = Q.bell(2)
    P = np.outer(phi, phi.conj())
    for _ in range(5):
        f1, f2 = rng.uniform(0.3, 1.0, 2)
        r1 = Q.DensityOperator(f1 * P + (1 - f1) * (np.eye(4) - P) / 3, (2, 2))
        r2 = Q.DensityOperator(f2 * P + (1 - f2) * (np.eye(4) - P) / 3, (2, 2))
        p_c, sigma = Q.bbpssw_instrument(r1, r2)
        p_f, f_f = Q.distill_bbpssw(f1, f2)
        assert p_c == pytest.approx(p_f, abs=1e-12)
        assert Q.fidelity_to_pure(sigma, phi) == pytest.approx(f_f, abs=1e-12)


def test_bbpssw_success_probability_at_least_a_third(rng=np.random.default_rng(12)):
    # the inputs are twirled, so p = (8/9) F1 F2 - (2/9)(F1 + F2) + 5/9 >= 1/3,
    # with equality at F1 = 1, F2 = 0
    for _ in range(200):
        r1, r2 = (Q.DensityOperator(random_density(rng, 4), (2, 2)) for _ in range(2))
        assert Q.bbpssw_instrument(r1, r2)[0] >= 1 / 3
    phi = Q.bell(2)
    bell_pair = Q.DensityOperator(np.outer(phi, phi.conj()), (2, 2))
    orthogonal = Q.DensityOperator(np.diag([0.0, 0.5, 0.5, 0.0]) + 0j, (2, 2))  # F = 0
    assert Q.bbpssw_instrument(bell_pair, orthogonal)[0] == pytest.approx(1 / 3, abs=1e-12)


def test_batched_swap_fidelity_matches_one_call_per_pair(rng=np.random.default_rng(13)):
    for d in (2, 3):
        rhos = np.array([random_density(rng, d * d) for _ in range(5)])
        tables = Q.bell_overlap_table(rhos, d)
        assert tables.shape == (5, d, d)
        for rho, table in zip(rhos, tables):
            assert np.array_equal(table, Q.bell_overlap_table(rho, d))
            want = [[Q.fidelity_to_pure(rho, Q.bell_basis(d)[x * d + z]) for x in range(d)]
                    for z in range(d)]
            np.testing.assert_allclose(table, want, rtol=0, atol=1e-15)
        batch = Q.swap_fidelity([tables[:3, None], tables[None, 3:]])
        assert batch.shape == (3, 2)
        for i, j in itertools.product(range(3), range(2)):
            assert batch[i, j] == Q.swap_fidelity([tables[i], tables[3 + j]])
        # batch axes of different ranks broadcast as numpy's do
        assert np.array_equal(Q.swap_fidelity([tables[:2, None], tables[3:], tables[0]]),
                              [[Q.swap_fidelity([tables[i], tables[3 + j], tables[0]])
                                for j in range(2)] for i in range(2)])
    # every table of a batch is checked
    bad = tables.copy()
    bad[4, 0, 0] = np.nan
    with pytest.raises(Q.QuantumError, match="malformed"):
        Q.swap_fidelity([bad, tables])


def test_amplitude_damping_fixed_point_and_tp():
    ch = Q.amplitude_damping(0.3)
    rho = np.array([[0.2, 0.1j], [-0.1j, 0.8]])
    out = ch(rho)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    ground = np.diag([1.0, 0.0]).astype(complex)
    assert np.allclose(ch(ground), ground, atol=1e-14)


def test_bell_diag_coeffs_roundtrip():
    c = Q.BellDiagCoeffs(0.4, 0.3, 0.2, 0.1)
    t = Q.bell_overlap_table(bell_diagonal_density(c), 2)  # [z, x]
    want = np.array([[c.phi_plus, c.psi_plus], [c.phi_minus, c.psi_minus]])
    assert t == pytest.approx(want, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_fidelity_bounds_property(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 4)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    f = Q.fidelity_to_pure(rho, psi)
    assert -1e-12 <= f <= 1 + 1e-12


def test_kraus_channel_validation():
    with pytest.raises(Q.QuantumError):
        Q.KrausChannel([np.eye(2) * 2])  # not trace preserving
    with pytest.raises(Q.QuantumError):
        Q.KrausChannel([np.eye(2) * 0.5])  # trace decreasing


_MIXED1 = np.eye(2) / 2
_MIXED2 = Q.DensityOperator(np.eye(4) / 4, (2, 2))
_PAIR = [[0.0, 1.0], [1.0, 0.0]]
_TABLE = np.full((2, 2), 0.25)


@pytest.mark.parametrize("make", [
    lambda: Q.DensityOperator(np.ones(3) / 3),
    lambda: Q.DensityOperator(_MIXED1, (3,)),
    lambda: Q.KrausChannel([]),
    lambda: Q.BellDiagCoeffs(-0.1, 0.5, 0.3, 0.3),
    lambda: Q.BellDiagCoeffs(0.5, 0.5, 0.5, 0.5),
    lambda: Q.bell(2, 2, 0),
    lambda: Q.ghz(1),
    lambda: Q.graph_state([[0, 1], [0, 0]]),
    lambda: Q.fidelity_to_pure(_MIXED1, np.ones(3)),
    lambda: Q.amplitude_damping(1.5),
    lambda: Q.swap_chain_channel(_MIXED2, 1, 2),
    lambda: Q.swap_chain_channel(Q.DensityOperator(np.eye(24) / 24, (2, 2, 3, 2)), 1, 2),
    lambda: Q.swap_fidelity([_TABLE]),
    lambda: Q.swap_fidelity([_TABLE, np.full((3, 3), 1 / 9)]),
    lambda: Q.swap_fidelity([[[0.5, 0.5], [0.5, -0.5]], _TABLE]),
    lambda: Q.swap_fidelity([[[1.0, 1.0], [0.0, 0.0]], _TABLE]),
    lambda: Q.ghz_swap_channel(_MIXED2, 1),
    lambda: Q.ghz_swap_fidelity([[0.5, 0.5]]),
    lambda: Q.graph_dist_channel(_MIXED2, _PAIR),
    lambda: Q.graph_dist_fidelity([_TABLE], _PAIR),
    lambda: Q.isotropic_twirl(Q.DensityOperator(_MIXED1)),
    lambda: Q.distill_bbpssw(0.1, 0.9),
    lambda: Q.DensityOperator(np.full((2, 2), np.nan)),
    lambda: Q.DensityOperator(np.diag([np.inf, 1.0])),
    lambda: Q.KrausChannel([np.full((2, 2), np.nan)]),
    lambda: Q.BellDiagCoeffs(np.nan, 0.5, 0.25, 0.25),
    lambda: Q.BellDiagCoeffs(np.inf, 0.5, 0.25, 0.25),
    lambda: Q.swap_fidelity([np.full((2, 2), np.nan), _TABLE]),
    lambda: Q.swap_fidelity([[[np.inf, 0.0], [0.0, 0.0]], _TABLE]),
    lambda: Q.ghz_swap_fidelity([[np.nan, 0.5], [0.5, 0.5]]),
    lambda: Q.ghz_swap_fidelity([[-3.0, 4.0], [0.5, 0.5]]),
    lambda: Q.ghz_swap_fidelity([[0.5, 0.5, 0.0], [0.5, 0.5]]),
    lambda: Q.graph_dist_fidelity([np.full((2, 2), np.nan), _TABLE], _PAIR),
    lambda: Q.graph_dist_fidelity([[[0.5, 0.5], [0.5, -0.5]], _TABLE], _PAIR),
    lambda: Q.graph_dist_fidelity([np.full((3, 3), 0.1), _TABLE], _PAIR),
    lambda: Q.graph_state(np.array(0)),  # once an IndexError
    lambda: Q.graph_state([[1, 0], [0, 0]]),
    lambda: Q.DensityOperator(np.eye(4) / 4, (-2, -2)),  # once accepted
    lambda: Q.amplitude_damping(True),  # once built, as gamma = 1
    lambda: Q.amplitude_damping("0.5"),  # once a bare TypeError
], ids=["DensityOperator-not-square", "DensityOperator-dims", "KrausChannel-empty",
        "BellDiagCoeffs-negative", "BellDiagCoeffs-sum", "bell-z", "ghz-n",
        "graph_state-asymmetric", "fidelity_to_pure-size", "amplitude_damping-gamma",
        "swap_chain-subsystems", "swap_chain-dimension", "swap_fidelity-one-link",
        "swap_fidelity-shapes", "swap_fidelity-negative", "swap_fidelity-sum",
        "ghz_swap_channel-subsystems", "ghz_swap_fidelity-one-link",
        "graph_dist_channel-subsystems", "graph_dist_fidelity-tables",
        "isotropic_twirl-dim", "distill_bbpssw-fidelity", "DensityOperator-nan",
        "DensityOperator-inf", "KrausChannel-nan", "BellDiagCoeffs-nan", "BellDiagCoeffs-inf", "swap_fidelity-nan", "swap_fidelity-inf",
        "ghz_swap_fidelity-nan", "ghz_swap_fidelity-negative", "ghz_swap_fidelity-shape",
        "graph_dist_fidelity-nan", "graph_dist_fidelity-negative",
        "graph_dist_fidelity-shape", "graph_state-scalar", "graph_state-self-loop",
        "DensityOperator-dims-negative", "amplitude_damping-gamma-bool",
        "amplitude_damping-gamma-str"])
def test_malformed_input_raises_quantum_error(make):
    with pytest.raises(Q.QuantumError):
        make()


_ENTRIES = st.floats(-1e3, 1e3)


@st.composite
def _tensor_operand(draw):
    """A 1-d or 2-d operand, (k, 1) and (1, k) among them, real or complex,
    in C or Fortran order."""
    shape = draw(st.sampled_from([(1,), (3,), (1, 1), (1, 3), (3, 1), (2, 3), (4, 4)]))
    size = int(np.prod(shape))
    parts = [np.array(draw(st.lists(_ENTRIES, min_size=size, max_size=size))).reshape(shape)
             for _ in range(1 + draw(st.booleans()))]
    m = parts[0] if len(parts) == 1 else parts[0] + 1j * parts[1]
    return np.asfortranarray(m) if draw(st.booleans()) else m


@settings(max_examples=200, deadline=None)
@given(st.lists(_tensor_operand(), min_size=1, max_size=3))
def test_tensor_is_bitwise_the_kron_product(ms):
    reference = functools.reduce(
        np.kron, [np.array([[1.0 + 0j]]), *(np.asarray(m, dtype=complex) for m in ms)])
    out = Q.tensor(*ms)
    assert out.shape == reference.shape and out.tobytes() == reference.tobytes()


@pytest.mark.parametrize("make", [lambda: Q.bell(2, 1, 1), lambda: Q.bell(3),
                                  lambda: Q.bell_basis(2), lambda: Q.weyl_z(3),
                                  lambda: Q.weyl_x(2)],
                         ids=["bell", "bell-qutrit", "bell_basis", "weyl_z", "weyl_x"])
def test_a_returned_constant_operator_is_the_callers_to_change(make):
    # the constant operators are built once: what a call returns is a copy
    first = make()
    before = first.tobytes()
    first[...] = 7.0
    again = make()
    assert again.flags.writeable and again.tobytes() == before


def test_importing_the_cli_builds_no_constant_operator():
    # the caches fill on first use, so an import does no new work
    code = ("import entlink.cli\nfrom entlink import qstate\n"
            "caches = [f for f in vars(qstate).values() if hasattr(f, 'cache_info')]\n"
            "print(len(caches), sum(f.cache_info().currsize for f in caches))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "5 0\n"


def test_channel_outputs_keep_their_bits():
    # sha256 of the swap, GHZ and graph-state channels' outputs on seeded
    # joint states of dimension 16, 64, 256 and 1024, pinned from the code
    # that rebuilt its constant operators per call and used np.kron; the
    # digest holds for one numpy and OpenBLAS build on one kind of CPU
    digest = hashlib.sha256()
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4):
        joint = Q.DensityOperator(random_density(rng, 4 ** (n + 1)), (2,) * (2 * n + 2))
        path = np.eye(n + 1, k=1, dtype=int) + np.eye(n + 1, k=-1, dtype=int)
        for out in (Q.swap_chain_channel(joint, n, 2), Q.ghz_swap_channel(joint, n),
                    Q.graph_dist_channel(joint, path)):
            digest.update(out.mat.tobytes())
    assert digest.hexdigest() == (
        "e3765e3d5bf65298d4071b6429f01f351cf43e31f25dc5b5bcf67772aaa229c8")


# ---------------------------------------------------------------------------
# DensityOperator's in-place Cholesky factor (LAPACK zpotrf through ctypes)

def test_a_missing_zpotrf_symbol_is_an_import_error_naming_it():
    with pytest.raises(ImportError, match="no_such_zpotrf_64_"):
        Q._lapack_routine(("no_such_zpotrf_64_",))


def test_an_illegal_zpotrf_argument_raises_instead_of_deciding(monkeypatch):
    # info < 0 is a fault of the binding: it must not reach eigvalsh, which
    # would accept the state without any Cholesky factor
    def illegal_lda(uplo, n, a, lda, info):
        info.value = -4

    monkeypatch.setattr(Q, "_zpotrf", illegal_lda)
    with pytest.raises(RuntimeError, match=r"illegal argument 4 \(lda\)"):
        Q.DensityOperator(np.eye(2) / 2)


@pytest.mark.parametrize("work", [np.eye(3), np.eye(3, dtype=np.complex64),
                                  np.ones((2, 3), dtype=complex),
                                  np.arange(9, dtype=complex).reshape(3, 3).T,
                                  np.eye(4, dtype=complex)[::2, ::2]],
                         ids=["float64", "complex64", "not-square", "F-order", "strided"])
def test_cholesky_in_place_takes_only_a_c_ordered_square_complex128_array(work):
    with pytest.raises(TypeError, match="C-ordered square complex128"):
        Q._cholesky_in_place(work)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=130), st.integers(min_value=0, max_value=10**6),
       st.sampled_from([Q.EIG_FLOOR * (1 + 1e-3), Q.EIG_FLOOR * (1 - 1e-3), 1.0, -1.0]))
def test_in_place_cholesky_is_bitwise_numpys(n, seed, lowest):
    # n up to 130 crosses OpenBLAS's 64x64 blocks; the lowest eigenvalue is
    # planted just below and just above the floor, and far from it
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    ev = np.concatenate([[lowest], abs(lowest) + rng.uniform(0, 1, n - 1)])
    H = (U * ev) @ U.conj().T
    H = (H + H.conj().T) / 2  # exactly Hermitian, like DensityOperator's work buffer
    H.flat[::n + 1] -= Q.EIG_FLOOR
    work = H.copy()
    info = Q._cholesky_in_place(work)
    try:
        reference = np.linalg.cholesky(H.T)
    except np.linalg.LinAlgError:
        assert info > 0
    else:
        assert info == 0
        assert np.tril(work.T).tobytes() == reference.tobytes()


def _state_1024_with_lowest_eigenvalue(lowest, rng):
    """U diag(lowest, positive rest) U^dag of unit trace, U a tensor product
    of five random two-qubit unitaries."""
    U = Q.tensor(*[np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
                   for _ in range(5)])
    rest = rng.uniform(0.5, 1.5, 1023)
    ev = np.concatenate([[lowest], rest * (1 - lowest) / rest.sum()])
    return (U * ev) @ U.conj().T


def test_density_operator_at_dim_1024_decides_the_floor_and_keeps_the_callers_array(
        monkeypatch):
    rng = np.random.default_rng(34)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    below, above = (_state_1024_with_lowest_eigenvalue(x, rng) for x in (-2e-9, -5e-10))
    kept = below.copy()
    with pytest.raises(Q.QuantumError, match="min eigenvalue -2e-09"):
        Q.DensityOperator(below)  # Cholesky refuses, eigvalsh confirms
    assert len(calls) == 1 and below.flags.writeable and below.tobytes() == kept.tobytes()
    kept = above.copy()
    assert Q.DensityOperator(above).mat.tobytes() == kept.tobytes()  # Cholesky accepts
    assert len(calls) == 1 and above.flags.writeable and above.tobytes() == kept.tobytes()
    # a refusal after zpotrf has overwritten the work buffer with a factor:
    # eigvalsh reads the caller's matrix, and the state held is that matrix
    zpotrf = Q._zpotrf

    def refuse(uplo, n, a, lda, info):
        zpotrf(uplo, n, a, lda, info)
        info.value = 1

    monkeypatch.setattr(Q, "_zpotrf", refuse)
    assert Q.DensityOperator(above).mat.tobytes() == kept.tobytes()
    assert len(calls) == 2 and above.flags.writeable and above.tobytes() == kept.tobytes()


MEMORY = """\
import resource, tracemalloc
import numpy as np
from entlink import qstate as Q
def random_density(rng, d):
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real
rng = np.random.default_rng(1)
mat = Q.tensor(*[random_density(rng, 4) for _ in range(5)])
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
Q.DensityOperator(mat, (2,) * 10)
growth = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss
peaks = []
for run in (lambda: Q.DensityOperator(mat, (2,) * 10),
            lambda: Q.swap_chain_channel(joint, 4, 2), lambda: Q.ghz_swap_channel(joint, 4)):
    joint = Q.DensityOperator(mat, (2,) * 10)
    tracemalloc.start()
    run()
    peaks.append(tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
print(growth / 1024, *(p / 2**20 for p in peaks))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux")
def test_dim_1024_validation_and_channels_need_no_second_full_size_buffer():
    # a 1024 x 1024 complex state is 16 MB.  Validation holds one work
    # buffer, which becomes the state held; the swap and GHZ chains hold one
    # outcome's ket side and the outcome branches.  Where numpy's Cholesky
    # copied the buffer and wrote a factor, and the chains applied every
    # outcome at once, the peaks were 32.0, 25.0 and 36.1 MB and validation
    # grew the resident set by ~50 MB.
    r = subprocess.run([sys.executable, "-c", MEMORY], capture_output=True, text=True,
                       timeout=120)
    assert r.returncode == 0, r.stderr
    growth, validate, swap, ghz = map(float, r.stdout.split())
    assert growth <= 24 and validate <= 17 and swap <= 9 and ghz <= 17, r.stdout
