import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entlink import qstate as Q


def random_density(rng, d):
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


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


def test_amplitude_damping_fixed_point_and_tp():
    ch = Q.amplitude_damping(0.3)
    rho = np.array([[0.2, 0.1j], [-0.1j, 0.8]])
    out = ch(rho)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    ground = np.diag([1.0, 0.0]).astype(complex)
    assert np.allclose(ch(ground), ground, atol=1e-14)


def test_pure_loss_drail(rng=np.random.default_rng(12)):
    rho = random_density(rng, 3)
    out = Q.pure_loss_drail(rho, 0.7)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(out[:3, :3], 0.7 * rho, atol=1e-14)
    assert out[3, 3].real == pytest.approx(0.3, abs=1e-12)


def test_bell_diag_coeffs_roundtrip():
    c = Q.BellDiagCoeffs(0.7, 0.1, 0.1, 0.1)
    rho = c.to_density()
    t = c.overlap_table()
    for (z, x), val in np.ndenumerate(t):
        assert Q.fidelity_to_pure(rho, Q.bell(2, z, x)) == pytest.approx(val, abs=1e-12)


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
