import itertools
import os
from pathlib import Path

import numpy as np
import pytest

import entlink
from entlink.markov import DecisionFunction, csc_from_entries

# The CLI tests run `python -m entlink.cli` in subprocesses: point them at the
# package these tests import, also when pytest alone put `src` on sys.path.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(entlink.__file__).parents[1]), os.environ.get("PYTHONPATH")]))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_mdp(rng, n, na):
    """Fully supported column-stochastic matrices as one (na, n, n) array,
    so every policy chain is ergodic."""
    T = np.empty((na, n, n))
    for a in range(na):
        cols = rng.dirichlet(np.ones(n) * 0.7, size=n).T + 1e-3
        T[a] = cols / cols.sum(axis=0)
    return T


def random_absorbing_mdp(rng, nt, nb, na):
    """nt transient states followed by nb absorbing ones; every action moves
    some mass toward absorption from every transient state."""
    n = nt + nb
    T = np.zeros((na, n, n))
    for a in range(na):
        for s in range(nt):
            col = rng.dirichlet(np.ones(n)) + 1e-3
            T[a, :, s] = col / col.sum()
        T[a, nt:, nt:] = np.eye(nb)
    return T


def policy_chain(T, d):
    """P^d = sum_a T^a D_a of an (actions, n, n) array T."""
    return np.einsum("ats,sa->ts", T, d.table)


def deterministic_decisions(n, na):
    for combo in itertools.product(range(na), repeat=n):
        yield DecisionFunction.deterministic(list(combo), na)


def csc(A):
    """A dense test matrix as the `markov.Csc` of its nonzero entries."""
    A = np.asarray(A, dtype=float)
    rows, cols = np.nonzero(A)
    return csc_from_entries(rows, cols, A[rows, cols], A.shape)
