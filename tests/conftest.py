import itertools
import os
from pathlib import Path

import numpy as np
import pytest

import entlink
from entlink.markov import DecisionFunction, Mdp, StochasticMatrix

# The CLI tests run `python -m entlink.cli` in subprocesses: point them at the
# package these tests import, also when pytest alone put `src` on sys.path.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(entlink.__file__).parents[1]), os.environ.get("PYTHONPATH")]))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_mdp(rng, n, na):
    """Fully supported transition matrices, so every policy chain is ergodic."""
    mats = {}
    for a in range(na):
        cols = rng.dirichlet(np.ones(n) * 0.7, size=n).T + 1e-3
        cols /= cols.sum(axis=0)
        mats[a] = StochasticMatrix(cols)
    return Mdp(states=tuple(range(n)), actions=tuple(range(na)), transitions=mats)


def random_absorbing_mdp(rng, nt, nb, na):
    """nt transient states followed by nb absorbing ones; every action moves
    some mass toward absorption from every transient state."""
    n = nt + nb
    mats = {}
    for a in range(na):
        T = np.zeros((n, n))
        for s in range(nt):
            col = rng.dirichlet(np.ones(n)) + 1e-3
            T[:, s] = col / col.sum()
        T[nt:, nt:] = np.eye(nb)
        mats[a] = StochasticMatrix(T)
    return Mdp(states=tuple(range(n)), actions=tuple(range(na)), transitions=mats)


def deterministic_decisions(n, na):
    for combo in itertools.product(range(na), repeat=n):
        yield DecisionFunction.deterministic(list(combo), na)
