"""Entanglement distribution over quantum network links: Markov decision
models, occupation-measure LPs, exact quantum channel computations, the
satellite downlink case study, waiting-time statistics, and seeded Monte
Carlo cross-checks.
"""

from . import (  # noqa: F401
    elemlink,
    markov,
    mc,
    oracles,
    qstate,
    satlink,
    twolink,
    waiting,
)
from .markov import DecisionFunction, ModelError, Policy  # noqa: F401

__version__ = "1.0.0"
