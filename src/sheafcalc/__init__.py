"""Exact order-theoretic and sheaf-theoretic computation.

Subpackages cover: exact rational matrices, finite posets and
Alexandrov topologies, Galois connections, mathematical morphology,
bi-Heyting modal operators on subgraph lattices, simplicial complexes,
finite (pre)sheaves with gluing checks, cellular sheaves with exact
cohomology, and Bayesian joint-distribution structures.

The batch front end lives in sheafcalc.cli and is not re-exported.
"""

from . import (
    rationals, poset, galois, morphology, modal, complexes, finsheaf,
    cellsheaf, cohomology,
)
from .rationals import *  # noqa: F401,F403
from .poset import *  # noqa: F401,F403
from .galois import *  # noqa: F401,F403
from .morphology import *  # noqa: F401,F403
from .modal import *  # noqa: F401,F403
from .complexes import *  # noqa: F401,F403
from .finsheaf import *  # noqa: F401,F403
from .cellsheaf import *  # noqa: F401,F403
from .cohomology import *  # noqa: F401,F403

# Each module's __all__ is its public surface; the package re-exports
# exactly their union.
__all__ = [
    name
    for module in (rationals, poset, galois, morphology, modal, complexes,
                   finsheaf, cellsheaf, cohomology)
    for name in module.__all__
]
