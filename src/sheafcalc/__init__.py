"""Exact order-theoretic and sheaf-theoretic computation.

Subpackages cover: exact rational matrices, finite posets and
Alexandrov topologies, Galois connections, mathematical morphology,
bi-Heyting modal operators on subgraph lattices, simplicial complexes,
finite (pre)sheaves with gluing checks, cellular sheaves with exact
cohomology, and Bayesian joint-distribution structures.

The namespace is filled on first use (PEP 562), so ``import sheafcalc``
loads no submodule.  A submodule name, such as ``sheafcalc.cohomology``
or ``from sheafcalc import cohomology``, imports that module and what
it imports, nothing more.  Any other public name, ``__all__``, ``dir()``
or ``from sheafcalc import *`` imports the ten library modules once and
binds the union of their ``__all__`` lists: each module's ``__all__`` is
its public surface, and the package re-exports exactly that.

The batch front end lives in sheafcalc.cli and is not re-exported.  Each
of its verbs imports only the modules that verb needs.
"""

import importlib

_MODULES = ("errors", "rationals", "poset", "galois", "morphology", "modal",
            "complexes", "finsheaf", "cellsheaf", "cohomology")


def _load_all():
    namespace = globals()
    if "__all__" in namespace:
        return
    names = []
    for m in _MODULES:
        module = importlib.import_module(f".{m}", __name__)
        for name in module.__all__:
            namespace[name] = getattr(module, name)
        names += module.__all__
    namespace["__all__"] = names


def __getattr__(name):
    if name in _MODULES or name == "cli":
        return importlib.import_module(f".{name}", __name__)
    if name == "__all__" or not name.startswith("_"):
        _load_all()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    _load_all()
    return sorted(globals())
