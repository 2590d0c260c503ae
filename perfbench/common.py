"""Pieces shared by the workloads: the library handle and the operation
record the run loop times and checks."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("rationals", "poset", "galois", "morphology", "modal",
           "complexes", "finsheaf", "cellsheaf", "cohomology", "cli")


class Op(NamedTuple):
    """One operation: ``run`` is timed, ``check`` is not.

    ``check(result)`` returns None when the answer is right and a short
    reason otherwise.
    """

    kind: str
    label: str
    run: Callable
    check: Callable
    expect_code: int | None = None  # CLI exit code, for exit_mismatches


class Lib:
    """The sheafcalc package and its modules, freshly imported.

    Workloads call library functions through these module objects at
    call time, so the tracer's wrappers see every call.
    """

    def __init__(self):
        for name in [m for m in sys.modules
                     if m == "sheafcalc" or m.startswith("sheafcalc.")]:
            del sys.modules[name]
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        self.package = importlib.import_module("sheafcalc")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"sheafcalc.{name}"))


def first_failure(pairs):
    """The first reason in (ok, reason) pairs that is not ok, else None."""
    for ok, reason in pairs:
        if not ok:
            return reason
    return None
