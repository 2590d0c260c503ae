"""The one exception family for refused input.

Every check on a caller's argument raises ``SheafcalcError`` or a
subclass, on a plain run and under ``python -O`` alike.  It is a
``ValueError``, so ``except ValueError`` keeps catching it.
"""

__all__ = ["SheafcalcError"]


class SheafcalcError(ValueError):
    """Input that breaks a documented contract."""
