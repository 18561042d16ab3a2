"""Exact symbolic toolkit for marked contact Engel structures.

Computes adapted coframes, the relative invariants J, L, M, P, Q, R, S of a
marking function, the branch classification of homogeneous models, the Kerr
correspondence with the twistor space, the explicit split-form exceptional
Lie algebra in seven dimensions, and the Tanaka prolongation/cohomology
linear algebra -- all in exact arithmetic.

Importing the package loads none of its modules.  The names below and the
submodules (``engelkit.engel``, ``engelkit.symexpr``, ...) are imported on
first use, so that the Fraction-only modules (``linalg``, ``g2alg``,
``tanaka``, ``models``, ``cubicalg``) run without loading sympy, which only
``symexpr`` imports.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "Expr",
    "VarKind",
    "parse",
    "symbol",
    "integer",
    "rational",
    "__version__",
]

_SYMEXPR_NAMES = frozenset(__all__) - {"__version__"}
_SUBMODULES = frozenset({"cli", "cubicalg", "engel", "forms", "g2alg", "jets",
                         "kerr", "linalg", "models", "symexpr", "tanaka"})


def __getattr__(name: str):
    if name in _SYMEXPR_NAMES:
        return getattr(importlib.import_module(".symexpr", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
