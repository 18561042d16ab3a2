"""Cold start: the Fraction-only commands run without loading sympy.

Each subprocess test starts a fresh interpreter, because the test process
itself has long imported sympy.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import engelkit

PACKAGE = Path(engelkit.__file__).parent
FRACTION_MODULES = ("linalg", "g2alg", "tanaka", "models", "cubicalg")
SYMBOLIC_MODULES = {"symexpr", "forms", "engel", "kerr", "sympy"}
FRACTION_COMMANDS = [
    ["g2", "verify"],
    ["tanaka", "prolong", "--g0", "gl2"],
    ["tanaka", "prolong", "--g0", "borel"],
    ["tanaka", "prolong", "--g0", "derivations"],
    ["tanaka", "cohomology"],
    ["tanaka", "normalization"],
    ["models", "check"],
    ["cubic", "verify"],
]


def fresh_python(code: str) -> None:
    """Run ``code`` in a new interpreter that imports engelkit from this tree."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("name", FRACTION_MODULES)
def test_fraction_module_imports_nothing_symbolic(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {part for alias in node.names for part in alias.name.split(".")}
        elif isinstance(node, ast.ImportFrom):
            # ``from . import engel`` names the module among the imported names
            imported |= set((node.module or "").split("."))
            imported |= {alias.name for alias in node.names}
    assert not imported & SYMBOLIC_MODULES


@pytest.mark.parametrize("argv", [[], *FRACTION_COMMANDS],
                         ids=lambda argv: " ".join(argv) or "import")
def test_fraction_command_never_loads_sympy(argv):
    fresh_python(f"""
import sys
import engelkit.cli

argv = {argv!r}
if argv:
    code, report = engelkit.cli.run(argv)
    assert code == 0, report.to_json()
loaded = [name for name in ("sympy", "engelkit.symexpr") if name in sys.modules]
assert not loaded, loaded
""")


def test_every_module_resolves_as_a_package_attribute():
    assert engelkit._SUBMODULES == {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}


def test_package_attributes_resolve_after_importing_the_cli_alone():
    # the access the benchmark's bundle items make
    fresh_python("""
import engelkit.cli

assert engelkit.engel.tautological_forms(engelkit.symexpr.parse("x4")).all_hold()
assert engelkit.parse("x4") == engelkit.symexpr.parse("x4")
assert not hasattr(engelkit, "no_such_name")
""")
