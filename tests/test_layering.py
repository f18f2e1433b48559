"""The lower layers of the package import only the layers beneath them.

The control laws are closed-form functions of the state: they build on the
conserved quantity and the error types alone, never on the charts, the
models or the integrator.
"""

import ast
from pathlib import Path

import pytest

import canardctl

_PACKAGE = Path(canardctl.__file__).parent

# each lower module and the package modules it may import
_ALLOWED = {
    "errors": set(),
    "core": {"errors"},
    "models": {"core", "errors"},
    "blowup": {"core", "errors"},
    "controllers": {"core", "errors"},
}


def _package_imports(module):
    """Names of the package modules ``module`` imports, at any depth."""
    tree = ast.parse((_PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "canardctl":
                    found.add(parts[1] if len(parts) > 1 else "canardctl")
        elif isinstance(node, ast.ImportFrom):
            path = (node.module or "").split(".")
            if node.level == 0:
                if path[0] != "canardctl":
                    continue
                path = path[1:]
            if path and path[0]:
                found.add(path[0])
            else:  # from . import x, from canardctl import x
                found.update(alias.name for alias in node.names)
    return found


@pytest.mark.parametrize("module", sorted(_ALLOWED))
def test_module_imports_only_lower_layers(module):
    assert _package_imports(module) <= _ALLOWED[module]
