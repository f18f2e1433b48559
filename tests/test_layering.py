"""Every module of the package imports only the layers beneath it.

The control laws are closed-form functions of the state: they build on the
conserved quantity and the error types alone, never on the charts, the
models or the integrator.  The package namespace re-exports nothing, and
``cli`` sits at the top, where no other module imports it.  No module
imports a name it never reads.
"""

import ast
from pathlib import Path

import pytest

import canardctl

_PACKAGE = Path(canardctl.__file__).parent

# each module and the package modules it may import
_ALLOWED = {
    "__init__": set(),
    "batch": set(),
    "errors": set(),
    "core": {"errors"},
    "models": {"core", "errors"},
    "blowup": {"core", "errors"},
    "controllers": {"core", "errors"},
    "dopri": {"errors"},
    "sim": {"core", "dopri", "errors"},
    "svgplot": set(),
    "cycles": set(),
    "mmo": {"controllers", "core", "errors", "models", "sim"},
    "verify": {"blowup", "controllers", "core", "errors", "mmo", "models",
               "sim"},
}
_ALLOWED["cli"] = set(_ALLOWED) - {"__init__"}


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


def test_every_module_has_a_layer():
    assert {p.stem for p in _PACKAGE.glob("*.py")} == set(_ALLOWED)


def _unused_imports(module):
    """Names ``module`` imports that no expression of it reads."""
    tree = ast.parse((_PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


@pytest.mark.parametrize("module", sorted(_ALLOWED))
def test_module_uses_every_name_it_imports(module):
    assert _unused_imports(module) == set()
