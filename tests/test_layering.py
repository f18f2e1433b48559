"""Every module of the package imports only the layers beneath it.

The control laws are closed-form functions of the state: they build on the
conserved quantity and the error types alone, never on the charts, the
models or the integrator.  The package namespace re-exports nothing, and
``cli`` sits at the top, where no other module imports it.  No module
imports a name it never reads.  The runners call every law and field
through the package names the benchmark's tracer rebinds.
"""

import ast
import sys
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


# The benchmark's tracer (perfbench/inproc.py) counts the laws, the fields
# and the level term by replacing every binding of each function across the
# loaded package, and the field evaluations by wrapping the field handed to
# `integrate`.  A runner that stopped calling one of them through such a
# binding would read 0 there.  The fold and chart-K2 counts are each short
# run's calls as the runners made them while every law still re-derived its
# constants at each call, and the k1-vdp and vdp-canard counts are their
# default runs' calls while the van der Pol loops still went through adapter
# closures, so neither change moved a count.
_TRACED = (("controllers", "fast_u"), ("controllers", "slow_u"),
           ("controllers", "k2_mu"), ("models", "fold_rhs"),
           ("blowup", "k2_field"), ("core", "eval_level_term"),
           ("controllers", "k1_vdp_mu"), ("blowup", "k1_vdp_field"),
           ("controllers", "composite_u"), ("models", "vdp_rhs"))

# each run's parameters, then its calls of (fast_u, slow_u, k2_mu, fold_rhs,
# k2_field, eval_level_term, k1_vdp_mu, k1_vdp_field, composite_u, vdp_rhs)
# and its field evaluations; convergence_metrics adds one level term for
# each fold point up to the residual's first crossing of its cut, and one
# for the last point
_SHORT = {"t_end": 5.0}
_TRACED_COUNTS = {
    "fold-fast": (_SHORT, (260, 0, 0, 260, 0, 299, 0, 0, 0, 0, 260)),
    "fold-fast-hot": (_SHORT, (988, 0, 0, 988, 0, 1069, 0, 0, 0, 0, 988)),
    "fold-slow": (_SHORT, (0, 26768, 0, 26768, 0, 26802, 0, 0, 0, 0, 26768)),
    "k2": (_SHORT, (0, 0, 4099, 0, 4094, 0, 0, 0, 0, 0, 4094)),
    "k2-hot": (_SHORT, (0, 0, 6427, 0, 6422, 0, 0, 0, 0, 0, 6422)),
    "k1-vdp": ({}, (0, 0, 0, 0, 0, 0, 72117, 72092, 0, 0, 72092)),
    "vdp-canard": ({}, (0, 0, 0, 0, 0, 0, 0, 0, 20208, 20204, 20204)),
}


def _rebind(monkeypatch, original, replacement):
    """Replace ``original`` at every name a package module binds it to."""
    for name, module in sorted(sys.modules.items()):
        if module is not None and name.startswith("canardctl"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


@pytest.mark.parametrize("experiment", sorted(_TRACED_COUNTS))
def test_the_tracer_sees_every_law_and_field_call(
        experiment, tmp_path, monkeypatch, capsys):
    from canardctl import cli

    counts = dict.fromkeys([name for _, name in _TRACED] + ["field_evals"], 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in _TRACED:
        original = getattr(sys.modules[f"canardctl.{module}"], name)
        _rebind(monkeypatch, original, counted(name, original))
    integrate = sys.modules["canardctl.sim"].integrate

    def traced_integrate(rhs, *args, **kwargs):
        return integrate(counted("field_evals", rhs), *args, **kwargs)

    _rebind(monkeypatch, integrate, traced_integrate)
    params, want = _TRACED_COUNTS[experiment]
    cfg = cli.ExperimentConfig(experiment, params)
    assert cli.run_experiment(cfg, tmp_path) == 0
    assert tuple(counts.values()) == want
