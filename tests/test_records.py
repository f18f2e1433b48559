"""The package's immutable records: one base, the behaviour of a frozen
dataclass.

Every record but ``sim.Watcher`` is a slotted ``core._Record``.  Each case
below pins the repr the record has as a frozen dataclass would print it,
and a field change that its ``__init__`` rejects, so ``_replace`` must
validate again.
"""

import ast
import copy
import math
import pickle
from pathlib import Path

import pytest

import canardctl
from canardctl.blowup import GermReport, K2Field
from canardctl.cli import ExperimentConfig, _Outcome
from canardctl.controllers import (
    FoldLaw,
    K2Law,
    NeighborhoodParams,
    VdpLaw,
)
from canardctl.core import (
    ControllerGains,
    LevelTerm,
    ScaledLevel,
    SystemParams,
    _Record,
)
from canardctl.errors import ConfigError, DomainError
from canardctl.mmo import LoopLabel, MmoPattern, MmoSegment
from canardctl.models import FoldField
from canardctl.sim import ConvergenceReport, Event, IntegratorConfig

# (record, its repr as a frozen dataclass, a change its __init__ rejects,
# the error it raises); a record that validates nothing takes a change to
# a field it does not have, which raises TypeError
_CASES = {
    "SystemParams": (
        SystemParams(0.01, -0.1),
        "SystemParams(eps=0.01, alpha=-0.1)",
        {"eps": -1.0}, DomainError),
    "ControllerGains": (
        ControllerGains(1.0, 2.0, k1=0.5, x_star=-0.25),
        "ControllerGains(c1=1.0, c2=2.0, k1=0.5, x_star=-0.25)",
        {"c1": -1.0}, DomainError),
    "ScaledLevel": (
        ScaledLevel(0.25, 400.0),
        "ScaledLevel(h0=0.25, E=400.0)",
        {"E": 0.0, "h0": 0.5}, DomainError),
    "NeighborhoodParams": (
        NeighborhoodParams(beta1=0.1, y_min=0.02),
        "NeighborhoodParams(beta1=0.1, beta2=0.15, x_min=0.3, x_max=0.3, "
        "y_min=0.02, y_h=1.25, inner_margin=0.5)",
        {"y_h": 0.01}, DomainError),
    "LevelTerm": (
        LevelTerm(0.01, 2.5, ScaledLevel(0.25, 60.0)),
        "LevelTerm(eps=0.01, c2=2.5, level=ScaledLevel(h0=0.25, E=60.0))",
        {"eps": 0.0}, DomainError),
    "FoldLaw": (
        FoldLaw(SystemParams(0.01, -0.1), ControllerGains(1.0, 2.0),
                ScaledLevel(0.25, 400.0)),
        "FoldLaw(params=SystemParams(eps=0.01, alpha=-0.1), "
        "gains=ControllerGains(c1=1.0, c2=2.0, k1=0.0, x_star=0.0), "
        "level=ScaledLevel(h0=0.25, E=400.0), shear=0.0)",
        {"params": SystemParams(0.0)}, DomainError),
    "FoldField": (
        FoldField(SystemParams(0.01, 0.0), shear=100.0),
        "FoldField(params=SystemParams(eps=0.01, alpha=0.0), shear=100.0, "
        "channel='fast')",
        {"channel": "sideways"}, DomainError),
    "K2Law": (
        K2Law(ControllerGains(1.0, 2.0), 1e-16, 0.0, 1.0),
        "K2Law(gains=ControllerGains(c1=1.0, c2=2.0, k1=0.0, x_star=0.0), "
        "level_h=1e-16, r2=0.0, alpha2=1.0, shear=0.0)",
        {"r2": math.nan}, DomainError),
    "K2Field": (
        K2Field(1.0, 1.0, shear=1.0),
        "K2Field(r2=1.0, alpha2=1.0, shear=1.0)",
        {"alpha2": math.inf}, DomainError),
    "VdpLaw": (
        VdpLaw(0.01, ControllerGains(1.0, 2.0), NeighborhoodParams()),
        "VdpLaw(eps=0.01, gains=ControllerGains(c1=1.0, c2=2.0, k1=0.0, "
        "x_star=0.0), nbhd=NeighborhoodParams(beta1=0.15, beta2=0.15, "
        "x_min=0.3, x_max=0.3, y_min=0.02, y_h=1.25, inner_margin=0.5))",
        {"eps": -1.0}, DomainError),
    "GermReport": (
        GermReport(0.0, 1e-9, 2.0, -1.0, True),
        "GermReport(f0=0.0, fx=1e-09, fxx=2.0, fy=-1.0, passes=True)",
        {"tol": 1e-6}, TypeError),
    "IntegratorConfig": (
        IntegratorConfig(rel_tol=1e-6, max_steps=500),
        "IntegratorConfig(rel_tol=1e-06, abs_tol=1e-10, max_step=10.0, "
        "min_step=1e-12, max_steps=500)",
        {"min_step": 20.0}, DomainError),
    "Event": (
        Event("section-crossing", 1.5, (0.25, -0.5)),
        "Event(kind='section-crossing', time=1.5, state=(0.25, -0.5))",
        {"direction": "up"}, TypeError),
    "ConvergenceReport": (
        ConvergenceReport(1.0, 1e-4, None, 1e-3),
        "ConvergenceReport(initial=1.0, terminal=0.0001, time_below=None, "
        "threshold=0.001)",
        {"final": 0.0}, TypeError),
    "LoopLabel": (
        LoopLabel("SAO", 0.0, 12.5, 1.25, 0.75),
        "LoopLabel(label='SAO', t_start=0.0, t_end=12.5, max_x=1.25, "
        "max_y=0.75)",
        {"t_end": 0.0}, ConfigError),
    "MmoPattern": (
        MmoPattern([(3, "LAO", 0.75, 0.01), MmoSegment(1, "SAO", 1.25, -0.01)],
                   repeat=2),
        "MmoPattern(segments=(MmoSegment(count=3, label='LAO', y_h=0.75, "
        "x_star=0.01), MmoSegment(count=1, label='SAO', y_h=1.25, "
        "x_star=-0.01)), repeat=2)",
        {"repeat": 0}, ConfigError),
    "ExperimentConfig": (
        ExperimentConfig("fold-fast", {"eps": 0.01}, [[0.1, 0.2]],
                         {"phase": "p.svg"}),
        "ExperimentConfig(experiment='fold-fast', params={'eps': 0.01}, "
        "initial_conditions=(PhasePoint(x=0.1, y=0.2),), "
        "outputs={'phase': 'p.svg'})",
        {"params": {"h": 0.1}}, ConfigError),
    "_Outcome": (
        _Outcome((), {"critical": "fold"}, {"n": 1}, "s"),
        "_Outcome(trajs=(), overlays={'critical': 'fold'}, results={'n': 1}, "
        "summary='s', labels=('x', 'y', 'u'), extra_csv={}, extra_phase={}, "
        "fault=None)",
        {"status": "ok"}, TypeError),
}

_RECORDS = pytest.mark.parametrize("name", sorted(_CASES))


def _values(record):
    return tuple(getattr(record, f) for f in record._fields)


@_RECORDS
def test_a_record_is_a_slotted_record_with_its_dataclass_repr(name):
    record, text, _, _ = _CASES[name]
    assert type(record).__name__ == name
    assert isinstance(record, _Record) and not hasattr(record, "__dict__")
    assert repr(record) == text


@_RECORDS
def test_no_field_of_a_record_can_be_set_or_deleted(name):
    record = _CASES[name][0]
    before = _values(record)
    for field in (*record._fields, "other"):
        with pytest.raises(AttributeError):
            setattr(record, field, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert _values(record) == before


@_RECORDS
def test_a_record_equals_only_its_own_class_with_equal_fields(name):
    record = _CASES[name][0]
    values = _values(record)
    twin = type(record)(*values)
    assert twin is not record and twin == record and not twin != record
    try:
        key = hash(values)
    except TypeError:  # a dict field: as unhashable as the dataclass was
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == key
    # the same values in another type never compare equal
    sub = type("Sub", (type(record),), {"__slots__": ()})(*values)
    for other in (values, list(values), dict(zip(record._fields, values)),
                  sub):
        assert record != other and other != record


@_RECORDS
def test_replace_builds_a_new_record_and_validates_it(name):
    record, _, bad, error = _CASES[name]
    assert record._replace() == record
    first = record._fields[0]
    moved = record._replace(**{first: getattr(record, first)})
    assert moved == record and moved is not record
    with pytest.raises(error):
        record._replace(**bad)


@_RECORDS
def test_a_record_copies_and_pickles_to_an_equal_record(name):
    record = _CASES[name][0]
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_replace_validates_the_changed_gains():
    with pytest.raises(DomainError, match="c1 must be > 0"):
        ControllerGains(1.0, 2.0)._replace(c1=-1.0)
    assert ControllerGains(1.0, 2.0)._replace(x_star=0.5) == \
        ControllerGains(1.0, 2.0, 0.0, 0.5)


def test_watcher_is_the_only_dataclass_in_the_package():
    # perfbench's tracer rebuilds watchers with dataclasses.replace; every
    # other record is a core._Record
    found = set()
    for path in sorted(Path(canardctl.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = getattr(target, "id", getattr(target, "attr", None))
                if name == "dataclass":
                    found.add(f"{path.stem}.{node.name}")
    assert found == {"sim.Watcher"}
