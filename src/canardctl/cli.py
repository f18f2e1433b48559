"""`canard-ctl`: experiment runner, verification entry point, MMO front-end.

Each experiment id maps to one spec: the keys its run reads, with their
defaults, the optional keys it accepts, and a run that reproduces a
standard closed-loop simulation at desk scale.  One writer turns every
outcome into trajectory.csv (t, x, y, u at 17 significant digits,
re-parseable to the bit), metrics.json (the fully resolved configuration
plus the numbers the run was made for, or the fault it stopped at), and
phase.svg / controller.svg.

Exit codes: 0 success, 1 failed verify checks, 2 validation error or
unwritable output, 3 integration fault, 4 pattern deviation, 5 internal
error (an exception no other code covers, reported with its traceback; a
batch goes on with its next config).  The exception that ended a run, if
any, decides its status and exit code: an IntegrationError carries its
status, and _FAULT_STATUS names the status of every other fault.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from functools import partial
from pathlib import Path
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from .blowup import K2Field, k1_vdp_field, k2_field
from .controllers import (
    FoldLaw,
    K2Law,
    NeighborhoodParams,
    default_neighborhoods,
    fast_u,
    k1_chart_phi1,
    k1_vdp_mu,
    k2_mu,
    slow_u,
)
from .core import (
    ControllerGains,
    PhasePoint,
    ScaledLevel,
    SystemParams,
    _Record,
    eval_H2,
)
from .cycles import reference_cycle
from .errors import (
    ConfigError,
    DomainError,
    ExponentOverflowError,
    IntegrationError,
    PatternDeviationError,
    SingularConfigurationError,
)
from .mmo import MmoPattern, MmoSegment, run_pattern
from .models import FoldField, fold_rhs
from .sim import IntegratorConfig, Trajectory, Watcher, convergence_metrics, integrate
from .svgplot import emit_phase_svg, emit_timeseries_svg
from .verify import run_verification

__all__ = ["ExperimentConfig", "run_experiment", "main"]

_SEED = 20260822

# every parameter key: its type, and whether `canard-ctl run` has a flag for it
_KEYS: Dict[str, Tuple[type, bool]] = {
    "eps": (float, True), "alpha": (float, True), "c1": (float, True),
    "c2": (float, True), "h0": (float, True), "E": (float, True),
    "x_star": (float, True), "y_h": (float, True), "k1": (float, True),
    "t_end": (float, True), "pattern": (str, True), "repeat": (int, True),
    "beta1": (float, False), "beta2": (float, False), "x_min": (float, False),
    "x_max": (float, False), "y_min": (float, False),
    "inner_margin": (float, False),
    "rel_tol": (float, False), "abs_tol": (float, False),
    "max_step": (float, False), "min_step": (float, False),
    "max_steps": (int, False),
}
_KIND_NAMES = {float: "a number", int: "an integer", str: "a string"}
_INTEG_KEYS = ("rel_tol", "abs_tol", "max_step", "min_step", "max_steps")
_NBHD_KEYS = ("beta1", "beta2", "x_min", "x_max", "y_min", "inner_margin")

_DEFAULT_OUTPUTS = {
    "trajectory": "trajectory.csv",
    "metrics": "metrics.json",
    "phase": "phase.svg",
    "controller": "controller.svg",
}
# files a run writes next to its slots, which no slot may take
_PLAIN_CSV = "plain.csv"  # fold-fast-hot's uncompensated run
_PLAIN_PHASE = "phase-plain.svg"  # k2-hot's uncompensated runs


def _as_float(value: float) -> float:
    """float(value); an integer too large for a float becomes +-inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


# default of a record's dict field: each record gets a new empty dict
_NEW_DICT = object()


class ExperimentConfig(_Record):
    """One experiment with its flattened parameter block."""

    __slots__ = _fields = ("experiment", "params", "initial_conditions",
                           "outputs")

    def __init__(self, experiment: str,
                 params: Dict[str, object] = _NEW_DICT,
                 initial_conditions: Sequence[Sequence[float]] = (),
                 outputs: Dict[str, str] = _NEW_DICT):
        params = {} if params is _NEW_DICT else params
        outputs = {} if outputs is _NEW_DICT else outputs
        spec = _SPECS.get(experiment) if isinstance(experiment, str) else None
        if spec is None:
            raise ConfigError(
                f"unknown experiment {experiment!r}; "
                f"registered: {', '.join(sorted(_SPECS))}")
        for section, value in (("params", params), ("outputs", outputs)):
            if not isinstance(value, dict):
                raise ConfigError(f"{section} must be a JSON object")
        if "h" in params:
            raise ConfigError(
                "raw 'h' rejected: supply the level as (h0, E) with "
                "h = h0*exp(-E); a literal h underflows silently")
        accepted = {*spec.defaults, *spec.extras}
        for key, value in params.items():
            if key not in accepted:
                raise ConfigError(
                    f"unknown parameter {key!r} for {experiment}; "
                    f"accepted: {', '.join(sorted(accepted)) or 'none'}")
            kind = _KEYS[key][0]
            if isinstance(value, bool) or not isinstance(
                    value, (int, float) if kind is float else kind):
                raise ConfigError(f"parameter {key!r} must be {_KIND_NAMES[kind]}")
            if kind is float and not math.isfinite(_as_float(value)):
                raise ConfigError(f"parameter {key!r} must be finite")
        if not isinstance(initial_conditions, (list, tuple)):
            raise ConfigError("initial_conditions must be a list of [x, y] pairs")
        for p in initial_conditions:
            if not (isinstance(p, (list, tuple)) and len(p) == 2 and all(
                    isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in p)):
                raise ConfigError(
                    f"initial_conditions must be [x, y] pairs of numbers, got {p!r}")
        initial_conditions = tuple(PhasePoint(_as_float(p[0]), _as_float(p[1]))
                                   for p in initial_conditions)
        for p in initial_conditions:
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise ConfigError(f"non-finite initial condition {p!r}")
        if spec.starts is not None and len(initial_conditions) > spec.starts:
            raise ConfigError(f"{experiment} reads at most {spec.starts} initial "
                              f"conditions, got {len(initial_conditions)}")
        for key, value in outputs.items():
            if key not in _DEFAULT_OUTPUTS:
                raise ConfigError(f"unknown output slot {key!r}")
            if not isinstance(value, str) or not value:
                raise ConfigError(f"output {key!r} must name a file")
            if Path(value).name != value or value in (".", ".."):
                raise ConfigError(
                    f"output {key!r} must be a bare file name, got {value!r}")
            if value in (_PLAIN_CSV, _PLAIN_PHASE):
                raise ConfigError(
                    f"output {key!r} may not be {value!r}: a run writes that "
                    f"file itself")
        named: Dict[str, str] = {}
        for key, value in {**_DEFAULT_OUTPUTS, **outputs}.items():
            if value in named:
                raise ConfigError(
                    f"outputs {named[value]!r} and {key!r} both name {value!r}")
            named[value] = key
        super().__init__(experiment, params, initial_conditions, outputs)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict) or "experiment" not in raw:
            raise ConfigError(f"config {path} must be an object with 'experiment'")
        unknown = set(raw) - {"experiment", "params", "initial_conditions", "outputs"}
        if unknown:
            raise ConfigError(f"unknown config sections {sorted(unknown)!r}")
        return cls(
            experiment=raw["experiment"],
            params=raw.get("params", {}),
            initial_conditions=raw.get("initial_conditions", ()),
            outputs=raw.get("outputs", {}),
        )

    def with_overrides(self, overrides: Dict[str, object]) -> "ExperimentConfig":
        """This config with ``overrides`` merged into its params, validated
        again; with nothing to override, this config itself."""
        if not overrides:
            return self
        merged = dict(self.params)
        merged.update(overrides)
        return ExperimentConfig(self.experiment, merged,
                                self.initial_conditions, self.outputs)


def _picked(cls, eff: Dict[str, object]) -> Dict[str, object]:
    """The parameters that name fields of the record class ``cls``, typed."""
    return {k: _KEYS[k][0](v) for k, v in eff.items() if k in cls._fields}


def _blocks(eff: Dict[str, object], *classes) -> tuple:
    """One instance per class from the parameters; each class's own
    defaults fill the fields the parameters leave out."""
    return tuple(cls(**_picked(cls, eff)) for cls in classes)


# artifacts ----------------------------------------------------------------

class _Outcome(_Record):
    """What a run hands the artifact writer.

    ``trajs`` are drawn in phase.svg, behind them the ``overlays``: the
    keywords of emit_phase_svg that draw the critical manifold, reference
    cycle and neighbourhoods.  ``fault`` is the exception that ended the
    run, or None.  ``labels`` name the phase axes and the control.
    """

    __slots__ = _fields = ("trajs", "overlays", "results", "summary",
                           "labels", "extra_csv", "extra_phase", "fault")

    def __init__(self, trajs: Sequence[Trajectory], overlays: Dict[str, object],
                 results: Dict[str, object], summary: str = "",
                 labels: Tuple[str, str, str] = ("x", "y", "u"),
                 extra_csv: Dict[str, Trajectory] = _NEW_DICT,
                 extra_phase: Dict[str, Sequence[Trajectory]] = _NEW_DICT,
                 fault: Optional[Exception] = None):
        super().__init__(
            trajs, overlays, results, summary, labels,
            {} if extra_csv is _NEW_DICT else extra_csv,
            {} if extra_phase is _NEW_DICT else extra_phase, fault)


def _write_trajectory_csv(path, traj: Trajectory) -> None:
    # "%.17g" never writes a comma, quote or line break, so no field needs
    # the quoting csv.writer would apply; rows stream from a generator
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,x,y,u\n")
        fh.writelines("%.17g,%.17g,%.17g,%.17g\n" % row for row in zip(
            traj.times, *traj.columns[:2], traj.controls))


def read_trajectory_csv(path) -> Tuple[Tuple[float, float, float, float], ...]:
    """Parse a trajectory.csv back into (t, x, y, u) rows at full precision."""
    import csv  # only readers of the artifacts need it; no run loads it

    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["t", "x", "y", "u"]:
        raise ConfigError(f"{path} is not a trajectory file")
    out = []
    for line, row in enumerate(rows[1:], 2):
        try:
            if len(row) == 4:
                out.append(tuple(float(v) for v in row))
                continue
        except ValueError:
            pass
        raise ConfigError(f"{path} line {line}: {row!r} is not four numbers")
    return tuple(out)


def _write_metrics(path, cfg: ExperimentConfig, eff: Dict[str, object],
                   results: Dict[str, object], status: str = "ok") -> None:
    doc = {
        "experiment": cfg.experiment,
        "config": {
            "experiment": cfg.experiment,
            "params": {k: eff[k] for k in sorted(eff)},
            "initial_conditions": [[p.x, p.y] for p in cfg.initial_conditions],
            "outputs": {**_DEFAULT_OUTPUTS, **cfg.outputs},
        },
        "results": results,
        "status": status,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_outcome(cfg: ExperimentConfig, eff: Dict[str, object],
                   out: _Outcome, outdir: Path) -> int:
    """Write an outcome's artifacts and return its exit code.  The fault's
    trajectory, else the first run, goes to trajectory.csv and
    controller.svg; a fault is reported on stderr and in metrics.json."""
    path = {slot: outdir / name
            for slot, name in {**_DEFAULT_OUTPUTS, **cfg.outputs}.items()}
    x_label, y_label, u_label = out.labels
    primary = getattr(out.fault, "trajectory", None)
    if primary is None and out.trajs:
        primary = out.trajs[0]
    status = "failed" if out.results.get("failures") else _status(out.fault)
    code = _EXIT_CODES.get(status, 3)
    if out.fault is not None:
        print(f"{'pattern deviation' if code == 4 else 'integration fault'}: "
              f"{out.fault}", file=sys.stderr)
        out.results.update(
            message=str(out.fault),
            last_time=primary.final_time if primary is not None else None,
            last_state=list(primary.final_state) if primary is not None else None)
        if isinstance(out.fault, PatternDeviationError):
            out.results.update(achieved=list(out.fault.achieved),
                               expected=out.fault.expected, got=out.fault.got)
    if primary is not None:
        _write_trajectory_csv(path["trajectory"], primary)
        emit_phase_svg(out.trajs or [primary], path["phase"], x_label, y_label,
                       **out.overlays)
        emit_timeseries_svg(primary, path["controller"], label=u_label)
    for name, traj in out.extra_csv.items():
        _write_trajectory_csv(outdir / name, traj)
    for name, trajs in out.extra_phase.items():
        emit_phase_svg(trajs, outdir / name, x_label, y_label, **out.overlays)
    _write_metrics(path["metrics"], cfg, eff, out.results, status)
    return code


# status a fault leaves in metrics.json: an IntegrationError names its own;
# the faults integrate does not raise, by type.  OverflowError covers
# ExponentOverflowError and float arithmetic overflow outside a run
_FAULT_STATUS = (
    (PatternDeviationError, "pattern-deviation"),
    (OverflowError, "overflow-fault"),
    (SingularConfigurationError, "integration-fault"),
)
# exit code of each status that is not an integration fault (exit 3)
_EXIT_CODES = {"ok": 0, "failed": 1, "pattern-deviation": 4}


def _status(fault: Optional[Exception]) -> str:
    if fault is None:
        return "ok"
    if isinstance(fault, IntegrationError):
        return fault.status
    return next(s for kind, s in _FAULT_STATUS if isinstance(fault, kind))


# experiment runs ----------------------------------------------------------

def _convergence_results(traj: Trajectory, eps: float, level: ScaledLevel,
                         center: float = 0.0) -> Dict[str, object]:
    rep = convergence_metrics(traj, eps, level, center)
    return {
        "residual_initial": rep.initial,
        "residual_terminal": rep.terminal,
        "residual_threshold": rep.threshold,
        "time_below": rep.time_below,
    }


def _run_starts(rhs, u, starts, span, integ: IntegratorConfig, watchers=()):
    """Integrate each start in turn; yield its trajectory and the fault
    that ended it, or None."""
    for start in starts:
        try:
            yield integrate(rhs, u, start, span, integ, watchers=watchers), None
        except IntegrationError as exc:
            yield exc.trajectory, exc


def _first_fault(runs) -> Optional[IntegrationError]:
    """The fault of the first start that faulted: the run's fault."""
    for _, fault in runs:
        if fault is not None:
            return fault
    return None


def _run_fold(cfg: ExperimentConfig, eff: Dict[str, object], channel: str) -> _Outcome:
    params, gains, level, integ = _blocks(
        eff, SystemParams, ControllerGains, ScaledLevel, IntegratorConfig)
    default_ic = PhasePoint(0.2, 0.3) if channel == "fast" else PhasePoint(0.45, 0.25)
    ics = cfg.initial_conditions or (default_ic,)
    # fast actuation relocates the fold to x = alpha; slow actuation cancels
    # the detuning instead and leaves the canard point at the origin
    center = params.alpha if channel == "fast" else 0.0
    u = partial(fast_u if channel == "fast" else slow_u,
                FoldLaw(params, gains, level))
    rhs = partial(fold_rhs, FoldField(params, channel=channel))

    # once per revolution: the cycle crosses the frame center moving right
    # on its lower arc
    section = Watcher("section-crossing", lambda p: p[0] - center)
    runs = list(_run_starts(rhs, u, ics, (0.0, float(eff["t_end"])), integ,
                            [section]))
    trajs = [traj for traj, _ in runs]

    primary = trajs[0]
    results: Dict[str, object] = _convergence_results(primary, params.eps,
                                                      level, center)
    hits = primary.events_of("section-crossing")
    results["section_return_times"] = [ev.time for ev in hits]
    # widest state gap between consecutive section returns
    results["max_return_gap"] = max(
        (math.hypot(b.state[0] - a.state[0], b.state[1] - a.state[1])
         for a, b in zip(hits, hits[1:])), default=None)
    results["overflow_events"] = sum(
        len(traj.events_of("overflow-fault")) for traj in trajs)
    return _Outcome(
        trajs, {"critical": "fold",
                "cycle": reference_cycle(level, params.eps, center)},
        results,
        f"{cfg.experiment}: terminal residual "
        f"{results['residual_terminal']:.3g}, {len(hits)} section returns",
        fault=_first_fault(runs))


# gain of the slow shear g~ = gain*x*(y - x^2) on fold-fast-hot's plant
_FOLD_SHEAR = 100.0


def _run_fold_fast_hot(cfg: ExperimentConfig, eff: Dict[str, object]) -> _Outcome:
    """Shear-perturbed plant, with and without the compensating term.

    At these gains both runs converge; the correction's job shows in the
    controller trace and in the chart-level necessity demo (k2-hot), where
    the cancellation is exact.  At c1 = 0.5 the plain loop loses the cycle
    and only its status records it; a compensated run's fault is the run's.
    It reads no alpha: the shear factorizes only at alpha = 0.
    """
    params, gains, level, integ = _blocks(
        eff, SystemParams, ControllerGains, ScaledLevel, IntegratorConfig)
    ic = (cfg.initial_conditions or (PhasePoint(0.2, 0.3),))[0]
    span = (0.0, float(eff["t_end"]))
    rhs = partial(fold_rhs, FoldField(params, shear=_FOLD_SHEAR))

    # the compensated run, then the plain one, from the same start
    (comp, fault), (plain, plain_fault) = (
        run for shear in (_FOLD_SHEAR, 0.0) for run in _run_starts(
            rhs, partial(fast_u, FoldLaw(params, gains, level, shear)), (ic,),
            span, integ))
    plain_status = _status(plain_fault)
    plain_block: Dict[str, object] = {"status": plain_status,
                                      "final_time": plain.final_time}
    if plain_status == "ok":
        plain_block.update(_convergence_results(plain, params.eps, level))
    results = {
        "compensated": {**_convergence_results(comp, params.eps, level),
                        "status": _status(fault)},
        "plain": plain_block,
    }
    return _Outcome(
        [comp, plain], {"critical": "fold",
                        "cycle": reference_cycle(level, params.eps)},
        results,
        f"fold-fast-hot: compensated terminal residual "
        f"{results['compensated']['residual_terminal']:.3g}; "
        f"plain run {plain_status}",
        extra_csv={_PLAIN_CSV: plain}, fault=fault)


def _chart_ics(count: int) -> Tuple[PhasePoint, ...]:
    """Deterministic chart-plane samples with |x2|, |y2| <= 3, off the origin."""
    rng = random.Random(_SEED)
    out = []
    while len(out) < count:
        x2, y2 = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        if abs(x2) + abs(y2) >= 0.1:
            out.append(PhasePoint(x2, y2))
    return tuple(out)


# shear-run starts: inside the region 1 + r2*phi2 > 0 where the slow flow
# keeps its direction; below y2 = x2^2 - 1 the compensated loop has a
# spurious stable equilibrium on that locus and the stability lemma is void
_SHEAR_ICS = (PhasePoint(0.5, 0.5), PhasePoint(-1.0, 1.0), PhasePoint(2.0, 3.2),
              PhasePoint(-1.5, 1.8), PhasePoint(1.0, 0.8))


def _run_k2_family(cfg: ExperimentConfig, eff: Dict[str, object],
                   with_shear: bool) -> _Outcome:
    """Central-chart runs; r2 = sqrt(eps) weights only the shear, so k2 reads no eps."""
    params, gains, level, integ = _blocks({"eps": 0.0, **eff}, SystemParams,
                                          ControllerGains, ScaledLevel, IntegratorConfig)
    r2, alpha2, h = math.sqrt(params.eps), params.alpha, level.value
    ics = cfg.initial_conditions or (_SHEAR_ICS if with_shear else _chart_ics(10))
    span = (0.0, float(eff["t_end"]))
    # k2-hot's shear g2 = x2*(y2 - x2^2), at gain 1
    shear = 1.0 if with_shear else 0.0
    rhs = partial(k2_field, K2Field(r2, alpha2, shear))

    # the watcher reads eval_H2 itself: its overflow faults the start
    stop = Watcher("level-convergence",
                   lambda p: 1e-7 - abs(eval_H2(p[0], p[1]) - h), terminal=True)

    def h_gap(x2: float, y2: float) -> float:
        """|H2 - h| at (x2, y2), inf where eval_H2 overflows."""
        try:
            return abs(eval_H2(x2, y2) - h)
        except ExponentOverflowError:
            return math.inf

    law = partial(k2_mu, K2Law(gains, h, r2, alpha2, shear))
    runs = list(_run_starts(rhs, law, ics, span, integ, [stop]))
    per_ic = []
    for ic, (traj, fault) in zip(ics, runs):
        hits = traj.events_of("level-convergence")
        # L2 = (H2 - h)^2 / 2, as lyapunov_L2 computes it, without its rate;
        # its largest step up is kept as max() keeps it, in one pass
        points = zip(*traj.columns)
        gap = h_gap(*next(points))
        l2, rise = 0.5 * gap * gap, 0.0
        for x2, y2 in points:
            gap = h_gap(x2, y2)
            prev, l2 = l2, 0.5 * gap * gap
            if l2 - prev > rise:
                rise = l2 - prev
        per_ic.append({
            "ic": [ic.x, ic.y],
            "status": _status(fault),
            "terminal_h_gap": gap,
            "converged_at": hits[0].time if hits else None,
            "max_l2_increase": rise,
        })
    results: Dict[str, object] = {
        "per_ic": per_ic,
        "max_terminal_h_gap": max(r["terminal_h_gap"] for r in per_ic),
    }
    extra_phase = {}
    if with_shear:
        plain_law = partial(k2_mu, K2Law(gains, h, r2, alpha2))
        plain = list(_run_starts(rhs, plain_law, ics, span, integ))
        gaps = [h_gap(*traj.final_state) for traj, _ in plain]
        results["plain_per_ic"] = [
            {"ic": [ic.x, ic.y], "status": _status(fault), "terminal_h_gap": gap}
            for ic, (_, fault), gap in zip(ics, plain, gaps)]
        results["plain_worst_h_gap"] = max(gaps)
        extra_phase[_PLAIN_PHASE] = [traj for traj, _ in plain]

    return _Outcome(
        [traj for traj, _ in runs], {"cycle": reference_cycle(level, 1.0)},
        results,
        f"{cfg.experiment}: worst terminal |H2 - h| = "
        f"{results['max_terminal_h_gap']:.3g} over {len(ics)} starts",
        labels=("x2", "y2", "mu2"), extra_phase=extra_phase,
        fault=_first_fault(runs))


# k1-vdp's entry-chart box: the flow enters through the section
# {eps1 = delta1} and exits through {r1 = rho1}; the transported rectangle
# on the entry section has radial extent rho1_tilde and half-height sigma1
# around the closed-loop branch
_K1_RHO1 = 0.6
_K1_DELTA1 = 0.1
_K1_SIGMA1 = 0.1
_K1_RHO1_TILDE = 0.25


def _run_k1_vdp(cfg: ExperimentConfig, eff: Dict[str, object]) -> _Outcome:
    """Entry-chart wedge transport: a grid on the entry section contracts
    onto the shifted branch before it exits at r1 = rho1."""
    # k1_vdp_mu reads only k1 and x_star; ControllerGains requires c1 and c2
    gains = ControllerGains(1.0, 2.0, **_picked(ControllerGains, eff))
    integ = IntegratorConfig(**_picked(IntegratorConfig, eff))
    exit_section = Watcher("section-crossing", lambda s: s[0] - _K1_RHO1,
                           terminal=True)
    # the state is (r1, x1, eps1), the order k1_vdp_field reports it in
    mu = partial(k1_vdp_mu, gains)

    def blown_down(traj: Trajectory) -> Trajectory:
        # (x, y, u) = (r1 x1, r1^2, r1^2 mu1)
        r1, x1 = traj.columns[:2]
        return Trajectory(traj.times,
                          ([r * x for r, x in zip(r1, x1)], [r * r for r in r1]),
                          [r * r * m for r, m in zip(r1, traj.controls)])

    r1_grid = [0.05 + i * (_K1_RHO1_TILDE - 0.05) / 4 for i in range(5)]
    # five x1 about the branch point of each r1, on the entry section
    centers = [gains.x_star + k1_chart_phi1(r1, _K1_DELTA1) for r1 in r1_grid]
    grid = [(r1, center - _K1_SIGMA1 + j * _K1_SIGMA1 / 2, _K1_DELTA1)
            for r1, center in zip(r1_grid, centers) for j in range(5)]
    runs = _run_starts(k1_vdp_field, mu, grid, (0.0, float(eff["t_end"])),
                       integ, [exit_section])
    exit_x1, exit_t, blown = [], [], []
    for (r1, x1, _), (traj, fault) in zip(grid, runs):
        hits = traj.events_of("section-crossing")
        if not hits:  # the run ends here, at the first grid point that misses
            fault = fault or IntegrationError(
                f"grid point (r1={r1:.3g}, x1={x1:.3g}) never reached "
                f"the exit section r1 = {_K1_RHO1}")
            fault.trajectory = blown_down(traj)  # written as on success
            return _Outcome((), {}, {}, fault=fault)
        exit_x1.append(hits[0].state[1])
        exit_t.append(hits[0].time)
        if len(blown) < 5:
            blown.append(blown_down(traj))

    spread0 = max(x1 for _, x1, _ in grid) - min(x1 for _, x1, _ in grid)
    spread1 = max(exit_x1) - min(exit_x1)
    results = {
        "grid_r1": r1_grid,
        "initial_x1_spread": spread0,
        "exit_x1_spread": spread1,
        "contraction_ratio": spread1 / spread0,
        "exit_times": exit_t,
    }
    return _Outcome(
        blown, {"critical": "vdp"}, results,
        f"k1-vdp: exit x1 spread {spread1:.3g} "
        f"({100 * results['contraction_ratio']:.2f}% of initial)")


def _run_vdp(cfg: ExperimentConfig, eff: Dict[str, object]) -> _Outcome:
    """vdp-mmo runs its pattern; vdp-canard repeats three loops of the kind
    the sign of x_star selects, at the configured canard height."""
    if cfg.experiment == "vdp-mmo":
        pattern = MmoPattern.parse(str(eff["pattern"]), repeat=int(eff["repeat"]))
    else:
        x_star = float(eff["x_star"])
        pattern = MmoPattern(
            (MmoSegment(3, "SAO" if x_star < 0 else "LAO", float(eff["y_h"]),
                        x_star),), repeat=int(eff["repeat"]))
    eps = float(eff["eps"])
    nbhd = default_neighborhoods(eps)._replace(**_picked(NeighborhoodParams, eff))
    # composite_u never reads c2; ControllerGains requires one
    gains = ControllerGains(c2=2.0, **_picked(ControllerGains, eff))
    integ = IntegratorConfig(**_picked(IntegratorConfig, eff))
    # the initial condition, if any, else run_pattern's default start
    traj, loops = run_pattern(pattern, eps, gains, nbhd, integ,
                              *cfg.initial_conditions)

    labels = "".join(lb.label[0] for lb in loops)
    results = {
        "labels": labels,
        "loops": [{"label": lb.label, "t_start": lb.t_start, "t_end": lb.t_end,
                   "max_x": lb.max_x, "max_y": lb.max_y} for lb in loops],
        "classifier_labels": [lb.label for lb in loops],
        "pattern": pattern.compact(),
        "repeat": pattern.repeat,
    }
    return _Outcome(
        [traj], {"critical": "vdp", "nbhd": nbhd}, results,
        f"{cfg.experiment}: loops {labels}")


def _run_verify(cfg: ExperimentConfig, eff: Dict[str, object]) -> _Outcome:
    checks = [{"ok": ok, "line": line} for ok, line in run_verification()]
    return _Outcome((), {}, {"failures": sum(not c["ok"] for c in checks),
                             "checks": checks})


class _Spec(NamedTuple):
    defaults: Dict[str, object]  # every key the run reads, with its default
    extras: Tuple[str, ...]  # optional keys; the library's defaults apply
    run: Callable[[ExperimentConfig, Dict[str, object]], _Outcome]
    starts: Optional[int] = None  # most initial conditions it reads; None: any


_SPECS: Dict[str, _Spec] = {
    "fold-fast": _Spec(
        {"eps": 0.01, "alpha": -0.1, "c1": 1.0, "c2": 2.0,
         "h0": 0.25, "E": 400.0, "t_end": 1400.0},
        _INTEG_KEYS, lambda cfg, eff: _run_fold(cfg, eff, "fast")),
    "fold-fast-hot": _Spec(
        {"eps": 0.01, "c1": 5.0, "c2": 2.0, "h0": 0.25, "E": 400.0, "t_end": 700.0},
        _INTEG_KEYS, _run_fold_fast_hot, 1),
    # slow actuation only brakes or boosts the climb, so its transverse
    # contraction at c2 = 2 is c1*sqrt(eps)/4 and must beat the layer
    # repulsion 2*x along the canard ascent; a low stored cycle keeps that
    # repulsion small and the gain affordable
    "fold-slow": _Spec(
        {"eps": 0.01, "alpha": -0.1, "c1": 60.0, "c2": 2.0,
         "h0": 0.25, "E": 60.0, "t_end": 600.0},
        _INTEG_KEYS, lambda cfg, eff: _run_fold(cfg, eff, "slow")),
    "k2": _Spec(
        {"alpha": 1.0, "c1": 1.0, "c2": 2.0, "h0": 1e-16, "E": 0.0, "t_end": 500.0},
        _INTEG_KEYS, lambda cfg, eff: _run_k2_family(cfg, eff, False)),
    "k2-hot": _Spec(
        {"eps": 1.0, "alpha": 1.0, "c1": 10.0, "c2": 2.0,
         "h0": 1e-16, "E": 0.0, "t_end": 60.0},
        _INTEG_KEYS, lambda cfg, eff: _run_k2_family(cfg, eff, True)),
    "k1-vdp": _Spec(
        {"k1": 1.0, "x_star": -0.01, "t_end": 6000.0},
        _INTEG_KEYS, _run_k1_vdp, 0),
    "vdp-canard": _Spec(
        {"eps": 0.01, "c1": 1.0, "k1": 1.0, "x_star": -0.01, "y_h": 1.25,
         "repeat": 1},
        _INTEG_KEYS + _NBHD_KEYS, _run_vdp, 1),
    "vdp-mmo": _Spec(
        {"eps": 0.01, "c1": 1.0, "k1": 1.0,
         "pattern": "3L:0.75:0.01,4S:1.25:-0.01", "repeat": 1},
        _INTEG_KEYS + _NBHD_KEYS, _run_vdp, 1),
    "verify": _Spec({}, (), _run_verify, 0),
}


def run_experiment(cfg: ExperimentConfig, outdir) -> int:
    """Run one experiment, writing artifacts into outdir; returns exit code."""
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        probe = outdir / ".write-probe"
        probe.write_text("", encoding="utf-8")
        probe.unlink()
    except OSError as exc:
        print(f"error: output directory {outdir} is not writable: {exc}",
              file=sys.stderr)
        return 2
    spec = _SPECS[cfg.experiment]
    eff = {**spec.defaults, **cfg.params}
    try:
        try:
            out = spec.run(cfg, eff)
        except (IntegrationError, *(kind for kind, _ in _FAULT_STATUS)) as exc:
            out = _Outcome((), {}, {}, fault=exc)
        code = _write_outcome(cfg, eff, out, outdir)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
        return 2
    if out.summary:
        print(out.summary)
    return code


# command line -------------------------------------------------------------

def _run_one(job: Tuple[str, str, Dict[str, object]]) -> int:
    """Exit code of one config of a batch; an exception no exit code covers
    is an internal error (exit 5), so that the rest of the batch still runs."""
    path, outdir, overrides = job
    try:
        cfg = ExperimentConfig.from_file(path).with_overrides(overrides)
        return run_experiment(cfg, outdir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback  # only an internal error loads it

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


def _cmd_run(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    overrides = {name: getattr(args, name) for name, (_, flag) in _KEYS.items()
                 if flag and getattr(args, name) is not None}
    base = Path(args.out or "out")
    stems = [Path(c).stem for c in args.config]
    if len(set(stems)) != len(stems):
        print("error: batch configs must have distinct file stems "
              "(each gets its own output directory)", file=sys.stderr)
        return 2
    jobs = [(c, str(base / s if len(stems) > 1 else base), overrides)
            for c, s in zip(args.config, stems)]

    # without os.fork, --jobs runs the batch in this process
    if args.jobs > 1 and len(jobs) > 1 and hasattr(os, "fork"):
        from .batch import run_forked  # only a forked batch compiles it

        # _run_one is looked up when a worker calls it, so a wrapper set on
        # this module before the fork reaches every worker
        codes = run_forked([path for path, _, _ in jobs],
                           min(args.jobs, len(jobs)),
                           lambda i: _run_one(jobs[i]))
    else:
        codes = [_run_one(j) for j in jobs]
    worst = 0
    for (path, outdir, _), code in zip(jobs, codes):
        print(f"{path}: exit {code} ({outdir})")
        worst = max(worst, code)
    return worst


def _cmd_verify(args: argparse.Namespace) -> int:
    return 0 if all(ok for ok, _ in run_verification()) else 1


_MMO_FLAGS = ("pattern", "eps", "c1", "k1", "repeat")


def _cmd_mmo(args: argparse.Namespace) -> int:
    params = {name: getattr(args, name) for name in _MMO_FLAGS
              if getattr(args, name) is not None}
    try:
        cfg = ExperimentConfig("vdp-mmo", params)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run_experiment(cfg, Path(args.out))


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="canard-ctl",
        description="Closed-loop canard-cycle experiments for planar "
                    "fast-slow systems.")
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run experiment configs")
    run_p.add_argument("config", nargs="+", help="experiment config JSON file(s)")
    run_p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for batch runs")
    run_p.add_argument("--out", default=None,
                       help="output directory (batch: one subdirectory per config)")
    grp = run_p.add_argument_group("parameter overrides")
    for name, (kind, flag) in _KEYS.items():
        if flag:
            grp.add_argument(f"--{name}", type=kind, default=None)
    run_p.set_defaults(fn=_cmd_run)

    ver_p = sub.add_parser("verify", help="run the invariant suite")
    ver_p.set_defaults(fn=_cmd_verify)

    mmo_p = sub.add_parser("mmo", help="drive an MMO pattern directly")
    mmo_p.add_argument("--pattern", required=True,
                       help='compact pattern, e.g. "3L:0.75:0.01,4S:1.25:-0.01"')
    for name in _MMO_FLAGS[1:]:
        mmo_p.add_argument(f"--{name}", type=_KEYS[name][0], default=None)
    mmo_p.add_argument("--out", default="out-mmo")
    mmo_p.set_defaults(fn=_cmd_mmo)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
