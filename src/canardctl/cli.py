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
any, decides its status and exit code through _FAULT_STATUS.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import sys
import traceback
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from .blowup import k1_vdp_field, k2_field
from .controllers import (
    K1Domain,
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
    eval_H2,
)
from .cycles import reference_cycle
from .errors import (
    ConfigError,
    DomainError,
    ExponentOverflowError,
    IntegrationError,
    OverflowFaultError,
    PatternDeviationError,
    SingularConfigurationError,
    StepLimitError,
    StepUnderflowError,
)
from .mmo import MmoPattern, MmoSegment, classify_loops, run_pattern
from .models import (
    fold_rhs,
    parabolic_shear_terms,
    quadratic_gap_phi2,
    zero_terms,
)
from .sim import IntegratorConfig, Trajectory, Watcher, convergence_metrics, integrate
from .svgplot import (
    CriticalManifold,
    NeighborhoodShading,
    emit_phase_svg,
    emit_timeseries_svg,
)
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


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment with its flattened parameter block."""

    experiment: str
    params: Dict[str, object] = field(default_factory=dict)
    initial_conditions: Tuple[PhasePoint, ...] = ()
    outputs: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        spec = _SPECS.get(self.experiment) \
            if isinstance(self.experiment, str) else None
        if spec is None:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; "
                f"registered: {', '.join(sorted(_SPECS))}")
        for section in ("params", "outputs"):
            if not isinstance(getattr(self, section), dict):
                raise ConfigError(f"{section} must be a JSON object")
        if "h" in self.params:
            raise ConfigError(
                "raw 'h' rejected: supply the level as (h0, E) with "
                "h = h0*exp(-E); a literal h underflows silently")
        accepted = {*spec.defaults, *spec.extras}
        for key, value in self.params.items():
            if key not in accepted:
                raise ConfigError(
                    f"unknown parameter {key!r} for {self.experiment}; "
                    f"accepted: {', '.join(sorted(accepted)) or 'none'}")
            kind = _KEYS[key][0]
            if isinstance(value, bool) or not isinstance(
                    value, (int, float) if kind is float else kind):
                raise ConfigError(f"parameter {key!r} must be {_KIND_NAMES[kind]}")
            if kind is float and not math.isfinite(_as_float(value)):
                raise ConfigError(f"parameter {key!r} must be finite")
        if not isinstance(self.initial_conditions, (list, tuple)):
            raise ConfigError("initial_conditions must be a list of [x, y] pairs")
        for p in self.initial_conditions:
            if not (isinstance(p, (list, tuple)) and len(p) == 2 and all(
                    isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in p)):
                raise ConfigError(
                    f"initial_conditions must be [x, y] pairs of numbers, got {p!r}")
        object.__setattr__(
            self, "initial_conditions",
            tuple(PhasePoint(_as_float(p[0]), _as_float(p[1]))
                  for p in self.initial_conditions))
        for p in self.initial_conditions:
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise ConfigError(f"non-finite initial condition {p!r}")
        for key, value in self.outputs.items():
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
        for key, value in {**_DEFAULT_OUTPUTS, **self.outputs}.items():
            if value in named:
                raise ConfigError(
                    f"outputs {named[value]!r} and {key!r} both name {value!r}")
            named[value] = key

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
    """The parameters that name fields of the dataclass ``cls``, typed."""
    names = {f.name for f in fields(cls)}
    return {k: _KEYS[k][0](v) for k, v in eff.items() if k in names}


def _blocks(eff: Dict[str, object], *classes) -> tuple:
    """One instance per class from the parameters; each class's own
    defaults fill the fields the parameters leave out."""
    return tuple(cls(**_picked(cls, eff)) for cls in classes)


# artifacts ----------------------------------------------------------------

@dataclass(frozen=True)
class _Outcome:
    """What a run hands the artifact writer.

    ``trajs`` are drawn in phase.svg.  ``fault`` is the exception that
    ended the run, or None.  ``labels`` name the phase axes and the control.
    """

    trajs: Sequence[Trajectory]
    overlays: Sequence[object]
    results: Dict[str, object]
    summary: str = ""
    labels: Tuple[str, str, str] = ("x", "y", "u")
    extra_csv: Dict[str, Trajectory] = field(default_factory=dict)
    extra_phase: Dict[str, Sequence[Trajectory]] = field(default_factory=dict)
    fault: Optional[Exception] = None


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
    return tuple(tuple(float(v) for v in row) for row in rows[1:])


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
        emit_phase_svg(out.trajs or [primary], out.overlays, path["phase"],
                       x_label=x_label, y_label=y_label)
        emit_timeseries_svg(primary, path["controller"], label=u_label)
    for name, traj in out.extra_csv.items():
        _write_trajectory_csv(outdir / name, traj)
    for name, trajs in out.extra_phase.items():
        emit_phase_svg(trajs, out.overlays, outdir / name,
                       x_label=x_label, y_label=y_label)
    _write_metrics(path["metrics"], cfg, eff, out.results, status)
    return code


# status a fault leaves in metrics.json, most specific exception type first;
# OverflowError covers ExponentOverflowError and float arithmetic overflow
_FAULT_STATUS = (
    (PatternDeviationError, "pattern-deviation"),
    (StepLimitError, "step-limit"),
    (StepUnderflowError, "step-underflow"),
    (OverflowFaultError, "overflow-fault"),
    (OverflowError, "overflow-fault"),
    (IntegrationError, "integration-fault"),
    (SingularConfigurationError, "integration-fault"),
)
# exit code of each status that is not an integration fault (exit 3)
_EXIT_CODES = {"ok": 0, "failed": 1, "pattern-deviation": 4}


def _status(fault: Optional[Exception]) -> str:
    return "ok" if fault is None else next(
        s for kind, s in _FAULT_STATUS if isinstance(fault, kind))


# experiment runs ----------------------------------------------------------

def _convergence_results(traj: Trajectory, eps: float, level: ScaledLevel) -> Dict[str, object]:
    rep = convergence_metrics(traj, eps, level)
    return {
        "residual_initial": rep.initial,
        "residual_terminal": rep.terminal,
        "residual_threshold": rep.threshold,
        "time_below": rep.time_below,
    }


def _guarded(*args, **kwargs) -> Tuple[Trajectory, Optional[IntegrationError]]:
    """integrate() with the fault that ended the run, or None, next to the
    trajectory; a run that ends on an overflow-fault event is a fault."""
    try:
        traj = integrate(*args, **kwargs)
    except IntegrationError as exc:  # step limit or step underflow
        return exc.trajectory, exc
    return traj, OverflowFaultError(traj) if traj.events_of("overflow-fault") else None


def _run_fold(cfg: ExperimentConfig, eff: Dict[str, object], channel: str) -> _Outcome:
    params, gains, level, integ = _blocks(
        eff, SystemParams, ControllerGains, ScaledLevel, IntegratorConfig)
    default_ic = PhasePoint(0.2, 0.3) if channel == "fast" else PhasePoint(0.45, 0.25)
    ics = cfg.initial_conditions or (default_ic,)
    hot = zero_terms()
    # fast actuation relocates the fold to x = alpha; slow actuation cancels
    # the detuning instead and leaves the canard point at the origin
    center = params.alpha if channel == "fast" else 0.0
    law = fast_u if channel == "fast" else slow_u

    # the state is a plain (x, y) tuple
    def u(p) -> float:
        return law(p, params, gains, level)

    def rhs(p, uval):
        return fold_rhs(p, params, hot, uval, channel)

    # once per revolution: the cycle crosses the frame center moving right
    # on its lower arc
    section = Watcher("section-crossing", lambda p: p[0] - center,
                      direction="up")
    runs = [_guarded(rhs, u, tuple(ic), (0.0, float(eff["t_end"])), integ,
                     watchers=[section])
            for ic in ics]
    trajs = [traj for traj, _ in runs]

    primary = trajs[0]
    xs, ys = primary.columns
    framed = Trajectory.from_columns(
        primary.times, ([x - center for x in xs], ys),
        primary.controls, primary.events)
    results: Dict[str, object] = _convergence_results(framed, params.eps, level)
    hits = primary.events_of("section-crossing")
    results["section_return_times"] = [ev.time for ev in hits]
    # widest state gap between consecutive section returns
    results["max_return_gap"] = max(
        (math.hypot(b.state[0] - a.state[0], b.state[1] - a.state[1])
         for a, b in zip(hits, hits[1:])), default=None)
    results["overflow_events"] = sum(
        len(traj.events_of("overflow-fault")) for traj in trajs)
    return _Outcome(
        trajs, [CriticalManifold("fold"),
                reference_cycle(level, params.eps, center)],
        results,
        f"{cfg.experiment}: terminal residual "
        f"{results['residual_terminal']:.3g}, {len(hits)} section returns",
        fault=next((fault for _, fault in runs if fault is not None), None))


def _run_fold_fast_hot(cfg: ExperimentConfig, eff: Dict[str, object]) -> _Outcome:
    """Shear-perturbed plant, with and without the compensating term.

    At these gains both runs converge; the correction's job shows in the
    controller trace and in the chart-level necessity demo (k2-hot), where
    the cancellation is exact.  At c1 = 0.5 the plain loop loses the cycle
    and only its status records it; a compensated run's fault is the run's.
    """
    params, gains, level, integ = _blocks(
        eff, SystemParams, ControllerGains, ScaledLevel, IntegratorConfig)
    ic = (cfg.initial_conditions or (PhasePoint(0.2, 0.3),))[0]
    hot = parabolic_shear_terms(100.0)
    span = (0.0, float(eff["t_end"]))

    def rhs(p, uval):
        return fold_rhs(p, params, hot, uval)

    def run(phi_hat):
        def u(p) -> float:
            return fast_u(p, params, gains, level, phi_hat)

        return _guarded(rhs, u, tuple(ic), span, integ)

    comp, fault = run(hot.phi_hat)
    plain, plain_fault = run(None)
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
        [comp, plain], [CriticalManifold("fold"),
                        reference_cycle(level, params.eps, params.alpha)],
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
    """Central-chart runs; eps enters only through r2 = sqrt(eps)."""
    params, gains, level, integ = _blocks(
        eff, SystemParams, ControllerGains, ScaledLevel, IntegratorConfig)
    r2, alpha2, h = math.sqrt(params.eps), params.alpha, level.value
    ics = cfg.initial_conditions or (_SHEAR_ICS if with_shear else _chart_ics(10))
    span = (0.0, float(eff["t_end"]))

    g2 = (lambda r, x2, y2, a2: x2 * quadratic_gap_phi2(r, x2, y2, a2)) \
        if with_shear else None

    # the state is a plain (x2, y2) tuple
    def rhs(p, mu: float) -> Tuple[float, float]:
        return k2_field((r2, p[0], p[1], alpha2), g2, mu)

    stop = Watcher("level-convergence",
                   lambda p: 1e-7 - abs(eval_H2(p[0], p[1]) - h), terminal=True)

    def run_ic(ic: PhasePoint, phi2, watched: bool):
        def mu(p) -> float:
            return k2_mu((r2, p[0], p[1], alpha2), gains, h, phi2)

        traj, fault = _guarded(rhs, mu, tuple(ic), span, integ,
                               watchers=[stop] if watched else [])
        p = traj.final_state
        try:
            gap = abs(eval_H2(p[0], p[1]) - h)
        except ExponentOverflowError:
            gap = math.inf
        return traj, fault, gap

    phi2 = quadratic_gap_phi2 if with_shear else None
    runs = [run_ic(ic, phi2, watched=True) for ic in ics]
    per_ic = []
    for ic, (traj, fault, gap) in zip(ics, runs):
        hits = traj.events_of("level-convergence")
        # L2 = (H2 - h)^2 / 2, as lyapunov_L2 computes it, without its rate
        l2 = [0.5 * ht * ht for ht in (eval_H2(x2, y2) - h
                                         for x2, y2 in zip(*traj.columns))]
        per_ic.append({
            "ic": [ic.x, ic.y],
            "status": _status(fault),
            "terminal_h_gap": gap,
            "converged_at": hits[0].time if hits else None,
            "max_l2_increase": max([0.0] + [b - a for a, b in zip(l2, l2[1:])]),
        })
    results: Dict[str, object] = {
        "per_ic": per_ic,
        "max_terminal_h_gap": max(r["terminal_h_gap"] for r in per_ic),
    }
    extra_phase = {}
    if with_shear:
        plain = [run_ic(ic, None, watched=False) for ic in ics]
        results["plain_per_ic"] = [
            {"ic": [ic.x, ic.y], "status": _status(fault), "terminal_h_gap": gap}
            for ic, (_, fault, gap) in zip(ics, plain)]
        results["plain_worst_h_gap"] = max(gap for _, _, gap in plain)
        extra_phase[_PLAIN_PHASE] = [traj for traj, _, _ in plain]

    return _Outcome(
        [traj for traj, _, _ in runs], [reference_cycle(level, 1.0)],
        results,
        f"{cfg.experiment}: worst terminal |H2 - h| = "
        f"{results['max_terminal_h_gap']:.3g} over {len(ics)} starts",
        labels=("x2", "y2", "mu2"), extra_phase=extra_phase,
        fault=next((fault for _, fault, _ in runs if fault is not None), None))


def _run_k1_vdp(cfg: ExperimentConfig, eff: Dict[str, object]) -> _Outcome:
    """Entry-chart wedge transport: a grid on the entry section contracts
    onto the shifted branch before it exits at r1 = rho1."""
    # k1_vdp_mu reads only k1 and x_star; ControllerGains requires c1 and c2
    gains = ControllerGains(1.0, 2.0, **_picked(ControllerGains, eff))
    integ = IntegratorConfig(**_picked(IntegratorConfig, eff))
    dom = K1Domain()
    exit_section = Watcher("section-crossing", lambda s: s[0] - dom.rho1,
                           direction="up", terminal=True)

    # the state is (r1, x1, eps1); the field reports (r1', eps1', x1')
    def mu(s):
        return k1_vdp_mu(s, gains, k1_chart_phi1)

    def rhs(s, mu_value):
        d = k1_vdp_field(s, mu_value)
        return (d[0], d[2], d[1])

    def blown_down(traj: Trajectory) -> Trajectory:
        # (x, y, u) = (r1 x1, r1^2, r1^2 mu1)
        r1, x1 = traj.columns[:2]
        return Trajectory.from_columns(
            traj.times,
            ([r * x for r, x in zip(r1, x1)], [r * r for r in r1]),
            [r * r * m for r, m in zip(r1, traj.controls)], (), PhasePoint._make)

    r1_grid = [0.05 + i * (dom.rho1_tilde - 0.05) / 4 for i in range(5)]
    exit_x1, exit_t, blown = [], [], []
    x1_initial = []
    for r1 in r1_grid:
        center = gains.x_star + k1_chart_phi1(r1, dom.delta1)
        for j in range(5):
            x1 = center - dom.sigma1 + j * dom.sigma1 / 2
            x1_initial.append(x1)
            traj, fault = _guarded(rhs, mu, (r1, x1, dom.delta1),
                                   (0.0, float(eff["t_end"])), integ,
                                   watchers=[exit_section])
            hits = traj.events_of("section-crossing")
            if not hits:
                fault = fault or IntegrationError(
                    f"grid point (r1={r1:.3g}, x1={x1:.3g}) never reached "
                    f"the exit section r1 = {dom.rho1}")
                fault.trajectory = blown_down(traj)  # written as on success
                return _Outcome((), (), {}, fault=fault)
            exit_x1.append(hits[0].state[1])
            exit_t.append(hits[0].time)
            if len(blown) < 5:
                blown.append(blown_down(traj))

    spread0 = max(x1_initial) - min(x1_initial)
    spread1 = max(exit_x1) - min(exit_x1)
    results = {
        "grid_r1": r1_grid,
        "initial_x1_spread": spread0,
        "exit_x1_spread": spread1,
        "contraction_ratio": spread1 / spread0,
        "exit_times": exit_t,
    }
    return _Outcome(
        blown, [CriticalManifold("vdp")], results,
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
    nbhd = replace(default_neighborhoods(eps), **_picked(NeighborhoodParams, eff))
    # composite_u never reads c2; ControllerGains requires one
    gains = ControllerGains(c2=2.0, **_picked(ControllerGains, eff))
    integ = IntegratorConfig(**_picked(IntegratorConfig, eff))
    # the first initial condition, if any, else run_pattern's default start
    traj, loops = run_pattern(pattern, eps, gains, nbhd, integ,
                              *cfg.initial_conditions[:1])

    labels = "".join(lb.label[0] for lb in loops)
    results = {
        "labels": labels,
        "loops": [{"label": lb.label, "t_start": lb.t_start, "t_end": lb.t_end,
                   "max_x": lb.max_x, "max_y": lb.max_y} for lb in loops],
        "classifier_labels": [lb.label for lb in classify_loops(traj)],
        "pattern": pattern.compact(),
        "repeat": pattern.repeat,
    }
    return _Outcome(
        [traj], [CriticalManifold("vdp"), NeighborhoodShading(nbhd)], results,
        f"{cfg.experiment}: loops {labels}")


def _run_verify(cfg: ExperimentConfig, eff: Dict[str, object]) -> _Outcome:
    buf = io.StringIO()
    failures = run_verification(buf)
    text = buf.getvalue()
    sys.stdout.write(text)
    checks = [{"ok": line.startswith("PASS"), "line": line}
              for line in text.splitlines() if line.startswith(("PASS", "FAIL"))]
    return _Outcome((), (), {"failures": failures, "checks": checks})


class _Spec(NamedTuple):
    defaults: Dict[str, object]  # every key the run reads, with its default
    extras: Tuple[str, ...]  # optional keys; the library's defaults apply
    run: Callable[[ExperimentConfig, Dict[str, object]], _Outcome]


_SPECS: Dict[str, _Spec] = {
    "fold-fast": _Spec(
        {"eps": 0.01, "alpha": -0.1, "c1": 1.0, "c2": 2.0,
         "h0": 0.25, "E": 400.0, "t_end": 1400.0},
        _INTEG_KEYS, lambda cfg, eff: _run_fold(cfg, eff, "fast")),
    "fold-fast-hot": _Spec(
        {"eps": 0.01, "alpha": 0.0, "c1": 5.0, "c2": 2.0,
         "h0": 0.25, "E": 400.0, "t_end": 700.0},
        _INTEG_KEYS, _run_fold_fast_hot),
    # slow actuation only brakes or boosts the climb, so its transverse
    # contraction at c2 = 2 is c1*sqrt(eps)/4 and must beat the layer
    # repulsion 2*x along the canard ascent; a low stored cycle keeps that
    # repulsion small and the gain affordable
    "fold-slow": _Spec(
        {"eps": 0.01, "alpha": -0.1, "c1": 60.0, "c2": 2.0,
         "h0": 0.25, "E": 60.0, "t_end": 600.0},
        _INTEG_KEYS, lambda cfg, eff: _run_fold(cfg, eff, "slow")),
    "k2": _Spec(
        {"eps": 0.0, "alpha": 1.0, "c1": 1.0, "c2": 2.0,
         "h0": 1e-16, "E": 0.0, "t_end": 500.0},
        _INTEG_KEYS, lambda cfg, eff: _run_k2_family(cfg, eff, False)),
    "k2-hot": _Spec(
        {"eps": 1.0, "alpha": 1.0, "c1": 10.0, "c2": 2.0,
         "h0": 1e-16, "E": 0.0, "t_end": 60.0},
        _INTEG_KEYS, lambda cfg, eff: _run_k2_family(cfg, eff, True)),
    "k1-vdp": _Spec(
        {"k1": 1.0, "x_star": -0.01, "t_end": 6000.0},
        _INTEG_KEYS, _run_k1_vdp),
    "vdp-canard": _Spec(
        {"eps": 0.01, "c1": 1.0, "k1": 1.0, "x_star": -0.01, "y_h": 1.25,
         "repeat": 1},
        _INTEG_KEYS + _NBHD_KEYS, _run_vdp),
    "vdp-mmo": _Spec(
        {"eps": 0.01, "c1": 1.0, "k1": 1.0,
         "pattern": "3L:0.75:0.01,4S:1.25:-0.01", "repeat": 1},
        _INTEG_KEYS + _NBHD_KEYS, _run_vdp),
    "verify": _Spec({}, (), _run_verify),
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
        except tuple(kind for kind, _ in _FAULT_STATUS) as exc:
            out = _Outcome((), (), {}, fault=exc)
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

def _run_one(job: Tuple[str, str, Dict[str, object]]) -> Tuple[str, int]:
    """One config of a batch; an exception no exit code covers is reported
    as an internal error (exit 5) so that the rest of the batch still runs."""
    path, outdir, overrides = job
    try:
        cfg = ExperimentConfig.from_file(path).with_overrides(overrides)
        return path, run_experiment(cfg, outdir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return path, 2
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return path, 5


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
                           lambda i: _run_one(jobs[i])[1])
    else:
        codes = [_run_one(j)[1] for j in jobs]
    worst = 0
    for (path, outdir, _), code in zip(jobs, codes):
        print(f"{path}: exit {code} ({outdir})")
        worst = max(worst, code)
    return worst


def _cmd_verify(args: argparse.Namespace) -> int:
    return 0 if run_verification() == 0 else 1


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
