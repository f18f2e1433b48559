"""Adaptive explicit integration with event detection and fault capture.

The integrator is a Dormand-Prince 5(4) embedded pair with PI step-size
control and the matching quartic dense-output interpolant.  An explicit
method is deliberate: trajectories either stay on controller-tamed slow
manifolds, where moderate steps are accurate, or jump along fast fibers,
where small steps are wanted anyway; a step-size collapse below ``min_step``
is reported as a stiffness fault carrying the partial trajectory instead of
being hidden by an implicit solver.

The controller is evaluated once per field evaluation.  The controls a
trajectory records are the values from the first field call and from each
accepted step's last stage, which FSAL places at the new state; only a state
the run ends on at a terminal event is evaluated again.  A typed exponent
overflow raised by a controller, or a non-finite control value, terminates
the run with a terminal ``overflow-fault`` event at the last accepted state.
Events requested through watchers are localized on the dense output by
bisection to 1e-10 * max(1, |t|) in time.  Integration is deterministic:
identical inputs produce bitwise-identical trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .core import PhasePoint, ScaledLevel, eval_level_term
from .errors import (
    DomainError,
    ExponentOverflowError,
    IntegrationError,
    StepLimitError,
    StepUnderflowError,
)
from .models import Derivative

__all__ = [
    "IntegratorConfig",
    "Event",
    "Watcher",
    "Trajectory",
    "ConvergenceReport",
    "integrate",
    "integrate_vector",
    "convergence_metrics",
]

# Dormand-Prince 5(4) tableau, FSAL form: the 5th-order weights are the last
# stage row, the 7th stage sits at the step end and seeds the next step.
_C = (0.2, 0.3, 0.8, 8.0 / 9.0, 1.0, 1.0)
_A = (
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
_E = (
    71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
    -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0,
)
_D = (
    -12715105075.0 / 11282082432.0, 0.0, 87487479700.0 / 32700410799.0,
    -10690763975.0 / 1880347072.0, 701980252875.0 / 199316789632.0,
    -1453857185.0 / 822651844.0, 69997945.0 / 29380423.0,
)
# The step spells every stage combination out term by term from these names.
# Each sum starts from 0.0 and adds left to right, as sum() over the rows did
# before Python 3.12 made it compensated (so a lone -0.0 term gives +0.0),
# and the zero entries stay in so that inf and nan propagate from every stage.
_C2, _C3, _C4, _C5, _C6, _C7 = _C
(
    (_A21,),
    (_A31, _A32),
    (_A41, _A42, _A43),
    (_A51, _A52, _A53, _A54),
    (_A61, _A62, _A63, _A64, _A65),
    (_A71, _A72, _A73, _A74, _A75, _A76),
) = _A
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = _E
_D1, _D2, _D3, _D4, _D5, _D6, _D7 = _D

_SAFE = 0.9
_BETA = 0.04
_EXPO1 = 0.2 - _BETA * 0.75
_FAC_MIN = 0.2   # smallest allowed step shrink ratio per step
_FAC_MAX = 10.0  # largest allowed step growth ratio per step

_EVENT_TIME_TOL = 1e-10


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and step bounds of the embedded pair."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_step: float = 10.0
    min_step: float = 1e-12
    max_steps: int = 1_000_000

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "max_step", "min_step"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise DomainError(f"{name} must be positive and finite, got {v!r}")
        if self.min_step >= self.max_step:
            raise DomainError("min_step must be smaller than max_step")
        if self.max_steps <= 0:
            raise DomainError("max_steps must be positive")


@dataclass(frozen=True)
class Event:
    """A localized occurrence along a trajectory."""

    kind: str
    time: float
    state: tuple
    direction: str


@dataclass(frozen=True)
class Watcher:
    """Scalar event function watched for crossings at accepted steps.

    kinds: ``section-crossing`` fires on sign changes of ``fn`` filtered by
    ``direction`` (up / down / any); ``set-entry`` and ``set-exit`` expect an
    inside-positive indicator and fire on entering / leaving; a
    ``level-convergence`` watcher expects (threshold - |residual|) and fires
    when it becomes nonnegative.  Terminal watchers truncate the trajectory
    at the event.
    """

    kind: str
    fn: Callable
    direction: str = "any"
    terminal: bool = False


@dataclass(frozen=True)
class Trajectory:
    """Accepted integration points, per-point control values, and events."""

    times: tuple
    states: tuple
    controls: tuple
    events: tuple = ()

    def __post_init__(self):
        if not (len(self.times) == len(self.states) == len(self.controls)):
            raise DomainError("times, states and controls must align")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def final_time(self) -> float:
        return self.times[-1]

    @property
    def final_state(self):
        return self.states[-1]

    def events_of(self, kind: str) -> tuple:
        return tuple(ev for ev in self.events if ev.kind == kind)


def _rms(values: Sequence[float]) -> float:
    acc = 0.0  # left to right from zero, as sum() adds floats before 3.12
    for v in values:
        acc += v * v
    return math.sqrt(acc / len(values))


def _initial_step(fun, t0, y0, f0, t1, cfg, pack):
    # standard two-probe starting-step heuristic, fully deterministic
    sc = [cfg.abs_tol + cfg.rel_tol * abs(v) for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, sc)])
    d1 = _rms([v / s for v, s in zip(f0, sc)])
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, t1 - t0, cfg.max_step)
    y1 = pack(tuple(v + h0 * d for v, d in zip(y0, f0)))
    f1 = fun(t0 + h0, y1)
    d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, sc)]) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, t1 - t0, cfg.max_step)


def _interpolant(h, y, y_new, ks, pack):
    """Quartic dense output of an accepted step as theta in [0, 1] -> state."""
    rcont = []
    for rc1, y1, a, b, c, d, e, f, g in zip(y, y_new, *ks):
        rc2 = y1 - rc1
        rc3 = h * a - rc2
        rc4 = rc2 - h * g - rc3
        rc5 = h * (0.0 + _D1 * a + _D2 * b + _D3 * c + _D4 * d + _D5 * e
                   + _D6 * f + _D7 * g)
        rcont.append((rc1, rc2, rc3, rc4, rc5))

    def at(theta):
        th1 = 1.0 - theta
        return pack([
            rc1 + theta * (rc2 + th1 * (rc3 + theta * (rc4 + th1 * rc5)))
            for rc1, rc2, rc3, rc4, rc5 in rcont
        ])

    return at


def _crossing(kind: str, direction: str, g_old: float, g_new: float):
    """Return the event direction string if (g_old, g_new) is a crossing."""
    up = g_old < 0.0 <= g_new
    down = g_old > 0.0 >= g_new
    if kind == "section-crossing":
        if up and direction in ("up", "any"):
            return "up"
        if down and direction in ("down", "any"):
            return "down"
        return None
    if kind == "set-entry":
        return "enter" if up else None
    if kind == "set-exit":
        return "exit" if down else None
    if kind == "level-convergence":
        return "converged" if up else None
    raise DomainError(f"unknown watcher kind {kind!r}")


def _locate(crossed, h, t_old):
    """Bisect theta in (0, 1] for the first point past a dense-output crossing."""
    lo, hi = 0.0, 1.0
    tol = _EVENT_TIME_TOL * max(1.0, abs(t_old) + h)
    while (hi - lo) * h > tol:
        mid = 0.5 * (lo + hi)
        if crossed(mid):
            hi = mid
        else:
            lo = mid
    return hi


class _Engine:
    """One integration run over a tuple state; collects points and events.

    ``note``, if given, is called right after the field has been evaluated at
    the start state and at every accepted step end (the FSAL stage), and what
    it returns is kept in ``notes``, one entry per such point.  A state the
    run ends on at a terminal event comes from the dense output and has no
    note.
    """

    def __init__(self, fun, y0, t_span, cfg, watchers, pack, note=None):
        self.fun = fun
        self.cfg = cfg
        self.watchers = tuple(watchers)
        self.pack = pack
        self.note = note
        self.t0, self.t1 = t_span
        if not (math.isfinite(self.t0) and math.isfinite(self.t1) and self.t1 > self.t0):
            raise DomainError(f"bad t_span {t_span!r}")
        for v in y0:
            if not math.isfinite(v):
                raise DomainError(f"non-finite initial state {y0!r}")
        self.y = pack(y0)
        self.t = self.t0
        self.times = [self.t0]
        self.states = [self.y]
        self.notes = []
        self.events = []
        self.status = "ok"

    def run(self):
        fun, cfg, pack, note, watchers = (
            self.fun, self.cfg, self.pack, self.note, self.watchers)
        t1, atol, rtol = self.t1, cfg.abs_tol, cfg.rel_tol
        times, states, notes = self.times, self.states, self.notes
        t, y = self.t, self.y
        try:
            try:
                f_now = fun(t, y)
            finally:
                if note is not None:
                    notes.append(note())
            h = _initial_step(fun, t, y, f_now, t1, cfg, pack)
        except (ExponentOverflowError, IntegrationError):
            self._fault()
            return self
        g_now = [w.fn(y) for w in watchers]
        facold = 1e-4
        just_rejected = False
        nsteps = 0

        while t < t1:
            if nsteps >= cfg.max_steps:
                self.status = "step-limit"
                return self
            h = min(h, cfg.max_step)
            clamped = h > t1 - t
            if clamped:
                h = t1 - t

            k1 = f_now
            try:
                k2 = fun(t + _C2 * h, pack([
                    y0 + h * (0.0 + _A21 * a)
                    for y0, a in zip(y, k1)]))
                k3 = fun(t + _C3 * h, pack([
                    y0 + h * (0.0 + _A31 * a + _A32 * b)
                    for y0, a, b in zip(y, k1, k2)]))
                k4 = fun(t + _C4 * h, pack([
                    y0 + h * (0.0 + _A41 * a + _A42 * b + _A43 * c)
                    for y0, a, b, c in zip(y, k1, k2, k3)]))
                k5 = fun(t + _C5 * h, pack([
                    y0 + h * (0.0 + _A51 * a + _A52 * b + _A53 * c + _A54 * d)
                    for y0, a, b, c, d in zip(y, k1, k2, k3, k4)]))
                k6 = fun(t + _C6 * h, pack([
                    y0 + h * (0.0 + _A61 * a + _A62 * b + _A63 * c + _A64 * d
                              + _A65 * e)
                    for y0, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)]))
                # the last stage row is the 5th-order solution at t + h
                y_new = pack([
                    y0 + h * (0.0 + _A71 * a + _A72 * b + _A73 * c + _A74 * d
                              + _A75 * e + _A76 * f)
                    for y0, a, b, c, d, e, f in zip(y, k1, k2, k3, k4, k5, k6)])
                k7 = fun(t + _C7 * h, y_new)
            except (ExponentOverflowError, IntegrationError):
                self._fault()
                return self
            nsteps += 1

            err = _rms([
                h * (0.0 + _E1 * a + _E2 * b + _E3 * c + _E4 * d + _E5 * e
                     + _E6 * f + _E7 * g)
                / (atol + rtol * max(abs(y0), abs(y1)))
                for y0, y1, a, b, c, d, e, f, g
                in zip(y, y_new, k1, k2, k3, k4, k5, k6, k7)
            ])
            if not math.isfinite(err):
                err = 10.0

            if err > 1.0:
                h *= max(_FAC_MIN, _SAFE / err ** _EXPO1)
                if h < cfg.min_step:
                    self.status = "step-underflow"
                    return self
                just_rejected = True
                continue

            # accepted: event sweep on the dense output
            if watchers:
                fired, dense = self._sweep_events(
                    t, h, y, y_new, (k1, k2, k3, k4, k5, k6, k7), g_now)
                terminal = next((f for f in fired if f[2].terminal), None)
                if terminal is not None:
                    theta = terminal[0]
                    for th, dr, w in fired:
                        if th <= theta:
                            self.events.append(Event(w.kind, t + th * h, dense(th), dr))
                    self.t, self.y = t + theta * h, dense(theta)
                    times.append(self.t)
                    states.append(self.y)
                    return self
                for th, dr, w in fired:
                    self.events.append(Event(w.kind, t + th * h, dense(th), dr))

            t = t1 if clamped else t + h
            y = y_new
            self.t, self.y = t, y
            times.append(t)
            states.append(y)
            if note is not None:
                notes.append(note())  # k7 was the field's last call, at y_new
            f_now = k7
            g_now = [w.fn(y) for w in watchers]

            facold = max(err, 1e-4)
            fac = err ** _EXPO1 / facold ** _BETA
            scale = _SAFE / fac if fac > 0.0 else _FAC_MAX
            scale = min(_FAC_MAX, max(_FAC_MIN, scale))
            if just_rejected:
                scale = min(1.0, scale)
                just_rejected = False
            if not clamped:
                h *= scale
                if h < cfg.min_step and t < t1:
                    self.status = "step-underflow"
                    return self
        return self

    def _sweep_events(self, t, h, y, y_new, ks, g_now):
        """Crossings of the step as (theta, direction, watcher) by theta, and
        the step's dense output (None when nothing crossed)."""
        fired = []
        dense = None
        for w, g_old in zip(self.watchers, g_now):
            direction = _crossing(w.kind, w.direction, g_old, w.fn(y_new))
            if direction is None:
                continue
            if dense is None:
                dense = _interpolant(h, y, y_new, ks, self.pack)
            upward = direction in ("up", "enter", "converged")

            def crossed(theta, w=w, upward=upward):
                g = w.fn(dense(theta))
                return g >= 0.0 if upward else g <= 0.0

            fired.append((_locate(crossed, h, t), direction, w))
        fired.sort(key=lambda f: f[0])
        return fired, dense

    def _fault(self):
        self.events.append(
            Event("overflow-fault", self.t, self.y, "fault")
        )
        self.status = "overflow-fault"


def integrate_vector(fun, y0, t_span, cfg=None, watchers=()):
    """Integrate y' = fun(t, y) over a tuple state.

    Returns (times, states, events, status); raising on faults is left to
    the caller, which knows what the state components mean.
    """
    cfg = cfg or IntegratorConfig()
    eng = _Engine(fun, tuple(y0), t_span, cfg, watchers, tuple).run()
    return eng.times, eng.states, eng.events, eng.status


def integrate(rhs, u, start, t_span, cfg=None, watchers=()):
    """Integrate a controlled planar field, recording control at accepted steps.

    ``rhs(p, u_value) -> Derivative`` supplies the field, ``u(p) -> float``
    the feedback, which every field evaluation calls once.  The recorded
    controls are the values those calls returned: at the start state and, at
    each accepted step, from the last (FSAL) stage, which runs at the new
    state.  Only a state the run ends on at a terminal event is evaluated
    again.  A typed exponent overflow or non-finite control value ends the
    run with a terminal ``overflow-fault`` event; a fault at the start state
    records the control ``u`` returned there, or nan if it raised.
    Step-size collapse raises :class:`StepUnderflowError` and an exhausted
    step budget raises :class:`StepLimitError`, both carrying the partial
    trajectory.
    """
    cfg = cfg or IntegratorConfig()
    last_u = [math.nan]

    def fun(t, p):
        last_u[0] = u_value = u(p)
        d = rhs(p, u_value)
        return (d[0], d[1])

    eng = _Engine(fun, tuple(start), t_span, cfg, watchers, PhasePoint._make,
                  note=lambda: last_u[0]).run()

    def control_at(p):
        try:
            return u(p)
        except (ExponentOverflowError, IntegrationError):
            return math.nan  # fault record; the matching fault event is present

    eng.notes.extend(control_at(p) for p in eng.states[len(eng.notes):])
    controls = tuple(eng.notes)
    traj = Trajectory(tuple(eng.times), tuple(eng.states), controls, tuple(eng.events))
    if eng.status == "step-underflow":
        raise StepUnderflowError(
            f"step size collapsed below min_step = {cfg.min_step:g} at t = {eng.t:.6g}",
            traj,
        )
    if eng.status == "step-limit":
        raise StepLimitError(
            f"max_steps = {cfg.max_steps} exhausted at t = {eng.t:.6g}", traj
        )
    return traj


@dataclass(frozen=True)
class ConvergenceReport:
    """Scaled-level residual along a trajectory and its convergence moment."""

    residuals: tuple
    initial: float
    terminal: float
    time_below: float | None
    threshold: float


def convergence_metrics(
    traj: Trajectory,
    eps: float,
    level: ScaledLevel,
    c2: float = 2.0,
    threshold: float = 1e-3,
    relative: bool = True,
) -> ConvergenceReport:
    """Residual time series exp(c2*y/eps)(H - h) over a planar trajectory.

    With the default c2 = 2 the evaluation carries no large exponentials and
    is safe along any finite trajectory; overflowing points (possible after a
    fault) report an infinite residual.  ``time_below`` is the first accepted
    time where |residual| falls at or below the threshold, interpreted as a
    fraction of the initial residual when ``relative`` is set.
    """
    res = []
    for p in traj.states:
        try:
            res.append(eval_level_term(p, eps, c2, level))
        except ExponentOverflowError:
            res.append(math.inf)
    initial = res[0]
    cut = threshold * abs(initial) if relative else threshold
    t_below = None
    for t, r in zip(traj.times, res):
        if abs(r) <= cut:
            t_below = t
            break
    return ConvergenceReport(tuple(res), initial, res[-1], t_below, cut)
