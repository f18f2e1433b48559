"""Adaptive explicit integration with event detection and fault capture.

`integrate` is the one entry point.  It integrates an autonomous controlled
field y' = rhs(y, u(y)) over a state of two or three components (a planar
fast-slow system, or the blow-up's entry chart (r1, x1, eps1)), and every
state it builds or returns is a plain tuple of floats, whatever sequence
the start is.  The `Trajectory` it returns keeps its points as float
columns, an ``array('d')`` each for the times, the controls and every state
component, at 8 bytes a value.  The run fills the times and controls as it
accepts steps, and the state components point after point in one more
array, which it splits into columns once, at its end.  Only
``final_state`` rebuilds a point as a tuple.

The integrator is a Dormand-Prince 5(4) embedded pair with the matching
quartic dense-output interpolant.  Its step-size control is written in PI
form but acts as an I controller: the "previous" error it divides by,
``facold = max(err, 1e-4)``, is set from the current step's error just
before use, so an accepted step with err >= 1e-4 scales h by
0.9 * err**-0.13, clamped to [0.2, 10].  Making it a true PI controller
would change the bits of every trajectory.  An explicit method is
deliberate: trajectories either stay on controller-tamed slow manifolds,
where moderate steps are accurate, or jump along fast fibers, where small
steps are wanted anyway; a step-size collapse below ``min_step`` is
reported as a stiffness fault carrying the partial trajectory instead of
being hidden by an implicit solver.  ``min_step`` binds the first step too:
the starting-step estimate, which the field alone picks, is raised to
``min_step`` when it falls below it, but never past the end of the span.

Each step runs in one of two kernels of `dopri` with the same contract,
which a run picks once, from the length of the start: ``_step_planar`` for
two components and ``_step_3`` for three.  A start of any other length
raises DomainError before the controller or the field is first called.

The controller is evaluated once per field evaluation, and the engine keeps
the values it needs.  The controls a trajectory records are the values from
the first field call and from each accepted step's last stage, which FSAL
places at the new state; only a state the run ends on at a terminal event
is evaluated again.  A fault raises ``IntegrationError`` with a
``status``.  An OverflowError of the controller, the field (the package's
fields raise one for a non-finite control value) or a watcher, anywhere in
the run, ends it on an ``overflow-fault`` event at the last accepted state,
with the OverflowError's text in the fault's message; any other exception
passes through.  Events requested through watchers are localized on the
dense output by bisection to 1e-10 * max(1, |t|) in time.  Every watcher
fires by one rule: where its ``fn`` rises through zero, from g0 < 0 to
g1 >= 0, so a nan value never fires.  After each accepted step one plain loop sweeps the watchers
in order: it calls each watcher's ``fn`` once at the new state and keeps
that value as the next step's starting value.  Apart from the start state
and the bisection probes, no watcher is evaluated anywhere else.
Integration is deterministic: identical inputs produce bitwise-identical
trajectories.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable

from .core import LevelTerm, ScaledLevel, _Record, eval_level_term
from .dopri import (
    _interpolant,
    _length_error,
    _rms,
    _step_3,
    _step_planar,
)
from .errors import DomainError, ExponentOverflowError, IntegrationError

__all__ = [
    "IntegratorConfig",
    "Event",
    "Watcher",
    "Trajectory",
    "ConvergenceReport",
    "integrate",
    "convergence_metrics",
]

_SAFE = 0.9
_BETA = 0.04
_EXPO1 = 0.2 - _BETA * 0.75
_FAC_MIN = 0.2   # smallest allowed step shrink ratio per step
_FAC_MAX = 10.0  # largest allowed step growth ratio per step

_EVENT_TIME_TOL = 1e-10


class IntegratorConfig(_Record):
    """Tolerances and step bounds of the embedded pair."""

    __slots__ = _fields = ("rel_tol", "abs_tol", "max_step", "min_step",
                           "max_steps")

    def __init__(self, rel_tol: float = 1e-8, abs_tol: float = 1e-10,
                 max_step: float = 10.0, min_step: float = 1e-12,
                 max_steps: int = 1_000_000):
        for name, v in (("rel_tol", rel_tol), ("abs_tol", abs_tol),
                        ("max_step", max_step), ("min_step", min_step)):
            if not (math.isfinite(v) and v > 0.0):
                raise DomainError(f"{name} must be positive and finite, got {v!r}")
        if min_step >= max_step:
            raise DomainError("min_step must be smaller than max_step")
        if max_steps <= 0:
            raise DomainError("max_steps must be positive")
        super().__init__(rel_tol, abs_tol, max_step, min_step, max_steps)


class Event(_Record):
    """A localized occurrence along a trajectory."""

    __slots__ = _fields = ("kind", "time", "state")

    def __init__(self, kind: str, time: float, state: tuple):
        super().__init__(kind, time, state)


# the package's one dataclass, not a _Record: the benchmark's tracer
# (perfbench/inproc.py) rebuilds each watcher with dataclasses.replace to
# count the calls of its fn
@dataclass(frozen=True)
class Watcher:
    """Scalar event function watched for crossings at accepted steps.

    A watcher of any kind fires where ``fn`` rises through zero, from below
    zero to zero or above.  The kind names what the crossing means: a
    ``section-crossing`` of a section function, a ``set-entry`` of an
    inside-positive indicator, or a ``level-convergence`` of
    (threshold - |residual|).  Terminal watchers truncate the trajectory at
    the event.  An unknown kind raises DomainError here.
    """

    kind: str
    fn: Callable
    terminal: bool = False

    def __post_init__(self):
        if self.kind not in ("section-crossing", "set-entry",
                             "level-convergence"):
            raise DomainError(f"unknown watcher kind {self.kind!r}")


class Trajectory:
    """Accepted integration points, per-point control values, and events.

    The points are kept as float columns: ``times``, ``controls`` and, in
    ``columns``, one sequence of floats per state component, each stored as
    an ``array('d')`` (an ``array('d')`` given is kept, not copied), so a
    stored point costs 8 bytes a value and no object of its own.
    ``final_state`` is a read-only view that rebuilds the last point as a
    plain tuple on each call.  A trajectory's attributes cannot be set.
    """

    __slots__ = ("times", "columns", "controls", "events")

    def __init__(self, times, columns, controls, events=()):
        times, controls, *columns = (
            v if type(v) is array and v.typecode == "d" else array("d", v)
            for v in (times, controls, *columns))
        if not all(len(v) == len(times) for v in (controls, *columns)):
            raise DomainError("times, states and controls must align")
        for name, value in (("times", times), ("columns", tuple(columns)),
                            ("controls", controls), ("events", tuple(events))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: a trajectory is read-only")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def final_time(self) -> float:
        return self.times[-1]

    @property
    def final_state(self) -> tuple:
        return tuple([c[-1] for c in self.columns])

    def events_of(self, kind: str) -> tuple:
        return tuple(ev for ev in self.events if ev.kind == kind)


def _initial_step(rhs, u, y0, f0, span, cfg):
    # standard two-probe starting-step heuristic, fully deterministic
    sc = [cfg.abs_tol + cfg.rel_tol * abs(v) for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, sc)])
    d1 = _rms([v / s for v, s in zip(f0, sc)])
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span, cfg.max_step)
    p = tuple([v + h0 * d for v, d in zip(y0, f0)])
    f1 = rhs(p, u(p))
    if len(f1) != len(f0):
        raise _length_error(f1, y0)
    d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, sc)]) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, span, cfg.max_step)


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


def _run(rhs, u, start, t_span, cfg, watchers):
    """One integration run: (times, values, controls, events, status, cause),
    where ``values`` holds the components of every point, point after
    point, and ``cause`` is the OverflowError of an overflow-fault, or
    None."""
    t, t1 = t_span
    if not (math.isfinite(t) and math.isfinite(t1) and t1 > t):
        raise DomainError(f"bad t_span {t_span!r}")
    n = len(start)
    if n != 2 and n != 3:
        raise DomainError(f"the state needs 2 or 3 components, not {n}")
    for v in start:
        if not math.isfinite(v):
            raise DomainError(f"non-finite initial state {tuple(start)!r}")
    step = _step_planar if n == 2 else _step_3
    atol, rtol = cfg.abs_tol, cfg.rel_tol
    max_step, min_step, max_steps = cfg.max_step, cfg.min_step, cfg.max_steps
    inf = math.inf
    y = tuple(start)
    times, controls = array("d", [t]), array("d", [math.nan])
    values, events = array("d", y), []

    status = "ok"
    # an OverflowError of the controller, the field or a watcher, anywhere
    # in the run, ends it at the last accepted state (t, y)
    try:
        controls[0] = u0 = u(y)
        f_now = rhs(y, u0)
        if len(f_now) != len(y):
            raise _length_error(f_now, y)
        h = _initial_step(rhs, u, y, f_now, t1 - t, cfg)
        if not h > min_step:  # min_step binds the first step too, in the span
            h = min(min_step, t1 - t)
        g_now = [w.fn(y) for w in watchers]
        just_rejected = False
        nsteps = 0

        # The clamps below are min()/max() written as comparisons, which
        # keep their results bit for bit: min(a, b) is b only if b < a, and
        # max(a, b) is b only if b > a.
        while t < t1:
            if nsteps >= max_steps:
                status = "step-limit"
                break
            if max_step < h:
                h = max_step
            clamped = h > t1 - t
            if clamped:
                h = t1 - t

            # the last stage is the 5th-order solution at t + h, and the
            # control found there is the one the new point records
            y_new, u_new, ks, err = step(rhs, u, y, f_now, h, atol, rtol)
            nsteps += 1

            if not err <= 1.0:
                if not err < inf:  # inf or nan counts as err = 10
                    err = 10.0
                shrink = _SAFE / err ** _EXPO1
                h *= shrink if shrink > _FAC_MIN else _FAC_MIN
                if h < min_step:
                    status = "step-underflow"
                    break
                just_rejected = True
                continue

            # accepted: each watcher's value at y_new serves this sweep
            # and the next one's start
            if watchers:
                crossed = None
                for i, w in enumerate(watchers):
                    g0 = g_now[i]
                    g_now[i] = g1 = w.fn(y_new)
                    if g0 < 0.0 <= g1:
                        if crossed is None:
                            crossed = []
                        crossed.append(w)
                if crossed:
                    dense = _interpolant(h, y, y_new, ks)
                    # theta of each crossing on the dense output, in time
                    # order; the stable sort keeps the watchers' order on ties
                    fired = sorted(
                        ((_locate(lambda th: w.fn(dense(th)) >= 0.0, h, t), w)
                         for w in crossed), key=lambda f: f[0])
                    stop = next((th for th, w in fired if w.terminal), None)
                    events.extend(Event(w.kind, t + th * h, dense(th)) for th, w
                                  in fired if stop is None or th <= stop)
                    if stop is not None:
                        # a dense-output state, where no stage evaluated u
                        y = dense(stop)
                        times.append(t + stop * h)
                        values.extend(y)
                        try:
                            controls.append(u(y))
                        except OverflowError:
                            controls.append(math.nan)
                        break

            t = t1 if clamped else t + h
            y = y_new
            times.append(t)
            values.extend(y)
            controls.append(u_new)
            f_now = ks[6]

            facold = 1e-4 if 1e-4 > err else err
            fac = err ** _EXPO1 / facold ** _BETA
            scale = _SAFE / fac if fac > 0.0 else _FAC_MAX
            if not scale > _FAC_MIN:
                scale = _FAC_MIN
            elif not scale < _FAC_MAX:
                scale = _FAC_MAX
            if just_rejected:
                if not scale < 1.0:
                    scale = 1.0
                just_rejected = False
            if not clamped:
                h *= scale
                if h < min_step and t < t1:
                    status = "step-underflow"
                    break
    except OverflowError as exc:
        events.append(Event("overflow-fault", t, y))
        # without its traceback, which would keep this frame and every
        # local of the run alive for as long as the fault is
        return (times, values, controls, events, "overflow-fault",
                exc.with_traceback(None))
    return times, values, controls, events, status, None


def integrate(rhs, u, start, t_span, cfg=None, watchers=()):
    """Integrate the autonomous controlled field y' = rhs(y, u(y)).

    The state has two or three components, ``start`` is any sequence of
    floats, and every state the run builds or returns (stage points,
    the final state rebuilt from its float columns, event states) is a
    plain tuple.  ``u(p) -> float`` is the feedback, called once per field
    evaluation, and ``rhs(p, u_value)`` returns the derivative as a
    sequence in the order of the state.  A start of any other length,
    checked before ``u`` or ``rhs`` is first called, or a derivative with
    another number of components than the state, at the start or at any
    later evaluation, raises :class:`DomainError`; any other exception
    the field or the controller raises, an ``IntegrationError`` included,
    passes through unchanged, apart from the faults below.  The recorded
    controls are the values those calls returned: at the start state and,
    at each accepted step, from the last (FSAL) stage, which runs at the
    new state.  Only a state the run ends on at a terminal event is
    evaluated again.  Each fault raises :class:`IntegrationError` with the
    partial trajectory and a ``status``.  An ``OverflowError`` (typed,
    from float arithmetic such as ``x ** 3``, or a field's for a non-finite
    control value) of ``u``, ``rhs`` or a watcher's ``fn``, at the start,
    in a step, in the sweep or in a bisection probe, is an
    ``overflow-fault``: the trajectory ends on that event at the last
    accepted state, and a fault at the start state records the control
    ``u`` returned there, or nan if it raised; the ``IntegrationError``
    is raised from that ``OverflowError``, its ``__cause__``, and its
    message, "overflow at t = ...: " and the cause's text, names what
    overflowed.  Step-size collapse is a ``step-underflow`` and an
    exhausted step budget a ``step-limit``.
    """
    cfg = cfg or IntegratorConfig()
    times, values, controls, events, status, cause = _run(
        rhs, u, start, t_span, cfg, tuple(watchers))
    n = len(start)
    traj = Trajectory(times, [values[i::n] for i in range(n)], controls,
                      events)
    if status == "ok":
        return traj
    at = f"at t = {traj.final_time:.6g}"
    raise IntegrationError({
        "overflow-fault": f"overflow {at}: {cause}",
        "step-underflow": f"step size collapsed below min_step = {cfg.min_step:g} {at}",
        "step-limit": f"max_steps = {cfg.max_steps} exhausted {at}",
    }[status], traj, status) from cause


class ConvergenceReport(_Record):
    """Scaled-level residual along a trajectory and its convergence moment."""

    __slots__ = _fields = ("initial", "terminal", "time_below", "threshold")

    def __init__(self, initial: float, terminal: float,
                 time_below: float | None, threshold: float):
        super().__init__(initial, terminal, time_below, threshold)


def convergence_metrics(traj: Trajectory, eps: float, level: ScaledLevel,
                        center: float = 0.0) -> ConvergenceReport:
    """Residual exp(2y/eps)(H - h) of a planar trajectory, at the points its
    report reads, in the frame whose x is the trajectory's x - ``center``.

    The weight c2 = 2 carries no large exponentials, so the evaluation is
    safe along any finite trajectory; overflowing points (possible after a
    fault) report an infinite residual.  ``time_below`` is the first
    accepted time where |residual| falls to or below 1e-3 times the initial
    residual, the cut reported as ``threshold``; it is None when the run
    never gets there, and when the cut is not finite (an initial residual
    that overflowed or is nan), since no residual can fall below such a cut.

    The residual is evaluated once at each point from the first up to the
    first one at or below a finite cut, and at the last point: at most
    (index of that crossing + 2) evaluations.  No point between the
    crossing and the last one is evaluated, so a hand-built trajectory with
    a non-finite point there no longer raises; `integrate` only returns
    finite states.
    """
    lt = LevelTerm(eps, 2.0, level)
    xs, ys = traj.columns
    last = len(xs) - 1

    def residual(i: int) -> float:
        try:
            return eval_level_term(xs[i] - center, ys[i], lt)
        except ExponentOverflowError:
            return math.inf

    i = 0
    initial = r = residual(0)
    cut = 1e-3 * abs(initial)
    t_below = None
    if math.isfinite(cut):
        while not abs(r) <= cut and i < last:
            i += 1
            r = residual(i)
        if abs(r) <= cut:
            t_below = traj.times[i]
    return ConvergenceReport(initial, r if i == last else residual(last),
                             t_below, cut)
