"""Adaptive explicit integration with event detection and fault capture.

`integrate` is the one entry point.  It integrates an autonomous controlled
field y' = rhs(y, u(y)) over a state of any length, and the states it
returns have the type of the start: a NamedTuple start such as
``PhasePoint`` is rebuilt with its ``_make``, any other sequence gives
plain tuples.

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
being hidden by an implicit solver.

Each step runs in one of two kernels with the same contract.
``_step_planar`` spells every stage sum, the 5th-order update and the error
norm out for a two-component state; ``_step_any`` runs the same sums as
comprehensions over a state of any other length.  A run picks its kernel
once, from the length of the start.  Both add the same terms in the same
order, so a planar state gives the same bits through either.

The controller is evaluated once per field evaluation, and the engine keeps
the values it needs.  The controls a trajectory records are the values from
the first field call and from each accepted step's last stage, which FSAL
places at the new state; only a state the run ends on at a terminal event
is evaluated again.  An OverflowError raised by the controller or the field,
or a non-finite control value, terminates the run with a terminal
``overflow-fault`` event at the last accepted state.  Events requested
through watchers are localized on the dense output by bisection to
1e-10 * max(1, |t|) in time; each watcher is evaluated once per accepted
state plus the bisection probes.  Integration is deterministic: identical
inputs produce bitwise-identical trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .core import ScaledLevel, eval_level_term
from .errors import (
    DomainError,
    ExponentOverflowError,
    IntegrationError,
    StepLimitError,
    StepUnderflowError,
)

__all__ = [
    "IntegratorConfig",
    "Event",
    "Watcher",
    "Trajectory",
    "ConvergenceReport",
    "integrate",
    "convergence_metrics",
]

# Dormand-Prince 5(4) tableau, FSAL form: the 5th-order weights are the last
# stage row, the 7th stage sits at the step end and seeds the next step.  The
# field is autonomous, so the stage nodes c_i are not needed.
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
    at the event.  An unknown kind or direction raises DomainError here.
    """

    kind: str
    fn: Callable
    direction: str = "any"
    terminal: bool = False

    def __post_init__(self):
        if self.kind not in ("section-crossing", "set-entry", "set-exit",
                             "level-convergence"):
            raise DomainError(f"unknown watcher kind {self.kind!r}")
        if self.direction not in ("up", "down", "any"):
            raise DomainError(f"unknown watcher direction {self.direction!r}")


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


def _initial_step(rhs, u, y0, f0, span, cfg, pack):
    # standard two-probe starting-step heuristic, fully deterministic
    sc = [cfg.abs_tol + cfg.rel_tol * abs(v) for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, sc)])
    d1 = _rms([v / s for v, s in zip(f0, sc)])
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span, cfg.max_step)
    p = pack([v + h0 * d for v, d in zip(y0, f0)])
    f1 = rhs(p, u(p))
    if len(f1) != len(f0):
        raise _length_error(f1, y0)
    d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, sc)]) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, span, cfg.max_step)


def _length_error(k, y):
    return DomainError(f"the field returned {len(k)} components "
                       f"for a state of {len(y)}")


# The step kernels: (rhs, u, y, k1, h, atol, rtol, pack) -> (y_new, u_new,
# (k1, ..., k7), err), where err is the RMS of the scaled error estimate and
# may be inf or nan.  Each stage evaluates the controller, then the field, at
# the stage state, and a field result of another length than the state
# raises DomainError before any sum could cut the state down.  The planar
# kernel learns the length from its unpacking, whose try costs nothing
# until it raises; only the unpacking sits inside it, so a ValueError from
# the field or the controller passes through unchanged.

def _step_planar(rhs, u, y, k1, h, atol, rtol, pack):
    y0, y1 = y
    a0, a1 = k1
    p = pack((y0 + h * (0.0 + _A21 * a0),
              y1 + h * (0.0 + _A21 * a1)))
    k2 = rhs(p, u(p))
    try:
        b0, b1 = k2
    except ValueError:
        raise _length_error(k2, y) from None
    p = pack((y0 + h * (0.0 + _A31 * a0 + _A32 * b0),
              y1 + h * (0.0 + _A31 * a1 + _A32 * b1)))
    k3 = rhs(p, u(p))
    try:
        c0, c1 = k3
    except ValueError:
        raise _length_error(k3, y) from None
    p = pack((y0 + h * (0.0 + _A41 * a0 + _A42 * b0 + _A43 * c0),
              y1 + h * (0.0 + _A41 * a1 + _A42 * b1 + _A43 * c1)))
    k4 = rhs(p, u(p))
    try:
        d0, d1 = k4
    except ValueError:
        raise _length_error(k4, y) from None
    p = pack((y0 + h * (0.0 + _A51 * a0 + _A52 * b0 + _A53 * c0 + _A54 * d0),
              y1 + h * (0.0 + _A51 * a1 + _A52 * b1 + _A53 * c1 + _A54 * d1)))
    k5 = rhs(p, u(p))
    try:
        e0, e1 = k5
    except ValueError:
        raise _length_error(k5, y) from None
    p = pack((y0 + h * (0.0 + _A61 * a0 + _A62 * b0 + _A63 * c0 + _A64 * d0
                        + _A65 * e0),
              y1 + h * (0.0 + _A61 * a1 + _A62 * b1 + _A63 * c1 + _A64 * d1
                        + _A65 * e1)))
    k6 = rhs(p, u(p))
    try:
        f0, f1 = k6
    except ValueError:
        raise _length_error(k6, y) from None
    n0 = y0 + h * (0.0 + _A71 * a0 + _A72 * b0 + _A73 * c0 + _A74 * d0
                   + _A75 * e0 + _A76 * f0)
    n1 = y1 + h * (0.0 + _A71 * a1 + _A72 * b1 + _A73 * c1 + _A74 * d1
                   + _A75 * e1 + _A76 * f1)
    y_new = pack((n0, n1))
    u_new = u(y_new)
    k7 = rhs(y_new, u_new)
    try:
        g0, g1 = k7
    except ValueError:
        raise _length_error(k7, y) from None
    q0 = (h * (0.0 + _E1 * a0 + _E2 * b0 + _E3 * c0 + _E4 * d0 + _E5 * e0
               + _E6 * f0 + _E7 * g0)
          / (atol + rtol * max(abs(y0), abs(n0))))
    q1 = (h * (0.0 + _E1 * a1 + _E2 * b1 + _E3 * c1 + _E4 * d1 + _E5 * e1
               + _E6 * f1 + _E7 * g1)
          / (atol + rtol * max(abs(y1), abs(n1))))
    err = math.sqrt((0.0 + q0 * q0 + q1 * q1) / 2)
    return y_new, u_new, (k1, k2, k3, k4, k5, k6, k7), err


def _step_any(rhs, u, y, k1, h, atol, rtol, pack):
    n = len(y)
    p = pack([y0 + h * (0.0 + _A21 * a)
              for y0, a in zip(y, k1)])
    k2 = rhs(p, u(p))
    if len(k2) != n:
        raise _length_error(k2, y)
    p = pack([y0 + h * (0.0 + _A31 * a + _A32 * b)
              for y0, a, b in zip(y, k1, k2)])
    k3 = rhs(p, u(p))
    if len(k3) != n:
        raise _length_error(k3, y)
    p = pack([y0 + h * (0.0 + _A41 * a + _A42 * b + _A43 * c)
              for y0, a, b, c in zip(y, k1, k2, k3)])
    k4 = rhs(p, u(p))
    if len(k4) != n:
        raise _length_error(k4, y)
    p = pack([y0 + h * (0.0 + _A51 * a + _A52 * b + _A53 * c + _A54 * d)
              for y0, a, b, c, d in zip(y, k1, k2, k3, k4)])
    k5 = rhs(p, u(p))
    if len(k5) != n:
        raise _length_error(k5, y)
    p = pack([y0 + h * (0.0 + _A61 * a + _A62 * b + _A63 * c + _A64 * d
                        + _A65 * e)
              for y0, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
    k6 = rhs(p, u(p))
    if len(k6) != n:
        raise _length_error(k6, y)
    y_new = pack([y0 + h * (0.0 + _A71 * a + _A72 * b + _A73 * c + _A74 * d
                            + _A75 * e + _A76 * f)
                  for y0, a, b, c, d, e, f in zip(y, k1, k2, k3, k4, k5, k6)])
    u_new = u(y_new)
    k7 = rhs(y_new, u_new)
    if len(k7) != n:
        raise _length_error(k7, y)
    err = _rms([
        h * (0.0 + _E1 * a + _E2 * b + _E3 * c + _E4 * d + _E5 * e
             + _E6 * f + _E7 * g)
        / (atol + rtol * max(abs(y0), abs(y1)))
        for y0, y1, a, b, c, d, e, f, g
        in zip(y, y_new, k1, k2, k3, k4, k5, k6, k7)
    ])
    return y_new, u_new, (k1, k2, k3, k4, k5, k6, k7), err


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
    """Event direction string if (g_old, g_new) crosses, for a built Watcher's kind."""
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
    return "converged" if up else None  # level-convergence


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


def _located(crossings, dense, t, h):
    """(theta, direction, watcher) for each crossing of an accepted step,
    ordered by theta on the step's dense output."""
    fired = []
    for w, direction in crossings:
        upward = direction in ("up", "enter", "converged")

        def crossed(theta, w=w, upward=upward):
            g = w.fn(dense(theta))
            return g >= 0.0 if upward else g <= 0.0

        fired.append((_locate(crossed, h, t), direction, w))
    fired.sort(key=lambda f: f[0])
    return fired


def _run(rhs, u, start, t_span, cfg, watchers):
    """One integration run: (times, states, controls, events, status)."""
    t, t1 = t_span
    if not (math.isfinite(t) and math.isfinite(t1) and t1 > t):
        raise DomainError(f"bad t_span {t_span!r}")
    if not start:
        raise DomainError("the state needs at least one component")
    for v in start:
        if not math.isfinite(v):
            raise DomainError(f"non-finite initial state {tuple(start)!r}")
    pack = getattr(type(start), "_make", tuple)
    step = _step_planar if len(start) == 2 else _step_any
    atol, rtol = cfg.abs_tol, cfg.rel_tol
    y = pack(start)
    times, states, controls, events = [t], [y], [math.nan], []

    try:
        controls[0] = u(y)
        f_now = rhs(y, controls[0])
        if len(f_now) != len(y):
            raise _length_error(f_now, y)
        h = _initial_step(rhs, u, y, f_now, t1 - t, cfg, pack)
    except (OverflowError, IntegrationError):
        events.append(Event("overflow-fault", t, y, "fault"))
        return times, states, controls, events, "overflow-fault"
    g_now = [w.fn(y) for w in watchers]
    just_rejected = False
    nsteps = 0
    status = "ok"

    while t < t1:
        if nsteps >= cfg.max_steps:
            status = "step-limit"
            break
        h = min(h, cfg.max_step)
        clamped = h > t1 - t
        if clamped:
            h = t1 - t

        try:
            # the last stage is the 5th-order solution at t + h, and the
            # control found there is the one the new point records
            y_new, u_new, ks, err = step(rhs, u, y, f_now, h, atol, rtol, pack)
        except (OverflowError, IntegrationError):
            events.append(Event("overflow-fault", t, y, "fault"))
            status = "overflow-fault"
            break
        nsteps += 1

        if not math.isfinite(err):
            err = 10.0

        if err > 1.0:
            h *= max(_FAC_MIN, _SAFE / err ** _EXPO1)
            if h < cfg.min_step:
                status = "step-underflow"
                break
            just_rejected = True
            continue

        # accepted: the watchers' values at y_new serve this step's sweep and
        # the next one's start
        if watchers:
            g_new = [w.fn(y_new) for w in watchers]
            crossings = [
                (w, direction) for w, g0, g1 in zip(watchers, g_now, g_new)
                if (direction := _crossing(w.kind, w.direction, g0, g1))]
            g_now = g_new
            if crossings:
                dense = _interpolant(h, y, y_new, ks, pack)
                fired = _located(crossings, dense, t, h)
                stop = next((th for th, _, w in fired if w.terminal), None)
                events.extend(Event(w.kind, t + th * h, dense(th), dr)
                              for th, dr, w in fired if stop is None or th <= stop)
                if stop is not None:
                    # a dense-output state: no stage ran there, so evaluate u
                    y = dense(stop)
                    times.append(t + stop * h)
                    states.append(y)
                    try:
                        controls.append(u(y))
                    except (OverflowError, IntegrationError):
                        controls.append(math.nan)
                    break

        t = t1 if clamped else t + h
        y = y_new
        times.append(t)
        states.append(y)
        controls.append(u_new)
        f_now = ks[6]

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
                status = "step-underflow"
                break
    return times, states, controls, events, status


def integrate(rhs, u, start, t_span, cfg=None, watchers=()):
    """Integrate the autonomous controlled field y' = rhs(y, u(y)).

    The state may have any number of components, and every state the run
    returns (trajectory points and event states) has the type of ``start``:
    a NamedTuple such as :class:`PhasePoint` is rebuilt with its ``_make``,
    any other sequence gives plain tuples.  ``u(p) -> float`` is the
    feedback, called once per field evaluation, and ``rhs(p, u_value)``
    returns the derivative as a sequence in the order of the state.  An
    empty start, or a derivative with another number of components than
    the state, at the start or at any later evaluation, raises
    :class:`DomainError`; any other exception the field or the controller
    raises, apart from the faults below, passes through unchanged.  The
    recorded controls are the values those calls returned: at the start
    state and, at each accepted step, from the last (FSAL) stage, which runs
    at the new state.  Only a state the run ends on at a terminal event is
    evaluated again.  An ``OverflowError`` (typed, or from float arithmetic
    such as ``x ** 3``) or a non-finite control value ends the run with a
    terminal ``overflow-fault`` event; a fault at the start state records
    the control ``u`` returned there, or nan if it raised.  Step-size
    collapse raises :class:`StepUnderflowError` and an exhausted step budget
    raises :class:`StepLimitError`, both carrying the partial trajectory.
    """
    cfg = cfg or IntegratorConfig()
    times, states, controls, events, status = _run(
        rhs, u, start, t_span, cfg, tuple(watchers))
    traj = Trajectory(tuple(times), tuple(states), tuple(controls), tuple(events))
    if status == "step-underflow":
        raise StepUnderflowError(
            f"step size collapsed below min_step = {cfg.min_step:g} "
            f"at t = {traj.final_time:.6g}", traj)
    if status == "step-limit":
        raise StepLimitError(
            f"max_steps = {cfg.max_steps} exhausted at t = {traj.final_time:.6g}",
            traj)
    return traj


@dataclass(frozen=True)
class ConvergenceReport:
    """Scaled-level residual along a trajectory and its convergence moment."""

    initial: float
    terminal: float
    time_below: float | None
    threshold: float


def convergence_metrics(traj: Trajectory, eps: float,
                        level: ScaledLevel) -> ConvergenceReport:
    """Residual time series exp(2y/eps)(H - h) over a planar trajectory.

    The weight c2 = 2 carries no large exponentials, so the evaluation is
    safe along any finite trajectory; overflowing points (possible after a
    fault) report an infinite residual.  ``time_below`` is the first
    accepted time where |residual| falls to or below 1e-3 times the initial
    residual, the cut reported as ``threshold``; it is None when the run
    never gets there, and when the cut is not finite (an initial residual
    that overflowed or is nan), since no residual can fall below such a cut.
    """
    res = []
    for p in traj.states:
        try:
            res.append(eval_level_term(p, eps, 2.0, level))
        except ExponentOverflowError:
            res.append(math.inf)
    initial = res[0]
    cut = 1e-3 * abs(initial)
    t_below = None
    if math.isfinite(cut):
        for t, r in zip(traj.times, res):
            if abs(r) <= cut:
                t_below = t
                break
    return ConvergenceReport(initial, res[-1], t_below, cut)
