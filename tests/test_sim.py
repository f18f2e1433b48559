"""Tests for the embedded RK45 integrator, events, and faults."""

import hashlib
import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canardctl import sim
from canardctl.controllers import (
    FoldLaw,
    VdpLaw,
    composite_u,
    default_neighborhoods,
    fast_u,
)
from canardctl.core import (
    ControllerGains,
    LevelTerm,
    PhasePoint,
    ScaledLevel,
    SystemParams,
    eval_level_term,
)
from canardctl.dopri import (
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54,
    _A61, _A62, _A63, _A64, _A65, _A71, _A72, _A73, _A74, _A75, _A76,
    _E1, _E2, _E3, _E4, _E5, _E6, _E7,
    _length_error,
    _rms,
)
from canardctl.errors import (
    DomainError,
    ExponentOverflowError,
    IntegrationError,
)
from canardctl.models import FoldField, fold_rhs, vdp_rhs
from canardctl.sim import (
    _EVENT_TIME_TOL,
    ConvergenceReport,
    Event,
    IntegratorConfig,
    Trajectory,
    Watcher,
    convergence_metrics,
    integrate,
    _locate,
    _step_3,
    _step_planar,
)


def _no_u(p):
    return 0.0


def _points(traj):
    """A trajectory's points as plain tuples, rebuilt from its columns."""
    return tuple(zip(*traj.columns))


# The reference of the two written-out kernels of `dopri`: the same sums, in
# the same order, as comprehensions over a state of any length.
def _step_any(rhs, u, y, k1, h, atol, rtol):
    n = len(y)
    p = tuple([y0 + h * (0.0 + _A21 * a)
               for y0, a in zip(y, k1)])
    k2 = rhs(p, u(p))
    if len(k2) != n:
        raise _length_error(k2, y)
    p = tuple([y0 + h * (0.0 + _A31 * a + _A32 * b)
               for y0, a, b in zip(y, k1, k2)])
    k3 = rhs(p, u(p))
    if len(k3) != n:
        raise _length_error(k3, y)
    p = tuple([y0 + h * (0.0 + _A41 * a + _A42 * b + _A43 * c)
               for y0, a, b, c in zip(y, k1, k2, k3)])
    k4 = rhs(p, u(p))
    if len(k4) != n:
        raise _length_error(k4, y)
    p = tuple([y0 + h * (0.0 + _A51 * a + _A52 * b + _A53 * c + _A54 * d)
               for y0, a, b, c, d in zip(y, k1, k2, k3, k4)])
    k5 = rhs(p, u(p))
    if len(k5) != n:
        raise _length_error(k5, y)
    p = tuple([y0 + h * (0.0 + _A61 * a + _A62 * b + _A63 * c + _A64 * d
                         + _A65 * e)
               for y0, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
    k6 = rhs(p, u(p))
    if len(k6) != n:
        raise _length_error(k6, y)
    y_new = tuple([y0 + h * (0.0 + _A71 * a + _A72 * b + _A73 * c + _A74 * d
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


def test_exponential_decay_accuracy():
    traj = integrate(
        lambda p, u: (-p[0], 0.0),
        _no_u,
        PhasePoint(1.0, 0.0),
        (0.0, 5.0),
        IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12),
    )
    assert traj.final_time == 5.0
    assert traj.final_state[0] == pytest.approx(math.exp(-5.0), rel=1e-8)


def test_harmonic_oscillator_section_events():
    # x'' = -x from (1, 0): x = cos t falls through zero at pi/2 + 2k pi and
    # rises through it at 3 pi/2 + 2k pi; a watcher fires on rises alone, so
    # the falling crossings of x show up as rises of -x
    def run(fn):
        return integrate(
            lambda p, u: (p[1], -p[0]),
            _no_u,
            PhasePoint(1.0, 0.0),
            (0.0, 10.0),
            IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12),
            watchers=[Watcher("section-crossing", fn)],
        ).events_of("section-crossing")

    downs = run(lambda p: -p[0])
    assert len(downs) == 2
    assert downs[0].time == pytest.approx(math.pi / 2, abs=1e-8)
    assert downs[1].time == pytest.approx(math.pi / 2 + 2 * math.pi, abs=1e-8)
    assert downs[0].state[1] == pytest.approx(-1.0, abs=1e-7)
    ups = run(lambda p: p[0])
    assert [ev.time for ev in ups] == pytest.approx([1.5 * math.pi], abs=1e-8)


def test_linear_crossing_time_localization():
    traj = integrate(
        lambda p, u: (1.0, 0.0),
        _no_u,
        PhasePoint(-1.0, 0.0),
        (0.0, 3.0),
        watchers=[Watcher("section-crossing", lambda p: p[0])],
    )
    ev = traj.events_of("section-crossing")[0]
    assert ev.time == pytest.approx(1.0, abs=1e-9)


def test_set_entry_exit_disc():
    # straight line through the unit disc around the origin: the indicator
    # rises through zero on entry at t = 1 and falls on exit at t = 3, which
    # records nothing; the exit is the negated indicator's entry
    ind = lambda p: 1.0 - (p[0] * p[0] + p[1] * p[1])

    def entries(fn):
        return integrate(
            lambda p, u: (1.0, 0.0),
            _no_u,
            PhasePoint(-2.0, 0.0),
            (0.0, 4.0),
            watchers=[Watcher("set-entry", fn)],
        ).events_of("set-entry")

    entry, = entries(ind)
    exit_, = entries(lambda p: -ind(p))
    assert entry.time == pytest.approx(1.0, abs=1e-8)
    assert exit_.time == pytest.approx(3.0, abs=1e-8)


def test_terminal_level_convergence_truncates():
    # |x| decays like e^-t from 1; threshold 1e-4 is hit at t = ln(1e4)
    thr = 1e-4
    traj = integrate(
        lambda p, u: (-p[0], 0.0),
        _no_u,
        PhasePoint(1.0, 0.0),
        (0.0, 50.0),
        watchers=[Watcher("level-convergence", lambda p: thr - abs(p[0]), terminal=True)],
    )
    assert traj.final_time == pytest.approx(math.log(1e4), rel=1e-6)
    assert traj.events[-1].kind == "level-convergence"
    assert traj.final_time < 50.0
    assert len(traj.times) == len(_points(traj)) == len(traj.controls)


def _overflowed(*args, **kwargs):
    """The partial trajectory an integration that overflows raises."""
    with pytest.raises(IntegrationError) as exc:
        integrate(*args, **kwargs)
    assert exc.value.status == "overflow-fault"
    traj = exc.value.trajectory
    assert str(exc.value) == (
        f"overflow at t = {traj.final_time:.6g}: {exc.value.__cause__}")
    return traj


def test_controller_overflow_becomes_fault_event():
    def u(p):
        if p[0] > 2.0:
            raise ExponentOverflowError("c2*y/eps - E", 900.0)
        return 0.0

    traj = _overflowed(
        lambda p, uval: (1.0, 0.0), u, PhasePoint(0.0, 0.0), (0.0, 10.0)
    )
    assert traj.events[-1].kind == "overflow-fault"
    assert traj.final_time < 10.0
    assert all(math.isfinite(p[0]) for p in _points(traj))


@pytest.mark.parametrize("in_field", [False, True], ids=["controller", "field"])
def test_float_overflow_becomes_fault_event(in_field):
    # x ** 3 raises OverflowError past x ~ 5.6e102, as vdp_rhs would
    def u(p):
        return 0.0 if in_field else p[0] ** 3

    def rhs(p, uval):
        return (p[0] * p[0], p[0] ** 3 if in_field else 0.0)

    traj = _overflowed(rhs, u, PhasePoint(1e120, 0.0), (0.0, 10.0))
    assert traj.events[-1].kind == "overflow-fault"
    assert len(traj) == 1
    assert math.isnan(traj.controls[0]) != in_field


def _accelerating(p, u):
    return (1.0 + p[0], 0.0)


def _ends_on_its_fault(traj):
    """The trajectory's overflow-fault event sits at its last accepted point."""
    [event] = traj.events
    assert event.kind == "overflow-fault"
    assert (event.time, event.state) == (traj.final_time, traj.final_state)


def test_watcher_overflow_at_the_start_is_a_fault():
    def g(p):
        raise OverflowError("math range error")

    traj = _overflowed(_accelerating, lambda p: 0.5, (0.0, 0.0), (0.0, 5.0),
                       watchers=[Watcher("set-entry", g)])
    _ends_on_its_fault(traj)
    assert len(traj) == 1 and traj.controls[0] == 0.5


def test_watcher_overflow_in_the_sweep_is_a_fault():
    seen = []

    def g(p):
        if p[0] > 2.0:
            seen.append(p)
            raise OverflowError("math range error")
        return -1.0

    traj = _overflowed(_accelerating, _no_u, (0.0, 0.0), (0.0, 5.0),
                       watchers=[Watcher("set-entry", g)])
    _ends_on_its_fault(traj)
    # the step whose new state the sweep could not judge is not kept
    assert len(traj) > 1 and traj.final_state[0] <= 2.0 < seen[0][0]


def test_watcher_overflow_in_a_bisection_probe_is_a_fault():
    swept = []

    def g(p):
        # the first call after the sweep saw the crossing is a probe
        if swept:
            raise OverflowError("math range error")
        if p[0] >= 1.0:
            swept.append(p)
        return p[0] - 1.0

    traj = _overflowed(_accelerating, _no_u, (0.0, 0.0), (0.0, 5.0),
                       watchers=[Watcher("section-crossing", g, terminal=True)])
    _ends_on_its_fault(traj)
    assert len(traj) > 1 and traj.final_state[0] < 1.0 <= swept[0][0]


def test_finite_time_blowup_raises_stiffness_fault():
    with pytest.raises(IntegrationError) as exc:
        integrate(
            lambda p, u: (1.0 + p[0] * p[0], 0.0),
            _no_u,
            PhasePoint(0.0, 0.0),
            (0.0, 3.0),
        )
    assert exc.value.status == "step-underflow"
    partial = exc.value.trajectory
    assert partial is not None and len(partial) > 1
    assert partial.final_time < 3.0


def test_step_limit_raises():
    with pytest.raises(IntegrationError) as exc:
        integrate(
            lambda p, u: (p[1], -p[0]),
            _no_u,
            PhasePoint(1.0, 0.0),
            (0.0, 1000.0),
            IntegratorConfig(max_steps=50),
        )
    assert exc.value.status == "step-limit"


def test_determinism_bitwise():
    def run():
        return integrate(
            lambda p, u: (p[1], -p[0] + u),
            lambda p: -0.1 * p[1],
            PhasePoint(1.0, 0.5),
            (0.0, 20.0),
        )

    a, b = run(), run()
    assert a.times == b.times
    assert _points(a) == _points(b)
    assert a.controls == b.controls


def test_controls_recorded_at_accepted_points():
    traj = integrate(
        lambda p, u: (-p[0] + u, 0.0),
        lambda p: 0.5 * p[0],
        PhasePoint(1.0, 0.0),
        (0.0, 1.0),
    )
    for p, c in zip(_points(traj), traj.controls):
        assert c == 0.5 * p[0]


def _three_components(s, u):
    # r' = 0.5 r e x, e' = -e^2 x, x' = 0 with x = 1: e(t) = e0/(1 + e0 t)
    r, e, x = s
    return (0.5 * r * e * x, -e * e * x, 0.0)


def test_fast_controlled_fold_matches_mpmath_taylor_solver():
    # an independent solver: mpmath's Taylor-series odefun on the same
    # closed loop, fold-fast's defaults with eps = 0.1, from fold-fast's start
    mpmath = pytest.importorskip("mpmath")
    params = SystemParams(0.1, -0.1)
    gains = ControllerGains(1.0, 2.0)
    level = ScaledLevel(0.25, 400.0)
    field = FoldField(params)
    law = FoldLaw(params, gains, level)
    cfg = IntegratorConfig()
    t_end = 2.0
    traj = integrate(lambda p, u: fold_rhs(field, p, u),
                     lambda p: fast_u(law, p),
                     (0.2, 0.3), (0.0, t_end), cfg)

    with mpmath.workdps(20):
        eps, alpha = mpmath.mpf(params.eps), mpmath.mpf(params.alpha)
        c1, c2 = mpmath.mpf(gains.c1), mpmath.mpf(gains.c2)
        h0, big_e = mpmath.mpf(level.h0), mpmath.mpf(level.E)

        def loop(t, s):
            x, y = s
            xh = x - alpha
            term = (mpmath.exp((c2 - 2) * y / eps) * (y - xh * xh + eps / 2)
                    / (2 * eps) - h0 * mpmath.exp(c2 * y / eps - big_e))
            u = -2 * alpha * xh - alpha ** 2 + c1 * xh * mpmath.sqrt(eps) * term
            return [-y + x * x + u, eps * (x - alpha)]

        exact = mpmath.odefun(loop, 0, [mpmath.mpf(0.2), mpmath.mpf(0.3)])(t_end)
    assert traj.final_time == t_end
    for got, want in zip(traj.final_state, exact):
        assert abs(got - float(want)) <= 10.0 * cfg.rel_tol * max(1.0, abs(float(want)))


def test_integrate_three_components():
    traj = integrate(_three_components, _no_u, (1.0, 1.0, 1.0), (0.0, 4.0))
    assert traj.final_time == 4.0
    r, e, x = traj.final_state
    assert e == pytest.approx(1.0 / 5.0, rel=1e-7)
    # r grows like (1 + e0 t)^(1/2)
    assert r == pytest.approx(math.sqrt(5.0), rel=1e-7)


def _counted_decay(calls):
    """Uncoupled decay, whose components keep equal bits, and a zero control,
    both noting each call in ``calls``."""
    def rhs(p, u):
        calls.append("rhs")
        return tuple(-v for v in p)

    def u(p):
        calls.append("u")
        return 0.0
    return rhs, u


def test_run_picks_its_kernel_from_the_length_of_the_start(monkeypatch):
    ran, calls = [], []
    for name in ("_step_planar", "_step_3"):
        def step(*args, kernel=getattr(sim, name), name=name):
            ran.append(name)
            return kernel(*args)
        monkeypatch.setattr(sim, name, step)
    rhs, u = _counted_decay(calls)
    for n, kernel in ((2, "_step_planar"), (3, "_step_3")):
        ran.clear()
        traj = integrate(rhs, u, (1.0,) * n, (0.0, 2.0))
        assert set(ran) == {kernel}
        x = traj.final_state[0]
        assert traj.final_state == (x,) * n
        assert x == pytest.approx(math.exp(-2.0), rel=1e-7)
    # no kernel takes another length: the run is refused before any call
    ran.clear()
    calls.clear()
    for n in (1, 4):
        with pytest.raises(DomainError,
                           match=f"needs 2 or 3 components, not {n}$"):
            integrate(rhs, u, (1.0,) * n, (0.0, 2.0))
    assert ran == calls == []


def test_empty_start_is_rejected():
    calls = []
    rhs, u = _counted_decay(calls)
    with pytest.raises(DomainError, match="needs 2 or 3 components, not 0$"):
        integrate(rhs, u, (), (0.0, 1.0))
    assert calls == []


@pytest.mark.parametrize("start, slope", [
    ((0.0, 1.0), (1.0,)),
    ((0.0, 1.0), (1.0, 0.0, 0.0)),
    ((1.0, 1.0, 1.0), (1.0, 0.0)),
    (PhasePoint(0.0, 1.0), (1.0,)),
], ids=["2-to-1", "2-to-3", "3-to-2", "PhasePoint-to-1"])
def test_field_of_another_length_is_rejected(start, slope):
    # zip would cut the state down to the shorter of the two
    with pytest.raises(DomainError, match="components"):
        integrate(lambda p, u: slope, _no_u, start, (0.0, 1.0))


# the reference kernel is held to the same rejection as the two it checks
@pytest.mark.parametrize("length, stage, step, n", [
    pytest.param(length, stage, step, n, id=f"{length}-{stage}-{step.__name__}")
    for step, n in ((_step_planar, 2), (_step_any, 2), (_step_3, 3))
    for stage in range(2, 8)
    for length in (n - 1, n + 1)])
def test_step_kernels_reject_a_stage_of_another_length(step, stage, length, n):
    points = []
    slope = (1.0,) + (0.0,) * (n - 1)

    def rhs(p, u):
        points.append(p)
        return (1.0,) * length if len(points) == stage - 1 else slope

    with pytest.raises(DomainError,
                       match=f"returned {length} components for a state of {n}"):
        step(rhs, _no_u, (0.0,) * (n - 1) + (1.0,), slope, 0.1, 1e-10, 1e-8)
    # no stage ran on a state cut down or padded by the bad result
    assert [len(p) for p in points] == [n] * (stage - 1)


@pytest.mark.parametrize("start, later",
                         [((1.0, 1.0, 1.0), 2), ((0.0, 1.0), 1)],
                         ids=["3-to-2", "2-to-1"])
def test_field_whose_length_changes_mid_run_is_rejected(start, later):
    # the fifth call is a stage of the first step, past the start checks
    calls = []

    def rhs(p, u):
        calls.append(p)
        n = len(start) if len(calls) < 5 else later
        return (1.0,) + (0.0,) * (n - 1)

    msg = f"returned {later} components for a state of {len(start)}"
    with pytest.raises(DomainError, match=msg):
        integrate(rhs, _no_u, start, (0.0, 1.0))


@pytest.mark.parametrize("start", [(0.0, 1.0), (0.0, 1.0, 1.0)],
                         ids=["planar", "any"])
@pytest.mark.parametrize("source", ["field", "controller"])
def test_value_error_of_the_field_or_controller_passes_through(start, source):
    # sqrt(0.5 - x) fails once a stage steps past x = 0.5 under x' = 1
    def rhs(p, u):
        if source == "field":
            math.sqrt(0.5 - p[0])
        return (1.0,) + (0.0,) * (len(p) - 1)

    def u(p):
        return math.sqrt(0.5 - p[0]) if source == "controller" else 0.0

    with pytest.raises(ValueError, match="^math domain error$") as exc:
        integrate(rhs, u, start, (0.0, 1.0))
    assert type(exc.value) is ValueError


_STARTS = {"PhasePoint": PhasePoint(-1.0, 0.5), "tuple": (-1.0, 0.5)}


@pytest.mark.parametrize("kind", sorted(_STARTS))
def test_states_are_plain_tuples_whatever_the_start(kind):
    # x' = 1 crosses x = 0 at t = 1 and stops at the terminal x = 1 at t = 2
    seen = set()

    def run(start):
        def rhs(p, u):
            seen.add(type(p))
            return (1.0, -p[1])

        traj = integrate(
            rhs, _no_u, start, (0.0, 5.0),
            watchers=[Watcher("section-crossing", lambda p: p[0]),
                      Watcher("section-crossing", lambda p: p[0] - 1.0,
                              terminal=True)])
        assert [ev.kind for ev in traj.events] == ["section-crossing"] * 2
        assert traj.final_time == pytest.approx(2.0, abs=1e-8)
        return (_points(traj), tuple(ev.state for ev in traj.events),
                traj.final_state)

    states, event_states, final = run(_STARTS[kind])
    for p in states + event_states + (final,):
        assert type(p) is tuple and {type(v) for v in p} == {float}
    assert seen == {tuple}
    # the other kind of start gives the same floats, bit for bit
    other, = (v for k, v in _STARTS.items() if k != kind)
    assert _bits((states, event_states, final)) == _bits(run(other))


def test_watchers_evaluated_once_per_accepted_state():
    # neither watcher ever crosses, so no bisection adds calls: each one is
    # evaluated at the start and at every accepted step end, once
    calls = {"a": 0, "b": 0}

    def counted(name, g):
        def fn(p):
            calls[name] += 1
            return g(p)

        return fn

    traj = integrate(
        lambda p, u: (p[1], -p[0]), _no_u, PhasePoint(1.0, 0.0),
        (0.0, 20.0),
        watchers=[Watcher("section-crossing", counted("a", lambda p: p[0] + 2.0)),
                  Watcher("set-entry", counted("b", lambda p: p[1] - 4.0))])
    assert not traj.events
    assert calls == {"a": len(traj.times), "b": len(traj.times)}


def test_config_validation():
    with pytest.raises(Exception):
        IntegratorConfig(rel_tol=-1.0)
    with pytest.raises(Exception):
        IntegratorConfig(min_step=1.0, max_step=0.5)
    with pytest.raises(Exception):
        IntegratorConfig(max_steps=0)


def test_convergence_metrics_relative_threshold():
    # at x = 0 the h = 0 residual is (y + eps/2) / (2 eps), zero on y = -eps/2
    eps = 0.01
    level = ScaledLevel(0.0)
    ys = [0.4, 0.2, 0.1, 0.01, -0.00498, -0.0051]
    times = tuple(float(i) for i in range(len(ys)))
    traj = Trajectory(times, ([0.0] * len(ys), ys), tuple(0.0 for _ in ys))
    rep = convergence_metrics(traj, eps, level)
    assert isinstance(rep, ConvergenceReport)
    assert rep.initial == pytest.approx((0.4 + 0.005) / 0.02)
    # cut is 1e-3 * 20.25; first satisfied at t = 4 where the residual is 1e-3
    assert rep.time_below == 4.0
    assert rep.terminal == pytest.approx((-0.0051 + 0.005) / 0.02)


def test_convergence_metrics_no_time_below_an_infinite_cut():
    # fold-fast's level h = e^-400/4 at eps = 1e-4: at y = 0.3 the level
    # term's exponent 2y/eps - 400 overflows, so the initial residual is inf
    # and so is the cut; inf <= inf must not count as converged at t = 0
    ys = [0.3, 0.3, 0.04]
    traj = Trajectory((0.0, 1.0, 2.0), ((0.2,) * 3, ys), (0.0, 0.0, 0.0))
    rep = convergence_metrics(traj, 1e-4, ScaledLevel(0.25, 400.0))
    assert rep.initial == math.inf
    assert rep.threshold == math.inf
    assert rep.terminal < 0.0
    assert rep.time_below is None


def _full_scan(traj, eps, level):
    """The report from the residual at every point, and the index of the
    first point at or below a finite cut (None if there is none)."""
    lt = LevelTerm(eps, 2.0, level)
    res = []
    for x, y in zip(*traj.columns):
        try:
            res.append(eval_level_term(x, y, lt))
        except ExponentOverflowError:
            res.append(math.inf)
    cut = 1e-3 * abs(res[0])
    first = None
    if math.isfinite(cut):
        first = next((i for i, r in enumerate(res) if abs(r) <= cut), None)
    t_below = None if first is None else traj.times[first]
    return (res[0], res[-1], t_below, cut), first


# (x, y) points at eps = 0.01 and h = 0, where the residual is
# (y - x^2 + eps/2) / (2 eps): x = 1e200 overflows it to an infinite one;
# no two points are equal
_SCANS = {
    "overflow points": [(0.0, 0.4), (1e200, 0.0), (0.0, 0.1),
                        (0.0, -0.00499), (0.0, 0.3), (1e201, 0.0)],
    "zero initial residual": [(0.0, -0.005), (0.0, 0.1), (0.0, 0.2)],
    "infinite cut": [(1e200, 0.0), (0.0, 0.1), (0.0, -0.005)],
    "crossing at the last point": [(0.0, 0.4), (0.0, 0.2), (0.0, -0.005)],
    "no crossing": [(0.0, 0.4), (0.0, 0.3), (0.0, 0.2)],
    "one point": [(0.0, 0.4)],
}


@pytest.mark.parametrize("case", sorted(_SCANS))
def test_convergence_metrics_reads_only_the_points_its_report_needs(
        case, monkeypatch):
    xs, ys = zip(*_SCANS[case])
    times = [float(i) for i in range(len(xs))]
    traj = Trajectory(times, (xs, ys), [0.0] * len(xs))
    level = ScaledLevel(0.0)
    want, first = _full_scan(traj, 0.01, level)
    calls = []

    def counted(x, y, lt):
        calls.append((x, y))
        return eval_level_term(x, y, lt)

    monkeypatch.setattr(sim, "eval_level_term", counted)
    rep = convergence_metrics(traj, 0.01, level)
    assert repr((rep.initial, rep.terminal, rep.time_below,
                 rep.threshold)) == repr(want)
    assert len(calls) <= (len(xs) if first is None else first + 2)
    assert len(set(calls)) == len(calls)  # each point once


@pytest.mark.parametrize("center", [0.05, -0.3, 1e200])
@pytest.mark.parametrize("case", sorted(_SCANS))
def test_convergence_metrics_in_a_shifted_frame_equals_the_framed_copy(
        case, center):
    # fold-fast frames x about alpha: the report at ``center`` is the report
    # on a copy of the trajectory whose x is x - center, to the bit
    xs, ys = zip(*_SCANS[case])
    times = [float(i) for i in range(len(xs))]
    traj = Trajectory(times, (xs, ys), [0.0] * len(xs))
    framed = Trajectory(times, ([x - center for x in xs], ys), [0.0] * len(xs))
    for level in (ScaledLevel(0.0), ScaledLevel(0.1, 2.0)):
        got = convergence_metrics(traj, 0.01, level, center)
        want = convergence_metrics(framed, 0.01, level)
        assert repr(got) == repr(want)


# -- bit-level pins ----------------------------------------------------------
# SHA-256 of repr((times, states, controls, events)) for runs that exercise
# every engine path: a watcher run, a terminal-event stop, a mid-run fault
# and faults at the start state.  A digest that moves means the arithmetic of
# the step changed, which no refactoring of the engine may do.  The runs from
# a PhasePoint start were pinned when states took the type of the start, so
# their digests rebuild each state, event states too, as a PhasePoint.  The
# events were pinned when each one also named a direction, one per kind, so
# the digests render each event with that direction after its fields.

_DIRECTIONS = {"section-crossing": "up", "set-entry": "enter",
               "level-convergence": "converged", "overflow-fault": "fault"}


class _Shown(str):
    """Text that repr shows as it is."""

    def __repr__(self):
        return str(self)


def _pinned_event(ev, point=tuple):
    shown = repr(ev._replace(state=point(ev.state)))[:-1]
    return _Shown(f"{shown}, direction={_DIRECTIONS[ev.kind]!r})")


def _digest(times, states, controls, events):
    text = repr((tuple(times), tuple(states), tuple(controls), tuple(events)))
    return hashlib.sha256(text.encode()).hexdigest()


def _traj_digest(traj, point=tuple):
    return _digest(traj.times, map(point, _points(traj)), traj.controls,
                   [_pinned_event(ev, point) for ev in traj.events])


def _phase_digest(traj):
    return _traj_digest(traj, PhasePoint._make)


def _same(name, fn):
    return fn


def _fold_fast_run(wrap=_same, watched=True):
    params = SystemParams(0.01, -0.1)
    gains = ControllerGains(1.0, 2.0)
    level = ScaledLevel(0.25, 400.0)
    field = FoldField(params, channel="fast")
    law = FoldLaw(params, gains, level)
    section = Watcher("section-crossing", lambda p: p[0] + 0.1)
    return integrate(
        wrap("rhs", lambda p, u: fold_rhs(field, p, u)),
        wrap("u", lambda p: fast_u(law, p)),
        PhasePoint(-0.35, 0.06), (0.0, 120.0),
        watchers=[section] if watched else [])


def _vdp_mmo_chunk(wrap=_same):
    eps = 0.01
    gains = ControllerGains(c1=1.0, c2=2.0, k1=1.0, x_star=0.01)
    law = VdpLaw(eps, gains, default_neighborhoods(eps)._replace(y_h=0.75))
    return integrate(
        wrap("rhs", lambda p, u: vdp_rhs(eps, p, u)),
        wrap("u", lambda p: composite_u(law, p)),
        PhasePoint(-1.0, 0.6), (0.0, 2000.0),
        watchers=[Watcher("set-entry",
                          lambda p: 0.0625 - p[0] * p[0] - p[1] * p[1],
                          terminal=True)])


def _overflow_mid_run():
    def u(p):
        if p[0] > 2.0:
            raise ExponentOverflowError("c2*y/eps - E", 900.0)
        return -0.3 * p[1]

    return _overflowed(lambda p, uval: (1.0 + 0.1 * p[1], -p[0] + uval),
                       u, PhasePoint(0.0, 0.5), (0.0, 10.0))


def _raising_u(p):
    raise ExponentOverflowError("c2*y/eps - E", 900.0)


def _fault_at_start(u):
    field = FoldField(SystemParams(0.01, -0.1))
    return _overflowed(lambda p, uval: fold_rhs(field, p, uval),
                       u, PhasePoint(0.2, 0.3), (0.0, 1.0))


def _vector_run():
    traj = integrate(_three_components, _no_u, (1.0, 1.0, 1.0), (0.0, 4.0))
    return _digest(traj.times, _points(traj), (),
                   [_pinned_event(ev) for ev in traj.events])


def _inf_past_one(calls=None):
    # x' = 1 - x creeps up to x = 1 while the steps grow to DOPRI5's stability
    # bound, so stage probes overshoot x = 1, where the field turns infinite:
    # every such attempt has a non-finite slope, err = 10, and is rejected
    def rhs(p, u):
        if calls is not None:
            calls["rhs"] += 1
        if p[0] > 1.0:
            if calls is not None:
                calls["inf"] += 1
            return (math.inf, -p[1])
        return (1.0 - p[0], -p[1])

    return integrate(rhs, _no_u, (0.0, 1.0), (0.0, 40.0))


def _many_watchers_run(terminal=True):
    # x climbs through 0.19, 0.2, 0.22, 0.25 and 0.27 inside one accepted
    # step: the crossing at 0.19, the rise onto an exact -0.0 at 0.2 and
    # the set entry at 0.22 fire there, the terminal entry at 0.25 ends the
    # run and drops the later section crossing; the nan watcher never
    # fires, and the watcher of 0.1 - x ignores its fall
    watchers = [
        Watcher("section-crossing", lambda p: p[0] - 0.27),
        Watcher("level-convergence", lambda p: math.nan),
        Watcher("set-entry", lambda p: p[0] - 0.25, terminal=terminal),
        Watcher("set-entry", lambda p: p[0] - 0.22),
        Watcher("section-crossing", lambda p: 0.1 - p[0]),
        Watcher("set-entry", lambda p: -max(0.2 - p[0], 0.0)),
        Watcher("section-crossing", lambda p: p[0] - 0.19),
    ]
    return integrate(lambda p, u: (1.0 + 0.2 * p[1], -p[0] + u),
                     lambda p: -0.1 * p[0], (-1.0, 0.0), (0.0, 6.0),
                     IntegratorConfig(max_step=0.5), watchers=watchers)


def _huge_slope_past_half():
    # x' = y carries x = sin t up to 0.5, where the slope jumps to 1e300:
    # an attempt whose last stage lands past it has an error estimate that
    # overflows to inf, which counts as err = 10, so the steps shrink toward
    # x = 0.5 until they fall below min_step
    def rhs(p, u):
        return (1e300 if p[0] > 0.5 else p[1], -p[0])

    with pytest.raises(IntegrationError) as exc:
        integrate(rhs, _no_u, (0.0, 1.0), (0.0, 3.0))
    assert exc.value.status == "step-underflow"
    return exc.value.trajectory


def _ratio_clamped_run():
    # at these tolerances some accepted step's growth ratio comes out
    # between 10 and 11 and is clamped to 10
    return integrate(lambda p, u: (p[1], -p[0]), _no_u, (1.0, 0.0), (0.0, 10.0),
                     IntegratorConfig(rel_tol=1.3e-5, abs_tol=1e-7))


GOLDEN = {
    "fold-fast-watcher": (
        lambda: _phase_digest(_fold_fast_run()),
        "7b11eb2d534be1868f6d640ca931024d99b79362dbc9331e88438dbeb8401f16"),
    "vdp-mmo-disc-entry": (
        lambda: _phase_digest(_vdp_mmo_chunk()),
        "507fbcb47232cde33bb019d90db36d86bd4faf39098e0cfd58d4caff875bfb76"),
    "overflow-mid-run": (
        lambda: _phase_digest(_overflow_mid_run()),
        "e05ffd133af917f2d07028df3a59cb8c0f17f4304c5ce887eeb3aca19e344751"),
    "start-u-raises": (
        lambda: _phase_digest(_fault_at_start(_raising_u)),
        "2bd5a166ff60ff16a108516e0c30b80a498939853d32735d9d011e9a2fdd1de3"),
    "start-u-nan": (
        lambda: _phase_digest(_fault_at_start(lambda p: math.nan)),
        "2bd5a166ff60ff16a108516e0c30b80a498939853d32735d9d011e9a2fdd1de3"),
    "vector-three-components": (
        _vector_run,
        "810df24dbc8d6929516e38fb3af4d605bf4d5ee7afb8b87f0a6bf5e7efd39ddb"),
    "non-finite-stage-rejected": (
        lambda: _traj_digest(_inf_past_one()),
        "c8c3b5afc888eb5d29a6a4c0bc2c9ec289149bf07f0a36ef921b3ba48d2aebef"),
    "many-watchers-one-step": (
        lambda: _traj_digest(_many_watchers_run()),
        "2d3ed64b5688d890341b32ce4a19010c1912c9514c2e9e2b1d992d89d24fc832"),
    "error-estimate-overflows": (
        lambda: _traj_digest(_huge_slope_past_half()),
        "08fe998ddf709c6720d45d13ccaada32b03cef377767feee8bc3fc2614eeb1f2"),
    "step-ratio-clamped": (
        lambda: _traj_digest(_ratio_clamped_run()),
        "5c25e412323fc1d7d999b41011cf9b73c28d53fbbe44ca04fdd9ad638241c65c"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trajectory_bits_pinned(name):
    compute, expected = GOLDEN[name]
    assert compute() == expected


def test_pinned_runs_take_the_paths_they_pin():
    assert _fold_fast_run().events_of("section-crossing")
    assert _vdp_mmo_chunk().events[-1].kind == "set-entry"
    mid = _overflow_mid_run()
    assert mid.events[-1].kind == "overflow-fault" and len(mid) > 2
    for u in (_raising_u, lambda p: math.nan):
        start = _fault_at_start(u)
        assert [ev.kind for ev in start.events] == ["overflow-fault"]
        assert math.isnan(start.controls[0])
    # one field call at the start and one in the initial-step probe, then six
    # per attempted step: more than that for the accepted steps means some
    # were rejected, and any attempt that met an infinite slope was
    calls = {"rhs": 0, "inf": 0}
    accepted = len(_inf_past_one(calls)) - 1
    assert calls["inf"] > 0
    assert calls["rhs"] > 6 * accepted + 2
    # four events in one step, in time order; the run ends at the last
    many = _many_watchers_run()
    assert [ev.kind for ev in many.events] == [
        "section-crossing", "set-entry", "set-entry", "set-entry"]
    assert [ev.state[0] for ev in many.events] == pytest.approx(
        [0.19, 0.2, 0.22, 0.25], abs=1e-9)
    step_start = many.times[-2]
    assert all(step_start < ev.time for ev in many.events)
    assert many.final_time == many.events[-1].time
    # without the stop the same step goes on to the crossing at x = 0.27
    free = _many_watchers_run(terminal=False)
    step_end = free.times[free.times.index(step_start) + 1]
    assert [ev.state[0] for ev in free.events
            if step_start < ev.time <= step_end] == pytest.approx(
        [0.19, 0.2, 0.22, 0.25, 0.27], abs=1e-9)


@pytest.mark.parametrize("where", ["start", "step", "event"])
def test_integration_error_of_the_field_passes_through(where):
    # a field may run a nested integration whose fault is no overflow: it
    # leaves integrate as it was raised, from the start state's field call,
    # from a stage's, or from the control at the terminal event's state,
    # the only point the run evaluates within 1e-3 past x = 1
    raised = IntegrationError("nested integration failed")
    calls = []

    def rhs(p, uval):
        calls.append(p)
        if len(calls) == {"start": 1, "step": 5}.get(where):
            raise raised
        return (1.0, 0.0)

    def u(p):
        if where == "event" and 1.0 <= p[0] < 1.001:
            raise raised
        return 0.0

    stop = Watcher("section-crossing", lambda p: p[0] - 1.0, terminal=True)
    with pytest.raises(IntegrationError) as exc:
        integrate(rhs, u, (0.0, 0.0), (0.0, 5.0), watchers=[stop])
    assert exc.value is raised and exc.value.trajectory is None


@pytest.mark.parametrize("run, terminal_states", [
    (lambda wrap: _fold_fast_run(wrap, watched=False), 0),
    (_fold_fast_run, 0),
    (_vdp_mmo_chunk, 1),
], ids=["plain", "section-watcher", "terminal-watcher"])
def test_one_controller_call_per_field_call(run, terminal_states):
    # recorded controls come from the stages already run; only a state
    # taken from the dense output at a terminal event needs its own call
    calls = {"rhs": 0, "u": 0}

    def wrap(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    traj = run(wrap)
    assert calls["rhs"] > 0
    assert calls["u"] == calls["rhs"] + terminal_states
    assert len(traj.controls) == len(_points(traj))


# -- event location properties -----------------------------------------------

_PROPERTY = settings(derandomize=True, database=None, deadline=None,
                     max_examples=300)


def test_watcher_rejects_unknown_kind_and_direction():
    # an unknown kind fails when the watcher is built, not at the run's
    # first step; every kind fires on rises alone, so none takes a direction
    for kind in ("tangency", "set-exit"):
        with pytest.raises(DomainError, match=f"unknown watcher kind '{kind}'"):
            Watcher(kind, lambda p: p[0])
    with pytest.raises(TypeError):
        Watcher("section-crossing", lambda p: p[0], direction="up")


@_PROPERTY
@given(theta_star=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
       h=st.floats(min_value=1e-12, max_value=10.0),
       t_old=st.floats(min_value=-1e6, max_value=1e6))
def test_locate_returns_first_point_past_a_monotone_crossing(theta_star, h, t_old):
    def crossed(theta):
        return theta >= theta_star

    tol = _EVENT_TIME_TOL * max(1.0, abs(t_old) + h)
    theta = _locate(crossed, h, t_old)
    assert 0.0 < theta <= 1.0
    assert crossed(theta)
    assert not crossed(theta - tol / h)


# -- step kernel agreement ---------------------------------------------------
# The written-out kernels and ``_step_any`` must agree to the bit on every
# input of their length, with non-finite slopes and signed zeros included.

def _bits(value):
    """A value's exact bits: floats by their IEEE-754 encoding, sequences
    by their type and items, so nan payloads, infinities and -0.0 count."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    return type(value).__name__, tuple(_bits(v) for v in value)


def _finite_or_one(v):
    return v if math.isfinite(v) else 1.0


def _stage_field(kind, c, scale, bad_call, bad_component, bad_value, log):
    """A two-component field, finite everywhere, except that its call number
    ``bad_call`` (0 is the k1 call) returns ``bad_value`` in one component.
    Every call's point and control go to ``log``."""
    def base(p, uval):
        x, y = p
        if kind == "signed-zero":
            return (-0.0, -0.0)
        fx = c[0] + c[1] * x + c[2] * y + c[3] * uval
        fy = c[4] + c[5] * x + c[6] * y - c[3] * uval
        if kind == "quadratic":
            fx += c[7] * x * x + c[8] * x * y
            fy += c[9] * y * y - c[8] * x * y
        return (_finite_or_one(scale * fx), _finite_or_one(scale * fy))

    return _spoiled(base, bad_call, bad_component, bad_value, log)


def _stage_field_3(kind, c, scale, bad_call, bad_component, bad_value, log):
    """The three-component twin of ``_stage_field``: z couples into both
    other components and follows x, y and the control."""
    def base(p, uval):
        x, y, z = p
        if kind == "signed-zero":
            return (-0.0, -0.0, -0.0)
        fx = c[0] + c[1] * x + c[2] * y + c[3] * uval + c[10] * z
        fy = c[4] + c[5] * x + c[6] * y - c[3] * uval - c[10] * z
        fz = c[11] + c[12] * x - c[13] * y * z + c[3] * uval
        if kind == "quadratic":
            fx += c[7] * x * x + c[8] * x * y
            fy += c[9] * y * y - c[8] * x * y
            fz += c[7] * z * z
        return (_finite_or_one(scale * fx), _finite_or_one(scale * fy),
                _finite_or_one(scale * fz))

    return _spoiled(base, bad_call, bad_component, bad_value, log)


def _spoiled(base, bad_call, bad_component, bad_value, log):
    """``base`` with its call number ``bad_call`` returning ``bad_value`` in
    component ``bad_component``, and every call logged."""
    def rhs(p, uval):
        log.append((_bits(p), _bits(uval)))
        out = base(p, uval)
        if len(log) - 1 == bad_call:
            out = list(out)
            out[bad_component] = bad_value
            out = tuple(out)
        return out

    return rhs


# field scales: unit, the decades where the squares of the scaled error
# estimate are subnormal, and everything up to where the stages overflow
_scale = st.one_of(st.just(0),
                   st.integers(min_value=-160, max_value=-145),
                   st.integers(min_value=-170, max_value=160)).map(
    lambda e: 10.0 ** e)
_component = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                       st.floats(min_value=-1e3, max_value=1e3))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
# both squares of the scaled error are subnormal, so halving each before
# the sum rounds differently from halving the sum
@example(kind="linear", c=[3.0, -2.0, 4.0, 0.0, -3.0, -2.0, 4.0, 2.0, -3.0, 1.0],
         scale=10.0 ** -150, w=(1.0, 0.0), start=(2.0, -1.0), bad_call=None,
         bad_component=0, bad_value=math.inf, h=2.0, tols=(1e-10, 1e-8))
@given(kind=st.sampled_from(["linear", "quadratic", "signed-zero"]),
       c=st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=10,
                  max_size=10),
       scale=_scale,
       w=st.tuples(st.floats(min_value=-2.0, max_value=2.0),
                   st.floats(min_value=-2.0, max_value=2.0)),
       start=st.tuples(_component, _component),
       bad_call=st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
       bad_component=st.integers(min_value=0, max_value=1),
       bad_value=st.sampled_from([math.inf, -math.inf, math.nan]),
       h=st.floats(min_value=1e-12, max_value=10.0),
       tols=st.sampled_from([(1e-10, 1e-8), (1e-6, 1e-3), (1e-12, 1e-12)]))
def test_planar_step_matches_the_generic_step_bit_for_bit(
        kind, c, scale, w, start, bad_call, bad_component, bad_value, h, tols):
    atol, rtol = tols
    results = []
    for step in (_step_planar, _step_any):
        log = []
        rhs = _stage_field(kind, c, scale, bad_call, bad_component, bad_value,
                           log)

        def u(p):
            return w[0] * p[0] + w[1] * p[1]

        k1 = rhs(start, u(start))
        y_new, u_new, ks, err = step(rhs, u, start, k1, h, atol, rtol)
        assert len(ks) == 7 and ks[0] is k1
        results.append((_bits(y_new), _bits(u_new), _bits(ks), _bits(err),
                        tuple(log)))
    assert results[0] == results[1]


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
# all three squares of the scaled error are subnormal, so dividing each by
# 3 before the sum rounds differently from dividing the sum
@example(kind="linear",
         c=[3.0, -2.0, 4.0, 0.0, -3.0, -2.0, 4.0, 2.0, -3.0, 1.0, 1.0, 2.0,
            -1.0, 0.5],
         scale=10.0 ** -150, w=(1.0, 0.0, 0.0), start=(2.0, -1.0, 1.0),
         bad_call=None, bad_component=0, bad_value=math.inf, h=2.0,
         tols=(1e-10, 1e-8))
@given(kind=st.sampled_from(["linear", "quadratic", "signed-zero"]),
       c=st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=14,
                  max_size=14),
       scale=_scale,
       w=st.tuples(st.floats(min_value=-2.0, max_value=2.0),
                   st.floats(min_value=-2.0, max_value=2.0),
                   st.floats(min_value=-2.0, max_value=2.0)),
       start=st.tuples(_component, _component, _component),
       bad_call=st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
       bad_component=st.integers(min_value=0, max_value=2),
       bad_value=st.sampled_from([math.inf, -math.inf, math.nan]),
       h=st.floats(min_value=1e-12, max_value=10.0),
       tols=st.sampled_from([(1e-10, 1e-8), (1e-6, 1e-3), (1e-12, 1e-12)]))
def test_three_component_step_matches_the_generic_step_bit_for_bit(
        kind, c, scale, w, start, bad_call, bad_component, bad_value, h, tols):
    atol, rtol = tols
    results = []
    for step in (_step_3, _step_any):
        log = []
        rhs = _stage_field_3(kind, c, scale, bad_call, bad_component,
                             bad_value, log)

        def u(p):
            return w[0] * p[0] + w[1] * p[1] + w[2] * p[2]

        k1 = rhs(start, u(start))
        y_new, u_new, ks, err = step(rhs, u, start, k1, h, atol, rtol)
        assert len(ks) == 7 and ks[0] is k1
        results.append((_bits(y_new), _bits(u_new), _bits(ks), _bits(err),
                        tuple(log)))
    assert results[0] == results[1]


# -- trajectory columns -------------------------------------------------------
# A trajectory keeps float columns and rebuilds its points on demand: what it
# gives back must be what it was given, to the bit, as plain tuples.

_stored = st.one_of(st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf,
                                     -math.inf]),
                    st.floats())
_POINTS = {"PhasePoint": (2, PhasePoint._make), "tuple-1": (1, tuple),
           "tuple-2": (2, tuple), "tuple-3": (3, tuple)}


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(kind=st.sampled_from(sorted(_POINTS)), data=st.data())
def test_trajectory_gives_back_its_points_bit_for_bit(kind, data):
    n, make = _POINTS[kind]
    rows = data.draw(st.lists(
        st.tuples(_stored, _stored, st.tuples(*[_stored] * n)),
        min_size=1, max_size=12))
    times = tuple(t for t, _, _ in rows)
    controls = tuple(u for _, u, _ in rows)
    plain = tuple(p for _, _, p in rows)
    traj = Trajectory(times, zip(*map(make, plain)), controls)
    assert _bits(_points(traj)) == _bits(plain)
    assert _bits(traj.final_state) == _bits(plain[-1])
    for got, given in ((traj.times, times), (traj.controls, controls)):
        assert {type(v) for v in got} == {float}
        assert _bits(tuple(got)) == _bits(given)


def test_trajectory_is_read_only_and_rejects_ragged_points():
    traj = Trajectory((0.0, 1.0), ((1.0, 3.0), (2.0, 4.0)), (0.5, 0.5))
    assert _points(traj) == ((1.0, 2.0), (3.0, 4.0))
    with pytest.raises(AttributeError):
        traj.times = (0.0,)
    with pytest.raises(AttributeError):
        traj.columns = ()
    # a column one value short leaves the second point without its y
    with pytest.raises(DomainError, match="must align"):
        Trajectory((0.0, 1.0), ((1.0, 3.0), (2.0,)), (0.5, 0.5))
    with pytest.raises(DomainError, match="must align"):
        Trajectory((0.0,), ((1.0, 3.0), (2.0, 4.0)), (0.5, 0.5))
