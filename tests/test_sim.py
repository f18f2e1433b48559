"""Tests for the embedded RK45 integrator, events, and faults."""

import hashlib
import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canardctl.controllers import composite_u, default_neighborhoods, fast_u
from canardctl.core import ControllerGains, PhasePoint, ScaledLevel, SystemParams
from canardctl.errors import (
    DomainError,
    ExponentOverflowError,
    IntegrationError,
    StepLimitError,
    StepUnderflowError,
)
from canardctl.models import fold_rhs, vdp_rhs, zero_terms
from canardctl.sim import (
    _EVENT_TIME_TOL,
    ConvergenceReport,
    Event,
    IntegratorConfig,
    Trajectory,
    Watcher,
    convergence_metrics,
    integrate,
    _crossing,
    _locate,
    _step_any,
    _step_planar,
)


def _no_u(p):
    return 0.0


def test_exponential_decay_accuracy():
    traj = integrate(
        lambda p, u: (-p.x, 0.0),
        _no_u,
        PhasePoint(1.0, 0.0),
        (0.0, 5.0),
        IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12),
    )
    assert traj.final_time == 5.0
    assert traj.final_state.x == pytest.approx(math.exp(-5.0), rel=1e-8)


def test_harmonic_oscillator_section_events():
    # x'' = -x from (1, 0): x = cos t, zero down-crossings at pi/2 + 2k pi
    traj = integrate(
        lambda p, u: (p.y, -p.x),
        _no_u,
        PhasePoint(1.0, 0.0),
        (0.0, 10.0),
        IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12),
        watchers=[Watcher("section-crossing", lambda p: p.x, "down")],
    )
    downs = traj.events_of("section-crossing")
    assert len(downs) == 2
    assert downs[0].time == pytest.approx(math.pi / 2, abs=1e-8)
    assert downs[1].time == pytest.approx(math.pi / 2 + 2 * math.pi, abs=1e-8)
    assert downs[0].state.y == pytest.approx(-1.0, abs=1e-7)


def test_linear_crossing_time_localization():
    traj = integrate(
        lambda p, u: (1.0, 0.0),
        _no_u,
        PhasePoint(-1.0, 0.0),
        (0.0, 3.0),
        watchers=[Watcher("section-crossing", lambda p: p.x, "up")],
    )
    ev = traj.events_of("section-crossing")[0]
    assert ev.time == pytest.approx(1.0, abs=1e-9)


def test_set_entry_exit_disc():
    # straight line through the unit disc around the origin
    ind = lambda p: 1.0 - (p.x * p.x + p.y * p.y)
    traj = integrate(
        lambda p, u: (1.0, 0.0),
        _no_u,
        PhasePoint(-2.0, 0.0),
        (0.0, 4.0),
        watchers=[Watcher("set-entry", ind), Watcher("set-exit", ind)],
    )
    entry = traj.events_of("set-entry")[0]
    exit_ = traj.events_of("set-exit")[0]
    assert entry.time == pytest.approx(1.0, abs=1e-8)
    assert exit_.time == pytest.approx(3.0, abs=1e-8)
    assert entry.direction == "enter" and exit_.direction == "exit"


def test_terminal_level_convergence_truncates():
    # |x| decays like e^-t from 1; threshold 1e-4 is hit at t = ln(1e4)
    thr = 1e-4
    traj = integrate(
        lambda p, u: (-p.x, 0.0),
        _no_u,
        PhasePoint(1.0, 0.0),
        (0.0, 50.0),
        watchers=[Watcher("level-convergence", lambda p: thr - abs(p.x), terminal=True)],
    )
    assert traj.final_time == pytest.approx(math.log(1e4), rel=1e-6)
    assert traj.events[-1].kind == "level-convergence"
    assert traj.final_time < 50.0
    assert len(traj.times) == len(traj.states) == len(traj.controls)


def test_controller_overflow_becomes_fault_event():
    def u(p):
        if p.x > 2.0:
            raise ExponentOverflowError("c2*y/eps - E", 900.0)
        return 0.0

    traj = integrate(
        lambda p, uval: (1.0, 0.0), u, PhasePoint(0.0, 0.0), (0.0, 10.0)
    )
    assert traj.events[-1].kind == "overflow-fault"
    assert traj.final_time < 10.0
    assert all(math.isfinite(p.x) for p in traj.states)


@pytest.mark.parametrize("in_field", [False, True], ids=["controller", "field"])
def test_float_overflow_becomes_fault_event(in_field):
    # x ** 3 raises OverflowError past x ~ 5.6e102, as vdp_rhs would
    def u(p):
        return 0.0 if in_field else p.x ** 3

    def rhs(p, uval):
        return (p.x * p.x, p.x ** 3 if in_field else 0.0)

    traj = integrate(rhs, u, PhasePoint(1e120, 0.0), (0.0, 10.0))
    assert traj.events[-1].kind == "overflow-fault"
    assert len(traj) == 1
    assert math.isnan(traj.controls[0]) != in_field


def test_finite_time_blowup_raises_stiffness_fault():
    with pytest.raises(StepUnderflowError) as exc:
        integrate(
            lambda p, u: (1.0 + p.x * p.x, 0.0),
            _no_u,
            PhasePoint(0.0, 0.0),
            (0.0, 3.0),
        )
    partial = exc.value.trajectory
    assert partial is not None and len(partial) > 1
    assert partial.final_time < 3.0


def test_step_limit_raises():
    with pytest.raises(StepLimitError):
        integrate(
            lambda p, u: (p.y, -p.x),
            _no_u,
            PhasePoint(1.0, 0.0),
            (0.0, 1000.0),
            IntegratorConfig(max_steps=50),
        )


def test_determinism_bitwise():
    def run():
        return integrate(
            lambda p, u: (p.y, -p.x + u),
            lambda p: -0.1 * p.y,
            PhasePoint(1.0, 0.5),
            (0.0, 20.0),
        )

    a, b = run(), run()
    assert a.times == b.times
    assert a.states == b.states
    assert a.controls == b.controls


def test_controls_recorded_at_accepted_points():
    traj = integrate(
        lambda p, u: (-p.x + u, 0.0),
        lambda p: 0.5 * p.x,
        PhasePoint(1.0, 0.0),
        (0.0, 1.0),
    )
    for p, c in zip(traj.states, traj.controls):
        assert c == 0.5 * p.x


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
    hot = zero_terms()
    cfg = IntegratorConfig()
    t_end = 2.0
    traj = integrate(lambda p, u: fold_rhs(p, params, hot, u),
                     lambda p: fast_u(p, params, gains, level),
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


def test_empty_start_is_rejected():
    with pytest.raises(DomainError, match="at least one component"):
        integrate(lambda p, u: (), _no_u, (), (0.0, 1.0))


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


@pytest.mark.parametrize("step", [_step_planar, _step_any])
@pytest.mark.parametrize("stage", range(2, 8))
@pytest.mark.parametrize("length", [1, 3])
def test_step_kernels_reject_a_stage_of_another_length(step, stage, length):
    points = []

    def rhs(p, u):
        points.append(p)
        return (1.0,) * length if len(points) == stage - 1 else (1.0, 0.0)

    with pytest.raises(DomainError,
                       match=f"returned {length} components for a state of 2"):
        step(rhs, _no_u, (0.0, 1.0), (1.0, 0.0), 0.1, 1e-10, 1e-8, tuple)
    # no stage ran on a state cut down or padded by the bad result
    assert [len(p) for p in points] == [2] * (stage - 1)


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


@pytest.mark.parametrize("start", [PhasePoint(-1.0, 0.5), (-1.0, 0.5)],
                         ids=["PhasePoint", "tuple"])
def test_states_keep_the_type_of_start(start):
    # x' = 1 crosses x = 0 at t = 1 and stops at the terminal x = 1 at t = 2
    traj = integrate(
        lambda p, u: (1.0, -p[1]), _no_u, start, (0.0, 5.0),
        watchers=[Watcher("section-crossing", lambda p: p[0], "up"),
                  Watcher("section-crossing", lambda p: p[0] - 1.0, "up",
                          terminal=True)])
    assert [ev.kind for ev in traj.events] == ["section-crossing"] * 2
    assert traj.final_time == pytest.approx(2.0, abs=1e-8)
    assert {type(p) for p in traj.states} == {type(start)}
    assert {type(ev.state) for ev in traj.events} == {type(start)}
    assert type(traj.final_state) is type(start)


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
        lambda p, u: (p.y, -p.x), _no_u, PhasePoint(1.0, 0.0),
        (0.0, 20.0),
        watchers=[Watcher("section-crossing", counted("a", lambda p: p.x + 2.0)),
                  Watcher("set-exit", counted("b", lambda p: 4.0 - p.y))])
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
    states = tuple(PhasePoint(0.0, y) for y in ys)
    times = tuple(float(i) for i in range(len(ys)))
    traj = Trajectory(times, states, tuple(0.0 for _ in ys))
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
    traj = Trajectory((0.0, 1.0, 2.0), tuple(PhasePoint(0.2, y) for y in ys),
                      (0.0, 0.0, 0.0))
    rep = convergence_metrics(traj, 1e-4, ScaledLevel(0.25, 400.0))
    assert rep.initial == math.inf
    assert rep.threshold == math.inf
    assert rep.terminal < 0.0
    assert rep.time_below is None


# -- bit-level pins ----------------------------------------------------------
# SHA-256 of repr((times, states, controls, events)) for runs that exercise
# every engine path: a watcher run, a terminal-event stop, a mid-run fault
# and faults at the start state.  A digest that moves means the arithmetic of
# the step changed, which no refactoring of the engine may do.

def _digest(times, states, controls, events):
    text = repr((tuple(times), tuple(states), tuple(controls), tuple(events)))
    return hashlib.sha256(text.encode()).hexdigest()


def _traj_digest(traj):
    return _digest(traj.times, traj.states, traj.controls, traj.events)


def _same(name, fn):
    return fn


def _fold_fast_run(wrap=_same, watched=True):
    params = SystemParams(0.01, -0.1)
    gains = ControllerGains(1.0, 2.0)
    level = ScaledLevel(0.25, 400.0)
    hot = zero_terms()
    section = Watcher("section-crossing", lambda p: p.x + 0.1, "up")
    return integrate(
        wrap("rhs", lambda p, u: fold_rhs(p, params, hot, u, channel="fast")),
        wrap("u", lambda p: fast_u(p, params, gains, level)),
        PhasePoint(-0.35, 0.06), (0.0, 120.0),
        watchers=[section] if watched else [])


def _vdp_mmo_chunk(wrap=_same):
    eps = 0.01
    gains = ControllerGains(c1=1.0, c2=2.0, k1=1.0, x_star=0.01)
    nbhd = default_neighborhoods(eps, y_h=0.75)
    return integrate(
        wrap("rhs", lambda p, u: vdp_rhs(p, eps, u)),
        wrap("u", lambda p: composite_u(p, eps, gains, nbhd)),
        PhasePoint(-1.0, 0.6), (0.0, 2000.0),
        watchers=[Watcher("set-entry",
                          lambda p: 0.0625 - p[0] * p[0] - p[1] * p[1],
                          terminal=True)])


def _overflow_mid_run():
    def u(p):
        if p.x > 2.0:
            raise ExponentOverflowError("c2*y/eps - E", 900.0)
        return -0.3 * p.y

    return integrate(lambda p, uval: (1.0 + 0.1 * p.y, -p.x + uval),
                     u, PhasePoint(0.0, 0.5), (0.0, 10.0))


def _raising_u(p):
    raise ExponentOverflowError("c2*y/eps - E", 900.0)


def _fault_at_start(u, rhs=None):
    params = SystemParams(0.01, -0.1)
    hot = zero_terms()
    return integrate(rhs or (lambda p, uval: fold_rhs(p, params, hot, uval)),
                     u, PhasePoint(0.2, 0.3), (0.0, 1.0))


def _raising_rhs(p, uval):
    raise IntegrationError("field refuses the start state")


def _vector_run():
    traj = integrate(_three_components, _no_u, (1.0, 1.0, 1.0), (0.0, 4.0))
    return _digest(traj.times, traj.states, (), traj.events)


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
    # step: the up-crossing, the exit onto an exact 0.0 and the set entry
    # fire there, the terminal set exit ends the run and drops the later
    # section crossing; the nan watcher never fires, and the down-only
    # watcher ignores its up-crossing
    watchers = [
        Watcher("section-crossing", lambda p: p[0] - 0.27),
        Watcher("level-convergence", lambda p: math.nan),
        Watcher("set-exit", lambda p: 0.25 - p[0], terminal=terminal),
        Watcher("set-entry", lambda p: p[0] - 0.22),
        Watcher("section-crossing", lambda p: p[0] - 0.1, "down"),
        Watcher("set-exit", lambda p: max(0.2 - p[0], 0.0)),
        Watcher("section-crossing", lambda p: p[0] - 0.19, "up"),
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

    with pytest.raises(StepUnderflowError) as exc:
        integrate(rhs, _no_u, (0.0, 1.0), (0.0, 3.0))
    return exc.value.trajectory


def _ratio_clamped_run():
    # at these tolerances some accepted step's growth ratio comes out
    # between 10 and 11 and is clamped to 10
    return integrate(lambda p, u: (p[1], -p[0]), _no_u, (1.0, 0.0), (0.0, 10.0),
                     IntegratorConfig(rel_tol=1.3e-5, abs_tol=1e-7))


GOLDEN = {
    "fold-fast-watcher": (
        lambda: _traj_digest(_fold_fast_run()),
        "7b11eb2d534be1868f6d640ca931024d99b79362dbc9331e88438dbeb8401f16"),
    "vdp-mmo-disc-entry": (
        lambda: _traj_digest(_vdp_mmo_chunk()),
        "507fbcb47232cde33bb019d90db36d86bd4faf39098e0cfd58d4caff875bfb76"),
    "overflow-mid-run": (
        lambda: _traj_digest(_overflow_mid_run()),
        "e05ffd133af917f2d07028df3a59cb8c0f17f4304c5ce887eeb3aca19e344751"),
    "start-u-raises": (
        lambda: _traj_digest(_fault_at_start(_raising_u)),
        "2bd5a166ff60ff16a108516e0c30b80a498939853d32735d9d011e9a2fdd1de3"),
    "start-u-nan": (
        lambda: _traj_digest(_fault_at_start(lambda p: math.nan)),
        "2bd5a166ff60ff16a108516e0c30b80a498939853d32735d9d011e9a2fdd1de3"),
    "start-rhs-raises": (
        lambda: _traj_digest(_fault_at_start(lambda p: 0.7, _raising_rhs)),
        "35a26ea1bcfe95815f91701c499360d8c66dcc211f216a1f356c0c03192db600"),
    "vector-three-components": (
        _vector_run,
        "810df24dbc8d6929516e38fb3af4d605bf4d5ee7afb8b87f0a6bf5e7efd39ddb"),
    "non-finite-stage-rejected": (
        lambda: _traj_digest(_inf_past_one()),
        "c8c3b5afc888eb5d29a6a4c0bc2c9ec289149bf07f0a36ef921b3ba48d2aebef"),
    "many-watchers-one-step": (
        lambda: _traj_digest(_many_watchers_run()),
        "40321b7c8b12cf0e0d03928ae53bc5a5bc0fb3200c832fdaf598d93b527f7f04"),
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
    for u, rhs, control in ((_raising_u, None, None), (lambda p: math.nan, None, None),
                            (lambda p: 0.7, _raising_rhs, 0.7)):
        start = _fault_at_start(u, rhs)
        assert [ev.kind for ev in start.events] == ["overflow-fault"]
        if control is None:
            assert math.isnan(start.controls[0])
        else:
            assert start.controls == (control,)
    # one field call at the start and one in the initial-step probe, then six
    # per attempted step: more than that for the accepted steps means some
    # were rejected, and any attempt that met an infinite slope was
    calls = {"rhs": 0, "inf": 0}
    accepted = len(_inf_past_one(calls)) - 1
    assert calls["inf"] > 0
    assert calls["rhs"] > 6 * accepted + 2
    # three events in one step, in time order; the run ends at the last
    many = _many_watchers_run()
    assert [(ev.kind, ev.direction) for ev in many.events] == [
        ("section-crossing", "up"), ("set-exit", "exit"), ("set-entry", "enter"),
        ("set-exit", "exit")]
    step_start = many.times[-2]
    assert all(step_start < ev.time for ev in many.events)
    assert many.final_time == many.events[-1].time
    # without the stop the same step goes on to the crossing at x = 0.27
    free = _many_watchers_run(terminal=False)
    step_end = free.times[free.times.index(step_start) + 1]
    assert [(ev.kind, ev.direction) for ev in free.events
            if step_start < ev.time <= step_end] == [
        ("section-crossing", "up"), ("set-exit", "exit"), ("set-entry", "enter"),
        ("set-exit", "exit"), ("section-crossing", "up")]


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
    assert len(traj.controls) == len(traj.states)


# -- event location properties -----------------------------------------------

_PROPERTY = settings(derandomize=True, database=None, deadline=None,
                     max_examples=300)
_values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                    st.floats(allow_nan=False))
# the sign changes each (kind, direction) fires on, and what it reports
_FIRES = {
    ("section-crossing", "up"): {"up": "up"},
    ("section-crossing", "down"): {"down": "down"},
    ("section-crossing", "any"): {"up": "up", "down": "down"},
    # the other kinds ignore the watcher's direction
    **{(kind, direction): fires
       for kind, fires in (("set-entry", {"up": "enter"}),
                           ("set-exit", {"down": "exit"}),
                           ("level-convergence", {"up": "converged"}))
       for direction in ("up", "down", "any")},
}


@_PROPERTY
@given(kind_direction=st.sampled_from(sorted(_FIRES)), g_old=_values, g_new=_values)
def test_crossing_fires_exactly_on_allowed_sign_changes(kind_direction, g_old, g_new):
    # up: from strictly below zero to zero or above; down: the mirror image
    if g_old < 0.0 and g_new >= 0.0:
        change = "up"
    elif g_old > 0.0 and g_new <= 0.0:
        change = "down"
    else:
        change = None
    kind, direction = kind_direction
    assert _crossing(kind, direction, g_old, g_new) == _FIRES[kind_direction].get(change)


def test_watcher_rejects_unknown_kind_and_direction():
    # both fail when the watcher is built, not at the run's first step
    with pytest.raises(DomainError, match="unknown watcher kind 'tangency'"):
        Watcher("tangency", lambda p: p[0])
    with pytest.raises(DomainError, match="unknown watcher direction 'upward'"):
        Watcher("section-crossing", lambda p: p[0], direction="upward")


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
# The written-out planar step and the generic one must agree to the bit on
# every two-component input, with non-finite slopes and signed zeros included.

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
         bad_component=0, bad_value=math.inf, pack=tuple, h=2.0,
         tols=(1e-10, 1e-8))
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
       pack=st.sampled_from([tuple, PhasePoint._make]),
       h=st.floats(min_value=1e-12, max_value=10.0),
       tols=st.sampled_from([(1e-10, 1e-8), (1e-6, 1e-3), (1e-12, 1e-12)]))
def test_planar_step_matches_the_generic_step_bit_for_bit(
        kind, c, scale, w, start, bad_call, bad_component, bad_value, pack, h,
        tols):
    atol, rtol = tols
    results = []
    for step in (_step_planar, _step_any):
        log = []
        rhs = _stage_field(kind, c, scale, bad_call, bad_component, bad_value,
                           log)

        def u(p):
            return w[0] * p[0] + w[1] * p[1]

        y = pack(start)
        k1 = rhs(y, u(y))
        y_new, u_new, ks, err = step(rhs, u, y, k1, h, atol, rtol, pack)
        assert len(ks) == 7 and ks[0] is k1
        results.append((_bits(y_new), _bits(u_new), _bits(ks), _bits(err),
                        tuple(log)))
    assert results[0] == results[1]
