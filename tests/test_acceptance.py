"""Acceptance gate: twelve checks, one per figure-level claim the package
reproduces.  Run with -v to get one pass/fail line per check, in order.

Each test restates its tolerance inline and computes everything it asserts
from the public API, so this module doubles as a worked tour of the
library.  Check 11 carries a known shortfall near the top of its height
range; the test prints the per-point error table before asserting, so the
failure is self-documenting.
"""

import math
import random
import time

import numpy as np
import pytest

from canardctl.blowup import (
    ChartPointK1,
    ChartPointK2,
    K2Field,
    germ_check,
    k2_field,
    kappa12,
    kappa21,
)
from canardctl.cli import ExperimentConfig, run_experiment
from canardctl.controllers import (
    FoldLaw,
    K2Law,
    VdpLaw,
    composite_u,
    default_neighborhoods,
    fast_u,
    k2_mu,
    lyapunov_L2,
    slow_u,
    vdp_slow_manifold_phi,
)
from canardctl.core import (
    ControllerGains,
    PhasePoint,
    ScaledLevel,
    SystemParams,
    eval_H1,
    eval_H2,
)
from canardctl.mmo import MmoPattern, run_pattern
from canardctl.models import FoldField, fold_rhs, vdp_rhs
from canardctl.sim import Trajectory, Watcher, convergence_metrics, integrate

_SEED = 20260822
_H_TINY = 1e-16


def _sampled_chart_starts(count):
    """Uniform starts with |x2|, |y2| <= 3, excluding a small origin ball."""
    rng = random.Random(_SEED)
    out = []
    while len(out) < count:
        x2, y2 = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        if abs(x2) + abs(y2) >= 0.1:
            out.append(PhasePoint(x2, y2))
    return out


def _chart_rhs(r2, alpha2, shear=0.0):
    field = K2Field(r2, alpha2, shear)

    def rhs(p, mu: float) -> tuple:
        return k2_field(field, p, mu)
    return rhs


@pytest.fixture(scope="module")
def chart_runs():
    """Ten singular-chart stabilization runs shared by checks 1 and 2."""
    gains = ControllerGains(c1=1.0, c2=2.0)
    law = K2Law(gains, _H_TINY, 0.0, 1.0)

    def mu(p) -> float:
        return k2_mu(law, p)

    stop = Watcher("level-convergence",
                   lambda p: 1e-7 - abs(eval_H2(p[0], p[1]) - _H_TINY),
                   terminal=True)
    t0 = time.perf_counter()
    trajs = [integrate(_chart_rhs(0.0, 1.0), mu, ic, (0.0, 500.0),
                       watchers=[stop])
             for ic in _sampled_chart_starts(10)]
    return gains, trajs, time.perf_counter() - t0


def test_a01_chart_stabilization_from_ten_starts(chart_runs):
    """(r2, a2, c1, c2, h) = (0, 1, 1, 2, 1e-16): terminal |H2 - h| < 1e-6
    within t <= 500 from every start; all ten runs inside 5 s."""
    _, trajs, elapsed = chart_runs
    for traj in trajs:
        p = traj.final_state
        assert traj.final_time <= 500.0
        assert abs(eval_H2(p[0], p[1]) - _H_TINY) < 1e-6
    assert elapsed < 5.0


def test_a02_lyapunov_monotone_along_chart_runs(chart_runs):
    """The stored quadratic level discrepancy never rises by more than 1e-10
    between accepted steps on any run of check 1."""
    gains, trajs, _ = chart_runs
    worst = 0.0
    for traj in trajs:
        prev = None
        for p in zip(*traj.columns):
            l2, _ = lyapunov_L2(ChartPointK2(0.0, p[0], p[1], 1.0),
                                gains, _H_TINY)
            if prev is not None:
                worst = max(worst, l2 - prev)
            prev = l2
    assert worst <= 1e-10


def test_a03_shear_compensation_necessity():
    """r2 = 1, a2 = 1, shear phi2 = y2 - x2^2, (c1, c2) = (10, 2): the plain
    loop leaves |H2 - h| above 1e-2 from at least one of five starts; the
    compensated loop brings all five below 1e-4.

    Starts sit where 1 + r2*phi2 > 0: past that locus the compensated
    slow flow reverses direction and acquires a spurious stable
    equilibrium, so level convergence is only local to this region.
    """
    gains = ControllerGains(c1=10.0, c2=2.0)
    starts = [PhasePoint(0.5, 0.5), PhasePoint(-1.0, 1.0), PhasePoint(2.0, 3.2),
              PhasePoint(-1.5, 1.8), PhasePoint(1.0, 0.8)]

    def gap_after(ic, shear, watched):
        law = K2Law(gains, _H_TINY, 1.0, 1.0, shear)

        def mu(p) -> float:
            return k2_mu(law, p)
        watchers = [Watcher("level-convergence",
                            lambda p: 1e-7 - abs(eval_H2(p[0], p[1]) - _H_TINY),
                            terminal=True)] if watched else []
        traj = integrate(_chart_rhs(1.0, 1.0, 1.0), mu, ic, (0.0, 60.0),
                         watchers=watchers)
        p = traj.final_state
        return abs(eval_H2(p[0], p[1]) - _H_TINY)

    plain = [gap_after(ic, 0.0, watched=False) for ic in starts]
    comp = [gap_after(ic, 1.0, watched=True) for ic in starts]
    assert max(plain) > 1e-2
    assert all(g < 1e-4 for g in comp)


def _fold_cycle_run(channel, params, gains, level, start, t_end, center):
    law = FoldLaw(params, gains, level)
    field = FoldField(params, channel=channel)

    def u(p) -> float:
        if channel == "fast":
            return fast_u(law, p)
        return slow_u(law, p)

    section = Watcher("section-crossing", lambda p: p[0] - center)
    traj = integrate(
        lambda p, uval: fold_rhs(field, p, uval),
        u, start, (0.0, t_end), watchers=[section])
    xs, ys = traj.columns
    framed = Trajectory(traj.times, ([x - center for x in xs], ys),
                        traj.controls, traj.events)
    return traj, convergence_metrics(framed, params.eps, level)


def _return_gap(traj):
    hits = traj.events_of("section-crossing")
    gaps = [math.hypot(b.state[0] - a.state[0], b.state[1] - a.state[1])
            for a, b in zip(hits, hits[1:])]
    return len(hits), max(gaps) if gaps else math.inf


def test_a04_fast_law_original_coordinates():
    """eps = 0.01, (alpha, c1, c2) = (-0.1, 1, 2), h = (1/4, 400), start
    (0.2, 0.3): scaled residual drops below 1e-3 of its initial value, the
    orbit returns to its section within 1e-3 in state, and no overflow
    faults are recorded."""
    params = SystemParams(0.01, -0.1)
    traj, rep = _fold_cycle_run(
        "fast", params, ControllerGains(c1=1.0, c2=2.0),
        ScaledLevel(0.25, 400.0), PhasePoint(0.2, 0.3), 1400.0,
        center=params.alpha)
    assert abs(rep.terminal) < 1e-3 * abs(rep.initial)
    returns, gap = _return_gap(traj)
    assert returns >= 2
    assert gap < 1e-3
    assert not traj.events_of("overflow-fault")


def test_a05_maximal_canard_tracking_bounded_control():
    """eps = 0.01, alpha = 0, h = (0, 0), c2 = 2 - e^-15: after capture the
    orbit tracks y = x^2 - eps/2 within 5*eps for heights in [0.05, 1],
    with max |u| <= 10 over the whole run."""
    eps = 0.01
    params = SystemParams(eps, 0.0)
    gains = ControllerGains(c1=1.0, c2=2.0 - math.exp(-15.0))
    level = ScaledLevel(0.0, 0.0)

    law = FoldLaw(params, gains, level)
    field = FoldField(params)

    def u(p) -> float:
        return fast_u(law, p)

    top = Watcher("section-crossing", lambda p: p[1] - 1.2, terminal=True)
    traj = integrate(
        lambda p, uval: fold_rhs(field, p, uval),
        u, PhasePoint(0.2, 0.3), (0.0, 700.0), watchers=[top])

    res = [abs(p[1] - p[0] * p[0] + 0.5 * eps) for p in zip(*traj.columns)]
    captured = next(i for i, r in enumerate(res) if r < 0.5 * eps)
    window = [res[i] for i in range(captured, len(traj))
              if 0.05 <= traj.columns[1][i] <= 1.0]
    assert window, "orbit never crossed the measurement heights"
    assert max(window) < 5 * eps
    assert max(abs(v) for v in traj.controls if math.isfinite(v)) <= 10.0


def test_a06_slow_law_residual_convergence():
    """Slow-channel actuation at eps = 0.01: same factor-1e-3 residual test
    as check 4, on a stored cycle the slow gain can actually hold."""
    params = SystemParams(0.01, -0.1)
    traj, rep = _fold_cycle_run(
        "slow", params, ControllerGains(c1=60.0, c2=2.0),
        ScaledLevel(0.25, 60.0), PhasePoint(0.45, 0.25), 600.0,
        center=0.0)
    assert abs(rep.terminal) < 1e-3 * abs(rep.initial)
    returns, gap = _return_gap(traj)
    assert returns >= 2
    assert gap < 1e-3
    assert not traj.events_of("overflow-fault")


def test_a07_germ_suite_closed_loops_keep_fold_signature():
    """The fold germ (f, f_x, f_xx, f_y) = (0, 0, 2, -1) at the origin
    survives closing the loop with the fast, slow, and blended laws, to
    1e-6 after extrapolation; a planted cubic layer fails the check."""
    seq = [1e-4, 1e-5, 1e-6]
    gains = ControllerGains(c1=1.0, c2=2.0, k1=1.0)
    level = ScaledLevel(0.0, 0.0)

    def fast_layer(x, y, eps):
        p = PhasePoint(x, y)
        params = SystemParams(eps, 0.0)
        return fold_rhs(FoldField(params), p,
                        fast_u(FoldLaw(params, gains, level), p))[0]

    def slow_layer(x, y, eps):
        p = PhasePoint(x, y)
        params = SystemParams(eps, 0.0)
        return fold_rhs(FoldField(params, channel="slow"), p,
                        slow_u(FoldLaw(params, gains, level), p))[0]

    def blended_layer(x, y, eps):
        p = PhasePoint(x, y)
        return vdp_rhs(eps, p, composite_u(
            VdpLaw(eps, gains, default_neighborhoods(eps)), p))[0]

    layers = {
        "open": lambda x, y, eps: -y + x * x,
        "fast": fast_layer,
        "slow": slow_layer,
        "blended": blended_layer,
    }
    for name, layer in layers.items():
        rep = germ_check(layer, seq)
        assert rep.passes, f"{name} layer lost the fold germ: {rep}"
        assert abs(rep.f0) < 1e-6, name
        assert abs(rep.fx) < 1e-6, name
        assert abs(rep.fxx - 2.0) < 1e-6, name
        assert abs(rep.fy + 1.0) < 1e-6, name

    planted = germ_check(lambda x, y, eps: -y + x ** 3, seq)
    assert not planted.passes


def test_a08_chart_transition_identities():
    """kappa21 after kappa12 is the identity and H1 pulls back to H2, both
    to 1e-12 over 10^3 samples; the centre-branch roots of H1 vanish to
    1e-13 across eps1 in [0.01, 3]."""
    rng = np.random.default_rng(_SEED)
    n = 1000
    worst_rt = 0.0
    for _ in range(n):
        cp = ChartPointK1(rng.uniform(0.05, 2.0), rng.uniform(-3.0, 3.0),
                          rng.uniform(0.01, 3.0), rng.uniform(-1.0, 1.0),
                          rng.uniform(-2.0, 2.0))
        back = kappa21(kappa12(cp))
        worst_rt = max(worst_rt, max(abs(a - b) for a, b in zip(cp, back)))
    assert worst_rt < 1e-12

    worst_h = 0.0
    for _ in range(n):
        cp2 = ChartPointK2(rng.uniform(0.05, 2.0), rng.uniform(-3.0, 3.0),
                           rng.uniform(0.05, 3.0), rng.uniform(-1.0, 1.0),
                           rng.uniform(-2.0, 2.0))
        cp1 = kappa21(cp2)
        worst_h = max(worst_h,
                      abs(eval_H1(cp1.x1, cp1.eps1) - eval_H2(cp2.x2, cp2.y2)))
    assert worst_h < 1e-12

    for eps1 in np.linspace(0.01, 3.0, 300):
        root = math.sqrt(1.0 + 0.5 * eps1)
        assert abs(eval_H1(root, eps1)) <= 1e-13
        assert abs(eval_H1(-root, eps1)) <= 1e-13


def test_a09_vdp_head_rule():
    """eps = 0.01, (c1, k1) = (1, 1): release at (1.25, -0.01) keeps every
    loop headless (max_x < 2, apex within [1.15, 1.35]); release at
    (0.75, +0.01) sends every loop over the head (max_x > 2.2).  Each run
    under 10 s."""
    eps = 0.01
    gains = ControllerGains(c1=1.0, c2=2.0, k1=1.0)

    t0 = time.perf_counter()
    _, headless = run_pattern(MmoPattern.parse("3S:1.25:-0.01"), eps, gains,
                              default_neighborhoods(eps)._replace(y_h=1.25))
    dt_headless = time.perf_counter() - t0
    t0 = time.perf_counter()
    _, headed = run_pattern(MmoPattern.parse("3L:0.75:0.01"), eps, gains,
                            default_neighborhoods(eps)._replace(y_h=0.75))
    dt_headed = time.perf_counter() - t0

    for loop in headless:
        assert loop.max_x < 2.0
        assert 1.15 <= loop.max_y <= 1.35
    for loop in headed:
        assert loop.max_x > 2.2
    assert dt_headless < 10.0
    assert dt_headed < 10.0


def test_a10_mmo_pattern_two_periods_no_deviation():
    """3 large + 4 small loops, held for two full periods with zero
    deviation errors."""
    eps = 0.01
    gains = ControllerGains(c1=1.0, c2=2.0, k1=1.0)
    pattern = MmoPattern.parse("3L:0.75:0.01,4S:1.25:-0.01", repeat=2)
    _, labels = run_pattern(pattern, eps, gains, default_neighborhoods(eps))
    assert "".join(lb.label[0] for lb in labels) == "LLLSSSS" * 2


def _middle_branch_root(y):
    lo, hi = 1e-9, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * mid - mid ** 3 / 3.0 - y > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _branch_oracle(eps, targets):
    """Repelling-branch graph by descent in height.

    Parameterizing the open-loop flow by y turns the repelling branch into
    an attractor of the descent, so integrating dx/dy = f/(eps*x) downward
    from a seed on the critical curve lands on the perturbed branch to
    within the seed error times the accumulated contraction.
    """
    def slope(x, y):
        return (-y + x * x - x ** 3 / 3.0) / (eps * x)

    def descend(x, y_from, y_to):
        n = max(1, math.ceil(abs(y_from - y_to) / 1e-4))
        h = (y_to - y_from) / n
        y = y_from
        for _ in range(n):
            k1 = slope(x, y)
            k2 = slope(x + 0.5 * h * k1, y + 0.5 * h)
            k3 = slope(x + 0.5 * h * k2, y + 0.5 * h)
            k4 = slope(x + h * k3, y + h)
            x += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            y += h
        return x

    y = 1.30
    x = _middle_branch_root(y)
    out = {}
    for target in sorted(targets, reverse=True):
        x = descend(x, y, target)
        y = target
        out[target] = x
    return out


def test_a11_slow_manifold_graph_accuracy():
    """|graph expansion - descent oracle| < 10*eps^2 for heights 0.2..1.2
    at eps in {0.01, 0.02}.

    Known shortfall: the expansion coefficient grows like a negative power
    of (4/3 - y) toward the upper fold, and the oracle itself turns
    seed-sensitive there, so the top of the range exceeds the bound.  The
    table below prints every point so the failure locates itself.
    """
    heights = [round(0.2 + 0.1 * i, 1) for i in range(11)]
    rows = []
    worst_excess = 0.0
    for eps in (0.01, 0.02):
        bound = 10.0 * eps * eps
        nbhd = default_neighborhoods(eps)._replace(y_h=1.25)
        oracle = _branch_oracle(eps, heights)
        for y in heights:
            phi = vdp_slow_manifold_phi(y, eps, nbhd)
            err = abs(phi - oracle[y])
            ok = err < bound
            worst_excess = max(worst_excess, err - bound)
            rows.append(f"  eps={eps:<5g} y={y:<4g} phi={phi:+.6f} "
                        f"oracle={oracle[y]:+.6f} err={err:.2e} "
                        f"bound={bound:.0e} {'ok' if ok else 'EXCEEDED'}")
    print("\n".join(rows))
    assert worst_excess <= 0.0, (
        f"graph error exceeds 10*eps^2 by {worst_excess:.2e} at the top of "
        f"the height range (see table)")


def test_a12_entry_chart_wedge_contraction(tmp_path):
    """A 5x5 grid entering the chart funnel leaves with an x1-spread below
    10% of its initial spread."""
    assert run_experiment(ExperimentConfig("k1-vdp"), tmp_path) == 0
    import json
    m = json.loads((tmp_path / "metrics.json").read_text())
    r = m["results"]
    assert r["initial_x1_spread"] > 0.0
    assert r["contraction_ratio"] < 0.10
