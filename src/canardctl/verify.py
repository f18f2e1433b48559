"""Fast self-contained invariant suite behind `canard-ctl verify`.

Every check re-derives a mathematical identity the package relies on and
must finish in well under a second, so the whole suite is cheap enough to
run before any long experiment.  Checks return (ok, detail); the runner
prints one PASS/FAIL line each and a tally, and returns (ok, line) rows.
"""

from __future__ import annotations

import math
import random
from types import MethodType
from typing import Callable, List, Tuple

from .blowup import (
    ChartPointK1,
    ChartPointK2,
    germ_check,
    kappa12,
    kappa21,
)
from .controllers import (
    FoldLaw,
    VdpLaw,
    bump_psi,
    composite_u,
    default_neighborhoods,
    fast_u,
    lyapunov_L2,
    vdp_slow_manifold_phi,
)
from .core import (
    ControllerGains,
    LevelTerm,
    PhasePoint,
    ScaledLevel,
    SystemParams,
    eval_H,
    eval_H1,
    eval_H2,
    eval_level_term,
)
from .errors import DomainError, ExtrapolationError
from .mmo import MmoPattern
from .models import FoldField, fold_rhs
from .sim import IntegratorConfig, integrate

__all__ = ["run_verification"]

_SEED = 20260822

Check = Tuple[str, Callable[[], Tuple[bool, str]]]


def _check_level_term_identity() -> Tuple[bool, str]:
    # c2 = 2, h = 0 must collapse to the bracket with no exponential factor
    lt = LevelTerm(0.01, 2.0, ScaledLevel(0.0, 0.0))
    worst = 0.0
    for i in range(-6, 7):
        for j in range(-6, 7):
            x, y, eps = 0.17 * i, 0.13 * j, 0.01
            got = eval_level_term(x, y, lt)
            want = (y - x * x + 0.5 * eps) / (2.0 * eps)
            worst = max(worst, abs(got - want))
    return worst == 0.0, f"max deviation {worst:g}"


def _check_level_cap() -> Tuple[bool, str]:
    try:
        ScaledLevel(0.3, 0.0)
    except DomainError:
        return True, "levels above 1/4 rejected"
    return False, "ScaledLevel accepted h > 1/4"


def _check_h_conservation() -> Tuple[bool, str]:
    # the plain normal form conserves H exactly; the integrator must track it
    params = SystemParams(0.05, 0.0)
    start = PhasePoint(-0.1, 0.3)
    traj = integrate(
        MethodType(fold_rhs, FoldField(params)),
        lambda p: 0.0, start, (0.0, 6.0),
        IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12),
    )
    h0 = eval_H(start, params.eps)
    drift = max(abs(eval_H(p, params.eps) - h0) for p in zip(*traj.columns))
    rel = drift / abs(h0)
    return rel < 1e-6, f"relative H drift {rel:.3g} over {len(traj)} points"


def _check_chart_round_trip() -> Tuple[bool, str]:
    rng = random.Random(_SEED)
    worst = 0.0
    for _ in range(100):
        cp = ChartPointK1(
            rng.uniform(0.05, 2.0), rng.uniform(-2.0, 2.0),
            rng.uniform(0.05, 3.0), rng.uniform(-0.5, 0.5),
            rng.uniform(-1.0, 1.0),
        )
        back = kappa21(kappa12(cp))
        worst = max(worst, max(abs(a - b) for a, b in zip(cp, back)))
    return worst < 1e-12, f"max round-trip defect {worst:.3g}"


def _check_h1_transport() -> Tuple[bool, str]:
    rng = random.Random(_SEED + 1)
    worst = 0.0
    for _ in range(100):
        cp = ChartPointK2(rng.uniform(0.0, 1.0), rng.uniform(-2.0, 2.0),
                          rng.uniform(0.1, 4.0))
        k1 = kappa21(cp)
        worst = max(worst, abs(eval_H1(k1.x1, k1.eps1) - eval_H2(cp.x2, cp.y2)))
    return worst < 1e-12, f"max |H1 o kappa21 - H2| = {worst:.3g}"


def _check_centre_branch_roots() -> Tuple[bool, str]:
    worst = 0.0
    for eps1 in (0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 3.0):
        root = math.sqrt(1.0 + 0.5 * eps1)
        worst = max(worst, abs(eval_H1(root, eps1)), abs(eval_H1(-root, eps1)))
    return worst < 1e-13, f"max |H1| at the branch roots {worst:.3g}"


def _check_germ_open_loop() -> Tuple[bool, str]:
    rep = germ_check(lambda x, y, eps: -y + x * x, [0.04, 0.02, 0.01, 0.005])
    return rep.passes, (f"f0={rep.f0:.2g} fx={rep.fx:.2g} "
                        f"fxx={rep.fxx:.4g} fy={rep.fy:.4g}")


def _check_germ_rejects_cubic() -> Tuple[bool, str]:
    try:
        rep = germ_check(lambda x, y, eps: -y + x ** 3, [0.04, 0.02, 0.01, 0.005])
    except ExtrapolationError:
        return True, "degenerate layer rejected by extrapolation"
    return not rep.passes, f"degenerate layer fxx={rep.fxx:.2g}"


def _check_germ_closed_loop() -> Tuple[bool, str]:
    gains = ControllerGains(1.0, 2.0)
    level = ScaledLevel(0.25, 400.0)

    # the fast law relocates the closed-loop fold to x = alpha, so the
    # stencil variable is centered there
    def layer(xi: float, y: float, eps: float) -> float:
        params = SystemParams(eps, -0.1)
        x = params.alpha + xi
        u = fast_u(FoldLaw(params, gains, level), PhasePoint(x, y))
        return -y + x * x + u

    rep = germ_check(layer, [0.04, 0.02, 0.01, 0.005])
    defect = max(abs(rep.f0), abs(rep.fx), abs(rep.fxx - 2.0), abs(rep.fy + 1.0))
    return rep.passes and defect < 1e-6, f"max partial defect {defect:.3g}"


def _check_lyapunov_rate() -> Tuple[bool, str]:
    rng = random.Random(_SEED + 2)
    gains = ControllerGains(1.0, 2.0)
    worst = -math.inf
    for _ in range(1000):
        cp = ChartPointK2(0.0, rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        _, rate = lyapunov_L2(cp, gains, 1e-16)
        worst = max(worst, rate)
    return worst <= 0.0, f"max rate {worst:.3g}"


def _check_bump_range() -> Tuple[bool, str]:
    nbhd = default_neighborhoods(0.01)
    lo, hi = math.inf, -math.inf
    for i in range(41):
        for j in range(41):
            p = PhasePoint(-0.5 + i * 0.075, -0.3 + j * 0.05)
            for region in ("N1", "N2"):
                v = bump_psi(p, region, nbhd)
                lo, hi = min(lo, v), max(hi, v)
    plateau = bump_psi(PhasePoint(1.0, 2.0 / 3.0), "N1", nbhd)
    outside = bump_psi(PhasePoint(-2.0, 3.0), "N1", nbhd)
    ok = 0.0 <= lo and hi <= 1.0 and plateau == 1.0 and outside == 0.0
    return ok, f"range [{lo:g}, {hi:g}], plateau {plateau:g}, outside {outside:g}"


def _check_composite_bounded() -> Tuple[bool, str]:
    nbhd = default_neighborhoods(0.01)
    gains = ControllerGains(1.0, 2.0, k1=1.0, x_star=-0.01)
    law = VdpLaw(0.01, gains, nbhd)
    worst = 0.0
    for i in range(400):
        u = composite_u(law, PhasePoint(0.15 + i * 2e-3, 0.01))
        worst = max(worst, abs(u))
    return math.isfinite(worst) and worst < 500.0, f"max |u| = {worst:.4g}"


def _check_slow_manifold_anchor() -> Tuple[bool, str]:
    # first-order height coefficient equals 1 at y = 2/3, so phi = 1 + eps
    nbhd = default_neighborhoods(0.01)
    got = vdp_slow_manifold_phi(2.0 / 3.0, 0.01, nbhd)
    err = abs(got - 1.01)
    return err < 5e-4, f"|phi(2/3, 0.01) - 1.01| = {err:.3g}"


def _check_pattern_round_trip() -> Tuple[bool, str]:
    text = "3L:0.75:0.01,4S:1.25:-0.01"
    pat = MmoPattern.parse(text)
    loops = sum(s.count for s in pat.segments)
    return (pat.compact() == text and loops == 7,
            f"compact {pat.compact()!r}, {loops} loops/cycle")


def _check_integrator_return() -> Tuple[bool, str]:
    # harmonic oscillator must return to its start after one period
    end = integrate(
        lambda s, u: (s[1], -s[0]), lambda s: 0.0, (1.0, 0.0),
        (0.0, 2.0 * math.pi), IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12),
    ).final_state
    err = math.hypot(end[0] - 1.0, end[1])
    return err < 1e-6, f"return defect {err:.3g}"


CHECKS: List[Check] = [
    ("level-term identity (c2=2, h=0)", _check_level_term_identity),
    ("level cap h <= 1/4 enforced", _check_level_cap),
    ("conserved quantity along layer flow", _check_h_conservation),
    ("chart round-trip kappa21 o kappa12", _check_chart_round_trip),
    ("level transport H1 o kappa21 = H2", _check_h1_transport),
    ("centre-branch roots of H1", _check_centre_branch_roots),
    ("fold germ: open loop passes", _check_germ_open_loop),
    ("fold germ: cubic layer rejected", _check_germ_rejects_cubic),
    ("fold germ: fast closed loop preserved", _check_germ_closed_loop),
    ("Lyapunov rate nonpositive", _check_lyapunov_rate),
    ("bump range and plateau", _check_bump_range),
    ("composite control bounded on fold line", _check_composite_bounded),
    ("slow-manifold anchor phi(2/3)", _check_slow_manifold_anchor),
    ("pattern parse round-trip", _check_pattern_round_trip),
    ("integrator periodic return", _check_integrator_return),
]


def run_verification() -> List[Tuple[bool, str]]:
    """Run every check and print one line each to stdout, then the tally;
    return each check's (ok, line), the line as printed."""
    rows = []
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        line = f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})"
        print(line)
        rows.append((bool(ok), line))
    passed = sum(ok for ok, _ in rows)
    print(f"{passed}/{len(rows)} checks passed")
    return rows
