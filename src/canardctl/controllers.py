"""Feedback laws that stabilize canard cycles.

Two one-parameter families act near the fold: a fast-channel law that feeds
the conserved-level error back through the fast equation and a slow-channel
law that does the same through the slow equation.  Their chart-K2 ancestor
(`k2_mu`) and its Lyapunov certificate (`lyapunov_L2`) are exposed for the
scaled system.  For the van der Pol oscillator the fold-local law is combined
with a centre-manifold controller that pins the repelling slow branch
(`k1_vdp_mu` in the entry chart, blown down inside `composite_u`), localized
by C2 bump functions subordinate to two overlapping neighborhoods.

All evaluations are closed-form pure functions of the state and frozen
parameter blocks; no law integrates anything, and the module builds on
`core` and `errors` alone.  The fold laws and `composite_u` take their
point as an (x, y) sequence, `k2_mu` and `lyapunov_L2` take
(r2, x2, y2, alpha2) and `k1_vdp_mu` takes (r1, x1, eps1), so a NamedTuple
point and a plain tuple give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, Tuple

from .core import (
    EXP_GUARD,
    ControllerGains,
    ScaledLevel,
    SystemParams,
    _require_eps,
    _require_finite,
    eval_H2,
    eval_level_term,
)
from .errors import (
    DomainError,
    ExponentOverflowError,
    SingularConfigurationError,
)

__all__ = [
    "NeighborhoodParams",
    "K1Domain",
    "default_neighborhoods",
    "fast_u",
    "slow_u",
    "k2_mu",
    "lyapunov_L2",
    "vdp_slow_manifold_phi",
    "k1_chart_phi1",
    "bump_psi",
    "k1_vdp_mu",
    "composite_u",
]

# upper fold of the van der Pol critical manifold: the repelling branch
# x in (0, 2) exists for cubic heights y in (0, 4/3)
_UPPER_FOLD_Y = 4.0 / 3.0

# widest transition band a bump inequality may spend on easing in and out;
# wide box constraints would otherwise soften the bump over O(1) distances
_MAX_BAND = 0.15


@dataclass(frozen=True)
class NeighborhoodParams:
    """Geometry of the two controller-activation neighborhoods.

    N1 tubes the repelling branch of the critical manifold between heights
    y_min and y_h; N2 boxes the fold parabola.  beta1/beta2 are the tube
    half-widths measured through the defining residuals, x_min/x_max bound
    N2 horizontally, and inner_margin is the fraction of each transition
    band on which the bump has already reached its plateau.
    """

    beta1: float = 0.15
    beta2: float = 0.15
    x_min: float = 0.3
    x_max: float = 0.3
    y_min: float = 0.02
    y_h: float = 1.25
    inner_margin: float = 0.5
    # each window's transition band, fixed by the fields above; set once here
    # so that a bump evaluation does not recompute it
    _band_n1_y: float = field(init=False, repr=False, compare=False)
    _band_n1_g: float = field(init=False, repr=False, compare=False)
    _band_n1_x: float = field(init=False, repr=False, compare=False)
    _band_n2_x: float = field(init=False, repr=False, compare=False)
    _band_n2_g: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_finite(beta1=self.beta1, beta2=self.beta2, x_min=self.x_min,
                        x_max=self.x_max, y_min=self.y_min, y_h=self.y_h,
                        inner_margin=self.inner_margin)
        for name in ("beta1", "beta2", "x_min", "x_max", "y_min"):
            if getattr(self, name) <= 0.0:
                raise DomainError(f"{name} must be > 0, got {getattr(self, name)!r}")
        if not self.y_min < self.y_h:
            raise DomainError(
                f"y_min < y_h required, got {self.y_min!r} >= {self.y_h!r}")
        if self.y_h > _UPPER_FOLD_Y:
            raise DomainError(
                f"y_h must not exceed {_UPPER_FOLD_Y!r}, got {self.y_h!r}")
        if not 0.0 < self.inner_margin < 1.0:
            raise DomainError(
                f"inner_margin must lie in (0, 1), got {self.inner_margin!r}")
        m = self.inner_margin
        for name, lo, hi in (("_band_n1_y", self.y_min, self.y_h),
                             ("_band_n1_g", -self.beta1, self.beta1),
                             ("_band_n1_x", 0.0, 2.0),
                             ("_band_n2_x", -self.x_min, self.x_max),
                             ("_band_n2_g", -self.beta2, self.beta2)):
            object.__setattr__(self, name, _band(lo, hi, m))


def default_neighborhoods(eps: float, y_h: float = 1.25) -> NeighborhoodParams:
    """Standard activation geometry with the floor y_min = 2*eps.

    The floor keeps the slow manifold within O(eps) of the critical branch
    on the whole of N1 while excluding the fold point itself.
    """
    _require_eps(eps)
    return NeighborhoodParams(y_min=2.0 * eps, y_h=y_h)


# rho1 ceiling: the repelling equilibrium curve in the entry chart exists
# only up to r1 = 2/sqrt(3)
_RHO1_MAX = 2.0 / math.sqrt(3.0)


@dataclass(frozen=True)
class K1Domain:
    """Entry-chart box and sections for the centre-manifold controller.

    The flow enters through {eps1 = delta1} and exits through {r1 = rho1};
    the transported rectangle has half-height sigma1 around the closed-loop
    branch and radial extent rho1_tilde.
    """

    rho1: float = 0.6
    delta1: float = 0.1
    sigma1: float = 0.1
    rho1_tilde: float = 0.25

    def __post_init__(self):
        _require_finite(rho1=self.rho1, delta1=self.delta1,
                        sigma1=self.sigma1, rho1_tilde=self.rho1_tilde)
        if not 0.0 < self.rho1 < _RHO1_MAX:
            raise DomainError(
                f"rho1 must lie in (0, 2/sqrt(3)), got {self.rho1!r}")
        if self.delta1 <= 0.0:
            raise DomainError(f"delta1 must be > 0, got {self.delta1!r}")
        if self.sigma1 <= 0.0:
            raise DomainError(f"sigma1 must be > 0, got {self.sigma1!r}")
        if not 0.0 < self.rho1_tilde < self.rho1:
            raise DomainError(
                f"rho1_tilde must lie in (0, rho1), got {self.rho1_tilde!r}")


def fast_u(p: Sequence[float], params: SystemParams, gains: ControllerGains,
           level: ScaledLevel, phi_hat=None) -> float:
    """Fast-channel canard controller.

    Feeds the stored-level error back along the fast direction; the linear
    part -2*alpha*xh - alpha**2 recenters the fold at the bifurcation value.
    When the plant carries a known shear perturbation g = x*phi_hat, passing
    phi_hat appends the exact cancellation term.
    """
    x, y = p
    eps = params.eps
    if not (0.0 * eps == 0.0 and eps > 0.0):  # see core._require_finite
        _require_eps(eps)
    xh = x - params.alpha
    term = eval_level_term((xh, y), eps, gains.c2, level)
    u = -2.0 * params.alpha * xh - params.alpha ** 2 \
        + gains.c1 * xh * math.sqrt(eps) * term
    if phi_hat is not None:
        u -= math.sqrt(eps) * (y - xh * xh) * phi_hat(x, y, eps, params.alpha)
    return u


def slow_u(p: Sequence[float], params: SystemParams, gains: ControllerGains,
           level: ScaledLevel) -> float:
    """Slow-channel canard controller.

    The factor (y - x**2) vanishes on the critical manifold, so the slow
    equation is unchanged where the reduced flow already lives.
    """
    x, y = p
    eps = params.eps
    if not (0.0 * eps == 0.0 and eps > 0.0):  # see core._require_finite
        _require_eps(eps)
    term = eval_level_term(p, eps, gains.c2, level)
    return params.alpha + gains.c1 * (y - x * x) / math.sqrt(eps) * term


def k2_mu(cp: Sequence[float], gains: ControllerGains, level_h: float,
          phi2=None) -> float:
    """Level-stabilizing controller in the central chart.

    Implements -2*a2*x2 - a2**2 + c1*x2*exp(c2*y2)*(H2 - h) with the
    exponentials combined per term: exp(c2*y2)*H2 collapses to
    exp((c2-2)*y2) times a polynomial, so only the h-term ever carries the
    raw c2*y2 exponent.  An O(r2) shear g2 = x2*phi2 is cancelled by the
    optional phi2 correction.  ``cp`` is a :class:`ChartPointK2` or a plain
    (r2, x2, y2, alpha2) tuple.
    """
    r2, x2, y2, alpha2 = cp[0], cp[1], cp[2], cp[3]
    if not 0.0 * r2 * x2 * y2 * alpha2 * level_h == 0.0:
        _require_finite(r2=r2, x2=x2, y2=y2, alpha2=alpha2, level_h=level_h)
    if gains.c2 == 2.0:
        # the weight is exp(+-0.0) = 1.0, and 1.0 * 0.5 is 0.5
        level_term = 0.5 * (y2 - x2 * x2 + 0.5)
    else:
        e1 = (gains.c2 - 2.0) * y2
        if e1 > EXP_GUARD:
            raise ExponentOverflowError("(c2-2)*y2", e1)
        level_term = math.exp(e1) * 0.5 * (y2 - x2 * x2 + 0.5)
    if level_h != 0.0:
        e2 = gains.c2 * y2
        if e2 > EXP_GUARD:
            raise ExponentOverflowError("c2*y2", e2)
        level_term -= level_h * math.exp(e2)
    mu = -2.0 * alpha2 * x2 - alpha2 ** 2 + gains.c1 * x2 * level_term
    if phi2 is not None:
        mu -= (y2 - x2 * x2) * r2 * phi2(r2, x2, y2, alpha2)
    return mu


def lyapunov_L2(cp: Sequence[float], gains: ControllerGains,
                level_h: float) -> Tuple[float, float]:
    """Level-error Lyapunov function and its closed-loop decay rate.

    Returns (L2, L2_rate) with L2 = (H2 - h)**2 / 2.  The rate is
    nonpositive for every state and every c2; it vanishes exactly on the
    target level set and on the axis {x2 = 0}.  ``cp`` is a
    :class:`ChartPointK2` or a plain (r2, x2, y2, alpha2) tuple.
    """
    x2, y2 = cp[1], cp[2]
    if not (math.isfinite(x2) and math.isfinite(y2)
            and math.isfinite(level_h)):
        _require_finite(x2=x2, y2=y2, level_h=level_h)
    ht = eval_H2(x2, y2) - level_h
    l2 = 0.5 * ht * ht
    # diagnostic: clamp instead of raising so the rate stays plottable
    e = min((gains.c2 - 2.0) * y2, EXP_GUARD)
    rate = -gains.c1 * x2 * x2 * math.exp(e) * ht * ht
    return l2, rate


def _phi0(y: float) -> float:
    """Root of x**2 - x**3/3 = y on the repelling branch 0 < x < 2.

    Closed-form trigonometric root of the depressed cubic, polished by two
    Newton steps; near y = 0 the arccos argument loses precision, so a
    square-root series seeds Newton instead.  Written out without a loop or
    min/max calls, since every evaluation of the slow-manifold graph runs it.
    """
    if not 0.0 <= y <= _UPPER_FOLD_Y:
        raise DomainError(
            f"height must lie in [0, 4/3] for a repelling-branch root, got {y!r}")
    if y == 0.0:
        return 0.0
    if y < 1e-3:
        x = math.sqrt(y) + y / 6.0
    else:
        q = 3.0 * y - 2.0
        a = -0.5 * q
        if a > 1.0:
            a = 1.0
        elif a < -1.0:
            a = -1.0
        x = 1.0 + 2.0 * math.cos(math.acos(a) / 3.0 - 2.0 * math.pi / 3.0)
    fx = 2.0 * x - x * x
    if fx != 0.0:
        x -= (x * x - x ** 3 / 3.0 - y) / fx
        fx = 2.0 * x - x * x
        if fx != 0.0:
            x -= (x * x - x ** 3 / 3.0 - y) / fx
    return x


def _phi_expansion(y: float, eps: float) -> float:
    """First-order graph phi0 + eps*phi0/(2*phi0 - phi0**2)**2 at height y."""
    p0 = _phi0(y)
    fx = 2.0 * p0 - p0 * p0
    if fx == 0.0:
        raise SingularConfigurationError(
            f"slow branch loses hyperbolicity at height {y!r}")
    return p0 + eps * (p0 / (fx * fx))


def vdp_slow_manifold_phi(y: float, eps: float,
                          nbhd: NeighborhoodParams) -> float:
    """Graph x = phi(y, eps) of the repelling slow manifold.

    First-order expansion phi0(y) + eps*phi0/(2*phi0 - phi0**2)**2 about the
    critical branch, on the height range [y_min, y_h] of N1.
    """
    if not (math.isfinite(y) and math.isfinite(eps)):
        _require_finite(y=y, eps=eps)
    if eps < 0.0:
        raise DomainError(f"eps must be >= 0, got {eps!r}")
    if not nbhd.y_min <= y <= nbhd.y_h:
        raise DomainError(
            f"height {y!r} outside the graph domain "
            f"[{nbhd.y_min!r}, {nbhd.y_h!r}]")
    return _phi_expansion(y, eps)


def k1_chart_phi1(r1: float, eps1: float) -> float:
    """Entry-chart graph x1 = phi1(r1, eps1) of the repelling slow branch.

    Blow-down sends {x1 = phi1} to {x = sqrt(y)*phi1} with y = r1**2 and
    eps = r1**2*eps1, so phi1 = phi(r1**2, r1**2*eps1)/r1 away from r1 = 0
    and extends to the centre-branch root sqrt(1 + eps1/2) on {r1 = 0}.
    """
    if not 0.0 * r1 * eps1 == 0.0:  # see core._require_finite
        _require_finite(r1=r1, eps1=eps1)
    if r1 < 0.0 or eps1 < 0.0:
        raise DomainError(f"chart coordinates must be >= 0, got r1={r1!r}, "
                          f"eps1={eps1!r}")
    if r1 >= _RHO1_MAX:
        raise DomainError(
            f"r1 must stay below 2/sqrt(3) on the repelling branch, got {r1!r}")
    if r1 < 1e-8:
        return math.sqrt(1.0 + 0.5 * eps1)
    y = r1 * r1
    return _phi_expansion(y, y * eps1) / r1


def _smoothstep(t: float) -> float:
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def _band(lo: float, hi: float, margin: float) -> float:
    """Width of the easing band at either end of the window on (lo, hi)."""
    return (1.0 - margin) * min(0.5 * (hi - lo), _MAX_BAND)


# Each bump rejects on its cheapest window first, then multiplies the
# windows in a fixed order, skipping the factor 1.0 of a window on its
# plateau; _smoothstep runs only inside a transition band.  A window is
# zero outside lo < v < hi (so a nan gives a zero bump), 1 on its plateau
# [lo + band, hi - band], and eases in and out on the bands between, whose
# widths NeighborhoodParams keeps.

def _psi_n1(x: float, y: float, nbhd: NeighborhoodParams) -> float:
    y_lo, y_hi = nbhd.y_min, nbhd.y_h
    if not y_lo < y < y_hi:
        return 0.0
    g = -y + x * x - x ** 3 / 3.0
    lo, hi = -nbhd.beta1, nbhd.beta1
    if not (lo < g < hi and 0.0 < x < 2.0):
        return 0.0
    psi = 1.0
    band = nbhd._band_n1_g
    if not lo + band <= g <= hi - band:
        psi = _smoothstep((g - lo) / band if g < lo + band else (hi - g) / band)
    band = nbhd._band_n1_x
    if not band <= x <= 2.0 - band:  # the window on 0 < x < 2
        psi *= _smoothstep(x / band if x < band else (2.0 - x) / band)
    band = nbhd._band_n1_y
    if not y_lo + band <= y <= y_hi - band:
        psi *= _smoothstep((y - y_lo) / band if y < y_lo + band
                           else (y_hi - y) / band)
    return psi


def _psi_n2(x: float, y: float, nbhd: NeighborhoodParams) -> float:
    x_lo, x_hi = -nbhd.x_min, nbhd.x_max
    if not x_lo < x < x_hi:
        return 0.0
    g = -y + x * x
    lo, hi = -nbhd.beta2, nbhd.beta2
    if not lo < g < hi:
        return 0.0
    psi = 1.0
    band = nbhd._band_n2_g
    if not lo + band <= g <= hi - band:
        psi = _smoothstep((g - lo) / band if g < lo + band else (hi - g) / band)
    band = nbhd._band_n2_x
    if not x_lo + band <= x <= x_hi - band:
        psi *= _smoothstep((x - x_lo) / band if x < x_lo + band
                           else (x_hi - x) / band)
    return psi


def bump_psi(p: Sequence[float], region: str, nbhd: NeighborhoodParams) -> float:
    """C2 bump localizing a controller to one activation neighborhood.

    One quintic-smoothstep window per defining inequality, multiplied; the
    product is 1 on the margin-shrunk interior and 0 outside the region.
    """
    x, y = p
    if region == "N1":
        return _psi_n1(x, y, nbhd)
    if region == "N2":
        return _psi_n2(x, y, nbhd)
    raise DomainError(f"region must be 'N1' or 'N2', got {region!r}")


def _f1(r1: float, eps1: float, x1: float) -> float:
    return -1.0 + x1 * x1 - 0.5 * x1 * x1 * eps1 - r1 * x1 ** 3 / 3.0


def k1_vdp_mu(p: Sequence[float], gains: ControllerGains,
              phi1: Callable[[float, float], float]) -> float:
    """Centre-manifold controller in the entry chart.

    Reverses the layer direction, recenters it at the offset x_star, and
    adds the invariance plus variational correction that pins the graph
    {x1 = x_star + phi1} as an exponentially attracting centre manifold
    with transverse rate -(2*phi1 + k1).  ``p`` is a :class:`ChartPointK1`
    or a plain (r1, x1, eps1) tuple.
    """
    r1, x1, eps1 = p[0], p[1], p[2]
    if not 0.0 * r1 * x1 * eps1 == 0.0:  # see core._require_finite
        _require_finite(r1=r1, x1=x1, eps1=eps1)
    ph = phi1(r1, eps1)
    if abs(ph) < 1e-12:
        raise SingularConfigurationError(
            "phi1 vanishes at the fold; the invariance correction divides by it")
    xs = gains.x_star
    v = ((2.0 * ph + xs) / ph * _f1(r1, eps1, ph)
         - (eps1 * ph + r1 * ph * ph + gains.k1) * (x1 - xs - ph))
    return -_f1(r1, eps1, x1) - _f1(r1, eps1, x1 - xs) + v


def _vdp_u1(p: Sequence[float], eps: float, gains: ControllerGains) -> float:
    """Blow-down of the entry-chart controller to original coordinates.

    Called only where psi1 > 0, which puts (x, y) finite inside N1, so y
    lies in (y_min, y_h), the domain of the slow-manifold graph.
    """
    x, y = p
    phi = _phi_expansion(y, eps)
    sy = math.sqrt(y)
    xs = gains.x_star * sy
    v1 = ((2.0 * phi + xs) / phi
          * (-y + phi * phi - eps / (2.0 * y) * phi * phi - phi ** 3 / 3.0)
          - (eps / y * phi + sy * phi * phi + gains.k1 * sy) * (x - phi - xs))
    d = x - xs
    return (-(-y + x * x - x * x * eps / (2.0 * y) - x ** 3 / 3.0)
            - (-y + d * d - d * d * eps / (2.0 * y) - d ** 3 / 3.0) + v1)


def _vdp_u2(p: Sequence[float], eps: float, gains: ControllerGains) -> float:
    """Fold-local law: the h = 0, c2 = 2 fast controller in closed form."""
    x, y = p
    return gains.c1 * x / math.sqrt(eps) * (y - x * x + 0.5 * eps)


def composite_u(p: Sequence[float], eps: float, gains: ControllerGains,
                nbhd: NeighborhoodParams) -> float:
    """Normalized blend of the branch-pinning and fold-local controllers.

    Where one bump alone is active its controller acts with full
    authority; on the overlap plateau the blend is the mean of the two.
    The envelope factor (s - psi1*psi2)/s with s = psi1 + psi2 keeps the
    blend C2 where a support boundary is crossed.
    """
    if not (0.0 * eps == 0.0 and eps > 0.0):  # see core._require_finite
        _require_eps(eps)
    x, y = p
    psi1 = _psi_n1(x, y, nbhd)
    psi2 = _psi_n2(x, y, nbhd)
    if psi1 == 0.0 and psi2 == 0.0:
        return 0.0
    u1 = _vdp_u1(p, eps, gains) if psi1 > 0.0 else 0.0
    u2 = _vdp_u2(p, eps, gains) if psi2 > 0.0 else 0.0
    s = psi1 + psi2
    return (psi1 * u1 + psi2 * u2) * (s - psi1 * psi2) / s
