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
`core` and `errors` alone.  Every law a closed loop evaluates at each
field evaluation takes what the run holds fixed first and the state last,
so a runner hands `integrate` the law bound as a method of them
(``types.MethodType``, which CPython calls without leaving its interpreter
loop): `fast_u`, `slow_u`, `k2_mu` and `composite_u` take one bound
record (`FoldLaw`, `K2Law`, `VdpLaw`), which checks the run's constants
and works out what the formula derives from them once, and `k1_vdp_mu`
takes the gains.
`composite_u` evaluates both of its laws, the blown-down entry-chart law
and the fold-local law, in its own frame, and `k1_chart_phi1` its
first-order graph; only the branch root `_phi0` and the two bumps, which
`bump_psi` shares, are calls of their own.  The
fold laws and `composite_u` take their state as an (x, y) sequence,
`k2_mu` as (x2, y2) and `k1_vdp_mu` as (r1, x1, eps1); `lyapunov_L2`
takes (r2, x2, y2, alpha2).  A NamedTuple point and a plain tuple give
the same bits.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

from .core import (
    EXP_GUARD,
    ControllerGains,
    LevelTerm,
    ScaledLevel,
    SystemParams,
    _Record,
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
    "default_neighborhoods",
    "FoldLaw",
    "fast_u",
    "slow_u",
    "K2Law",
    "k2_mu",
    "lyapunov_L2",
    "vdp_slow_manifold_phi",
    "k1_chart_phi1",
    "bump_psi",
    "k1_vdp_mu",
    "VdpLaw",
    "composite_u",
]

# upper fold of the van der Pol critical manifold: the repelling branch
# x in (0, 2) exists for cubic heights y in (0, 4/3)
_UPPER_FOLD_Y = 4.0 / 3.0

# the angle between the three roots of the depressed cubic in _phi0
_TWO_PI_3 = 2.0 * math.pi / 3.0

# widest transition band a bump inequality may spend on easing in and out;
# wide box constraints would otherwise soften the bump over O(1) distances
_MAX_BAND = 0.15


class NeighborhoodParams(_Record):
    """Geometry of the two controller-activation neighborhoods.

    N1 tubes the repelling branch of the critical manifold between heights
    y_min and y_h; N2 boxes the fold parabola.  beta1/beta2 are the tube
    half-widths measured through the defining residuals, x_min/x_max bound
    N2 horizontally, and inner_margin is the fraction of each transition
    band on which the bump has already reached its plateau.
    """

    _fields = ("beta1", "beta2", "x_min", "x_max", "y_min", "y_h",
               "inner_margin")
    # each window's transition band, fixed by the fields; set once here so
    # that a bump evaluation does not recompute it
    __slots__ = _fields + ("_band_n1_y", "_band_n1_g", "_band_n1_x",
                           "_band_n2_x", "_band_n2_g")

    def __init__(self, beta1: float = 0.15, beta2: float = 0.15,
                 x_min: float = 0.3, x_max: float = 0.3, y_min: float = 0.02,
                 y_h: float = 1.25, inner_margin: float = 0.5):
        _require_finite(beta1=beta1, beta2=beta2, x_min=x_min, x_max=x_max,
                        y_min=y_min, y_h=y_h, inner_margin=inner_margin)
        for name, value in (("beta1", beta1), ("beta2", beta2),
                            ("x_min", x_min), ("x_max", x_max),
                            ("y_min", y_min)):
            if value <= 0.0:
                raise DomainError(f"{name} must be > 0, got {value!r}")
        if not y_min < y_h:
            raise DomainError(
                f"y_min < y_h required, got {y_min!r} >= {y_h!r}")
        if y_h > _UPPER_FOLD_Y:
            raise DomainError(
                f"y_h must not exceed {_UPPER_FOLD_Y!r}, got {y_h!r}")
        if not 0.0 < inner_margin < 1.0:
            raise DomainError(
                f"inner_margin must lie in (0, 1), got {inner_margin!r}")
        super().__init__(beta1, beta2, x_min, x_max, y_min, y_h, inner_margin)
        m = inner_margin
        for name, lo, hi in (("_band_n1_y", y_min, y_h),
                             ("_band_n1_g", -beta1, beta1),
                             ("_band_n1_x", 0.0, 2.0),
                             ("_band_n2_x", -x_min, x_max),
                             ("_band_n2_g", -beta2, beta2)):
            object.__setattr__(self, name, _band(lo, hi, m))


def default_neighborhoods(eps: float) -> NeighborhoodParams:
    """Standard activation geometry with the floor y_min = 2*eps.

    The floor keeps the slow manifold within O(eps) of the critical branch
    on the whole of N1 while excluding the fold point itself.
    """
    _require_eps(eps)
    return NeighborhoodParams(y_min=2.0 * eps)


class FoldLaw(_Record):
    """The constants of the fold laws for one run, bound once.

    ``fast_u`` and ``slow_u`` read eps and alpha, the gains c1 and c2 and
    the stored level, which a run holds fixed.  This record checks them
    once, keeps the level term's constants in a :class:`LevelTerm`, and
    works out sqrt(eps), -2*alpha and alpha**2.  ``shear`` is the gain of
    the plant's slow shear g~ = shear*x*(y - x^2) that ``fast_u`` cancels;
    0.0, the default, cancels none, and ``slow_u`` does not read it.
    """

    _fields = ("params", "gains", "level", "shear")
    __slots__ = _fields + ("_term", "_alpha", "_m2_alpha", "_alpha_sq", "_c1",
                           "_sqrt_eps")

    def __init__(self, params: SystemParams, gains: ControllerGains,
                 level: ScaledLevel, shear: float = 0.0):
        # LevelTerm checks eps before sqrt(eps) runs
        term = LevelTerm(params.eps, gains.c2, level)
        _require_finite(shear=shear)
        super().__init__(params, gains, level, shear)
        alpha = params.alpha
        for name, value in (("_term", term), ("_alpha", alpha),
                            ("_m2_alpha", -2.0 * alpha),
                            ("_alpha_sq", alpha ** 2), ("_c1", gains.c1),
                            ("_sqrt_eps", math.sqrt(params.eps))):
            object.__setattr__(self, name, value)


def fast_u(law: FoldLaw, p: Sequence[float]) -> float:
    """Fast-channel canard controller.

    Feeds the stored-level error back along the fast direction; the linear
    part -2*alpha*xh - alpha**2 recenters the fold at the bifurcation value.
    When the plant carries the shear g~ = x*phi_hat with
    phi_hat = shear*(y - x^2), the law's ``shear`` appends the exact
    cancellation term.
    """
    x, y = p
    xh = x - law._alpha
    # eval_level_term checks the point
    term = eval_level_term(xh, y, law._term)
    u = law._m2_alpha * xh - law._alpha_sq \
        + law._c1 * xh * law._sqrt_eps * term
    if law.shear != 0.0:
        u -= law._sqrt_eps * (y - xh * xh) * (law.shear * (y - x * x))
    return u


def slow_u(law: FoldLaw, p: Sequence[float]) -> float:
    """Slow-channel canard controller.

    The factor (y - x**2) vanishes on the critical manifold, so the slow
    equation is unchanged where the reduced flow already lives.
    """
    x, y = p
    # eval_level_term checks the point
    term = eval_level_term(x, y, law._term)
    return law._alpha + law._c1 * (y - x * x) / law._sqrt_eps * term


class K2Law(_Record):
    """The constants of the central-chart law for one run, bound once.

    ``k2_mu`` reads the gains, the stored level h, r2 = sqrt(eps) and
    alpha2, which a run holds fixed; this record checks them once and works
    out c2 - 2, -2*alpha2 and alpha2**2.  ``shear`` is the gain of the
    O(r2) shear g2 = x2*phi2 with phi2 = shear*(y2 - x2^2) that ``k2_mu``
    cancels; 0.0, the default, cancels none.
    """

    _fields = ("gains", "level_h", "r2", "alpha2", "shear")
    __slots__ = _fields + ("_c1", "_c2", "_c2_minus_2", "_m2_alpha2",
                           "_alpha2_sq")

    def __init__(self, gains: ControllerGains, level_h: float, r2: float,
                 alpha2: float, shear: float = 0.0):
        _require_finite(r2=r2, alpha2=alpha2, level_h=level_h, shear=shear)
        super().__init__(gains, level_h, r2, alpha2, shear)
        for name, value in (("_c1", gains.c1), ("_c2", gains.c2),
                            ("_c2_minus_2", gains.c2 - 2.0),
                            ("_m2_alpha2", -2.0 * alpha2),
                            ("_alpha2_sq", alpha2 ** 2)):
            object.__setattr__(self, name, value)


def k2_mu(law: K2Law, p: Sequence[float]) -> float:
    """Level-stabilizing controller in the central chart.

    Implements -2*a2*x2 - a2**2 + c1*x2*exp(c2*y2)*(H2 - h) with the
    exponentials combined per term: exp(c2*y2)*H2 collapses to
    exp((c2-2)*y2) times a polynomial, so only the h-term ever carries the
    raw c2*y2 exponent.  The law's ``shear`` appends the correction that
    cancels an O(r2) shear g2 = x2*phi2.  ``p`` is the chart state (x2, y2).
    """
    x2, y2 = p
    if not 0.0 * x2 * y2 == 0.0:
        _require_finite(x2=x2, y2=y2)
    if law._c2 == 2.0:
        # the weight is exp(+-0.0) = 1.0, and 1.0 * 0.5 is 0.5
        level_term = 0.5 * (y2 - x2 * x2 + 0.5)
    else:
        e1 = law._c2_minus_2 * y2
        if e1 > EXP_GUARD:
            raise ExponentOverflowError("(c2-2)*y2", e1)
        level_term = math.exp(e1) * 0.5 * (y2 - x2 * x2 + 0.5)
    level_h = law.level_h
    if level_h != 0.0:
        e2 = law._c2 * y2
        if e2 > EXP_GUARD:
            raise ExponentOverflowError("c2*y2", e2)
        level_term -= level_h * math.exp(e2)
    mu = law._m2_alpha2 * x2 - law._alpha2_sq + law._c1 * x2 * level_term
    if law.shear != 0.0:
        mu -= (y2 - x2 * x2) * law.r2 * (law.shear * (y2 - x2 * x2))
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
        x = 1.0 + 2.0 * math.cos(math.acos(a) / 3.0 - _TWO_PI_3)
    fx = 2.0 * x - x * x
    if fx != 0.0:
        x -= (x * x - x ** 3 / 3.0 - y) / fx
        fx = 2.0 * x - x * x
        if fx != 0.0:
            x -= (x * x - x ** 3 / 3.0 - y) / fx
    return x


def _phi_expansion(y: float, eps: float) -> float:
    """First-order graph phi0 + eps*phi0/(2*phi0 - phi0**2)**2 at height y;
    `k1_chart_phi1` and `composite_u` write it out in their own frames."""
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


# r1 ceiling: the repelling equilibrium curve in the entry chart exists
# only up to r1 = 2/sqrt(3)
_R1_MAX = 2.0 / math.sqrt(3.0)


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
    if r1 >= _R1_MAX:
        raise DomainError(
            f"r1 must stay below 2/sqrt(3) on the repelling branch, got {r1!r}")
    if r1 < 1e-8:
        return math.sqrt(1.0 + 0.5 * eps1)
    # _phi_expansion(y, y*eps1), in this frame
    y = r1 * r1
    p0 = _phi0(y)
    fx = 2.0 * p0 - p0 * p0
    if fx == 0.0:
        _phi_expansion(y, y * eps1)  # raises: the branch is not hyperbolic
    return (p0 + y * eps1 * (p0 / (fx * fx))) / r1


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


def k1_vdp_mu(gains: ControllerGains, p: Sequence[float]) -> float:
    """Centre-manifold controller in the entry chart.

    Reverses the layer direction, recenters it at the offset x_star, and
    adds the invariance plus variational correction that pins the graph
    {x1 = x_star + phi1}, phi1 = :func:`k1_chart_phi1`, as an exponentially
    attracting centre manifold with transverse rate -(2*phi1 + k1).  It
    reads only k1 and x_star of the gains.  ``p`` is a :class:`ChartPointK1`
    or a plain (r1, x1, eps1) tuple.
    """
    r1, x1, eps1 = p[0], p[1], p[2]
    if not 0.0 * r1 * x1 * eps1 == 0.0:  # see core._require_finite
        _require_finite(r1=r1, x1=x1, eps1=eps1)
    ph = k1_chart_phi1(r1, eps1)
    if abs(ph) < 1e-12:
        raise SingularConfigurationError(
            "phi1 vanishes at the fold; the invariance correction divides by it")
    xs = gains.x_star
    d = x1 - xs
    # f1(x) = -1 + x**2 - x**2*eps1/2 - r1*x**3/3, written out at ph, x1, d
    v = ((2.0 * ph + xs) / ph
         * (-1.0 + ph * ph - 0.5 * ph * ph * eps1 - r1 * ph ** 3 / 3.0)
         - (eps1 * ph + r1 * ph * ph + gains.k1) * (d - ph))
    return (-(-1.0 + x1 * x1 - 0.5 * x1 * x1 * eps1 - r1 * x1 ** 3 / 3.0)
            - (-1.0 + d * d - 0.5 * d * d * eps1 - r1 * d ** 3 / 3.0) + v)


class VdpLaw(_Record):
    """The constants of ``composite_u`` for one pattern segment, bound once.

    ``composite_u`` reads eps, checked here, the gains and the activation
    neighborhoods, which a segment holds fixed; this record keeps the gains
    it reads (x_star and k1 for the branch-pinning law, c1 for the
    fold-local one) and works out sqrt(eps).  A record built again, by
    ``_replace`` or from gains with another x_star, binds them again.
    """

    _fields = ("eps", "gains", "nbhd")
    __slots__ = _fields + ("_x_star", "_k1", "_c1", "_sqrt_eps")

    def __init__(self, eps: float, gains: ControllerGains,
                 nbhd: NeighborhoodParams):
        _require_eps(eps)
        super().__init__(eps, gains, nbhd)
        for name, value in (("_x_star", gains.x_star), ("_k1", gains.k1),
                            ("_c1", gains.c1), ("_sqrt_eps", math.sqrt(eps))):
            object.__setattr__(self, name, value)


def composite_u(law: VdpLaw, p: Sequence[float]) -> float:
    """Normalized blend of the branch-pinning and fold-local controllers.

    Where one bump alone is active its controller acts with full
    authority; on the overlap plateau the blend is the mean of the two.
    The envelope factor (s - psi1*psi2)/s with s = psi1 + psi2 keeps the
    blend C2 where a support boundary is crossed.  Both laws are evaluated
    here, each only where its bump is positive: u1, the entry-chart law
    ``k1_vdp_mu`` blown down to (x, y) about the first-order graph of
    ``vdp_slow_manifold_phi``, and u2, the h = 0, c2 = 2 fast law in
    closed form.
    """
    x, y = p
    nbhd = law.nbhd
    psi1 = _psi_n1(x, y, nbhd)
    psi2 = _psi_n2(x, y, nbhd)
    if psi1 == 0.0 and psi2 == 0.0:
        return 0.0
    eps = law.eps
    xx = x * x
    u1 = u2 = 0.0
    if psi1 > 0.0:
        # psi1 > 0 puts (x, y) finite inside N1, so y lies in (y_min, y_h),
        # the domain of the slow-manifold graph
        # phi = _phi_expansion(y, eps), in this frame
        p0 = _phi0(y)
        fx = 2.0 * p0 - p0 * p0
        if fx == 0.0:
            _phi_expansion(y, eps)  # raises: the branch is not hyperbolic
        phi = p0 + eps * (p0 / (fx * fx))
        sy = math.sqrt(y)
        xs = law._x_star * sy
        y2 = 2.0 * y
        v1 = ((2.0 * phi + xs) / phi
              * (-y + phi * phi - eps / y2 * phi * phi - phi ** 3 / 3.0)
              - (eps / y * phi + sy * phi * phi + law._k1 * sy)
              * (x - phi - xs))
        d = x - xs
        dd = d * d
        # -f(x) - f(x - xs) + v1, f(x) = -y + x^2 - x^2*eps/(2y) - x^3/3
        u1 = (-(-y + xx - xx * eps / y2 - x ** 3 / 3.0)
              - (-y + dd - dd * eps / y2 - d ** 3 / 3.0) + v1)
    if psi2 > 0.0:
        u2 = law._c1 * x / law._sqrt_eps * (y - xx + 0.5 * eps)
    s = psi1 + psi2
    return (psi1 * u1 + psi2 * u2) * (s - psi1 * psi2) / s
