"""Rescaling charts around the fold point, transition maps, and the germ check.

The degenerate point (x, y, eps) = (alpha, 0, 0) is resolved by the weighted
rescaling (x^, y, eps, u, alpha) = (r x1b, r^2 y1b, r^2 eps_b, r^2 mu_b, r alpha_b)
restricted to two directional charts:

    entry chart (y = r1^2):    x^ = r1 x1,  eps = r1^2 eps1,  u = r1^2 mu1,  alpha = r1 alpha1
    central chart (eps = r2^2): x^ = r2 x2,  y = r2^2 y2,      u = r2^2 mu2,  alpha = r2 alpha2

In the central chart the desingularized layer flow is regular at the former
fold and conserves H2; the entry chart covers the approach along the slow
manifold.  Each chart's desingularized field takes its state and the
control last, as ``integrate`` passes them: ``k2_field(field, p, mu2)``,
handed over bound as a method of its ``K2Field`` (``types.MethodType``),
and ``k1_vdp_field(p, mu1)``, which has no constant to bind.  Like the fields
of `models`, each raises OverflowError for a non-finite control value,
which `sim.integrate` turns into an ``overflow-fault``.

``germ_check`` verifies that a (possibly closed-loop) fast equation still
has a quadratic-fold germ at the origin after the control is added: the
defining conditions are f = 0, f_x = 0, f_xx != 0, f_y != 0 at (0, 0) in the
singular limit, estimated by fifth-order finite differences at a decreasing
sequence of eps values and extrapolated to eps = 0.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

from .core import _Record, _require_finite
from .errors import DomainError, ExtrapolationError

__all__ = [
    "ChartPointK1",
    "ChartPointK2",
    "GermReport",
    "K2Field",
    "kappa12",
    "kappa21",
    "k2_field",
    "k1_vdp_field",
    "germ_check",
]


class ChartPointK1(NamedTuple):
    """Entry-chart coordinates (r1, x1, eps1, alpha1, mu1), r1 >= 0, eps1 >= 0."""

    r1: float
    x1: float
    eps1: float
    alpha1: float = 0.0
    mu1: float = 0.0


class ChartPointK2(NamedTuple):
    """Central-chart coordinates (r2, x2, y2, alpha2, mu2), r2 >= 0."""

    r2: float
    x2: float
    y2: float
    alpha2: float = 0.0
    mu2: float = 0.0


class GermReport(_Record):
    """Extrapolated fold-germ data of a layer equation at the origin.

    ``passes`` is true iff |f0| < tol, |fx| < tol, |fxx| > tol and |fy| > tol,
    with tol = 1e-6.
    """

    __slots__ = _fields = ("f0", "fx", "fxx", "fy", "passes")

    def __init__(self, f0: float, fx: float, fxx: float, fy: float,
                 passes: bool):
        super().__init__(f0, fx, fxx, fy, passes)


def kappa12(cp: ChartPointK1) -> ChartPointK2:
    """Entry chart to central chart on the overlap eps1 > 0."""
    if not cp.eps1 > 0.0:
        raise DomainError("kappa12 needs eps1 > 0")
    s = math.sqrt(cp.eps1)
    return ChartPointK2(
        cp.r1 * s,
        cp.x1 / s,
        1.0 / cp.eps1,
        cp.alpha1 / s,
        cp.mu1 / cp.eps1,
    )


def kappa21(cp: ChartPointK2) -> ChartPointK1:
    """Central chart to entry chart on the overlap y2 > 0."""
    if not cp.y2 > 0.0:
        raise DomainError("kappa21 needs y2 > 0")
    s = math.sqrt(cp.y2)
    return ChartPointK1(
        cp.r2 * s,
        cp.x2 / s,
        1.0 / cp.y2,
        cp.alpha2 / s,
        cp.mu2 / cp.y2,
    )


class K2Field(_Record):
    """The constants of the central-chart flow for one run, bound once:
    r2 = sqrt(eps), alpha2, and the gain of the O(r2) shear
    g2 = shear * x2 * (y2 - x2^2), 0.0 for none."""

    __slots__ = _fields = ("r2", "alpha2", "shear")

    def __init__(self, r2: float, alpha2: float, shear: float = 0.0):
        _require_finite(r2=r2, alpha2=alpha2, shear=shear)
        super().__init__(r2, alpha2, shear)


def k2_field(field: K2Field, p: Sequence[float],
             mu2: float) -> tuple[float, float]:
    """Desingularized central-chart flow (x2', y2').

    x2' = -y2 + (x2 + alpha2)^2 + mu2,  y2' = x2 + r2 * g2(x2, y2), with r2,
    alpha2 and the shear gain of g2 bound in ``field``.  ``p`` is the chart
    state (x2, y2).  A non-finite control value raises OverflowError.
    """
    if not 0.0 * mu2 == 0.0:  # mu2 is not finite
        raise OverflowError(f"non-finite control value {mu2!r}")
    x2, y2 = p
    shear = field.shear
    g = 0.0 if shear == 0.0 else shear * x2 * (y2 - x2 * x2)
    s = x2 + field.alpha2
    return (-y2 + s * s + mu2, x2 + field.r2 * g)


def k1_vdp_field(p: Sequence[float],
                 mu1: float) -> tuple[float, float, float]:
    """Desingularized entry-chart van der Pol flow (r1', x1', eps1').

    r1'   =  1/2 r1 eps1 x1
    x1'   = -1 + x1^2 - 1/2 x1^2 eps1 - 1/3 r1 x1^3 + mu1
    eps1' = -eps1^2 x1

    The product r1^2 eps1 (the original eps) is invariant.  ``p`` is a
    :class:`ChartPointK1` or a plain (r1, x1, eps1) tuple, in the order of
    the derivative; ``mu1`` is the control, as the integrator passes it.
    A non-finite control value raises OverflowError.
    """
    if not 0.0 * mu1 == 0.0:  # mu1 is not finite
        raise OverflowError(f"non-finite control value {mu1!r}")
    r1, x1, eps1 = p[0], p[1], p[2]
    return (
        0.5 * r1 * eps1 * x1,
        -1.0 + x1 * x1 - 0.5 * x1 * x1 * eps1 - r1 * x1 ** 3 / 3.0 + mu1,
        -eps1 * eps1 * x1,
    )


# germ check -----------------------------------------------------------------

_FD_STEP = 1e-4
_GERM_TOL = 1e-6


def _aitken_limit(values: Sequence[float], what: str) -> float:
    """Limit of a sequence by two Aitken delta-squared sweeps.

    Raises ExtrapolationError when the raw differences grow instead of
    shrinking, which is how a non-convergent (singular in eps) germ shows up.
    """
    vals = list(values)
    diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
    scale = max(1.0, abs(vals[-1]))
    if diffs and diffs[-1] > 1e-3 * scale and diffs[-1] > 2.0 * diffs[0]:
        raise ExtrapolationError(
            f"{what} estimates diverge along the eps sequence", vals
        )
    for _ in range(2):
        if len(vals) < 3:
            break
        nxt = []
        for v0, v1, v2 in zip(vals, vals[1:], vals[2:]):
            d2 = v2 - 2.0 * v1 + v0
            if d2 == 0.0:
                nxt.append(v2)
            else:
                nxt.append(v2 - (v2 - v1) ** 2 / d2)
        vals = nxt
    return vals[-1]


def germ_check(
    layer_field: Callable[[float, float, float], float],
    eps_sequence: Sequence[float],
) -> GermReport:
    """Quadratic-fold germ test for a layer equation f(x, y, eps) at the origin.

    For each eps in the strictly decreasing positive sequence (length >= 3),
    f, f_x, f_xx and f_y are estimated at (0, 0) with five-point central
    differences of width 1e-4; the per-eps estimates are then extrapolated
    to the singular limit eps -> 0.  Controller contributions that vanish like
    powers of sqrt(eps) are removed by the extrapolation, so the tolerance can
    sit at 1e-6 even though single-eps estimates carry O(sqrt(eps)) terms.
    """
    seq = list(eps_sequence)
    if len(seq) < 3:
        raise DomainError("eps_sequence needs at least 3 entries")
    if any(not (e > 0.0) for e in seq) or any(
        b >= a for a, b in zip(seq, seq[1:])
    ):
        raise DomainError("eps_sequence must be positive and strictly decreasing")

    d = _FD_STEP
    f0s, fxs, fxxs, fys = [], [], [], []
    for eps in seq:
        def F(x: float, y: float) -> float:
            return layer_field(x, y, eps)

        fm2, fm1, f00, fp1, fp2 = (
            F(-2 * d, 0.0), F(-d, 0.0), F(0.0, 0.0), F(d, 0.0), F(2 * d, 0.0)
        )
        gm2, gm1, gp1, gp2 = F(0.0, -2 * d), F(0.0, -d), F(0.0, d), F(0.0, 2 * d)
        f0s.append(f00)
        fxs.append((-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * d))
        fxxs.append((-fp2 + 16.0 * fp1 - 30.0 * f00 + 16.0 * fm1 - fm2) / (12.0 * d * d))
        fys.append((-gp2 + 8.0 * gp1 - 8.0 * gm1 + gm2) / (12.0 * d))

    f0 = _aitken_limit(f0s, "f(0,0)")
    fx = _aitken_limit(fxs, "f_x(0,0)")
    fxx = _aitken_limit(fxxs, "f_xx(0,0)")
    fy = _aitken_limit(fys, "f_y(0,0)")
    tol = _GERM_TOL
    passes = abs(f0) < tol and abs(fx) < tol and abs(fxx) > tol and abs(fy) > tol
    return GermReport(f0, fx, fxx, fy, passes)
