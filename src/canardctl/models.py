"""Vector fields: fold normal form with a slow remainder, and van der Pol.

Both systems are written in the fast time scale,

    fold:  x' = -y + x^2 + u_fast
           y' = eps (x - alpha + g~(x, y, eps, alpha) + u_slow)

    vdp:   x' = -y + x^2 - x^3/3 + u
           y' = eps x

with exactly one of u_fast/u_slow active, selected by the actuation channel.
The closure g~ carries whatever smooth slow remainder the application needs;
the fold control laws additionally require the shifted slow remainder to
factor as g^(x^, y, eps, alpha) = x^ * phi^, and callers supplying
``phi_hat`` assert that factorization themselves.

Each field takes its point as an (x, y) sequence, a :class:`PhasePoint` or
a plain tuple alike, and returns the velocity as a plain (dx, dy) tuple.  A
non-finite control value raises OverflowError, which `sim.integrate` turns
into an ``overflow-fault``.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .core import SystemParams, _Record
from .errors import DomainError

__all__ = [
    "HigherOrderTerms",
    "zero_terms",
    "parabolic_shear_terms",
    "quadratic_gap_phi2",
    "fold_rhs",
    "vdp_rhs",
]

HotFn = Callable[[float, float, float, float], float]


class HigherOrderTerms(_Record):
    """Smooth slow remainder of the fold normal form.

    ``g_tilde`` takes (x, y, eps, alpha) and perturbs the slow equation.
    ``phi_hat``, when present, takes (x^, y, eps, alpha) with x^ = x - alpha
    and must satisfy g~(x, y, .) = x^ * phi_hat(x^, y, .); the compensating
    controllers consume it directly.
    """

    __slots__ = _fields = ("g_tilde", "phi_hat")

    def __init__(self, g_tilde: HotFn, phi_hat: HotFn | None = None):
        super().__init__(g_tilde, phi_hat)


def _zero(x: float, y: float, eps: float, alpha: float) -> float:
    return 0.0


def zero_terms() -> HigherOrderTerms:
    """The plain normal form: no slow remainder."""
    return HigherOrderTerms(_zero)


def parabolic_shear_terms(gain: float = 100.0) -> HigherOrderTerms:
    """Slow-equation coupling g~ = gain * x * (y - x^2).

    The factorization g~ = x * phi_hat with phi_hat = gain * (y - x^2)
    holds at alpha = 0 only, which is the configuration this preset is
    meant for.
    """

    def g_tilde(x: float, y: float, eps: float, alpha: float) -> float:
        return gain * x * (y - x * x)

    def phi_hat(xh: float, y: float, eps: float, alpha: float) -> float:
        return gain * (y - xh * xh)

    return HigherOrderTerms(g_tilde, phi_hat)


def quadratic_gap_phi2(r2: float, x2: float, y2: float, alpha2: float) -> float:
    """Chart-level slow remainder factor phi2 = y2 - x2^2."""
    return y2 - x2 * x2


def fold_rhs(
    p: Sequence[float],
    params: SystemParams,
    hot: HigherOrderTerms,
    u: float,
    channel: str = "fast",
) -> tuple[float, float]:
    """Fold normal form velocity (dx, dy) with the control injected on one channel."""
    if not 0.0 * u == 0.0:  # u is not finite
        raise OverflowError(f"non-finite control value {u!r}")
    x, y = p
    eps, alpha = params.eps, params.alpha
    g = hot.g_tilde
    # zero_terms() adds the 0.0 _zero would return without calling it;
    # adding it still turns a -0.0 into +0.0
    gt = 0.0 if g is _zero else g(x, y, eps, alpha)
    if channel == "fast":
        return (-y + x * x + u, eps * (x - alpha + gt))
    if channel == "slow":
        return (-y + x * x, eps * (x - alpha + gt + u))
    raise DomainError(f"unknown actuation channel {channel!r}")


def vdp_rhs(p: Sequence[float], eps: float, u: float) -> tuple[float, float]:
    """Van der Pol velocity (dx, dy) in Lienard form with fast-channel control."""
    if not 0.0 * u == 0.0:  # u is not finite
        raise OverflowError(f"non-finite control value {u!r}")
    x, y = p
    return (-y + x * x - x ** 3 / 3.0 + u, eps * x)
