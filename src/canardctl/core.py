"""Conserved quantity of the fold layer flow and log-domain level arithmetic.

The uncontrolled layer flow near a quadratic fold conserves

    H(x, y; eps) = 1/2 exp(-2y/eps) (y/eps - x^2/eps + 1/2),

whose closed level sets {H = h}, 0 < h <= 1/4, are the canard cycles and whose
zero set is the maximal canard y = x^2 - eps/2.  In the self-similar variables
x2 = x/sqrt(eps), y2 = y/eps the same quantity is

    H2(x2, y2) = 1/2 exp(-2 y2) (y2 - x2^2 + 1/2),

and in the entry-chart variables x1 = x/sqrt(y), eps1 = eps/y it is

    H1(x1, eps1) = 1/2 exp(-2/eps1) ((1 - x1^2)/eps1 + 1/2).

Interesting levels are exponentially small (h ~ exp(-E) with E of order 1/eps),
far below the double-precision floor, so levels are stored in mantissa/exponent
form ``h = h0 * exp(-E)`` and every controller expression that needs exp(c2*y/eps)*(H - h)
is evaluated with combined exponents by :func:`eval_level_term` rather than by
forming H and h separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import DomainError, ExponentOverflowError

__all__ = [
    "EXP_GUARD",
    "H_ZERO_EXPONENT",
    "SystemParams",
    "ControllerGains",
    "ScaledLevel",
    "PhasePoint",
    "eval_H",
    "eval_H2",
    "eval_H1",
    "eval_level_term",
]

# exp() guard: |exponent| beyond this raises instead of overflowing at ~709.78
EXP_GUARD = 700.0

# 2y/eps beyond this returns an exact 0.0 for H; exp has long underflowed and
# no admissible bracket magnitude can bring the product back to normal range
H_ZERO_EXPONENT = 1490.0


# The laws run once per field evaluation, so they test their inputs without
# a call: 0.0 * v is +-0.0 for a finite v and nan for an infinite or nan v,
# so ``0.0 * a * b == 0.0`` holds exactly when a and b are both finite.  A
# failed test calls the helpers below, which raise naming the first offender.

def _require_finite(**named: float) -> None:
    for name, value in named.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")


def _require_eps(eps: float, name: str = "eps") -> None:
    if not (math.isfinite(eps) and eps > 0.0):
        raise DomainError(f"{name} must be a positive finite real, got {eps!r}")


class PhasePoint(NamedTuple):
    """Point (x, y) of the planar phase space."""

    x: float
    y: float


@dataclass(frozen=True)
class SystemParams:
    """Timescale separation eps and fold unfolding parameter alpha.

    eps = 0 is accepted so layer-problem and germ computations can share the
    container, but every evaluation routine requires eps > 0.
    """

    eps: float
    alpha: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps >= 0.0):
            raise DomainError(f"eps must be >= 0 and finite, got {self.eps!r}")
        if not math.isfinite(self.alpha):
            raise DomainError(f"alpha must be finite, got {self.alpha!r}")


@dataclass(frozen=True)
class ControllerGains:
    """Gain block shared by all controllers.

    c1 scales the level-stabilizing feedback, c2 shifts the exponential
    weight (c2 = 2 cancels the conserved quantity's own exponential), k1 is
    the transverse damping gain of the variational controller, x_star the
    signed offset selecting the jump direction.
    """

    c1: float
    c2: float
    k1: float = 0.0
    x_star: float = 0.0

    def __post_init__(self):
        _require_finite(c1=self.c1, c2=self.c2, k1=self.k1,
                        x_star=self.x_star)
        if self.c1 <= 0.0:
            raise DomainError(f"c1 must be > 0, got {self.c1!r}")
        if self.k1 < 0.0:
            raise DomainError(f"k1 must be >= 0, got {self.k1!r}")
        if abs(self.x_star) >= 1.0:
            raise DomainError(f"|x_star| must be < 1, got {self.x_star!r}")


@dataclass(frozen=True)
class ScaledLevel:
    """Target level h = h0 * exp(-E), stored in log domain.

    E >= 0; the represented value must satisfy h <= 1/4 (the family of closed
    cycles degenerates at 1/4).  The maximal canard h = 0 is represented
    exactly as (0, 0).  Negative h0 (head-side levels) is admitted.
    """

    h0: float
    E: float = 0.0

    def __post_init__(self):
        _require_finite(h0=self.h0, E=self.E)
        if self.E < 0.0:
            raise DomainError(f"E must be >= 0, got {self.E!r}")
        if self.h0 > 0.0 and math.log(self.h0) - self.E > math.log(0.25) + 1e-12:
            raise DomainError(
                f"level h0*exp(-E) = {self.h0!r}*exp(-{self.E!r}) exceeds 1/4"
            )

    @property
    def value(self) -> float:
        """The represented level; may underflow to 0.0 for display purposes."""
        if self.h0 == 0.0:
            return 0.0
        return self.h0 * math.exp(-min(self.E, 745.0))


def eval_H(p: PhasePoint, eps: float) -> float:
    """Conserved quantity H(x, y; eps) of the uncontrolled fold layer flow.

    Returns exactly 0.0 once 2y/eps > 1490: exp has underflowed far past the
    subnormal range and the result is pinned rather than left to 0*bracket
    arithmetic.  Large negative y raises ExponentOverflowError.
    """
    x, y = p
    _require_finite(x=x, y=y)
    _require_eps(eps)
    w = 2.0 * y / eps
    if w > H_ZERO_EXPONENT:
        return 0.0
    if -w > EXP_GUARD:
        raise ExponentOverflowError("-2*y/eps", -w)
    return 0.5 * math.exp(-w) * ((y - x * x) / eps + 0.5)


def eval_H2(x2: float, y2: float) -> float:
    """H in self-similar variables: 1/2 exp(-2 y2)(y2 - x2^2 + 1/2)."""
    if not 0.0 * x2 * y2 == 0.0:
        _require_finite(x2=x2, y2=y2)
    w = 2.0 * y2
    if w > H_ZERO_EXPONENT:
        return 0.0
    if -w > EXP_GUARD:
        raise ExponentOverflowError("-2*y2", -w)
    return 0.5 * math.exp(-w) * (y2 - x2 * x2 + 0.5)


def eval_H1(x1: float, eps1: float) -> float:
    """H in entry-chart variables: 1/2 exp(-2/eps1)((1 - x1^2)/eps1 + 1/2)."""
    _require_finite(x1=x1)
    _require_eps(eps1, "eps1")
    w = 2.0 / eps1
    if w > H_ZERO_EXPONENT:
        return 0.0
    return 0.5 * math.exp(-w) * ((1.0 - x1 * x1) / eps1 + 0.5)


def eval_level_term(p: Sequence[float], eps: float, c2: float,
                    level: ScaledLevel) -> float:
    """exp(c2*y/eps) * (H(x, y; eps) - h), evaluated with combined exponents.

    ``p`` is (x, y) as a :class:`PhasePoint` or a plain tuple.  Expanding H
    and h = h0*exp(-E) inside the weight gives

        exp((c2-2)*y/eps) * (y - x^2 + eps/2)/(2*eps)  -  h0 * exp(c2*y/eps - E),

    which keeps every exponential in range while both combined exponents do.
    Either exponent above 700 raises ExponentOverflowError naming the
    offender, as does a term left non-finite below the guard (by a large
    bracket); exponents below the underflow floor contribute 0.
    For c2 = 2 and h = 0 the result is (y - x^2 + eps/2)/(2*eps) with no
    exponential factor at all.
    """
    x, y = p
    if not (0.0 * x * y * c2 * eps == 0.0 and eps > 0.0):
        _require_finite(x=x, y=y, c2=c2)
        _require_eps(eps)
    if c2 == 2.0:
        # the weight is exp(+-0.0) = 1.0, and 1.0 * v is v to the bit
        term = (y - x * x + 0.5 * eps) / (2.0 * eps)
        if not 0.0 * term == 0.0:
            raise ExponentOverflowError("(c2-2)*y/eps", (c2 - 2.0) * y / eps)
    else:
        e1 = (c2 - 2.0) * y / eps
        if e1 > EXP_GUARD:
            raise ExponentOverflowError("(c2-2)*y/eps", e1)
        term = math.exp(e1) * (y - x * x + 0.5 * eps) / (2.0 * eps)
        if not 0.0 * term == 0.0:
            raise ExponentOverflowError("(c2-2)*y/eps", e1)
    if level.h0 != 0.0:
        e2 = c2 * y / eps - level.E
        if e2 > EXP_GUARD:
            raise ExponentOverflowError("c2*y/eps - E", e2)
        term -= level.h0 * math.exp(e2)
        if not 0.0 * term == 0.0:
            raise ExponentOverflowError("c2*y/eps - E", e2)
    return term
