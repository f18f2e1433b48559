"""Vector fields: fold normal form with a slow shear, and van der Pol.

Both systems are written in the fast time scale,

    fold:  x' = -y + x^2 + u_fast
           y' = eps (x - alpha + shear * x * (y - x^2) + u_slow)

    vdp:   x' = -y + x^2 - x^3/3 + u
           y' = eps x

with exactly one of u_fast/u_slow active, selected by the actuation channel.
The shear gain is 0.0 for the plain normal form.  At alpha = 0 the shear
factors as x^ * phi^ with phi^ = shear * (y - x^2) and x^ = x - alpha,
the form the fold control laws cancel.

Both fields take what a run holds fixed first, the state as an (x, y)
sequence, then the control: `fold_rhs(field, p, u)` with the run's
`FoldField`, which binds eps, alpha, the shear gain and the channel once,
and `vdp_rhs(eps, p, u)`.  A closed loop hands `integrate` a
``functools.partial`` of either over its constants.  Each returns the
velocity as a plain (dx, dy) tuple, and a :class:`PhasePoint` or a plain
tuple give the same bits.  A non-finite control value raises
OverflowError, which `sim.integrate` turns into an ``overflow-fault``.
"""

from __future__ import annotations

from typing import Sequence

from .core import SystemParams, _Record, _require_finite
from .errors import DomainError

__all__ = [
    "FoldField",
    "fold_rhs",
    "vdp_rhs",
]


class FoldField(_Record):
    """The constants of the fold normal form for one run, bound once.

    ``shear`` is the gain of the slow shear g~ = shear*x*(y - x^2), 0.0 for
    the plain normal form; ``channel`` is the actuation channel, "fast" or
    "slow", checked here.
    """

    _fields = ("params", "shear", "channel")
    __slots__ = _fields + ("_eps", "_alpha", "_fast")

    def __init__(self, params: SystemParams, shear: float = 0.0,
                 channel: str = "fast"):
        _require_finite(shear=shear)
        if channel not in ("fast", "slow"):
            raise DomainError(f"unknown actuation channel {channel!r}")
        super().__init__(params, shear, channel)
        for name, value in (("_eps", params.eps), ("_alpha", params.alpha),
                            ("_fast", channel == "fast")):
            object.__setattr__(self, name, value)


def fold_rhs(field: FoldField, p: Sequence[float],
             u: float) -> tuple[float, float]:
    """Fold normal form velocity (dx, dy) with the control injected on the
    field's channel."""
    if not 0.0 * u == 0.0:  # u is not finite
        raise OverflowError(f"non-finite control value {u!r}")
    x, y = p
    shear = field.shear
    # the plain normal form still adds a remainder of 0.0, which turns a
    # -0.0 into +0.0
    gt = 0.0 if shear == 0.0 else shear * x * (y - x * x)
    eps, alpha = field._eps, field._alpha
    if field._fast:
        return (-y + x * x + u, eps * (x - alpha + gt))
    return (-y + x * x, eps * (x - alpha + gt + u))


def vdp_rhs(eps: float, p: Sequence[float], u: float) -> tuple[float, float]:
    """Van der Pol velocity (dx, dy) in Lienard form with fast-channel control."""
    if not 0.0 * u == 0.0:  # u is not finite
        raise OverflowError(f"non-finite control value {u!r}")
    x, y = p
    return (-y + x * x - x ** 3 / 3.0 + u, eps * x)
