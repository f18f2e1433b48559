"""The Dormand-Prince 5(4) pair: tableau, step kernels and dense output.

Two step kernels share one contract: ``_step_planar`` for a state of two
components and ``_step_3`` for three, the only state sizes `sim` integrates.
Each spells every stage sum, the 5th-order update and the error norm out
term by term.  The tests keep a generic kernel that runs the same sums as
comprehensions over a state of any length, and check both kernels against
it bit for bit.  `sim` picks the kernel once per run and owns the step-size
control, events and faults; this module imports only `errors`.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import DomainError

# Dormand-Prince 5(4) tableau, FSAL form: the 5th-order weights are the last
# stage row, the 7th stage sits at the step end and seeds the next step.  The
# field is autonomous, so the stage nodes c_i are not needed.
_A = (
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
_E = (
    71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
    -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0,
)
_D = (
    -12715105075.0 / 11282082432.0, 0.0, 87487479700.0 / 32700410799.0,
    -10690763975.0 / 1880347072.0, 701980252875.0 / 199316789632.0,
    -1453857185.0 / 822651844.0, 69997945.0 / 29380423.0,
)
# The step spells every stage combination out term by term from these names.
# Each sum starts from 0.0 and adds left to right, as sum() over the rows did
# before Python 3.12 made it compensated (so a lone -0.0 term gives +0.0),
# and the zero entries stay in so that inf and nan propagate from every stage.
(
    (_A21,),
    (_A31, _A32),
    (_A41, _A42, _A43),
    (_A51, _A52, _A53, _A54),
    (_A61, _A62, _A63, _A64, _A65),
    (_A71, _A72, _A73, _A74, _A75, _A76),
) = _A
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = _E
_D1, _D2, _D3, _D4, _D5, _D6, _D7 = _D


def _rms(values: Sequence[float]) -> float:
    acc = 0.0  # left to right from zero, as sum() adds floats before 3.12
    for v in values:
        acc += v * v
    return math.sqrt(acc / len(values))


def _length_error(k, y):
    return DomainError(f"the field returned {len(k)} components "
                       f"for a state of {len(y)}")


# The step kernels: (rhs, u, y, k1, h, atol, rtol) -> (y_new, u_new,
# (k1, ..., k7), err), where err is the RMS of the scaled error estimate and
# may be inf or nan, and every state built, stage or y_new, is a plain tuple.
# Each stage evaluates the controller, then the field, at the stage state,
# and a field result of another length than the state raises DomainError
# before any sum could cut the state down.  The kernels learn the length
# from their unpacking, whose try costs nothing until it raises; only
# the unpacking sits inside it, so a ValueError from the field or the
# controller passes through unchanged.  Each error scale
# max(abs(y_i), abs(n_i)) is written as comparisons, and gives the
# builtins' bits: max(a, b) is b only if b > a, so a nan n_i leaves the
# scale at |y_i|, which a run from a finite start never makes nan; and a
# zero scale that comes out as -0.0 still gives atol + rtol * -0.0 == atol,
# since IntegratorConfig keeps atol > 0.

def _step_planar(rhs, u, y, k1, h, atol, rtol):
    y0, y1 = y
    a0, a1 = k1
    p = (y0 + h * (0.0 + _A21 * a0),
         y1 + h * (0.0 + _A21 * a1))
    k2 = rhs(p, u(p))
    try:
        b0, b1 = k2
    except ValueError:
        raise _length_error(k2, y) from None
    p = (y0 + h * (0.0 + _A31 * a0 + _A32 * b0),
         y1 + h * (0.0 + _A31 * a1 + _A32 * b1))
    k3 = rhs(p, u(p))
    try:
        c0, c1 = k3
    except ValueError:
        raise _length_error(k3, y) from None
    p = (y0 + h * (0.0 + _A41 * a0 + _A42 * b0 + _A43 * c0),
         y1 + h * (0.0 + _A41 * a1 + _A42 * b1 + _A43 * c1))
    k4 = rhs(p, u(p))
    try:
        d0, d1 = k4
    except ValueError:
        raise _length_error(k4, y) from None
    p = (y0 + h * (0.0 + _A51 * a0 + _A52 * b0 + _A53 * c0 + _A54 * d0),
         y1 + h * (0.0 + _A51 * a1 + _A52 * b1 + _A53 * c1 + _A54 * d1))
    k5 = rhs(p, u(p))
    try:
        e0, e1 = k5
    except ValueError:
        raise _length_error(k5, y) from None
    p = (y0 + h * (0.0 + _A61 * a0 + _A62 * b0 + _A63 * c0 + _A64 * d0
                   + _A65 * e0),
         y1 + h * (0.0 + _A61 * a1 + _A62 * b1 + _A63 * c1 + _A64 * d1
                   + _A65 * e1))
    k6 = rhs(p, u(p))
    try:
        f0, f1 = k6
    except ValueError:
        raise _length_error(k6, y) from None
    n0 = y0 + h * (0.0 + _A71 * a0 + _A72 * b0 + _A73 * c0 + _A74 * d0
                   + _A75 * e0 + _A76 * f0)
    n1 = y1 + h * (0.0 + _A71 * a1 + _A72 * b1 + _A73 * c1 + _A74 * d1
                   + _A75 * e1 + _A76 * f1)
    y_new = (n0, n1)
    u_new = u(y_new)
    k7 = rhs(y_new, u_new)
    try:
        g0, g1 = k7
    except ValueError:
        raise _length_error(k7, y) from None
    s0 = y0 if y0 > 0.0 else -y0
    m0 = n0 if n0 > 0.0 else -n0
    s1 = y1 if y1 > 0.0 else -y1
    m1 = n1 if n1 > 0.0 else -n1
    q0 = (h * (0.0 + _E1 * a0 + _E2 * b0 + _E3 * c0 + _E4 * d0 + _E5 * e0
               + _E6 * f0 + _E7 * g0)
          / (atol + rtol * (m0 if m0 > s0 else s0)))
    q1 = (h * (0.0 + _E1 * a1 + _E2 * b1 + _E3 * c1 + _E4 * d1 + _E5 * e1
               + _E6 * f1 + _E7 * g1)
          / (atol + rtol * (m1 if m1 > s1 else s1)))
    err = math.sqrt((0.0 + q0 * q0 + q1 * q1) / 2)
    return y_new, u_new, (k1, k2, k3, k4, k5, k6, k7), err


def _step_3(rhs, u, y, k1, h, atol, rtol):
    y0, y1, y2 = y
    a0, a1, a2 = k1
    p = (y0 + h * (0.0 + _A21 * a0),
         y1 + h * (0.0 + _A21 * a1),
         y2 + h * (0.0 + _A21 * a2))
    k2 = rhs(p, u(p))
    try:
        b0, b1, b2 = k2
    except ValueError:
        raise _length_error(k2, y) from None
    p = (y0 + h * (0.0 + _A31 * a0 + _A32 * b0),
         y1 + h * (0.0 + _A31 * a1 + _A32 * b1),
         y2 + h * (0.0 + _A31 * a2 + _A32 * b2))
    k3 = rhs(p, u(p))
    try:
        c0, c1, c2 = k3
    except ValueError:
        raise _length_error(k3, y) from None
    p = (y0 + h * (0.0 + _A41 * a0 + _A42 * b0 + _A43 * c0),
         y1 + h * (0.0 + _A41 * a1 + _A42 * b1 + _A43 * c1),
         y2 + h * (0.0 + _A41 * a2 + _A42 * b2 + _A43 * c2))
    k4 = rhs(p, u(p))
    try:
        d0, d1, d2 = k4
    except ValueError:
        raise _length_error(k4, y) from None
    p = (y0 + h * (0.0 + _A51 * a0 + _A52 * b0 + _A53 * c0 + _A54 * d0),
         y1 + h * (0.0 + _A51 * a1 + _A52 * b1 + _A53 * c1 + _A54 * d1),
         y2 + h * (0.0 + _A51 * a2 + _A52 * b2 + _A53 * c2 + _A54 * d2))
    k5 = rhs(p, u(p))
    try:
        e0, e1, e2 = k5
    except ValueError:
        raise _length_error(k5, y) from None
    p = (y0 + h * (0.0 + _A61 * a0 + _A62 * b0 + _A63 * c0 + _A64 * d0
                   + _A65 * e0),
         y1 + h * (0.0 + _A61 * a1 + _A62 * b1 + _A63 * c1 + _A64 * d1
                   + _A65 * e1),
         y2 + h * (0.0 + _A61 * a2 + _A62 * b2 + _A63 * c2 + _A64 * d2
                   + _A65 * e2))
    k6 = rhs(p, u(p))
    try:
        f0, f1, f2 = k6
    except ValueError:
        raise _length_error(k6, y) from None
    n0 = y0 + h * (0.0 + _A71 * a0 + _A72 * b0 + _A73 * c0 + _A74 * d0
                   + _A75 * e0 + _A76 * f0)
    n1 = y1 + h * (0.0 + _A71 * a1 + _A72 * b1 + _A73 * c1 + _A74 * d1
                   + _A75 * e1 + _A76 * f1)
    n2 = y2 + h * (0.0 + _A71 * a2 + _A72 * b2 + _A73 * c2 + _A74 * d2
                   + _A75 * e2 + _A76 * f2)
    y_new = (n0, n1, n2)
    u_new = u(y_new)
    k7 = rhs(y_new, u_new)
    try:
        g0, g1, g2 = k7
    except ValueError:
        raise _length_error(k7, y) from None
    s0 = y0 if y0 > 0.0 else -y0
    m0 = n0 if n0 > 0.0 else -n0
    s1 = y1 if y1 > 0.0 else -y1
    m1 = n1 if n1 > 0.0 else -n1
    s2 = y2 if y2 > 0.0 else -y2
    m2 = n2 if n2 > 0.0 else -n2
    q0 = (h * (0.0 + _E1 * a0 + _E2 * b0 + _E3 * c0 + _E4 * d0 + _E5 * e0
               + _E6 * f0 + _E7 * g0)
          / (atol + rtol * (m0 if m0 > s0 else s0)))
    q1 = (h * (0.0 + _E1 * a1 + _E2 * b1 + _E3 * c1 + _E4 * d1 + _E5 * e1
               + _E6 * f1 + _E7 * g1)
          / (atol + rtol * (m1 if m1 > s1 else s1)))
    q2 = (h * (0.0 + _E1 * a2 + _E2 * b2 + _E3 * c2 + _E4 * d2 + _E5 * e2
               + _E6 * f2 + _E7 * g2)
          / (atol + rtol * (m2 if m2 > s2 else s2)))
    err = math.sqrt((0.0 + q0 * q0 + q1 * q1 + q2 * q2) / 3)
    return y_new, u_new, (k1, k2, k3, k4, k5, k6, k7), err


def _interpolant(h, y, y_new, ks):
    """Quartic dense output of an accepted step as theta in [0, 1] -> state."""
    rcont = []
    for rc1, y1, a, b, c, d, e, f, g in zip(y, y_new, *ks):
        rc2 = y1 - rc1
        rc3 = h * a - rc2
        rc4 = rc2 - h * g - rc3
        rc5 = h * (0.0 + _D1 * a + _D2 * b + _D3 * c + _D4 * d + _D5 * e
                   + _D6 * f + _D7 * g)
        rcont.append((rc1, rc2, rc3, rc4, rc5))

    def at(theta):
        th1 = 1.0 - theta
        return tuple([
            rc1 + theta * (rc2 + th1 * (rc3 + theta * (rc4 + th1 * rc5)))
            for rc1, rc2, rc3, rc4, rc5 in rcont
        ])

    return at
