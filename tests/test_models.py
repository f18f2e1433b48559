"""Tests for the fold and van der Pol vector fields."""

import math
import random
import struct

import numpy as np
import pytest

from canardctl.core import PhasePoint, SystemParams, eval_H
from canardctl.errors import DomainError
from canardctl.models import (
    HigherOrderTerms,
    _zero,
    fold_rhs,
    parabolic_shear_terms,
    quadratic_gap_phi2,
    vdp_rhs,
    zero_terms,
)


def test_fold_rhs_plain():
    d = fold_rhs(PhasePoint(1.0, 0.0), SystemParams(0.1, 0.0), zero_terms(), 0.0)
    assert d == (1.0, 0.1)


def test_zero_terms_give_the_bits_of_a_zero_remainder_call():
    # fold_rhs adds zero_terms' 0.0 without calling _zero; a remainder that
    # is another function object goes through the call and must agree to
    # the bit, signed zeros included: -0.0 - 0.0 + 0.0 is +0.0
    called = HigherOrderTerms(lambda x, y, eps, alpha: _zero(x, y, eps, alpha))
    rng = random.Random(20261019)
    cases = [(-0.0, 0.0, 0.0, -0.0), (-0.0, -0.0, 0.0, 0.0),
             (0.0, 0.0, 0.0, -0.0), (0.25, 1.0, 0.25, -0.0),
             (-0.0, 0.5, -0.0, 0.0), (1e-300, 0.0, 1e-300, 1e-300)]
    cases += [(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 2.0),
               rng.choice([0.0, -0.0, rng.uniform(-0.5, 0.5)]),
               rng.choice([0.0, -0.0, rng.uniform(-3.0, 3.0)]))
              for _ in range(500)]

    def bits(v):
        return struct.pack("<2d", *v)

    for x, y, alpha, u in cases:
        params = SystemParams(0.01, alpha)
        for channel in ("fast", "slow"):
            assert bits(fold_rhs((x, y), params, zero_terms(), u, channel)) == \
                bits(fold_rhs((x, y), params, called, u, channel)), \
                (x, y, alpha, u, channel)
    # the -0.0 case comes out +0.0 on the slow component
    d = fold_rhs((-0.0, 0.0), SystemParams(0.01, 0.0), zero_terms(), 0.0)
    assert math.copysign(1.0, d[1]) == 1.0


def test_fold_rhs_channels():
    p = PhasePoint(0.5, 0.2)
    params = SystemParams(0.01, -0.1)
    hot = zero_terms()
    fast = fold_rhs(p, params, hot, 2.0, channel="fast")
    slow = fold_rhs(p, params, hot, 2.0, channel="slow")
    assert fast[0] == pytest.approx(-0.2 + 0.25 + 2.0)
    assert fast[1] == pytest.approx(0.01 * (0.5 + 0.1))
    assert slow[0] == pytest.approx(-0.2 + 0.25)
    assert slow[1] == pytest.approx(0.01 * (0.5 + 0.1 + 2.0))
    with pytest.raises(DomainError):
        fold_rhs(p, params, hot, 0.0, channel="sideways")


def test_fold_rhs_rejects_nonfinite_control():
    # an OverflowError, which integrate turns into an overflow-fault
    with pytest.raises(OverflowError):
        fold_rhs(PhasePoint(0.0, 0.0), SystemParams(0.1), zero_terms(), math.nan)
    with pytest.raises(OverflowError):
        vdp_rhs(PhasePoint(0.0, 0.0), 0.1, math.inf)


@pytest.mark.parametrize("channel", ["fast", "slow"])
@pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
def test_fold_rhs_nonfinite_control_message(u, channel):
    with pytest.raises(OverflowError,
                       match=f"^non-finite control value {u!r}$"):
        fold_rhs(PhasePoint(0.0, 0.0), SystemParams(0.1), zero_terms(), u,
                 channel=channel)


def test_parabolic_shear_preset():
    hot = parabolic_shear_terms()
    assert hot.g_tilde(0.5, 0.5, 0.01, 0.0) == pytest.approx(100 * 0.5 * (0.5 - 0.25))
    # factorization g~ = x * phi_hat at alpha = 0
    assert hot.g_tilde(0.5, 0.5, 0.01, 0.0) == pytest.approx(
        0.5 * hot.phi_hat(0.5, 0.5, 0.01, 0.0)
    )
    assert quadratic_gap_phi2(1.0, 0.5, 1.0, 0.0) == pytest.approx(0.75)


def test_vdp_rhs_fold_points():
    # both fold points of the cubic are equilibria of the layer flow
    d = vdp_rhs(PhasePoint(2.0, 4.0 / 3.0), 0.05, 0.0)
    assert d[0] == pytest.approx(0.0, abs=1e-15)
    assert d[1] == pytest.approx(0.1)
    d = vdp_rhs(PhasePoint(0.0, 0.0), 0.05, 0.0)
    assert d[0] == 0.0


def test_fold_flow_conserves_H_rk4():
    # alpha = 0, u = 0: H along the flow stays constant to 1e-8 over t in [0, 10]
    eps = 0.05
    params = SystemParams(eps, 0.0)
    hot = zero_terms()

    def step(p, h):
        def f(q):
            return fold_rhs(q, params, hot, 0.0)

        k1 = f(p)
        k2 = f(PhasePoint(p.x + 0.5 * h * k1[0], p.y + 0.5 * h * k1[1]))
        k3 = f(PhasePoint(p.x + 0.5 * h * k2[0], p.y + 0.5 * h * k2[1]))
        k4 = f(PhasePoint(p.x + h * k3[0], p.y + h * k3[1]))
        return PhasePoint(
            p.x + h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
            p.y + h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
        )

    rng = np.random.default_rng(5)
    for _ in range(5):
        p = PhasePoint(float(rng.uniform(-0.4, 0.4)), float(rng.uniform(0.05, 0.3)))
        h0 = eval_H(p, eps)
        h = 1e-3
        for _ in range(int(10.0 / h)):
            p = step(p, h)
        assert eval_H(p, eps) == pytest.approx(h0, abs=1e-8 * max(1.0, abs(h0)))
