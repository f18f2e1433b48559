"""Tests for the fold and van der Pol vector fields."""

import math
import random
import struct

import numpy as np
import pytest

from canardctl.core import PhasePoint, SystemParams, eval_H
from canardctl.errors import DomainError
from canardctl.models import FoldField, fold_rhs, vdp_rhs


def test_fold_rhs_plain():
    d = fold_rhs(FoldField(SystemParams(0.1, 0.0)), PhasePoint(1.0, 0.0), 0.0)
    assert d == (1.0, 0.1)


def test_zero_terms_give_the_bits_of_a_zero_remainder_call():
    # the plain normal form, shear gain 0.0, adds a remainder of 0.0 to the
    # slow equation without working out the shear; it must give the bits of
    # that sum, signed zeros included: -0.0 - 0.0 + 0.0 is +0.0
    def with_zero_remainder(x, y, eps, alpha, u, channel):
        if channel == "fast":
            return (-y + x * x + u, eps * (x - alpha + 0.0))
        return (-y + x * x, eps * (x - alpha + 0.0 + u))

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
            field = FoldField(params, channel=channel)
            assert bits(fold_rhs(field, (x, y), u)) == \
                bits(with_zero_remainder(x, y, 0.01, alpha, u, channel)), \
                (x, y, alpha, u, channel)
    # the -0.0 case comes out +0.0 on the slow component
    d = fold_rhs(FoldField(SystemParams(0.01, 0.0)), (-0.0, 0.0), 0.0)
    assert math.copysign(1.0, d[1]) == 1.0


def test_fold_rhs_channels():
    p = PhasePoint(0.5, 0.2)
    params = SystemParams(0.01, -0.1)
    fast = fold_rhs(FoldField(params, channel="fast"), p, 2.0)
    slow = fold_rhs(FoldField(params, channel="slow"), p, 2.0)
    assert fast[0] == pytest.approx(-0.2 + 0.25 + 2.0)
    assert fast[1] == pytest.approx(0.01 * (0.5 + 0.1))
    assert slow[0] == pytest.approx(-0.2 + 0.25)
    assert slow[1] == pytest.approx(0.01 * (0.5 + 0.1 + 2.0))
    # the channel is checked once, when the field is bound
    with pytest.raises(DomainError, match="^unknown actuation channel 'sideways'$"):
        FoldField(params, channel="sideways")


def test_fold_rhs_rejects_nonfinite_control():
    # an OverflowError, which integrate turns into an overflow-fault
    with pytest.raises(OverflowError):
        fold_rhs(FoldField(SystemParams(0.1)), PhasePoint(0.0, 0.0), math.nan)
    with pytest.raises(OverflowError):
        vdp_rhs(0.1, PhasePoint(0.0, 0.0), math.inf)


@pytest.mark.parametrize("channel", ["fast", "slow"])
@pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
def test_fold_rhs_nonfinite_control_message(u, channel):
    with pytest.raises(OverflowError,
                       match=f"^non-finite control value {u!r}$"):
        fold_rhs(FoldField(SystemParams(0.1), channel=channel),
                 PhasePoint(0.0, 0.0), u)


def test_parabolic_shear_preset():
    # the shear g~ = gain*x*(y - x^2) enters the slow equation only; at
    # alpha = 0 it factors as x * phi_hat with phi_hat = gain*(y - x^2)
    params = SystemParams(0.01, 0.0)
    plain = fold_rhs(FoldField(params), (0.5, 0.5), 0.0)
    dx, dy = fold_rhs(FoldField(params, shear=100.0), (0.5, 0.5), 0.0)
    assert dx == plain[0]
    assert dy == 0.01 * (0.5 - 0.0 + 100.0 * 0.5 * (0.5 - 0.25))
    assert dy == pytest.approx(0.01 * (0.5 + 0.5 * (100.0 * (0.5 - 0.25))))


def test_vdp_rhs_fold_points():
    # both fold points of the cubic are equilibria of the layer flow
    d = vdp_rhs(0.05, PhasePoint(2.0, 4.0 / 3.0), 0.0)
    assert d[0] == pytest.approx(0.0, abs=1e-15)
    assert d[1] == pytest.approx(0.1)
    d = vdp_rhs(0.05, PhasePoint(0.0, 0.0), 0.0)
    assert d[0] == 0.0


def test_fold_flow_conserves_H_rk4():
    # alpha = 0, u = 0: H along the flow stays constant to 1e-8 over t in [0, 10]
    eps = 0.05
    field = FoldField(SystemParams(eps, 0.0))

    def step(p, h):
        def f(q):
            return fold_rhs(field, q, 0.0)

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
