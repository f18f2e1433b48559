"""Tests for charts, transition maps, desingularized fields, and the germ check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canardctl.core import eval_H1, eval_H2
from canardctl.errors import DomainError, ExtrapolationError
from canardctl.blowup import (
    ChartPointK1,
    ChartPointK2,
    K2Field,
    germ_check,
    k1_vdp_field,
    k2_field,
    kappa12,
    kappa21,
)


def test_kappa12_worked_example():
    cp = kappa12(ChartPointK1(2.0, 3.0, 4.0, 5.0, 8.0))
    assert cp.r2 == pytest.approx(4.0)
    assert cp.x2 == pytest.approx(1.5)
    assert cp.y2 == pytest.approx(0.25)
    assert cp.alpha2 == pytest.approx(2.5)
    assert cp.mu2 == pytest.approx(2.0)


def test_kappa_roundtrip_and_H_transport():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        cp1 = ChartPointK1(
            float(rng.uniform(0.0, 2.0)),
            float(rng.uniform(-2, 2)),
            float(rng.uniform(0.05, 3.0)),
            float(rng.uniform(-1, 1)),
            float(rng.uniform(-2, 2)),
        )
        back = kappa21(kappa12(cp1))
        for a, b in zip(back, cp1):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)
        # H1 at the entry-chart point equals H2 at its central-chart image
        cp2 = kappa12(cp1)
        assert eval_H1(cp1.x1, cp1.eps1) == pytest.approx(
            eval_H2(cp2.x2, cp2.y2), rel=1e-12, abs=1e-300
        )


_PROPERTY = settings(derandomize=True, database=None, deadline=None,
                     max_examples=300)
_coordinate = st.floats(min_value=-1e6, max_value=1e6)
_positive = st.floats(min_value=1e-6, max_value=1e6)


def _same_point(a, b):
    # abs_tol covers components that a division pushes into the subnormals
    return all(math.isclose(u, v, rel_tol=1e-14, abs_tol=1e-300)
               for u, v in zip(a, b, strict=True))


@_PROPERTY
@given(r1=st.floats(min_value=0.0, max_value=1e6), x1=_coordinate,
       eps1=_positive, alpha1=_coordinate, mu1=_coordinate)
def test_kappa21_inverts_kappa12(r1, x1, eps1, alpha1, mu1):
    cp1 = ChartPointK1(r1, x1, eps1, alpha1, mu1)
    assert _same_point(kappa21(kappa12(cp1)), cp1)


@_PROPERTY
@given(r2=st.floats(min_value=0.0, max_value=1e6), x2=_coordinate,
       y2=_positive, alpha2=_coordinate, mu2=_coordinate)
def test_kappa12_inverts_kappa21(r2, x2, y2, alpha2, mu2):
    cp2 = ChartPointK2(r2, x2, y2, alpha2, mu2)
    assert _same_point(kappa12(kappa21(cp2)), cp2)


def test_kappa_domain_guards():
    with pytest.raises(DomainError):
        kappa12(ChartPointK1(1.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        kappa21(ChartPointK2(1.0, 0.0, -0.5))


def test_k2_field_plain():
    dx2, dy2 = k2_field(K2Field(0.0, 0.0), (1.0, 2.0), 0.0)
    assert dx2 == pytest.approx(-1.0)
    assert dy2 == pytest.approx(1.0)
    # alpha2 shifts the parabola, r2 couples the shear x2 * (y2 - x2^2)
    dx2, dy2 = k2_field(K2Field(0.5, 1.0, shear=1.0), (1.0, 2.0), 0.25)
    assert dx2 == pytest.approx(-2.0 + 4.0 + 0.25)
    assert dy2 == pytest.approx(1.0 + 0.5 * 1.0)


def test_k1_vdp_field_values():
    # on the equilibrium set: x1' vanishes at x1 = sqrt(3), r1 = 3(1/x1 - 1/x1^3)
    x1 = math.sqrt(3.0)
    r1 = 3.0 * (1.0 / x1 - 1.0 / x1 ** 3)
    assert r1 == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-14)
    dr1, dx1, deps1 = k1_vdp_field(ChartPointK1(r1, x1, 0.0), 0.0)
    assert dr1 == 0.0
    assert deps1 == 0.0
    assert dx1 == pytest.approx(0.0, abs=1e-14)


def test_k1_vdp_field_invariant_eps():
    # r1^2 eps1 is conserved: its derivative along the field vanishes
    rng = np.random.default_rng(4)
    for _ in range(100):
        cp = ChartPointK1(
            float(rng.uniform(0.01, 1.0)),
            float(rng.uniform(-2, 2)),
            float(rng.uniform(0.01, 1.0)),
        )
        dr1, dx1, deps1 = k1_vdp_field(cp, cp.mu1)
        d_eps = 2.0 * cp.r1 * dr1 * cp.eps1 + cp.r1 ** 2 * deps1
        assert d_eps == pytest.approx(0.0, abs=1e-14)


def test_germ_check_open_loop_fold():
    report = germ_check(lambda x, y, eps: -y + x * x, [1e-4, 1e-5, 1e-6])
    assert report.passes
    assert report.f0 == pytest.approx(0.0, abs=1e-12)
    assert report.fx == pytest.approx(0.0, abs=1e-12)
    assert report.fxx == pytest.approx(2.0, rel=1e-9)
    assert report.fy == pytest.approx(-1.0, rel=1e-12)


def test_germ_check_cubic_degenerate():
    report = germ_check(lambda x, y, eps: -y + x ** 3, [1e-4, 1e-5, 1e-6])
    assert not report.passes
    assert abs(report.fxx) < 1e-8


def test_germ_check_divergent_layer_raises():
    with pytest.raises(ExtrapolationError):
        germ_check(lambda x, y, eps: -y + x * x / eps, [1e-4, 1e-5, 1e-6])


def test_germ_check_input_validation():
    with pytest.raises(DomainError):
        germ_check(lambda x, y, eps: -y, [1e-4, 1e-5])
    with pytest.raises(DomainError):
        germ_check(lambda x, y, eps: -y, [1e-5, 1e-4, 1e-6])
    with pytest.raises(DomainError):
        germ_check(lambda x, y, eps: -y, [1e-4, 0.0, -1e-6])


@pytest.mark.parametrize("field", [
    lambda mu: k2_field(K2Field(0.0, 1.0), (0.5, 0.5), mu),
    lambda mu: k1_vdp_field((0.1, -1.0, 0.1), mu),
], ids=["k2_field", "k1_vdp_field"])
@pytest.mark.parametrize("mu", [math.inf, -math.inf, math.nan])
def test_chart_field_refuses_a_non_finite_control(field, mu):
    # as fold_rhs and vdp_rhs do, so that integrate reports an overflow fault
    with pytest.raises(OverflowError, match="non-finite control value"):
        field(mu)
    assert all(math.isfinite(v) for v in field(0.25))
