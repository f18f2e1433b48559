"""Tests for the control laws, bump geometry, and the slow-manifold graph."""

import math
import re
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canardctl.blowup import (
    ChartPointK1,
    ChartPointK2,
    K2Field,
    k1_vdp_field,
    k2_field,
)
from canardctl.controllers import (
    FoldLaw,
    K2Law,
    NeighborhoodParams,
    VdpLaw,
    _phi0,
    _psi_n1,
    _psi_n2,
    _smoothstep,
    bump_psi,
    composite_u,
    default_neighborhoods,
    fast_u,
    k1_chart_phi1,
    k1_vdp_mu,
    k2_mu,
    lyapunov_L2,
    slow_u,
    vdp_slow_manifold_phi,
)
from canardctl.core import (
    ControllerGains,
    LevelTerm,
    PhasePoint,
    ScaledLevel,
    SystemParams,
    eval_H1,
    eval_level_term,
)
from canardctl.errors import (
    DomainError,
    ExponentOverflowError,
    SingularConfigurationError,
)
from canardctl.models import FoldField, fold_rhs, vdp_rhs
from test_acceptance import _branch_oracle


def _bisect_phi0(y):
    # independent root oracle on the repelling branch, 200 halvings
    lo, hi = 1e-15, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * mid - mid ** 3 / 3.0 - y < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestFastSlowLaws:
    def test_fast_u_zero_at_centered_origin(self):
        u = fast_u(FoldLaw(SystemParams(0.01, 0.0), ControllerGains(1.0, 2.0),
                           ScaledLevel(0.0)), PhasePoint(0.0, 0.0))
        assert u == 0.0

    def test_fast_u_worked_example(self):
        # xh = 0 kills every state-dependent term, leaving -alpha^2
        u = fast_u(FoldLaw(SystemParams(0.01, -0.1), ControllerGains(1.0, 2.0),
                           ScaledLevel(0.0)), PhasePoint(-0.1, 0.0))
        assert u == pytest.approx(-0.01, rel=1e-14)

    def test_fast_u_shear_compensation_term(self):
        law = FoldLaw(SystemParams(0.01, 0.0), ControllerGains(1.0, 2.0),
                      ScaledLevel(0.0))
        base = fast_u(law, PhasePoint(0.0, 1.0))
        comp = fast_u(law._replace(shear=100.0), PhasePoint(0.0, 1.0))
        assert comp - base == pytest.approx(-10.0, rel=1e-12)

    def test_slow_u_on_critical_manifold(self):
        u = slow_u(FoldLaw(SystemParams(0.01, 0.1), ControllerGains(1.0, 2.0),
                           ScaledLevel(0.0)), PhasePoint(0.7, 0.49))
        assert u == pytest.approx(0.1, abs=1e-15)

    def test_slow_u_worked_example(self):
        eps = 0.04
        u = slow_u(FoldLaw(SystemParams(eps, 0.0), ControllerGains(1.0, 2.0),
                           ScaledLevel(0.0)), PhasePoint(0.0, eps))
        assert u == pytest.approx(0.15, rel=1e-13)

    def test_fast_u_vanishes_along_stored_level_zero(self):
        # on y = x^2 - eps/2 the h = 0 level term vanishes up to the
        # rounding of the grid heights themselves
        eps = 0.01
        law = FoldLaw(SystemParams(eps, 0.0), ControllerGains(1.0, 2.0),
                      ScaledLevel(0.0))
        for x in np.linspace(-1.0, 1.0, 41):
            y = x * x - 0.5 * eps
            u = fast_u(law, PhasePoint(x, y))
            assert abs(u) < 1e-12

    def test_fast_u_bounded_with_admissible_c2(self):
        # along the critical manifold with c2 at the fast bound the level
        # term collapses to an algebraic power of eps/y: no eps blow-up
        eps = 0.01
        for y in np.linspace(eps, 100.0 * eps, 60):
            # largest admissible weight on the fast channel at K = 1
            c2 = 2.0 + 1.5 * (eps / y) * math.log(eps / y)
            law = FoldLaw(SystemParams(eps, 0.0), ControllerGains(1.0, c2),
                          ScaledLevel(0.0))
            u = fast_u(law, PhasePoint(math.sqrt(y), y))
            assert abs(u) < 1.0


class TestChartK2Law:
    def test_reference_configuration(self):
        # only the -alpha2^2 term survives at the origin
        mu = k2_mu(K2Law(ControllerGains(1.0, 2.0), 1e-16, 0.0, alpha2=1.0),
                   (0.0, 0.0))
        assert mu == pytest.approx(-1.0, rel=1e-12)

    def test_zero_without_offset_on_axis(self):
        assert k2_mu(K2Law(ControllerGains(1.0, 2.0), 0.0, 0.0, 0.0),
                     (0.0, 3.0)) == 0.0

    def test_shear_correction_term(self):
        law = K2Law(ControllerGains(1.0, 2.0), 0.0, 1.0, 0.0)
        base = k2_mu(law, (0.0, 1.0))
        corr = k2_mu(law._replace(shear=1.0), (0.0, 1.0))
        assert corr - base == pytest.approx(-1.0, rel=1e-12)

    def test_lyapunov_zero_on_target_level(self):
        # (0, 0) lies on H2 = 1/4
        l2, rate = lyapunov_L2(ChartPointK2(0.0, 0.0, 0.0),
                               ControllerGains(1.0, 2.0), 0.25)
        assert l2 == pytest.approx(0.0, abs=1e-30)
        assert rate == pytest.approx(0.0, abs=1e-30)

    def test_lyapunov_rate_zero_on_axis(self):
        _, rate = lyapunov_L2(ChartPointK2(0.0, 0.0, 2.0),
                              ControllerGains(5.0, -3.0), 0.1)
        assert rate == 0.0

    def test_lyapunov_worked_example(self):
        l2, rate = lyapunov_L2(ChartPointK2(0.0, 1.0, 0.0),
                               ControllerGains(1.0, 2.0), 0.0)
        assert l2 == pytest.approx(1.0 / 32.0, rel=1e-12)
        assert rate == pytest.approx(-0.0625, rel=1e-12)

    def test_lyapunov_rate_nonpositive_everywhere(self):
        rng = np.random.default_rng(20260822)
        for _ in range(100_000):
            p = ChartPointK2(0.0, rng.uniform(-3, 3), rng.uniform(-5, 5))
            gains = ControllerGains(rng.uniform(0.1, 10.0), rng.uniform(-5, 5))
            l2, rate = lyapunov_L2(p, gains, rng.uniform(-0.3, 0.3))
            assert l2 >= 0.0
            assert rate <= 0.0


class TestSlowManifoldGraph:
    def test_exact_root_at_two_thirds(self):
        nb = default_neighborhoods(0.01)
        assert vdp_slow_manifold_phi(2.0 / 3.0, 0.0, nb) == pytest.approx(
            1.0, abs=1e-14)

    def test_quarter_height_against_bisection(self):
        nb = default_neighborhoods(0.01)
        assert vdp_slow_manifold_phi(0.25, 0.0, nb) == pytest.approx(
            0.5537017978108165, abs=1e-12)
        for y in np.linspace(0.05, 1.2, 24):
            assert vdp_slow_manifold_phi(y, 0.0, nb) == pytest.approx(
                _bisect_phi0(y), abs=1e-12)

    def test_first_order_correction(self):
        nb = default_neighborhoods(0.01)
        assert vdp_slow_manifold_phi(2.0 / 3.0, 0.01, nb) == pytest.approx(
            1.01, abs=1e-13)

    def test_expansion_matches_backward_oracle(self):
        nb = default_neighborhoods(0.01)
        expansion = vdp_slow_manifold_phi(2.0 / 3.0, 0.01, nb)
        descended = _branch_oracle(0.01, [2.0 / 3.0])[2.0 / 3.0]
        assert abs(expansion - descended) < 5e-4

    def test_domain_enforced(self):
        nb = default_neighborhoods(0.01)
        with pytest.raises(DomainError):
            vdp_slow_manifold_phi(0.001, 0.01, nb)
        with pytest.raises(DomainError):
            vdp_slow_manifold_phi(1.3, 0.01, nb)

    def test_chart_graph_limit_and_interior(self):
        # r1 = 0 limit is the centre-branch root, checked through H1 = 0
        for eps1 in (0.05, 0.1, 0.4):
            x1 = k1_chart_phi1(0.0, eps1)
            assert x1 == pytest.approx(math.sqrt(1.0 + 0.5 * eps1), rel=1e-14)
            assert eval_H1(x1, eps1) == pytest.approx(0.0, abs=1e-13)
        # interior values blow down to the planar graph
        nb = NeighborhoodParams(y_min=1e-4, y_h=1.25)
        r1, eps1 = 0.5, 0.1
        planar = vdp_slow_manifold_phi(r1 * r1, r1 * r1 * eps1, nb)
        assert k1_chart_phi1(r1, eps1) == pytest.approx(planar / r1, rel=1e-13)

    def test_chart_graph_seam_at_axis(self):
        # blowing down the first-order planar graph loses the eps1^2 part
        # of the branch: the r1 -> 0+ limit is 1 + eps1/4, which sits
        # eps1^2/32 above the exact axis value sqrt(1 + eps1/2)
        eps1 = 0.1
        near = k1_chart_phi1(1e-6, eps1)
        assert near == pytest.approx(1.0 + 0.25 * eps1, abs=1e-5)
        gap = near - k1_chart_phi1(0.0, eps1)
        assert gap == pytest.approx(eps1 ** 2 / 32.0, rel=0.05)


class TestBumps:
    def test_plateau_deep_in_n2(self):
        nb = default_neighborhoods(0.01)
        assert bump_psi(PhasePoint(0.0, 0.0), "N2", nb) == 1.0

    def test_zero_far_outside(self):
        nb = default_neighborhoods(0.01)
        assert bump_psi(PhasePoint(10.0, 0.5), "N1", nb) == 0.0
        assert bump_psi(PhasePoint(10.0, 0.5), "N2", nb) == 0.0

    def test_band_midpoint_is_half(self):
        nb = default_neighborhoods(0.01)
        # x-window of N2: upper band is [x_max - tau, x_max], tau = 0.075;
        # keep the residual window on its plateau by choosing y = x^2
        x = nb.x_max - 0.5 * (1.0 - nb.inner_margin) * 0.15
        val = bump_psi(PhasePoint(x, x * x), "N2", nb)
        assert val == pytest.approx(0.5, rel=1e-12)

    def test_range_and_support(self):
        nb = default_neighborhoods(0.01)
        rng = np.random.default_rng(7)
        for _ in range(2000):
            p = PhasePoint(rng.uniform(-1.0, 2.5), rng.uniform(-0.5, 1.5))
            for region in ("N1", "N2"):
                v = bump_psi(p, region, nb)
                assert 0.0 <= v <= 1.0
        # N1 support respects the height slab
        assert bump_psi(PhasePoint(0.5, nb.y_min - 1e-9), "N1", nb) == 0.0
        assert bump_psi(PhasePoint(1.0, nb.y_h + 1e-9), "N1", nb) == 0.0

    @pytest.mark.parametrize("region", ["N1", "N2"])
    @pytest.mark.parametrize("p", [(math.nan, 0.5), (0.1, math.nan),
                                   (math.nan, math.nan)])
    def test_nan_coordinate_is_outside(self, p, region):
        # each point lies on a plateau of every window its finite coordinate
        # enters, so a nan window read as 1 would give a full bump
        assert bump_psi(p, region, default_neighborhoods(0.01)) == 0.0

    def test_rejects_unknown_region(self):
        with pytest.raises(DomainError):
            bump_psi(PhasePoint(0.0, 0.0), "N3", default_neighborhoods(0.01))


class TestChartK1Law:
    def test_zero_on_branch_without_offset(self):
        gains = ControllerGains(1.0, 2.0, k1=1.0, x_star=0.0)
        mu = k1_vdp_mu(gains, ChartPointK1(0.0, 1.0, 0.0))
        assert mu == pytest.approx(0.0, abs=1e-14)

    def test_closed_loop_push_at_axis(self):
        # k1 = 0: closed-loop x1' = -f1(x1) + v = 1 at x1 = 0
        gains = ControllerGains(1.0, 2.0, k1=0.0, x_star=0.0)
        mu = k1_vdp_mu(gains, ChartPointK1(0.0, 0.0, 0.0))
        xdot = (-1.0 + 0.0) + mu
        assert xdot == pytest.approx(1.0, rel=1e-14)

    def test_variational_rate(self):
        # transverse linearization at x1 = x_star + phi1 is -(2 phi1 + k1)
        for k1 in (0.0, 1.0, 2.5):
            for x_star in (0.0, -0.05, 0.08):
                gains = ControllerGains(1.0, 2.0, k1=k1, x_star=x_star)
                ph = k1_chart_phi1(0.0, 0.0)

                def closed(x1):
                    cp = ChartPointK1(0.0, x1, 0.0)
                    return (-1.0 + x1 * x1) + k1_vdp_mu(gains, cp)

                d = 1e-6
                z = x_star + ph
                rate = (closed(z + d) - closed(z - d)) / (2.0 * d)
                assert rate == pytest.approx(-(2.0 * ph + k1), abs=1e-8)

    def test_singular_at_vanishing_branch(self, monkeypatch):
        gains = ControllerGains(1.0, 2.0)
        monkeypatch.setattr("canardctl.controllers.k1_chart_phi1",
                            lambda r, e: 0.0)
        with pytest.raises(SingularConfigurationError):
            k1_vdp_mu(gains, ChartPointK1(0.0, 1.0, 0.0))


# The two laws composite_u blends, each as a function of its own: the
# reference its one-frame evaluation must match bit for bit.

def _vdp_u1(p, eps, gains):
    """Blow-down of the entry-chart controller to original coordinates,
    about the first-order slow-manifold graph at height y."""
    x, y = p
    p0 = _phi0(y)
    fx = 2.0 * p0 - p0 * p0
    phi = p0 + eps * (p0 / (fx * fx))
    sy = math.sqrt(y)
    xs = gains.x_star * sy
    v1 = ((2.0 * phi + xs) / phi
          * (-y + phi * phi - eps / (2.0 * y) * phi * phi - phi ** 3 / 3.0)
          - (eps / y * phi + sy * phi * phi + gains.k1 * sy) * (x - phi - xs))
    d = x - xs
    return (-(-y + x * x - x * x * eps / (2.0 * y) - x ** 3 / 3.0)
            - (-y + d * d - d * d * eps / (2.0 * y) - d ** 3 / 3.0) + v1)


def _vdp_u2(p, eps, gains):
    """Fold-local law: the h = 0, c2 = 2 fast controller in closed form."""
    x, y = p
    return gains.c1 * x / math.sqrt(eps) * (y - x * x + 0.5 * eps)


def _oracle_blend(p, eps, gains, nbhd):
    """composite_u built from the two law functions above."""
    x, y = p
    psi1 = _psi_n1(x, y, nbhd)
    psi2 = _psi_n2(x, y, nbhd)
    if psi1 == 0.0 and psi2 == 0.0:
        return 0.0
    u1 = _vdp_u1(p, eps, gains) if psi1 > 0.0 else 0.0
    u2 = _vdp_u2(p, eps, gains) if psi2 > 0.0 else 0.0
    s = psi1 + psi2
    return (psi1 * u1 + psi2 * u2) * (s - psi1 * psi2) / s


class TestComposite:
    def test_zero_outside_both_neighborhoods(self):
        nb = default_neighborhoods(0.01)
        gains = ControllerGains(1.0, 2.0, k1=1.0)
        assert composite_u(VdpLaw(0.01, gains, nb), PhasePoint(-1.5, 1.0)) == 0.0

    def test_full_authority_deep_in_n2(self):
        nb = default_neighborhoods(0.01)
        gains = ControllerGains(1.0, 2.0, k1=1.0)
        p = PhasePoint(0.1, 0.01)
        assert bump_psi(p, "N1", nb) == 0.0
        assert bump_psi(p, "N2", nb) == 1.0
        u2 = _vdp_u2(p, 0.01, gains)
        assert composite_u(VdpLaw(0.01, gains, nb), p) == \
            pytest.approx(u2, rel=1e-14)

    def test_u2_matches_scaled_fast_law(self):
        # u2 is the h = 0, c2 = 2 fast law with the 1/2 absorbed into c1
        rng = np.random.default_rng(11)
        for _ in range(300):
            p = PhasePoint(rng.uniform(-0.5, 0.5), rng.uniform(-0.1, 0.5))
            eps = float(rng.uniform(0.005, 0.1))
            c1 = float(rng.uniform(0.1, 5.0))
            u2 = _vdp_u2(p, eps, ControllerGains(c1, 2.0))
            uf = fast_u(FoldLaw(SystemParams(eps, 0.0), ControllerGains(c1, 2.0),
                                ScaledLevel(0.0)), p)
            assert u2 == pytest.approx(2.0 * uf, rel=1e-12, abs=1e-15)

    def test_u2_zero_structure(self):
        nb = default_neighborhoods(0.01)
        gains = ControllerGains(1.0, 2.0)
        assert _vdp_u2(PhasePoint(0.0, 0.1), 0.01, gains) == 0.0
        x = 0.05
        assert _vdp_u2(PhasePoint(x, x * x - 0.005), 0.01, gains) == \
            pytest.approx(0.0, abs=1e-18)

    def test_c2_smoothness_across_boundaries(self):
        # grid second differences: bounded, and no O(1/h) jump at the bump
        # edges (frozen against a 1e-3 scan; a C1-only blend jumps by ~1e3)
        nb = default_neighborhoods(0.01)
        law = VdpLaw(0.01, ControllerGains(1.0, 2.0, k1=1.0), nb)
        h = 1e-3

        def scan(points):
            us = [composite_u(law, p) for p in points]
            d2 = [(us[i + 1] - 2.0 * us[i] + us[i - 1]) / h ** 2
                  for i in range(1, len(us) - 1)]
            jump = max(abs(d2[i + 1] - d2[i]) for i in range(len(d2) - 1))
            return max(abs(v) for v in d2), jump

        across_x = [PhasePoint(0.15 + i * h, 0.01) for i in range(251)]
        across_y = [PhasePoint(0.35, 0.005 + i * h) for i in range(101)]
        for pts in (across_x, across_y):
            mag, jump = scan(pts)
            assert mag < 500.0
            assert jump < 100.0


class TestParamBlocks:
    def test_neighborhood_validation(self):
        with pytest.raises(DomainError):
            NeighborhoodParams(y_min=0.5, y_h=0.4)
        with pytest.raises(DomainError):
            NeighborhoodParams(y_h=1.5)
        with pytest.raises(DomainError):
            NeighborhoodParams(inner_margin=1.0)
        with pytest.raises(DomainError):
            NeighborhoodParams(beta1=-0.1)

    def test_default_neighborhoods_floor(self):
        nb = default_neighborhoods(0.02)._replace(y_h=0.75)
        assert nb.y_min == 0.04
        assert nb.y_h == 0.75

    def test_window_bands_follow_the_fields(self):
        def band(lo, hi, m):
            return (1.0 - m) * min(0.5 * (hi - lo), 0.15)

        nb = NeighborhoodParams(beta1=0.1, beta2=0.4, x_min=0.05, x_max=0.3,
                                y_min=0.02, y_h=0.12, inner_margin=0.3)
        assert (nb._band_n1_y, nb._band_n1_g, nb._band_n1_x,
                nb._band_n2_x, nb._band_n2_g) == (
            band(0.02, 0.12, 0.3), band(-0.1, 0.1, 0.3), band(0.0, 2.0, 0.3),
            band(-0.05, 0.3, 0.3), band(-0.4, 0.4, 0.3))
        # _replace() builds a new block, whose bands follow its own fields
        moved = nb._replace(y_h=1.25)
        assert moved._band_n1_y == band(0.02, 1.25, 0.3)
        # the bands are derived, so equality, hashing and repr ignore them
        assert nb == NeighborhoodParams(beta1=0.1, beta2=0.4, x_min=0.05,
                                        x_max=0.3, y_min=0.02, y_h=0.12,
                                        inner_margin=0.3)
        assert "_band" not in repr(nb)


_NONFINITE = [math.nan, math.inf, -math.inf]


def _finite_message(name, value):
    return f"^{re.escape(f'{name} must be finite, got {value!r}')}$"


def _eps_message(value):
    return f"^{re.escape(f'eps must be a positive finite real, got {value!r}')}$"


class TestArgumentChecks:
    """Every argument a law checks still raises the same DomainError."""

    @pytest.mark.parametrize("arg,bad", [
        *((arg, bad) for arg in ("x", "y", "c2", "eps") for bad in _NONFINITE),
        ("eps", 0.0), ("eps", -0.5)])
    @pytest.mark.parametrize("law", [fast_u, slow_u])
    def test_fold_laws(self, law, arg, bad):
        args = {"x": 0.2, "y": 0.3, "c2": 2.0, "eps": 0.01, arg: bad}
        # stand-ins for the parameter blocks, which refuse a non-finite value
        params = SimpleNamespace(eps=args["eps"], alpha=0.0)
        gains = SimpleNamespace(c1=1.0, c2=args["c2"])
        msg = _eps_message(bad) if arg == "eps" else _finite_message(arg, bad)
        with pytest.raises(DomainError, match=msg):
            law(FoldLaw(params, gains, ScaledLevel(0.25, 400.0)),
                PhasePoint(args["x"], args["y"]))

    @pytest.mark.parametrize("x", [0.2, math.nan, math.inf],
                             ids=["finite", "nan-x", "inf-x"])
    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("law", [fast_u, slow_u])
    def test_fold_laws_reject_a_bad_eps_at_any_point(self, law, eps, x):
        # the law's LevelTerm is the one eps check; it runs when the law is
        # bound, before sqrt(eps) and before any point is evaluated
        params = SimpleNamespace(eps=eps, alpha=0.0)
        with pytest.raises(DomainError, match=_eps_message(eps)):
            law(FoldLaw(params, ControllerGains(1.0, 2.0),
                        ScaledLevel(0.25, 400.0)), PhasePoint(x, 0.3))

    @pytest.mark.parametrize("bad", _NONFINITE)
    @pytest.mark.parametrize("arg", ["r2", "x2", "y2", "alpha2", "level_h"])
    def test_k2_mu(self, arg, bad):
        args = {"r2": 0.1, "x2": 0.5, "y2": 1.0, "alpha2": 1.0,
                "level_h": 1e-16, arg: bad}
        with pytest.raises(DomainError, match=_finite_message(arg, bad)):
            k2_mu(K2Law(ControllerGains(1.0, 2.0), args["level_h"], args["r2"],
                        args["alpha2"]), (args["x2"], args["y2"]))

    @pytest.mark.parametrize("bad", _NONFINITE)
    @pytest.mark.parametrize("arg", ["r1", "x1", "eps1"])
    def test_k1_vdp_mu(self, arg, bad):
        args = {"r1": 0.1, "x1": 1.0, "eps1": 0.1, arg: bad}
        p = ChartPointK1(args["r1"], args["x1"], args["eps1"])
        with pytest.raises(DomainError, match=_finite_message(arg, bad)):
            k1_vdp_mu(ControllerGains(1.0, 2.0), p)

    @pytest.mark.parametrize("bad", _NONFINITE)
    @pytest.mark.parametrize("arg", ["r1", "eps1"])
    def test_k1_chart_phi1(self, arg, bad):
        args = {"r1": 0.1, "eps1": 0.1, arg: bad}
        with pytest.raises(DomainError, match=_finite_message(arg, bad)):
            k1_chart_phi1(args["r1"], args["eps1"])

    @pytest.mark.parametrize("bad", _NONFINITE)
    @pytest.mark.parametrize("arg", ["y", "eps"])
    def test_vdp_slow_manifold_phi(self, arg, bad):
        args = {"y": 0.5, "eps": 0.01, arg: bad}
        with pytest.raises(DomainError, match=_finite_message(arg, bad)):
            vdp_slow_manifold_phi(args["y"], args["eps"],
                                  default_neighborhoods(0.01))

    @pytest.mark.parametrize("bad", [0.0, -0.5, math.nan])
    def test_composite_u(self, bad):
        with pytest.raises(DomainError, match=_eps_message(bad)):
            composite_u(VdpLaw(bad, ControllerGains(1.0, 2.0),
                               default_neighborhoods(0.01)), PhasePoint(0.2, 0.04))


def _bits(value):
    return tuple(v.hex() for v in value) if isinstance(value, tuple) else value.hex()


_PARAMS = SystemParams(0.01, -0.1)
_GAINS = ControllerGains(1.5, 2.5)
_LEVEL = ScaledLevel(0.25, 60.0)
_VDP_GAINS = ControllerGains(1.0, 2.0, k1=1.0, x_star=-0.01)
_NBHD = default_neighborhoods(0.01)
_LAWS = {
    "fold_rhs-fast": partial(fold_rhs, FoldField(_PARAMS, 100.0), u=0.7),
    "fold_rhs-slow": partial(fold_rhs, FoldField(_PARAMS, 100.0, "slow"),
                             u=0.7),
    "vdp_rhs": partial(vdp_rhs, 0.01, u=-0.3),
    "eval_level_term": lambda p: eval_level_term(
        p[0], p[1], LevelTerm(0.01, 2.5, _LEVEL)),
    "fast_u": partial(fast_u, FoldLaw(_PARAMS, _GAINS, _LEVEL)),
    "fast_u-phi_hat": partial(fast_u, FoldLaw(_PARAMS, _GAINS, _LEVEL, 100.0)),
    "slow_u": partial(slow_u, FoldLaw(_PARAMS, _GAINS, _LEVEL)),
    "k2_mu": partial(k2_mu, K2Law(_GAINS, 1e-3, 0.1, 0.8, shear=1.0)),
    "k2_field": partial(k2_field, K2Field(0.1, 0.8, shear=1.0), mu2=0.3),
    "k1_vdp_mu": partial(k1_vdp_mu, _VDP_GAINS),
    "k1_vdp_field": partial(k1_vdp_field, mu1=-0.2),
    "composite_u": partial(composite_u, VdpLaw(0.01, _VDP_GAINS, _NBHD)),
}


@pytest.mark.parametrize("name,point", [
    ("fold_rhs-fast", PhasePoint(0.3, 0.2)),
    ("fold_rhs-slow", PhasePoint(0.3, 0.2)),
    ("vdp_rhs", PhasePoint(1.1, 0.4)),
    ("eval_level_term", PhasePoint(0.3, 0.2)),
    ("fast_u", PhasePoint(0.3, 0.2)),
    ("fast_u-phi_hat", PhasePoint(0.3, 0.2)),
    ("slow_u", PhasePoint(0.3, 0.2)),
    ("k2_mu", PhasePoint(0.5, 1.2)),
    ("k2_field", PhasePoint(0.5, 1.2)),
    ("k1_vdp_mu", ChartPointK1(0.3, 1.05, 0.1)),
    ("k1_vdp_field", ChartPointK1(0.3, 1.05, 0.1)),
    ("composite_u", PhasePoint(1.0, 2.0 / 3.0)),
    ("composite_u", PhasePoint(0.1, 0.01)),
    ("composite_u", PhasePoint(0.2, 0.04)),
], ids=["fold_rhs-fast", "fold_rhs-slow", "vdp_rhs", "eval_level_term", "fast_u",
        "fast_u-phi_hat", "slow_u", "k2_mu", "k2_field", "k1_vdp_mu",
        "k1_vdp_field", "composite_u-N1", "composite_u-N2", "composite_u-overlap"])
def test_law_gives_the_same_bits_for_a_plain_tuple_point(name, point):
    # the runners integrate plain-tuple states through the same laws; a
    # slice of an entry-chart point is the (r1, x1, eps1) k1-vdp builds
    plain = point[:3] if isinstance(point, ChartPointK1) else tuple(point)
    assert type(plain) is tuple
    assert _bits(_LAWS[name](plain)) == _bits(_LAWS[name](point))


_FOLD_GRID = [(x, y) for x in (-0.4, 0.05, 0.3) for y in (-0.1, 0.02, 0.2)]
_CHART_GRID = [(x, y) for x in (-1.5, 0.5, 2.0) for y in (-0.5, 1.2, 3.0)]
_VDP_POINTS = [(1.0, 2.0 / 3.0), (0.1, 0.01), (0.2, 0.04), (0.7, 0.35),
               (-0.1, 0.005), (1.5, 1.0)]
_PLAIN = SystemParams(0.01, 0.0)
_C2_2 = ControllerGains(1.5, 2.0)
_PINNED_LAWS = {
    "eval_level_term": (
        lambda p: eval_level_term(*p, LevelTerm(0.01, 2.5, _LEVEL)), _FOLD_GRID),
    "eval_level_term-c2-2": (
        lambda p: eval_level_term(*p, LevelTerm(0.01, 2.0, ScaledLevel(0.0))),
        _FOLD_GRID),
    "fast_u": (partial(fast_u, FoldLaw(_PARAMS, _GAINS, _LEVEL)), _FOLD_GRID),
    "fast_u-shear": (partial(fast_u, FoldLaw(_PLAIN, _C2_2, _LEVEL, 100.0)),
                     _FOLD_GRID),
    "slow_u": (partial(slow_u, FoldLaw(_PARAMS, _GAINS, _LEVEL)), _FOLD_GRID),
    "fold_rhs-fast-shear": (
        partial(fold_rhs, FoldField(_PLAIN, 100.0), u=0.7), _FOLD_GRID),
    "fold_rhs-slow": (
        partial(fold_rhs, FoldField(_PARAMS, channel="slow"), u=0.7),
        _FOLD_GRID),
    "k2_mu": (partial(k2_mu, K2Law(_GAINS, 1e-3, 0.1, 0.8)), _CHART_GRID),
    "k2_mu-shear": (partial(k2_mu, K2Law(_C2_2, 1e-3, 0.1, 0.8, 1.0)),
                    _CHART_GRID),
    "k2_field": (partial(k2_field, K2Field(0.0, 0.8), mu2=0.3), _CHART_GRID),
    "k2_field-shear": (partial(k2_field, K2Field(0.1, 0.8, 1.0), mu2=0.3),
                       _CHART_GRID),
    "composite_u": (partial(composite_u, VdpLaw(0.01, _VDP_GAINS, _NBHD)),
                    _VDP_POINTS),
}
# each law's values over its grid, as the laws gave them before their
# constants were bound once per run: the binding moves no bit
_PINNED_BITS = {
    'eval_level_term': (
        '-0x1.5fe1ee68a9e82p-4', '-0x1.25930e55929c2p+4',
        '0x1.832f1896fd88fp+15', '-0x1.0d162ec881edcp-5',
        '0x1.876ebdc76e257p+1', '0x1.b394fbab2a770p+17',
        '-0x1.fe931db0f6880p-5', '-0x1.1ab3891008704p+3',
        '0x1.eebc2da5a50ffp+16',
    ),
    'eval_level_term-c2-2': (
        '-0x1.9800000000000p+3', '-0x1.b000000000002p+2',
        '0x1.1fffffffffffdp+1', '-0x1.3800000000000p+2',
        '0x1.2000000000000p+0', '0x1.4400000000000p+3',
        '-0x1.2800000000000p+3', '-0x1.9ffffffffffffp+1',
        '0x1.7000000000001p+2',
    ),
    'fast_u': (
        '-0x1.133b68ee940dap-4', '0x1.4f68ee5487085p-2',
        '-0x1.6436b039d3013p+12', '0x1.3916544e551d3p-6',
        '0x1.c4f03cbab29b2p-6', '0x1.1aa54298004e1p+12',
        '0x1.099b677499a55p-4', '-0x1.07e95570deaa6p+0',
        '0x1.73b4927c78839p+11',
    ),
    'fast_u-shear': (
        '0x1.6c8b439581068p-4', '0x1.ac083126e9790p-3',
        '-0x1.353f7cec8174cp-3', '-0x1.220c49ba5e355p-3',
        '0x1.604189374bc6cp-8', '-0x1.41a9fbe77d8a9p-2',
        '-0x1.8df3b645a1cacp-1', '-0x1.8fdf3b645a1c9p-3',
        '0x1.1a1cac0765304p-3',
    ),
    'slow_u': (
        '0x1.e15ef74c181e3p-3', '0x1.3374024040573p+5',
        '0x1.d09e83e86370ep+14', '-0x1.957ab1abb83c2p-5',
        '0x1.67cde0de33a75p-1', '0x1.429a53fdf8402p+19',
        '0x1.3df80a4f5f4eap-4', '0x1.25a2e98408dc4p+3',
        '0x1.9827ff4241c6dp+17',
    ),
    'fold_rhs-fast-shear': (
        ('0x1.eb851eb851eb8p-1', '0x1.999999999999ap-4'),
        ('0x1.ae147ae147ae1p-1', '0x1.a9fbe76c8b43bp-5'),
        ('0x1.51eb851eb851ep-1', '-0x1.47ae147ae1478p-6'),
        ('0x1.9ae147ae147aep-1', '-0x1.2f1a9fbe76c8cp-8'),
        ('0x1.5d70a3d70a3d7p-1', '0x1.6872b020c49bbp-10'),
        ('0x1.0147ae147ae14p-1', '0x1.53f7ced916873p-7'),
        ('0x1.c7ae147ae147ap-1', '-0x1.ba5e353f7cedap-5'),
        ('0x1.8a3d70a3d70a3p-1', '-0x1.26e978d4fdf3ap-6'),
        ('0x1.2e147ae147ae1p-1', '0x1.26e978d4fdf3cp-5'),
    ),
    'fold_rhs-slow': (
        ('0x1.0a3d70a3d70a4p-2', '0x1.0624dd2f1a9fbp-8'),
        ('0x1.1eb851eb851edp-3', '0x1.0624dd2f1a9fbp-8'),
        ('-0x1.47ae147ae1478p-5', '0x1.0624dd2f1a9fbp-8'),
        ('0x1.a3d70a3d70a3ep-4', '0x1.16872b020c49cp-7'),
        ('-0x1.1eb851eb851ecp-6', '0x1.16872b020c49cp-7'),
        ('-0x1.947ae147ae148p-3', '0x1.16872b020c49cp-7'),
        ('0x1.851eb851eb852p-3', '0x1.6872b020c49bbp-7'),
        ('0x1.1eb851eb851ebp-4', '0x1.6872b020c49bbp-7'),
        ('-0x1.c28f5c28f5c2ap-4', '0x1.6872b020c49bbp-7'),
    ),
    'k2_mu': (
        '0x1.ddb1a7d3e087ap+1', '0x1.77605e9c0154cp+1',
        '-0x1.e5a99c1d82a10p-2', '-0x1.8362dfd1cb7e0p+0',
        '-0x1.db6e10d461c48p-2', '0x1.55405d4514d7ap+1',
        '-0x1.106fefee65dd0p+3', '-0x1.45f85a4008b2dp+3',
        '-0x1.94033a5fe6976p+3',
    ),
    'k2_mu-shear': (
        '0x1.c49600c59eaa9p+1', '0x1.258aecbc4c297p+1',
        '0x1.3488f4c7c5658p+0', '-0x1.971c526f443b2p+0',
        '-0x1.fd52267c165c4p-1', '-0x1.47b2c5a593b81p+0',
        '-0x1.7bb71efa3179bp+3', '-0x1.036d1d13c2019p+3',
        '-0x1.799e4ac44c09fp+2',
    ),
    'k2_field': (
        ('0x1.4a3d70a3d70a4p+0', '-0x1.8000000000000p+0'),
        ('-0x1.a3d70a3d70a3dp-2', '-0x1.8000000000000p+0'),
        ('-0x1.1ae147ae147afp+1', '-0x1.8000000000000p+0'),
        ('0x1.3eb851eb851ecp+1', '0x1.0000000000000p-1'),
        ('0x1.947ae147ae14ap-1', '0x1.0000000000000p-1'),
        ('-0x1.028f5c28f5c28p+0', '0x1.0000000000000p-1'),
        ('0x1.147ae147ae148p+3', '0x1.0000000000000p+1'),
        ('0x1.bc28f5c28f5c1p+2', '0x1.0000000000000p+1'),
        ('0x1.48f5c28f5c28ep+2', '0x1.0000000000000p+1'),
    ),
    'k2_field-shear': (
        ('0x1.4a3d70a3d70a4p+0', '-0x1.1666666666666p+0'),
        ('-0x1.a3d70a3d70a3dp-2', '-0x1.57ae147ae147bp+0'),
        ('-0x1.1ae147ae147afp+1', '-0x1.9cccccccccccdp+0'),
        ('0x1.3eb851eb851ecp+1', '0x1.d99999999999ap-2'),
        ('0x1.947ae147ae14ap-1', '0x1.1851eb851eb85p-1'),
        ('-0x1.028f5c28f5c28p+0', '0x1.4666666666666p-1'),
        ('0x1.147ae147ae148p+3', '0x1.199999999999ap+0'),
        ('0x1.bc28f5c28f5c1p+2', '0x1.70a3d70a3d70ap+0'),
        ('0x1.48f5c28f5c28ep+2', '0x1.ccccccccccccdp+0'),
    ),
    'composite_u': (
        '0x1.e169a611f09e9p-7', '0x1.47ae147ae1479p-8',
        '0x1.68a486b1e4b5cp-7', '-0x1.04dd9e37f3730p-4',
        '0x1.0000000000000p-59', '-0x1.137824e7ba571p-3',
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED_LAWS))
def test_bound_laws_keep_their_bits(name):
    law, points = _PINNED_LAWS[name]
    assert tuple(_bits(law(p)) for p in points) == _PINNED_BITS[name]


# faults the laws and fields raise at a state, with the type and message
# they had before their constants were bound once per run
_PINNED_FAULTS = {
    "fold_rhs-nonfinite-control": (
        lambda: fold_rhs(FoldField(_PARAMS), (0.1, 0.2), math.inf),
        OverflowError, "non-finite control value inf"),
    "fold_rhs-slow-nonfinite-control": (
        lambda: fold_rhs(FoldField(_PARAMS, channel="slow"), (0.1, 0.2),
                         math.nan),
        OverflowError, "non-finite control value nan"),
    "fast_u-level-overflow": (
        lambda: fast_u(FoldLaw(_PLAIN, ControllerGains(1.0, 3.0),
                               ScaledLevel(0.25)), (0.1, 3.0)),
        ExponentOverflowError,
        "exponent c2*y/eps - E = 900 exceeds the safe range (700)"),
    "slow_u-level-overflow": (
        lambda: slow_u(FoldLaw(_PLAIN, ControllerGains(1.0, 2.5),
                               ScaledLevel(0.25, 400.0)), (0.1, 9.0)),
        ExponentOverflowError,
        "exponent c2*y/eps - E = 1850 exceeds the safe range (700)"),
    "fast_u-weight-overflow": (
        lambda: fast_u(FoldLaw(_PLAIN, ControllerGains(1.0, 6.0),
                               ScaledLevel(0.0)), (0.1, 3.0)),
        ExponentOverflowError,
        "exponent (c2-2)*y/eps = 1200 exceeds the safe range (700)"),
    "eval_level_term-out-of-range": (
        lambda: eval_level_term(1e200, 0.0,
                                LevelTerm(0.01, 2.0, ScaledLevel(0.0))),
        ExponentOverflowError,
        "exponent (c2-2)*y/eps = 0 takes its term out of floating-point range"),
    "k2_mu-level-overflow": (
        lambda: k2_mu(K2Law(_GAINS, 1e-3, 0.1, 0.8), (0.3, 400.0)),
        ExponentOverflowError,
        "exponent c2*y2 = 1000 exceeds the safe range (700)"),
    "fast_u-nonfinite-state": (
        lambda: fast_u(FoldLaw(_PARAMS, _GAINS, _LEVEL), (math.nan, 0.2)),
        DomainError, "x must be finite, got nan"),
    "fast_u-overflowed-state": (
        lambda: fast_u(FoldLaw(_PLAIN, _C2_2, _LEVEL), (0.1, 1e308 * 10)),
        DomainError, "y must be finite, got inf"),
    "slow_u-nonfinite-state": (
        lambda: slow_u(FoldLaw(_PARAMS, _GAINS, _LEVEL), (0.2, math.inf)),
        DomainError, "y must be finite, got inf"),
    "k2_mu-nonfinite-state": (
        lambda: k2_mu(K2Law(_GAINS, 1e-3, 0.1, 0.8), (math.nan, 0.2)),
        DomainError, "x2 must be finite, got nan"),
}


@pytest.mark.parametrize("name", sorted(_PINNED_FAULTS))
def test_bound_laws_keep_their_faults(name):
    call, error, message = _PINNED_FAULTS[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def _margin_window(v, lo, hi, margin):
    # the window with its band worked out on every call, from the margin
    if not lo < v < hi:
        return 0.0
    band = (1.0 - margin) * min(0.5 * (hi - lo), 0.15)
    s = 1.0
    if v < lo + band:
        s = _smoothstep((v - lo) / band)
    elif v > hi - band:
        s = _smoothstep((hi - v) / band)
    return s


def _loop_phi0(y):
    # reference form of the branch root, with a Newton loop and a min/max
    # clamp: the loop-free _phi0 must match it bit for bit
    if not 0.0 <= y <= 4.0 / 3.0:
        raise DomainError(f"height {y!r} outside [0, 4/3]")
    if y == 0.0:
        return 0.0
    if y < 1e-3:
        x = math.sqrt(y) + y / 6.0
    else:
        q = 3.0 * y - 2.0
        a = max(-1.0, min(1.0, -0.5 * q))
        x = 1.0 + 2.0 * math.cos(math.acos(a) / 3.0 - 2.0 * math.pi / 3.0)
    for _ in range(2):
        fx = 2.0 * x - x * x
        if fx == 0.0:
            break
        x -= (x * x - x ** 3 / 3.0 - y) / fx
    return x


def test_loop_free_phi0_gives_the_loop_bits():
    rng = np.random.default_rng(1403)
    heights = ([0.0, 5e-324, math.nextafter(1e-3, 0.0), 1e-3, 2.0 / 3.0,
                math.nextafter(4.0 / 3.0, 0.0), 4.0 / 3.0]
               + [float(y) for y in rng.uniform(0.0, 4.0 / 3.0, 20000)]
               + [float(y) for y in rng.uniform(0.0, 2e-3, 2000)]
               + [float(y) for y in np.linspace(0.0, 4.0 / 3.0, 4001)])
    for y in heights:
        assert _bits(_phi0(y)) == _bits(_loop_phi0(y)), y


def _parent_composite_u(p, eps, gains, nbhd):
    # reference blend with no short cut: every window multiplied in full, its
    # band recomputed per call, and the branch root found twice per graph
    # value (for phi0 and its correction), by the loop form of the root
    x, y = p
    m = nbhd.inner_margin
    psi1 = (_margin_window(-y + x * x - x ** 3 / 3.0, -nbhd.beta1, nbhd.beta1, m)
            * _margin_window(x, 0.0, 2.0, m)
            * _margin_window(y, nbhd.y_min, nbhd.y_h, m))
    psi2 = (_margin_window(-y + x * x, -nbhd.beta2, nbhd.beta2, m)
            * _margin_window(x, -nbhd.x_min, nbhd.x_max, m))
    if psi1 == 0.0 and psi2 == 0.0:
        return 0.0
    u1 = u2 = 0.0
    if psi1 > 0.0:
        p0 = _loop_phi0(y)
        fx = 2.0 * p0 - p0 * p0
        phi = _loop_phi0(y) + eps * (p0 / (fx * fx))
        sy = math.sqrt(y)
        xs = gains.x_star * sy

        def f_shift(shift):
            d = x - shift
            return -y + d * d - d * d * eps / (2.0 * y) - d ** 3 / 3.0

        v1 = ((2.0 * phi + xs) / phi
              * (-y + phi * phi - eps / (2.0 * y) * phi * phi - phi ** 3 / 3.0)
              - (eps / y * phi + sy * phi * phi + gains.k1 * sy) * (x - phi - xs))
        u1 = -f_shift(0.0) - f_shift(xs) + v1
    if psi2 > 0.0:
        u2 = gains.c1 * x / math.sqrt(eps) * (y - x * x + 0.5 * eps)
    s = psi1 + psi2
    return (psi1 * u1 + psi2 * u2) * (s - psi1 * psi2) / s


# the window edges of the default neighborhoods at eps = 0.01 and of each
# height the supervised run uses (band = 0.075 at inner_margin 0.5)
_X_EDGES = [-0.3, -0.225, 0.0, 0.075, 0.225, 0.3, 1.925, 2.0]
_Y_EDGES = [0.02, 0.095, 0.675, 0.75, 1.175, 1.25]
_G_EDGES = [-0.15, -0.075, 0.075, 0.15]


@pytest.mark.parametrize("y_h", [0.75, 1.25])
def test_bumps_equal_the_product_of_their_windows(y_h):
    # every band, plateau and rejecting side of each window, with the
    # other coordinate on that window's plateau or in its own band
    nbhd = default_neighborhoods(0.01)._replace(y_h=y_h)
    m = nbhd.inner_margin
    xs = _X_EDGES + [-0.29, -0.26, -0.1, 0.03, 0.05, 0.26, 0.29, 0.6, 1.0,
                     1.5, 1.95, 1.99, 2.5, math.nan]
    points = [(x, y) for x in xs
              for y in _Y_EDGES + [0.05, 0.4, 1.2, 1.24, -0.1, 1.4, math.nan]]
    for x in xs:
        if math.isnan(x):
            continue
        # g = -0.08 and -0.09 near x = 0 put all three N1 windows in a band
        for g in _G_EDGES + [-0.14, -0.1, -0.09, -0.08, -0.05, 0.0, 0.05,
                             0.1, 0.14]:
            points += [(x, x * x - x ** 3 / 3.0 - g), (x, x * x - g)]
    for x, y in points:
        n1 = (_margin_window(-y + x * x - x ** 3 / 3.0, -nbhd.beta1,
                             nbhd.beta1, m)
              * _margin_window(x, 0.0, 2.0, m)
              * _margin_window(y, nbhd.y_min, nbhd.y_h, m))
        n2 = (_margin_window(-y + x * x, -nbhd.beta2, nbhd.beta2, m)
              * _margin_window(x, -nbhd.x_min, nbhd.x_max, m))
        assert _bits(_psi_n1(x, y, nbhd)) == _bits(n1), (x, y)
        assert _bits(_psi_n2(x, y, nbhd)) == _bits(n2), (x, y)
    # the grid reaches the inside of every band, not only the plateaus
    assert len({_psi_n1(x, y, nbhd) for x, y in points}) > 50
    assert len({_psi_n2(x, y, nbhd) for x, y in points}) > 50


# boxes where the windows sit inside their bands, so few product factors
# are exactly 1: near the fold every N1 window and N2's tube residual; at
# either end of N2 its x window, across both tubes
_BAND_BOXES = [((0.0, 0.075), (0.075, 0.095)),
               ((0.225, 0.3), (-0.1, 0.25)),
               ((-0.3, -0.225), (-0.1, 0.25))]


@st.composite
def _vdp_points(draw):
    if draw(st.booleans()):
        (x_lo, x_hi), (y_lo, y_hi) = draw(st.sampled_from(_BAND_BOXES))
        return (draw(st.floats(min_value=x_lo, max_value=x_hi)),
                draw(st.floats(min_value=y_lo, max_value=y_hi)))
    x = draw(st.one_of(st.sampled_from(_X_EDGES),
                       st.floats(min_value=-2.5, max_value=2.5)))
    y = draw(st.one_of(
        st.sampled_from(_Y_EDGES),
        st.floats(min_value=-0.2, max_value=1.5),
        # on a level of either tube residual, g = -y + x^2 - x^3/3 (N1) or
        # g = -y + x^2 (N2), where those windows switch
        st.sampled_from(_G_EDGES).map(lambda g: x * x - x ** 3 / 3.0 - g),
        st.sampled_from(_G_EDGES).map(lambda g: x * x - g),
    ))
    return x, y


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(point=_vdp_points(), segment=st.sampled_from([(0.75, 0.01), (1.25, -0.01)]))
@example(point=(-2.0, 1.4), segment=(1.25, -0.01))  # outside both neighborhoods
@example(point=(1.0, 2.0 / 3.0), segment=(1.25, -0.01))  # N1 plateau
@example(point=(0.1, 0.01), segment=(0.75, 0.01))  # N2 plateau
@example(point=(0.2, 0.04), segment=(0.75, 0.01))  # overlap
def test_composite_u_matches_the_full_product_formula(point, segment):
    y_h, x_star = segment
    gains = ControllerGains(1.0, 2.0, k1=1.0, x_star=x_star)
    nbhd = default_neighborhoods(0.01)._replace(y_h=y_h)
    want = _parent_composite_u(point, 0.01, gains, nbhd)
    law = VdpLaw(0.01, gains, nbhd)
    assert composite_u(law, point).hex() == want.hex()
    assert composite_u(law, PhasePoint(*point)).hex() == want.hex()


# (eps, y_h, gains): the supervised run's segments, a stiffer and a softer
# eps, and gains away from the defaults in every entry composite_u reads
_BLEND_CASES = [
    (0.01, 0.75, ControllerGains(1.0, 2.0, k1=1.0, x_star=0.01)),
    (0.01, 1.25, ControllerGains(1.0, 2.0, k1=1.0, x_star=-0.01)),
    (0.004, 1.0, ControllerGains(2.5, 2.0, k1=0.0, x_star=0.05)),
    (0.03, 1.3, ControllerGains(0.4, 3.0, k1=2.5, x_star=-0.2)),
]


@pytest.mark.parametrize("eps,y_h,gains", _BLEND_CASES)
def test_composite_u_equals_the_blend_of_the_two_law_functions(eps, y_h, gains):
    nbhd = default_neighborhoods(eps)._replace(y_h=y_h)
    law = VdpLaw(eps, gains, nbhd)
    xs = [float(x) for x in np.linspace(-0.35, 2.05, 121)] + _X_EDGES
    ys = ([float(y) for y in np.linspace(-0.05, 1.35, 71)]
          + [nbhd.y_min, nbhd.y_min + 0.5 * nbhd._band_n1_y, y_h])
    points = [(x, y) for x in xs for y in ys]
    for x in xs:
        # across either tube, through its bands, at this x
        for g in np.linspace(-0.16, 0.16, 17):
            points += [(x, x * x - x ** 3 / 3.0 - float(g)),
                       (x, x * x - float(g))]
    seen = set()
    for x, y in points:
        want = _oracle_blend((x, y), eps, gains, nbhd)
        assert _bits(composite_u(law, (x, y))) == _bits(want), (x, y)
        psi1, psi2 = _psi_n1(x, y, nbhd), _psi_n2(x, y, nbhd)
        seen.add(("N1" if psi1 > 0.0 else "")
                 + ("N2" if psi2 > 0.0 else "")
                 + ("-band" if 0.0 < psi1 < 1.0 or 0.0 < psi2 < 1.0 else ""))
    # N1 alone and N2 alone, each on a plateau and in a band, and their
    # overlap, whose plateau is empty at eps = 0.03 (N2's tops out below
    # N1's floor band)
    assert {"N1", "N1-band", "N2", "N2-band", "N1N2-band"} <= seen
    assert ("N1N2" in seen) == (eps < 0.02)


def test_vdp_law_binds_the_constants_of_its_gains():
    nbhd = default_neighborhoods(0.01)
    gains = ControllerGains(1.5, 2.0, k1=0.5, x_star=0.0)
    law = VdpLaw(0.01, gains, nbhd)
    # as vdp-mmo builds each segment's law, and through _replace
    for other, new_gains in (
            (VdpLaw(0.01, gains._replace(x_star=-0.05), nbhd),
             gains._replace(x_star=-0.05)),
            (law._replace(gains=ControllerGains(0.7, 2.0, k1=2.0,
                                                x_star=0.03)),
             ControllerGains(0.7, 2.0, k1=2.0, x_star=0.03))):
        assert (other._x_star, other._k1, other._c1, other._sqrt_eps) == (
            new_gains.x_star, new_gains.k1, new_gains.c1, math.sqrt(0.01))
        # in N1 alone, in N2 alone and in the overlap
        for p in ((1.0, 2.0 / 3.0), (0.1, 0.01), (0.2, 0.04)):
            assert _bits(composite_u(other, p)) == _bits(
                _oracle_blend(p, 0.01, new_gains, nbhd))
    assert law._replace(eps=0.02)._sqrt_eps == math.sqrt(0.02)
