"""Tests for the conserved quantity and log-domain level arithmetic."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from canardctl.core import (
    EXP_GUARD,
    ControllerGains,
    LevelTerm,
    PhasePoint,
    ScaledLevel,
    SystemParams,
    eval_H,
    eval_H1,
    eval_H2,
    eval_level_term,
)
from canardctl.errors import DomainError, ExponentOverflowError


def test_eval_H_on_parabola_vertex():
    # (x, y) = (1, 1), eps = 0.5: bracket is (1 - 1)/0.5 + 1/2 = 1/2
    got = eval_H(PhasePoint(1.0, 1.0), 0.5)
    assert got == pytest.approx(0.25 * math.exp(-4.0), rel=1e-15)


def test_eval_H_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = float(rng.uniform(-2, 2))
        y = float(rng.uniform(-0.5, 3.0))
        eps = float(rng.uniform(0.05, 1.5))
        ref = mpmath.mpf(0.5) * mpmath.exp(-2 * mpmath.mpf(y) / eps) * (
            (mpmath.mpf(y) - mpmath.mpf(x) ** 2) / eps + mpmath.mpf(0.5)
        )
        got = eval_H(PhasePoint(x, y), eps)
        assert got == pytest.approx(float(ref), rel=1e-13, abs=1e-300)


def test_eval_H_underflows_to_exact_zero():
    assert eval_H(PhasePoint(0.0, 8.0), 0.01) == 0.0
    # just above the pinning threshold 2y/eps = 1490
    assert eval_H(PhasePoint(0.0, 7.46), 0.01) == 0.0


def test_eval_H_large_negative_y_raises():
    with pytest.raises(ExponentOverflowError):
        eval_H(PhasePoint(0.0, -4.0), 0.01)


def test_eval_H_rejects_nonfinite():
    with pytest.raises(DomainError):
        eval_H(PhasePoint(math.nan, 0.0), 0.1)
    with pytest.raises(DomainError):
        eval_H(PhasePoint(0.0, math.inf), 0.1)
    with pytest.raises(DomainError):
        eval_H(PhasePoint(0.0, 0.0), 0.0)
    with pytest.raises(DomainError):
        eval_H(PhasePoint(0.0, 0.0), -0.1)


def test_eval_H2_values():
    assert eval_H2(1.0, 1.0) == pytest.approx(0.25 * math.exp(-2.0), rel=1e-15)
    # on the scaled parabola y2 = x2^2 - 1/2 the value is exactly 0
    assert eval_H2(1.0, 0.5) == 0.0


def test_eval_H1_values():
    assert eval_H1(0.0, 1.0) == pytest.approx(0.75 * math.exp(-2.0), rel=1e-15)
    assert eval_H1(1.0, 1.0) == pytest.approx(eval_H2(1.0, 1.0), rel=1e-15)


def test_eval_H1_centre_branch_roots():
    # x1 = +-sqrt(1 + eps1/2) zeroes the bracket for every eps1
    for eps1 in (0.01, 0.1, 0.5, 1.0, 2.0, 3.0):
        x1 = math.sqrt(1.0 + 0.5 * eps1)
        assert abs(eval_H1(x1, eps1)) < 1e-13
        assert abs(eval_H1(-x1, eps1)) < 1e-13


def test_chart_identities_random():
    # H(x, y; eps) = H2(x/sqrt(eps), y/eps) and H1(x1, eps1) = H2(x1/sqrt(eps1), 1/eps1)
    rng = np.random.default_rng(11)
    for _ in range(200):
        x = float(rng.uniform(-2, 2))
        y = float(rng.uniform(-0.2, 2.0))
        eps = float(rng.uniform(0.02, 1.0))
        a = eval_H(PhasePoint(x, y), eps)
        b = eval_H2(x / math.sqrt(eps), y / eps)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-300)
    for _ in range(200):
        x1 = float(rng.uniform(-2, 2))
        eps1 = float(rng.uniform(0.05, 3.0))
        a = eval_H1(x1, eps1)
        b = eval_H2(x1 / math.sqrt(eps1), 1.0 / eps1)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-300)


def test_eval_level_term_worked_example():
    # (0, 0.5), eps = 0.01, c2 = 2, level (1/4, 400): the h part is ~1e-131
    level = ScaledLevel(0.25, 400.0)
    got = eval_level_term(0.0, 0.5, LevelTerm(0.01, 2.0, level))
    assert got == pytest.approx(25.25, rel=1e-14)


def test_eval_level_term_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 200
    level = ScaledLevel(0.25, 400.0)
    cases = [
        (0.0, 0.5, 0.01, 2.0),
        (0.1, 1.9, 0.01, 2.0),
        (0.0, 2.0, 0.01, 2.0),
        (-0.4, 1.2, 0.01, 1.97),
        (1.0, 0.02, 0.02, 2.1),
    ]
    for x, y, eps, c2 in cases:
        X, Y, EPS, C2 = map(mpmath.mpf, (x, y, eps, c2))
        H = mpmath.mpf(0.5) * mpmath.exp(-2 * Y / EPS) * ((Y - X ** 2) / EPS + mpmath.mpf(0.5))
        h = mpmath.mpf(0.25) * mpmath.exp(-400)
        ref = mpmath.exp(C2 * Y / EPS) * (H - h)
        got = eval_level_term(x, y, LevelTerm(eps, c2, level))
        assert got == pytest.approx(float(ref), rel=1e-12)


def test_eval_level_term_h_part_alone_at_top():
    # at y = 2 the h part exp(c2*y/eps - E) = exp(400 - 400) cancels exactly
    level = ScaledLevel(0.25, 400.0)
    got = eval_level_term(0.0, 2.0, LevelTerm(0.01, 2.0, level))
    bracket = (2.0 - 0.0 + 0.005) / 0.02
    assert got == pytest.approx(bracket - 0.25, rel=1e-14)


def test_eval_level_term_overflow_names_exponent():
    with pytest.raises(ExponentOverflowError) as exc:
        eval_level_term(0.0, 3.0, LevelTerm(0.01, 3.0, ScaledLevel(0.25, 0.0)))
    assert exc.value.value == pytest.approx(900.0)
    assert "c2*y/eps" in exc.value.name
    # first exponent overflowing is reported too
    with pytest.raises(ExponentOverflowError) as exc:
        eval_level_term(0.0, 3.0, LevelTerm(0.01, 6.0, ScaledLevel(0.0)))
    assert "(c2-2)*y/eps" in exc.value.name


def test_eval_level_term_exact_reduction_at_c2_2_h0():
    # c2 = 2 and h = 0: result is (y - x^2 + eps/2)/(2*eps) with no exp factor
    rng = np.random.default_rng(3)
    level = ScaledLevel(0.0, 0.0)
    for _ in range(100):
        x = float(rng.uniform(-3, 3))
        y = float(rng.uniform(-5, 5))
        eps = float(rng.uniform(0.01, 2.0))
        got = eval_level_term(x, y, LevelTerm(eps, 2.0, level))
        assert got == (y - x * x + 0.5 * eps) / (2.0 * eps)


def test_scaled_level_validation():
    ScaledLevel(0.25, 0.0)
    ScaledLevel(0.0, 0.0)
    ScaledLevel(-1.0, 0.0)  # negative levels admitted
    ScaledLevel(1e300, 800.0)  # value ~1e-48, fine
    with pytest.raises(DomainError):
        ScaledLevel(0.3, 0.0)
    with pytest.raises(DomainError):
        ScaledLevel(0.25, -1.0)
    with pytest.raises(DomainError):
        ScaledLevel(math.nan, 0.0)
    assert ScaledLevel(0.25, 400.0).value == pytest.approx(0.25 * math.exp(-400.0))


def test_system_params_validation():
    SystemParams(0.01, -0.1)
    SystemParams(0.0)  # layer-problem value is storable
    with pytest.raises(DomainError):
        SystemParams(-0.01)
    with pytest.raises(DomainError):
        SystemParams(math.inf)


def test_controller_gains_validation():
    ControllerGains(c1=1.0, c2=2.0, k1=1.0, x_star=-0.01)
    with pytest.raises(DomainError):
        ControllerGains(c1=0.0, c2=2.0)
    with pytest.raises(DomainError):
        ControllerGains(c1=1.0, c2=2.0, k1=-0.5)
    with pytest.raises(DomainError):
        ControllerGains(c1=1.0, c2=2.0, x_star=1.0)


_NONFINITE = [math.nan, math.inf, -math.inf]


def _finite_message(name, value):
    return f"^{re.escape(f'{name} must be finite, got {value!r}')}$"


def _eps_message(value):
    return f"^{re.escape(f'eps must be a positive finite real, got {value!r}')}$"


@pytest.mark.parametrize("bad", _NONFINITE)
@pytest.mark.parametrize("arg", ["x", "y", "c2", "eps"])
def test_eval_level_term_rejects_nonfinite_arguments(arg, bad):
    args = {"x": 0.2, "y": 0.3, "c2": 2.0, "eps": 0.01, arg: bad}
    msg = _eps_message(bad) if arg == "eps" else _finite_message(arg, bad)
    with pytest.raises(DomainError, match=msg):
        eval_level_term(args["x"], args["y"], LevelTerm(
            args["eps"], args["c2"], ScaledLevel(0.25, 400.0)))


@pytest.mark.parametrize("eps", [0.0, -0.0, -0.5])
def test_eval_level_term_rejects_nonpositive_eps(eps):
    with pytest.raises(DomainError, match=_eps_message(eps)):
        eval_level_term(0.2, 0.3, LevelTerm(eps, 2.0, ScaledLevel(0.0)))


@pytest.mark.parametrize("bad", _NONFINITE)
@pytest.mark.parametrize("arg", ["x2", "y2"])
def test_eval_H2_rejects_nonfinite_arguments(arg, bad):
    args = {"x2": 0.5, "y2": 1.0, arg: bad}
    with pytest.raises(DomainError, match=_finite_message(arg, bad)):
        eval_H2(**args)


_PROPERTY = settings(derandomize=True, database=None, deadline=None,
                     max_examples=300)


@_PROPERTY
@given(x=st.floats(min_value=-2.0, max_value=2.0),
       eps=st.floats(min_value=0.005, max_value=0.5),
       c2=st.floats(min_value=0.5, max_value=4.0),
       h0=st.floats(min_value=-1.0, max_value=0.25),
       big_e=st.floats(min_value=0.0, max_value=2000.0),
       offset=st.floats(min_value=-30.0, max_value=30.0),
       weight_side=st.booleans())
@example(x=0.1, eps=0.01, c2=2.5, h0=0.25, big_e=0.0, offset=-1e-9,
         weight_side=True)
@example(x=0.1, eps=0.01, c2=2.5, h0=0.25, big_e=0.0, offset=1e-9,
         weight_side=True)
@example(x=0.1, eps=0.01, c2=1.97, h0=0.25, big_e=400.0, offset=-1e-9,
         weight_side=False)
@example(x=0.1, eps=0.01, c2=1.97, h0=0.25, big_e=400.0, offset=1e-9,
         weight_side=False)
@example(x=0.0, eps=0.5, c2=2.005, h0=0.0, big_e=0.0, offset=-1.0,
         weight_side=True)
def test_eval_level_term_against_mpmath_around_the_guard(
        x, eps, c2, h0, big_e, offset, weight_side):
    mpmath = pytest.importorskip("mpmath")
    # y puts one combined exponent within 30 of EXP_GUARD, on either side:
    # (c2 - 2)*y/eps for the weight, c2*y/eps - E for the level
    if weight_side:
        assume(c2 > 2.001)
        y = (EXP_GUARD + offset) * eps / (c2 - 2.0)
    else:
        y = (EXP_GUARD + offset + big_e) * eps / c2
    level = ScaledLevel(h0, big_e)
    exponents = [(c2 - 2.0) * y / eps]
    if h0 != 0.0:
        exponents.append(c2 * y / eps - big_e)
    if max(exponents) > EXP_GUARD:
        with pytest.raises(ExponentOverflowError):
            eval_level_term(x, y, LevelTerm(eps, c2, level))
        return
    try:
        got = eval_level_term(x, y, LevelTerm(eps, c2, level))
    except ExponentOverflowError:
        got = None
    with mpmath.workdps(50):
        X, Y, EPS, C2, H0, E = map(mpmath.mpf, (x, y, eps, c2, h0, big_e))
        weight = mpmath.exp(C2 * Y / EPS)
        h_part = weight * H0 * mpmath.exp(-E)
        H_part = weight * mpmath.mpf(0.5) * mpmath.exp(-2 * Y / EPS) * (
            (Y - X ** 2) / EPS + mpmath.mpf(0.5))
        ref = H_part - h_part
        # the two parts are rounded apart, so they bound the error
        scale = abs(H_part) + abs(h_part)
        peak = max(abs(H_part), abs(h_part), abs(ref))
        top = mpmath.mpf(sys.float_info.max)
    # below the guard a part or the result can still pass the largest
    # double; it has no float, and the typed error is the only answer
    if peak > top * (1 + 1e-9):
        assert got is None
    elif peak < top * (1 - 1e-9):
        assert got is not None
        assert abs(got - ref) <= 1e-12 * scale + 1e-300


@_PROPERTY
@given(big_e=st.floats(min_value=0.0, max_value=700.0),
       rel=st.one_of(st.floats(min_value=-1e-9, max_value=1e-9),
                     st.sampled_from([0.0, -1e-15, 1e-15, 2e-12, -2e-12])))
def test_scaled_level_cap_at_one_quarter(big_e, rel):
    mpmath = pytest.importorskip("mpmath")
    # h0 = 1/4 exp(E)(1 + rel) puts h = h0 exp(-E) just around the cap
    h0 = 0.25 * math.exp(big_e) * (1.0 + rel)
    with mpmath.workdps(50):
        excess = mpmath.mpf(h0) * mpmath.exp(-mpmath.mpf(big_e)) * 4 - 1
    # the cap compares logs with a 1e-12 allowance, so a level less than
    # 2e-12 above 1/4 may go either way
    if excess <= 0:
        assert ScaledLevel(h0, big_e).h0 == h0
    elif excess >= 2e-12:
        with pytest.raises(DomainError, match="exceeds 1/4"):
            ScaledLevel(h0, big_e)
