"""Tests for the pattern supervisor and the loop labels it records."""

import numpy as np
import pytest

from canardctl.controllers import NeighborhoodParams, default_neighborhoods
from canardctl.core import ControllerGains, PhasePoint
from canardctl import mmo
from canardctl.errors import (ConfigError, IntegrationError,
                              PatternDeviationError)
from canardctl.mmo import (
    DISC_RADIUS,
    LAO_THRESHOLD,
    LoopLabel,
    MmoPattern,
    MmoSegment,
    run_pattern,
)
from canardctl.models import vdp_rhs
from canardctl.sim import IntegratorConfig, Watcher, integrate
from test_sim import _points

EPS = 0.01
GAINS = ControllerGains(c1=1.0, c2=2.0, k1=1.0)


def _open_loop_vdp(start, t_end, watchers=()):
    return integrate(lambda p, u: vdp_rhs(EPS, p, u), lambda p: 0.0,
                     start, (0.0, t_end), watchers=watchers)


class TestPattern:
    def test_parse_compact_round_trip(self):
        pat = MmoPattern.parse("3L:0.75:0.01,4S:1.25:-0.01", repeat=2)
        assert pat.segments == (
            MmoSegment(3, "LAO", 0.75, 0.01),
            MmoSegment(4, "SAO", 1.25, -0.01),
        )
        assert pat.repeat == 2
        assert pat.compact() == "3L:0.75:0.01,4S:1.25:-0.01"
        assert MmoPattern.parse(pat.compact(), 2) == pat

    @pytest.mark.parametrize("y_h,x_star", [
        (1.23456789, -0.0123456789), (0.1 + 0.2, 1e-17), (1.0, 5e-324),
        (4.0 / 3.0, 0.1), (0.7500000000000001, 0.01)])
    def test_compact_keeps_every_digit(self, y_h, x_star):
        label = "SAO" if x_star < 0.0 else "LAO"
        pat = MmoPattern((MmoSegment(2, label, y_h, x_star),))
        assert MmoPattern.parse(pat.compact()) == pat
        assert pat.compact() == f"2{label[0]}:{y_h!r}:{x_star!r}"
        # a numpy scalar or an int is written as the float it stands for
        wide = MmoPattern((MmoSegment(2, label, np.float64(y_h), x_star),))
        assert wide.compact() == pat.compact()
        assert MmoPattern((MmoSegment(1, "LAO", 1, 1),)).compact() == "1L:1.0:1.0"

    def test_head_rule_enforced(self):
        with pytest.raises(ConfigError):
            MmoPattern((MmoSegment(1, "SAO", 1.25, 0.01),))
        with pytest.raises(ConfigError):
            MmoPattern((MmoSegment(1, "LAO", 0.75, -0.01),))

    def test_height_ceiling(self):
        with pytest.raises(ConfigError):
            MmoPattern((MmoSegment(1, "SAO", 1.5, -0.01),))

    def test_malformed_strings(self):
        for bad in ("", "3X:0.75:0.01", "L:0.75:0.01", "3L:0.75", "3L:a:b"):
            with pytest.raises(ConfigError):
                MmoPattern.parse(bad)

    def test_repeat_validation(self):
        for repeat in (0, -1, None, 1.0, 2.5, "2", True):
            with pytest.raises(ConfigError, match="repeat must be an int >= 1"):
                MmoPattern.parse("1L:0.75:0.01", repeat=repeat)

    def test_loop_label_validation(self):
        with pytest.raises(ConfigError):
            LoopLabel("MAO", 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ConfigError):
            LoopLabel("SAO", 1.0, 1.0, 1.0, 1.0)


class TestClassifier:
    def test_open_loop_fold_capture_yields_no_loops(self):
        # at the canard parameter the origin weakly attracts: along the
        # open-loop flow dH/dt = x^4 exp(-2y/eps)/(3 eps) >= 0, so the
        # orbit spirals into the fold after one descent and never closes
        # a loop; relaxation-sized loops exist only under control
        entry = Watcher("set-entry",
                        lambda p: DISC_RADIUS ** 2 - p[0] ** 2 - p[1] ** 2)
        traj = _open_loop_vdp(PhasePoint(-1.0, 0.6), 1500.0, [entry])
        assert max(traj.columns[0]) < 0.5
        # one entry into the section disc, and no second one to close a loop
        assert len(traj.events_of("set-entry")) == 1

    def test_headed_canard_loops_are_large(self):
        # the headed closed-loop cycle is the relaxation-like one: it
        # jumps right and lands beyond the threshold on the right branch
        pat = MmoPattern.parse("1L:0.75:0.01", repeat=2)
        traj, loops = run_pattern(pat, EPS, GAINS, default_neighborhoods(EPS))
        assert [lb.label for lb in loops] == ["LAO", "LAO"]
        assert all(2.5 < lb.max_x < 2.9 for lb in loops)
        # each label's max_x is the largest x of its stretch of the run
        xs, times = traj.columns[0], traj.times
        for lb in loops:
            assert lb.max_x == max(x for t, x in zip(times, xs)
                                   if lb.t_start <= t <= lb.t_end)
        assert 2.5 < max(xs) < 2.9


class TestSupervisor:
    def test_two_small_loops(self):
        pat = MmoPattern.parse("2S:1.25:-0.01")
        _, labels = run_pattern(pat, EPS, GAINS, default_neighborhoods(EPS))
        assert [lb.label for lb in labels] == ["SAO", "SAO"]
        for lb in labels:
            assert lb.max_x < 2.0
            assert abs(lb.max_y - 1.25) <= 0.1

    def test_three_large_loops(self):
        pat = MmoPattern.parse("1L:0.75:0.01", repeat=3)
        traj, labels = run_pattern(pat, EPS, GAINS, default_neighborhoods(EPS))
        assert [lb.label for lb in labels] == ["LAO", "LAO", "LAO"]
        assert all(lb.max_x > LAO_THRESHOLD for lb in labels)

    def test_mixed_pattern_sequence(self):
        pat = MmoPattern.parse("3L:0.75:0.01,4S:1.25:-0.01")
        traj, labels = run_pattern(pat, EPS, GAINS, default_neighborhoods(EPS))
        assert "".join(lb.label[0] for lb in labels) == "LLLSSSS"

    def test_switches_only_inside_disc(self):
        pat = MmoPattern.parse("1L:0.75:0.01,1S:1.25:-0.01")
        traj, labels = run_pattern(pat, EPS, GAINS, default_neighborhoods(EPS))
        entries = traj.events_of("set-entry")
        assert len(entries) >= 3
        for ev in entries:
            assert ev.state[0] ** 2 + ev.state[1] ** 2 <= DISC_RADIUS ** 2 * 1.0001

    def test_states_are_plain_float_tuples(self):
        # a PhasePoint start is unpacked once; the integrator then builds
        # plain tuples, and the event states follow the trajectory's type
        pat = MmoPattern.parse("1S:1.25:-0.01")
        traj, _ = run_pattern(pat, EPS, GAINS, default_neighborhoods(EPS),
                              start=PhasePoint(-1.0, 0.6))
        assert _points(traj)[0] == (-1.0, 0.6)
        assert traj.events_of("set-entry")
        for p in _points(traj) + tuple(ev.state for ev in traj.events):
            assert type(p) is tuple and len(p) == 2
            assert type(p[0]) is float and type(p[1]) is float

    def test_deviation_reported_with_prefix(self):
        # strangle both activation tubes: the orbit passes the fold
        # essentially open loop, gets captured by the weakly attracting
        # origin, and closes only a tiny loop against the LAO request
        starved = NeighborhoodParams(beta1=1e-3, beta2=1e-3, y_min=2 * EPS)
        pat = MmoPattern.parse("1L:0.75:0.01")
        with pytest.raises(PatternDeviationError) as exc:
            run_pattern(pat, EPS, GAINS, starved)
        err = exc.value
        assert err.expected == "LAO"
        assert err.got == "SAO"
        assert err.achieved == ()
        assert err.trajectory is not None and len(err.trajectory) > 2

    def test_overflow_in_a_later_loop_carries_the_stitched_run(self, monkeypatch):
        nb = default_neighborhoods(EPS)
        calls = [0]
        composite_u = mmo.composite_u

        def counting(*args):
            calls[0] += 1
            if calls[0] == limit:
                raise OverflowError("math range error")
            return composite_u(*args)

        # the preamble and the first loop of "2S" are the whole of "1S"
        limit = None
        monkeypatch.setattr(mmo, "composite_u", counting)
        first, _ = run_pattern(MmoPattern.parse("1S:1.25:-0.01"), EPS, GAINS, nb)
        limit = calls[0] + 50
        calls[0] = 0
        with pytest.raises(IntegrationError) as exc:
            run_pattern(MmoPattern.parse("2S:1.25:-0.01"), EPS, GAINS, nb)
        assert exc.value.status == "overflow-fault"
        traj = exc.value.trajectory
        assert traj.times[:len(first)] == first.times
        assert len(traj) > len(first)
        assert traj.events[-1].kind == "overflow-fault"
        assert str(exc.value) == (
            f"overflow at t = {traj.final_time:.6g}: math range error")

    def test_step_underflow_in_a_later_loop_carries_the_stitched_run(
            self, monkeypatch):
        # the preamble runs at the default step bounds, the first loop at a
        # min_step its canard descent cannot keep
        integrate = mmo.integrate
        calls = []

        def coarse_first_loop(rhs, u, p0, span, cfg, watchers):
            calls.append(span)
            if len(calls) == 2:
                cfg = IntegratorConfig(min_step=0.1, max_step=1.0)
            return integrate(rhs, u, p0, span, cfg, watchers=watchers)

        monkeypatch.setattr(mmo, "integrate", coarse_first_loop)
        with pytest.raises(IntegrationError) as exc:
            run_pattern(MmoPattern.parse("3S:1.25:-0.01"), EPS, GAINS,
                        default_neighborhoods(EPS))
        assert exc.value.status == "step-underflow"
        assert len(calls) == 2
        traj = exc.value.trajectory
        # the run from t = 0: the preamble's disc entry precedes the fault
        assert traj.times[0] == 0.0 and _points(traj)[0] == (-1.0, 0.6)
        assert len(traj.events_of("set-entry")) == 1
        assert all(a < b for a, b in zip(traj.times, traj.times[1:]))
        assert f"at t = {traj.final_time:.6g}" in str(exc.value)

    def test_infinite_pattern_rejected(self):
        # a pattern without a finite repeat count is never built, so the
        # supervisor cannot be handed one
        with pytest.raises(ConfigError):
            MmoPattern((MmoSegment(1, "LAO", 0.75, 0.01),), None)

    def test_determinism(self):
        pat = MmoPattern.parse("1S:1.25:-0.01")
        nb = default_neighborhoods(EPS)
        t1, l1 = run_pattern(pat, EPS, GAINS, nb)
        t2, l2 = run_pattern(pat, EPS, GAINS, nb)
        assert t1.times == t2.times
        assert _points(t1) == _points(t2)
        assert l1 == l2

    def test_head_rule_across_initial_conditions(self):
        # reduced-count version of the basin sweep: the jump direction is
        # set by the sign of x_star, not by where the orbit came from
        rng = np.random.default_rng(4242)
        nb = default_neighborhoods(EPS)
        for _ in range(3):
            start = PhasePoint(float(rng.uniform(-1.8, -0.6)),
                               float(rng.uniform(0.3, 1.0)))
            _, lab_s = run_pattern(MmoPattern.parse("1S:1.25:-0.01"),
                                   EPS, GAINS, nb, start=start)
            assert lab_s[0].label == "SAO" and lab_s[0].max_x < 2.0
            _, lab_l = run_pattern(MmoPattern.parse("1L:0.75:0.01"),
                                   EPS, GAINS, nb, start=start)
            assert lab_l[0].label == "LAO" and lab_l[0].max_x > LAO_THRESHOLD
