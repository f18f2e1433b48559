"""The mixed-mode oscillation supervisor and its loop labels.

A loop is the stretch of a van der Pol trajectory between consecutive
entries into a small disc around the canard point; every cycle, headed or
not, transits that neighborhood along the attracting left branch, which
makes the disc a section that does not care what the previous loop did.
A loop whose maximal x exceeds the landing threshold jumped to the right
branch (large amplitude); otherwise it turned back at the canard height
(small amplitude).

The supervisor integrates the composite controller one loop at a time and
rewrites (x_star, y_h) between loops.  Switches happen exactly at the
disc-entry event, so the new parameters are in force before the trajectory
reaches either activation neighborhood and the blend never sees a
parameter step while a bump is live.
"""

from __future__ import annotations

import re
from array import array
from functools import partial
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .controllers import _UPPER_FOLD_Y, NeighborhoodParams, VdpLaw, composite_u
from .core import ControllerGains, _Record
from .errors import (
    ConfigError,
    DomainError,
    IntegrationError,
    PatternDeviationError,
)
from .models import vdp_rhs
from .sim import IntegratorConfig, Trajectory, Watcher, integrate

__all__ = [
    "DISC_RADIUS",
    "LAO_THRESHOLD",
    "LoopLabel",
    "MmoSegment",
    "MmoPattern",
    "run_pattern",
]

# section disc around the canard point
DISC_RADIUS = 0.25

# strictly between the upper fold x = 2 and the leftmost right-branch
# landing abscissa ~2.6: separates "jumped right" from "grazed the fold"
LAO_THRESHOLD = 2.2

# generous wall-clock-free ceiling on one loop's duration at eps ~ 0.01;
# a loop that has not closed within this horizon is reported, not awaited
_LOOP_TIME_BUDGET = 2000.0

# default entry point: on the attracting left branch, above the disc
_DEFAULT_START = (-1.0, 0.6)


class LoopLabel(_Record):
    """Classification record for one completed loop."""

    __slots__ = _fields = ("label", "t_start", "t_end", "max_x", "max_y")

    def __init__(self, label: str, t_start: float, t_end: float,
                 max_x: float, max_y: float):
        if label not in ("SAO", "LAO"):
            raise ConfigError(f"label must be 'SAO' or 'LAO', got {label!r}")
        if not t_start < t_end:
            raise ConfigError(
                f"loop interval must be increasing, got "
                f"[{t_start!r}, {t_end!r}]")
        super().__init__(label, t_start, t_end, max_x, max_y)


class MmoSegment(NamedTuple):
    count: int
    label: str
    y_h: float
    x_star: float

    def compact(self) -> str:
        """The segment as MmoPattern.parse reads it, e.g. "1L:0.75:0.01"."""
        return (f"{self.count}{self.label[0]}:"
                f"{float(self.y_h)!r}:{float(self.x_star)!r}")


class MmoPattern(_Record):
    """Requested loop sequence, segment by segment.

    Each segment demands `count` loops of one kind at one canard height;
    the sign of x_star enforces the kind (negative steers left of the
    repelling branch, so the canard has no head).  The whole sequence runs
    ``repeat`` times, an int >= 1.
    """

    __slots__ = _fields = ("segments", "repeat")

    def __init__(self, segments: Sequence[Sequence], repeat: int = 1):
        if not segments:
            raise ConfigError("pattern needs at least one segment")
        segments = tuple(MmoSegment(*s) for s in segments)
        for seg in segments:
            if seg.count < 1:
                raise ConfigError(f"segment count must be >= 1, got {seg.count!r}")
            if seg.label not in ("SAO", "LAO"):
                raise ConfigError(
                    f"segment label must be 'SAO' or 'LAO', got {seg.label!r}")
            if not 0.0 < seg.y_h <= _UPPER_FOLD_Y:
                raise ConfigError(
                    f"segment y_h must lie in (0, 4/3], got {seg.y_h!r}")
            if seg.label == "SAO" and not seg.x_star < 0.0:
                raise ConfigError(
                    f"SAO segments need x_star < 0, got {seg.x_star!r}")
            if seg.label == "LAO" and not seg.x_star > 0.0:
                raise ConfigError(
                    f"LAO segments need x_star > 0, got {seg.x_star!r}")
            if seg.label == "SAO" and seg.y_h >= _UPPER_FOLD_Y:
                raise ConfigError(
                    f"SAO segments need y_h < 4/3, got {seg.y_h!r}")
        if type(repeat) is not int or repeat < 1:
            raise ConfigError(f"repeat must be an int >= 1, got {repeat!r}")
        super().__init__(segments, repeat)

    @classmethod
    def parse(cls, text: str, repeat: int = 1) -> "MmoPattern":
        """Parse the compact form "3L:0.75:0.01,4S:1.25:-0.01"."""
        segments = []
        for chunk in text.split(","):
            m = re.fullmatch(
                r"\s*(\d+)([SL]):([^:]+):([^:]+)\s*", chunk)
            if m is None:
                raise ConfigError(f"malformed pattern segment {chunk!r}")
            count = int(m.group(1))
            label = "SAO" if m.group(2) == "S" else "LAO"
            try:
                y_h = float(m.group(3))
                x_star = float(m.group(4))
            except ValueError as exc:
                raise ConfigError(f"malformed number in segment {chunk!r}") from exc
            segments.append(MmoSegment(count, label, y_h, x_star))
        return cls(tuple(segments), repeat)

    def compact(self) -> str:
        """Inverse of parse (repeat is carried separately); the numbers are
        written as the repr of their float, so parse gives back the exact
        segments."""
        return ",".join(s.compact() for s in self.segments)


# ends every loop, and the preamble, where the orbit enters the disc
_DISC_ENTRY = Watcher(
    "set-entry",
    lambda p: DISC_RADIUS * DISC_RADIUS - p[0] * p[0] - p[1] * p[1],
    terminal=True,
)


def run_pattern(
    pattern: MmoPattern,
    eps: float,
    gains: ControllerGains,
    nbhd: NeighborhoodParams,
    cfg: Optional[IntegratorConfig] = None,
    start: Sequence[float] = _DEFAULT_START,
) -> Tuple[Trajectory, List[LoopLabel]]:
    """Drive the composite controller through a requested loop sequence;
    return the stitched run and the label of each loop, made as it closes.

    One integrate() call per loop, each ending at the terminal disc-entry
    event; the parameters for the next loop are installed at that state,
    strictly inside the disc.  Every state it returns, event states
    included, is a plain (x, y) tuple, whatever the type of ``start``.

    Raises PatternDeviationError the moment a completed loop contradicts its
    segment's label, carrying the labels achieved so far and the stitched
    trajectory.  Every fault of a loop is an IntegrationError that carries
    the stitched run from t = 0 up to the fault as well: a loop that does
    not close (status ``integration-fault``), and the fault of its
    integration, re-raised with its own status and that trajectory.  A
    segment whose height the neighborhood rejects (y_h not above y_min)
    raises DomainError before the preamble integrates, its message led by
    the segment's 1-based index and compact text.  The loops are
    walked in place, segment by segment, so a pattern costs no memory per
    loop it asks for.
    """
    # the stitched run, column by column: each loop after the first starts
    # at its predecessor's last point, which the run keeps once
    times, xs, ys, controls = (array("d") for _ in range(4))
    events = []
    labels: List[LoopLabel] = []

    def stitch(traj: Trajectory) -> None:
        skip = 1 if times else 0
        times.extend(traj.times[skip:])
        xs.extend(traj.columns[0][skip:])
        ys.extend(traj.columns[1][skip:])
        controls.extend(traj.controls[skip:])
        events.extend(traj.events)

    def stitched() -> Trajectory:
        return Trajectory(times, (xs, ys), controls, events)

    def run_chunk(law: VdpLaw, t0: float,
                  p0: Tuple[float, float]) -> Trajectory:
        # the loop's law and field are partials over its constants, and
        # composite_u and vdp_rhs are looked up for each loop, so a wrapper
        # installed on this module before the run sees every evaluation
        try:
            traj = integrate(partial(vdp_rhs, eps), partial(composite_u, law),
                             p0, (t0, t0 + _LOOP_TIME_BUDGET), cfg,
                             watchers=[_DISC_ENTRY])
        except IntegrationError as exc:
            stitch(exc.trajectory)
            exc.trajectory = stitched()
            raise
        stitch(traj)
        if not traj.events_of("set-entry"):
            raise IntegrationError(
                f"loop did not close within {_LOOP_TIME_BUDGET} time units",
                stitched())
        return traj

    # every segment's law, so a segment its neighborhood rejects fails here,
    # named by its 1-based index and its text
    laws = []
    for i, seg in enumerate(pattern.segments, 1):
        try:
            laws.append(VdpLaw(eps, gains._replace(x_star=seg.x_star),
                               nbhd._replace(y_h=seg.y_h)))
        except DomainError as exc:
            raise DomainError(f"segment {i} ({seg.compact()}): {exc}") from exc

    # preamble: reach the section once under the first loop's parameters
    run_chunk(laws[0], 0.0, (start[0], start[1]))

    for seg, law in ((seg, law) for _ in range(pattern.repeat)
                     for seg, law in zip(pattern.segments, laws)
                     for _ in range(seg.count)):
        t0 = times[-1]
        chunk = run_chunk(law, t0, (xs[-1], ys[-1]))
        max_x = max(chunk.columns[0])
        max_y = max(chunk.columns[1])
        got = "LAO" if max_x > LAO_THRESHOLD else "SAO"
        loop = LoopLabel(got, t0, chunk.final_time, max_x, max_y)
        if got != seg.label:
            raise PatternDeviationError(seg.label, got,
                                        [lb.label for lb in labels],
                                        stitched())
        labels.append(loop)

    return stitched(), labels
