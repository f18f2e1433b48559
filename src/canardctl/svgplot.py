"""Deterministic SVG emission for phase portraits and control time series.

Plotting is hand-rolled on purpose: the figures double as regression
fixtures, so the emitted file must be a pure function of its inputs.  No
timestamps, no generated ids, no library version drift; coordinates are
formatted to fixed precision and every element is written in a fixed
order.  Output is SVG 1.1 with nothing external referenced.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

__all__ = ["emit_phase_svg", "emit_timeseries_svg"]

# canvas geometry, pixels
_W, _H = 720, 540
_ML, _MR, _MT, _MB = 62, 16, 16, 46
_PAD = 0.06  # margin around the data box, per unit of its width
_THIN_CAP = 4000  # most points a thinned polyline keeps
_CHUNK = 256  # points _mapped formats with one "%"

_TRAJ_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b",
                "#e377c2", "#17becf", "#bcbd22")

# the critical manifold y = f(x) of each system a phase portrait can show
_CRITICAL = {
    "fold": lambda x: x * x,
    "vdp": lambda x: x * x - x ** 3 / 3.0,
}


def _fmt(v: float) -> str:
    # fixed sub-pixel precision keeps the byte stream reproducible
    s = f"{v:.2f}"
    return "0.00" if s == "-0.00" else s


def _num(v: float) -> str:
    s = f"{v:.6g}"
    return "0" if s == "-0" else s


def _ticks(lo: float, hi: float) -> list[float]:
    """1-2-5 tick positions covering [lo, hi] with 3 to 8 lines."""
    span = hi - lo
    if not (math.isfinite(span) and span > 0.0):
        return [lo]
    raw = span / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min((m for m in (1.0, 2.0, 5.0, 10.0)), key=lambda m: abs(m * mag - raw)) * mag
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-9 * span:
        out.append(0.0 if abs(t) < 1e-12 * span else t)
        if t + step == t:  # a step below the float spacing at t never moves it
            break
        t += step
    return out


def _finite(*columns: Sequence[float]) -> bool:
    """True when every value of every column is finite, in one C pass each.

    A non-finite value makes its column's sum inf or nan; a finite column
    whose sum overflows reads as non-finite, which only sends the caller to
    its per-pair path.
    """
    return all(math.isfinite(sum(c)) for c in columns)


class _Bounds:
    """Box around the pairs whose two coordinates are both finite."""

    def __init__(self):
        self.x_lo = math.inf
        self.x_hi = -math.inf
        self.y_lo = math.inf
        self.y_hi = -math.inf

    def add(self, xs: Sequence[float], ys: Sequence[float]) -> None:
        """Widen the box over the pairs (xs[i], ys[i]).

        min() and max() keep the first of equal values, as the running
        comparison does, so a -0.0/0.0 tie gives the same bits either way.
        """
        if not xs:
            return
        if _finite(xs, ys):
            self.x_lo = min(self.x_lo, min(xs))
            self.x_hi = max(self.x_hi, max(xs))
            self.y_lo = min(self.y_lo, min(ys))
            self.y_hi = max(self.y_hi, max(ys))
            return
        for x, y in zip(xs, ys):
            if math.isfinite(x) and math.isfinite(y):
                self.x_lo = min(self.x_lo, x)
                self.x_hi = max(self.x_hi, x)
                self.y_lo = min(self.y_lo, y)
                self.y_hi = max(self.y_hi, y)

    def padded(self) -> Tuple[float, float, float, float]:
        if not math.isfinite(self.x_lo):
            return (-1.0, 1.0, -1.0, 1.0)
        # a zero-width side scales with its place, lest the margin round away
        dx = (self.x_hi - self.x_lo) or max(1.0, abs(self.x_lo))
        dy = (self.y_hi - self.y_lo) or max(1.0, abs(self.y_lo))
        return (self.x_lo - _PAD * dx, self.x_hi + _PAD * dx,
                self.y_lo - _PAD * dy, self.y_hi + _PAD * dy)


class _Mapper:
    def __init__(self, box: Tuple[float, float, float, float]):
        self.x_lo, self.x_hi, self.y_lo, self.y_hi = box
        self.sx = (_W - _ML - _MR) / (self.x_hi - self.x_lo)
        self.sy = (_H - _MT - _MB) / (self.y_hi - self.y_lo)

    def px(self, x: float) -> float:
        return _ML + (x - self.x_lo) * self.sx

    def py(self, y: float) -> float:
        return _H - _MB - (y - self.y_lo) * self.sy


def _mapped(m: _Mapper, xs: Sequence[float], ys: Sequence[float]) -> str:
    """Space-separated "px,py" strings of the points, as _fmt writes them.

    The arithmetic is that of px() and py(), inlined.  The points are
    formatted _CHUNK at a time, each chunk by one "%" over its interleaved
    coordinates, so no string is made per point.  "%.2f" gives at most one
    "-0.00" per coordinate and only as the whole coordinate, so one replace
    over the joined string does what _fmt does per value.
    """
    x_lo, sx, y_lo, sy = m.x_lo, m.sx, m.y_lo, m.sy
    bottom = _H - _MB
    chunks = []
    for i in range(0, len(xs), _CHUNK):
        pxs = [_ML + (x - x_lo) * sx for x in xs[i:i + _CHUNK]]
        coords = [0.0] * (2 * len(pxs))  # the px and py of each point
        coords[::2] = pxs
        coords[1::2] = [bottom - (y - y_lo) * sy for y in ys[i:i + _CHUNK]]
        chunks.append(" ".join(["%.2f,%.2f"] * len(pxs)) % tuple(coords))
    return " ".join(chunks).replace("-0.00", "0.00")


def _polyline_points(m: _Mapper, xs: Sequence[float],
                     ys: Sequence[float]) -> list[str]:
    """Point strings split into runs at non-finite samples."""
    if _finite(xs, ys):
        return [_mapped(m, xs, ys)] if xs else []
    runs: list[str] = []
    start = 0
    for i, (x, y) in enumerate(zip(xs, ys)):
        if not (math.isfinite(x) and math.isfinite(y)):
            if i > start:
                runs.append(_mapped(m, xs[start:i], ys[start:i]))
            start = i + 1
    if len(xs) > start:
        runs.append(_mapped(m, xs[start:], ys[start:]))
    return runs


def _thin(seq: Sequence) -> Sequence:
    """Every stride-th item, at most _THIN_CAP of them, and the last item.

    Which items are kept depends on the length only, so thinning the
    columns of a table one by one keeps whole rows.  The result is a slice
    of ``seq``, so an ``array('d')`` column stays 8 bytes a value rather
    than becoming a list of float objects.
    """
    n = len(seq)
    if n <= _THIN_CAP:
        return seq
    stride = -(-n // _THIN_CAP)
    out = seq[::stride]
    if (n - 1) % stride:
        out += seq[-1:]
    return out


def _emit_polyline(out: list[str], m: _Mapper, xs: Sequence[float],
                   ys: Sequence[float], cls: str, color: str,
                   dashed: bool = False) -> None:
    dash = ' stroke-dasharray="6 4"' if dashed else ""
    for run in _polyline_points(m, xs, ys):
        out.append(
            f'<polyline class="{cls}" fill="none" stroke="{color}" '
            f'stroke-width="1.3"{dash} points="{run}"/>'
        )


def _n1_polygons(nbhd) -> list[Tuple[list, list]]:
    """Branch-tube region as polygons between the clipped offset curves,
    each as its x and y columns."""
    xs = [i * 2.0 / 256 for i in range(257)]
    polys: list[Tuple[list, list]] = []
    run_x: list[float] = []
    lower: list[float] = []
    upper: list[float] = []

    def flush():
        if len(run_x) >= 2:
            polys.append((run_x + run_x[::-1], lower + upper[::-1]))
        run_x.clear()
        lower.clear()
        upper.clear()

    for x in xs:
        f = x * x - x ** 3 / 3.0
        lo = max(f - nbhd.beta1, nbhd.y_min)
        hi = min(f + nbhd.beta1, nbhd.y_h)
        if lo < hi:
            run_x.append(x)
            lower.append(lo)
            upper.append(hi)
        else:
            flush()
    flush()
    return polys


def _n2_polygon(nbhd) -> Tuple[list, list]:
    xs = [-nbhd.x_min + i * (nbhd.x_max + nbhd.x_min) / 128 for i in range(129)]
    return (xs + xs[::-1], [x * x - nbhd.beta2 for x in xs]
            + [x * x + nbhd.beta2 for x in reversed(xs)])


def _svg_head(out: list[str]) -> None:
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">'
    )
    out.append(f'<rect width="{_W}" height="{_H}" fill="#ffffff"/>')
    out.append(
        f'<defs><clipPath id="plot-area"><rect x="{_ML}" y="{_MT}" '
        f'width="{_W - _ML - _MR}" height="{_H - _MT - _MB}"/></clipPath></defs>'
    )


def _axes(out: list[str], m: _Mapper, x_label: str, y_label: str) -> None:
    out.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#404040" stroke-width="1"/>'
    )
    font = 'font-family="Menlo, Consolas, monospace" font-size="11" fill="#404040"'
    for t in _ticks(m.x_lo, m.x_hi):
        px = m.px(t)
        out.append(f'<line x1="{_fmt(px)}" y1="{_H - _MB}" x2="{_fmt(px)}" '
                   f'y2="{_H - _MB + 5}" stroke="#404040" stroke-width="1"/>')
        out.append(f'<line x1="{_fmt(px)}" y1="{_MT}" x2="{_fmt(px)}" '
                   f'y2="{_H - _MB}" stroke="#e0e0e0" stroke-width="0.6"/>')
        out.append(f'<text x="{_fmt(px)}" y="{_H - _MB + 18}" {font} '
                   f'text-anchor="middle">{_num(t)}</text>')
    for t in _ticks(m.y_lo, m.y_hi):
        py = m.py(t)
        out.append(f'<line x1="{_ML - 5}" y1="{_fmt(py)}" x2="{_ML}" '
                   f'y2="{_fmt(py)}" stroke="#404040" stroke-width="1"/>')
        out.append(f'<line x1="{_ML}" y1="{_fmt(py)}" x2="{_W - _MR}" '
                   f'y2="{_fmt(py)}" stroke="#e0e0e0" stroke-width="0.6"/>')
        out.append(f'<text x="{_ML - 8}" y="{_fmt(py + 3.5)}" {font} '
                   f'text-anchor="end">{_num(t)}</text>')
    out.append(f'<text x="{_fmt((_ML + _W - _MR) / 2)}" y="{_H - 8}" {font} '
               f'text-anchor="middle">{x_label}</text>')
    out.append(f'<text x="14" y="{_fmt((_MT + _H - _MB) / 2)}" {font} '
               f'text-anchor="middle" transform="rotate(-90 14 '
               f'{_fmt((_MT + _H - _MB) / 2)})">{y_label}</text>')


def _write(out: list[str], path) -> None:
    """Close the plot area and the document, and write it to ``path``, one
    line of ``out`` after the other, so the document is never joined into
    one string."""
    out.append("</g>")
    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in out:
            fh.write(line)
            fh.write("\n")


def emit_phase_svg(trajs: Sequence, path, x_label: str = "x",
                   y_label: str = "y", critical: str | None = None,
                   cycle: Tuple[Sequence[float], Sequence[float]] | None = None,
                   nbhd=None) -> None:
    """Write a phase portrait of one or more trajectories.

    Behind them it can draw the critical manifold of ``critical`` ("fold"
    or "vdp"), the reference cycle given as its ``(xs, ys)`` columns, and
    the activation regions of the neighbourhoods ``nbhd`` (read for their
    beta1, beta2, y_min, y_h, x_min and x_max).  Draw order is shading,
    grid/axes backdrop, dashed overlays, then the trajectories, so the data
    always sits on top.
    """
    if critical is not None and critical not in _CRITICAL:
        raise ValueError(f"unknown system {critical!r}")
    # each trajectory's x and y columns; an empty trajectory has none
    paths = [traj.columns[:2] or ((), ()) for traj in trajs]
    bounds = _Bounds()
    for xs, ys in paths:
        bounds.add(xs, ys)
    if cycle is not None:
        bounds.add(*cycle)
    if nbhd is not None:
        bounds.add((-nbhd.x_min, 2.0), (0.0, nbhd.y_h + nbhd.beta1))
    m = _Mapper(bounds.padded())

    out: list[str] = []
    _svg_head(out)
    out.append('<g clip-path="url(#plot-area)">')
    if nbhd is not None:
        for poly in _n1_polygons(nbhd):
            pts = _mapped(m, *poly)
            out.append(f'<polygon class="region-n1" fill="#2ca02c" '
                       f'fill-opacity="0.18" stroke="none" points="{pts}"/>')
        pts = _mapped(m, *_n2_polygon(nbhd))
        out.append(f'<polygon class="region-n2" fill="#d62728" '
                   f'fill-opacity="0.18" stroke="none" points="{pts}"/>')
    out.append("</g>")
    _axes(out, m, x_label, y_label)
    out.append('<g clip-path="url(#plot-area)">')
    if critical is not None:
        f = _CRITICAL[critical]
        xs = [m.x_lo + i * (m.x_hi - m.x_lo) / 256 for i in range(257)]
        _emit_polyline(out, m, xs, [f(x) for x in xs],
                       "overlay-critical-manifold", "#808080", dashed=True)
    if cycle is not None:
        _emit_polyline(out, m, *cycle,
                       "overlay-reference-cycle", "#808080", dashed=True)
    for i, (xs, ys) in enumerate(paths):
        _emit_polyline(out, m, _thin(xs), _thin(ys), "traj",
                       _TRAJ_COLORS[i % len(_TRAJ_COLORS)])
    _write(out, path)


def emit_timeseries_svg(traj, path, label: str = "u") -> None:
    """Write the control signal of a trajectory against time.

    Non-finite control samples (fault records) break the polyline instead
    of being drawn.
    """
    if len(traj) == 0:
        raise ValueError("cannot plot an empty trajectory")
    bounds = _Bounds()
    bounds.add(traj.times, traj.controls)
    m = _Mapper(bounds.padded())
    out: list[str] = []
    _svg_head(out)
    _axes(out, m, "t", label)
    out.append('<g clip-path="url(#plot-area)">')
    # both columns keep the same indices, so the kept pairs are whole samples
    _emit_polyline(out, m, _thin(traj.times), _thin(traj.controls),
                   "series", "#1f77b4")
    _write(out, path)
