"""Static SVG line charts for trajectories; no rendering dependencies."""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .odes import Trajectory

WIDTH = 800
HEIGHT = 600
MARGIN = 60


def _fmt(v: float) -> str:
    return "%g" % v


def _axis(vals: Sequence[float]):
    """Ends of an axis over vals (one value widened by a unit, or by one ulp
    toward zero where a unit is below its ulp) and the exact scaling by a power
    of two into (-1, 1), where no padded distance between finite samples
    overflows or underflows to zero."""
    lo, hi = (min(vals), max(vals)) if vals else (0.0, 1.0)
    if hi == lo:
        hi = lo + 1.0
        if hi == lo:
            lo, hi = sorted((lo, math.nextafter(lo, 0.0)))
    e = math.frexp(max(-lo, hi))[1]
    return lo, hi, lambda v: math.ldexp(v, -e)


def write_svg(
    trajs: Sequence[Trajectory],
    colors: Sequence[str],
    path: str,
    labels: Optional[Sequence[str]] = None,
    description: str = "",
) -> None:
    """Plot the state itself (component 0) of each trajectory as a colored polyline.

    All trajectories are expected to share the independent-variable span.
    Samples whose state is not finite are neither scaled nor drawn.
    An empty list yields an axes-only document.
    """
    shown = [[(t, y[0]) for t, y in tr.samples if math.isfinite(y[0])] for tr in trajs]
    xs = [t for pts in shown for t, _v in pts]
    ys = [v for pts in shown for _t, v in pts]
    xmin, xmax, sx = _axis(xs)
    ymin, ymax, sy = _axis(ys)
    pad = 0.05 * (sy(ymax) - sy(ymin))
    x0, x1, y0, y1 = sx(xmin), sx(xmax), sy(ymin) - pad, sy(ymax) + pad

    def px(x: float) -> float:
        return MARGIN + (sx(x) - x0) / (x1 - x0) * (WIDTH - 2 * MARGIN)

    def py(y: float) -> float:
        return HEIGHT - MARGIN - (sy(y) - y0) / (y1 - y0) * (HEIGHT - 2 * MARGIN)

    out = []
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="0 0 %d %d" width="%d" height="%d">' % (WIDTH, HEIGHT, WIDTH, HEIGHT)
    )
    if description:
        out.append("<desc>%s</desc>" % description)
    out.append('<rect x="0" y="0" width="%d" height="%d" fill="white"/>' % (WIDTH, HEIGHT))
    axis = 'stroke="black" stroke-width="1"'
    out.append('<line x1="%g" y1="%g" x2="%g" y2="%g" %s/>' % (MARGIN, HEIGHT - MARGIN, WIDTH - MARGIN, HEIGHT - MARGIN, axis))
    out.append('<line x1="%g" y1="%g" x2="%g" y2="%g" %s/>' % (MARGIN, MARGIN, MARGIN, HEIGHT - MARGIN, axis))
    text = 'font-family="sans-serif" font-size="14"'
    out.append('<text x="%g" y="%g" %s>%s</text>' % (MARGIN, HEIGHT - MARGIN + 20, text, _fmt(xmin)))
    out.append('<text x="%g" y="%g" %s text-anchor="end">%s</text>' % (WIDTH - MARGIN, HEIGHT - MARGIN + 20, text, _fmt(xmax)))
    out.append('<text x="%g" y="%g" %s text-anchor="end">%s</text>' % (MARGIN - 6, HEIGHT - MARGIN + 4, text, _fmt(ymin)))
    out.append('<text x="%g" y="%g" %s text-anchor="end">%s</text>' % (MARGIN - 6, MARGIN + 4, text, _fmt(ymax)))
    for i, pts in enumerate(shown):
        color = colors[i] if i < len(colors) else "black"
        points = " ".join("%.6g,%.6g" % (px(t), py(v)) for t, v in pts)
        out.append('<polyline fill="none" stroke="%s" stroke-width="1.5" points="%s"/>' % (color, points))
        if labels and i < len(labels):
            out.append(
                '<text x="%g" y="%g" %s fill="%s">%s</text>'
                % (WIDTH - MARGIN - 120, MARGIN + 18 * (i + 1), text, color, labels[i])
            )
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
