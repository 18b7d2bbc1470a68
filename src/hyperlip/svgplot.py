"""Deterministic SVG rendering of planar sets, orbits, and cones.

Output is a plain string assembled with fixed 3-decimal coordinate
formatting and no timestamps or ids, so identical inputs produce
byte-identical files.  The set region is rasterized by testing cell centers
of a square grid and merging horizontal runs into rectangles; orbits are
polylines; cones are translucent triangles reaching the edge of the viewport
(the viewport clips them).
"""

from __future__ import annotations

import math

import numpy as np

from .boxset import BoxLipschitzSet, violation_many
from .lipfun import _box
from .metric import ConeDescriptor, _positive, as_points

__all__ = ["render_scene"]

REGION_FILL = "#9ecae1"
CONE_FILL = "#fdae6b"
ORBIT_STROKE = "#d62728"
FRAME_STROKE = "#444444"
MEMBER_TOL = 1e-9
# width of the drawing in SVG units; the height keeps the box's aspect ratio
WIDTH = 480
# largest raster of set membership tests one scene may ask for
MAX_CELLS = 4_000_000


def _fmt(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError(f"scene coordinate {v} is not finite: the box or a point "
                         f"is too large to draw")
    s = f"{v:.3f}"
    return "0.000" if s == "-0.000" else s


def render_scene(box, Q: BoxLipschitzSet = None, orbit=None, cones=None,
                 resolution: float = 0.05) -> str:
    """Render a planar scene into an SVG string.

    ``box`` is ``((x0, x1), (y0, y1))`` in data coordinates; ``Q`` (optional)
    must be 2-dimensional; ``orbit`` is a sequence of planar points, read by
    :func:`~hyperlip.metric.as_points`, drawn as a polyline; ``cones`` is a
    sequence of planar :class:`ConeDescriptor`.
    """
    (x0, x1), (y0, y1) = _box(box, 2)
    if not (x0 < x1 and y0 < y1):
        raise ValueError("box sides must have positive length")
    if Q is not None and Q.n != 2:
        raise ValueError(f"plotting needs a planar set, got dimension {Q.n}")
    resolution = _positive(resolution, "resolution")
    span_x = x1 - x0
    span_y = y1 - y0
    height = WIDTH * span_y / span_x

    def sx(v):
        return (v - x0) / span_x * WIDTH

    def sy(v):
        return height - (v - y0) / span_y * height

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(WIDTH)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(WIDTH)} {_fmt(height)}">'
    ]

    if Q is not None:
        cells_x, cells_y = span_x / resolution, span_y / resolution
        if not (math.isfinite(cells_x) and math.isfinite(cells_y)):
            raise ValueError(f"box span / resolution overflows at resolution={resolution!r}")
        nx = max(1, int(round(cells_x)))
        ny = max(1, int(round(cells_y)))
        if nx * ny > MAX_CELLS:
            raise ValueError(f"resolution={resolution!r} asks for {nx} x {ny} cells, "
                             f"more than {MAX_CELLS}")
        cx = x0 + (np.arange(nx) + 0.5) * span_x / nx
        cy = y0 + (np.arange(ny) + 0.5) * span_y / ny
        cell_w = WIDTH / nx
        cell_h = height / ny
        for iy in range(ny):
            row = np.column_stack([cx, np.full(nx, cy[iy])])
            member = violation_many(Q, row) <= MEMBER_TOL
            # each run of members starts where the padded mask rises and
            # ends where it falls
            edges = np.flatnonzero(np.diff(member, prepend=False, append=False))
            for ix, run in edges.reshape(-1, 2).tolist():
                parts.append(
                    f'<rect x="{_fmt(ix * cell_w)}" y="{_fmt(sy(cy[iy]) - cell_h / 2)}" '
                    f'width="{_fmt((run - ix) * cell_w)}" height="{_fmt(cell_h)}" '
                    f'fill="{REGION_FILL}"/>')

    for cone in cones or ():
        if not isinstance(cone, ConeDescriptor) or len(cone.apex) != 2:
            raise ValueError(f"need planar cones, got {cone!r}")
        ax, ay = cone.apex
        reach = 2.0 * max(span_x, span_y)
        tip_x = ax + cone.sign * reach if cone.axis == 0 else ax
        tip_y = ay + cone.sign * reach if cone.axis == 1 else ay
        if cone.axis == 0:
            corners = [(tip_x, ay + reach), (tip_x, ay - reach)]
        else:
            corners = [(ax + reach, tip_y), (ax - reach, tip_y)]
        pts = [(ax, ay)] + corners
        path = " ".join(f"{_fmt(sx(px))},{_fmt(sy(py))}" for px, py in pts)
        parts.append(f'<polygon points="{path}" fill="{CONE_FILL}" fill-opacity="0.5"/>')

    orbit = as_points(() if orbit is None else orbit)
    if len(orbit):
        if orbit.shape[1] != 2:
            raise ValueError(f"need planar orbit points, got dimension {orbit.shape[1]}")
        path = " ".join(f"{_fmt(sx(px))},{_fmt(sy(py))}" for px, py in orbit.tolist())
        parts.append(
            f'<polyline points="{path}" fill="none" stroke="{ORBIT_STROKE}" '
            f'stroke-width="1.5"/>')

    parts.append(
        f'<rect x="0.000" y="0.000" width="{_fmt(WIDTH)}" height="{_fmt(height)}" '
        f'fill="none" stroke="{FRAME_STROKE}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
