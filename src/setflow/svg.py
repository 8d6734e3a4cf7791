"""Static SVG figures: polygon filmstrips and support-value profiles.

Every emitted frame contributes exactly one <polygon> (filmstrips) or one
<polyline> (profiles); everything else is drawn with rect/line/text.
"""

from __future__ import annotations

import numpy as np

CELL = 180
MARGIN = 24


def _color(i: int, total: int) -> str:
    frac = i / max(total - 1, 1)
    shade = int(40 + 160 * frac)
    return f"rgb({shade},{int(60 + 60 * frac)},{255 - shade})"


def _write_svg(path, width: int, height: int, title: str, body, backdrop=()) -> None:
    """Write an SVG document: white background, backdrop, centred title if any, then body."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        *backdrop,
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="16" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{title}</text>'
        )
    parts += body
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))


def _points(xs: np.ndarray, ys: np.ndarray) -> str:
    """The x,y pairs to two decimals, space-separated: an SVG points attribute."""
    pattern = " ".join(["%.2f,%.2f"] * len(xs))
    return pattern % tuple(np.column_stack((xs, ys)).ravel().tolist())


def polygon_filmstrip(frames, path, title: str = "") -> None:
    """Write one square cell per (t, polygon) frame, all on a shared scale."""
    frames = list(frames)
    pts = np.vstack([p.vertices for _, p in frames])
    unit = np.ldexp(1.0, min(0, 1021 - np.frexp(np.abs(pts).max())[1]))  # puts pts under 2^1021
    lo = pts.min(axis=0) * unit  # exactly, so no span overflows; unit is 1.0 for smaller sets
    hi = pts.max(axis=0) * unit
    span = max(float(np.max(hi - lo)), 1e-9)
    pad = 0.08 * span
    lo = lo - pad
    span = span + 2 * pad

    cols = min(len(frames), 6)
    rows = (len(frames) + cols - 1) // cols
    width = MARGIN + cols * (CELL + MARGIN)
    height = MARGIN + 20 + rows * (CELL + MARGIN + 16)

    parts = []
    for i, (t, poly) in enumerate(frames):
        cx = MARGIN + (i % cols) * (CELL + MARGIN)
        cy = MARGIN + 20 + (i // cols) * (CELL + MARGIN + 16)
        parts.append(
            f'<rect x="{cx}" y="{cy}" width="{CELL}" height="{CELL}" '
            f'fill="none" stroke="#cccccc"/>'
        )
        v = poly.vertices * unit
        coords = _points(cx + (v[:, 0] - lo[0]) / span * CELL,
                         cy + CELL - (v[:, 1] - lo[1]) / span * CELL)
        parts.append(
            f'<polygon points="{coords}" fill="none" '
            f'stroke="{_color(i, len(frames))}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{cx + CELL / 2:.1f}" y="{cy + CELL + 13:.1f}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="10">'
            f"t = {t:g}</text>"
        )
    _write_svg(path, width, height, title, parts)


def support_profiles(frames, angles, path, title: str = "") -> None:
    """Overlay one polyline per (t, values) frame, values a float row: value against angle."""
    frames = list(frames)
    width, height = 560, 340
    plot_w, plot_h = width - 2 * MARGIN - 40, height - 2 * MARGIN - 20
    x0, y0 = MARGIN + 40, MARGIN + 10
    vmin = min(float(v.min()) for _, v in frames)
    vmax = max(float(v.max()) for _, v in frames)
    if vmax - vmin < 1e-12:
        vmax = vmin + 1.0
    amax = float(angles[-1])

    parts = []
    if vmin < 0 < vmax:
        yz = y0 + plot_h - (0 - vmin) / (vmax - vmin) * plot_h
        parts.append(
            f'<line x1="{x0}" y1="{yz:.1f}" x2="{x0 + plot_w}" y2="{yz:.1f}" '
            f'stroke="#eeeeee"/>'
        )
    xs = x0 + np.asarray(angles, dtype=float) / amax * plot_w
    for i, (t, vals) in enumerate(frames):
        coords = _points(xs, y0 + plot_h - (vals - vmin) / (vmax - vmin) * plot_h)
        parts.append(
            f'<polyline points="{coords}" fill="none" '
            f'stroke="{_color(i, len(frames))}" stroke-width="1.2"/>'
        )
    parts.append(
        f'<text x="{x0 + plot_w / 2:.1f}" y="{height - 6}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="10">direction angle</text>'
    )
    frame = (
        f'<rect x="{x0}" y="{y0}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#cccccc"/>'
    )
    _write_svg(path, width, height, title, parts, backdrop=[frame])
