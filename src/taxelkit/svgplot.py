"""Hand-rolled SVG emitters: force-field frames, sweep curves, and
confusion-matrix heatmaps. No plotting dependency; output is plain XML.
"""
from __future__ import annotations

import numpy as np

from .geometry import (COLS, N_TAXELS, NORMAL_MIN_N, PITCH_CM, POSITIONS_CM, ROWS,
                       SHEAR_MAX_N)

_SVG_HEADER = '<?xml version="1.0" encoding="UTF-8"?>\n'

# px per cm for the force-field view
_SCALE = 28.0
_MARGIN = 30.0
_MAX_CIRCLE_PX = 0.65 * PITCH_CM * _SCALE
_MAX_ARROW_PX = 0.9 * PITCH_CM * _SCALE
# size of one force-field panel, px
_PANEL_W = _MARGIN * 2 + (COLS - 1) * PITCH_CM * _SCALE
_PANEL_H = _MARGIN * 2 + (ROWS - 1) * PITCH_CM * _SCALE
_MONTAGE_PANELS = 6
_CHART_W, _CHART_H = 520, 340  # sweep chart, px
_CELL = 34.0  # confusion heatmap cell, px


def _svg(width: float, height: float, body: list[str]) -> str:
    return (_SVG_HEADER
            + f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
            f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">\n'
            + "\n".join(body) + "\n</svg>\n")


def circle_radius_px(fz: float) -> float:
    """Monotone map from normal-force magnitude to circle radius."""
    return _MAX_CIRCLE_PX * min(abs(fz) / abs(NORMAL_MIN_N), 1.0)


def _field_body(forces: np.ndarray) -> list[str]:
    """The elements of one force-field panel; see force_field_svg."""
    forces = np.asarray(forces)
    if forces.shape != (N_TAXELS, 3):
        raise ValueError(f"expected (49, 3) forces, got {forces.shape}")
    body = ['<rect width="100%" height="100%" fill="white"/>']
    for (x_cm, y_cm) in POSITIONS_CM:
        px = _MARGIN + x_cm * _SCALE
        py = _MARGIN + y_cm * _SCALE
        body.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="1.5" fill="#999"/>')
    for i, (fx, fy, fz) in enumerate(forces):
        px = _MARGIN + POSITIONS_CM[i, 0] * _SCALE
        py = _MARGIN + POSITIONS_CM[i, 1] * _SCALE
        r = circle_radius_px(fz)
        if r > 0.5:
            body.append(f'<circle class="normal" cx="{px:.2f}" cy="{py:.2f}" r="{r:.2f}" '
                        'fill="red" fill-opacity="0.35"/>')
        shear = float(np.hypot(fx, fy))
        if shear > 0.02:
            length = _MAX_ARROW_PX * min(shear / (SHEAR_MAX_N * np.sqrt(2)), 1.0)
            ux, uy = fx / shear, fy / shear
            x2, y2 = px + ux * length, py + uy * length
            body.append(f'<line class="shear" x1="{px:.2f}" y1="{py:.2f}" '
                        f'x2="{x2:.2f}" y2="{y2:.2f}" stroke="red" stroke-width="2.2"/>')
            # arrow head
            hx, hy = -uy, ux
            for s in (1.0, -1.0):
                bx = x2 - ux * 6 + s * hx * 3.5
                by = y2 - uy * 6 + s * hy * 3.5
                body.append(f'<line x1="{x2:.2f}" y1="{y2:.2f}" x2="{bx:.2f}" y2="{by:.2f}" '
                            'stroke="red" stroke-width="2.2"/>')
    return body


def force_field_svg(forces: np.ndarray) -> str:
    """One frame as force glyphs: circles for normal force, arrows for shear.

    forces is (49, 3) in taxel-index order; the phantom cell renders nothing.
    """
    return _svg(_PANEL_W, _PANEL_H, _field_body(forces))


def montage_svg(frames: np.ndarray) -> str:
    """Evenly sampled frames side by side."""
    idx = np.linspace(0, len(frames) - 1, _MONTAGE_PANELS).round().astype(int)
    body = []
    for k, fi in enumerate(idx):
        panel = "\n".join(_field_body(frames[fi]))
        body.append(f'<g transform="translate({k * _PANEL_W:.0f},0)">\n{panel}\n\n'
                    f'<text x="{_MARGIN}" y="16" font-size="12">frame {fi}</text>\n</g>')
    return _svg(_PANEL_W * _MONTAGE_PANELS, _PANEL_H, body)


def curves_svg(xs: np.ndarray, curves: list[tuple[str, np.ndarray]], title: str) -> str:
    """Simple multi-line chart with axes; one polyline per labeled series."""
    left, right, top, bottom = 60, 20, 30, 40
    pw, ph = _CHART_W - left - right, _CHART_H - top - bottom
    ys = np.concatenate([c for _, c in curves])
    ymin, ymax = float(ys.min()), float(ys.max())
    if ymax == ymin:
        ymax = ymin + 1.0
    xmin, xmax = float(xs.min()), float(xs.max())
    colors = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

    def sx(x):
        return left + (x - xmin) / (xmax - xmin) * pw

    def sy(y):
        return top + (ymax - y) / (ymax - ymin) * ph

    body = ['<rect width="100%" height="100%" fill="white"/>',
            f'<text x="{_CHART_W // 2}" y="18" text-anchor="middle" font-size="13">{title}</text>',
            f'<line x1="{left}" y1="{top + ph}" x2="{left + pw}" y2="{top + ph}" stroke="black"/>',
            f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + ph}" stroke="black"/>']
    for t in np.linspace(xmin, xmax, 6):
        body.append(f'<text x="{sx(t):.1f}" y="{top + ph + 16:.1f}" text-anchor="middle" '
                    f'font-size="10">{t:.2g}</text>')
    for t in np.linspace(ymin, ymax, 6):
        body.append(f'<text x="{left - 6:.1f}" y="{sy(t) + 3:.1f}" text-anchor="end" '
                    f'font-size="10">{t:.3g}</text>')
    for k, (label, ys_k) in enumerate(curves):
        color = colors[k % len(colors)]
        pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys_k))
        body.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        body.append(f'<text x="{left + pw - 4:.0f}" y="{top + 14 + 13 * k:.0f}" text-anchor="end" '
                    f'font-size="11" fill="{color}">{label}</text>')
    return _svg(_CHART_W, _CHART_H, body)


def heatmap_svg(matrix: np.ndarray, labels: list[str], title: str) -> str:
    """Row-normalized confusion heatmap with per-cell annotations."""
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    left, top = 90, 60
    width = left + n * _CELL + 20
    height = top + n * _CELL + 20
    body = ['<rect width="100%" height="100%" fill="white"/>',
            f'<text x="{width / 2:.0f}" y="22" text-anchor="middle" font-size="14">{title}</text>']
    for i in range(n):
        for j in range(n):
            v = matrix[i, j]
            # white -> blue ramp
            shade = int(255 - 175 * min(v, 1.0))
            body.append(f'<rect x="{left + j * _CELL:.1f}" y="{top + i * _CELL:.1f}" '
                        f'width="{_CELL:.1f}" height="{_CELL:.1f}" '
                        f'fill="rgb({shade},{shade},255)" stroke="#ddd"/>')
            if v >= 0.005:
                fill = "white" if v > 0.6 else "black"
                body.append(f'<text x="{left + (j + 0.5) * _CELL:.1f}" '
                            f'y="{top + (i + 0.5) * _CELL + 3:.1f}" text-anchor="middle" '
                            f'font-size="9" fill="{fill}">{v:.2f}</text>')
    for i, name in enumerate(labels):
        body.append(f'<text x="{left - 6}" y="{top + (i + 0.5) * _CELL + 3:.1f}" '
                    f'text-anchor="end" font-size="10">{name}</text>')
        body.append(f'<text x="{left + (i + 0.5) * _CELL:.1f}" y="{top - 8}" font-size="10" '
                    f'text-anchor="start" transform="rotate(-45 {left + (i + 0.5) * _CELL:.1f} '
                    f'{top - 8})">{name}</text>')
    return _svg(width, height, body)
