"""Minimal static SVG 1.1 scatter plots, no plotting dependency."""

from __future__ import annotations

WIDTH, HEIGHT = 720, 480
MARGIN = 56


def _escape(text):  # as xml.sax.saxutils.escape, which loads urllib.request
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo, hi, n=6):
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def scatter_svg(points, lines=(), title="", xlabel="", ylabel=""):
    """Render points [(x, y), ...] and straight lines [(slope, intercept,
    label), ...] into an SVG document string."""
    xs = [p[0] for p in points] or [0.0, 1.0]
    ys = [p[1] for p in points] or [0.0, 1.0]
    for slope, intercept, _ in lines:
        ys.append(slope * min(xs) + intercept)
        ys.append(slope * max(xs) + intercept)
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1, x_hi + 1
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1, y_hi + 1
    pad_x = 0.05 * (x_hi - x_lo)
    pad_y = 0.05 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    def to_px(x, y):
        px = MARGIN + (x - x_lo) / (x_hi - x_lo) * (WIDTH - 2 * MARGIN)
        py = HEIGHT - MARGIN - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - 2 * MARGIN)
        return px, py

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-size="15" font-family="sans-serif">{_escape(title)}</text>',
    ]
    ax = (f'M {MARGIN} {MARGIN} L {MARGIN} {HEIGHT - MARGIN} '
          f'L {WIDTH - MARGIN} {HEIGHT - MARGIN}')
    parts.append(f'<path d="{ax}" stroke="black" fill="none"/>')
    for tx in _ticks(x_lo, x_hi):
        px, py = to_px(tx, y_lo)
        parts.append(f'<line x1="{px:.1f}" y1="{HEIGHT - MARGIN}" '
                     f'x2="{px:.1f}" y2="{HEIGHT - MARGIN + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.1f}" y="{HEIGHT - MARGIN + 18}" '
                     f'text-anchor="middle" font-size="11" '
                     f'font-family="sans-serif">{tx:.3g}</text>')
    for ty in _ticks(y_lo, y_hi):
        px, py = to_px(x_lo, ty)
        parts.append(f'<line x1="{MARGIN - 5}" y1="{py:.1f}" '
                     f'x2="{MARGIN}" y2="{py:.1f}" stroke="black"/>')
        parts.append(f'<text x="{MARGIN - 8}" y="{py + 4:.1f}" '
                     f'text-anchor="end" font-size="11" '
                     f'font-family="sans-serif">{ty:.3g}</text>')
    parts.append(f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT - 12}" '
                 f'text-anchor="middle" font-size="13" '
                 f'font-family="sans-serif">{_escape(xlabel)}</text>')
    parts.append(f'<text x="16" y="{HEIGHT / 2:.1f}" text-anchor="middle" '
                 f'font-size="13" font-family="sans-serif" '
                 f'transform="rotate(-90 16 {HEIGHT / 2:.1f})">'
                 f'{_escape(ylabel)}</text>')
    colors = ("#c44", "#47c", "#4a4")
    for idx, (slope, intercept, label) in enumerate(lines):
        x0, x1 = x_lo + pad_x, x_hi - pad_x
        p0 = to_px(x0, slope * x0 + intercept)
        p1 = to_px(x1, slope * x1 + intercept)
        color = colors[idx % len(colors)]
        parts.append(f'<line x1="{p0[0]:.1f}" y1="{p0[1]:.1f}" '
                     f'x2="{p1[0]:.1f}" y2="{p1[1]:.1f}" stroke="{color}" '
                     f'stroke-dasharray="6 4"/>')
        parts.append(f'<text x="{p1[0] - 4:.1f}" y="{p1[1] - 6:.1f}" '
                     f'text-anchor="end" font-size="11" fill="{color}" '
                     f'font-family="sans-serif">{_escape(label)}</text>')
    for x, y in points:
        px, py = to_px(x, y)
        parts.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="3" '
                     f'fill="#226" fill-opacity="0.7"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def write_scatter_svg(path, points, lines=(), title="", xlabel="", ylabel=""):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scatter_svg(points, lines, title, xlabel, ylabel))
