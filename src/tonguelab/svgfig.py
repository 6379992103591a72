"""Minimal deterministic SVG plots.

Hand-rolled rather than delegated to a plotting library so that identical
input produces byte-identical files: every coordinate is formatted with a
fixed precision and nothing (ids, timestamps, library versions) leaks
into the output.  Three kinds are supported:

* ``loglog``   - width-vs-eps points with the fitted line and its slope,
* ``profile``  - a drift profile over one period with extrema markers,
* ``trajectory`` - chain angles against time, one polyline per site.
"""

from __future__ import annotations

import math

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 30, 50


def _fmt(v: float) -> str:
    return f"{v:.4f}".rstrip("0").rstrip(".")


def _fmt_tick(v: float) -> str:
    if v != 0 and (abs(v) < 1e-3 or abs(v) >= 1e4):
        return f"{v:.2e}"
    return f"{v:.6g}"


def _text(s: str) -> str:
    """Escape ``s`` for XML character data."""
    return str(s).replace("&", "&amp;").replace("<", "&lt;")


def _comment(s: str) -> str:
    """Make ``s`` safe inside an XML comment, which may not hold ``--``."""
    return s.replace("--", "-&#45;")


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min((s for s in (1.0, 2.0, 2.5, 5.0, 10.0)), key=lambda s: abs(s * mag - raw)) * mag
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * abs(step):
        out.append(0.0 if abs(t) < 1e-15 * abs(step) else t)
        t += step
    return out


class _Frame:
    """Maps data coordinates to pixel coordinates, optionally log-log."""

    def __init__(self, xlo, xhi, ylo, yhi, logx=False, logy=False):
        self.logx, self.logy = logx, logy
        tx = math.log10 if logx else (lambda v: v)
        ty = math.log10 if logy else (lambda v: v)
        self.tx, self.ty = tx, ty
        self.xlo, self.xhi = tx(xlo), tx(xhi)
        self.ylo, self.yhi = ty(ylo), ty(yhi)
        if self.xhi == self.xlo:
            self.xhi = self.xlo + 1.0
        if self.yhi == self.ylo:
            pad = max(abs(self.ylo), 1.0) * 0.1
            self.ylo, self.yhi = self.ylo - pad, self.yhi + pad

    def px(self, x: float) -> float:
        u = (self.tx(x) - self.xlo) / (self.xhi - self.xlo)
        return MARGIN_L + u * (WIDTH - MARGIN_L - MARGIN_R)

    def py(self, y: float) -> float:
        u = (self.ty(y) - self.ylo) / (self.yhi - self.ylo)
        return HEIGHT - MARGIN_B - u * (HEIGHT - MARGIN_T - MARGIN_B)

    def data_ticks(self, axis: str) -> list[float]:
        lo, hi = (self.xlo, self.xhi) if axis == "x" else (self.ylo, self.yhi)
        log = self.logx if axis == "x" else self.logy
        if log:
            lo_i, hi_i = math.floor(lo), math.ceil(hi)
            decades = [10.0 ** k for k in range(lo_i, hi_i + 1)
                       if lo - 1e-9 <= k <= hi + 1e-9]
            if len(decades) >= 2:
                return decades
            return [10.0 ** t for t in _ticks(lo, hi)]
        return _ticks(lo, hi)


def _axes(parts: list[str], fr: _Frame, xlabel: str, ylabel: str) -> None:
    x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
    x1, y1 = WIDTH - MARGIN_R, MARGIN_T
    parts.append(f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
                 'fill="none" stroke="black" stroke-width="1"/>')
    for t in fr.data_ticks("x"):
        px = fr.px(t)
        parts.append(f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" y2="{y0 + 5}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{y0 + 18}" font-size="11" '
                     f'text-anchor="middle">{_fmt_tick(t)}</text>')
    for t in fr.data_ticks("y"):
        py = fr.py(t)
        parts.append(f'<line x1="{x0 - 5}" y1="{_fmt(py)}" x2="{x0}" y2="{_fmt(py)}" stroke="black"/>')
        parts.append(f'<text x="{x0 - 8}" y="{_fmt(py + 4)}" font-size="11" '
                     f'text-anchor="end">{_fmt_tick(t)}</text>')
    parts.append(f'<text x="{(x0 + x1) // 2}" y="{HEIGHT - 12}" font-size="13" '
                 f'text-anchor="middle">{_text(xlabel)}</text>')
    parts.append(f'<text x="16" y="{(y0 + y1) // 2}" font-size="13" text-anchor="middle" '
                 f'transform="rotate(-90 16 {(y0 + y1) // 2})">{_text(ylabel)}</text>')


def _polyline(fr: _Frame, xs, ys, color: str, width: float = 1.5) -> str:
    pts = " ".join(f"{_fmt(fr.px(x))},{_fmt(fr.py(y))}" for x, y in zip(xs, ys))
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{width}"/>'


def render_svg(dataset: dict, kind: str, metadata: dict | None = None) -> str:
    """Render ``dataset`` to an SVG string; raises on an empty dataset.

    ``metadata`` is embedded as an XML comment (key=value lines, with each
    ``--`` written as ``-&#45;``); pass only reproducible values when
    byte-identical output matters.  Labels are escaped as XML text.
    """
    if kind == "loglog":
        body = _render_loglog(dataset)
    elif kind == "profile":
        body = _render_profile(dataset)
    elif kind == "trajectory":
        body = _render_trajectory(dataset)
    else:
        raise ValueError(f"unknown plot kind {kind!r}")
    head = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">']
    if metadata:
        lines = "\n".join(f"{k}={metadata[k]}" for k in sorted(metadata))
        head.append(f"<!--\n{_comment(lines)}\n-->")
    head.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    return "\n".join(head + body + ["</svg>"]) + "\n"


def emit_svg(dataset: dict, kind: str, path: str,
             metadata: dict | None = None) -> None:
    """Write :func:`render_svg` output to ``path`` (UTF-8, LF newlines)."""
    text = render_svg(dataset, kind, metadata)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _require(dataset: dict, key: str) -> list:
    vals = list(dataset.get(key, ()))
    if not vals:
        raise ValueError(f"dataset is empty: missing nonempty {key!r}")
    return vals


def _render_loglog(dataset: dict) -> list[str]:
    xs = [float(v) for v in _require(dataset, "eps")]
    ys = [float(v) for v in _require(dataset, "width")]
    if len(xs) != len(ys):
        raise ValueError("eps and width must have equal lengths")
    if min(xs) <= 0 or min(ys) <= 0:
        raise ValueError("log-log plot needs positive data")
    fr = _Frame(min(xs), max(xs), min(ys), max(ys), logx=True, logy=True)
    parts: list[str] = []
    _axes(parts, fr, dataset.get("xlabel", "eps"), dataset.get("ylabel", "width"))
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{_fmt(fr.px(x))}" cy="{_fmt(fr.py(y))}" r="3.5" fill="#1f5fa8"/>')
    if len(xs) >= 2:
        # straight segment through the end points in log space
        lx0, lx1 = math.log(xs[0]), math.log(xs[-1])
        ly0, ly1 = math.log(ys[0]), math.log(ys[-1])
        slope = dataset.get("slope")
        if slope is None:
            slope = (ly1 - ly0) / (lx1 - lx0) if lx1 != lx0 else 0.0
            inter = ly0 - slope * lx0
        else:
            slope = float(slope)
            inter = float(dataset.get("intercept", ly0 - slope * lx0))
        gx = [xs[0], xs[-1]]
        gy = [math.exp(inter + slope * math.log(x)) for x in gx]
        parts.append(_polyline(fr, gx, gy, "#c0392b", 1.2))
        parts.append(f'<text x="{WIDTH - MARGIN_R - 8}" y="{MARGIN_T + 16}" font-size="12" '
                     f'text-anchor="end" fill="#c0392b">slope = {slope:.4f}</text>')
    return parts


def _render_profile(dataset: dict) -> list[str]:
    xs = [float(v) for v in _require(dataset, "x0")]
    ys = [float(v) for v in _require(dataset, "delta")]
    if len(xs) != len(ys):
        raise ValueError("x0 and delta must have equal lengths")
    fr = _Frame(min(xs), max(xs), min(ys), max(ys))
    parts: list[str] = []
    _axes(parts, fr, dataset.get("xlabel", "x0"), dataset.get("ylabel", "delta"))
    parts.append(_polyline(fr, xs, ys, "#1f5fa8"))
    i_hi = max(range(len(ys)), key=ys.__getitem__)
    i_lo = min(range(len(ys)), key=ys.__getitem__)
    for i, color in ((i_hi, "#c0392b"), (i_lo, "#27ae60")):
        parts.append(f'<circle cx="{_fmt(fr.px(xs[i]))}" cy="{_fmt(fr.py(ys[i]))}" '
                     f'r="4" fill="none" stroke="{color}" stroke-width="2"/>')
    return parts


_SITE_COLORS = ("#1f5fa8", "#c0392b", "#27ae60", "#8e44ad",
                "#d68910", "#16a085", "#7f8c8d", "#2c3e50")


def _render_trajectory(dataset: dict) -> list[str]:
    ts = [float(v) for v in _require(dataset, "t")]
    series = _require(dataset, "x")
    fr = _Frame(min(ts), max(ts),
                min(min(row) for row in series), max(max(row) for row in series))
    parts: list[str] = []
    _axes(parts, fr, dataset.get("xlabel", "t"), dataset.get("ylabel", "x_k"))
    for k, row in enumerate(series):
        if len(row) != len(ts):
            raise ValueError("every site series must match the time axis length")
        parts.append(_polyline(fr, ts, row, _SITE_COLORS[k % len(_SITE_COLORS)], 1.2))
    return parts
