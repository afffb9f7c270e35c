"""Dependency-free SVG emission: line charts, bar charts, scatters, heat tables.

Deliberately minimal: fixed canvas, numeric formatting stable across runs so
artifacts are byte-identical for identical inputs. Titles, axis labels and
names are text content with ``&``, ``<`` and ``>`` escaped.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

__all__ = ["write_line_chart", "write_bar_chart", "write_scatter", "write_heat_table"]

_WIDTH, _HEIGHT = 720, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 160, 40, 50
_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def _escape(text: str) -> str:
    """``text`` as XML character data: its ``&``, ``<`` and ``>`` escaped."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(x: float) -> str:
    return f"{x:.4f}".rstrip("0").rstrip(".") or "0"


def _span(values: Sequence[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if hi == lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


class _Canvas:
    def __init__(self, title: str, x_label: str, y_label: str) -> None:
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
            f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="Helvetica, Arial, sans-serif">',
            f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
            f'<text x="{_WIDTH / 2}" y="24" font-size="16" text-anchor="middle">{_escape(title)}</text>',
            f'<text x="{(_MARGIN_L + _WIDTH - _MARGIN_R) / 2}" y="{_HEIGHT - 12}" '
            f'font-size="12" text-anchor="middle">{_escape(x_label)}</text>',
            f'<text x="18" y="{(_MARGIN_T + _HEIGHT - _MARGIN_B) / 2}" font-size="12" '
            f'text-anchor="middle" transform="rotate(-90 18 {(_MARGIN_T + _HEIGHT - _MARGIN_B) / 2})">'
            f"{_escape(y_label)}</text>",
        ]

    def axes(self, x_lo: float, x_hi: float, y_lo: float, y_hi: float, x_ticks: bool = True) -> None:
        x0, x1 = _MARGIN_L, _WIDTH - _MARGIN_R
        y0, y1 = _HEIGHT - _MARGIN_B, _MARGIN_T
        self.parts.append(
            f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>'
            f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>'
        )
        for i in range(5):
            fx = i / 4
            xv, yv = x_lo + fx * (x_hi - x_lo), y_lo + fx * (y_hi - y_lo)
            px = x0 + fx * (x1 - x0)
            py = y0 - fx * (y0 - y1)
            if x_ticks:
                self.parts.append(
                    f'<text x="{_fmt(px)}" y="{y0 + 16}" font-size="10" text-anchor="middle">{_fmt(xv)}</text>'
                )
            self.parts.append(
                f'<text x="{x0 - 6}" y="{_fmt(py + 3)}" font-size="10" text-anchor="end">{_fmt(yv)}</text>'
            )

    def to_xy(self, x: float, y: float, x_lo: float, x_hi: float, y_lo: float, y_hi: float) -> tuple[float, float]:
        px = _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * (_WIDTH - _MARGIN_R - _MARGIN_L)
        py = (_HEIGHT - _MARGIN_B) - (y - y_lo) / (y_hi - y_lo) * (_HEIGHT - _MARGIN_B - _MARGIN_T)
        return px, py

    def legend(self, labels: Sequence[str]) -> None:
        for i, label in enumerate(labels):
            color = _PALETTE[i % len(_PALETTE)]
            y = _MARGIN_T + 16 * i
            self.parts.append(
                f'<rect x="{_WIDTH - _MARGIN_R + 12}" y="{y}" width="10" height="10" fill="{color}"/>'
                f'<text x="{_WIDTH - _MARGIN_R + 26}" y="{y + 9}" font-size="11">{_escape(label)}</text>'
            )

    def write(self, path: Path | str) -> None:
        self.parts.append("</svg>")
        Path(path).write_text("\n".join(self.parts) + "\n", encoding="utf-8")


def write_line_chart(
    path: Path | str,
    xs: Sequence[float],
    series: Sequence[tuple[str, Sequence[float]]],
    title: str,
    x_label: str = "",
    y_label: str = "",
    envelope: Sequence[float] | None = None,
) -> None:
    """Multi-series line chart; optional dashed black envelope series."""
    all_y = [y for _, ys in series for y in ys]
    if envelope is not None:
        all_y.extend(envelope)
    x_lo, x_hi = _span(xs)
    y_lo, y_hi = _span(all_y)
    canvas = _Canvas(title, x_label, y_label)
    canvas.axes(x_lo, x_hi, y_lo, y_hi)
    for i, (label, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(
            f"{_fmt(px)},{_fmt(py)}"
            for px, py in (canvas.to_xy(x, y, x_lo, x_hi, y_lo, y_hi) for x, y in zip(xs, ys))
        )
        canvas.parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.6" points="{points}"/>')
    if envelope is not None:
        points = " ".join(
            f"{_fmt(px)},{_fmt(py)}"
            for px, py in (canvas.to_xy(x, y, x_lo, x_hi, y_lo, y_hi) for x, y in zip(xs, envelope))
        )
        canvas.parts.append(
            f'<polyline fill="none" stroke="black" stroke-width="2.2" stroke-dasharray="6,4" points="{points}"/>'
        )
    canvas.legend([label for label, _ in series] + (["envelope"] if envelope is not None else []))
    canvas.write(path)


def write_bar_chart(
    path: Path | str,
    labels: Sequence[str],
    values: Sequence[float],
    title: str,
    y_label: str = "",
    highlight: int | None = None,
) -> None:
    y_lo = min(0.0, min(values))
    y_hi = max(values) if max(values) > y_lo else y_lo + 1.0
    canvas = _Canvas(title, "", y_label)
    canvas.axes(0.0, float(len(labels)), y_lo, y_hi * 1.05, x_ticks=False)
    plot_w = _WIDTH - _MARGIN_R - _MARGIN_L
    bar_w = plot_w / len(labels) * 0.7
    for i, (label, value) in enumerate(zip(labels, values)):
        cx = _MARGIN_L + (i + 0.5) / len(labels) * plot_w
        _, py = canvas.to_xy(0, value, 0, 1, y_lo, y_hi * 1.05)
        _, base = canvas.to_xy(0, 0.0, 0, 1, y_lo, y_hi * 1.05)
        color = "#d62728" if i == highlight else "#1f77b4"
        canvas.parts.append(
            f'<rect x="{_fmt(cx - bar_w / 2)}" y="{_fmt(min(py, base))}" width="{_fmt(bar_w)}" '
            f'height="{_fmt(abs(base - py))}" fill="{color}"/>'
            f'<text x="{_fmt(cx)}" y="{_HEIGHT - _MARGIN_B + 14}" font-size="10" '
            f'text-anchor="middle">{_escape(label)}</text>'
            f'<text x="{_fmt(cx)}" y="{_fmt(min(py, base) - 4)}" font-size="10" '
            f'text-anchor="middle">{_fmt(value)}</text>'
        )
    canvas.write(path)


def write_scatter(
    path: Path | str,
    points: Sequence[tuple[float, float]],
    title: str,
    x_label: str = "",
    y_label: str = "",
) -> None:
    """Scatter of (x, y) points on equal axes over the dashed y = x line."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    lo = min(min(xs), min(ys), 0.0)
    hi = max(max(xs), max(ys), 1e-9)
    lo_p, hi_p = _span([lo, hi])
    canvas = _Canvas(title, x_label, y_label)
    canvas.axes(lo_p, hi_p, lo_p, hi_p)
    x0, y0 = canvas.to_xy(lo_p, lo_p, lo_p, hi_p, lo_p, hi_p)
    x1, y1 = canvas.to_xy(hi_p, hi_p, lo_p, hi_p, lo_p, hi_p)
    canvas.parts.append(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
        f'stroke="#888888" stroke-dasharray="4,4"/>'
    )
    for x, y in points:
        px, py = canvas.to_xy(x, y, lo_p, hi_p, lo_p, hi_p)
        canvas.parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" fill="#1f77b4" fill-opacity="0.7"/>')
    canvas.write(path)


def write_heat_table(
    path: Path | str,
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    values: Sequence[Sequence[float]],
    title: str,
) -> None:
    """Colored value table: darker cells are larger values."""
    flat = [v for row in values for v in row]
    lo, hi = min(flat), max(flat)
    span = hi - lo if hi > lo else 1.0
    cell_w = (_WIDTH - _MARGIN_L - 30) / len(col_labels)
    cell_h = min(36.0, (_HEIGHT - _MARGIN_T - 60) / len(row_labels))
    canvas = _Canvas(title, "", "")
    for j, label in enumerate(col_labels):
        canvas.parts.append(
            f'<text x="{_fmt(_MARGIN_L + (j + 0.5) * cell_w)}" y="{_MARGIN_T + 12}" '
            f'font-size="11" text-anchor="middle">{_escape(label)}</text>'
        )
    for i, row_label in enumerate(row_labels):
        y = _MARGIN_T + 20 + i * cell_h
        canvas.parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{_fmt(y + cell_h / 2 + 4)}" font-size="11" '
            f'text-anchor="end">{_escape(row_label)}</text>'
        )
        for j, value in enumerate(values[i]):
            frac = (value - lo) / span
            shade = int(245 - 160 * frac)
            x = _MARGIN_L + j * cell_w
            canvas.parts.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(cell_w - 2)}" height="{_fmt(cell_h - 2)}" '
                f'fill="rgb({shade},{shade},255)" stroke="#cccccc"/>'
                f'<text x="{_fmt(x + cell_w / 2)}" y="{_fmt(y + cell_h / 2 + 4)}" font-size="10" '
                f'text-anchor="middle">{_fmt(value)}</text>'
            )
    canvas.write(path)
