"""Static SVG figures: the generation fingerprint and the CDF overlay.

Hand-rolled SVG keeps the outputs bit-exact for golden-file comparison;
no plotting dependency is involved.  All coordinates are formatted with two
fixed decimals, so identical inputs give identical bytes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .gof import _ks_steps, _phi, _sorted_sample
from .io import AnalysisReport

_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
    "#393b79", "#637939", "#8c6d31", "#843c39", "#7b4173",
)

_FONT = 'font-family="Helvetica,Arial,sans-serif"'


def _fmt(v: float) -> str:
    out = f"{v:.2f}"
    return "0.00" if out == "-0.00" else out


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


def _svg(width: float, height: float, elements: list[str]) -> str:
    w, h = _fmt(width), _fmt(height)
    head = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
            f'viewBox="0 0 {w} {h}">', f'<rect width="{w}" height="{h}" fill="white"/>']
    return "\n".join(head + elements + ["</svg>"]) + "\n"


def _line(x1: float, y1: float, x2: float, y2: float, stroke="#444444", width="1") -> str:
    return (f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"/>')


def _text(x: float, y: float, size: int, body: str, anchor: str | None = None) -> str:
    """``body`` is escaped here, so callers pass labels as they are."""
    align = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{_fmt(x)}" y="{_fmt(y)}" {_FONT} font-size="{size}"{align}>'
            f'{_esc(body)}</text>')


def render_ngfp(reports: Sequence[AnalysisReport], node_label: str) -> str:
    """Stacked generation-score bars for one node across report years.

    Per year, columns run highest generation to first generation left to
    right; positive segments stack above the zero baseline, negative ones
    below, so each column's net height reproduces the previous column's.
    """
    if not reports:
        raise ValueError("need at least one report")
    scheme_ids = {r.scheme_id for r in reports}
    if len(scheme_ids) != 1:
        raise ValueError(f"reports mix schemes: {sorted(scheme_ids)}")
    for r in reports:
        if node_label not in r.labels:
            raise ValueError(f"node {node_label!r} missing from report {r.source!r}")
    if all(r.year is not None for r in reports):
        reports = sorted(reports, key=lambda r: r.year)

    # collect stacks: per report, per generation column, list of (name, height)
    columns: list[tuple[str, list[list[tuple[str, float]]]]] = []
    for r in reports:
        node_idx = r.labels.index(node_label)
        stacks = [[(g.name, float(g.display_heights[node_idx]))
                   for g in r.generations.by_generation(gen)]
                  for gen in r.generations.generations()]
        label = str(r.year) if r.year is not None else r.source
        columns.append((label, stacks))
    # colours by first appearance in column order, which is the nodes' order
    names = dict.fromkeys(g.name for r in reports for g in r.generations.nodes)
    color = {name: _PALETTE[i % len(_PALETTE)] for i, name in enumerate(names)}

    n_cols = max(len(stacks) for _, stacks in columns)
    bar_w = 16.0
    col_gap = 4.0
    group_gap = 26.0
    group_w = n_cols * bar_w + (n_cols - 1) * col_gap
    margin_l, margin_r, margin_t, margin_b = 54.0, 16.0, 34.0, 34.0
    width = margin_l + len(columns) * group_w + (len(columns) - 1) * group_gap + margin_r
    height = 360.0
    mid = margin_t + (height - margin_t - margin_b) / 2.0

    peak = 0.0
    for _, stacks in columns:
        for seg in stacks:
            pos = sum(h for _, h in seg if h > 0.0)
            neg = -sum(h for _, h in seg if h < 0.0)
            peak = max(peak, pos, neg)
    peak = peak if peak > 0.0 else 1.0
    scale = (height - margin_t - margin_b) / 2.0 / (peak * 1.08)

    parts = [_text(margin_l, 20.0, 13, "generation fingerprint: " + node_label)]
    # y-axis ticks in score units
    for tick in (-peak, -peak / 2.0, 0.0, peak / 2.0, peak):
        y = mid - tick * scale
        parts.append(_line(margin_l - 4, y, margin_l, y))
        parts.append(_text(margin_l - 8, y + 3.5, 9, _fmt(tick), "end"))

    x = margin_l
    for label, stacks in columns:
        for ci, seg in enumerate(stacks):
            cx = x + ci * (bar_w + col_gap)
            up = mid
            down = mid
            for name, h in seg:
                px = h * scale
                if px >= 0.0:
                    y0, y1 = up - px, up
                    up -= px
                else:
                    y0, y1 = down, down - px
                    down -= px
                parts.append(
                    f'<rect x="{_fmt(cx)}" y="{_fmt(y0)}" width="{_fmt(bar_w)}" '
                    f'height="{_fmt(y1 - y0)}" fill="{color[name]}" stroke="white" '
                    f'stroke-width="0.5"><title>{_esc(f"{label} {name}: {h:.4f}")}</title></rect>'
                )
        parts.append(_text(x + group_w / 2.0, height - 12.0, 11, label, "middle"))
        x += group_w + group_gap

    # zero expectation line over the plotting area
    parts.append(_line(margin_l, mid, width - margin_r, mid, stroke="black", width="1.2"))
    return _svg(width, height, parts)


def render_cdf_overlay(scores: Sequence[float]) -> str:
    """Empirical CDF steps with the standard-normal CDF and the KS gap marked."""
    x = _sorted_sample(scores)  # the KS statistic's check: n >= 5 and finite
    n = x.size

    width, height = 560.0, 380.0
    ml, mr, mt, mb = 56.0, 20.0, 30.0, 42.0
    x_lo = min(float(x[0]), -3.0) - 0.4
    x_hi = max(float(x[-1]), 3.0) + 0.4
    if not np.isfinite(x_hi - x_lo):
        raise ValueError(f"scores from {x[0]:g} to {x[-1]:g} span more than the float range")

    def sx(v: float) -> float:
        return ml + (v - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def sy(p: float) -> float:
        return height - mb - p * (height - mt - mb)

    parts = [_text(ml, 18.0, 13, "composite score CDF vs standard normal"),
             _line(ml, sy(0.0), width - mr, sy(0.0)),  # axes
             _line(ml, sy(0.0), ml, sy(1.0))]
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(_text(ml - 8, sy(p) + 3.5, 9, _fmt(p), "end"))
    # unit ticks up to a span of 12, then multiples of a wider step: at most 13 ticks
    step = max(1, int(np.ceil((x_hi - x_lo) / 12)))
    first = int(np.ceil(x_lo / step)) * step
    for tick in range(first, int(np.floor(x_hi / step)) * step + 1, step):
        parts.append(_line(sx(tick), sy(0.0), sx(tick), sy(0.0) + 4))
        parts.append(_text(sx(tick), sy(0.0) + 16, 9, str(tick), "middle"))

    # standard normal CDF, sampled polyline
    grid = np.linspace(x_lo, x_hi, 201)
    pts = " ".join(f"{_fmt(sx(float(v)))},{_fmt(sy(float(p)))}"
                   for v, p in zip(grid, _phi(grid)))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#d62728" stroke-width="1.6"/>')

    # empirical CDF step path
    step = [f"M {_fmt(sx(float(x[0])))} {_fmt(sy(0.0))}"]
    for k in range(n):
        step.append(f"L {_fmt(sx(float(x[k])))} {_fmt(sy(k / n))}")
        step.append(f"L {_fmt(sx(float(x[k])))} {_fmt(sy((k + 1) / n))}")
    step.append(f"L {_fmt(sx(x_hi))} {_fmt(sy(1.0))}")
    parts.append(f'<path d="{" ".join(step)}" fill="none" stroke="#1f77b4" stroke-width="1.4"/>')

    # KS gap marker at the attaining order statistic; as in gof._ks_rows the
    # two gaps sum to 1/n > 0, so the larger one is the larger absolute value
    z = _phi(x)
    up, down = _ks_steps(n)
    gaps = np.maximum(up - z, z - down)
    k = int(np.argmax(gaps))
    emp = up[k] if up[k] - z[k] >= z[k] - down[k] else down[k]
    gx = sx(float(x[k]))
    parts.append(f'<line x1="{_fmt(gx)}" y1="{_fmt(sy(float(z[k])))}" x2="{_fmt(gx)}" '
                 f'y2="{_fmt(sy(float(emp)))}" stroke="#d62728" stroke-width="2" '
                 f'stroke-dasharray="3,2"/>')
    parts.append(_text(width - mr, mt + 12, 11, f"D = {gaps[k]:.4f}, n = {n}", "end"))
    return _svg(width, height, parts)
