"""Minimal SVG emitters: grouped bar charts and correlation heatmaps."""

from xml.sax.saxutils import escape

METRIC_COLORS = {
    "accuracy": "#4C72B0",
    "precision": "#DD8452",
    "recall": "#55A868",
    "f1": "#C44E52",
}


def _svg_doc(width, height, body, title):
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<text x="{width / 2}" y="18" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{escape(title)}</text>\n'
        + body
        + "</svg>\n"
    )


def bar_chart(groups, title=""):
    """Grouped bar chart: one group per x value, one bar per metric of
    METRIC_COLORS, in its order.

    groups: list of (label, {metric: value-or-None}). Undefined metrics
    render as zero-height bars with class "bar undef" so every
    (group, metric) pair contributes exactly one bar.
    """
    margin, chart_h, bar_w, gap = 40, 220, 14, 18
    group_w = len(METRIC_COLORS) * bar_w + gap
    width = max(320, margin * 2 + group_w * len(groups))
    height = chart_h + 90
    base_y = chart_h + 40

    parts = []
    # y axis with 0/0.5/1 grid lines
    for frac in (0.0, 0.5, 1.0):
        y = base_y - frac * chart_h
        parts.append(
            f'<line x1="{margin}" y1="{y}" x2="{width - margin}" y2="{y}" '
            f'stroke="#ddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{margin - 5}" y="{y + 4}" text-anchor="end" font-size="10" '
            f'font-family="sans-serif">{frac:g}</text>'
        )
    for gi, (label, values) in enumerate(groups):
        x0 = margin + gi * group_w
        for mi, metric in enumerate(METRIC_COLORS):
            value = values.get(metric)
            cls = "bar" if value is not None else "bar undef"
            h = (value or 0.0) * chart_h
            parts.append(
                f'<rect class="{cls}" x="{x0 + mi * bar_w}" y="{base_y - h}" '
                f'width="{bar_w - 2}" height="{h}" fill="{METRIC_COLORS[metric]}"/>'
            )
        parts.append(
            f'<text x="{x0 + len(METRIC_COLORS) * bar_w / 2}" y="{base_y + 14}" '
            f'text-anchor="middle" font-size="10" font-family="sans-serif">'
            f"{escape(str(label))}</text>"
        )
    # legend
    for mi, metric in enumerate(METRIC_COLORS):
        lx = margin + mi * 90
        ly = base_y + 34
        parts.append(
            f'<rect x="{lx}" y="{ly - 9}" width="10" height="10" fill="{METRIC_COLORS[metric]}"/>'
        )
        parts.append(
            f'<text x="{lx + 14}" y="{ly}" font-size="10" font-family="sans-serif">{metric}</text>'
        )
    return _svg_doc(width, height, "\n".join(parts) + "\n", title)


def _heat_color(v):
    """Linear blue-white-red scale over [-1, 1]."""
    v = max(-1.0, min(1.0, v))
    if v >= 0:
        r, g, b = 255, round(255 * (1 - v)), round(255 * (1 - v))
    else:
        r, g, b = round(255 * (1 + v)), round(255 * (1 + v)), 255
    return f"rgb({r},{g},{b})"


def heatmap(matrix, names, title=""):
    """Correlation heatmap; cell color linear in [-1, 1]."""
    cell = 22
    label_space = 10 + 7 * max(len(n) for n in names)
    n = len(names)
    width = label_space + n * cell + 20
    height = label_space + n * cell + 40
    parts = []
    for i, row in enumerate(matrix):
        y = 30 + label_space + i * cell - cell
        parts.append(
            f'<text x="{label_space - 4}" y="{y + cell - 7}" text-anchor="end" '
            f'font-size="9" font-family="sans-serif">{escape(names[i])}</text>'
        )
        for j, v in enumerate(row):
            parts.append(
                f'<rect class="cell" x="{label_space + j * cell}" y="{y}" '
                f'width="{cell - 1}" height="{cell - 1}" fill="{_heat_color(v)}">'
                f"<title>{escape(names[i])} / {escape(names[j])}: {v:.3f}</title></rect>"
            )
    for j, name in enumerate(names):
        x = label_space + j * cell + cell / 2
        y = 30 + label_space + n * cell - cell + 12
        parts.append(
            f'<text x="{x}" y="{y}" font-size="9" font-family="sans-serif" '
            f'transform="rotate(45 {x} {y})">{escape(name)}</text>'
        )
    return _svg_doc(width, height, "\n".join(parts) + "\n", title)
