"""Metrics CSV interchange and chart emission.

The CSV schema is one row per metric value: metric,ordering,persona,n,value.
Reports merge any number of such files (one per run, named by file stem)
into a single CSV and one grouped bar chart per metric family. Charts are
hand-built SVG text with fixed-precision coordinates, so identical inputs
produce identical bytes.
"""

from __future__ import annotations

import csv
import io
import math
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ParseError, not_utf8
from .evaluation import MetricRow
from .ledger import staged_sibling

CSV_HEADER = ["metric", "ordering", "persona", "n", "value"]
METRIC_FAMILIES = ("mean_relevance", "precision", "dcg", "ndcg", "rho12", "overlap_percent")

# The order of metric rows in every CSV written here
_ROW_ORDER = attrgetter("metric", "ordering", "persona", "n")
_PALETTE = ("#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#76b7b2", "#edc948")


def escape(text: str) -> str:
    """XML character data: ``&``, ``<`` and ``>`` as entities.

    The same replacements as ``xml.sax.saxutils.escape``, which is not used
    because importing it loads ``urllib.request`` and so the HTTP stack.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def format_value(value: float) -> str:
    return f"{value:.6f}"


def _csv_text(header: list[str], records: Iterable[list]) -> str:
    """Every CSV written here: the header line, then a line per record."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(records)
    return out.getvalue()


def _fields(row: MetricRow) -> list:
    return [row.metric, row.ordering, row.persona, row.n, format_value(row.value)]


def metrics_csv_text(rows: Iterable[MetricRow]) -> str:
    return _csv_text(CSV_HEADER, map(_fields, sorted(rows, key=_ROW_ORDER)))


def read_metrics_csv(path: str | Path) -> list[MetricRow]:
    source = Path(path)
    try:
        text = source.read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        raise not_utf8(source) from None
    reader = csv.reader(io.StringIO(text, newline=""))  # splits lines as open(newline="") does
    records, start = [], 1  # each record with the line it starts on; a quoted field spans lines
    try:
        for record in reader:
            records.append((start, record))
            start = reader.line_num + 1
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ParseError(str(exc), reader.line_num, source) from None
    if not records:
        raise ParseError(f"{source}: empty file, expected header")
    if records[0][1] != CSV_HEADER:
        raise ParseError(f"{source}: header must be {','.join(CSV_HEADER)}")
    rows, first_lines = [], {}  # each (metric, ordering, persona, n) with its line
    for line_no, record in records[1:]:
        if not record:
            continue
        if len(record) != len(CSV_HEADER):
            raise ParseError(f"expected {len(CSV_HEADER)} columns", line_no, source)
        metric, ordering, persona, n_text, value_text = record
        if not metric:
            raise ParseError("empty metric name", line_no, source)
        try:
            n = int(n_text)
        except ValueError:
            raise ParseError(f"n must be an integer, got {n_text!r}", line_no, source) from None
        try:
            value = float(value_text)
        except ValueError:
            raise ParseError(f"value must be a number, got {value_text!r}", line_no, source) from None
        if not math.isfinite(value):
            raise ParseError(f"value must be finite, got {value_text!r}", line_no, source)
        key = (metric, ordering, persona, n)
        if key in first_lines:
            raise ParseError(f"repeated metric row {'/'.join(map(str, key))} (first on line "
                             f"{first_lines[key]})", line_no, source)
        first_lines[key] = line_no
        rows.append(MetricRow(metric=metric, ordering=ordering, persona=persona, n=n, value=value))
    return rows


def merged_csv_text(runs: dict[str, list[MetricRow]]) -> str:
    records = (
        [run, *_fields(row)] for run in sorted(runs) for row in sorted(runs[run], key=_ROW_ORDER)
    )
    return _csv_text(["run"] + CSV_HEADER, records)


def svg_bar_chart(
    title: str,
    group_labels: Sequence[str],
    series: Sequence[tuple[str, Sequence[float | None]]],
) -> str:
    """Grouped bar chart; None leaves a gap where a run has no value."""
    left, right, top, bottom = 70, 30, 46, 70
    plot_height = 240
    bar_width, bar_gap, group_gap = 26, 6, 34

    values = [v for _, vs in series for v in vs if v is not None]
    y_max = max([1e-9] + values)
    y_min = min([0.0] + values)
    span = y_max - y_min or 1e-9

    group_width = len(series) * bar_width + (len(series) - 1) * bar_gap
    plot_width = max(1, len(group_labels)) * (group_width + group_gap) - group_gap
    width = left + plot_width + right
    height = top + plot_height + bottom

    def y_of(value: float) -> float:
        return top + plot_height * (y_max - value) / span

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">',
        f"<title>{escape(title)}</title>",
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{left}" y="24" font-size="15" fill="#222222">{escape(title)}</text>',
    ]
    for i in range(5):
        tick = y_min + span * i / 4
        y = y_of(tick)
        parts.append(
            f'<line x1="{left}" y1="{y:.2f}" x2="{left + plot_width}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.2f}" font-size="10" text-anchor="end" '
            f'fill="#444444">{tick:.2f}</text>'
        )
    baseline = y_of(max(0.0, y_min))
    for g, label in enumerate(group_labels):
        group_x = left + g * (group_width + group_gap)
        for s, (_, series_values) in enumerate(series):
            value = series_values[g]
            if value is None:
                continue
            x = group_x + s * (bar_width + bar_gap)
            y = y_of(value)
            bar_top = min(y, baseline)
            bar_height = abs(y - baseline)
            parts.append(
                f'<rect x="{x:.2f}" y="{bar_top:.2f}" width="{bar_width}" '
                f'height="{bar_height:.2f}" fill="{_PALETTE[s % len(_PALETTE)]}"/>'
            )
            parts.append(
                f'<text x="{x + bar_width / 2:.2f}" y="{bar_top - 4:.2f}" font-size="9" '
                f'text-anchor="middle" fill="#333333">{value:.4f}</text>'
            )
        parts.append(
            f'<text x="{group_x + group_width / 2:.2f}" y="{top + plot_height + 16}" '
            f'font-size="10" text-anchor="middle" fill="#333333">{escape(label)}</text>'
        )
    for s, (name, _) in enumerate(series):
        y = top + plot_height + 34 + s * 16
        parts.append(
            f'<rect x="{left}" y="{y - 9}" width="10" height="10" '
            f'fill="{_PALETTE[s % len(_PALETTE)]}"/>'
        )
        parts.append(
            f'<text x="{left + 16}" y="{y}" font-size="11" fill="#333333">{escape(name)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def family_chart(runs: dict[str, list[MetricRow]], family: str) -> str | None:
    """The family's bar chart, a group per (ordering, persona, n) that any run
    has a row for; None when none has."""
    by_run = {
        run: {(row.ordering, row.persona, row.n): row.value for row in runs[run]
              if row.metric == family}
        for run in sorted(runs)
    }
    groups = sorted({group for values in by_run.values() for group in values})
    if not groups:
        return None
    labels = [f"{ordering}/{persona}@{n}" for ordering, persona, n in groups]
    series = [(run, [values.get(group) for group in groups]) for run, values in by_run.items()]
    return svg_bar_chart(family, labels, series)


def write_report(
    runs: dict[str, list[MetricRow]],
    out_dir: str | Path,
    formats: Iterable[str] = ("csv", "svg"),
) -> list[Path]:
    """merged.csv and a chart per family with rows, as ``formats`` asks, each written
    through a ``ledger.staged_sibling``: a failure leaves no partial file."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    wanted = set(formats)

    def write(name: str, text: str) -> None:
        with staged_sibling(directory / name) as staging:
            staging.write_text(text, encoding="utf-8")
        written.append(directory / name)

    if "csv" in wanted:
        write("merged.csv", merged_csv_text(runs))
    if "svg" in wanted:
        for family in METRIC_FAMILIES:
            chart = family_chart(runs, family)
            if chart is not None:
                write(f"{family}.svg", chart)
    return written
