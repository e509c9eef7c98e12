"""Chart bytes: the SVGs write_report draws are pinned by sha256."""

import hashlib
from pathlib import Path

import pytest

import evoquery.report
from evoquery.errors import ParseError
from evoquery.report import escape, read_metrics_csv, write_report

GOLDEN_CSV = Path(__file__).parent / "golden" / "metrics.csv"

# Measured with xml.sax.saxutils.escape, before report.py had its own.
GOLDEN_SVG = {
    "golden": {
        "mean_relevance.svg": "513133bfc6d23921b0dfa80fe87e0fee61fbb4fca8ed37292c4d322cb6bb6b01",
        "precision.svg": "3c812f85f3129efcf071e436d9508a8cfada01f6b32889744ae2befb805604aa",
        "dcg.svg": "a876a3da50447e55813007742c28dee85b6a17979fe45754ad6fd4de4925a584",
        "ndcg.svg": "53aed7fc2a5fd8dcd156cb782c7bc8db2d96e0ba8565f7891f812661b5ceb7cb",
        "rho12.svg": "27804925ae309a3e556cbf2ecaaa598825ea12ce9641d4a4f33482ca92f90d16",
        "overlap_percent.svg": "df540b0ed2f733a56a05f2fa1b152631e1c1cab880a1b7fc2fa1496ebbecdf1b",
    },
    # a second run whose name holds every character escape treats specially
    "markup-name": {
        "mean_relevance.svg": "b4b79d522b298cab9cfc0d2efa26b86c9eb10586e940bd854c9deaf2af6d5646",
        "precision.svg": "5304c342315fbf36dd614b8ec8772570f5f751c07a73a9d046e821db3fac8505",
        "dcg.svg": "6fb7ece7471dc5dcbb459dde72163424c930b4b92f3b4a69026b0790b95945e6",
        "ndcg.svg": "e382074cc82062c1ccdba2c8a8cec6a76daf7809d8ac0981f96ee5648a635618",
        "rho12.svg": "38bf5486dddd6d94ee01c5fdb13267e8a777182606a8a6707844ad682ebc05ea",
        "overlap_percent.svg": "7cfeb7040acacb948109faf2e82e8cbcf91ce5614a9a03c16a8fae74ebfd4be5",
    },
}


def golden_runs(case):
    rows = read_metrics_csv(GOLDEN_CSV)
    if case == "golden":
        return {"metrics": rows}
    return {"metrics": rows, "a&b<c>\"'": rows[:7]}


@pytest.mark.parametrize("case", sorted(GOLDEN_SVG))
def test_svg_digests(case, tmp_path):
    written = write_report(golden_runs(case), tmp_path, ("svg",))
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written}
    assert digests == GOLDEN_SVG[case]


def test_chart_that_fails_to_render_leaves_no_file(tmp_path, monkeypatch):
    draw = evoquery.report.svg_bar_chart

    def failing(title, *args):
        if title == "dcg":
            raise RuntimeError("chart failed")
        return draw(title, *args)

    monkeypatch.setattr(evoquery.report, "svg_bar_chart", failing)
    with pytest.raises(RuntimeError, match="chart failed"):
        write_report(golden_runs("golden"), tmp_path / "report")
    # the files before it are whole; it leaves neither itself nor a hidden sibling
    assert sorted(p.name for p in (tmp_path / "report").iterdir()) == [
        "mean_relevance.svg", "merged.csv", "precision.svg"
    ]


def test_escape_replaces_ampersand_first():
    assert escape("&lt; a&b <c> \"d\" 'e'") == "&amp;lt; a&amp;b &lt;c&gt; \"d\" 'e'"


def test_repeated_metric_row_names_both_lines(tmp_path):
    # a chart draws one bar per (ordering, persona, n): a repeat would hide a value
    path = tmp_path / "repeated.csv"
    path.write_text(
        "metric,ordering,persona,n,value\nndcg,evolved,S,20,0.5\nndcg,evolved,S,020,0.9\n",
        encoding="utf-8",
    )
    expected = f"{path}: line 3: repeated metric row ndcg/evolved/S/20 (first on line 2)"
    with pytest.raises(ParseError) as exc_info:
        read_metrics_csv(path)
    assert str(exc_info.value) == expected
