"""``evoquery evaluate`` against ``reference_evaluation``, the metrics as they
were when each resolved a named url list against the grade map itself.

Drawn: judged and unjudged urls, grades all 0 or up to a drawn top grade,
one to three orderings (empty, overlapping, of different lengths, the first
maybe a ledger's), either persona or both, ``--n`` 1-25 and ``--threshold``
0-3. The metrics CSV and the ``note:`` lines must be equal, byte for byte.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from evoquery.cli import main
from evoquery.evaluation import Judgment, Persona
from evoquery.ledger import FINAL_RESULTS_FILE
from reference_evaluation import reference_evaluate

JUDGED = [f"https://d{i % 4}.example/{i}" for i in range(16)]
NEVER_JUDGED = [f"https://u.example/{i}" for i in range(12)]
PERSONAS = {"S": [Persona.SPECIALIST], "N": [Persona.NOVICE],
            "both": [Persona.SPECIALIST, Persona.NOVICE]}


@st.composite
def evaluations(draw):
    top_grade = draw(st.integers(0, 3))  # 0 makes every grade 0
    judgments = [
        Judgment(url, persona, draw(st.integers(0, top_grade)))
        for url in JUDGED
        for persona in Persona
        for _ in range(draw(st.integers(0, 3)))  # no judge leaves the url unjudged
    ]
    orderings = draw(st.lists(
        st.lists(st.sampled_from(JUDGED + NEVER_JUDGED), unique=True, max_size=28),
        min_size=1, max_size=3,
    ))
    return {
        "judgments": judgments,
        "orderings": orderings,
        "ledger": draw(st.booleans()),
        "persona": draw(st.sampled_from(sorted(PERSONAS))),
        "n": draw(st.integers(1, 25)),
        "threshold": draw(st.integers(0, 3)),
    }


def run_evaluate(case, work):
    """(exit code, stdout, stderr) of ``evoquery evaluate`` on ``case``'s files in ``work``,
    and the (name, urls) orderings it reads, the ledger's first."""
    judges: dict = {}
    lines = []
    for j in case["judgments"]:
        judge = judges[j.doc_url, j.persona] = judges.get((j.doc_url, j.persona), -1) + 1
        lines.append(f"{j.doc_url}\tj{judge}\t{j.persona.value}\t{j.grade}\n")
    qrels = work / "qrels.tsv"
    qrels.write_text("# url, judge, persona, grade\n" + "".join(lines), encoding="utf-8")
    argv = ["evaluate", "--qrels", str(qrels), "--persona", case["persona"],
            "--n", str(case["n"]), "--threshold", str(case["threshold"])]
    named = []
    for i, urls in enumerate(case["orderings"]):
        if i == 0 and case["ledger"]:
            (work / "ledger").mkdir()
            entries = [{"position": p, "url": url} for p, url in enumerate(urls, start=1)]
            (work / "ledger" / FINAL_RESULTS_FILE).write_text(json.dumps(entries) + "\n")
            argv += ["--ledger", str(work / "ledger")]
            named.append(("evolved", urls))
        else:
            listing = work / f"list{i}.txt"
            listing.write_text("".join(f"{url}\n" for url in urls), encoding="utf-8")
            argv += ["--list", str(listing)]
            named.append((listing.stem, urls))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), named


@settings(max_examples=250, deadline=None)
@given(evaluations())
def test_evaluate_matches_reference(case):
    with tempfile.TemporaryDirectory() as work:
        code, out, err, named = run_evaluate(case, Path(work))
    csv_text, notes = reference_evaluate(
        named, case["judgments"], PERSONAS[case["persona"]], case["n"], case["threshold"]
    )
    assert code == 0
    assert out == csv_text
    assert err == notes
