"""scripts/mutants.py draws the same mutants for a seed, each a change that parses."""

import ast
from pathlib import Path

from mutants import draw_mutants

CORPUS_SOURCE = (Path(__file__).parents[1] / "src" / "evoquery" / "corpus.py").read_text(
    encoding="utf-8")


def test_a_seed_draws_the_same_mutants():
    drawn = draw_mutants(CORPUS_SOURCE, 7, 25)
    assert len(drawn) == 25
    assert drawn == draw_mutants(CORPUS_SOURCE, 7, 25)
    assert drawn != draw_mutants(CORPUS_SOURCE, 8, 25)


def test_each_mutant_parses_and_differs_from_its_source():
    original = ast.dump(ast.parse(CORPUS_SOURCE))
    for mutant in draw_mutants(CORPUS_SOURCE, 7, 25):
        assert ast.dump(ast.parse(mutant["source"])) != original, mutant["mutation"]


def test_every_kind_of_mutation_is_drawn():
    source = "def f(a, b):\n    if a < b and a:\n        raise ValueError\n    return a + 1.5\n"
    assert [(m["line"], m["mutation"]) for m in draw_mutants(source, 0, 99)] == [
        (2, "a < b and a -> a < b or a"),
        (2, "a < b -> a <= b"),
        (3, "raise ValueError -> pass"),
        (4, "a + 1.5 -> a - 1.5"),
        (4, "1.5 -> 2.5"),
    ]
    assert [m["line"] for m in draw_mutants(source, 0, 99, lines={4})] == [4, 4]
