"""The package's ledgers against a slow, literal oracle (``reference_run``).

Replay runs the same code as evolve, so a change that moves a value the
same way in both still replays, and the golden digests cover eight configs
of one corpus. This property draws the config and, half the time, a small
corpus whose titles, snippets and hosts repeat, and holds the package's
generations.jsonl and final_results.json byte-equal to the oracle's, with
as many queries sent.
"""

from functools import lru_cache
from pathlib import Path

from hypothesis import given, settings, strategies as st

from evoquery.corpus import DEFAULT_NORMALIZER, Document, SuffixNormalizer, load_corpus
from evoquery.config import RunConfig
from evoquery.evolution import run_evolution, write_run_ledger
from evoquery.ledger import FINAL_RESULTS_FILE, GENERATIONS_FILE
from evoquery.provider import OfflineProvider, build_index
from reference_run import reference_run

DATA_DIR = Path(__file__).resolve().parents[1] / "data"
# Each sums to 1 within RunConfig's tolerance; (1, 0, 0) ties every top hit.
WEIGHTS = [(0.33, 0.33, 0.34), (1.0, 0.0, 0.0), (0.0, 0.5, 0.5), (0.0, 0.0, 1.0),
           (0.2, 0.3, 0.5)]
WORDS = ["wear", "oil", "film", "friction", "gear", "metal", "bearing", "load"]
# A title and a body each drawn from few choices, so texts repeat under other urls.
TITLES = ["wear", "oil film", "gear wear", ""]
BODIES = st.lists(st.sampled_from(WORDS), min_size=1, max_size=8).map(" ".join)


@lru_cache(maxsize=None)
def bundled():
    """The bundled corpus and seed material, and the package's index of the corpus."""
    docs = load_corpus(DATA_DIR / "corpus.jsonl")
    return docs, load_corpus(DATA_DIR / "seed_material.jsonl"), build_index(docs)


@st.composite
def drawn_corpus(draw):
    """Up to 12 docs over three hosts, their titles and bodies drawn from few
    choices, with seed material that holds every word, and a few stop words."""
    bodies = draw(st.lists(BODIES, min_size=1, max_size=6))
    docs = []
    for i in range(draw(st.integers(1, 12))):
        host = f"h{draw(st.integers(0, 2))}.org"
        docs.append(Document(id=f"d{i:02d}", url=f"https://{host}/d{i:02d}", host=host,
                             title=draw(st.sampled_from(TITLES)),
                             body=draw(st.sampled_from(bodies))))
    seed = draw(st.permutations(WORDS).map(" ".join))
    stop_words = draw(st.sets(st.sampled_from(WORDS), max_size=2))
    seed_docs = [Document(id="s", url="https://s.org/s", host="s.org", title="", body=seed)]
    normalizer = SuffixNormalizer(frozenset(stop_words))
    return docs, seed_docs, build_index(docs, normalizer), normalizer


@st.composite
def configs(draw):
    f5, f6, f7 = draw(st.sampled_from(WEIGHTS))
    return RunConfig.from_payload({
        "g2": draw(st.integers(1, 12)), "g3": draw(st.integers(1, 4)),
        "e1": draw(st.integers(1, 4)), "variant": draw(st.sampled_from(["lemma", "quoted"])),
        "freeze_reference": draw(st.booleans()),
        "f4": draw(st.sampled_from([1.0, 0.75, 0.5, 0.1])), "f5": f5, "f6": f6, "f7": f7,
        "rng_seed": draw(st.integers(0, 2**32)),
        "provider": {"full_body_snippets": draw(st.booleans())},
    })


@settings(max_examples=120, deadline=None)
@given(config=configs(), corpus=st.none() | drawn_corpus())
def test_ledger_bytes_equal_the_oracle(config, corpus, tmp_path_factory):
    if corpus is None:
        docs, seed_docs, index = bundled()
        normalizer = DEFAULT_NORMALIZER
    else:
        docs, seed_docs, index, normalizer = corpus
    provider = OfflineProvider(index, full_body_snippets=config.provider.full_body_snippets)
    sends = []
    execute = provider.execute
    provider.execute = lambda query, limit: sends.append(query) or execute(query, limit)
    ledger = tmp_path_factory.mktemp("ledger") / "run"
    write_run_ledger(ledger, config, run_evolution(config, provider, seed_docs))

    lines, final, oracle_sends = reference_run(config, docs, seed_docs, normalizer)
    assert (ledger / GENERATIONS_FILE).read_text(encoding="utf-8") == lines
    assert (ledger / FINAL_RESULTS_FILE).read_text(encoding="utf-8") == final
    assert len(sends) == oracle_sends
