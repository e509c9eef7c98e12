"""Generational loop, selection, run ledger persistence and replay."""

import dataclasses
import hashlib
import json
import math
import re
import shutil
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from evoquery.corpus import (
    Document,
    SuffixNormalizer,
    TermVector,
    build_keyword_pool,
    load_corpus,
)
import evoquery.ledger
import evoquery.provider
from evoquery.config import COUNT_LIMITS, ProviderSpec, RunConfig
from evoquery.errors import (
    ConfigInvalid, DivergenceDetected, EvoqueryError, LedgerCorrupt, ParseError
)
from evoquery.evolution import (
    GenerationRecord,
    QueryOutcome,
    build_provider,
    final_results_text,
    make_run_inputs,
    replay,
    run_evolution,
    select_survivors,
    write_run_ledger,
)
from evoquery.fitness import (
    ReferenceText, ScoredResult, crossquery_scores, result_fitness, score_query_results
)
from evoquery.genome import QueryGenome, Variant, render_query
from evoquery.ledger import (
    CONFIG_FILE,
    FINAL_RESULTS_FILE,
    GENERATIONS_FILE,
    LineFragments,
    canonical_json,
    generation_line,
    parse_record_line,
    result_to_payload,
)
from evoquery.provider import HttpProvider, OfflineProvider, SearchHit, build_index, save_index
from evoquery.rng import derive_rng
from generate_data import dump_corpus
from reference_ledger import record_payload


def make_doc(doc_id, host, slug, title, body):
    return Document(
        id=doc_id, url=f"https://{host}/{slug}", host=host, title=title, body=body
    )


# Keyword-dense bodies: the default normalizer has no stop list, so prose
# articles would crowd the pool.
CORPUS = [
    make_doc("k01", "karst.example", "overview", "Karst plateau overview",
             "karst plateau limestone dolomite fissure conduit cave sinkhole karst limestone"),
    make_doc("k02", "karst.example", "caves", "Cave networks",
             "cave conduit fissure limestone karst cave gorge cave tracer"),
    make_doc("k03", "karst.example", "sinkholes", "Sinkhole formation",
             "sinkhole dolomite limestone collapse funnel sinkhole plateau"),
    make_doc("k04", "karst.example", "benches", "Dolomite benches",
             "dolomite bench limestone dolomite weathering plateau karst"),
    make_doc("h01", "hydrology.example", "recharge", "Aquifer recharge",
             "aquifer basin recharge tracer aquifer conduit limestone water table"),
    make_doc("h02", "hydrology.example", "tracers", "Tracer campaigns",
             "tracer dye aquifer conduit spring flow tracer basin"),
    make_doc("h03", "hydrology.example", "drainage", "Basin drainage",
             "basin gorge river drainage basin karst aquifer"),
    make_doc("h04", "hydrology.example", "springs", "Spring discharge",
             "spring discharge aquifer karst flow limestone spring"),
    make_doc("s01", "speleo.example", "gorges", "Gorge mapping",
             "gorge cave survey mapping fissure gorge plateau"),
    make_doc("s02", "speleo.example", "fissures", "Deep fissures",
             "fissure shaft dolomite fissure cave vertical"),
    make_doc("s03", "speleo.example", "plateau", "Plateau caves",
             "plateau cave karst limestone cave entrance plateau"),
    make_doc("s04", "speleo.example", "survey", "Survey methods",
             "survey compass mapping cave gorge fissure method"),
]
SEED_DOCS = CORPUS[:2]  # 10 distinct lemmas between them


@pytest.fixture(scope="module")
def run_inputs_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("run-inputs")
    index_path = root / "index.json"
    save_index(build_index(CORPUS), index_path)
    seed_path = root / "seed.jsonl"
    dump_corpus(SEED_DOCS, seed_path)
    return index_path, seed_path


@pytest.fixture(scope="module")
def provider(run_inputs_dir):
    index_path, _ = run_inputs_dir
    return build_provider(ProviderSpec(), index_path)


def small_config(**overrides):
    base = dict(
        g2=4, g3=3, e1=3, f1=8, f2=8, f3=10, keyword_pool_size=10, rng_seed=7
    )
    base.update(overrides)
    return RunConfig(**base)


class TestProviderSpec:
    def test_defaults(self):
        spec = ProviderSpec()
        assert spec.kind == "offline"
        assert spec.rate_limit_rps == 1.0
        assert not spec.full_body_snippets

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigInvalid):
            ProviderSpec(kind="carrier-pigeon")

    def test_http_needs_endpoint(self):
        with pytest.raises(ConfigInvalid, match="^provider kind http needs an endpoint$"):
            ProviderSpec(kind="http")

    @pytest.mark.parametrize(
        "endpoint", ["file:///etc/hostname", "ftp://x/y", "api.example/search", "//["]
    )
    def test_http_endpoint_needs_http_scheme_and_host(self, endpoint):
        with pytest.raises(ConfigInvalid, match="endpoint"):
            ProviderSpec(kind="http", endpoint=endpoint)
        with pytest.raises(ConfigInvalid, match="endpoint"):
            ProviderSpec.from_payload({"kind": "http", "endpoint": endpoint})

    def test_rate_limit_positive(self):
        with pytest.raises(ConfigInvalid):
            ProviderSpec(rate_limit_rps=0.0)

    def test_pool_must_outnumber_genome_terms_when_mutating(self):
        assert RunConfig(g3=4, e1=1, keyword_pool_size=4).min_pool_size == 4
        assert RunConfig(g3=4, e1=2, keyword_pool_size=5).min_pool_size == 5
        with pytest.raises(ConfigInvalid, match="^keyword_pool_size must be at least 5"):
            RunConfig(g3=4, e1=2, keyword_pool_size=4)
        with pytest.raises(ConfigInvalid, match="^keyword_pool_size must be at least 4"):
            RunConfig(g3=4, e1=1, keyword_pool_size=3)

    def test_payload_round_trip(self):
        spec = ProviderSpec(
            kind="http", endpoint="https://api.example/search",
            api_key_header="X-Key", rate_limit_rps=2.0,
        )
        assert ProviderSpec.from_payload(dataclasses.asdict(spec)) == spec

    def test_unknown_payload_key_rejected(self):
        with pytest.raises(ConfigInvalid):
            ProviderSpec.from_payload({"kind": "offline", "retries": 5})

    def test_payload_type_checks(self):
        with pytest.raises(ConfigInvalid):
            ProviderSpec.from_payload({"kind": "http", "endpoint": 5})
        with pytest.raises(ConfigInvalid):
            ProviderSpec.from_payload({"full_body_snippets": "yes"})
        with pytest.raises(ConfigInvalid):
            ProviderSpec.from_payload({"rate_limit_rps": "fast"})


class TestRunConfig:
    def test_reference_defaults(self):
        config = RunConfig()
        assert (config.g2, config.g3) == (8, 6)
        assert (config.f1, config.f2, config.f3) == (20, 20, 20)
        assert config.f4 == 0.75
        assert (config.f5, config.f6, config.f7) == (0.33, 0.33, 0.34)
        assert config.m1 == 1.0
        assert config.e1 == 10
        assert config.a_factor == 1.0
        assert config.variant is Variant.LEMMA
        assert config.keyword_pool_size == 50
        assert not config.freeze_reference

    def test_component_weights_must_sum_to_one(self):
        with pytest.raises(ConfigInvalid):
            RunConfig(f5=0.5, f6=0.5, f7=0.2)

    def test_range_validation(self):
        with pytest.raises(ConfigInvalid):
            RunConfig(g2=0)
        with pytest.raises(ConfigInvalid):
            RunConfig(m1=1.5)
        with pytest.raises(ConfigInvalid):
            RunConfig(a_factor=-0.1)
        with pytest.raises(ConfigInvalid):
            RunConfig(f4=0.0)

    def test_relevance_threshold_is_an_unknown_key(self):
        # evaluate --threshold is the one relevance threshold
        with pytest.raises(ConfigInvalid, match=r"unknown config keys: \['relevance_threshold'\]"):
            RunConfig.from_payload({"relevance_threshold": 2})

    @pytest.mark.parametrize("name", sorted(COUNT_LIMITS))
    def test_counts_bounded_above(self, name):
        limit = COUNT_LIMITS[name]
        # a pool large enough for g3 at its bound
        roomy = {"keyword_pool_size": COUNT_LIMITS["keyword_pool_size"]}
        assert getattr(RunConfig.from_payload({**roomy, name: limit}), name) == limit
        for value in (0, limit + 1):
            with pytest.raises(ConfigInvalid, match=f"^{name} must be in 1..{limit}"):
                RunConfig.from_payload({name: value})

    def test_absurd_counts_rejected(self):
        with pytest.raises(ConfigInvalid, match="g2"):
            RunConfig.from_payload({"g2": 10**400, "e1": 10**12})
        with pytest.raises(ConfigInvalid, match="^e1 must be in 1..1000, got a 16610-bit integer"):
            RunConfig.from_payload({"e1": 10**5000})

    def test_f2_limit_is_ten_thousand(self):
        assert RunConfig(f2=10_000).f2 == 10_000
        with pytest.raises(ConfigInvalid, match="^f2 must be in 1..10000, got 10001$"):
            RunConfig(f2=10_001)

    def test_count_over_64_bits_is_shown_by_its_size(self):
        with pytest.raises(ConfigInvalid, match="^e1 must be in 1..1000, got 18446744073709551615$"):
            RunConfig(e1=2**64 - 1)
        with pytest.raises(ConfigInvalid, match="^e1 must be in 1..1000, got a 65-bit integer$"):
            RunConfig(e1=2**64)

    def test_payload_round_trip(self):
        config = small_config(variant=Variant.QUOTED, freeze_reference=True)
        assert RunConfig.from_payload(config.to_payload()) == config

    def test_empty_payload_gives_defaults(self):
        assert RunConfig.from_payload({}) == RunConfig()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigInvalid):
            RunConfig.from_payload({"g9": 3})

    def test_wrong_types_rejected(self):
        with pytest.raises(ConfigInvalid):
            RunConfig.from_payload({"g2": "8"})
        with pytest.raises(ConfigInvalid):
            RunConfig.from_payload({"g2": True})
        with pytest.raises(ConfigInvalid):
            RunConfig.from_payload({"m1": "sometimes"})
        with pytest.raises(ConfigInvalid):
            RunConfig.from_payload({"variant": "shouted"})
        with pytest.raises(ConfigInvalid):
            RunConfig.from_payload({"freeze_reference": 1})
        with pytest.raises(ConfigInvalid):
            RunConfig.from_payload({"stop_words_path": 3})
        with pytest.raises(ConfigInvalid):
            RunConfig.from_payload(["g2"])

    def test_integer_accepted_for_float_field(self):
        config = RunConfig.from_payload({"m1": 1, "a_factor": 1})
        assert config.m1 == 1.0 and config.a_factor == 1.0

    def test_integer_float_field_built_in_code_written_as_float(self):
        """So that replay, which reads 1 as 1.0, renders the config.json evolve wrote."""
        text = canonical_json(RunConfig(f4=1, m1=0, provider=ProviderSpec(rate_limit_rps=2))
                              .to_payload())
        assert '"f4":1.0' in text and '"m1":0.0' in text and '"rate_limit_rps":2.0' in text

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["f4", "f5", "f6", "f7", "m1", "a_factor"])
    def test_non_finite_float_rejected_naming_field(self, name, value):
        with pytest.raises(ConfigInvalid, match=f"^{name} must be finite"):
            RunConfig.from_payload({name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_rate_limit_rejected(self, value):
        with pytest.raises(ConfigInvalid, match="^rate_limit_rps must be finite"):
            RunConfig.from_payload({"provider": {"rate_limit_rps": value}})

    def test_integer_beyond_float_range_rejected_naming_field(self):
        with pytest.raises(ConfigInvalid, match="^f5 must be finite"):
            RunConfig.from_payload({"f5": 10**400})
        with pytest.raises(ConfigInvalid, match="^rate_limit_rps must be finite"):
            RunConfig.from_payload({"provider": {"rate_limit_rps": 10**400}})

    def test_fitness_weights_mapping(self):
        """Scoring reads f5/f6/f7 as the rank/crossquery/semantic weights, a_factor
        as the environment factor and f4 as the same-host damping."""
        config = small_config(f4=0.5, f5=0.5, f6=0.3, f7=0.2, a_factor=0.5)
        assert result_fitness(1, 0, 0, config) == pytest.approx(0.25)
        assert result_fitness(0, 1, 0, config) == pytest.approx(0.15)
        assert result_fitness(0, 0, 1, config) == pytest.approx(0.1)
        hits = [SearchHit(f"https://h.example/{i}", "h.example", "", "") for i in (1, 2)]
        ref = ReferenceText(vector=TermVector.from_weights({}))
        scored = score_query_results(hits, crossquery_scores([hits]), ref, config)
        # rank 1 and 1/2, crossquery 1, semantic 0; the second hit is damped once
        assert [r.fitness for r in scored] == pytest.approx([0.5 * 0.8, 0.5 * 0.55 * 0.5])


class TestHitRows:
    """A wide run over the bundled corpus makes each document's hit once, and
    renders each hit's text once: a regression to a hit per result fails a
    count here, not only a timing."""

    def test_one_hit_per_document_and_one_text_per_hit(self, tmp_path, monkeypatch):
        data = Path(__file__).resolve().parents[1] / "data"
        index = build_index(load_corpus(data / "corpus.jsonl"))
        made, escaped = [], Counter()
        escape = evoquery.ledger._escape
        monkeypatch.setattr(evoquery.provider, "SearchHit",
                            lambda *fields: made.append(SearchHit(*fields)) or made[-1])
        monkeypatch.setattr(evoquery.ledger, "_escape",
                            lambda text: escaped.update([text]) or escape(text))
        config = RunConfig(g2=32, e1=20)
        records = []
        write_run_ledger(tmp_path / "ledger", config, (
            records.append(record) or record
            for record in run_evolution(config, OfflineProvider(index), load_corpus(
                data / "seed_material.jsonl"))
        ))
        used = {id(hit): hit for record in records for query in record.queries
                for hit in [*query.hits, *(r.hit for r in query.results)]}
        assert len(made) <= index.doc_count
        assert len(used) == len({hit.doc_url for hit in used.values()}) == 144
        assert used.keys() <= {id(hit) for hit in made}
        # each field of each hit is escaped once, when its hit is first rendered
        fields = Counter(text for hit in used.values() for text in hit)
        assert {text: escaped[text] for text in fields} == fields


# Any JSON value, including integers beyond float range and non-finite floats.
ANY_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)


def mostly(common, rare):
    """Draws from ``common`` seven times in eight, else from ``rare``."""
    return st.sampled_from([common] * 7 + [rare]).flatmap(lambda strategy: strategy)


def field_values(typed):
    """Mostly values of the field's own type, sometimes any JSON value."""
    return mostly(typed, ANY_JSON)


def payloads(fields):
    """Up to six of ``fields``; an occasional payload adds an unknown key."""
    keys = st.lists(st.sampled_from(sorted(fields)), max_size=6, unique=True)
    known = keys.flatmap(lambda names: st.fixed_dictionaries({n: fields[n] for n in names}))
    with_unknown = st.builds(lambda payload, value: {**payload, "retries": value}, known, ANY_JSON)
    return mostly(known, with_unknown)


PROVIDER_FIELDS = {
    "kind": field_values(st.sampled_from(["offline", "http"])),
    "endpoint": field_values(st.none() | st.text(max_size=6)),
    "api_key_header": field_values(st.none() | st.text(max_size=6)),
    "rate_limit_rps": field_values(st.floats(0.0, 5.0) | st.integers(0, 5)),
    "full_body_snippets": field_values(st.booleans()),
}
COUNTS = st.integers(0, 30)
UNIT_FLOATS = st.floats(0.0, 1.0) | st.integers(0, 1) | st.sampled_from([math.nan, math.inf])
CONFIG_FIELDS = {
    **{name: field_values(COUNTS) for name in ("g2", "g3", "f1", "f2", "f3", "e1")},
    **{name: field_values(UNIT_FLOATS) for name in ("f4", "f5", "f6", "f7", "m1", "a_factor")},
    "keyword_pool_size": field_values(COUNTS),
    "rng_seed": field_values(st.integers()),
    "variant": field_values(st.sampled_from(["lemma", "quoted"])),
    "freeze_reference": field_values(st.booleans()),
    "stop_words_path": field_values(st.none() | st.text(max_size=6)),
    "provider": field_values(payloads(PROVIDER_FIELDS)),
}


def names_a_set_key(message, payload):
    """Whether ``message`` names a key that ``payload``, or its provider object, sets."""
    keys = set(payload)
    if isinstance(payload.get("provider"), dict):
        keys |= set(payload["provider"])
    return any(re.search(rf"(?<!\w){re.escape(key)}(?!\w)", message) for key in keys)


class TestPayloadBoundary:
    """A payload is rejected with ConfigInvalid naming a key it sets, or survives
    a round trip."""

    @staticmethod
    def check(cls, payload):
        try:
            parsed = cls.from_payload(payload)
        except ConfigInvalid as exc:
            assert names_a_set_key(str(exc), payload), f"{exc} names no key of {payload!r}"
            return
        payload = dataclasses.asdict(parsed)  # RunConfig.to_payload
        again = cls.from_payload(payload)
        assert again == parsed
        assert canonical_json(dataclasses.asdict(again)) == canonical_json(payload)

    @settings(max_examples=300, deadline=None)
    @given(payloads(CONFIG_FIELDS))
    @example({"f4": 1.5})
    @example({"f5": -0.1, "f6": 0.77})
    @example({"f5": -0.1, "f6": 0.76})
    @example({"g3": 30, "e1": 2, "keyword_pool_size": 30})
    @example({"provider": {"kind": "http"}})
    @example({"provider": {"rate_limit_rps": 0}})
    def test_run_config(self, payload):
        self.check(RunConfig, payload)

    @settings(max_examples=300, deadline=None)
    @given(payloads(PROVIDER_FIELDS))
    @example({"kind": "http"})
    @example({"kind": "http", "endpoint": "ftp://x/y"})
    def test_provider_spec(self, payload):
        self.check(ProviderSpec, payload)


SMALL_RUN_FIELDS = {
    "g2": st.integers(1, 4),
    "g3": st.integers(1, 4),
    "e1": st.integers(1, 3),
    **{name: st.integers(1, 5) for name in ("f1", "f2", "f3")},
    "f4": st.floats(0.01, 1.0),
    "m1": st.floats(0.0, 1.0),
    "a_factor": st.floats(0.0, 1.0),
    "keyword_pool_size": st.integers(1, 12),
    "rng_seed": st.integers(0, 2**64),
    "variant": st.sampled_from(["lemma", "quoted"]),
    "freeze_reference": st.booleans(),
    "provider": st.fixed_dictionaries({}, optional={"full_body_snippets": st.booleans()}),
}
# (f5, f6, f7): each sums to 1 within the tolerance RunConfig allows
WEIGHTS = st.sampled_from([(0.33, 0.33, 0.34), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.2, 0.7, 0.1)])


@pytest.fixture(scope="module")
def bundled_inputs(tmp_path_factory):
    data = Path(__file__).resolve().parents[1] / "data"
    index_path = tmp_path_factory.mktemp("bundled") / "index.json"
    save_index(build_index(load_corpus(data / "corpus.jsonl")), index_path)
    return index_path, data / "seed_material.jsonl"


class TestAcceptedConfigsReplay:
    """Every payload RunConfig accepts runs to a ledger that replay verifies."""

    @settings(max_examples=30, deadline=None)
    @given(st.fixed_dictionaries({}, optional=SMALL_RUN_FIELDS), WEIGHTS, st.booleans())
    def test_small_runs_replay(self, bundled_inputs, payload, weights, with_weights):
        if with_weights:
            payload = {**payload, **dict(zip(("f5", "f6", "f7"), weights))}
        try:
            config = RunConfig.from_payload(payload)
        except ConfigInvalid:
            reject()
        index_path, seed_path = bundled_inputs
        with tempfile.TemporaryDirectory() as ledger_dir:
            records = run_evolution(
                config, build_provider(config.provider, index_path), load_corpus(seed_path)
            )
            inputs = make_run_inputs(ledger_dir, index_path, seed_path)
            write_run_ledger(ledger_dir, config, records, inputs)
            last = replay(ledger_dir)
        assert last.generation == config.e1 - 1


@pytest.fixture(scope="module")
def small_ledger(bundled_inputs, tmp_path_factory):
    """The ledger of one small offline run (g2=4, e1=2) over the bundled corpus."""
    index_path, seed_path = bundled_inputs
    ledger_dir = tmp_path_factory.mktemp("small-ledger")
    config = RunConfig(g2=4, e1=2)
    records = run_evolution(
        config, build_provider(config.provider, index_path), load_corpus(seed_path)
    )
    write_run_ledger(
        ledger_dir, config, records, make_run_inputs(ledger_dir, index_path, seed_path)
    )
    return ledger_dir


def test_replay_holds_less_than_the_ledger(bundled_inputs, tmp_path):
    """Replay reads generations.jsonl a line at a time and keeps no rerun
    record past its line: its peak allocation stays below the file's size."""
    index_path, seed_path = bundled_inputs
    config = RunConfig(g2=32, e1=20)
    ledger_dir = tmp_path / "ledger"
    records = run_evolution(
        config, build_provider(config.provider, index_path), load_corpus(seed_path)
    )
    write_run_ledger(
        ledger_dir, config, records, make_run_inputs(ledger_dir, index_path, seed_path)
    )
    tracemalloc.start()
    try:
        replay(ledger_dir)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (ledger_dir / GENERATIONS_FILE).stat().st_size


def _replay_mutated(ledger_dir, name, mutated):
    """Replay with ``name`` holding ``mutated``: None if it verified, else the
    exception raised. The file is restored afterwards."""
    path = ledger_dir / name
    original = path.read_bytes()
    path.write_bytes(mutated)
    try:
        replay(ledger_dir)
    except Exception as exc:
        return exc
    finally:
        path.write_bytes(original)
    return None


class TestCorruptLedgerReplay:
    """A ledger file with one byte replaced, cut short or 1-4 bytes inserted
    fails replay with an EvoqueryError, or still replays; nothing else escapes.
    Any change to the bytes of generations.jsonl or final_results.json fails
    it with DivergenceDetected or LedgerCorrupt."""

    @settings(max_examples=100, deadline=None)
    @given(
        name=st.sampled_from([CONFIG_FILE, GENERATIONS_FILE, FINAL_RESULTS_FILE]),
        how=st.sampled_from(["replace", "truncate", "insert"]),
        back=st.integers(min_value=0),
        new=st.binary(min_size=1, max_size=4),
    )
    @example(name=GENERATIONS_FILE, how="insert", back=0, new=b"\n")
    @example(name=FINAL_RESULTS_FILE, how="insert", back=0, new=b" ")
    def test_replay_raises_only_evoquery_errors(self, small_ledger, name, how, back, new):
        original = (small_ledger / name).read_bytes()
        # ``back`` counts bytes from the end, wrapping around; an insertion
        # may also go after the last byte
        room = len(original) + (how == "insert")
        at = len(original) - (how != "insert") - back % room
        if how == "replace":
            mutated = original[:at] + new[:1] + original[at + 1:]
        elif how == "truncate":
            mutated = original[:at]
        else:
            mutated = original[:at] + new + original[at:]
        error = _replay_mutated(small_ledger, name, mutated)
        assert error is None or isinstance(error, EvoqueryError)
        if name != CONFIG_FILE and mutated != original:
            assert isinstance(error, (DivergenceDetected, LedgerCorrupt))

    @pytest.mark.parametrize(
        "name, edit, field",
        [
            (GENERATIONS_FILE, lambda data: data + b"\n", "record_count"),
            (GENERATIONS_FILE, lambda data: data.replace(b"\n", b"\r\n", 1), "<bytes at column "),
            (GENERATIONS_FILE, lambda data: data.replace(b",", b", ", 1), "<bytes at column "),
            (GENERATIONS_FILE, lambda data: data[:-1], "<bytes at column "),
            (FINAL_RESULTS_FILE, lambda data: data + b" ", "<bytes at column "),
            (FINAL_RESULTS_FILE, lambda data: data + b"\n", "<bytes at column "),
            (FINAL_RESULTS_FILE, lambda data: data[:-1], "<bytes at column "),
        ],
        ids=["appended-newline", "crlf", "space-after-comma", "no-final-newline",
             "final-appended-space", "final-appended-newline", "final-no-newline"],
    )
    def test_whitespace_change_diverges_at_bytes(self, small_ledger, name, edit, field):
        original = (small_ledger / name).read_bytes()
        error = _replay_mutated(small_ledger, name, edit(original))
        assert isinstance(error, DivergenceDetected)
        assert error.field.startswith(field)

    @pytest.mark.parametrize("name, line_no", [(GENERATIONS_FILE, 2), (FINAL_RESULTS_FILE, 1)])
    def test_bytes_divergence_names_its_column_and_clips_both_sides(
        self, small_ledger, name, line_no
    ):
        lines = (small_ledger / name).read_bytes().split(b"\n")
        line = lines[line_no - 1]
        at = line.index(b",", len(line) // 2) + 1  # a space after a comma mid-line
        lines[line_no - 1] = line[:at] + b" " + line[at:]
        error = _replay_mutated(small_ledger, name, b"\n".join(lines))
        assert isinstance(error, DivergenceDetected)
        assert error.generation == (line_no - 1 if name == GENERATIONS_FILE else 2)
        assert error.field == f"<bytes at column {at + 1}>"
        assert error.stored[40:] == " " + line[at:at + 39].decode()
        assert error.fresh == line[at - 40:at + 40].decode()
        assert len(str(error)) < 250


class TestRunEvolution:
    def test_generation_count_and_shape(self, provider):
        config = small_config()
        records = list(run_evolution(config, provider, SEED_DOCS))
        assert len(records) == config.e1
        for number, record in enumerate(records):
            assert record.generation == number
            assert len(record.queries) == config.g2
            for outcome in record.queries:
                assert len(outcome.terms) == config.g3
                assert outcome.issued_at is None
                assert len(outcome.results) <= config.f1
        assert 0 < len(records[-1].top_results) <= config.f3

    def test_seed_material_normalized_once(self, monkeypatch):
        class FirstQuery(Exception):
            pass

        class StopAtFirstQuery:
            def execute(self, query_string, limit):
                raise FirstQuery

        seed = load_corpus(Path(__file__).resolve().parents[1] / "data" / "seed_material.jsonl")
        normalize = SuffixNormalizer.normalize
        calls = []
        monkeypatch.setattr(
            SuffixNormalizer, "normalize", lambda self, text: calls.append(text) or normalize(self, text)
        )
        with pytest.raises(FirstQuery):
            next(run_evolution(RunConfig(), StopAtFirstQuery(), seed))
        # keyword pool and reference text share one pass over the seed docs
        assert calls == [doc.body for doc in seed]

    # With a pool of g3 keywords every genome holds them all: SEED_DOCS' top three,
    # cave, karst and limestone, unless cave and limestone are stop words.
    POOL_CONFIG = dict(g3=3, e1=1, keyword_pool_size=3)

    @staticmethod
    def sent_terms(config, provider):
        (record,) = run_evolution(config, provider, SEED_DOCS)
        return {term for query in record.queries for term in query.terms}

    def test_offline_run_drops_its_index_stop_words(self):
        stopped = build_index(CORPUS, SuffixNormalizer(frozenset({"cave", "limestone"})))
        config = small_config(**self.POOL_CONFIG)
        assert self.sent_terms(config, OfflineProvider(build_index(CORPUS))) == {
            "cave", "karst", "limestone"
        }
        assert self.sent_terms(config, OfflineProvider(stopped)) == {"karst", "conduit", "fissure"}

    def test_other_provider_drops_the_config_stop_words(self, tmp_path):
        class NoHits:
            def execute(self, query_string, limit):
                return []

        stops = tmp_path / "stops.txt"
        stops.write_text("cave\nlimestone\n", encoding="utf-8")
        config = small_config(**self.POOL_CONFIG)
        assert self.sent_terms(config, NoHits()) == {"cave", "karst", "limestone"}
        config = small_config(**self.POOL_CONFIG, stop_words_path=str(stops))
        assert self.sent_terms(config, NoHits()) == {"karst", "conduit", "fissure"}

    def test_too_few_seed_keywords_rejected_before_any_query(self):
        class NoQueries:
            def execute(self, query_string, limit):
                raise AssertionError("no query may be sent")

        # SEED_DOCS hold 10 distinct lemmas; mutation needs an 11th beside 10 terms
        with pytest.raises(ConfigInvalid, match="yields 10 keywords, the run needs 11$"):
            run_evolution(small_config(g3=10, e1=2, keyword_pool_size=50), NoQueries(), SEED_DOCS)

    def test_single_generation_boundary(self, provider):
        assert len(list(run_evolution(small_config(e1=1), provider, SEED_DOCS))) == 1

    def test_population_fitness_is_query_mean(self, provider):
        for record in run_evolution(small_config(), provider, SEED_DOCS):
            mean = sum(q.query_fitness for q in record.queries) / len(record.queries)
            assert record.population_fitness == pytest.approx(mean, abs=1e-12)

    def test_deterministic_ledgers(self, provider, tmp_path):
        config = small_config()
        for name in ("a", "b"):
            write_run_ledger(tmp_path / name, config, run_evolution(config, provider, SEED_DOCS))
        for filename in ("config.json", GENERATIONS_FILE, "final_results.json"):
            assert (tmp_path / "a" / filename).read_bytes() == (
                tmp_path / "b" / filename
            ).read_bytes()

    def test_seed_changes_outcome(self, provider):
        first = run_evolution(small_config(rng_seed=7), provider, SEED_DOCS)
        second = run_evolution(small_config(rng_seed=8), provider, SEED_DOCS)
        first_lines = [generation_line(r) for r in first]
        second_lines = [generation_line(r) for r in second]
        assert first_lines != second_lines

    def test_frozen_reference_keeps_digest(self, provider):
        records = run_evolution(small_config(freeze_reference=True), provider, SEED_DOCS)
        digests = {record.reference_digest for record in records}
        assert len(digests) == 1

    def test_adaptive_reference_moves(self, provider):
        records = run_evolution(small_config(), provider, SEED_DOCS)
        digests = [record.reference_digest for record in records]
        assert digests[0] != digests[1]

    def test_best_fitness_monotone_when_frozen(self, provider):
        config = small_config(e1=6, freeze_reference=True)
        records = run_evolution(config, provider, SEED_DOCS)
        best = [max(q.query_fitness for q in r.queries) for r in records]
        assert all(later >= earlier for earlier, later in zip(best, best[1:]))

    def test_hill_climb_population_of_one(self, provider):
        config = small_config(g2=1, e1=5, freeze_reference=True)
        records = list(run_evolution(config, provider, SEED_DOCS))
        fitness = [r.queries[0].query_fitness for r in records]
        assert all(len(r.queries) == 1 for r in records)
        assert all(later >= earlier for earlier, later in zip(fitness, fitness[1:]))

    def test_quoted_variant_runs(self, provider):
        config = small_config(variant=Variant.QUOTED, e1=2)
        for record in run_evolution(config, provider, SEED_DOCS):
            for outcome in record.queries:
                assert outcome.query_string.count('"') == config.g3 * 2

    def test_empty_seed_material_rejected(self, provider, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: holds no document$"):
            run_evolution(small_config(), provider, load_corpus(path))

    def test_result_payload_round_trip(self, provider):
        (record,) = run_evolution(small_config(e1=1), provider, SEED_DOCS)
        for result in record.top_results:
            payload = result_to_payload(result, 1.0)
            assert json.loads(canonical_json(payload)) == payload

    @settings(max_examples=10, deadline=None)
    @given(
        g2=st.integers(min_value=1, max_value=5),
        g3=st.integers(min_value=2, max_value=4),
        e1=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_population_size_invariant(self, provider, g2, g3, e1, seed):
        config = small_config(g2=g2, g3=g3, e1=e1, rng_seed=seed)
        records = run_evolution(config, provider, SEED_DOCS)
        assert all(len(r.queries) == g2 for r in records)


def pool_of(*lemmas):
    weight = 1.0 / len(lemmas)
    return [(lemma, weight) for lemma in lemmas]


SELECTION_POOL = pool_of(
    "alpha", "bravo", "delta", "echo", "foxtrot", "golf", "hotel", "india"
)


def lemma_genome(*terms):
    return QueryGenome(terms=terms, variant=Variant.LEMMA)


class TestSelectSurvivors:
    def test_elites_survive_unchanged(self):
        genomes = [
            lemma_genome("alpha", "bravo"),
            lemma_genome("delta", "echo"),
            lemma_genome("golf", "hotel"),
            lemma_genome("india", "alpha"),
        ]
        fitnesses = [0.9, 0.1, 0.5, 0.7]
        result = select_survivors(
            genomes, fitnesses, SELECTION_POOL, small_config(g2=4, g3=2),
            derive_rng(0, "test-selection"),
        )
        assert len(result) == 4
        assert result[0] == genomes[0]
        assert result[1] == genomes[3]

    def test_equal_fitness_ties_break_by_rendering(self):
        genomes = [
            lemma_genome("zulu", "alpha"),
            lemma_genome("alpha", "bravo"),
            lemma_genome("mike", "alpha"),
            lemma_genome("bravo", "delta"),
        ]
        result = select_survivors(
            genomes, [0.5] * 4, SELECTION_POOL, small_config(g2=4, g3=2),
            derive_rng(1, "test-selection"),
        )
        assert result[0] == genomes[1]  # "alpha bravo"
        assert result[1] == genomes[3]  # "bravo delta"

    def test_offspring_are_well_formed(self):
        genomes = [
            lemma_genome("alpha", "bravo", "delta"),
            lemma_genome("echo", "foxtrot", "golf"),
            lemma_genome("hotel", "india", "alpha"),
            lemma_genome("bravo", "echo", "hotel"),
        ]
        result = select_survivors(
            genomes, [0.4, 0.3, 0.2, 0.1], SELECTION_POOL,
            small_config(g2=4, g3=3), derive_rng(2, "test-selection"),
        )
        for genome in result:
            assert len(genome.terms) == 3
            assert len(set(genome.terms)) == 3
            assert genome.variant is Variant.LEMMA

    def test_odd_population_rounds_elites_up(self):
        genomes = [
            lemma_genome("alpha", "bravo"),
            lemma_genome("delta", "echo"),
            lemma_genome("golf", "hotel"),
        ]
        result = select_survivors(
            genomes, [0.1, 0.9, 0.5], SELECTION_POOL, small_config(g2=3, g3=2),
            derive_rng(3, "test-selection"),
        )
        assert result[0] == genomes[1]
        assert result[1] == genomes[2]
        assert len(result) == 3

    # A population of one hill-climbs in run_evolution's loop, which sends the
    # challenger; these runs answer a chosen set of its sends with HILL_HITS.
    HILL_HITS = [SearchHit(f"https://karst.example/{i}", "karst.example", "karst cave",
                           "limestone conduit") for i in range(3)]

    class AnswersCalls:
        """A provider that answers its calls numbered in ``answered`` with
        ``hits``, and every other call with nothing; it records each query."""

        def __init__(self, answered, hits):
            self.answered, self.hits, self.sent = answered, hits, []

        def execute(self, query_string, limit):
            self.sent.append(query_string)
            return self.hits if len(self.sent) - 1 in self.answered else []

    def hill_climb(self, answered, **overrides):
        """The queries a two-generation g2 = 1 run sends (incumbent, challenger,
        then generation 1's genome unless a frozen run reuses its outcome) and
        its records; m1 = 1 always mutates."""
        provider = self.AnswersCalls(answered, self.HILL_HITS)
        config = small_config(g2=1, g3=2, e1=2, m1=1.0, **overrides)
        records = list(run_evolution(config, provider, SEED_DOCS))
        assert provider.sent[1] != provider.sent[0]
        return provider.sent, records

    def test_single_genome_keeps_incumbent_on_worse_challenger(self):
        sent, records = self.hill_climb({0})
        assert records[0].queries[0].query_fitness > 0.0
        assert len(sent) == 3
        assert sent[2] == sent[0] == records[1].queries[0].query_string

    def test_single_genome_adopts_better_challenger(self):
        sent, records = self.hill_climb({1, 2})
        assert records[0].queries[0].query_fitness == 0.0
        assert len(sent) == 3
        assert sent[2] == sent[1] == records[1].queries[0].query_string
        assert records[1].queries[0].query_fitness > 0.0

    def test_single_genome_keeps_incumbent_on_equal_challenger(self):
        # a frozen reference scores the same hits the same for either query
        sent, records = self.hill_climb({0, 1}, freeze_reference=True)
        assert records[1].queries[0].query_fitness == records[0].queries[0].query_fitness > 0.0
        assert len(sent) == 2  # generation 1 reuses the incumbent's first outcome
        assert records[1].queries[0].query_string == sent[0]


class TestBuildProvider:
    def test_offline_from_index_file(self, run_inputs_dir):
        index_path, _ = run_inputs_dir
        provider = build_provider(
            ProviderSpec(full_body_snippets=True), index_path
        )
        assert isinstance(provider, OfflineProvider)
        assert provider.full_body_snippets

    def test_http_reads_key_from_environment(self, monkeypatch):
        monkeypatch.setenv("EVOQUERY_API_KEY", "sekret")
        spec = ProviderSpec(
            kind="http", endpoint="https://api.example/search", api_key_header="X-Key"
        )
        provider = build_provider(spec)
        assert isinstance(provider, HttpProvider)
        assert provider.api_key == "sekret"
        assert provider.api_key_header == "X-Key"


class TestLedgerWriteAndReplay:
    def _run_and_write(self, tmp_path, provider, run_inputs_dir, **overrides):
        index_path, seed_path = run_inputs_dir
        ledger_dir = tmp_path / "ledger"
        inputs = make_run_inputs(ledger_dir, index_path, seed_path)
        config = small_config(**overrides)
        records = run_evolution(config, provider, SEED_DOCS)
        return ledger_dir, write_run_ledger(ledger_dir, config, records, inputs)

    def test_inputs_fingerprints(self, run_inputs_dir):
        index_path, seed_path = run_inputs_dir
        inputs = make_run_inputs(index_path.parent / "ledger", index_path, seed_path)
        assert inputs["index_path"] == "../index.json"
        assert inputs["seed_material_path"] == "../seed.jsonl"
        assert inputs["index_sha256"] == hashlib.sha256(index_path.read_bytes()).hexdigest()
        assert inputs["seed_material_sha256"] == hashlib.sha256(
            seed_path.read_bytes()
        ).hexdigest()

    def test_untouched_ledger_replays_clean(self, tmp_path, provider, run_inputs_dir):
        ledger_dir, original = self._run_and_write(tmp_path, provider, run_inputs_dir)
        last = replay(ledger_dir)
        assert last.generation == original.generation
        assert [r.fitness for r in last.top_results] == [
            r.fitness for r in original.top_results
        ]

    def test_edited_value_reports_generation_and_field(
        self, tmp_path, provider, run_inputs_dir
    ):
        ledger_dir, _ = self._run_and_write(tmp_path, provider, run_inputs_dir)
        path = ledger_dir / GENERATIONS_FILE
        lines = path.read_text().splitlines()
        payload = parse_record_line(lines[1], 2, GENERATIONS_FILE)
        payload["population_fitness"] = payload["population_fitness"] + 0.125
        lines[1] = canonical_json(payload)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DivergenceDetected) as exc_info:
            replay(ledger_dir)
        assert exc_info.value.generation == 1
        assert exc_info.value.field == "population_fitness"

    def test_divergence_shows_stored_and_fresh_values(
        self, tmp_path, provider, run_inputs_dir
    ):
        ledger_dir, original = self._run_and_write(tmp_path, provider, run_inputs_dir)
        path = ledger_dir / GENERATIONS_FILE
        lines = path.read_text().splitlines()
        payload = parse_record_line(lines[2], 3, GENERATIONS_FILE)
        result = payload["queries"][1]["results"][0]
        fresh = result["semantic"]
        stored = fresh + 2.0**-40
        result["semantic"] = stored
        lines[2] = canonical_json(payload)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DivergenceDetected) as exc_info:
            replay(ledger_dir)
        error = exc_info.value
        assert (error.generation, error.field) == (2, "queries[1].results[0].semantic")
        assert (error.stored, error.fresh) == (stored, fresh)
        assert repr(stored) in str(error) and repr(fresh) in str(error)

    def test_final_results_divergence_names_field(self, tmp_path, provider, run_inputs_dir):
        ledger_dir, original = self._run_and_write(tmp_path, provider, run_inputs_dir)
        path = ledger_dir / "final_results.json"
        final = json.loads(path.read_text())
        final[0]["url"] = "https://tampered.example/x"
        path.write_text(canonical_json(final) + "\n")
        with pytest.raises(DivergenceDetected) as exc_info:
            replay(ledger_dir)
        error = exc_info.value
        assert error.field == "final_results[0].url"
        assert error.stored == "https://tampered.example/x"
        assert error.fresh == original.top_results[0].hit.doc_url

    def test_truncated_ledger_reports_count(self, tmp_path, provider, run_inputs_dir):
        ledger_dir, _ = self._run_and_write(tmp_path, provider, run_inputs_dir)
        path = ledger_dir / GENERATIONS_FILE
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DivergenceDetected) as exc_info:
            replay(ledger_dir)
        assert exc_info.value.field == "record_count"

    def test_replay_stops_at_the_first_divergent_generation(
        self, tmp_path, provider, run_inputs_dir, monkeypatch
    ):
        ledger_dir, _ = self._run_and_write(tmp_path, provider, run_inputs_dir, e1=4)
        path = ledger_dir / GENERATIONS_FILE
        lines = path.read_text().splitlines(keepends=True)
        payload = parse_record_line(lines[0], 1, GENERATIONS_FILE)
        payload["population_fitness"] = payload["population_fitness"] + 0.125
        lines[0] = canonical_json(payload) + "\n"
        path.write_text("".join(lines))
        sent = []
        execute = OfflineProvider.execute

        def counted(self, *args):
            sent.append(args)
            return execute(self, *args)

        monkeypatch.setattr(OfflineProvider, "execute", counted)
        with pytest.raises(DivergenceDetected) as exc_info:
            replay(ledger_dir)
        assert (exc_info.value.generation, exc_info.value.field) == (0, "population_fitness")
        # generation 0's queries only: no survivor selected, no later generation sent
        assert len(sent) == small_config().g2

    def test_half_written_ledger_refused_before_any_query(
        self, tmp_path, provider, run_inputs_dir, monkeypatch
    ):
        # what an evolve killed after two generations leaves beside its --out
        ledger_dir, _ = self._run_and_write(tmp_path, provider, run_inputs_dir)
        staging = tmp_path / ".ledger.3f9a0c1e72d4.tmp"
        staging.mkdir()
        shutil.copy(ledger_dir / CONFIG_FILE, staging / CONFIG_FILE)
        lines = (ledger_dir / GENERATIONS_FILE).read_text().splitlines(keepends=True)
        (staging / GENERATIONS_FILE).write_text("".join(lines[:2]))
        monkeypatch.setattr(OfflineProvider, "execute", lambda *args: pytest.fail("query sent"))
        with pytest.raises(LedgerCorrupt, match=f"^missing {FINAL_RESULTS_FILE} in "):
            replay(staging)

    def test_http_ledger_refused(self, tmp_path):
        config = RunConfig(
            provider=ProviderSpec(kind="http", endpoint="https://api.example/search")
        )
        from evoquery.ledger import new_ledger_dir

        with new_ledger_dir(tmp_path, {"config": config.to_payload(), "inputs": None}) as staging:
            (staging / GENERATIONS_FILE).write_text("")
            (staging / FINAL_RESULTS_FILE).write_text("[]\n")
        with pytest.raises(LedgerCorrupt, match="config.json records a run on the 'http' provider"):
            replay(tmp_path)

    def test_missing_inputs_refused(self, tmp_path, provider):
        config = small_config(e1=1)
        write_run_ledger(tmp_path, config, run_evolution(config, provider, SEED_DOCS))
        with pytest.raises(LedgerCorrupt):
            replay(tmp_path)

    def test_non_string_input_path_refused(self, tmp_path, provider, run_inputs_dir):
        ledger_dir, _ = self._run_and_write(tmp_path, provider, run_inputs_dir)
        path = ledger_dir / "config.json"
        payload = json.loads(path.read_text())
        payload["inputs"]["index_path"] = 5
        path.write_text(canonical_json(payload) + "\n")
        with pytest.raises(LedgerCorrupt, match="lack a string index_path"):
            replay(ledger_dir)

    def test_changed_input_file_refused(self, tmp_path, provider, run_inputs_dir):
        index_path, seed_path = run_inputs_dir
        local_seed = tmp_path / "seed.jsonl"
        local_seed.write_bytes(seed_path.read_bytes())
        ledger_dir = tmp_path / "ledger"
        inputs = make_run_inputs(ledger_dir, index_path, local_seed)
        config = small_config(e1=1)
        write_run_ledger(ledger_dir, config, run_evolution(config, provider, SEED_DOCS), inputs)
        local_seed.write_bytes(local_seed.read_bytes() + b"\n")
        with pytest.raises(LedgerCorrupt):
            replay(ledger_dir)

    def test_deleted_input_file_refused(self, tmp_path, provider, run_inputs_dir):
        index_path, seed_path = run_inputs_dir
        local_seed = tmp_path / "seed.jsonl"
        local_seed.write_bytes(seed_path.read_bytes())
        ledger_dir = tmp_path / "ledger"
        inputs = make_run_inputs(ledger_dir, index_path, local_seed)
        config = small_config(e1=1)
        write_run_ledger(ledger_dir, config, run_evolution(config, provider, SEED_DOCS), inputs)
        local_seed.unlink()
        with pytest.raises(LedgerCorrupt):
            replay(ledger_dir)

    def test_missing_config_refused(self, tmp_path):
        with pytest.raises(LedgerCorrupt):
            replay(tmp_path)

    def test_config_written_with_inputs_section(self, tmp_path, provider, run_inputs_dir):
        ledger_dir, _ = self._run_and_write(tmp_path, provider, run_inputs_dir)
        payload = json.loads((ledger_dir / "config.json").read_text())
        assert set(payload) == {"config", "inputs", "ledger_format"}
        assert payload["ledger_format"] == 3
        assert set(payload["inputs"]) == {
            "index_path", "index_sha256", "seed_material_path", "seed_material_sha256",
        }

    @pytest.mark.parametrize(
        "edit, where",
        [
            (lambda p: json.dumps({**p, "note": "hand-edited"}, indent=2), "note"),
            (lambda p: json.dumps(p, indent=2), "<bytes at column 2>"),
            (lambda p: canonical_json({**p, "inputs": {**p["inputs"], "extra": 1}}), "inputs.extra"),
            (lambda p: canonical_json({**p, "config": {k: v for k, v in p["config"].items()
                                                       if k != "f4"}}), "config.f4"),
        ],
        ids=["indented-with-key", "indented", "extra-input", "default-left-out"],
    )
    def test_config_not_as_evolve_writes_it_refused_before_any_query(
        self, tmp_path, provider, run_inputs_dir, monkeypatch, edit, where
    ):
        ledger_dir, _ = self._run_and_write(tmp_path, provider, run_inputs_dir)
        path = ledger_dir / CONFIG_FILE
        path.write_text(edit(json.loads(path.read_text())) + "\n")
        monkeypatch.setattr(OfflineProvider, "execute", lambda *args: pytest.fail("query sent"))
        with pytest.raises(LedgerCorrupt) as exc_info:
            replay(ledger_dir)
        message = str(exc_info.value)
        assert message.startswith(f"{path} is not the text evolve writes")
        assert f"at {where}, stored " in message


# Floats and strings that a hand-written JSON encoder tends to get wrong
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16, 1e-7, 0.1, 1.0]
)
TEXTS = st.text(st.characters(exclude_categories=()), max_size=8) | st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "caf\u00e9", "\U0001f600", "\ud800", "\udfff"]
)
HITS = st.builds(SearchHit, TEXTS, TEXTS, TEXTS, TEXTS)
RECORDS = st.builds(
    GenerationRecord,
    generation=st.integers(0, 10**6),
    queries=st.lists(st.builds(
        QueryOutcome,
        terms=st.lists(TEXTS, max_size=3).map(tuple),
        variant=st.sampled_from(Variant),
        query_string=TEXTS,
        issued_at=st.none() | FLOATS,
        hits=st.just([]),
        query_fitness=FLOATS,
        results=st.lists(st.builds(ScoredResult, HITS, st.integers(1, 1000), FLOATS, FLOATS,
                                   FLOATS, FLOATS), max_size=4),
    ), max_size=4),
    population_fitness=FLOATS,
    reference_digest=TEXTS,
    top_results=st.just([]),
)


class TestGenerationLine:
    """A line joined from a run's fragments is its canonical record and newline."""

    @settings(max_examples=300, deadline=None)
    @given(RECORDS)
    def test_fragments_join_to_the_canonical_line(self, record):
        line = canonical_json(record_payload(record)) + "\n"
        assert generation_line(record) == line
        fragments = LineFragments()
        assert generation_line(record, fragments) == line
        assert generation_line(record, fragments) == line  # now from kept pieces

    def test_signed_zeros_keep_their_signs(self):
        hit = SearchHit("https://a/1", "a", "t", "s")
        record = GenerationRecord(0, [QueryOutcome(
            ("a",), Variant.LEMMA, "a", -0.0, [], 0.0,
            [ScoredResult(hit, 1, 1.0, -0.0, 0.0, -0.0)],
        )], 0.0, "d", [])
        fragments = LineFragments()
        for _ in range(2):
            line = generation_line(record, fragments)
            assert line == canonical_json(record_payload(record)) + "\n"
            assert '"crossquery":-0.0,"fitness":-0.0' in line and '"semantic":0.0' in line

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_raises_as_canonical_json_does(self, value):
        hit = SearchHit("https://a/1", "a", "t", "s")
        records = [
            GenerationRecord(0, [], value, "d", []),
            GenerationRecord(0, [QueryOutcome(
                ("a",), Variant.LEMMA, "a", None, [], 0.5,
                [ScoredResult(hit, 1, 1.0, 0.5, value, 0.5)],
            )], 0.5, "d", []),
        ]
        for record in records:
            with pytest.raises(ValueError):
                canonical_json(record_payload(record))
            with pytest.raises(ValueError):
                generation_line(record, LineFragments())

    def test_two_runs_in_one_process_render_within_the_memo_bound(self, provider, monkeypatch):
        monkeypatch.setattr(evoquery.ledger, "FRAGMENT_MEMO_LIMIT", 40)
        for seed in (7, 8):
            fragments = LineFragments()
            for record in run_evolution(small_config(rng_seed=seed), provider, SEED_DOCS):
                line = canonical_json(record_payload(record)) + "\n"
                assert generation_line(record, fragments) == line
            assert len(fragments) == 40

    def test_line_leaves_out_what_the_line_and_config_give(self, provider):
        config = small_config(variant=Variant.QUOTED, a_factor=0.5, e1=1)
        (record,) = run_evolution(config, provider, SEED_DOCS)
        line = json.loads(generation_line(record))
        for place, (query, outcome) in enumerate(zip(line["queries"], record.queries)):
            assert sorted(query) == ["issued_at", "query_fitness", "results", "terms", "variant"]
            assert render_query(QueryGenome(tuple(query["terms"]), Variant.QUOTED)) == (
                outcome.query_string
            )
            for result, scored in zip(query["results"], outcome.results):
                assert "rank" not in result and "environment" not in result
                count = len(query["results"])
                assert scored.rank_component == (count - result["position"] + 1) / count
        final = json.loads(final_results_text(record.top_results, config.a_factor))
        assert final and all(entry["environment"] == config.a_factor for entry in final)
