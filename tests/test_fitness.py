import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import evoquery.fitness
import reference_scoring

from evoquery.config import RunConfig
from evoquery.corpus import Document, SuffixNormalizer, TermVector, seed_vector
from evoquery.errors import ConfigInvalid, ParseError
from evoquery.fitness import (
    REFERENCE_CAPACITY,
    ReferenceText,
    ScoredResult,
    aggregate_results,
    cross_query_score,
    crossquery_scores,
    merge_into_global,
    population_fitness,
    position_score,
    query_fitness,
    result_fitness,
    score_query_results,
    semantic_score,
    update_reference_text,
)
from evoquery.ledger import result_to_payload
from evoquery.provider import SearchHit

PAPER_CONFIG = RunConfig()


def hit(url="https://a.org/1", host=None, title="", snippet=""):
    return SearchHit(
        doc_url=url,
        doc_host=host if host is not None else url.split("/")[2],
        title=title,
        snippet=snippet,
    )


def scored(w, url="https://a.org/1", host=None, **kw):
    return ScoredResult(
        hit=hit(url=url, host=host, **kw),
        position=1,
        rank_component=0.5,
        crossquery_component=0.5,
        semantic_component=0.5,
        fitness=w,
    )


def hit_list(urls):
    return [hit(url=u) for u in urls]


def semantic_only_inputs(results):
    """Hits and a reference under which ``results``' fitnesses are the
    undamped fitnesses: each hit's title is its url, so each has its own
    entry in the reference's score table, and that entry is its result's
    fitness."""
    hits = [r.hit._replace(title=r.hit.doc_url) for r in results]
    ref = ReferenceText(vector=TermVector.from_weights({}))
    ref.semantic_scores.update({h: r.fitness for h, r in zip(hits, results)})
    return hits, ref


def semantic_only_scores(hits, ref, host_coeff):
    """score_query_results weighting only the semantic component."""
    config = RunConfig(f4=host_coeff, f5=0.0, f6=0.0, f7=1.0)
    return score_query_results(hits, crossquery_scores([hits]), ref, config)


def damp(results, host_coeff):
    """``results`` as score_query_results damps them: the reference's score
    table is filled in advance, so each hit's undamped fitness is exactly
    its result's fitness and no cosine is computed."""
    return semantic_only_scores(*semantic_only_inputs(results), host_coeff)


class TestFitnessWeights:
    """RunConfig's f4 (host damping) and f5/f6/f7 (component weights)."""

    def test_paper_defaults_are_valid(self):
        w = RunConfig()
        assert w.f5 + w.f6 + w.f7 == pytest.approx(1.0)
        assert w.f4 == 0.75

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigInvalid, match=r"^f5 \+ f6 \+ f7 must sum to 1 within 1e-9, got 1\.5$"):
            RunConfig(f5=0.5, f6=0.5, f7=0.5)

    def test_sum_tolerance(self):
        """Each weight may exceed 1 by the 1e-9 the sum is allowed; none may be negative."""
        assert RunConfig.from_payload({"f5": 1.0000000001, "f6": 0, "f7": 0}).f5 == 1.0000000001
        with pytest.raises(ConfigInvalid, match="^f6 must be non-negative, got -1e-10$"):
            RunConfig.from_payload({"f5": 0.33, "f6": -1e-10, "f7": 0.67})
        with pytest.raises(ConfigInvalid, match=r"^f5 \+ f6 \+ f7 must sum to 1"):
            RunConfig.from_payload({"f5": 1.000000002, "f6": 0, "f7": 0})

    def test_host_coeff_range(self):
        with pytest.raises(ConfigInvalid, match=r"^f4 must be in \(0, 1\], got 0\.0$"):
            RunConfig(f4=0.0)
        with pytest.raises(ConfigInvalid, match=r"^f4 must be in \(0, 1\], got 1\.5$"):
            RunConfig(f4=1.5)


class TestPositionScore:
    def test_top_of_list(self):
        assert position_score(1, 20) == 1.0

    def test_middle_of_list(self):
        assert position_score(11, 20) == 0.5

    def test_bottom_of_list(self):
        assert position_score(20, 20) == pytest.approx(1 / 20)

    @given(st.integers(min_value=1, max_value=100))
    def test_strictly_decreasing(self, length):
        values = [position_score(p, length) for p in range(1, length + 1)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert 0 < min(values) and max(values) == 1.0


class TestCrossQueryScore:
    def test_half_the_lists(self):
        lists = [hit_list(["https://x.org/hit"]) for _ in range(4)]
        lists += [hit_list(["https://y.org/other"]) for _ in range(4)]
        assert crossquery_scores(lists)["https://x.org/hit"] == 0.5

    def test_unanimous(self):
        lists = [hit_list(["https://x.org/hit"]) for _ in range(3)]
        assert crossquery_scores(lists)["https://x.org/hit"] == 1.0

    def test_absent(self):
        lists = [hit_list(["https://y.org/other"])]
        assert crossquery_scores(lists) == {"https://y.org/other": 1.0}
        assert cross_query_score(0, len(lists)) == 0.0

    def test_repeated_url_in_one_list_counts_once(self):
        lists = [hit_list(["https://x.org/hit", "https://x.org/hit"])]
        lists.append(hit_list(["https://y.org/other"]))
        assert crossquery_scores(lists)["https://x.org/hit"] == 0.5

    @settings(max_examples=200)
    @given(
        st.lists(
            st.lists(st.sampled_from([f"https://h{i}.org/d" for i in range(6)]), max_size=6),
            min_size=1,
            max_size=8,
        )
    )
    def test_matches_brute_force_count(self, url_lists):
        lists = [hit_list(urls) for urls in url_lists]
        scores = crossquery_scores(lists)
        for hits in lists:
            for h in hits:
                containing = sum(
                    1 for other in lists if h.doc_url in {x.doc_url for x in other}
                )
                assert scores[h.doc_url] == containing / len(lists)


class TestSemanticScore:
    def ref_of(self, **entries):
        return ReferenceText(vector=TermVector.from_weights(entries))

    def test_parallel_vectors(self):
        ref = self.ref_of(wear=0.5, friction=0.5)
        assert semantic_score(hit(title="wear friction"), ref) == pytest.approx(1.0)

    def test_disjoint_vocabulary(self):
        ref = self.ref_of(oil=1.0)
        assert semantic_score(hit(title="wear friction"), ref) == 0.0

    def test_known_cosine(self):
        ref = self.ref_of(wear=1.0)
        score = semantic_score(hit(title="wear friction"), ref)
        assert score == pytest.approx(1 / math.sqrt(2), abs=1e-6)

    def test_empty_hit_text(self):
        ref = self.ref_of(wear=1.0)
        assert semantic_score(hit(title="", snippet=""), ref) == 0.0

    def test_empty_reference(self):
        ref = ReferenceText(vector=TermVector.from_weights({}))
        assert semantic_score(hit(title="wear"), ref) == 0.0

    def test_title_and_snippet_both_count(self):
        ref = self.ref_of(wear=0.5, oil=0.5)
        combined = semantic_score(hit(title="wear", snippet="oil"), ref)
        title_only = semantic_score(hit(title="wear"), ref)
        assert combined > title_only


_HIT_TEXT = st.text(alphabet="ab ing.sé", max_size=12)


class CountingNormalizer:
    """Splits on whitespace and records each text it is asked to normalize."""

    def __init__(self):
        self.calls = []

    def normalize(self, raw):
        self.calls.append(raw)
        return raw.split()


class TestHitVectorMemo:
    @settings(max_examples=200)
    @given(st.lists(st.tuples(_HIT_TEXT, _HIT_TEXT), min_size=1, max_size=12))
    def test_memoized_vector_equals_fresh(self, texts):
        normalizer = SuffixNormalizer(stop_words=frozenset({"ab"}))
        ref = ReferenceText(vector=TermVector.from_weights({}), normalizer=normalizer)
        for title, snippet in texts:
            fresh = TermVector.from_lemmas(normalizer.normalize(title + " " + snippet))
            assert ref.hit_vector(hit(title=title, snippet=snippet)) == fresh

    def test_each_distinct_text_normalized_once(self):
        normalizer = CountingNormalizer()
        ref = ReferenceText(vector=TermVector.from_weights({}), normalizer=normalizer)
        first = ref.hit_vector(hit(url="https://a.org/1", title="wear", snippet="oil"))
        again = ref.hit_vector(hit(url="https://b.org/2", title="wear", snippet="oil"))
        ref.hit_vector(hit(title="wear oil", snippet=""))
        assert again is first
        assert normalizer.calls == ["wear oil", "wear oil "]

    def test_new_reference_reuses_vectors_with_empty_score_table(self):
        normalizer = CountingNormalizer()
        ref = ReferenceText(vector=TermVector.from_weights({"wear": 1.0}), normalizer=normalizer)
        hits = [hit(url="https://a.org/1", title="wear"), hit(url="https://b.org/2", title="oil")]
        results = score_query_results(hits, crossquery_scores([hits]), ref, PAPER_CONFIG)
        assert ref.semantic_scores == {hits[0]: 1.0, hits[1]: 0.0}
        updated = update_reference_text(ref, results)
        assert updated.semantic_scores == {}
        assert updated.hit_vectors is ref.hit_vectors
        score_query_results(hits, crossquery_scores([hits]), updated, PAPER_CONFIG)
        # the new reference scores each hit again, without normalizing its text again
        assert normalizer.calls == ["wear ", "oil "]
        assert updated.semantic_scores[hits[1]] > 0.0
        assert ref.semantic_scores == {hits[0]: 1.0, hits[1]: 0.0}


class TestResultFitness:
    def test_all_ones_with_paper_weights(self):
        assert result_fitness(1, 1, 1, PAPER_CONFIG) == pytest.approx(1.0)

    def test_zero_environment_annihilates(self):
        assert result_fitness(0.9, 0.8, 0.7, RunConfig(a_factor=0.0)) == 0.0

    def test_position_weight_alone(self):
        assert result_fitness(1, 0, 0, PAPER_CONFIG) == pytest.approx(0.33)

    @given(
        st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)
    )
    @settings(max_examples=200)
    def test_stays_in_unit_interval(self, f, p, s, a):
        assert 0.0 <= result_fitness(f, p, s, RunConfig(a_factor=a)) <= 1.0

    def test_monotone_in_each_component(self):
        rng = random.Random(7)
        for _ in range(100):
            f, p, s, a = (rng.random() for _ in range(4))
            config = RunConfig(a_factor=a)
            base = result_fitness(f, p, s, config)
            bump = 0.1
            assert result_fitness(min(1, f + bump), p, s, config) >= base
            assert result_fitness(f, min(1, p + bump), s, config) >= base
            assert result_fitness(f, p, min(1, s + bump), config) >= base
            assert result_fitness(f, p, s, RunConfig(a_factor=min(1, a + bump))) >= base


class TestHostCollocation:
    def test_distinct_hosts_unchanged(self):
        results = [scored(0.8, url="https://a.org/1"), scored(0.6, url="https://b.org/2")]
        out = damp(results, 0.75)
        assert [r.fitness for r in out] == [0.8, 0.6]

    def test_second_same_host_result_damped(self):
        results = [
            scored(0.8, url="https://a.org/1", host="a.org"),
            scored(0.8, url="https://a.org/2", host="a.org"),
        ]
        out = damp(results, 0.75)
        assert out[0].fitness == 0.8
        assert out[1].fitness == pytest.approx(0.6, abs=1e-12)
        # damping moves only the fitness: both keep their components
        assert [r.semantic_component for r in out] == [0.8, 0.8]
        assert [r.hit.doc_url for r in out] == ["https://a.org/1", "https://a.org/2"]

    def test_third_same_host_result_squared_damping(self):
        results = [
            scored(0.9, url="https://a.org/1", host="a.org"),
            scored(0.85, url="https://a.org/2", host="a.org"),
            scored(0.8, url="https://a.org/3", host="a.org"),
        ]
        out = damp(results, 0.75)
        by_url = {r.hit.doc_url: r.fitness for r in out}
        assert by_url["https://a.org/3"] == pytest.approx(0.8 * 0.75**2, abs=1e-12)
        assert by_url["https://a.org/3"] == pytest.approx(0.45, abs=1e-12)

    def test_coeff_one_is_identity(self):
        results = [
            scored(0.8, url="https://a.org/1", host="a.org"),
            scored(0.7, url="https://a.org/2", host="a.org"),
        ]
        out = damp(results, 1.0)
        assert [r.fitness for r in out] == [0.8, 0.7]

    def test_never_increases_fitness(self):
        rng = random.Random(3)
        results = sorted(
            (
                scored(rng.random(), url=f"https://h{rng.randrange(3)}.org/{i}",
                       host=f"h{rng.randrange(3)}.org")
                for i in range(30)
            ),
            key=lambda r: -r.fitness,
        )
        before = {r.hit.doc_url: r.fitness for r in results}
        out = damp(results, 0.75)
        assert all(r.fitness <= before[r.hit.doc_url] + 1e-15 for r in out)

    def test_resorted_after_damping(self):
        results = [
            scored(0.9, url="https://a.org/1", host="a.org"),
            scored(0.89, url="https://a.org/2", host="a.org"),
            scored(0.7, url="https://b.org/3", host="b.org"),
        ]
        out = damp(results, 0.75)
        ws = [r.fitness for r in out]
        assert ws == sorted(ws, reverse=True)
        # damped second a.org result (0.6675) now ranks below b.org's 0.7
        assert out[1].hit.doc_url == "https://b.org/3"

    def test_input_not_mutated(self):
        results = [
            scored(0.8, url="https://a.org/1", host="a.org"),
            scored(0.8, url="https://a.org/2", host="a.org"),
        ]
        hits, ref = semantic_only_inputs(results)
        before = (list(hits), dict(ref.semantic_scores))
        out = semantic_only_scores(hits, ref, 0.5)
        assert [r.fitness for r in out] == [0.8, 0.4]
        # the damped fitness is not written back into the hits or the table
        assert (hits, ref.semantic_scores) == before


class TestQueryAndPopulationFitness:
    def test_query_mean(self):
        results = [scored(1.0), scored(0.5), scored(0.0)]
        assert query_fitness(results) == 0.5

    def test_single_result(self):
        assert query_fitness([scored(0.7)]) == 0.7

    def test_empty_query_results(self):
        assert query_fitness([]) == 0.0

    def test_population_mean(self):
        assert population_fitness([0.2, 0.4, 0.6, 0.8]) == pytest.approx(0.5)

    def test_population_of_constants(self):
        assert population_fitness([0.3, 0.3, 0.3]) == pytest.approx(0.3)

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=40))
    @settings(max_examples=200)
    def test_query_fitness_matches_naive_mean(self, ws):
        results = [scored(w, url=f"https://a.org/{i}") for i, w in enumerate(ws)]
        naive = sum(ws) / len(ws)
        assert abs(query_fitness(results) - naive) <= 1e-12

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=16))
    @settings(max_examples=200)
    def test_population_fitness_matches_naive_mean(self, wjs):
        naive = sum(wjs) / len(wjs)
        assert abs(population_fitness(wjs) - naive) <= 1e-12

    def test_means_add_left_to_right_on_every_python(self):
        # ten plain additions of 0.1 give 0.9999999999999999; the compensated
        # sum() of Python 3.12+ gives 1.0, which would change ledger bytes
        total = 0.0
        for _ in range(10):
            total += 0.1
        assert total != 1.0
        assert population_fitness([0.1] * 10) == total / 10
        results = [scored(0.1, url=f"https://a.org/{i}") for i in range(10)]
        assert query_fitness(results) == total / 10


class TestAggregation:
    def test_duplicate_url_keeps_max(self):
        a = [scored(0.4, url="https://x.org/1")]
        b = [scored(0.6, url="https://x.org/1")]
        out = aggregate_results([a, b], per_population_cap=20)
        assert len(out) == 1
        assert out[0].fitness == 0.6

    def test_cap_truncates(self):
        lists = [[scored(i / 25, url=f"https://x.org/{i}") for i in range(25)]]
        out = aggregate_results(lists, per_population_cap=20)
        assert len(out) == 20
        assert out[0].fitness == pytest.approx(24 / 25)

    def test_empty_input(self):
        assert aggregate_results([], per_population_cap=20) == []

    def test_tie_broken_by_url(self):
        lists = [[scored(0.5, url="https://b.org/1"), scored(0.5, url="https://a.org/1")]]
        out = aggregate_results(lists, per_population_cap=20)
        assert [r.hit.doc_url for r in out] == ["https://a.org/1", "https://b.org/1"]

    def test_global_merge_keeps_best_across_generations(self):
        gen1 = [scored(0.9, url="https://x.org/1"), scored(0.2, url="https://x.org/2")]
        gen2 = [scored(0.5, url="https://x.org/1"), scored(0.8, url="https://x.org/3")]
        merged = merge_into_global(gen1, gen2, global_cap=2)
        urls = [r.hit.doc_url for r in merged]
        assert urls == ["https://x.org/1", "https://x.org/3"]
        assert merged[0].fitness == 0.9

    def test_scale_invariance_of_ordering(self):
        rng = random.Random(11)
        lists = [
            [scored(rng.random(), url=f"https://x.org/{i}-{j}") for i in range(10)]
            for j in range(3)
        ]
        base = [r.hit.doc_url for r in aggregate_results(lists, 15)]
        scaled_lists = [
            [scored(r.fitness * 0.37, url=r.hit.doc_url) for r in chunk] for chunk in lists
        ]
        scaled = [r.hit.doc_url for r in aggregate_results(scaled_lists, 15)]
        assert base == scaled


class TestScoreQueryResults:
    def make_inputs(self):
        shared = "https://shared.org/doc"
        hits_a = hit_list([shared, "https://a.org/1"])
        hits_b = hit_list([shared])
        ref = ReferenceText(vector=TermVector.from_weights({"wear": 1.0}))
        return hits_a, [hits_a, hits_b], ref

    def test_components_populated_and_bounded(self):
        hits, lists, ref = self.make_inputs()
        out = score_query_results(hits, crossquery_scores(lists), ref, PAPER_CONFIG)
        assert len(out) == 2
        for result in out:
            for value in (
                result.rank_component,
                result.crossquery_component,
                result.semantic_component,
                result.fitness,
            ):
                assert 0.0 <= value <= 1.0

    def test_shared_url_gets_higher_crossquery(self):
        hits, lists, ref = self.make_inputs()
        out = {
            r.hit.doc_url: r
            for r in score_query_results(hits, crossquery_scores(lists), ref, PAPER_CONFIG)
        }
        assert out["https://shared.org/doc"].crossquery_component == 1.0
        assert out["https://a.org/1"].crossquery_component == 0.5

    def test_empty_record_scores_empty(self):
        ref = ReferenceText(vector=TermVector.from_weights({"wear": 1.0}))
        out = score_query_results([], crossquery_scores([[]]), ref, PAPER_CONFIG)
        assert out == []

    def test_one_cosine_per_distinct_hit(self, monkeypatch):
        calls = []
        semantic_score_ = evoquery.fitness.semantic_score

        def counted(hit, ref):
            calls.append((hit.doc_url, hit.title, ref.rounds))
            return semantic_score_(hit, ref)

        monkeypatch.setattr(evoquery.fitness, "semantic_score", counted)
        ref = ReferenceText(vector=TermVector.from_weights({"wear": 1.0}))
        wear, oil = hit(url="https://a.org/1", title="wear"), hit(url="https://b.org/2", title="oil")
        # a hit at two positions, in two lists, and a hit equal to it made apart
        lists = [[wear, oil], [oil, wear], [hit(url="https://a.org/1", title="wear")]]
        for hits in lists:
            score_query_results(hits, crossquery_scores(lists), ref, PAPER_CONFIG)
        assert calls == [("https://a.org/1", "wear", 0), ("https://b.org/2", "oil", 0)]
        assert ref.semantic_scores == {wear: 1.0, oil: 0.0}
        # an empty update keeps the reference and its table; a new one scores anew
        assert update_reference_text(ref, []) is ref
        updated = update_reference_text(ref, [scored(0.9, title="oil")])
        for hits in lists:
            score_query_results(hits, crossquery_scores(lists), updated, PAPER_CONFIG)
        assert calls[2:] == [("https://a.org/1", "wear", 1), ("https://b.org/2", "oil", 1)]


# Texts overlap so that hits under different urls share a (title, snippet).
ORACLE_TITLES = ["wear", "oil film", "wear friction", ""]
ORACLE_SNIPPETS = ["", "oil", "wear wear"]
ORACLE_WEIGHTS = [(0.33, 0.33, 0.34), (0.0, 0.5, 0.5), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)]


@given(
    population=st.lists(
        st.lists(
            st.tuples(
                st.integers(0, 2),  # host: three hosts, so hosts repeat
                st.integers(0, 5),
                st.sampled_from(ORACLE_TITLES),
                st.sampled_from(ORACLE_SNIPPETS),
            ),
            max_size=8,
        ),
        min_size=1,
        max_size=4,
    ),
    weights=st.sampled_from(ORACLE_WEIGHTS),
    host_coeff=st.sampled_from([1.0, 0.75, 0.5]),
    environment=st.sampled_from([1.0, 0.5, 0.0]),  # 0.0 ties every fitness
)
@settings(max_examples=300, deadline=None)
def test_scorer_matches_reference(population, weights, host_coeff, environment):
    """Equal results in the same order as the scorer that copied each damped
    result, with one reference, and so one score table, shared by a
    population's lists."""
    lists = [
        [
            hit(url=f"https://h{host}.org/{doc}", title=title, snippet=snippet)
            for host, doc, title, snippet in spec
        ]
        for spec in population
    ]
    config = RunConfig(f4=host_coeff, f5=weights[0], f6=weights[1], f7=weights[2],
                       a_factor=environment)
    ref = ReferenceText(vector=TermVector.from_weights({"wear": 0.6, "oil": 0.3, "film": 0.1}))
    crossqueries = crossquery_scores(lists)
    for hits in lists:
        expected = reference_scoring.score_query_results(
            hits, lists, ref.vector, ref.normalizer, config
        )
        results = score_query_results(hits, crossqueries, ref, config)
        assert [result_to_payload(r, config.a_factor) for r in results] == expected


class TestReferenceText:
    def seed_doc(self, body):
        return Document(id="s1", url="https://s.org/1", host="s.org", title="t", body=body)

    def test_seeded_from_material(self):
        ref = ReferenceText.from_seed_vector(seed_vector([self.seed_doc("wear wear oil")]))
        assert ref.vector.entries["wear"] == pytest.approx(2 / 3)
        assert ref.rounds == 0

    def test_vector_is_the_seed_vector(self):
        docs = [self.seed_doc("wear wear oil"), self.seed_doc("friction")]
        ref = ReferenceText.from_seed_vector(seed_vector(docs))
        assert ref.vector == seed_vector(docs)

    def test_empty_seed_material_rejected(self):
        with pytest.raises(ParseError, match="^seed material normalizes to zero lemmas$"):
            ReferenceText.from_seed_vector(seed_vector([self.seed_doc("! 1 2 ?")]))

    def test_empty_update_is_identity(self):
        ref = ReferenceText.from_seed_vector(seed_vector([self.seed_doc("wear oil")]))
        updated = update_reference_text(ref, [])
        assert updated.vector.entries == ref.vector.entries
        assert updated.rounds == 0

    def test_update_folds_in_top_results_with_decay(self):
        ref = ReferenceText(vector=TermVector.from_weights({"wear": 1.0}))
        results = [scored(0.9, url="https://x.org/1", title="oil")]
        updated = update_reference_text(ref, results)
        # contribution vector {oil: 1.0} scaled by 0.5 on round 1
        assert updated.vector.entries == pytest.approx({"wear": 1.0, "oil": 0.5})
        assert updated.rounds == 1

    def test_second_round_decays_deeper(self):
        ref = ReferenceText(vector=TermVector.from_weights({"wear": 1.0}))
        ref = update_reference_text(
            ref, [scored(0.9, url="https://x.org/1", title="oil")]
        )
        ref = update_reference_text(
            ref, [scored(0.9, url="https://x.org/2", title="grease")]
        )
        assert ref.vector.entries["grease"] == pytest.approx(0.25)

    def test_at_most_three_contributors(self):
        ref = ReferenceText(vector=TermVector.from_weights({"wear": 1.0}))
        titles = ["oil", "grease", "film", "slag", "soot"]
        results = [
            scored(0.9 - i / 100, url=f"https://x.org/{i}", title=title)
            for i, title in enumerate(titles)
        ]
        updated = update_reference_text(ref, results)
        # the best three fold in at 0.5 each on round 1; the rest do not
        assert updated.vector.entries == pytest.approx(
            {"wear": 1.0, "oil": 0.5, "grease": 0.5, "film": 0.5}
        )

    def test_contributors_deduped_by_url(self):
        # the loop passes aggregate_results' url-distinct list
        ref = ReferenceText(vector=TermVector.from_weights({"wear": 1.0}))
        dup = [
            scored(0.9, url="https://x.org/1", title="oil"),
            scored(0.8, url="https://x.org/1", title="oil"),
            scored(0.7, url="https://x.org/2", title="grease"),
        ]
        top = aggregate_results([dup], per_population_cap=20)
        updated = update_reference_text(ref, top)
        assert updated.vector.entries == pytest.approx({"wear": 1.0, "oil": 0.5, "grease": 0.5})

    def test_eviction_drops_lightest_lemma(self, monkeypatch):
        monkeypatch.setattr(evoquery.fitness, "REFERENCE_CAPACITY", 3)
        ref = ReferenceText(vector=TermVector.from_weights({"aa": 0.5, "bb": 0.3, "cc": 0.01}))
        updated = update_reference_text(
            ref, [scored(0.9, url="https://x.org/1", title="dd dd dd")]
        )
        assert set(updated.vector.entries) == {"aa", "bb", "dd"}

    def test_eviction_tie_keeps_the_lemma_that_sorts_first(self, monkeypatch):
        monkeypatch.setattr(evoquery.fitness, "REFERENCE_CAPACITY", 2)
        # "zz" and "bb" come before "aa" and tie with it at the cut
        seed = TermVector.from_weights({"zz": 0.2, "bb": 0.2, "top": 0.5, "aa": 0.2})
        ref = ReferenceText.from_seed_vector(seed)
        assert set(ref.vector.entries) == {"top", "aa"}

    def test_digest_tracks_vector_state(self):
        ref = ReferenceText(vector=TermVector.from_weights({"wear": 1.0}))
        d1 = ref.digest()
        updated = update_reference_text(ref, [scored(0.9, title="oil")])
        assert updated.digest() != d1
        assert ref.digest() == d1  # input unchanged

    def test_seed_at_capacity_is_trimmed(self):
        words = [chr(97 + i // 26) + chr(97 + i % 26) + "x" for i in range(300)]
        ref = ReferenceText.from_seed_vector(seed_vector([self.seed_doc(" ".join(words))]))
        assert len(ref.vector.entries) == REFERENCE_CAPACITY == 256
