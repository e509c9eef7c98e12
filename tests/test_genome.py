import random

import pytest
from hypothesis import given, settings, strategies as st

from evoquery.genome import (
    QueryGenome,
    Variant,
    _weighted_sample,
    crossover,
    mutate,
    render_query,
    seed_population,
)


def make_pool(n, start=0):
    # strictly decreasing weights keep the pool invariant honest
    terms = [(f"term{start + i:02d}", 1.0 / (i + 1)) for i in range(n)]
    return terms


def genome_of(*terms, variant=Variant.LEMMA):
    return QueryGenome(terms=tuple(terms), variant=variant)


@settings(max_examples=300)
@given(
    weights=st.lists(st.floats(1e-300, 1e3) | st.sampled_from([1e-17, 0.1, 1 / 3]),
                     min_size=1, max_size=12),
    seed=st.integers(0, 2**32),
)
def test_weighted_sample_picks_as_the_loop_it_replaced(weights, seed):
    """A bisection of the running totals picks what the scan for the first total
    above the draw picked, the last item when rounding leaves none above it."""
    items = [(f"t{i}", w) for i, w in enumerate(weights)]
    expected, remaining, rng = [], list(items), random.Random(seed)
    for _ in range(len(items)):
        total = 0.0
        for _, w in remaining:
            total += w
        r, acc, idx = rng.random() * total, 0.0, len(remaining) - 1
        for i, (_, w) in enumerate(remaining):
            acc += w
            if r < acc:
                idx = i
                break
        expected.append(remaining.pop(idx)[0])
    assert _weighted_sample(items, len(items), random.Random(seed)) == expected


class _TopDraw(random.Random):
    """A stream whose every ``random()`` is the largest it can give, 1 - 2**-53."""

    def random(self):
        return 1.0 - 2.0**-53


@settings(max_examples=300)
@given(counts=st.lists(st.integers(1, 10**6), min_size=1, max_size=12))
def test_weighted_sample_top_draw_picks_the_last_item(counts):
    """The largest draw still falls below the running total of term frequencies,
    as a pool holds, so it picks the last item, with no clamp to the last index."""
    items = [(f"t{i}", count / sum(counts)) for i, count in enumerate(counts)]
    picked = _weighted_sample(items, len(items), _TopDraw())
    assert picked == [name for name, _ in reversed(items)]


class TestSeedPopulation:
    def test_paper_shape(self):
        pop = seed_population(make_pool(50), g2=8, g3=6, rng_seed=1)
        assert len(pop) == 8
        for g in pop:
            assert len(g.terms) == 6
            assert len(set(g.terms)) == 6

    def test_pool_exactly_g3_forces_full_pool(self):
        pool = make_pool(6)
        pop = seed_population(pool, g2=3, g3=6, rng_seed=7)
        expected = {t for t, _ in pool}
        for g in pop:
            assert set(g.terms) == expected

    def test_deterministic_for_fixed_seed(self):
        a = seed_population(make_pool(30), g2=4, g3=5, rng_seed=42)
        b = seed_population(make_pool(30), g2=4, g3=5, rng_seed=42)
        assert a == b

    def test_seed_changes_population(self):
        a = seed_population(make_pool(30), g2=4, g3=5, rng_seed=1)
        b = seed_population(make_pool(30), g2=4, g3=5, rng_seed=2)
        assert a != b

    def test_terms_come_from_pool(self):
        pool = make_pool(20)
        pop = seed_population(pool, g2=8, g3=6, rng_seed=3)
        lemmas = {t for t, _ in pool}
        for g in pop:
            assert set(g.terms) <= lemmas

    def test_heavier_terms_sampled_more_often(self):
        terms = [("heavy", 100.0)] + [(f"light{i}", 0.01) for i in range(20)]
        pool = terms
        hits = 0
        for seed in range(50):
            pop = seed_population(pool, g2=1, g3=3, rng_seed=seed)
            hits += "heavy" in pop[0].terms
        assert hits >= 45

    def test_variant_applied(self):
        pop = seed_population(make_pool(10), 2, 3, 0, variant=Variant.QUOTED)
        assert all(g.variant is Variant.QUOTED for g in pop)


class TestCrossover:
    def test_identical_parents_reproduce(self):
        a = genome_of("t1", "t2", "t3")
        b = genome_of("t3", "t1", "t2")
        c1, c2 = crossover(a, b, random.Random(0))
        assert set(c1.terms) == set(a.terms)
        assert set(c2.terms) == set(a.terms)

    def test_disjoint_parents_partition_union(self):
        a = genome_of("a1", "a2", "a3", "a4", "a5", "a6")
        b = genome_of("b1", "b2", "b3", "b4", "b5", "b6")
        c1, c2 = crossover(a, b, random.Random(5))
        assert len(c1.terms) == 6 and len(c2.terms) == 6
        assert set(c1.terms) | set(c2.terms) == set(a.terms) | set(b.terms)
        assert set(c1.terms) & set(c2.terms) == set()

    def test_shared_terms_pinned_to_both_children(self):
        a = genome_of("shared", "a1", "a2")
        b = genome_of("shared", "b1", "b2")
        for seed in range(10):
            c1, c2 = crossover(a, b, random.Random(seed))
            assert "shared" in c1.terms and "shared" in c2.terms

    def test_same_rng_stream_gives_same_children(self):
        a = genome_of("a1", "a2", "a3")
        b = genome_of("b1", "b2", "b3")
        pair1 = crossover(a, b, random.Random(9))
        pair2 = crossover(a, b, random.Random(9))
        assert pair1 == pair2

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60)
    def test_children_always_valid(self, seed):
        rng = random.Random(seed)
        vocab = [f"w{i}" for i in range(12)]
        rng.shuffle(vocab)
        a = genome_of(*vocab[:6])
        b = genome_of(*rng.sample(vocab[3:], 6))
        c1, c2 = crossover(a, b, rng)
        for child in (c1, c2):
            assert len(child.terms) == 6
            assert len(set(child.terms)) == 6
            assert set(child.terms) <= set(a.terms) | set(b.terms)


class TestMutate:
    def test_certain_mutation_changes_exactly_one_term(self):
        g = genome_of("t1", "t2", "t3", "t4", "t5", "t6")
        mutated = mutate(g, make_pool(20), m1=1.0, rng=random.Random(0))
        assert len(set(g.terms) - set(mutated.terms)) == 1
        assert len(set(mutated.terms) - set(g.terms)) == 1
        assert len(mutated.terms) == 6

    def test_zero_probability_is_identity(self):
        g = genome_of("term00", "term01", "term02")
        assert mutate(g, make_pool(20), m1=0.0, rng=random.Random(0)) == g

    def test_replacement_comes_from_pool(self):
        pool = make_pool(10)
        g = genome_of("outsider", "term00", "term01")
        mutated = mutate(g, pool, m1=1.0, rng=random.Random(1))
        new_terms = set(mutated.terms) - set(g.terms)
        assert new_terms <= {t for t, _ in pool}

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60)
    def test_set_distance_exactly_one(self, seed):
        pool = make_pool(15)
        g = genome_of(*[t for t, _ in pool[:6]])
        mutated = mutate(g, pool, m1=1.0, rng=random.Random(seed))
        assert len(set(g.terms) ^ set(mutated.terms)) == 2
        assert len(set(mutated.terms)) == len(mutated.terms)


class TestRenderQuery:
    def test_quoted_variant(self):
        g = genome_of("wear", "friction", variant=Variant.QUOTED)
        assert render_query(g) == '"wear" "friction"'

    def test_lemma_variant(self):
        g = genome_of("wear", "friction")
        assert render_query(g) == "wear friction"

    def test_single_term_quoted(self):
        g = genome_of("wear", variant=Variant.QUOTED)
        assert render_query(g) == '"wear"'

    def test_order_preserved(self):
        g = genome_of("zz", "aa", "mm")
        assert render_query(g) == "zz aa mm"


class TestInvariants:
    def test_duplicate_terms_rejected_at_construction(self):
        with pytest.raises(ValueError):
            QueryGenome(terms=("dup", "dup"), variant=Variant.LEMMA)
