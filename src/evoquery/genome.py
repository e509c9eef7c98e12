"""Query genomes and their genetic operators.

A genome is a fixed-length list of distinct keyword lemmas plus a rendering
variant. Operators keep the encoding valid by construction: crossover never
introduces duplicates and mutation replaces exactly one term with a fresh
one, so no repair step exists anywhere. They rely on ``evolution.run_evolution``: its
genomes share one length and variant, and its pool has at least
``config.RunConfig.min_pool_size`` terms, each of positive weight.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from operator import itemgetter

from .rng import derive_rng


class Variant(str, Enum):
    """Query formulation: exact quoted terms vs bare lemmas."""

    QUOTED = "quoted"
    LEMMA = "lemma"


@dataclass(frozen=True)
class QueryGenome:
    terms: tuple[str, ...]
    variant: Variant

    def __post_init__(self) -> None:
        if len(set(self.terms)) != len(self.terms):
            raise ValueError("genome terms must be distinct")


def _weighted_sample(
    items: list[tuple[str, float]], count: int, rng: random.Random
) -> list[str]:
    """Sample ``count`` distinct lemmas, probability proportional to weight.

    Weights are positive, as a pool's term frequencies are, and ``count``
    is at most ``len(items)``. The pick is the first item whose running
    weight total exceeds the draw, and one always does: ``random()`` is at most
    1 - 2**-53, and a total T above 2**-1022 times that rounds below T (T * 2**-53
    is over half an ulp of T, or, for a power of two, the gap to the float below).
    A pool's total, of term frequencies, is far above 2**-1022.
    """
    remaining = list(items)
    picked: list[str] = []
    for _ in range(count):
        # plain left-to-right addition: sum() compensates from Python 3.12 on
        totals = list(accumulate(map(itemgetter(1), remaining)))
        r = rng.random() * totals[-1]
        picked.append(remaining.pop(bisect_right(totals, r))[0])
    return picked


def seed_population(
    pool: list[tuple[str, float]],
    g2: int,
    g3: int,
    rng_seed: int,
    variant: Variant = Variant.LEMMA,
) -> list[QueryGenome]:
    """Draw g2 genomes of g3 distinct pool terms, weight-proportionally.

    Each genome gets its own derived stream so seeding order is immaterial.
    """
    genomes = []
    for i in range(g2):
        rng = derive_rng(rng_seed, f"seed-genome/{i}")
        terms = _weighted_sample(pool, g3, rng)
        genomes.append(QueryGenome(terms=tuple(terms), variant=variant))
    return genomes


def crossover(
    a: QueryGenome, b: QueryGenome, rng: random.Random
) -> tuple[QueryGenome, QueryGenome]:
    """Uniform term exchange over the parents' symmetric difference.

    Terms both parents carry are pinned into both children; the remaining
    term slots are paired positionally and each pair swaps with probability
    one half. Children therefore always partition the parents' term union
    as far as distinctness allows.
    """
    a_set, b_set = set(a.terms), set(b.terms)
    a_unique = [t for t in a.terms if t not in b_set]
    b_unique = [t for t in b.terms if t not in a_set]
    first: list[str] = []
    second: list[str] = []
    for ta, tb in zip(a_unique, b_unique):
        if rng.random() < 0.5:
            first.append(tb)
            second.append(ta)
        else:
            first.append(ta)
            second.append(tb)
    child_a = [t for t in a.terms if t in b_set] + first
    child_b = [t for t in b.terms if t in a_set] + second
    return (
        QueryGenome(terms=tuple(child_a), variant=a.variant),
        QueryGenome(terms=tuple(child_b), variant=a.variant),
    )


def mutate(
    g: QueryGenome, pool: list[tuple[str, float]], m1: float, rng: random.Random
) -> QueryGenome:
    """Replace one uniformly chosen term, with probability m1.

    The replacement is a weight-proportional draw from pool terms not
    already present, so distinctness is preserved.
    """
    terms = set(g.terms)
    candidates = [item for item in pool if item[0] not in terms]
    if rng.random() >= m1:
        return g
    position = rng.randrange(len(g.terms))
    replacement = _weighted_sample(candidates, 1, rng)[0]
    terms = list(g.terms)
    terms[position] = replacement
    return QueryGenome(terms=tuple(terms), variant=g.variant)


def render_query(g: QueryGenome) -> str:
    """Genome order preserved; quoted variant wraps each term in double quotes."""
    if g.variant is Variant.QUOTED:
        return " ".join(f'"{t}"' for t in g.terms)
    return " ".join(g.terms)
