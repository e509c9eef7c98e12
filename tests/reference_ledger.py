"""The ledger format 1 writer, a format 3 expander and the format 3 record
payload, kept as test references.

Format 1 spelled every float at 17 significant digits; format 2 spells it
by ``repr``. Both hold the same values, so parsing a format-2 document and
writing it back through ``reference_canonical_json`` must give the format-1
bytes, which lets the format-1 golden digests keep gating the values.

Format 3's generation lines leave out five fields that the line and the
run config give. ``expand_format_3_record`` puts them back, so a format-3
line gives the format-2 line, and from it the format-1 line.

``record_payload`` is the plain dict of a format-3 generation line, which
``canonical_json`` of it must spell as ``ledger.generation_line`` does.
"""

import json
import math


def reference_format_float(value):
    """The format-1 spelling of a float: 17 significant digits, always with a "." or exponent."""
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"non-finite float {value!r} cannot enter a ledger")
    text = f"{value:.17g}"
    if not any(ch in text for ch in ".eE"):
        text += ".0"
    return text


def reference_canonical_json(value):
    """The plain recursive format-1 writer."""
    if value is None or isinstance(value, (bool, int, str)):
        return json.dumps(value, ensure_ascii=True)
    if isinstance(value, float):
        return reference_format_float(value)
    if isinstance(value, dict):
        items = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"ledger object keys must be strings, got {key!r}")
            label = json.dumps(key, ensure_ascii=True)
            items.append(label + ":" + reference_canonical_json(value[key]))
        return "{" + ",".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(reference_canonical_json(item) for item in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__} into a ledger")


def expand_format_3_record(record, config):
    """The format-2 record of format-3 ``record`` (both parsed), under the
    ``config`` section of its ledger's config.json.

    Each query gets back its ``genome_id`` (``g`` and its place in the
    list), ``provider_name`` (the provider's kind) and ``query_string`` (its
    terms joined by spaces, each quoted when the variant is quoted); each
    result its ``rank`` (1 at position 1, falling by 1/L a place over the
    query's L results) and ``environment`` (the run's ``a_factor``).
    """
    queries = []
    for place, query in enumerate(record["queries"]):
        quote = '"' if query["variant"] == "quoted" else ""
        count = len(query["results"])
        results = [
            {**result, "rank": (count - result["position"] + 1) / count,
             "environment": config["a_factor"]}
            for result in query["results"]
        ]
        queries.append({
            **query,
            "genome_id": f"g{place}",
            "provider_name": config["provider"]["kind"],
            "query_string": " ".join(f"{quote}{term}{quote}" for term in query["terms"]),
            "results": results,
        })
    return {**record, "queries": queries}


def query_payload(query):
    """A ``QueryOutcome`` as its generation line holds it: no query string, and
    no result's rank or environment."""
    return {
        "terms": list(query.terms),
        "variant": query.variant.value,
        "issued_at": query.issued_at,
        "query_fitness": query.query_fitness,
        "results": [
            {
                "url": r.hit.doc_url,
                "host": r.hit.doc_host,
                "title": r.hit.title,
                "snippet": r.hit.snippet,
                "position": r.position,
                "crossquery": r.crossquery_component,
                "semantic": r.semantic_component,
                "fitness": r.fitness,
            }
            for r in query.results
        ],
    }


def record_payload(record):
    """A ``GenerationRecord`` as its generation line holds it: no top results."""
    return {
        "generation": record.generation,
        "queries": [query_payload(q) for q in record.queries],
        "population_fitness": record.population_fitness,
        "reference_digest": record.reference_digest,
    }
