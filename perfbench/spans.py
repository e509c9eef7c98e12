"""In-memory span recorder and the per-layer metrics derived from its spans.

A traced stage wraps the package's public functions at the module
attributes their callers look them up through (``install``), records one
span per call, and dumps the spans when the stage ends. Nothing here is
imported by an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import time

# Per-layer metric -> (unit, which end-to-end metric it should move, where).
PER_LAYER = {
    "cli.import_s": ("s", "every *_s metric on every workload; largest share on bundled-wide"),
    "corpus.load_corpus_s": ("s", "setup_s on scaled-*"),
    "corpus.normalize_s": ("s", "setup_s on scaled-*; evolve_s and replay_s on bundled-wide"),
    "corpus.normalize_calls": (
        "count", "setup_s on scaled-*; evolve_s and replay_s on bundled-wide"
    ),
    "provider.build_index_s": ("s", "setup_s and index_bytes on scaled-*"),
    "provider.save_index_s": ("s", "setup_s and index_bytes on scaled-*"),
    "provider.load_index_s": (
        "s", "evolve_s, replay_s, peak_rss_mb on scaled-*; largest on scaled-conjunctive"
    ),
    "provider.execute_disjunctive_s": ("s", "evolve_s and replay_s on scaled-disjunctive"),
    "provider.execute_disjunctive_calls": ("count", "evolve_s and replay_s on scaled-disjunctive"),
    "provider.execute_disjunctive_ms_p50": ("ms", "evolve_s and replay_s on scaled-disjunctive"),
    "provider.execute_disjunctive_ms_tail": ("ms", "evolve_s and replay_s on scaled-disjunctive"),
    "provider.execute_conjunctive_s": ("s", "evolve_s on scaled-conjunctive"),
    "provider.execute_conjunctive_calls": ("count", "evolve_s on scaled-conjunctive"),
    "provider.execute_conjunctive_ms_p50": ("ms", "evolve_s on scaled-conjunctive"),
    "fitness.score_query_results_s": ("s", "evolve_s and replay_s on bundled-wide"),
    "fitness.semantic_score_s": ("s", "evolve_s and replay_s on bundled-wide"),
    "fitness.cross_query_score_s": ("s", "evolve_s and replay_s on bundled-wide"),
    "fitness.update_reference_text_s": ("s", "evolve_s and replay_s on bundled-wide"),
    "fitness.aggregate_s": ("s", "evolve_s and replay_s on bundled-wide"),
    "evolution.select_survivors_s": ("s", "evolve_s on every workload (small)"),
    "evolution.run_evolution_self_s": ("s", "evolve_s on every workload (small)"),
    "evolution.replay_self_s": ("s", "replay_s on bundled-wide"),
    "ledger.write_s": ("s", "evolve_s and ledger_bytes on bundled-wide"),
    "ledger.canonical_json_s": ("s", "evolve_s, replay_s and ledger_bytes on bundled-wide"),
    "ledger.file_digest_s": ("s", "evolve_s and replay_s on scaled-*"),
    "evaluation.evaluate_s": ("s", "pipeline_s on every workload"),
    "report.write_report_s": ("s", "pipeline_s on every workload"),
    "provider.candidates_per_query": ("count", "explains evolve_s on scaled-*"),
    "provider.empty_result_ratio": ("ratio", "explains evolve_s on scaled-conjunctive"),
    "fitness.hits_scored": ("count", "explains evolve_s on bundled-wide"),
    "fitness.hit_repeat_ratio": ("ratio", "bounds what a per-run hit memo can save"),
    "ledger.bytes_per_result": ("B", "explains ledger_bytes"),
    "trace.overhead_s": ("s", "traced minus untraced pipeline_s"),
}

# Span name -> the "module.attribute" call sites wrapped to record it.
# Each target is the name its caller resolves at call time, so a caller
# that imported a function by name is wrapped in the caller's namespace.
_EVALUATION_CALLS = (
    "load_qrels", "consensus_map", "missing_grades", "mean_relevance", "precision",
    "dcg", "ndcg", "ideal_ordering", "cumulative_dcg_series", "rho12", "overlap_percent",
)
TARGETS = {
    "corpus.load_corpus": ("cli.load_corpus", "evolution.load_corpus"),
    "corpus.normalize": ("corpus.SuffixNormalizer.normalize",),
    "provider.build_index": ("cli.build_index",),
    "provider.save_index": ("cli.save_index",),
    "provider.load_index": ("evolution.load_index",),
    "fitness.score_query_results": ("evolution.score_query_results",),
    "fitness.semantic_score": ("fitness.semantic_score",),
    "fitness.cross_query_score": ("fitness.cross_query_score",),
    "fitness.update_reference_text": ("evolution.update_reference_text",),
    "fitness.aggregate": ("evolution.aggregate_results", "evolution.merge_into_global"),
    "evolution.select_survivors": ("evolution.select_survivors",),
    "evolution.run_evolution": ("cli.run_evolution", "evolution.run_evolution"),
    "evolution.replay": ("cli.replay",),
    "ledger.write": ("cli.write_run_ledger",),
    "ledger.canonical_json": ("ledger.canonical_json", "evolution.canonical_json"),
    "ledger.file_digest": ("evolution.file_digest",),
    "evaluation.evaluate": tuple(f"cli.{name}" for name in _EVALUATION_CALLS),
    "report.write_report": ("cli.write_report",),
}
EXECUTE_TARGET = "provider.OfflineProvider.execute"


class SpanRecorder:
    """Spans as (name, start, end, parent index) kept in call order."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent])

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name_of, fn):
        """``fn`` recording a span per call; ``name_of(args)`` names it."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = recorder.open(name_of(args))
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(index)

        return traced


def _resolve(target: str):
    """(owner object, attribute name) for a dotted target under evoquery."""
    module_name, *attrs = target.split(".")
    owner = importlib.import_module(f"evoquery.{module_name}")
    for attr in attrs[:-1]:
        owner = getattr(owner, attr)
    return owner, attrs[-1]


def install(recorder: SpanRecorder) -> list[str]:
    """Wrap every target; returns the targets that no longer exist."""
    missing = []
    for name, targets in TARGETS.items():
        for target in targets:
            owner, attr = _resolve(target)
            if not hasattr(owner, attr):
                missing.append(target)
                continue
            setattr(owner, attr, recorder.wrap(lambda args, n=name: n, getattr(owner, attr)))

    owner, attr = _resolve(EXECUTE_TARGET)
    from evoquery.provider import parse_query

    def execute_name(args) -> str:
        conjunctive = parse_query(args[1])[1]
        return "provider.execute_conjunctive" if conjunctive else "provider.execute_disjunctive"

    setattr(owner, attr, recorder.wrap(execute_name, getattr(owner, attr)))
    return missing


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def _outermost(spans: list[list], index: int) -> bool:
    """No ancestor span carries the same name (so nested time counts once)."""
    name, parent = spans[index][0], spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return False
        parent = spans[parent][3]
    return True


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of already sorted values; 0.0 when empty."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_fraction(count: int) -> float | None:
    """The highest of p99.9/p99/p90/p50 with at least 10 samples beyond it."""
    for fraction in (0.999, 0.99, 0.9, 0.5):
        if count * (1.0 - fraction) >= 10:
            return fraction
    return None


def layer_metrics(stage_dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pipeline pass from its stages' span dumps."""
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    selfs: dict[str, float] = {}
    imports: list[float] = []
    execute_ms: dict[str, list[float]] = {"disjunctive": [], "conjunctive": []}
    for dump in stage_dumps:
        spans = dump["spans"]
        for index, ((name, start, end, _), own) in enumerate(zip(spans, self_times(spans))):
            calls[name] = calls.get(name, 0) + 1
            selfs[name] = selfs.get(name, 0.0) + own
            if _outermost(spans, index):
                totals[name] = totals.get(name, 0.0) + (end - start)
            if name == "cli.import":
                imports.append(end - start)
            elif name.startswith("provider.execute_"):
                execute_ms[name.rpartition("_")[2]].append((end - start) * 1e3)

    metrics: dict[str, float] = {"cli.import_s": statistics.median(imports)}
    for metric in PER_LAYER:
        if metric.endswith("_self_s"):
            metrics[metric] = selfs.get(metric[: -len("_self_s")], 0.0)
        elif metric.endswith("_calls"):
            metrics[metric] = calls.get(metric[: -len("_calls")], 0)
        elif metric.endswith("_s") and metric not in metrics and metric != "trace.overhead_s":
            metrics[metric] = totals.get(metric[: -len("_s")], 0.0)
    for kind, samples in execute_ms.items():
        samples.sort()
        metrics[f"provider.execute_{kind}_ms_p50"] = percentile(samples, 0.5)
    disjunctive = execute_ms["disjunctive"]
    fraction = tail_fraction(len(disjunctive))
    metrics["provider.execute_disjunctive_ms_tail"] = (
        percentile(disjunctive, fraction) if fraction else 0.0
    )
    return metrics


def self_time_by_span(dump: dict) -> dict[str, float]:
    """Self time per span name within one stage."""
    result: dict[str, float] = {}
    for (name, *_), own in zip(dump["spans"], self_times(dump["spans"])):
        result[name] = result.get(name, 0.0) + own
    return result


def by_layer(span_self_s: dict[str, float]) -> dict[str, float]:
    """Sum span self times by layer, the span name's prefix."""
    result: dict[str, float] = {}
    for name, own in span_self_s.items():
        layer = name.split(".")[0]
        result[layer] = result.get(layer, 0.0) + own
    return result
