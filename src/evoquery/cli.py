"""Command-line front end.

Subcommands: index (corpus file to searchable index), keywords (seed
material to weighted lemma pool), evolve (run the generational loop and
persist its ledger), evaluate (judge orderings against qrels into a
metrics CSV), report (merge metrics CSVs and draw charts), replay
(re-derive a ledger and verify it byte for byte).

Exit codes: 0 success, 1 usage or validation failure, 2 provider or
environment failure. A reader that closes stdout early (``| head``) is not
a failure: the command exits 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from itertools import combinations
from pathlib import Path
from typing import NoReturn, Sequence

from .config import RunConfig
from .corpus import build_keyword_pool, data_lines, load_corpus, normalizer_for, require_file
from .errors import ConfigInvalid, DivergenceDetected, EvoqueryError, ParseError, ProviderError
from .evaluation import (
    DEFAULT_RELEVANCE_THRESHOLD,
    GRADE_SCALE,
    MetricRow,
    Persona,
    consensus_map,
    cumulative_dcg_series,
    dcg,
    ideal_ordering,
    load_qrels,
    mean_relevance,
    missing_grades,
    ndcg,
    overlap_percent,
    precision,
    rho12,
)
from .evolution import build_provider, make_run_inputs, replay, run_evolution, write_run_ledger
from .ledger import FINAL_RESULTS_FILE, ledger_ordering, staged_sibling
from .provider import build_index, save_index
from .report import METRIC_FAMILIES, metrics_csv_text, read_metrics_csv, write_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ENVIRONMENT = 2


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for the
    environment, so usage problems exit 1 instead."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _refuse_input_as_out(out: str | Path | None, inputs: list[tuple[str, str | None]]) -> None:
    """ConfigInvalid if ``out`` is a directory or would replace one of the (flag, path) inputs."""
    if out and os.path.isdir(out):
        raise ConfigInvalid(f"--out would write {out}, which is a directory")
    for flag, path in inputs:
        both = out and path and os.path.exists(out) and os.path.exists(path)
        if both and os.path.samefile(out, path):
            raise ConfigInvalid(f"--out would write {out}, which is the {flag} file {path}")


def cmd_index(args: argparse.Namespace) -> int:
    corpus_path = require_file(args.corpus, "corpus")
    _refuse_input_as_out(args.out, [("--corpus", corpus_path), ("--stop-words", args.stop_words)])
    # the corpus list is build_index's argument alone, so it is freed before the write
    index = build_index(load_corpus(corpus_path), normalizer_for(args.stop_words))
    save_index(index, args.out)
    print(f"indexed {index.doc_count} documents, vocabulary {index.vocabulary_size}")
    return EXIT_OK


def cmd_keywords(args: argparse.Namespace) -> int:
    corpus_path = require_file(args.corpus, "corpus")
    docs = load_corpus(corpus_path)
    pool = build_keyword_pool(docs, args.k, normalizer_for(args.stop_words), corpus_path)
    for lemma, weight in pool:
        print(f"{lemma}\t{weight:.6f}")
    return EXIT_OK


# Config keys that one source alone reads, each with the flag that chooses it
_SOURCE_KEYS = {
    "provider.full_body_snippets": "--index",
    "provider.api_key_header": "--endpoint",
    "provider.rate_limit_rps": "--endpoint",
    "stop_words_path": "--endpoint",  # an index records its own
}


def cmd_evolve(args: argparse.Namespace) -> int:
    payload = {}
    if args.config:
        config_path = require_file(args.config, "config")
        try:
            payload = json.loads(config_path.read_text(encoding="utf-8"))
        except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
            raise ConfigInvalid(f"config {config_path} is not valid JSON: {exc}") from exc
    keys = list(payload) if isinstance(payload, dict) else []
    provider_payload = payload.get("provider") if isinstance(payload, dict) else None
    if isinstance(provider_payload, dict):
        keys += [f"provider.{key}" for key in provider_payload]
    flag = "--index" if args.index else "--endpoint"
    for key in keys:
        if key in ("provider.kind", "provider.endpoint"):
            raise ConfigInvalid(
                f"config key {key} is not accepted; --index or --endpoint chooses the provider"
            )
        reader = _SOURCE_KEYS.get(key, flag)
        if reader != flag:
            message = f"config key {key} is not accepted with {flag}; only {reader} reads it"
            if key == "stop_words_path":
                message += "; an index keeps its stop words from `evoquery index --stop-words`"
            raise ConfigInvalid(message)
    config = RunConfig.from_payload(payload)
    seed_path = require_file(args.seed_material, "seed material")
    seed_docs = load_corpus(seed_path)

    if args.index:
        index_path = require_file(args.index, "index")
        inputs = make_run_inputs(args.out, index_path, seed_path)
    else:
        index_path = inputs = None
    spec = dataclasses.replace(
        config.provider, kind="offline" if args.index else "http", endpoint=args.endpoint
    )
    config = dataclasses.replace(config, provider=spec)

    provider = build_provider(spec, index_path)
    records = run_evolution(config, provider, seed_docs, seed_path)
    last = write_run_ledger(args.out, config, records, inputs)
    print(f"ledger written to {args.out}")
    print(f"final population fitness: {last.population_fitness:.6f}")
    print(f"top {len(last.top_results)} results:")
    for i, result in enumerate(last.top_results, start=1):
        print(f"  {i:2d}. {result.hit.doc_url}  fitness {result.fitness:.6f}")
    return EXIT_OK


def _list_ordering(path: Path) -> list[str]:
    urls: dict[str, None] = {}
    for line_no, url in data_lines(path):
        if url in urls:
            raise ParseError(f"repeated url {url!r}", line_no, path)
        urls[url] = None
    return list(urls)


def cmd_evaluate(args: argparse.Namespace) -> int:
    if not args.ledger and not args.list:
        raise ConfigInvalid("need --ledger and/or at least one --list ordering")
    inputs = [("--qrels", args.qrels), *(("--list", path) for path in args.list or [])]
    ledger_final = args.ledger and Path(args.ledger, FINAL_RESULTS_FILE)
    _refuse_input_as_out(args.out, [*inputs, ("--ledger", ledger_final)])
    grades = consensus_map(load_qrels(require_file(args.qrels, "qrels")))

    orderings: list[tuple[str, list[str]]] = []
    if args.ledger:
        orderings.append(("evolved", ledger_ordering(args.ledger)))
    for list_path in args.list or []:
        path = require_file(list_path, "ordering list")
        orderings.append((path.stem, _list_ordering(path)))
    names = [name for name, _ in orderings]
    if len(set(names)) != len(names):
        raise ConfigInvalid(f"ordering names must be distinct, got {names}")

    n = args.n
    tops = {name: urls[:n] for name, urls in orderings}
    personas = list(Persona) if args.persona == "both" else [Persona(args.persona)]
    rows: list[MetricRow] = []
    series: dict[tuple[str, str], list[float]] = {}  # each (ordering, persona)'s DCG series
    for name, top in tops.items():
        for persona in personas:
            code = persona.value
            values, missing = missing_grades([grades.get((url, persona)) for url in top])
            if missing:
                print(
                    f"note: {missing} of {len(top)} positions in {name!r} lack "
                    f"{code} judgments (scored 0)",
                    file=sys.stderr,
                )
            rows += [
                MetricRow("mean_relevance", name, code, n, mean_relevance(values)),
                MetricRow("precision", name, code, n, precision(values, args.threshold)),
                MetricRow("dcg", name, code, n, dcg(values, n)),
                MetricRow("ndcg", name, code, n, ndcg(values, n)),
            ]
            series[name, code] = cumulative_dcg_series(values, n)
            ideal_series = cumulative_dcg_series(ideal_ordering(values), n)
            value = rho12(series[name, code], ideal_series)
            if value is None:  # no grade of top is above 0, so neither series has energy
                what = f"has no {code} grade above 0" if top else "holds no urls"
                note = f"note: {name!r} {what}: {code} ndcg is 0 and rho12 is skipped"
                print(note, file=sys.stderr)
                continue
            rows.append(MetricRow("rho12", f"{name}|expert", code, n, value))

    for (left, left_top), (right, right_top) in combinations(tops.items(), 2):
        pair = f"{left}|{right}"
        overlap = overlap_percent(left_top, right_top)
        rows.append(MetricRow("overlap_percent", pair, "-", n, overlap))
        for persona in personas:
            series_a, series_b = series[left, persona.value], series[right, persona.value]
            shared = min(len(series_a), len(series_b))
            value = rho12(series_a[:shared], series_b[:shared])
            if value is None:
                print(
                    f"note: skipping rho12 for {pair!r}/{persona.value}: a series has zero energy",
                    file=sys.stderr,
                )
                continue
            rows.append(MetricRow("rho12", pair, persona.value, n, value))

    csv_text = metrics_csv_text(rows)
    if args.out:
        with staged_sibling(Path(args.out)) as staging:
            staging.write_text(csv_text, encoding="utf-8")
        print(f"wrote {args.out} ({len(rows)} rows)")
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    formats = ("csv", "svg") if args.format == "both" else (args.format,)
    names = ["merged.csv"] if "csv" in formats else []
    names += [f"{family}.svg" for family in METRIC_FAMILIES] if "svg" in formats else []
    for name in names:
        _refuse_input_as_out(Path(args.out, name), [("--metrics", path) for path in args.metrics])
    runs: dict[str, list[MetricRow]] = {}
    for path_text in args.metrics:
        path = require_file(path_text, "metrics file")
        if path.stem in runs:
            raise ConfigInvalid(f"duplicate run name {path.stem!r}; rename an input file")
        runs[path.stem] = read_metrics_csv(path)
    if not any(runs.values()):
        print("warning: inputs hold no metric rows; report will be empty", file=sys.stderr)
    for path in write_report(runs, args.out, formats):
        print(f"wrote {path}")
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    last = replay(args.ledger)
    print(f"replay verified: {last.generation + 1} generations byte-identical")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="evoquery",
        description="Evolve keyword queries against a search provider and "
        "evaluate the resulting document rankings.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    index_p = sub.add_parser("index", help="build a searchable index from a corpus")
    index_p.add_argument("--corpus", required=True, help="corpus JSONL file")
    index_p.add_argument("--out", required=True, help="index output path")
    index_p.add_argument("--stop-words", help="stop word list, one per line")
    index_p.set_defaults(func=cmd_index)

    keywords_p = sub.add_parser("keywords", help="extract a weighted keyword pool")
    keywords_p.add_argument("--corpus", required=True, help="seed material JSONL file")
    keywords_p.add_argument(
        "--k", type=_positive_int, default=RunConfig.keyword_pool_size, help="pool size"
    )
    keywords_p.add_argument("--stop-words", help="stop word list, one per line")
    keywords_p.set_defaults(func=cmd_keywords)

    evolve_p = sub.add_parser("evolve", help="run the query-evolution loop")
    evolve_p.add_argument("--config", help="run config JSON; omit for defaults")
    evolve_p.add_argument("--seed-material", required=True, help="seed documents JSONL")
    source = evolve_p.add_mutually_exclusive_group(required=True)
    source.add_argument("--index", help="offline index path")
    source.add_argument("--endpoint", help="HTTP search API endpoint")
    evolve_p.add_argument("--out", required=True, help="ledger output directory")
    evolve_p.set_defaults(func=cmd_evolve)

    evaluate_p = sub.add_parser("evaluate", help="score orderings against judgments")
    evaluate_p.add_argument("--ledger", help="run ledger directory (ordering 'evolved')")
    evaluate_p.add_argument(
        "--list", action="append", help="ordering file of urls, named by file stem"
    )
    evaluate_p.add_argument("--qrels", required=True, help="judgments TSV")
    evaluate_p.add_argument("--persona", choices=["S", "N", "both"], default="both")
    evaluate_p.add_argument("--n", type=_positive_int, default=20, help="evaluation cutoff")
    evaluate_p.add_argument(
        "--threshold", type=int, choices=GRADE_SCALE, default=DEFAULT_RELEVANCE_THRESHOLD,
        help="consensus grade counted as relevant",
    )
    evaluate_p.add_argument("--out", help="metrics CSV path; stdout when omitted")
    evaluate_p.set_defaults(func=cmd_evaluate)

    report_p = sub.add_parser("report", help="merge metrics CSVs and draw charts")
    report_p.add_argument("--metrics", nargs="+", required=True, help="metrics CSV files")
    report_p.add_argument("--out", required=True, help="report output directory")
    report_p.add_argument("--format", choices=["csv", "svg", "both"], default="both")
    report_p.set_defaults(func=cmd_report)

    replay_p = sub.add_parser("replay", help="re-derive a ledger and verify it")
    replay_p.add_argument("--ledger", required=True, help="run ledger directory")
    replay_p.set_defaults(func=cmd_replay)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader has gone; point stdout at devnull so the flush at exit
        # does not fail on what is still buffered
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except ProviderError as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return EXIT_ENVIRONMENT
    except DivergenceDetected as exc:
        print(f"divergence detected: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EvoqueryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"environment error: {exc}", file=sys.stderr)
        return EXIT_ENVIRONMENT


if __name__ == "__main__":
    raise SystemExit(main())
