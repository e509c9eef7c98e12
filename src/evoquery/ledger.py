"""Run-ledger persistence with a canonical JSON form.

A ledger is a directory: config.json (the ledger format, run parameters
and input file digests), generations.jsonl (one record per
generation), and final_results.json (the run-wide capped result list).
Every value is in one canonical form (sorted keys, compact separators,
ASCII escapes, floats as the shortest decimal that reads back to the same
value), that of ``canonical_json``, so equal runs produce byte-equal files
and replay can compare the files' exact text with the lines it renders
again. ``generation_line`` joins each generations.jsonl line from pieces
rendered once per run; a property test holds it equal to
``canonical_json`` of the record's payload.
A ledger is written into a hidden sibling directory and renamed into place,
so it appears whole or not at all. An error about a file read here names its path.
This module imports no other of the package but ``errors``: ``provider``
writes its index through ``staged_sibling``, and a hit is told from a
float by being a tuple, not by its class.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple

from .errors import ConfigInvalid, LedgerCorrupt

CONFIG_FILE = "config.json"
GENERATIONS_FILE = "generations.jsonl"
FINAL_RESULTS_FILE = "final_results.json"
# Version of the files' layout and spelling, recorded in config.json.
# Format 1 (no recorded version) spelled floats at 17 significant digits;
# format 2 also wrote the fields of a generation line that format 3 re-derives.
LEDGER_FORMAT = 3
DIGEST_CHUNK = 1 << 16  # bytes that file_digest reads at once, so it never holds a whole file
# Most pieces a LineFragments keeps, and json.dumps(ensure_ascii=True)'s own string encoder
FRAGMENT_MEMO_LIMIT = 1 << 16
_escape = json.encoder.encode_basestring_ascii


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no spaces, escaped non-ASCII.

    Floats are spelled by ``repr``; NaN and infinities raise ValueError.
    """
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False
    )


def file_digest(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb", buffering=0) as fh:
        while chunk := fh.read(DIGEST_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


@contextmanager
def staged_sibling(target: Path, directory: bool = False) -> Iterator[Path]:
    """A new hidden sibling of ``target`` (missing parents are made), an empty
    file or directory, for the block to fill; renamed onto ``target`` when the
    block ends, removed if it raises. Its name, ``.NAME.RANDOM.tmp``, is never
    one a killed process left behind; its mode is a plain ``open``'s or ``mkdir``'s."""
    target.parent.mkdir(parents=True, exist_ok=True)
    while True:
        staging = target.with_name(f".{target.name}.{os.urandom(6).hex()}.tmp")
        with suppress(FileExistsError):
            staging.mkdir() if directory else staging.touch(exist_ok=False)
            break
    try:
        yield staging
        os.replace(staging, target)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True) if directory else staging.unlink(missing_ok=True)
        raise


@contextmanager
def new_ledger_dir(ledger_dir: str | Path, config_payload: dict) -> Iterator[Path]:
    """A hidden directory beside ``ledger_dir`` holding config.json, for the block
    to write the other files into; renamed onto ``ledger_dir`` when the block
    ends, removed if it raises (see ``staged_sibling``). ``ledger_dir`` must be
    absent or an empty directory, the only kind rename(2) replaces."""
    target = Path(ledger_dir)
    if target.exists() and (not target.is_dir() or any(target.iterdir())):
        raise ConfigInvalid(f"ledger directory {target} exists and is not empty")
    with staged_sibling(target, directory=True) as staging:
        (staging / CONFIG_FILE).write_text(config_text(config_payload), encoding="utf-8")
        yield staging


def config_text(config_payload: dict) -> str:
    """The whole text of config.json: ``config_payload`` and our ``ledger_format``."""
    return canonical_json({**config_payload, "ledger_format": LEDGER_FORMAT}) + "\n"


def result_to_payload(result, a_factor: float) -> dict:
    """A ``ScoredResult`` as final_results.json holds it; ``environment`` is ``a_factor``."""
    return {
        "url": result.hit.doc_url,
        "host": result.hit.doc_host,
        "title": result.hit.title,
        "snippet": result.hit.snippet,
        "position": result.position,
        "rank": result.rank_component,
        "crossquery": result.crossquery_component,
        "semantic": result.semantic_component,
        "environment": a_factor,
        "fitness": result.fitness,
    }


class LineFragments(dict):
    """The pieces of one run's generations.jsonl lines, each rendered once: a float's
    spelling (``json.dumps``'s; NaN and infinities raise ValueError) and a hit's text
    before and after its result's position; a hit is the one tuple key, since a
    ``SearchHit`` is a NamedTuple. Up to ``FRAGMENT_MEMO_LIMIT`` pieces are kept,
    but never zero's, since 0.0 and -0.0 are one key."""

    def __missing__(self, key):
        if isinstance(key, tuple):
            text = (f',"host":{_escape(key.doc_host)},"position":',
                    f',"snippet":{_escape(key.snippet)},"title":{_escape(key.title)}'
                    f',"url":{_escape(key.doc_url)}}}')
        elif math.isfinite(key):
            text = float.__repr__(key)
        else:
            raise ValueError(f"non-finite float {key!r} cannot enter a ledger")
        if key and len(self) < FRAGMENT_MEMO_LIMIT:
            self[key] = text
        return text


def generation_line(record, fragments: LineFragments | None = None) -> str:
    """One line of generations.jsonl and its newline: a ``GenerationRecord`` in
    canonical JSON, without its ``top_results``, each query's ``hits`` or what
    ``QueryOutcome`` says a line leaves out. Joined once in sorted key order from
    ``fragments`` (a run's own, or new ones), so a result's text is copied once
    into the line."""
    piece = LineFragments() if fragments is None else fragments
    parts = [f'{{"generation":{record.generation},"population_fitness":'
             f'{piece[record.population_fitness]},"queries":[']
    query_comma = ""
    for query in record.queries:
        issued_at = "null" if query.issued_at is None else piece[query.issued_at]
        parts.append(f'{query_comma}{{"issued_at":{issued_at},"query_fitness":'
                     f'{piece[query.query_fitness]},"results":[')
        comma, query_comma = "", ","
        for r in query.results:
            before, after = piece[r.hit]
            parts.append(f'{comma}{{"crossquery":{piece[r.crossquery_component]},"fitness":'
                         f'{piece[r.fitness]}{before}{r.position},"semantic":'
                         f'{piece[r.semantic_component]}{after}')
            comma = ","
        parts.append(f'],"terms":[{",".join(map(_escape, query.terms))}]'
                     f',"variant":{_escape(query.variant.value)}}}')
    parts.append(f'],"reference_digest":{_escape(record.reference_digest)}}}\n')
    return "".join(parts)


def ledger_file(ledger_dir: str | Path, name: str) -> Path:
    """The path of one ledger file, which must exist."""
    path = Path(ledger_dir) / name
    if not path.is_file():
        raise LedgerCorrupt(f"missing {name} in {ledger_dir}")
    return path


def read_ledger_file(ledger_dir: str | Path, name: str) -> str:
    """The exact text of one ledger file; line ends are not translated."""
    path = ledger_file(ledger_dir, name)
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LedgerCorrupt(f"{path} is not UTF-8: {exc}") from None


def stored_generation_lines(ledger_dir: str | Path) -> Iterator[str]:
    """Each line of generations.jsonl, read one at a time; lines end at LF
    alone, which each keeps (the last may lack it)."""
    path = ledger_file(ledger_dir, GENERATIONS_FILE)
    with open(path, "rb") as fh:
        for line_no, data in enumerate(fh, start=1):
            try:
                yield data.decode("utf-8")
            except UnicodeDecodeError as exc:
                byte = f"byte 0x{data[exc.start]:02x}"
                raise LedgerCorrupt(f"{path}: line {line_no}: {byte} is not UTF-8") from None


def parse_ledger_json(text: str, where: str) -> Any:
    """Parse one ledger document; ``where`` names it in the LedgerCorrupt raised."""
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
        raise LedgerCorrupt(f"{where} is not valid JSON: {exc}") from exc


def read_config_payload(ledger_dir: str | Path) -> dict:
    """config.json's object without its ``ledger_format``, which must be ours."""
    path = Path(ledger_dir) / CONFIG_FILE
    payload = parse_ledger_json(read_ledger_file(ledger_dir, CONFIG_FILE), str(path))
    if not isinstance(payload, dict):
        raise LedgerCorrupt(f"{path} must hold an object")
    found = payload.pop("ledger_format", 1)  # format 1 recorded no version
    if found != LEDGER_FORMAT:
        raise LedgerCorrupt(
            f"{path} holds ledger format {found!r}, but only format {LEDGER_FORMAT} "
            "is supported; run evolve again to write a new ledger"
        )
    return payload


def parse_record_line(line: str, line_no: int, path: str | Path) -> dict:
    where = f"{path} line {line_no}"
    payload = parse_ledger_json(line, where)
    if not isinstance(payload, dict):
        raise LedgerCorrupt(f"{where} must hold an object")
    return payload


def ledger_ordering(ledger_dir: str | Path) -> list[str]:
    """The urls of final_results.json, in order; each must be a distinct string."""
    path = Path(ledger_dir) / FINAL_RESULTS_FILE
    payload = parse_ledger_json(read_ledger_file(ledger_dir, FINAL_RESULTS_FILE), str(path))
    if not isinstance(payload, list):
        raise LedgerCorrupt(f"{path} must hold an array")
    urls: dict[str, None] = {}
    for i, entry in enumerate(payload):
        if not isinstance(entry, dict) or not isinstance(entry.get("url"), str):
            raise LedgerCorrupt(f"{path}: entry {i} lacks a string url")
        if entry["url"] in urls:
            raise LedgerCorrupt(f"{path}: entry {i} repeats url {entry['url']!r}")
        urls[entry["url"]] = None
    return list(urls)


class _Absent:
    """The missing side of a key that only one tree holds."""

    def __repr__(self) -> str:
        return "<absent>"


ABSENT = _Absent()


class Divergence(NamedTuple):
    path: str
    expected: Any
    actual: Any


def text_divergence(
    stored: str, fresh: str, parse: Callable[[str], Any], path: str = ""
) -> Divergence:
    """Where two unequal texts first differ: the first differing field of what
    ``parse`` reads from them, else ``<bytes at column N>`` (N counted from 1),
    with each text clipped to 40 characters either side."""
    found = first_divergence(parse(stored), parse(fresh), path)
    if found:
        return found
    at = next((i for i, pair in enumerate(zip(stored, fresh)) if pair[0] != pair[1]),
              min(len(stored), len(fresh)))
    window = slice(max(0, at - 40), at + 40)
    return Divergence(f"<bytes at column {at + 1}>", stored[window], fresh[window])


def first_divergence(expected: Any, actual: Any, path: str = "") -> Divergence | None:
    """Walk two parsed JSON trees to the first differing field and its values.

    A list length mismatch is reported at ``<path>.length`` with the two
    lengths; a key held by one tree only has ``ABSENT`` on the other side.
    """
    if type(expected) is not type(actual):
        return Divergence(path or "<root>", expected, actual)
    if isinstance(expected, dict):
        for key in sorted(set(expected) | set(actual)):
            key_path = f"{path}.{key}" if path else key
            if key not in expected or key not in actual:
                return Divergence(key_path, expected.get(key, ABSENT), actual.get(key, ABSENT))
            found = first_divergence(expected[key], actual[key], key_path)
            if found:
                return found
        return None
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return Divergence(f"{path}.length" if path else "length", len(expected), len(actual))
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = first_divergence(e, a, f"{path}[{i}]")
            if found:
                return found
        return None
    if expected != actual:
        return Divergence(path or "<root>", expected, actual)
    return None
