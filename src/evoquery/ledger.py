"""Run-ledger persistence with a canonical JSON form.

A ledger is a directory: config.json (run parameters and input file
fingerprints), generations.jsonl (one record per generation), and
final_results.json (the run-wide capped result list). Every value is
serialized through one canonical dumper (sorted keys, compact separators,
ASCII escapes, floats at 17 significant digits) so equal runs produce
byte-equal files and replay can compare lines directly.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .errors import LedgerCorrupt

CONFIG_FILE = "config.json"
GENERATIONS_FILE = "generations.jsonl"
FINAL_RESULTS_FILE = "final_results.json"


_escape_string = json.encoder.encode_basestring_ascii


def format_float(value: float) -> str:
    """17-significant-digit decimal, always spelled as a float literal."""
    text = f"{value:.17g}"
    if "." in text or "e" in text:
        return text
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"non-finite float {value!r} cannot enter a ledger")
    return text + ".0"


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no spaces, escaped non-ASCII."""
    parts: list[str] = []
    _write_canonical(value, parts.append, {})
    return "".join(parts)


def _write_canonical(value: Any, emit: Callable[[str], None], labels: dict[str, str]) -> None:
    """Append ``value``'s canonical text through ``emit``.

    ``labels`` maps each object key already seen in this document to its
    escaped ``"key":`` text, so repeated keys are escaped once.
    """
    if isinstance(value, str):
        emit(_escape_string(value))
    elif isinstance(value, float):
        emit(format_float(value))
    elif isinstance(value, dict):
        separator = "{"
        for key in sorted(value):
            label = labels.get(key)
            if label is None:
                if not isinstance(key, str):
                    raise TypeError(f"ledger object keys must be strings, got {key!r}")
                label = labels[key] = _escape_string(key) + ":"
            emit(separator)
            emit(label)
            _write_canonical(value[key], emit, labels)
            separator = ","
        emit("}" if separator == "," else "{}")  # "{}" when nothing was written
    elif isinstance(value, (list, tuple)):
        separator = "["
        for item in value:
            emit(separator)
            _write_canonical(item, emit, labels)
            separator = ","
        emit("]" if separator == "," else "[]")  # "[]" when nothing was written
    elif value is None or isinstance(value, (bool, int)):
        emit(json.dumps(value, ensure_ascii=True))
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} into a ledger")


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_ledger_dir(
    ledger_dir: str | Path,
    config_payload: dict,
    generation_payloads: list[dict],
    final_results_payload: list[dict],
) -> None:
    directory = Path(ledger_dir)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / CONFIG_FILE).write_text(
        canonical_json(config_payload) + "\n", encoding="utf-8"
    )
    with open(directory / GENERATIONS_FILE, "w", encoding="utf-8") as fh:
        for payload in generation_payloads:
            fh.write(canonical_json(payload) + "\n")
    (directory / FINAL_RESULTS_FILE).write_text(
        canonical_json(final_results_payload) + "\n", encoding="utf-8"
    )


def _read_ledger_file(ledger_dir: str | Path, name: str) -> str:
    path = Path(ledger_dir) / name
    if not path.is_file():
        raise LedgerCorrupt(f"missing {name} in {ledger_dir}")
    return path.read_text(encoding="utf-8")


def read_config_payload(ledger_dir: str | Path) -> dict:
    try:
        payload = json.loads(_read_ledger_file(ledger_dir, CONFIG_FILE))
    except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
        path = Path(ledger_dir) / CONFIG_FILE
        raise LedgerCorrupt(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise LedgerCorrupt(f"{CONFIG_FILE} must hold an object")
    return payload


def read_generation_lines(ledger_dir: str | Path) -> list[str]:
    lines = _read_ledger_file(ledger_dir, GENERATIONS_FILE).splitlines()
    return [line for line in lines if line.strip()]


def read_final_results_text(ledger_dir: str | Path) -> str:
    return _read_ledger_file(ledger_dir, FINAL_RESULTS_FILE)


def parse_record_line(line: str, line_no: int) -> dict:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise LedgerCorrupt(f"generation line {line_no} is not valid JSON: {exc.msg}") from exc
    if not isinstance(payload, dict):
        raise LedgerCorrupt(f"generation line {line_no} must hold an object")
    return payload


class _Absent:
    """The missing side of a key that only one tree holds."""

    def __repr__(self) -> str:
        return "<absent>"


ABSENT = _Absent()


class Divergence(NamedTuple):
    path: str
    expected: Any
    actual: Any


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
