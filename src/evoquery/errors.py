"""Exception types shared across the package."""

from __future__ import annotations

from pathlib import Path
from typing import Any


class EvoqueryError(Exception):
    """Base class for all package-specific errors."""


class ParseError(EvoqueryError):
    """A data file could not be parsed; the message names the file and 1-based line if given."""

    def __init__(self, message: str, line: int | None = None, path: str | Path | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


def not_utf8(path: str | Path) -> ParseError:
    """A ParseError naming ``path`` and the line of its first byte that is not UTF-8.

    For a text-mode read of ``path`` that failed to decode: its error gives
    an offset within one buffered chunk, so the file is read again to find
    the line.
    """
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        message = f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        return ParseError(message, data.count(b"\n", 0, exc.start) + 1, path)
    return ParseError(f"{path} changed while it was read")


class DuplicateId(ParseError):
    """A corpus file contains the same document id twice."""


class EmptyDocument(EvoqueryError):
    """A document body normalized to zero lemmas."""


class PoolTooSmall(EvoqueryError):
    """The keyword pool cannot supply enough distinct terms."""


class EmptyCorpus(EvoqueryError):
    """An index build was attempted over zero documents."""


class ProviderUnavailable(EvoqueryError):
    """The search provider could not be reached."""


class ProtocolError(EvoqueryError):
    """The search provider returned a malformed response."""


class ConfigInvalid(EvoqueryError):
    """A run configuration violates its constraints."""


class LedgerCorrupt(EvoqueryError):
    """A run ledger directory is missing pieces or unreadable."""


class NonReplayableLedger(EvoqueryError):
    """The ledger was produced by a provider whose results cannot be re-derived."""


class DivergenceDetected(EvoqueryError):
    """Replay produced a record that differs from the persisted one.

    Carries the ledger's (``stored``) and the rerun's (``fresh``) values at
    ``field`` and shows both in its message.
    """

    def __init__(self, generation: int, field: str, stored: Any, fresh: Any):
        self.generation = generation
        self.field = field
        self.stored = stored
        self.fresh = fresh
        super().__init__(
            f"generation {generation} diverges at {field}: "
            f"stored {_clip(repr(stored))}, fresh {_clip(repr(fresh))}"
        )


def _clip(text: str, limit: int = 200) -> str:
    return text if len(text) <= limit else text[: limit - 3] + "..."


class DuplicateJudgment(ParseError):
    """A qrels file repeats a (url, expert, persona) key."""


class GradeOutOfRange(ParseError):
    """A relevance grade fell outside the 0..3 scale."""


class ZeroEnergySequence(EvoqueryError):
    """A correlation was requested for an empty or all-zero sequence."""
