"""Exception types shared across the package; each names the input at fault.

``ParseError`` names a data file, ``ConfigInvalid`` a run configuration or
argument, ``LedgerCorrupt`` a ledger directory, ``DivergenceDetected`` a
ledger record that its replay does not reproduce, and ``ProviderError`` a
search engine or its answer.
"""

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
    the line. Lines end at LF, CR and CRLF, as the text-mode read ends them.
    """
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        message = f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        ends = data.count(b"\n", 0, exc.start) + data.count(b"\r", 0, exc.start)
        return ParseError(message, ends - data.count(b"\r\n", 0, exc.start) + 1, path)
    return ParseError(f"{path} changed while it was read")


class ProviderError(EvoqueryError):
    """The search provider could not be reached or returned a malformed response."""


class ConfigInvalid(EvoqueryError):
    """A run configuration violates its constraints."""


class LedgerCorrupt(EvoqueryError):
    """A run ledger directory is missing pieces, unreadable or not replayable."""


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
            f"stored {clip(repr(stored))}, fresh {clip(repr(fresh))}"
        )


def clip(text: str, limit: int = 200) -> str:
    return text if len(text) <= limit else text[: limit - 3] + "..."
