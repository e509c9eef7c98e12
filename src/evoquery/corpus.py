"""Document ingestion, text normalization, term weighting and keyword pools.

A corpus is a newline-delimited JSON file, one document per line with the
fields ``id``, ``url``, ``host``, ``title`` and ``body``. Normalization turns
raw text into a stream of lemmas via a deliberately small suffix stripper.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from operator import mul
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence
from urllib.parse import urlsplit

from .errors import ConfigInvalid, ParseError, not_utf8

class Document(NamedTuple):
    """One corpus item: the search target and the seed-material carrier."""

    id: str
    url: str
    host: str
    title: str
    body: str


# Most raw tokens an instance memoizes; past this, lemmas are computed
# uncached, so a Zipfian vocabulary cannot grow the memo without limit.
LEMMA_MEMO_LIMIT = 1 << 16


def _lemma(token: str, stop_words: frozenset[str]) -> str | None:
    word = "".join(ch for ch in token.lower() if ch.isalpha())
    if len(word) < 2:
        return None
    if word.endswith("ing") and len(word) - 3 >= 3:
        word = word[:-3]
    elif word.endswith("ed") and len(word) - 2 >= 3:
        word = word[:-2]
    elif word.endswith("s") and len(word) - 1 >= 3:
        word = word[:-1]
    return None if word in stop_words else word


class _LemmaMemo(dict):
    """Raw token to its ``_lemma``: a miss computes it, and keeps it while the
    memo holds fewer than ``LEMMA_MEMO_LIMIT`` tokens."""

    def __init__(self, stop_words: frozenset[str]) -> None:
        super().__init__()
        self.stop_words = stop_words

    def __missing__(self, token: str) -> str | None:
        lemma = _lemma(token, self.stop_words)
        if len(self) < LEMMA_MEMO_LIMIT:
            self[token] = lemma
        return lemma


class SuffixNormalizer:
    """Default normalizer: lowercase, strip punctuation/digits, suffix-stem.

    Tokens are whitespace-split, lowercased, and stripped of every
    non-letter character. Tokens shorter than two characters are dropped.
    Exactly one suffix rule may then fire, tried in order: strip a trailing
    "ing", else "ed", else "s", each only when the remainder keeps at least
    three characters. Stop words are removed after stemming.

    A token's lemma depends only on the token and the stop words, so each
    instance memoizes it per raw token, up to ``LEMMA_MEMO_LIMIT`` tokens.
    ``lemma_of`` looks a token up in that memo (``None`` for a dropped
    token), so ``map`` can lemmatize a token list with no Python loop.
    Equality, hash and repr leave the memo out.
    """

    __slots__ = ("stop_words", "_lemmas")

    def __init__(self, stop_words: frozenset[str] = frozenset()) -> None:
        self.stop_words = stop_words
        self._lemmas = _LemmaMemo(stop_words)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SuffixNormalizer) and self.stop_words == other.stop_words

    def __hash__(self) -> int:
        return hash(self.stop_words)

    def __repr__(self) -> str:
        return f"SuffixNormalizer(stop_words={self.stop_words!r})"

    @property
    def lemma_of(self) -> Callable[[str], str | None]:
        """The lemma of one raw token, or ``None`` for a dropped token."""
        return self._lemmas.__getitem__

    def normalize(self, raw: str) -> list[str]:
        return list(filter(None, map(self.lemma_of, raw.split())))


DEFAULT_NORMALIZER = SuffixNormalizer()


def text_lines(path: str | Path) -> Iterator[str]:
    """The lines of a UTF-8 text file; a byte that is not UTF-8 is a ParseError
    naming the file and line."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError:
            raise not_utf8(path) from None


def data_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each line of ``path`` that is neither
    blank nor a ``#`` comment; lines end where ``text_lines`` ends them."""
    for line_no, line in enumerate(text_lines(path), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield line_no, stripped


def load_stop_words(path: str | Path) -> frozenset[str]:
    """Read a stop-word file: one word per line, ``#`` starts a comment."""
    return frozenset(word.lower() for _, word in data_lines(path))


def require_file(path: str | Path, what: str) -> Path:
    """``path`` as a Path; ConfigInvalid naming it and ``what`` it is if no file is there."""
    resolved = Path(path)
    if not resolved.is_file():
        raise ConfigInvalid(f"{what} not found: {resolved}")
    return resolved


def normalizer_for(stop_words_path: str | Path | None) -> SuffixNormalizer:
    """The suffix normalizer, removing the words of ``stop_words_path`` if given."""
    if not stop_words_path:
        return DEFAULT_NORMALIZER
    return SuffixNormalizer(stop_words=load_stop_words(require_file(stop_words_path, "stop words")))


class TermVector(NamedTuple):
    """A sparse lemma-to-weight map with its Euclidean norm."""

    entries: dict[str, float]
    norm: float

    @classmethod
    def from_weights(cls, entries: dict[str, float]) -> TermVector:
        norm = math.sqrt(math.fsum(w * w for w in entries.values()))
        return cls(dict(entries), norm)

    @classmethod
    def from_lemmas(cls, lemmas: Sequence[str]) -> TermVector:
        """Length-normalized term frequencies: weights sum to 1."""
        if not lemmas:
            return cls({}, 0.0)
        total = len(lemmas)
        counts = Counter(lemmas)
        return cls.from_weights({t: c / total for t, c in counts.items()})

    def cosine(self, other: TermVector) -> float:
        """Cosine similarity; 0 when either vector is empty. ``fsum`` rounds the
        exact sum once, so the products may come in any order: a set's."""
        if self.norm == 0.0 or other.norm == 0.0:
            return 0.0
        common = self.entries.keys() & other.entries.keys()
        weights = map(self.entries.__getitem__, common), map(other.entries.__getitem__, common)
        return math.fsum(map(mul, *weights)) / (self.norm * other.norm)


def extract_keywords(vec: TermVector, k: int) -> list[tuple[str, float]]:
    """The keyword pool: top-``k`` (lemma, weight) entries, ordered for sampling.

    Strictly sorted by weight descending, then lemma ascending, so no lemma
    repeats.
    """
    ranked = sorted(vec.entries.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


def seed_vector(
    docs: Sequence[Document],
    normalizer: SuffixNormalizer = DEFAULT_NORMALIZER,
    path: str | Path | None = None,
) -> TermVector:
    """Term vector of the concatenated bodies of all seed documents; an error names
    ``path``, the file they were read from.

    Multi-document seed material is treated as one text: the per-document
    lemma streams are chained before weighting.
    """
    lemmas: list[str] = []
    for doc in docs:
        lemmas.extend(normalizer.normalize(doc.body))
    if not lemmas:
        raise ParseError("seed material normalizes to zero lemmas", path=path)
    return TermVector.from_lemmas(lemmas)


def build_keyword_pool(
    docs: Sequence[Document],
    k: int,
    normalizer: SuffixNormalizer = DEFAULT_NORMALIZER,
    path: str | Path | None = None,
) -> list[tuple[str, float]]:
    """Keyword pool over the seed material's ``seed_vector``."""
    return extract_keywords(seed_vector(docs, normalizer, path), k)


def url_authority(url: str) -> str:
    """The authority of ``url``, ``urlsplit(url).netloc``: a document's or a hit's host.

    Only the url up to its third "/" is split, since no netloc reaches past it: the
    netloc, and any ValueError (e.g. an unclosed "["), are the whole url's, and
    urlsplit's lru cache then parses each host once."""
    return urlsplit("/".join(url.split("/", 3)[:3])).netloc


def _parse_document(record: object, line_no: int, path: str | Path) -> Document:
    if not isinstance(record, dict):
        raise ParseError("record is not an object", line_no, path)
    for name in Document._fields:
        if name not in record:
            raise ParseError(f"missing field {name!r}", line_no, path)
        if not isinstance(record[name], str):
            raise ParseError(f"field {name!r} is not a string", line_no, path)
        try:  # a JSON escape such as "\ud800" decodes to a lone surrogate
            record[name].encode("utf-8")
        except UnicodeEncodeError as exc:
            message = f"field {name!r} holds a lone surrogate {exc.object[exc.start]!r}"
            raise ParseError(message, line_no, path) from None
    doc_id = record["id"]
    if not doc_id:
        raise ParseError("empty document id", line_no, path)
    url, host = record["url"], record["host"]
    try:
        derived = url_authority(url)
    except ValueError as exc:
        raise ParseError(f"url {url!r} is not a valid URL ({exc})", line_no, path) from None
    if host and host != derived:
        raise ParseError(f"host {host!r} does not match url authority {derived!r}", line_no, path)
    return Document(id=doc_id, url=url, host=derived, title=record["title"], body=record["body"])


def load_corpus(path: str | Path) -> list[Document]:
    """Load a newline-delimited corpus file, rejecting duplicate ids and a file
    that holds no document."""
    docs: list[Document] = []
    seen: set[str] = set()
    for line_no, line in enumerate(text_lines(path), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
            raise ParseError(f"invalid JSON ({exc})", line_no, path) from exc
        doc = _parse_document(record, line_no, path)
        if doc.id in seen:
            raise ParseError(f"duplicate document id {doc.id!r}", line_no, path)
        seen.add(doc.id)
        docs.append(doc)
    if not docs:
        raise ParseError("holds no document", path=path)
    return docs
