"""Search providers: a deterministic offline BM25 engine and an HTTP client.

Both expose the same contract, ``execute(query_string, limit)`` returning
positioned hits, so the evolution loop never knows which one it talks to.
The offline engine exists to make experiments replayable; the HTTP client
talks to any engine speaking the small JSON wire protocol documented on
HttpProvider.
"""

from __future__ import annotations

import http.client
import json
import math
import re
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol
from urllib.parse import quote, urlencode, urlsplit, urlunsplit

from .corpus import Document, Normalizer, DEFAULT_NORMALIZER
from .errors import (
    EmptyCorpus,
    EmptyQuery,
    ParseError,
    ProtocolError,
    ProviderUnavailable,
    UnknownDocument,
)

BM25_K1 = 1.2
BM25_B = 0.75
SNIPPET_CHARS = 240
INDEX_FORMAT = "evoquery-index"
INDEX_VERSION = 1

_QUOTED_TERM = re.compile(r'"([^"]*)"')
# Kept as they are in an endpoint's path and query: the RFC 3986 delimiters
# and "%", so that what is already escaped is not escaped twice.
_URL_SAFE = "!#$%&'()*+,/:;=?@[]~"


@dataclass(frozen=True)
class SearchHit:
    doc_url: str
    doc_host: str
    title: str
    snippet: str
    position: int  # 1-based rank in the provider's list


@dataclass
class ProviderQueryRecord:
    """One executed query with its capped hit list, as persisted to ledgers."""

    query_string: str
    genome_id: str
    hits: list[SearchHit]
    provider_name: str
    issued_at: float | None = None


class SearchProvider(Protocol):
    name: str
    stamps_time: bool

    def execute(self, query_string: str, limit: int) -> list[SearchHit]: ...


@dataclass
class _StoredDoc:
    url: str
    host: str
    title: str
    text: str  # whitespace-collapsed body; snippets are sliced from it
    length: int


@dataclass
class InvertedIndex:
    postings: dict[str, dict[str, int]]
    docs: dict[str, _StoredDoc]
    avg_doc_len: float

    @property
    def doc_count(self) -> int:
        return len(self.docs)

    @property
    def vocabulary_size(self) -> int:
        return len(self.postings)


def build_index(
    docs: list[Document], normalizer: Normalizer = DEFAULT_NORMALIZER
) -> InvertedIndex:
    """Postings with raw term counts, plus per-document metadata for hits.

    The whole whitespace-collapsed body is stored per document; whether a
    hit exposes all of it or a fixed-size snippet is the provider's call.
    """
    if not docs:
        raise EmptyCorpus("cannot index an empty corpus")
    postings: dict[str, dict[str, int]] = {}
    stored: dict[str, _StoredDoc] = {}
    total_len = 0
    for doc in docs:
        lemmas = normalizer.normalize(doc.body)
        total_len += len(lemmas)
        stored[doc.id] = _StoredDoc(
            url=doc.url,
            host=doc.host,
            title=doc.title,
            text=" ".join(doc.body.split()),
            length=len(lemmas),
        )
        for lemma in lemmas:
            postings.setdefault(lemma, {})
            postings[lemma][doc.id] = postings[lemma].get(doc.id, 0) + 1
    return InvertedIndex(
        postings=postings, docs=stored, avg_doc_len=total_len / len(docs)
    )


def save_index(index: InvertedIndex, path: str | Path) -> None:
    payload = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "avg_doc_len": index.avg_doc_len,
        "docs": {
            doc_id: {
                "url": d.url,
                "host": d.host,
                "title": d.title,
                "text": d.text,
                "length": d.length,
            }
            for doc_id, d in index.docs.items()
        },
        "postings": index.postings,
    }
    Path(path).write_text(
        json.dumps(payload, ensure_ascii=False, sort_keys=True), encoding="utf-8"
    )


def load_index(path: str | Path) -> InvertedIndex:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"index file is not valid JSON ({exc.msg})") from exc
    if not isinstance(payload, dict) or payload.get("format") != INDEX_FORMAT:
        raise ParseError("not an index file")
    if payload.get("version") != INDEX_VERSION:
        raise ParseError(f"unsupported index version {payload.get('version')!r}")
    docs = {
        doc_id: _StoredDoc(
            url=d["url"],
            host=d["host"],
            title=d["title"],
            text=d["text"],
            length=d["length"],
        )
        for doc_id, d in payload["docs"].items()
    }
    postings = {
        lemma: {doc_id: int(tf) for doc_id, tf in plist.items()}
        for lemma, plist in payload["postings"].items()
    }
    return InvertedIndex(postings=postings, docs=docs, avg_doc_len=payload["avg_doc_len"])


def score_bm25(index: InvertedIndex, query_lemmas: list[str], doc_id: str) -> float:
    """Classic BM25 with k1=1.2, b=0.75; absent terms contribute zero."""
    if doc_id not in index.docs:
        raise UnknownDocument(doc_id)
    n_docs = index.doc_count
    dl = index.docs[doc_id].length
    norm_len = dl / index.avg_doc_len if index.avg_doc_len > 0 else 0.0
    score = 0.0
    for lemma in query_lemmas:
        plist = index.postings.get(lemma)
        if not plist or doc_id not in plist:
            continue
        tf = plist[doc_id]
        n_t = len(plist)
        idf = math.log(1.0 + (n_docs - n_t + 0.5) / (n_t + 0.5))
        score += idf * (tf * (BM25_K1 + 1.0)) / (tf + BM25_K1 * (1.0 - BM25_B + BM25_B * norm_len))
    return score


def parse_query(query_string: str) -> tuple[list[str], bool]:
    """Split a rendered query into lemmas and detect the quoted form.

    Quoted queries demand every term (conjunctive, exact lemmas); bare
    queries match any term. Terms are lowercased but never re-stemmed:
    genome terms already are lemmas, and stemming them again would corrupt
    them (a stored lemma like "glas" must not become "gla").
    """
    quoted = _QUOTED_TERM.findall(query_string)
    if quoted:
        terms = [t.strip().lower() for t in quoted if t.strip()]
        return terms, True
    terms = [t.lower() for t in query_string.split() if t.strip()]
    return terms, False


@dataclass
class OfflineProvider:
    """BM25 over an in-process inverted index; ties break by doc id.

    full_body_snippets exposes each hit's entire stored text instead of a
    fixed-size fragment, for runs that want semantic scoring over whole
    documents.
    """

    index: InvertedIndex
    full_body_snippets: bool = False
    name: str = "offline"
    stamps_time: bool = False

    def execute(self, query_string: str, limit: int) -> list[SearchHit]:
        if limit < 1:
            raise ValueError("limit must be >= 1")
        terms, conjunctive = parse_query(query_string)
        if not terms:
            raise EmptyQuery(f"query {query_string!r} contains no terms")
        candidates: set[str] | None = None
        if conjunctive:
            for term in terms:
                plist = self.index.postings.get(term, {})
                ids = set(plist)
                candidates = ids if candidates is None else candidates & ids
                if not candidates:
                    return []
        else:
            candidates = set()
            for term in terms:
                candidates |= set(self.index.postings.get(term, {}))
        assert candidates is not None
        ranked = sorted(
            candidates,
            key=lambda doc_id: (-score_bm25(self.index, terms, doc_id), doc_id),
        )
        hits = []
        for pos, doc_id in enumerate(ranked[:limit], start=1):
            doc = self.index.docs[doc_id]
            snippet = doc.text if self.full_body_snippets else doc.text[:SNIPPET_CHARS]
            hits.append(
                SearchHit(
                    doc_url=doc.url,
                    doc_host=doc.host,
                    title=doc.title,
                    snippet=snippet,
                    position=pos,
                )
            )
        return hits


@dataclass
class HttpProvider:
    """Generic JSON search API client.

    Wire protocol: GET {endpoint}?q={url-encoded query}&count={limit};
    the response object carries "results", an array of objects with url,
    title and snippet fields whose order defines positions. An API key, if
    the engine needs one, travels in the configured header; its value comes
    from the EVOQUERY_API_KEY environment variable at construction time.

    Requests are serialized through a rate limiter (default one per
    second) and transport failures are retried twice with backoff.
    """

    endpoint: str
    api_key_header: str | None = None
    api_key: str | None = None
    rate_limit_rps: float = 1.0
    retries: int = 2
    backoff_base: float = 0.5
    timeout: float = 10.0
    name: str = "http"
    stamps_time: bool = True
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _last_request: float = field(default=0.0, repr=False)

    def _throttle(self) -> None:
        if self.rate_limit_rps <= 0:
            return
        min_interval = 1.0 / self.rate_limit_rps
        with self._lock:
            now = time.monotonic()
            wait = self._last_request + min_interval - now
            if wait > 0:
                time.sleep(wait)
            self._last_request = time.monotonic()

    def _request(self, query_string: str, limit: int) -> bytes:
        parts = urlsplit(self.endpoint)
        params = urlencode({"q": query_string, "count": limit})
        query = quote(f"{parts.query}&{params}" if parts.query else params, _URL_SAFE)
        url = urlunsplit(parts._replace(path=quote(parts.path, _URL_SAFE), query=query))
        request = urllib.request.Request(url)
        if self.api_key_header and self.api_key:
            request.add_header(self.api_key_header, self.api_key)
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.backoff_base * (2 ** (attempt - 1)))
            self._throttle()
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    status, body = response.status, response.read()
            except urllib.error.HTTPError as exc:  # any non-2xx status; an OSError subclass
                exc.close()
                status = exc.code
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                continue
            if status >= 500:
                last_error = ProviderUnavailable(f"server error {status}")
                continue
            if status != 200:
                raise ProviderUnavailable(f"unexpected status {status} from {self.endpoint}")
            return body
        raise ProviderUnavailable(f"transport failure after retries: {last_error}")

    def execute(self, query_string: str, limit: int) -> list[SearchHit]:
        if limit < 1:
            raise ValueError("limit must be >= 1")
        if not query_string.strip():
            raise EmptyQuery("empty query string")
        body = self._request(query_string, limit)
        try:
            payload = json.loads(body)
        except ValueError as exc:
            raise ProtocolError(f"response is not JSON: {exc}") from exc
        if not isinstance(payload, dict) or not isinstance(payload.get("results"), list):
            raise ProtocolError('response lacks a "results" array')
        hits = []
        for pos, item in enumerate(payload["results"][:limit], start=1):
            if not isinstance(item, dict):
                raise ProtocolError(f"result {pos} is not an object")
            try:
                url = item["url"]
                title = item["title"]
                snippet = item["snippet"]
            except KeyError as exc:
                raise ProtocolError(f"result {pos} lacks field {exc}") from exc
            if not all(isinstance(v, str) for v in (url, title, snippet)):
                raise ProtocolError(f"result {pos} has non-string fields")
            hits.append(
                SearchHit(
                    doc_url=url,
                    doc_host=urlsplit(url).netloc,
                    title=title,
                    snippet=snippet,
                    position=pos,
                )
            )
        return hits
