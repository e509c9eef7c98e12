"""Search providers: a deterministic offline BM25 engine and an HTTP client.

Both expose the same contract, ``execute(query_string, limit)`` returning
hits best first (a hit's position is its place, from 1), so the evolution
loop never knows which one it talks to.
The loop's queries are rendered genomes, never empty, and its limit is f1 >= 1.
The offline engine exists to make experiments replayable; the HTTP client
talks to any engine speaking the small JSON wire protocol documented on
HttpProvider.
"""

from __future__ import annotations

import heapq
import json
import math
import re
import time
from collections import Counter
from operator import lt
from pathlib import Path
from typing import Iterator, NamedTuple, Protocol
from urllib.parse import quote, urlencode, urlsplit, urlunsplit

from .corpus import Document, SuffixNormalizer, DEFAULT_NORMALIZER, url_authority
from .errors import ParseError, ProviderError
from .ledger import staged_sibling

BM25_K1 = 1.2
BM25_B = 0.75
SNIPPET_CHARS = 240
INDEX_FORMAT = "evoquery-index"
INDEX_VERSION = 6
HTTP_RETRIES = 2
HTTP_BACKOFF_S = 0.5
HTTP_TIMEOUT_S = 10.0
# An index's per-document columns, in this order in InvertedIndex.docs
DOC_COLUMNS = ("url", "title", "text")
# Most entries of a list (a docs column, a posting list) that save_index encodes at once
INDEX_SLICE = 256
# Most hits an OfflineProvider keeps in its answer memo; past this, new
# answers are ranked but not kept, so a long run cannot grow it without limit.
ANSWER_MEMO_LIMIT = 1 << 16

_QUOTED_TERM = re.compile(r'"([^"]*)"')
# Kept as they are in an endpoint's path and query: the RFC 3986 delimiters
# and "%", so that what is already escaped is not escaped twice.
_URL_SAFE = "!#$%&'()*+,/:;=?@[]~"


class SearchHit(NamedTuple):
    """A document as one provider shows it: a row, which the offline provider
    makes once per document per run, so that the memos keyed on it find the
    very object they hold. Its position is its place in the list."""

    doc_url: str
    doc_host: str
    title: str
    snippet: str


class SearchProvider(Protocol):
    def execute(self, query_string: str, limit: int) -> list[SearchHit]: ...


class InvertedIndex(NamedTuple):
    """An index as its file holds it, so loading uses what ``json.loads`` returns.

    ``docs`` maps each of ``DOC_COLUMNS`` to a list with one entry per
    document, in doc id order (the ids are not kept): the doc's ``url``,
    ``title`` and ``text`` (the whitespace-collapsed body that snippets are
    sliced from). A doc's index in these lists is its position. ``postings``
    maps each lemma to the strictly ascending positions of the docs holding
    it, and ``term_counts`` to how often each of those docs holds it, in the
    same order. ``stop_words`` are the sorted stop words of the normalizer that
    built it, which an offline run normalizes with. Nothing derivable is stored:
    the provider sums each doc's length over ``term_counts``, and a host is its url's.
    """

    docs: dict[str, list]
    postings: dict[str, list[int]]
    term_counts: dict[str, list[int]]
    stop_words: list[str]

    @property
    def doc_count(self) -> int:
        return len(self.docs["url"])

    @property
    def vocabulary_size(self) -> int:
        return len(self.postings)


def build_index(
    docs: list[Document], normalizer: SuffixNormalizer = DEFAULT_NORMALIZER
) -> InvertedIndex:
    """Doc columns and postings with raw term counts, docs ordered by their unique ids;
    ``docs`` is not empty, since ``load_corpus`` refuses a file with no document.

    Each body is split once. Its tokens' lemmas are counted through
    ``normalizer.lemma_of``, which gives ``None`` for a dropped token, and the
    same tokens, joined, are the whitespace-collapsed body, stored whole;
    whether a hit exposes all of it or a fixed-size snippet is the provider's call.
    """
    lemma_of = normalizer.lemma_of
    columns: dict[str, list] = {name: [] for name in DOC_COLUMNS}
    postings: dict[str, list[int]] = {}
    term_counts: dict[str, list[int]] = {}
    for position, doc in enumerate(sorted(docs, key=lambda d: d.id)):
        tokens = doc.body.split()
        counts = Counter(map(lemma_of, tokens))
        counts.pop(None, None)
        text = " ".join(tokens)
        text = doc.body if text == doc.body else text  # a collapsed body is kept, not copied
        for name, value in zip(DOC_COLUMNS, (doc.url, doc.title, text)):
            columns[name].append(value)
        for lemma, tf in counts.items():
            plist = postings.get(lemma)
            if plist is None:
                postings[lemma], term_counts[lemma] = [position], [tf]
            else:
                plist.append(position)
                term_counts[lemma].append(tf)
    return InvertedIndex(columns, postings, term_counts, sorted(normalizer.stop_words))


def save_index(index: InvertedIndex, path: str | Path) -> None:
    """Write the index as one compact JSON object with sorted keys, in pieces
    (see ``_pieces``), into a hidden sibling of ``path`` renamed onto it once whole."""
    payload = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "stop_words": index.stop_words,
        "docs": index.docs,
        "postings": index.postings,
        "term_counts": index.term_counts,
    }
    with staged_sibling(Path(path)) as staging, open(staging, "w", encoding="utf-8") as fh:
        fh.writelines(_pieces(payload))


# one encoder for every piece; json.dumps with these arguments would build one per call
_dump = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode


def _pieces(value) -> Iterator[str]:
    """``_dump(value)`` in pieces, so that no string of the whole is built: each
    dict member apart, and a list longer than ``INDEX_SLICE`` in slices of it."""
    if isinstance(value, dict):
        yield "{"
        for i, key in enumerate(sorted(value)):
            yield ("," if i else "") + _dump(key) + ":"
            yield from _pieces(value[key])
        yield "}"
    elif isinstance(value, list) and len(value) > INDEX_SLICE:
        yield "["
        for start in range(0, len(value), INDEX_SLICE):
            yield ("," if start else "") + _dump(value[start:start + INDEX_SLICE])[1:-1]
        yield "]"
    else:
        yield _dump(value)


def _list_of(value, kind: type, least: int | None = None) -> bool:
    """Whether ``value`` is a list of exactly ``kind`` (so no bool for int), each >= ``least``.

    Built-ins do the work in C, so a long list costs no Python loop.
    """
    return (isinstance(value, list) and set(map(type, value)) <= {kind}
            and (least is None or min(value, default=least) >= least))


def _ascending(values: list) -> bool:
    """Whether each value is less than the next: sorted, with no repeats."""
    return all(map(lt, values, values[1:]))


def load_index(path: str | Path) -> InvertedIndex:
    """Read an index file, checking it once; each ParseError names the file and the bad part."""

    class Ints(dict):  # each integer's spelling to one int, so equal values share one object
        def __missing__(self, digits: str) -> int:
            value = self[digits] = int(digits)
            return value

    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"), parse_int=Ints().__getitem__)
    except ValueError as exc:  # JSONDecodeError, bad UTF-8, or an integer over the digit limit
        raise ParseError(f"index {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != INDEX_FORMAT:
        raise ParseError(f"{path} is not an index file")

    def bad(message: str) -> ParseError:
        return ParseError(f"index {message}", path=path)

    if payload.get("version") != INDEX_VERSION:
        raise ParseError(f"unsupported index version {payload.get('version')!r} (version "
                         f"{INDEX_VERSION} is read); rebuild it with `evoquery index`", path=path)
    stop_words = payload.get("stop_words")
    if not _list_of(stop_words, str) or not _ascending(stop_words):
        raise bad("stop_words must be a sorted list of distinct strings")
    docs, postings, term_counts = (payload.get(k) for k in ("docs", "postings", "term_counts"))
    for part, value in (("docs", docs), ("postings", postings), ("term_counts", term_counts)):
        if not isinstance(value, dict):
            raise bad(f"{part} must be an object")
    for name in DOC_COLUMNS:
        if not _list_of(docs.get(name), str):
            raise bad(f"docs column {name!r} must be a list of strings")
        if len(docs[name]) != len(docs["url"]):
            raise bad(f"docs column {name!r} has {len(docs[name])} entries, not {len(docs['url'])}")
    if not (count := len(docs["url"])):  # BM25 divides by the document count
        raise bad("holds no document")
    try:  # a hit's host is its url's authority
        for url in docs["url"]:
            url_authority(url)
    except ValueError as exc:
        raise bad(f"url {url!r} is not a valid URL ({exc})") from None
    if postings.keys() != term_counts.keys():
        lemma = min(postings.keys() ^ term_counts.keys())
        raise bad(f"lemma {lemma!r} must be in both postings and term_counts")
    for lemma, plist in postings.items():
        if not _list_of(plist, int) or not _ascending(plist):
            raise bad(f"postings of {lemma!r} must be a strictly ascending list of doc positions")
        if plist and (plist[0] < 0 or plist[-1] >= count):
            raise bad(f"postings of {lemma!r} hold a doc position outside 0..{count - 1}")
        if not _list_of(term_counts[lemma], int, 1):
            raise bad(f"term_counts of {lemma!r} must be a list of integers >= 1")
        if len(term_counts[lemma]) != len(plist):
            raise bad(f"postings and term_counts of {lemma!r} differ in length")
    return InvertedIndex(docs, postings, term_counts, stop_words)


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


class OfflineProvider:
    """BM25 (k1=1.2, b=0.75) over an in-process inverted index; ties break by doc id.

    Queries are evaluated term at a time: each document's length norm is
    computed when the provider is built, and each lemma's contribution to
    each document in its posting list, idf * tf * (k1 + 1) / (tf + norm), when
    a query first holds the lemma (one float per posting, kept for the run).
    Every query term, duplicates included, adds its contributions in query
    order. The top ``limit`` documents are then taken by (-score, doc
    position) with a heap; the index orders positions by doc id, so ties
    break by doc id. Each document's hit is made at its first use and kept.

    full_body_snippets exposes each hit's entire stored text instead of a
    fixed-size fragment, for runs that want semantic scoring over whole
    documents.

    The index never changes, so neither does an answer: each (query string,
    limit) is ranked once and its hits kept, up to ``ANSWER_MEMO_LIMIT`` hits
    in all (an empty answer counts as one); a repeat gets a new list of the
    kept hits.
    """

    def __init__(self, index: InvertedIndex, full_body_snippets: bool = False) -> None:
        self.index = index
        self.full_body_snippets = full_body_snippets
        lengths = [0] * index.doc_count  # each doc's lemma count, summed over its postings
        for lemma, plist in index.postings.items():
            for d, tf in zip(plist, index.term_counts[lemma]):
                lengths[d] += tf
        avg = sum(lengths) / index.doc_count  # load_index refuses 0 docs
        # BM25's tf saturation term K1 * (1 - b + b * |d| / avgdl) per document
        self._norm = [
            BM25_K1 * (1.0 - BM25_B + BM25_B * (length / avg if avg > 0 else 0.0))
            for length in lengths
        ]
        self._contributions, self._hits = {}, [None] * index.doc_count  # hits by position
        self._answers, self._answer_hits = {}, 0

    def execute(self, query_string: str, limit: int) -> list[SearchHit]:
        hits = self._answers.get((query_string, limit))
        if hits is None:
            hits = self._rank(query_string, limit)
            size = max(len(hits), 1)  # an empty answer still takes an entry
            if self._answer_hits + size <= ANSWER_MEMO_LIMIT:
                self._answers[query_string, limit] = hits
                self._answer_hits += size
        return list(hits)

    def _rank(self, query_string: str, limit: int) -> list[SearchHit]:
        terms, conjunctive = parse_query(query_string)
        postings = self.index.postings
        candidates: set[int] | None = None
        if conjunctive:
            shortest, *others = sorted((postings.get(term, ()) for term in terms), key=len)
            candidates = set(shortest)
            for plist in others:
                if not candidates:
                    break
                candidates.intersection_update(plist)
            if not candidates:
                return []
        scores: dict[int, float] = {}
        get = scores.get
        for term in terms:
            plist = postings.get(term)
            if not plist:
                continue
            matches = zip(plist, self._contributions.get(term) or self._contribute(term))
            if candidates is not None:
                matches = ((d, c) for d, c in matches if d in candidates)
            if scores:
                for d, c in matches:
                    scores[d] = get(d, 0.0) + c
            else:  # 0.0 + c is c
                scores.update(matches)
        top = heapq.nsmallest(limit, zip(scores.values(), scores))
        hits = self._hits
        return [hits[d] or self._hit(d) for _, d in top]

    def _contribute(self, lemma: str) -> list[float]:
        """Each posting's BM25 contribution for ``lemma``, kept for the run, negated:
        negation is exact, so the sums come negated, ready for the heap."""
        plist, norm = self.index.postings[lemma], self._norm
        idf = math.log(1.0 + (self.index.doc_count - len(plist) + 0.5) / (len(plist) + 0.5))
        contributions = self._contributions[lemma] = [
            -(idf * (tf * (BM25_K1 + 1.0)) / (tf + norm[d]))
            for d, tf in zip(plist, self.index.term_counts[lemma])
        ]
        return contributions

    def _hit(self, d: int) -> SearchHit:
        """The hit of the document at position ``d``, made once."""
        url, title, text = (self.index.docs[name][d] for name in DOC_COLUMNS)
        snippet = text if self.full_body_snippets else text[:SNIPPET_CHARS]
        hit = self._hits[d] = SearchHit(url, url_authority(url), title, snippet)
        return hit


class HttpProvider:
    """Generic JSON search API client.

    Wire protocol: GET {endpoint}?q={url-encoded query}&count={limit};
    the response object carries "results", an array of objects with url,
    title and snippet fields whose order defines positions. An API key, if
    the engine needs one, travels in the configured header; its value comes
    from the EVOQUERY_API_KEY environment variable at construction time.

    Requests are spaced by a rate limiter, ``rate_limit_rps`` per second, with
    no lock: the package sends them from one thread. A transport failure or
    5xx status is retried ``HTTP_RETRIES`` times, after ``HTTP_BACKOFF_S``
    seconds doubled per retry; each request times out after ``HTTP_TIMEOUT_S`` seconds.
    """

    def __init__(self, endpoint: str, api_key_header: str | None, api_key: str | None,
                 rate_limit_rps: float) -> None:
        self.endpoint = endpoint
        self.api_key_header = api_key_header
        self.api_key = api_key
        self.rate_limit_rps = rate_limit_rps
        self._last_request = 0.0

    def _throttle(self) -> None:
        wait = self._last_request + 1.0 / self.rate_limit_rps - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        self._last_request = time.monotonic()

    def _request(self, query_string: str, limit: int) -> bytes:
        # Imported here, not at module load: urllib.request pulls in
        # http.client, email and ssl, which offline stages never use.
        import http.client
        import urllib.error
        import urllib.request

        parts = urlsplit(self.endpoint)
        params = urlencode({"q": query_string, "count": limit})
        query = quote(f"{parts.query}&{params}" if parts.query else params, _URL_SAFE)
        url = urlunsplit(parts._replace(path=quote(parts.path, _URL_SAFE), query=query))
        request = urllib.request.Request(url)
        if self.api_key_header and self.api_key:
            request.add_header(self.api_key_header, self.api_key)
        last_error: Exception | None = None
        for attempt in range(HTTP_RETRIES + 1):
            if attempt:
                time.sleep(HTTP_BACKOFF_S * (2 ** (attempt - 1)))
            self._throttle()
            try:
                with urllib.request.urlopen(request, timeout=HTTP_TIMEOUT_S) as response:
                    status, body = response.status, response.read()
            except urllib.error.HTTPError as exc:  # any non-2xx status; an OSError subclass
                exc.close()
                status = exc.code
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                continue
            if status >= 500:
                last_error = ProviderError(f"server error {status}")
                continue
            if status != 200:
                raise ProviderError(f"unexpected status {status} from {self.endpoint}")
            return body
        raise ProviderError(f"transport failure after retries: {last_error}")

    def execute(self, query_string: str, limit: int) -> list[SearchHit]:
        body = self._request(query_string, limit)
        try:
            payload = json.loads(body)
        except ValueError as exc:
            raise ProviderError(f"response is not JSON: {exc}") from exc
        if not isinstance(payload, dict) or not isinstance(payload.get("results"), list):
            raise ProviderError('response lacks a "results" array')
        hits = []
        for pos, item in enumerate(payload["results"][:limit], start=1):
            if not isinstance(item, dict):
                raise ProviderError(f"result {pos} is not an object")
            try:
                url = item["url"]
                title = item["title"]
                snippet = item["snippet"]
            except KeyError as exc:
                raise ProviderError(f"result {pos} lacks field {exc}") from exc
            if not all(isinstance(v, str) for v in (url, title, snippet)):
                raise ProviderError(f"result {pos} has non-string fields")
            try:
                host = url_authority(url)
            except ValueError as exc:  # e.g. an unclosed "[" in the host
                raise ProviderError(f"result {pos} has an invalid url {url!r} ({exc})") from None
            hits.append(SearchHit(url, host, title, snippet))
        return hits
