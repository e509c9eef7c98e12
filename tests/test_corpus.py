import json
import math
import re
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings, strategies as st

from evoquery.corpus import (
    DEFAULT_NORMALIZER,
    LEMMA_MEMO_LIMIT,
    Document,
    SuffixNormalizer,
    TermVector,
    _parse_document,
    build_keyword_pool,
    data_lines,
    extract_keywords,
    load_corpus,
    load_stop_words,
    normalizer_for,
    seed_vector,
)
from evoquery.errors import ConfigInvalid, ParseError
from generate_data import dump_corpus

normalize = DEFAULT_NORMALIZER.normalize


def make_doc(doc_id="d1", body="some body text", **kw):
    defaults = {
        "url": f"https://example.org/{doc_id}",
        "host": "example.org",
        "title": "a title",
    }
    defaults.update(kw)
    return Document(id=doc_id, body=body, **defaults)


class TestNormalizeText:
    def test_empty_string(self):
        assert normalize("") == []

    def test_suffix_rules(self):
        assert normalize("Running, RUNS!") == ["runn", "run"]

    def test_short_and_digit_tokens_dropped(self):
        assert normalize("a I 42") == []

    def test_only_first_matching_suffix_fires(self):
        # "glassed" ends in both "ed" and (after that) "s"; one rule only
        assert normalize("glassed") == ["glass"]

    def test_suffix_needs_three_char_remainder(self):
        # stripping would leave fewer than 3 chars, so the token survives
        assert normalize("bed its") == ["bed", "its"]
        assert normalize("king") == ["king"]

    def test_punctuation_and_digits_stripped_inside_tokens(self):
        assert normalize("co2-emission's") == ["coemission"]

    def test_case_folding(self):
        assert normalize("Wear WEAR wear") == ["wear", "wear", "wear"]

    def test_stop_words_removed_after_stemming(self):
        # "running" stems to "runn"; stopping "runn" removes it,
        # stopping "running" does not
        assert SuffixNormalizer(frozenset({"runn"})).normalize("running free") == ["free"]
        kept = SuffixNormalizer(frozenset({"running"})).normalize("running free")
        assert kept == ["runn", "free"]

    def test_unicode_letters_kept(self):
        assert normalize("трение износ") == ["трение", "износ"]

    @given(st.text())
    def test_never_raises_and_tokens_are_clean(self, raw):
        out = normalize(raw)
        for lemma in out:
            assert len(lemma) >= 2
            assert lemma == lemma.lower()
            assert all(ch.isalpha() for ch in lemma)

    @given(st.lists(st.sampled_from(["wear", "friction", "metal", "oil"]), max_size=30))
    def test_idempotent_when_no_suffix_present(self, lemmas):
        once = normalize(" ".join(lemmas))
        assert normalize(" ".join(once)) == once


def reference_normalize(raw, stop_words=frozenset()):
    # oracle: SuffixNormalizer.normalize as it was before it memoized lemmas
    lemmas = []
    for token in raw.split():
        word = "".join(ch for ch in token.lower() if ch.isalpha())
        if len(word) < 2:
            continue
        if word.endswith("ing") and len(word) - 3 >= 3:
            word = word[:-3]
        elif word.endswith("ed") and len(word) - 2 >= 3:
            word = word[:-2]
        elif word.endswith("s") and len(word) - 1 >= 3:
            word = word[:-1]
        if word in stop_words:
            continue
        lemmas.append(word)
    return lemmas


# Tokens: a stem of letters, digits, punctuation and non-ASCII letters (İ
# lowercases to two characters, ß and the Greek final sigma do not change),
# then up to two suffixes, so each rule meets its three-character boundary
# and suffixes stack ("abceding", "abING").
STEM_PIECES = st.sampled_from(
    ["a", "ab", "abc", "Abcd", "7", "42", "-", "'", ".", "é", "ß", "İ", "ς", "Жа", "日本",
     "\u0301"]
)
SUFFIXES = st.sampled_from(["ing", "ed", "s", "S", "ING", "eD", "in", "e"])
TOKENS = st.tuples(
    st.lists(STEM_PIECES, min_size=1, max_size=3), st.lists(SUFFIXES, max_size=2)
).map(lambda parts: "".join(parts[0] + parts[1]))
GAPS = st.sampled_from([" ", "\t", "\n", "\u3000"])
TEXTS = st.lists(st.tuples(TOKENS, GAPS), max_size=25).map(
    lambda pairs: "".join(token + gap for token, gap in pairs)
)


class TestLemmaMemo:
    """The per-instance memo never changes what normalize returns."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(TEXTS, min_size=1, max_size=4), st.data())
    def test_matches_reference(self, texts, data):
        words = sorted({w for text in texts for w in reference_normalize(text)})
        stop_words = frozenset(data.draw(st.lists(st.sampled_from(words), max_size=3))
                               if words else ())
        norm = SuffixNormalizer(stop_words)
        for text in texts + texts:  # the second round reads lemmas from the memo
            assert norm.normalize(text) == reference_normalize(text, stop_words)

    @settings(max_examples=25, deadline=None)
    @given(TEXTS)
    def test_full_memo_still_matches_reference(self, text):
        norm = SuffixNormalizer(frozenset({"abc"}))
        # keys with a space: raw.split() never yields such a token
        norm._lemmas.update((f" {i}", None) for i in range(LEMMA_MEMO_LIMIT))
        for _ in range(2):
            assert norm.normalize(text) == reference_normalize(text, frozenset({"abc"}))
        assert len(norm._lemmas) == LEMMA_MEMO_LIMIT

    def test_memo_never_exceeds_its_bound(self):
        letters = str.maketrans("0123456789", "abcdefghij")
        text = " ".join("x" + str(i).translate(letters) for i in range(LEMMA_MEMO_LIMIT + 500))
        norm = SuffixNormalizer()
        assert norm.normalize(text) == reference_normalize(text)
        assert len(norm._lemmas) == LEMMA_MEMO_LIMIT
        assert norm.normalize(text) == reference_normalize(text)
        assert len(norm._lemmas) == LEMMA_MEMO_LIMIT

    def test_memo_is_not_part_of_the_value(self):
        used = SuffixNormalizer(frozenset({"the"}))
        used.normalize("the worn gears")
        fresh = SuffixNormalizer(frozenset({"the"}))
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) == "SuffixNormalizer(stop_words=frozenset({'the'}))"


class TestTermWeights:
    def test_hand_counted_fractions(self):
        vec = TermVector.from_lemmas(normalize("wear wear oil"))
        assert vec.entries["wear"] == pytest.approx(2 / 3)
        assert vec.entries["oil"] == pytest.approx(1 / 3)

    def test_single_term_document(self):
        vec = TermVector.from_lemmas(normalize("only"))
        assert vec.entries == {"only": 1.0}

    def test_empty_document_rejected(self):
        assert normalize("! 1 2 ?") == []
        with pytest.raises(ParseError, match="^seed material normalizes to zero lemmas$"):
            build_keyword_pool([make_doc(body="! 1 2 ?")], 10)

    def test_title_is_ignored(self):
        pool = build_keyword_pool([make_doc(body="wear", title="friction friction")], 10)
        assert pool == [("wear", 1.0)]

    @given(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=200))
    def test_weights_sum_to_one(self, letters):
        body = " ".join(ch + "x" for ch in letters)  # 2-char tokens survive
        vec = TermVector.from_lemmas(normalize(body))
        assert sum(vec.entries.values()) == pytest.approx(1.0, abs=1e-9)


class TestSeedVector:
    def test_chains_bodies_of_all_documents(self):
        docs = [make_doc("s1", body="wear oil"), make_doc("s2", body="wear")]
        assert seed_vector(docs) == TermVector.from_lemmas(["wear", "oil", "wear"])

    def test_keyword_pool_ranks_the_seed_vector(self):
        docs = [make_doc("s1", body="wear oil"), make_doc("s2", body="wear friction")]
        assert build_keyword_pool(docs, 2) == extract_keywords(seed_vector(docs), 2)

    def test_empty_seed_material_rejected(self):
        with pytest.raises(ParseError, match="^seed material normalizes to zero lemmas$"):
            seed_vector([make_doc(body="! 1 2 ?")])


class TestTermVector:
    def test_norm_of_empty_vector(self):
        assert TermVector.from_lemmas([]).norm == 0.0

    def test_cosine_parallel(self):
        v = TermVector.from_weights({"a": 0.5, "b": 0.5})
        w = TermVector.from_weights({"a": 2.0, "b": 2.0})
        assert v.cosine(w) == pytest.approx(1.0)

    def test_cosine_orthogonal(self):
        v = TermVector.from_weights({"a": 1.0})
        w = TermVector.from_weights({"b": 1.0})
        assert v.cosine(w) == 0.0

    def test_cosine_known_value(self):
        v = TermVector.from_weights({"a": 1.0, "b": 1.0})
        w = TermVector.from_weights({"a": 1.0})
        assert v.cosine(w) == pytest.approx(0.7071067811865475, abs=1e-12)

    def test_cosine_with_empty(self):
        v = TermVector.from_weights({"a": 1.0})
        assert v.cosine(TermVector.from_lemmas([])) == 0.0

    @settings(max_examples=300)
    @given(st.lists(st.dictionaries(st.sampled_from("abcdefgh"),
                                    st.floats(1e-300, 1.0) | st.sampled_from([0.1, 1 / 3])),
                    min_size=2, max_size=2))
    def test_cosine_equals_the_loop_it_replaced(self, weights):
        """The products come in a set's order, but ``fsum`` rounds their exact sum
        once, so the cosine is the one the loop over the smaller vector gave."""
        v, w = map(TermVector.from_weights, weights)
        if v.norm == 0.0 or w.norm == 0.0:
            return
        small, large = (v.entries, w.entries) if len(v.entries) <= len(w.entries) else (
            w.entries, v.entries)
        dot = math.fsum(x * large[t] for t, x in small.items() if t in large)
        assert v.cosine(w) == dot / (v.norm * w.norm)


class TestExtractKeywords:
    def test_top_k(self):
        vec = TermVector.from_weights({"a": 0.5, "b": 0.3, "c": 0.2})
        pool = extract_keywords(vec, 2)
        assert pool == [("a", 0.5), ("b", 0.3)]

    def test_k_exceeds_vocabulary(self):
        pool = extract_keywords(TermVector.from_weights({"x": 1.0}), 50)
        assert pool == [("x", 1.0)]

    def test_tie_broken_lexicographically(self):
        pool = extract_keywords(TermVector.from_weights({"b": 0.5, "a": 0.5}), 1)
        assert pool == [("a", 0.5)]

    @given(
        st.dictionaries(
            st.text(alphabet="abcdefg", min_size=2, max_size=4),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            max_size=12,
        ),
        st.integers(min_value=1, max_value=10),
    )
    def test_prefix_monotone_in_k(self, entries, k):
        vec = TermVector.from_weights(entries)
        shorter = extract_keywords(vec, k)
        longer = extract_keywords(vec, k + 1)
        assert longer[: len(shorter)] == shorter


class TestPoolFromSeed:
    def test_built_from_concatenated_seed_docs(self):
        docs = [make_doc("s1", body="wear wear"), make_doc("s2", body="oil")]
        pool = build_keyword_pool(docs, 10)
        assert pool == [("wear", 2 / 3), ("oil", 1 / 3)]

    def test_empty_seed_material_rejected(self):
        with pytest.raises(ParseError, match="^seed material normalizes to zero lemmas$"):
            build_keyword_pool([make_doc("s1", body="!")], 10)


class TestLoadCorpus:
    def write_lines(self, tmp_path, lines):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def record(self, doc_id, **kw):
        rec = {
            "id": doc_id,
            "url": f"https://example.org/{doc_id}",
            "host": "example.org",
            "title": "t",
            "body": "b",
        }
        rec.update(kw)
        return json.dumps(rec)

    def test_loads_in_file_order(self, tmp_path):
        path = self.write_lines(
            tmp_path, [self.record("d1"), self.record("d2"), self.record("d3")]
        )
        docs = load_corpus(path)
        assert [d.id for d in docs] == ["d1", "d2", "d3"]

    def test_duplicate_id_reports_line(self, tmp_path):
        path = self.write_lines(tmp_path, [self.record("d1"), self.record("d1")])
        with pytest.raises(ParseError, match="line 2: duplicate document id 'd1'$"):
            load_corpus(path)

    def test_empty_id_rejected(self, tmp_path):
        path = self.write_lines(tmp_path, [self.record("d1"), self.record("")])
        message = f"{path}: line 2: empty document id"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load_corpus(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = self.write_lines(tmp_path, [self.record("d1"), "{not json"])
        with pytest.raises(ParseError, match="line 2"):
            load_corpus(path)

    def test_integer_over_digit_limit_reports_line(self, tmp_path):
        huge = '{"id": ' + "9" * 5000 + "}"
        path = self.write_lines(tmp_path, [self.record("d1"), huge])
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2: invalid JSON"):
            load_corpus(path)

    def test_lone_surrogate_names_field(self, tmp_path):
        # json.dumps escapes it as "\ud800", which json.loads reads back unpaired
        path = self.write_lines(tmp_path, [self.record("d1"), self.record("d2", title="a\ud800")])
        message = f"{path}: line 2: field 'title' holds a lone surrogate '\\ud800'"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load_corpus(path)

    def test_missing_field_rejected(self, tmp_path):
        rec = json.dumps({"id": "d1", "url": "", "host": "", "title": "t"})
        path = self.write_lines(tmp_path, [rec])
        with pytest.raises(ParseError, match="body"):
            load_corpus(path)

    def test_host_mismatch_rejected(self, tmp_path):
        path = self.write_lines(tmp_path, [self.record("d1"), self.record("d2", host="other.net")])
        message = f"{path}: line 2: host 'other.net' does not match url authority 'example.org'"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load_corpus(path)

    @pytest.mark.parametrize("host", ["", "::1"], ids=["no-host", "with-host"])
    def test_invalid_url_names_file_and_line(self, tmp_path, host):
        path = self.write_lines(tmp_path, [self.record("d1"), self.record(
            "d2", url="http://[::1/x", host=host)])
        message = f"{path}: line 2: url 'http://[::1/x' is not a valid URL (Invalid IPv6 URL)"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load_corpus(path)

    def test_empty_host_filled_from_url(self, tmp_path):
        path = self.write_lines(tmp_path, [self.record("d1", host="")])
        docs = load_corpus(path)
        assert docs[0].host == "example.org"

    @pytest.mark.parametrize("text", ["", "\n \t\n\r\n"], ids=["empty", "blank-lines"])
    def test_no_document_rejected(self, tmp_path, text):
        path = tmp_path / "corpus.jsonl"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: holds no document$"):
            load_corpus(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = self.write_lines(tmp_path, [self.record("d1"), "", self.record("d2")])
        assert len(load_corpus(path)) == 2

    def test_round_trip_identity(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            [self.record("d1", body="wear and tear"), self.record("d2", title="titled")],
        )
        docs = load_corpus(path)
        out = tmp_path / "again.jsonl"
        dump_corpus(docs, out)
        assert load_corpus(out) == docs


# Urls from the characters urlsplit reads (the delimiters "/:?#[]@"), strips
# (space and C0 controls, leading) or removes (tab, CR, LF), and non-ASCII,
# among them the fullwidth "/" and "#" that NFKC maps onto delimiters; most
# start as a scheme and "//" would, so that they have an authority
URL_TEXT = st.text(st.sampled_from("/:?#[]@ \t\r\n\x00\x01\x1f\x7fab1.é／＃"), max_size=14)
AUTHORITY_URLS = st.tuples(
    st.sampled_from(["", " ", "\x00", "\t"]),
    st.sampled_from(["", "http:", "HTTP:", "Ab+.-:", "1a:"]),
    st.sampled_from(["//", "//", "/\t/", "/"]),
    st.sampled_from(["", "[::1]", "[::1", "::1]", "[v1.x]", "a@b:80", "é"]),
    URL_TEXT,
).map("".join)
URLS = st.one_of(URL_TEXT, AUTHORITY_URLS, AUTHORITY_URLS, AUTHORITY_URLS)


class TestUrlAuthority:
    """_parse_document splits a url cut at its third "/", which must give the
    whole url's netloc, or fail with the whole url's ValueError."""

    @settings(max_examples=2000, deadline=None)
    @given(URLS)
    def test_cut_url_gives_the_urls_netloc(self, url):
        record = {"id": "d1", "url": url, "host": "", "title": "t", "body": "b"}
        try:
            netloc = urlsplit(url).netloc
        except ValueError as exc:
            with pytest.raises(ParseError) as caught:
                _parse_document(record, 3, "c.jsonl")
            assert str(caught.value) == f"c.jsonl: line 3: url {url!r} is not a valid URL ({exc})"
        else:
            assert _parse_document(record, 3, "c.jsonl").host == netloc


class TestStopWordFile:
    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# header\nthe\n\nAnd\n", encoding="utf-8")
        assert load_stop_words(path) == frozenset({"the", "and"})

    def test_line_separator_inside_a_line_is_kept(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("the\u2028and\x0cor\n", encoding="utf-8")
        assert load_stop_words(path) == frozenset({"the\u2028and\x0cor"})

    def test_normalizer_uses_loaded_words(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("the\n", encoding="utf-8")
        norm = SuffixNormalizer(stop_words=load_stop_words(path))
        assert norm.normalize("the wear") == ["wear"]

    def test_normalizer_for_path(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("the\n", encoding="utf-8")
        assert normalizer_for(str(path)).normalize("the wear") == ["wear"]
        assert normalizer_for(None) is DEFAULT_NORMALIZER

    def test_normalizer_for_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "absent.txt"
        with pytest.raises(ConfigInvalid, match="absent.txt"):
            normalizer_for(str(missing))


class TestDataLines:
    def test_numbers_stripped_data_lines(self, tmp_path):
        path = tmp_path / "lines.txt"
        text = "# comment\n  a \n\n \t\n  # indented comment\nb\u2028c\x85d\n"
        path.write_text(text, encoding="utf-8")
        assert list(data_lines(path)) == [(2, "a"), (6, "b\u2028c\x85d")]

    def test_line_ends_as_text_lines_reads_them(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_bytes(b"a\r\nb\rc\n")
        assert list(data_lines(path)) == [(1, "a"), (2, "b"), (3, "c")]

    @pytest.mark.parametrize("end", [b"\n", b"\r", b"\r\n"], ids=["LF", "CR", "CRLF"])
    def test_not_utf8_names_file_and_line(self, tmp_path, end):
        path = tmp_path / "lines.txt"
        path.write_bytes(end.join([b"a", b"b", b"\xe9c", b""]))
        message = f"{path}: line 3: byte 0xe9 is not UTF-8 (invalid continuation byte)"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            list(data_lines(path))
