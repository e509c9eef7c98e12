"""Canonical serialization and ledger-directory round trips."""

import hashlib
import json
import math
import os
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoquery.errors import LedgerCorrupt
from evoquery.ledger import (
    ABSENT,
    CONFIG_FILE,
    DIGEST_CHUNK,
    FINAL_RESULTS_FILE,
    GENERATIONS_FILE,
    LEDGER_FORMAT,
    canonical_json,
    file_digest,
    first_divergence,
    parse_record_line,
    read_config_payload,
    read_ledger_file,
    new_ledger_dir,
    staged_sibling,
    text_divergence,
)
from reference_ledger import reference_canonical_json, reference_format_float


class TestFormatFloat:
    """The format-1 float spelling that the golden digests are still checked in."""

    def test_plain_fraction(self):
        assert reference_format_float(0.5) == "0.5"

    def test_integral_value_keeps_float_spelling(self):
        assert reference_format_float(1.0) == "1.0"
        assert reference_format_float(123456789.0) == "123456789.0"

    def test_seventeen_digit_expansion(self):
        assert reference_format_float(0.1) == "0.10000000000000001"

    def test_exponent_form_untouched(self):
        assert reference_format_float(2.2250738585072014e-308) == "2.2250738585072014e-308"


class TestCanonicalJson:
    def test_sorted_keys_compact_ascii(self):
        assert canonical_json({"b": 1, "a": [1.5, "é"]}) == '{"a":[1.5,"\\u00e9"],"b":1}'

    def test_literals(self):
        assert canonical_json([True, False, None]) == "[true,false,null]"

    def test_int_and_float_spelled_apart(self):
        assert canonical_json(1) == "1"
        assert canonical_json(1.0) == "1.0"

    def test_insertion_order_irrelevant(self):
        first = {"x": 1, "y": {"b": 2.0, "a": 3}}
        second = {"y": {"a": 3, "b": 2.0}, "x": 1}
        assert canonical_json(first) == canonical_json(second)

    def test_tuple_serialized_as_array(self):
        assert canonical_json((1, 2)) == "[1,2]"

    def test_float_shortest_round_trip_spelling(self):
        assert canonical_json(0.1) == "0.1"
        assert canonical_json(0.5) == "0.5"
        assert canonical_json(123456789.0) == "123456789.0"
        assert canonical_json(1e16) == "1e+16"
        assert canonical_json(2.2250738585072014e-308) == "2.2250738585072014e-308"

    def test_non_finite_float_rejected(self):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                canonical_json({"a": [value]})

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_float_round_trip_exact(self, value):
        parsed = float(canonical_json(value))
        assert parsed == value
        assert math.copysign(1.0, parsed) == math.copysign(1.0, value)

    def test_non_string_key_rejected(self):
        # json.dumps spells int, float, bool and None keys as strings; every
        # ledger payload key is a str literal or a dataclass field name
        with pytest.raises(TypeError):
            canonical_json({(1, 2): "x"})

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            canonical_json({"a": {1, 2}})

    @given(
        st.recursive(
            st.none()
            | st.booleans()
            | st.integers()
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.text(max_size=8),
            lambda children: st.lists(children, max_size=4)
            | st.dictionaries(st.text(max_size=4), children, max_size=4),
            max_leaves=12,
        )
    )
    def test_output_parses_back_equal(self, value):
        parsed = json.loads(canonical_json(value))
        # parsing maps every canonical spelling back to the source value
        assert parsed == value
        assert canonical_json(parsed) == canonical_json(value)


class TestLedgerDir:
    def _write(self, tmp_path):
        config = {"config": {"g2": 8}, "inputs": None}
        generations = ['{"generation":0,"population_fitness":0.5}\n']
        final = '[{"fitness":0.25,"url":"https://a.example/x"}]\n'
        with new_ledger_dir(tmp_path, config) as staging:
            (staging / GENERATIONS_FILE).write_text("".join(generations))
            (staging / FINAL_RESULTS_FILE).write_text(final)
        return config, generations, final

    def test_round_trip(self, tmp_path):
        config, generations, final = self._write(tmp_path)
        assert read_config_payload(tmp_path) == config
        assert read_ledger_file(tmp_path, GENERATIONS_FILE) == "".join(generations)
        assert read_ledger_file(tmp_path, FINAL_RESULTS_FILE) == final

    def test_files_end_with_newline(self, tmp_path):
        self._write(tmp_path)
        for name in (CONFIG_FILE, GENERATIONS_FILE, FINAL_RESULTS_FILE):
            assert (tmp_path / name).read_text().endswith("\n")

    def test_reader_keeps_exact_text(self, tmp_path):
        # no blank line is skipped and no line end is translated
        text = '{"a":1}\r\n\n{"b":2}\r \u2028\n'
        (tmp_path / GENERATIONS_FILE).write_bytes(text.encode("utf-8"))
        assert read_ledger_file(tmp_path, GENERATIONS_FILE) == text

    def test_missing_files_reported(self, tmp_path):
        with pytest.raises(LedgerCorrupt, match=f"missing {CONFIG_FILE}"):
            read_config_payload(tmp_path)
        with pytest.raises(LedgerCorrupt, match=f"missing {GENERATIONS_FILE}"):
            read_ledger_file(tmp_path, GENERATIONS_FILE)
        with pytest.raises(LedgerCorrupt, match=f"missing {FINAL_RESULTS_FILE}"):
            read_ledger_file(tmp_path, FINAL_RESULTS_FILE)

    def test_bad_json_reported(self, tmp_path):
        (tmp_path / CONFIG_FILE).write_text("{nope")
        with pytest.raises(LedgerCorrupt):
            read_config_payload(tmp_path)
        with pytest.raises(LedgerCorrupt):
            parse_record_line("{nope", 3, GENERATIONS_FILE)
        with pytest.raises(LedgerCorrupt):
            parse_record_line("[1]", 1, GENERATIONS_FILE)  # record must be an object

    def test_integer_over_digit_limit_names_file_and_line(self, tmp_path):
        path = tmp_path / GENERATIONS_FILE
        where = re.escape(f"{path} line 4 is not valid JSON")
        with pytest.raises(LedgerCorrupt, match=f"^{where}"):
            parse_record_line('{"generation":' + "9" * 5000 + "}", 4, path)

    def test_config_records_ledger_format(self, tmp_path):
        config, _, _ = self._write(tmp_path)
        written = json.loads((tmp_path / CONFIG_FILE).read_text())
        assert written == {**config, "ledger_format": LEDGER_FORMAT}
        assert read_config_payload(tmp_path) == config

    def test_file_digest_matches_hashlib(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"fixed bytes")
        assert file_digest(path) == hashlib.sha256(b"fixed bytes").hexdigest()

    @pytest.mark.parametrize("size", [0, DIGEST_CHUNK - 1, DIGEST_CHUNK, DIGEST_CHUNK + 1,
                                      3 * DIGEST_CHUNK + 5])
    def test_file_digest_at_chunk_edges(self, tmp_path, size):
        data = bytes(range(256)) * (size // 256) + bytes(size % 256)
        path = tmp_path / "blob.bin"
        path.write_bytes(data)
        assert file_digest(path) == hashlib.sha256(data).hexdigest()

    def test_file_digest_holds_no_copy_of_the_file(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(os.urandom(4 << 20))
        tracemalloc.start()
        try:
            file_digest(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 << 10


class TestFirstDivergentPath:
    def test_equal_trees(self):
        assert first_divergence({"a": [1, {"b": 2}]}, {"a": [1, {"b": 2}]}) is None

    def test_nested_list_item(self):
        left = {"a": {"b": [1, 2, 3]}}
        right = {"a": {"b": [1, 9, 3]}}
        assert first_divergence(left, right) == ("a.b[1]", 2, 9)

    def test_missing_key_named(self):
        assert first_divergence({"a": 1}, {"a": 1, "b": 2}) == ("b", ABSENT, 2)

    def test_list_length(self):
        assert first_divergence({"q": [1, 2]}, {"q": [1]}) == ("q.length", 2, 1)

    def test_type_mismatch_at_root(self):
        assert first_divergence([1], {"a": 1}).path == "<root>"

    def test_earliest_key_wins(self):
        left = {"a": 1, "z": 1}
        right = {"a": 2, "z": 2}
        assert first_divergence(left, right).path == "a"

    def test_path_prefix(self):
        assert first_divergence([{"f": 0.5}], [{"f": 0.25}], "final")[0] == "final[0].f"


class TestTextDivergence:
    def test_differing_field_comes_first(self):
        assert text_divergence('{"a":1}', '{"a":2}', json.loads, "x") == ("x.a", 1, 2)

    def test_equal_values_name_the_first_differing_column(self):
        stored, fresh = '{"a":1, "b":2}', '{"a":1,"b":2}'
        assert text_divergence(stored, fresh, json.loads) == (
            "<bytes at column 8>", stored, fresh
        )

    def test_one_text_a_prefix_of_the_other(self):
        assert text_divergence("[1]\n", "[1]", json.loads).path == "<bytes at column 4>"

    def test_each_side_clipped_around_the_difference(self):
        stored, fresh = "[" + "1," * 500 + " 2]", "[" + "1," * 500 + "2]"
        found = text_divergence(stored, fresh, json.loads)
        assert found == ("<bytes at column 1002>", stored[961:1041], fresh[961:1041])
        assert found.expected[40] == " " and found.actual[40] == "2"


def _outcome(writer, value):
    try:
        return writer(value)
    except (TypeError, ValueError) as exc:
        return type(exc)


def _payloads(leaves, keys):
    return st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(keys, children, max_size=4),
        max_leaves=16,
    )


_VALID_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text()
)


def _as_format_1(value):
    """The format-1 bytes of ``value``, read back from its canonical text."""
    return reference_canonical_json(json.loads(canonical_json(value)))


class TestCanonicalJsonMatchesReference:
    """Format 2 holds every value format 1 did: only float spelling moved."""

    @settings(max_examples=300)
    @given(_payloads(_VALID_LEAVES, st.text()))
    def test_same_bytes(self, value):
        assert _as_format_1(value) == reference_canonical_json(value)

    @given(st.dictionaries(st.text(max_size=3), st.text(), max_size=3), st.integers(2, 5))
    def test_repeated_keys_same_bytes(self, record, copies):
        value = {"rows": [dict(record) for _ in range(copies)], "é": record}
        assert _as_format_1(value) == reference_canonical_json(value)

    @given(
        _payloads(
            _VALID_LEAVES | st.floats() | st.frozensets(st.integers(), max_size=2),
            st.text(max_size=2),
        )
    )
    def test_same_rejects(self, value):
        # str keys only: json.dumps spells int keys as strings, format 1 refused them
        assert _outcome(_as_format_1, value) == _outcome(reference_canonical_json, value)


@pytest.mark.parametrize("directory", [False, True], ids=["file", "directory"])
def test_staged_sibling_skips_a_taken_name(tmp_path, monkeypatch, directory):
    draws = iter([b"\0" * 6, b"\1" * 6])
    monkeypatch.setattr(os, "urandom", lambda n: next(draws))
    taken = tmp_path / f".out.{'00' * 6}.tmp"
    taken.mkdir()
    with staged_sibling(tmp_path / "out", directory) as staging:
        assert staging.name == f".out.{'01' * 6}.tmp"
        assert staging.is_dir() if directory else staging.read_bytes() == b""
    assert sorted(p.name for p in tmp_path.iterdir()) == [taken.name, "out"]
    assert list(taken.iterdir()) == []
