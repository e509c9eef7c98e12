import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from evoquery.errors import ParseError
from evoquery.evaluation import (
    Judgment,
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

S = Persona.SPECIALIST
N = Persona.NOVICE


def grade_list(*grades):
    return [float(g) for g in grades]


class TestLoadQrels:
    def write(self, tmp_path, text):
        path = tmp_path / "qrels.tsv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_well_formed_file(self, tmp_path):
        path = self.write(
            tmp_path,
            "# comment line\n"
            "https://a.org/1\te1\tS\t3\n"
            "https://a.org/1\te1\tN\t2\n"
            "https://a.org/1\te2\tS\t2\n"
            "https://b.org/2\te1\tS\t0\n",
        )
        judgments = load_qrels(path)
        assert len(judgments) == 4
        assert judgments[0] == Judgment("https://a.org/1", S, 3)

    def test_grade_out_of_scale(self, tmp_path):
        path = self.write(tmp_path, "https://a.org/1\te1\tS\t4\n")
        with pytest.raises(ParseError, match="line 1: grade 4 outside 0..3"):
            load_qrels(path)

    def test_duplicate_key(self, tmp_path):
        path = self.write(
            tmp_path,
            "https://a.org/1\te1\tS\t3\nhttps://a.org/1\te1\tS\t2\n",
        )
        repeated = "line 2: repeated judgment for https://a.org/1 / e1 / S$"
        with pytest.raises(ParseError, match=repeated):
            load_qrels(path)

    def test_same_url_judge_different_persona_allowed(self, tmp_path):
        path = self.write(
            tmp_path,
            "https://a.org/1\te1\tS\t3\nhttps://a.org/1\te1\tN\t2\n",
        )
        assert len(load_qrels(path)) == 2

    def test_bad_field_count(self, tmp_path):
        path = self.write(tmp_path, "https://a.org/1\te1\tS\n")
        with pytest.raises(ParseError, match="line 1"):
            load_qrels(path)

    def test_bad_persona(self, tmp_path):
        path = self.write(tmp_path, "https://a.org/1\te1\tX\t2\n")
        with pytest.raises(ParseError, match="persona"):
            load_qrels(path)

    def test_empty_judge_id(self, tmp_path):
        # a stripped line starts with its url, so only the judge id can be empty
        for line in ("https://a.org/1\t\tS\t3\n", "https://a.org/1\t \tS\t3\n"):
            path = self.write(tmp_path, line)
            with pytest.raises(ParseError, match="line 1: empty judge id$"):
                load_qrels(path)

    def test_non_integer_grade(self, tmp_path):
        path = self.write(tmp_path, "https://a.org/1\te1\tS\ttwo\n")
        with pytest.raises(ParseError, match="grade"):
            load_qrels(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = self.write(tmp_path, "\nhttps://a.org/1\te1\tS\t1\n\n")
        assert len(load_qrels(path)) == 1


class TestConsensus:
    def test_mean_of_two_judges(self):
        judgments = [
            Judgment("u", S, 3),
            Judgment("u", S, 2),
        ]
        assert consensus_map(judgments) == {("u", S): 2.5}

    def test_single_judge(self):
        assert consensus_map([Judgment("u", S, 3)]) == {("u", S): 3.0}

    def test_map_groups_by_url_and_persona(self):
        judgments = [
            Judgment("u", S, 3),
            Judgment("u", S, 2),
            Judgment("u", N, 1),
            Judgment("v", S, 0),
        ]
        cmap = consensus_map(judgments)
        assert cmap[("u", S)] == 2.5
        assert cmap[("u", N)] == 1.0
        assert cmap[("v", S)] == 0.0


class TestResolveGrades:
    def test_missing_counted_and_zeroed(self):
        assert missing_grades([3.0, None]) == ([3.0, 0.0], 1)
        assert missing_grades([]) == ([], 0)

    def test_persona_separation(self):
        grades = consensus_map([Judgment("u1", S, 3)])
        assert missing_grades([grades.get(("u1", N))]) == ([0.0], 1)
        assert missing_grades([grades.get(("u1", S))]) == ([3.0], 0)


class TestMeanRelevanceAndPrecision:
    def test_mean_relevance(self):
        assert mean_relevance(grade_list(3, 3, 0, 0)) == 1.5

    def test_mean_relevance_all_zero(self):
        assert mean_relevance(grade_list(0, 0)) == 0.0

    def test_mean_relevance_empty_list(self):
        assert mean_relevance([]) == 0.0

    def test_mean_relevance_adds_left_to_right_on_every_python(self):
        # sum() would give exactly 1.0 here from Python 3.12 on
        assert mean_relevance([0.1] * 10) == 0.9999999999999999 / 10

    def test_precision_default_threshold(self):
        assert precision(grade_list(3, 2, 1, 0)) == 0.5

    def test_precision_threshold_zero_is_one(self):
        assert precision(grade_list(0, 0), threshold=0) == 1.0

    def test_precision_monotone_in_threshold(self):
        grades = grade_list(0, 1, 1, 2, 2, 3, 3, 3)
        values = [precision(grades, threshold=t) for t in range(4)]
        assert values == sorted(values, reverse=True)

    def test_precision_empty_list(self):
        assert precision([]) == 0.0


class TestDcg:
    def test_single_grade_three(self):
        assert dcg(grade_list(3), n=10) == pytest.approx(7.0)

    def test_two_grades_hand_value(self):
        expected = 7.0 + 3.0 / math.log2(3)
        assert dcg(grade_list(3, 2), n=10) == pytest.approx(expected, abs=1e-9)
        assert dcg(grade_list(3, 2), n=10) == pytest.approx(8.892789, abs=1e-6)

    def test_all_zero_grades(self):
        assert dcg(grade_list(0, 0), n=10) == 0.0

    def test_empty_list(self):
        assert dcg([], n=10) == 0.0

    def test_cutoff_truncates(self):
        assert dcg(grade_list(3, 3, 3), n=1) == pytest.approx(7.0)


class TestNdcg:
    def test_ideal_order_scores_one(self):
        assert ndcg(grade_list(3, 2, 1), n=10) == 1.0

    def test_known_swap_value(self):
        value = ndcg(grade_list(2, 3), n=10)
        expected = (3 + 7 / math.log2(3)) / (7 + 3 / math.log2(3))
        assert value == pytest.approx(expected, abs=1e-9)
        assert value == pytest.approx(0.833991, abs=1e-6)

    def test_all_zero_grades_define_zero(self):
        # the CLI notes this case on stderr (test_cli's test_zero_grades_noted_once_per_persona)
        assert ndcg(grade_list(0, 0), n=10) == 0.0

    def test_ideal_ordering_is_the_grades_best_first(self):
        grades = grade_list(1, 3, 0, 2, 3)
        assert ideal_ordering(grades) == grade_list(3, 3, 2, 1, 0)
        assert grades == grade_list(1, 3, 0, 2, 3)  # the caller's list is left as it was

    def test_range_and_unity_iff_grade_equivalent(self):
        for perm in itertools.permutations(grade_list(1, 3, 0, 2, 3)):
            value = ndcg(list(perm), n=10)
            assert 0.0 <= value <= 1.0
            if list(perm) == sorted(perm, reverse=True):
                assert value == pytest.approx(1.0)

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_no_permutation_beats_ideal(self, grade_vector):
        grades = grade_list(*grade_vector)
        best = dcg(ideal_ordering(grades), n=6)
        for perm in itertools.permutations(grades):
            assert dcg(list(perm), n=6) <= best + 1e-12


class TestCrossCorrelation:
    def test_rho_identical_sequences(self):
        assert rho12([3, 1, 2], [3, 1, 2]) == pytest.approx(1.0, abs=1e-12)

    def test_rho_orthogonal(self):
        assert rho12([1, 0], [0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_rho_hand_value(self):
        assert rho12([1, 1], [1, 0]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert rho12([1, 1], [1, 0]) == pytest.approx(0.707107, abs=1e-6)

    def test_rho_zero_energy_rejected(self):
        assert rho12([0, 0], [1, 2]) is None
        assert rho12([1, 2], [0, 0]) is None
        assert rho12([], []) is None

    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=20),
        st.floats(min_value=0.1, max_value=10),
    )
    @settings(max_examples=150)
    def test_rho_symmetric_and_scale_invariant(self, xs, scale):
        ys = [x + 1 for x in xs]
        if sum(x * x for x in xs) == 0.0 or sum(y * y for y in ys) == 0.0:
            return
        # squaring magnitudes below ~1e-154 denormalizes and breaks exactness
        if any(v != 0.0 and abs(v) < 1e-100 for v in xs + ys):
            return
        assert rho12(xs, ys) == pytest.approx(rho12(ys, xs), abs=1e-12)
        scaled = [scale * x for x in xs]
        assert rho12(scaled, ys) == pytest.approx(rho12(xs, ys), abs=1e-12)

    def test_rho_bounded(self):
        assert -1.0 <= rho12([1, -2, 3], [-1, 2, -3]) <= 1.0
        assert rho12([1, -2, 3], [-1, 2, -3]) == pytest.approx(-1.0, abs=1e-12)


class TestOverlap:
    def test_identical_lists(self):
        assert overlap_percent(["u1", "u2"], ["u2", "u1"]) == 100.0

    def test_disjoint_lists(self):
        assert overlap_percent(["u1"], ["u2"]) == 0.0

    def test_hand_jaccard(self):
        assert overlap_percent(["u1", "u2", "u3"], ["u3", "u4"]) == 25.0

    def test_both_empty(self):
        assert overlap_percent([], []) == 0.0

    def test_symmetric(self):
        a, b = ["u1", "u2"], ["u2", "u3"]
        assert overlap_percent(a, b) == overlap_percent(b, a)


class TestCumulativeSeries:
    def test_prefix_sums(self):
        series = cumulative_dcg_series(grade_list(3, 2), n=10)
        assert series[0] == pytest.approx(7.0)
        assert series[1] == pytest.approx(7 + 3 / math.log2(3))

    def test_series_respects_cutoff(self):
        assert len(cumulative_dcg_series(grade_list(*[1] * 5), n=3)) == 3

