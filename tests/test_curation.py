from __future__ import annotations

import os
import random
import tempfile

import pytest

from graphex.curation import (
    COUNT_ORIENTATION,
    RANK_ORIENTATION,
    IngestReport,
    RawKeyphraseRow,
    ScoreOrientation,
    curate,
    ingest,
    read_lines,
)

from helpers import make_rows


def rows_from(text: str, **kwargs):
    report = IngestReport()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.tsv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        parsed = list(ingest(path, report=report, **kwargs))
    return parsed, report


def test_read_lines_skips_and_counts_blank_lines_and_flags_invalid_utf8(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_bytes(b"one\r\n\n\r\nt\xffo\rthree\nlast")
    assert list(read_lines(str(path))) == [
        (1, "one", None),
        (4, "t\udcffo", "invalid UTF-8 byte 0xff at column 2"),
        (5, "three", None),
        (6, "last", None),
    ]


def test_ingest_parses_well_formed_rows():
    parsed, report = rows_from("audeze maxwell\t42\t1\t5\n")
    assert parsed == [RawKeyphraseRow("audeze maxwell", 42, 1.0, 5.0)]
    assert report.rows_ok == 1
    assert report.rows_bad == 0


def test_ingest_empty_file_yields_nothing():
    parsed, report = rows_from("")
    assert parsed == []
    assert report.rows_ok == 0


def test_ingest_records_malformed_rows_with_line_numbers():
    text = (
        "good phrase\t1\t10\t20\n"
        "missing columns\t1\t10\n"
        "bad leaf\tnot-an-int\t10\t20\n"
        "bad score\t1\tNaN\t20\n"
        "negative\t1\t-5\t20\n"
        "\t1\t10\t20\n"
        "another good one\t2\t7\t7\n"
    )
    parsed, report = rows_from(text)
    assert [row.keyphrase for row in parsed] == ["good phrase", "another good one"]
    assert report.rows_ok == 2
    assert [err.line_no for err in report.errors] == [2, 3, 4, 5, 6]


def test_ingest_autodetects_header_line():
    with_header = "keyphrase\tleaf_category\tsearch_score\trecall_score\nphrase\t1\t2\t3\n"
    parsed, report = rows_from(with_header)
    assert len(parsed) == 1
    assert report.rows_bad == 0

    headerless = "phrase\t1\t2\t3\nother\t1\t4\t5\n"
    parsed, _ = rows_from(headerless)
    assert len(parsed) == 2


def test_ingest_blank_lines_are_skipped_without_errors():
    parsed, report = rows_from("phrase\t1\t2\t3\n\n\nother\t2\t3\t4\n")
    assert len(parsed) == 2
    assert report.rows_bad == 0


def test_orientation_names_round_trip():
    assert ScoreOrientation.from_name("count") == COUNT_ORIENTATION
    assert ScoreOrientation.from_name("rank") == RANK_ORIENTATION
    with pytest.raises(ValueError):
        ScoreOrientation.from_name("sideways")


def test_orientation_canonicalization_is_its_own_inverse():
    for orientation in (COUNT_ORIENTATION, RANK_ORIENTATION):
        for value in (0.0, 1.0, 99.5):
            assert orientation.raw_search(orientation.canonical_search(value)) == value
            assert orientation.raw_recall(orientation.canonical_recall(value)) == value


def kept_keyphrases(dataset) -> int:
    return sum(len(group) for group in dataset.leaves.values())


def row(kp: str, leaf: int, search: float, recall: float = 0.0) -> RawKeyphraseRow:
    return RawKeyphraseRow(kp, leaf, search, recall)


def test_curate_threshold_under_count_orientation():
    rows = [row("a", 1, 200.0), row("b", 1, 180.0), row("c", 1, 90.0)]
    dataset = curate(rows, min_search=180.0, orientation=COUNT_ORIENTATION)
    assert [kp.text for kp in dataset.leaves[1]] == ["a", "b"]
    assert dataset.stats.dropped_by_threshold == 1


def test_curate_threshold_under_rank_orientation_keeps_best_ranks():
    rows = [row("a", 1, 1.0), row("b", 1, 5.0), row("c", 1, 11.0)]
    dataset = curate(rows, min_search=10.0, orientation=RANK_ORIENTATION)
    assert [kp.text for kp in dataset.leaves[1]] == ["a", "b"]


def test_curate_without_threshold_keeps_everything():
    rows = [row("a", 1, 0.0), row("b", 1, 999.0)]
    dataset = curate(rows, min_search=None)
    assert kept_keyphrases(dataset) == 2
    dataset = curate(rows, min_search=0.0, orientation=COUNT_ORIENTATION)
    assert kept_keyphrases(dataset) == 2


def test_curate_dedupes_on_normalized_text_keeping_best_search():
    rows = [
        row("Gaming Headset", 7, 10.0, recall=1.0),
        row("gaming  headset", 7, 30.0, recall=2.0),
        row("GAMING HEADSET!", 7, 20.0, recall=3.0),
    ]
    dataset = curate(rows, orientation=COUNT_ORIENTATION)
    kept = dataset.leaves[7]
    assert len(kept) == 1
    assert kept[0].text == "gaming headset"
    assert kept[0].search_score == 30.0
    assert kept[0].recall_score == 2.0
    assert dataset.stats.deduplicated == 2
    assert (dataset.stats.rows_in, dataset.stats.kept) == (3, 1)


def test_curate_dedup_tie_keeps_first_occurrence():
    rows = [row("phrase", 1, 5.0, recall=111.0), row("phrase", 1, 5.0, recall=222.0)]
    dataset = curate(rows)
    assert dataset.leaves[1][0].recall_score == 111.0


def test_curate_same_text_in_different_leaves_is_not_a_duplicate():
    rows = [row("shared phrase", 1, 5.0), row("shared phrase", 2, 6.0)]
    dataset = curate(rows)
    assert sorted(dataset.leaves) == [1, 2]
    assert dataset.stats.deduplicated == 0


def test_curate_drops_keyphrases_that_normalize_to_empty():
    rows = [row("!!!", 1, 5.0), row("fine", 1, 5.0)]
    dataset = curate(rows)
    assert dataset.stats.dropped_empty == 1
    assert [kp.text for kp in dataset.leaves[1]] == ["fine"]


def test_curate_empty_result_is_flagged_vacuous_with_warning():
    rows = [row("a", 1, 10.0)]
    dataset = curate(rows, min_search=100.0, orientation=COUNT_ORIENTATION)
    assert dataset.is_vacuous
    assert kept_keyphrases(dataset) == 0
    assert dataset.warnings


def test_curate_recall_scores_pass_through_untouched():
    rows = [row("a", 1, 10.0, recall=123.456)]
    dataset = curate(rows)
    assert dataset.leaves[1][0].recall_score == 123.456


def test_curate_filtering_is_monotone_in_threshold():
    rng = random.Random(11)
    rows = make_rows(rng, 300, vocab_size=50, leaf_ids=[1, 2, 3])
    thresholds = sorted(rng.uniform(0, 1000) for _ in range(10))
    sizes = [
        kept_keyphrases(curate(rows, min_search=t, orientation=COUNT_ORIENTATION))
        for t in thresholds
    ]
    assert sizes == sorted(sizes, reverse=True)


def test_curate_output_unique_per_leaf_and_sorted():
    rng = random.Random(13)
    rows = make_rows(rng, 500, vocab_size=30, leaf_ids=[1, 2], min_len=1, max_len=3)
    dataset = curate(rows)
    for leaf, group in dataset.leaves.items():
        texts = [kp.text for kp in group]
        assert texts == sorted(texts)
        assert len(texts) == len(set(texts))


def test_ingest_rejects_leaf_ids_outside_int64():
    text = (
        f"at max\t{2**63 - 1}\t1\t1\n"
        f"at min\t{-2**63}\t1\t1\n"
        f"above\t{2**63}\t1\t1\n"
        f"below\t{-2**63 - 1}\t1\t1\n"
    )
    parsed, report = rows_from(text)
    assert [row.leaf_category for row in parsed] == [2**63 - 1, -2**63]
    assert [err.line_no for err in report.errors] == [3, 4]
    assert all("64-bit" in err.message for err in report.errors)
