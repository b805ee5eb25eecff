"""Dataset curation: TSV ingest, score orientation, filtering, dedup.

Input rows are ``keyphrase \\t leaf_category \\t search_score \\t
recall_score``.  Scores are opaque non-negative floats whose meaning is
declared by a :class:`ScoreOrientation` (raw counts: higher search is
better; rank positions: lower is better).  Curation filters on the search
score under that orientation, deduplicates per (keyphrase, leaf), and
groups the survivors by leaf category.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

from .vocab import tokenize


@dataclass(frozen=True)
class ScoreOrientation:
    """Declares how raw search/recall scores are to be compared.

    Canonical form used internally: larger canonical search is better and
    smaller canonical recall is better, regardless of the raw convention.
    Canonicalization is its own inverse, so raw values can be recovered
    for display.
    """

    search_higher_better: bool
    recall_lower_better: bool

    @classmethod
    def from_name(cls, name: str) -> "ScoreOrientation":
        if name == "count":
            return cls(search_higher_better=True, recall_lower_better=True)
        if name == "rank":
            return cls(search_higher_better=False, recall_lower_better=False)
        raise ValueError(f"unknown score orientation: {name!r}")

    def canonical_search(self, raw: float) -> float:
        return raw if self.search_higher_better else -raw

    def canonical_recall(self, raw: float) -> float:
        return raw if self.recall_lower_better else -raw

    # Canonicalization is an involution; expose the inverse by name so
    # call sites read correctly.
    raw_search = canonical_search
    raw_recall = canonical_recall


COUNT_ORIENTATION = ScoreOrientation(search_higher_better=True, recall_lower_better=True)
RANK_ORIENTATION = ScoreOrientation(search_higher_better=False, recall_lower_better=False)


class RawKeyphraseRow(NamedTuple):
    """One parsed input row, scores still in their raw convention."""

    keyphrase: str
    leaf_category: int
    search_score: float
    recall_score: float


@dataclass(frozen=True)
class RowError:
    line_no: int
    message: str


@dataclass
class IngestReport:
    """Parse outcome counters; malformed rows never abort the stream."""

    rows_ok: int = 0
    errors: list[RowError] = field(default_factory=list)

    @property
    def rows_bad(self) -> int:
        return len(self.errors)


# Leaf category ids are stored as signed 64-bit integers in the model file.
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


def utf8_error(text: str) -> str | None:
    """Why ``text`` is not valid UTF-8, or ``None`` when it is.

    :func:`read_lines` decodes each byte that is not UTF-8 as a lone
    surrogate (``errors="surrogateescape"``), so one bad byte spoils only
    its own line, which this check then rejects.
    """
    if text.isascii():
        return None
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        code = ord(text[exc.start])
        byte = f" byte {code - 0xDC00:#04x}" if 0xDC80 <= code <= 0xDCFF else ""
        return f"invalid UTF-8{byte} at column {exc.start + 1}"
    return None


def read_lines(path: str) -> Iterator[tuple[int, str, str | None]]:
    """Yield ``(line number, line, utf8_error(line))`` per non-blank line of a file.

    The one policy for every input file: universal newlines, line ends
    stripped, blank lines skipped but counted, line numbers from 1."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if line:
                yield line_no, line, None if line.isascii() else utf8_error(line)


def _parse_score(text: str, what: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{what} must be a non-negative finite number, got {text!r}")
    return value


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _is_header(fields: list[str]) -> bool:
    """Whether a first line is a header: four columns, and none of leaf,
    search and recall parses as a number."""
    return len(fields) == 4 and not any(map(_is_number, fields[1:]))


def ingest(path: str, report: IngestReport | None = None) -> Iterator[RawKeyphraseRow]:
    """Parse the TSV file at ``path`` into :class:`RawKeyphraseRow` values.

    Lines are read by :func:`read_lines`.  Malformed rows (invalid UTF-8,
    wrong column count, empty keyphrase, a leaf that is not an integer or
    falls outside the signed 64-bit range, unparseable scores) are
    recorded in ``report`` with their 1-based line numbers and skipped.
    The first line is skipped as a header only when :func:`_is_header`
    says so; any other first line is a data row like the rest.
    """
    if report is None:
        report = IngestReport()
    first = True
    for line_no, line, error in read_lines(path):
        fields = line.split("\t")
        if first:
            first = False
            if _is_header(fields):
                continue
        try:
            if error is not None:
                raise ValueError(error)
            if len(fields) != 4:
                raise ValueError(f"expected 4 tab-separated columns, got {len(fields)}")
            keyphrase, leaf_text, search_text, recall_text = fields
            if not keyphrase.strip():
                raise ValueError("empty keyphrase")
            leaf = int(leaf_text)
            if not INT64_MIN <= leaf <= INT64_MAX:
                raise ValueError(
                    f"leaf category {leaf_text!r} is outside the signed 64-bit range"
                )
            search = _parse_score(search_text, "search score")
            recall = _parse_score(recall_text, "recall score")
        except ValueError as exc:
            report.errors.append(RowError(line_no, str(exc)))
            continue
        report.rows_ok += 1
        yield RawKeyphraseRow(keyphrase, leaf, search, recall)


class CuratedKeyphrase(NamedTuple):
    """A retained keyphrase: normalized text plus raw scores."""

    text: str
    search_score: float
    recall_score: float


@dataclass
class CurationStats:
    rows_in: int = 0
    kept: int = 0
    dropped_by_threshold: int = 0
    dropped_empty: int = 0
    deduplicated: int = 0


@dataclass
class CuratedDataset:
    """Threshold-filtered, deduplicated keyphrases grouped by leaf category."""

    meta_category: str
    orientation: ScoreOrientation
    leaves: dict[int, list[CuratedKeyphrase]]
    stats: CurationStats
    warnings: list[str] = field(default_factory=list)

    @property
    def is_vacuous(self) -> bool:
        return not self.leaves


def curate(
    rows: Iterable[RawKeyphraseRow],
    min_search: float | None = None,
    orientation: ScoreOrientation = COUNT_ORIENTATION,
    meta_category: str = "",
) -> CuratedDataset:
    """Filter, deduplicate, and group rows by leaf category.

    ``min_search`` is interpreted under ``orientation``: with count-like
    scores rows below the threshold are dropped, with rank-like scores
    rows ranked worse (numerically above) are dropped.  ``None`` disables
    the filter.  Duplicate (keyphrase, leaf) pairs keep the row whose
    search score is best under the orientation; exact ties keep the first
    occurrence.  Keyphrase text is normalized through the shared
    tokenizer, the one queries use, so graph construction, curation and
    inference can never disagree on token identity.
    """
    higher_better = orientation.search_higher_better
    min_canonical = None if min_search is None else orientation.canonical_search(min_search)
    rows_in = kept = dropped_by_threshold = dropped_empty = deduplicated = 0

    # leaf -> normalized text -> the row kept so far
    best: dict[int, dict[str, CuratedKeyphrase]] = {}
    for keyphrase, leaf, search, recall in rows:
        rows_in += 1
        tokens = tokenize(keyphrase)
        if not tokens:
            dropped_empty += 1
            continue
        # orientation.canonical_search, inlined.
        canonical = search if higher_better else -search
        if min_canonical is not None and canonical < min_canonical:
            dropped_by_threshold += 1
            continue
        text = " ".join(tokens)
        group = best.get(leaf)
        if group is None:
            group = best[leaf] = {}
        previous = group.get(text)
        if previous is not None:
            deduplicated += 1
            if not canonical > orientation.canonical_search(previous.search_score):
                continue
        else:
            kept += 1
        group[text] = CuratedKeyphrase(text, search, recall)

    leaves = {leaf: [group[text] for text in sorted(group)] for leaf, group in sorted(best.items())}
    stats = CurationStats(rows_in=rows_in, kept=kept, dropped_by_threshold=dropped_by_threshold,
                          dropped_empty=dropped_empty, deduplicated=deduplicated)
    warnings: list[str] = []
    dataset = CuratedDataset(meta_category, orientation, leaves, stats, warnings)
    if dataset.is_vacuous:
        warnings.append("curation produced an empty dataset")
    return dataset
