"""Candidate generation, alignment scoring, pruning, and ranking.

For a query title the engine walks each unique title token's adjacency
list in the leaf graph, counts how often every keyphrase appears across
those lists (that count equals the token overlap between title and
keyphrase, because keyphrase token lists are deduplicated), scores the
survivors with an alignment function, and ranks them.  Counting sorts
the gathered edges and measures runs of equal ids, so a query costs
O(E log E) in the E edges its title tokens gather, independent of how
many keyphrases the leaf holds.

The work splits in two stages.  ``_candidates`` gathers, counts and
prunes, one query at a time.  ``_rank`` scores and orders the survivors
of several queries in one vectorized pass: :func:`recommend` ranks one
query, and :func:`recommend_batch` ranks fixed-size chunks of items, so a
batch pays the fixed cost of the ranking's numpy calls once per chunk
rather than once per item.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from .graph import Model, UnknownLeafError
from .vocab import tokenize, unique_tokens

DEFAULT_K = 10
DEFAULT_MAX_PREDICTIONS = 40


def _check_common(common: int, label_len: int) -> None:
    if not 1 <= common <= label_len:
        raise ValueError(
            f"common token count must satisfy 1 <= common <= label length, "
            f"got common={common}, label length={label_len}"
        )


def lta(common: int, label_len: int) -> float:
    """Linear token alignment: ``common / (label_len - common + 1)``.

    Grows faster than linearly as the overlap approaches the full
    keyphrase, so fully matched keyphrases dominate partially matched
    longer ones.
    """
    _check_common(common, label_len)
    return common / (label_len - common + 1)


def wmr(common: int, label_len: int) -> float:
    """Word match ratio: ``common / label_len``."""
    _check_common(common, label_len)
    return common / label_len


def jac(common: int, label_len: int, title_len: int) -> float:
    """Jaccard overlap between title and keyphrase token sets."""
    _check_common(common, label_len)
    if common > title_len:
        raise ValueError(
            f"common token count {common} exceeds title length {title_len}"
        )
    return common / (label_len + title_len - common)


class Alignment(Enum):
    """Selectable alignment function."""

    LTA = "lta"
    WMR = "wmr"
    JAC = "jac"

    def score(self, common: int, label_len: int, title_len: int | None = None) -> float:
        if self is Alignment.LTA:
            return lta(common, label_len)
        if self is Alignment.WMR:
            return wmr(common, label_len)
        if title_len is None:
            raise ValueError("title length is required for the jac alignment")
        return jac(common, label_len, title_len)

    def score_array(
        self, common: np.ndarray, label_len: np.ndarray, title_len: float | np.ndarray
    ) -> np.ndarray:
        """Scores of many candidates; ``title_len`` is one length or one per candidate."""
        common = common.astype(np.float64)
        label_len = label_len.astype(np.float64)
        if self is Alignment.LTA:
            return common / (label_len - common + 1.0)
        if self is Alignment.WMR:
            return common / label_len
        return common / (label_len + title_len - common)


def dedupe_and_count(items: Sequence[int]) -> list[tuple[int, int]]:
    """Collapse a stream of non-negative ids to (id, count) pairs.

    Counting uses a dense array indexed by id, not sorting, and the pairs
    come back in first-occurrence order.
    """
    if not items:
        return []
    top = max(items)
    bottom = min(items)
    if bottom < 0:
        raise ValueError(f"ids must be non-negative, got {bottom}")
    counts = [0] * (top + 1)
    order: list[int] = []
    for item in items:
        if counts[item] == 0:
            order.append(item)
        counts[item] += 1
    return [(item, counts[item]) for item in order]


@dataclass(frozen=True)
class Query:
    title: str
    leaf_category: int
    k: int = DEFAULT_K


@dataclass(frozen=True)
class Candidate:
    """A keyphrase that shares at least one token with the title.

    ``search`` and ``recall`` are in canonical orientation (larger search
    better, smaller recall better); raw values are restored when
    predictions are materialized.
    """

    kp_id: int
    common: int
    align: float
    search: float
    recall: float

    def sort_key(self) -> tuple[float, float, float, int]:
        """Total-order key: align desc, search desc, recall asc, id asc."""
        return (-self.align, -self.search, self.recall, self.kp_id)


@dataclass(frozen=True)
class Prediction:
    """One ranked recommendation with scores in their raw convention."""

    keyphrase: str
    align: float
    search: float
    recall: float
    position: int


def enumerate_candidates(
    model: Model, query: Query, align: Alignment = Alignment.LTA
) -> list[Candidate]:
    """Reference candidate generator (plain Python, first-occurrence order).

    :func:`recommend` computes the same set with vectorized counting; this
    form exists for clarity and as a cross-check.
    """
    graph = model.leaf(query.leaf_category)
    tokens = unique_tokens(tokenize(query.title))
    title_len = len(tokens)
    gathered: list[int] = []
    for token in tokens:
        token_id = model.vocabulary.lookup(token)
        if token_id is None:
            continue
        gathered.extend(int(kp) for kp in graph.adjacency(token_id))
    out: list[Candidate] = []
    for kp_id, common in dedupe_and_count(gathered):
        label_len = int(model.kp_lengths[kp_id])
        out.append(
            Candidate(
                kp_id=kp_id,
                common=common,
                align=align.score(common, label_len, title_len),
                search=float(model.kp_search[kp_id]),
                recall=float(model.kp_recall[kp_id]),
            )
        )
    return out


def prune_by_count_groups(candidates: Sequence[Candidate], k: int) -> list[Candidate]:
    """Keep whole overlap-count groups, highest counts first, until >= k.

    Candidates are grouped by their raw common-token count; groups are
    taken in descending count order until the cumulative size reaches
    ``k``, and the threshold group is kept in full, so the result may hold
    more than ``k`` entries.  Input order is preserved.  If there are
    fewer than ``k`` candidates, all are kept.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(candidates) <= k:
        return list(candidates)
    sizes: dict[int, int] = {}
    for cand in candidates:
        sizes[cand.common] = sizes.get(cand.common, 0) + 1
    kept = 0
    cutoff = 0
    for common in sorted(sizes, reverse=True):
        kept += sizes[common]
        cutoff = common
        if kept >= k:
            break
    return [cand for cand in candidates if cand.common >= cutoff]


def _prune_cutoff(counts: np.ndarray, k: int) -> int:
    """Smallest common-token count whose group is still kept (array form).

    Counts are bounded by the title length, so a histogram indexed by
    count replaces sorting: its reversed cumulative sum is the number of
    candidates kept at each cutoff, and empty groups never end the scan.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(counts) <= k:
        return 0
    cumulative = np.cumsum(np.bincount(counts)[::-1])
    return len(cumulative) - 1 - int(np.searchsorted(cumulative, k, side="left"))


def rank(model: Model, candidates: Sequence[Candidate], limit: int | None = None) -> list[Prediction]:
    """Order candidates by alignment with deterministic tie-breaks.

    Ties on alignment prefer larger canonical search, then smaller
    canonical recall, then smaller keyphrase id, making the order a total
    one.  ``limit`` caps the output length; scores are reported in the raw
    convention declared by the model's orientation.
    """
    ordered = sorted(candidates, key=Candidate.sort_key)
    if limit is not None:
        ordered = ordered[:limit]
    orientation = model.orientation
    return [
        Prediction(
            keyphrase=model.kp_text(cand.kp_id),
            align=cand.align,
            search=orientation.raw_search(cand.search),
            recall=orientation.raw_recall(cand.recall),
            position=position,
        )
        for position, cand in enumerate(ordered, start=1)
    ]


def _gather_counts(model: Model, graph, tokens: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Overlap counts of the keyphrases in the title tokens' adjacency slices.

    All title tokens are found in the leaf's sorted ``token_rows`` with one
    binary search; the gathered ids are sorted, so each keyphrase forms one
    run whose length is its count; ids come back ascending.
    """
    empty = np.empty(0, dtype=np.int64)
    lookup = model.vocabulary.lookup
    known = [token_id for token_id in map(lookup, tokens) if token_id is not None]
    token_rows = graph.token_rows
    if not known or not len(token_rows):
        return empty, empty
    # Vocabulary ids fit in uint32, and a uint32 needle keeps searchsorted
    # from copying the haystack to a wider type.
    ids = np.array(known, dtype=np.uint32)
    pos = token_rows.searchsorted(ids)
    rows = pos[token_rows.take(pos, mode="clip") == ids]
    if not len(rows):
        return empty, empty
    offsets = graph.offsets
    edges = graph.edges
    # Python-int bounds make plain slices, cheaper than numpy-scalar ones;
    # offsets[1:][rows] is offsets[rows + 1] without the addition.
    slices = [
        edges[start:stop]
        for start, stop in zip(offsets[rows].tolist(), offsets[1:][rows].tolist())
    ]
    # concatenate always copies, so sorting in place never touches the model.
    gathered = np.concatenate(slices)
    gathered.sort()
    n = len(gathered)
    run_edge = np.empty(n + 1, dtype=bool)
    run_edge[0] = run_edge[n] = True
    np.not_equal(gathered[1:], gathered[:-1], out=run_edge[1:n])
    starts = np.flatnonzero(run_edge)
    return gathered[starts[:-1]], starts[1:] - starts[:-1]


def _candidates(
    model: Model, query: Query, min_common_tokens: int | None = None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Survivors of one query: gather and count, filter, prune whole count groups.

    Returns the surviving keyphrase ids (ascending), their overlap counts
    and the title's unique token count.
    """
    if query.k < 1:
        raise ValueError(f"k must be >= 1, got {query.k}")
    graph = model.leaf(query.leaf_category)
    tokens = unique_tokens(tokenize(query.title))
    kp_ids, counts = _gather_counts(model, graph, tokens)
    if min_common_tokens is not None and min_common_tokens > 1:
        keep = counts >= min_common_tokens
        kp_ids, counts = kp_ids[keep], counts[keep]
    cutoff = _prune_cutoff(counts, query.k)
    if cutoff > 1:
        keep = counts >= cutoff
        kp_ids, counts = kp_ids[keep], counts[keep]
    return kp_ids, counts, len(tokens)


def _rank(
    model: Model,
    survivors: Sequence[tuple[np.ndarray, np.ndarray, int]],
    align: Alignment,
    max_predictions: int | None,
) -> list[list[Prediction]]:
    """Score and order the survivors of several queries in one pass.

    ``survivors`` holds one ``_candidates`` result per query.  Their
    arrays are concatenated into segments, one per query, and sorted with
    one ``lexsort`` whose first key is the segment, so each query's
    predictions come out contiguous and in its own order; the
    ``max_predictions`` cap then applies within each segment.  One query
    skips the segment bookkeeping.
    """
    single = len(survivors) == 1
    if single:
        kp_ids, counts, title_len = survivors[0]
        title_lens = float(title_len)
    else:
        sizes = [len(kp) for kp, _, _ in survivors]
        kp_ids = np.concatenate([kp for kp, _, _ in survivors])
        counts = np.concatenate([count for _, count, _ in survivors])
        title_lens = np.repeat(
            np.array([title_len for _, _, title_len in survivors], dtype=np.float64), sizes
        )
    if not len(kp_ids):
        return [[] for _ in survivors]

    align_scores = align.score_array(counts, model.kp_lengths[kp_ids], title_lens)
    search = model.kp_search[kp_ids]
    recall = model.kp_recall[kp_ids]
    if single:
        order = np.lexsort((kp_ids, recall, -search, -align_scores))[:max_predictions]
        positions = range(1, len(order) + 1)
    else:
        segment = np.repeat(np.arange(len(sizes)), sizes)
        order = np.lexsort((kp_ids, recall, -search, -align_scores, segment))
        # The sort keeps segments whole and in query order, so a
        # prediction's position is its offset from its segment's start.
        starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
        positions = np.arange(1, len(order) + 1) - starts
        # Each segment keeps what slicing it with [:max_predictions] keeps,
        # as the one-query path does.
        kept = [len(range(size)[:max_predictions]) for size in sizes]
        if kept != sizes:
            keep = positions <= np.repeat(kept, sizes)
            order, positions = order[keep], positions[keep]
        positions = positions.tolist()

    # Plain Python values from whole arrays; the orientation's sign flips
    # work on arrays as they do on floats.
    orientation = model.orientation
    texts = model.kp_texts
    rows = zip(
        model.kp_text_ref[kp_ids[order]].tolist(),
        align_scores[order].tolist(),
        orientation.raw_search(search[order]).tolist(),
        orientation.raw_recall(recall[order]).tolist(),
        positions,
    )
    flat = [
        Prediction(texts[ref], align_score, raw_search, raw_recall, position)
        for ref, align_score, raw_search, raw_recall, position in rows
    ]
    if single:
        return [flat]
    bounds = np.cumsum([0] + kept).tolist()
    return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def recommend(
    model: Model,
    query: Query,
    align: Alignment = Alignment.LTA,
    max_predictions: int = DEFAULT_MAX_PREDICTIONS,
    min_common_tokens: int | None = None,
) -> list[Prediction]:
    """Recommend keyphrases for one query.

    Pipeline: gather and count candidates, optionally drop those sharing
    fewer than ``min_common_tokens`` tokens, prune whole count groups down
    to roughly ``query.k``, score the survivors with ``align``, and rank.
    The threshold group is never split, so the result can exceed ``k``;
    ``max_predictions`` is the hard cap.  Raises
    :class:`~graphex.graph.UnknownLeafError` for a leaf the model does not
    contain.
    """
    survivors = _candidates(model, query, min_common_tokens)
    return _rank(model, [survivors], align, max_predictions)[0]


@dataclass(frozen=True)
class BatchItem:
    item_id: str
    query: Query


@dataclass
class BatchResult:
    item_id: str
    query: Query
    predictions: list[Prediction] = field(default_factory=list)
    error: str | None = None


# Items ranked together by recommend_batch.  Fixed, so a batch's cost
# stays linear in its length.
_RANK_CHUNK = 64


def recommend_batch(
    model: Model,
    items: Sequence[BatchItem],
    align: Alignment = Alignment.LTA,
    workers: int = 1,
    max_predictions: int = DEFAULT_MAX_PREDICTIONS,
) -> list[BatchResult]:
    """Recommend for many items on the calling thread; same answers as :func:`recommend`.

    Candidates are gathered, counted and pruned one item at a time; the
    survivors of each chunk of items are then scored and ranked together
    in one vectorized pass, which saves the fixed per-call cost of the
    small numpy calls a single ranking makes.  Results keep input order.
    Per-item failures (unknown leaf, bad query) land in
    ``BatchResult.error`` without aborting the batch.  ``workers`` is
    accepted for compatibility and has no effect: a query spends its time
    in short numpy calls that hold the interpreter lock, so threads would
    only add overhead.
    """
    results: list[BatchResult] = []
    pending = iter(items)
    while chunk := list(islice(pending, _RANK_CHUNK)):
        survivors = []
        errors: list[str | None] = []
        for item in chunk:
            try:
                survivors.append(_candidates(model, item.query))
            except (UnknownLeafError, ValueError) as exc:
                errors.append(str(exc))
            else:
                errors.append(None)
        ranked = iter(_rank(model, survivors, align, max_predictions) if survivors else ())
        for item, error in zip(chunk, errors):
            if error is None:
                results.append(BatchResult(item.item_id, item.query, next(ranked)))
            else:
                results.append(BatchResult(item.item_id, item.query, [], error))
    return results


def predictions_to_dicts(predictions: Iterable[Prediction]) -> list[dict]:
    """JSON-ready prediction rows, shared by batch output and the server."""
    return [
        {
            "keyphrase": pred.keyphrase,
            "align": pred.align,
            "search": pred.search,
            "recall": pred.recall,
        }
        for pred in predictions
    ]
