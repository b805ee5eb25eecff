"""Candidate generation, alignment scoring, pruning, and ranking.

For a query title the engine walks each unique title token's adjacency
list in the leaf graph, counts how often every keyphrase appears across
those lists (that count equals the token overlap between title and
keyphrase, because keyphrase token lists are deduplicated), scores the
survivors with an alignment function, and ranks them.  Counting sorts
the gathered edges and measures runs of equal ids, so a query costs
O(E log E) in the E edges its title tokens gather, independent of how
many keyphrases the leaf holds.  When the prune cannot keep a keyphrase
that shares one token only, the runs are measured over the repeated ids
alone: on a dense leaf most of the E edges are keyphrases hit once, so
the counting and pruning after the sort then touch a few dozen ids.

One vectorized pipeline serves every caller, in two stages.
``_candidates`` gathers, counts and prunes, one query at a time.
``_rank`` scores and orders the survivors of several queries in one
pass: :func:`recommend` ranks one query, and :func:`recommend_batch`
ranks fixed-size chunks of items, so a batch pays the fixed cost of the
ranking's numpy calls once per chunk rather than once per item.
:func:`enumerate_candidates` shows the first stage's counts and scores
before pruning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from json.encoder import encode_basestring_ascii as _json_string
from typing import Iterable, Sequence

import numpy as np

from .graph import Model, UnknownLeafError
from .vocab import tokenize, unique_tokens

DEFAULT_K = 10
DEFAULT_MAX_PREDICTIONS = 40


class Alignment(Enum):
    """Selectable alignment function.

    With overlap ``c``, keyphrase length ``|l|`` and title length ``|t|``:
    LTA, linear token alignment, is ``c / (|l| - c + 1)``: it grows faster
    than linearly as the overlap approaches the full keyphrase, so fully
    matched keyphrases dominate partially matched longer ones.  WMR, word
    match ratio, is ``c / |l|``.  JAC is the Jaccard overlap of the token
    sets, ``c / (|l| + |t| - c)``.
    """

    LTA = "lta"
    WMR = "wmr"
    JAC = "jac"

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


@dataclass(frozen=True)
class Query:
    title: str
    leaf_category: int
    k: int = DEFAULT_K


@dataclass(frozen=True)
class Candidate:
    """A keyphrase that shares at least one token with the title.

    ``search`` and ``recall`` are in the model's canonical orientation
    (larger search better, smaller recall better).
    """

    kp_id: int
    common: int
    align: float
    search: float
    recall: float


@dataclass(slots=True)
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
    """Every keyphrase sharing a title token, scored, in ascending id order.

    The counts and scores :func:`recommend` ranks, before its
    ``min_common_tokens`` filter and count-group pruning.
    """
    tokens = unique_tokens(tokenize(query.title))
    kp_ids, counts = _runs(_gather(model, model.leaf(query.leaf_category), tokens))
    scores = align.score_array(counts, model.kp_lengths[kp_ids], float(len(tokens)))
    columns = (kp_ids, counts, scores, model.kp_search[kp_ids], model.kp_recall[kp_ids])
    return [Candidate(*row) for row in zip(*(column.tolist() for column in columns))]


def _prune_cutoff(counts: np.ndarray, k: int) -> int:
    """Smallest common-token count whose group is still kept.

    Candidates are grouped by their common-token count; groups are taken
    in descending count order until the cumulative size reaches ``k``,
    and the threshold group is kept in full, so more than ``k`` may
    survive.  With ``k`` or fewer candidates all are kept (cutoff 0).
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


def _gather(model: Model, graph, tokens: list[str]) -> np.ndarray:
    """Sorted keyphrase ids of the title tokens' adjacency slices.

    All title tokens are found in the leaf's sorted ``token_rows`` with one
    binary search.  A keyphrase appears once per title token it holds, so
    after the sort each keyphrase forms one run whose length is its count.
    """
    empty = np.empty(0, dtype=np.int64)
    lookup = model.vocabulary.lookup
    known = [token_id for token_id in map(lookup, tokens) if token_id is not None]
    token_rows = graph.token_rows
    if not known or not len(token_rows):
        return empty
    # Vocabulary ids fit in uint32, and a uint32 needle keeps searchsorted
    # from copying the haystack to a wider type.
    ids = np.array(known, dtype=np.uint32)
    pos = token_rows.searchsorted(ids)
    rows = pos[token_rows.take(pos, mode="clip") == ids]
    if not len(rows):
        return empty
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
    return gathered


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a sorted array, ascending, and their run lengths."""
    n = len(values)
    run_edge = np.empty(n + 1, dtype=bool)
    run_edge[0] = run_edge[n] = True
    np.not_equal(values[1:], values[:-1], out=run_edge[1:n])
    starts = np.flatnonzero(run_edge)
    return values[starts[:-1]], starts[1:] - starts[:-1]


def _candidates(
    model: Model, query: Query, min_common_tokens: int | None = None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Survivors of one query: gather and count, filter, prune whole count groups.

    Returns the surviving keyphrase ids (ascending), their overlap counts
    and the title's unique token count.  A dense leaf gathers thousands of
    keyphrases of which a few dozen survive, so when no keyphrase with
    count 1 can survive, only the repeated ids (the second and later
    entries of each run) are counted, a run of ``r`` repeats being a
    count of ``r + 1``.  That holds when ``min_common_tokens`` is at least
    2, and when at least ``k`` ids repeat: the groups of count 2 and up
    then hold ``k`` keyphrases, so the prune cutoff is at least 2.
    """
    k = query.k
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    graph = model.leaf(query.leaf_category)
    tokens = unique_tokens(tokenize(query.title))
    gathered = _gather(model, graph, tokens)
    floor = 1 if min_common_tokens is None else min_common_tokens
    counted = None
    # k repeated ids take at least 2k edges; fewer edges count every run.
    if len(gathered) >= 2 * k or floor > 1 and len(gathered) > k:
        # The second and later entries of each run.
        repeats = gathered[1:][gathered[1:] == gathered[:-1]]
        kp_ids, runs = _runs(repeats)
        if floor > 1 or len(kp_ids) >= k:
            counted = kp_ids, runs + 1
    kp_ids, counts = _runs(gathered) if counted is None else counted
    if floor > 1:
        keep = counts >= floor
        kp_ids, counts = kp_ids[keep], counts[keep]
    cutoff = _prune_cutoff(counts, k)
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

    A query's order is total: align descending, then canonical search
    descending, canonical recall ascending and keyphrase id ascending.
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
    # work on arrays as they do on floats.  Only the returned keyphrases'
    # texts are decoded.
    orientation = model.orientation
    rows = zip(
        model.kp_texts.take(model.kp_text_ref[kp_ids[order]]),
        align_scores[order].tolist(),
        orientation.raw_search(search[order]).tolist(),
        orientation.raw_recall(recall[order]).tolist(),
        positions,
    )
    flat = [
        Prediction(text, align_score, raw_search, raw_recall, position)
        for text, align_score, raw_search, raw_recall, position in rows
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
    """JSON-ready prediction rows, the shape :func:`encode_row` writes."""
    return [
        {
            "keyphrase": pred.keyphrase,
            "align": pred.align,
            "search": pred.search,
            "recall": pred.recall,
        }
        for pred in predictions
    ]


def encode_row(
    predictions: Iterable[Prediction],
    item_id: str | None = None,
    title: str | None = None,
    error: str | None = None,
) -> str:
    """``json.dumps`` of a result row, written without building dicts.

    The row holds ``item_id``, ``title``, ``predictions`` (as
    :func:`predictions_to_dicts`) and ``error`` in that order, leaving
    out those given as None; ``encode_row(predictions)`` is the body the
    server answers.  ``infer`` and ``serve`` both write rows with it, so
    their outputs agree byte for byte.  Scores print with ``%r`` as
    ``json.dumps`` prints them: a loaded model's scores are all finite.
    """
    fields = [] if item_id is None else ['"item_id": ' + _json_string(item_id)]
    if title is not None:
        fields.append('"title": ' + _json_string(title))
    fields.append('"predictions": [' + ", ".join([
        '{"keyphrase": %s, "align": %r, "search": %r, "recall": %r}'
        % (_json_string(pred.keyphrase), pred.align, pred.search, pred.recall)
        for pred in predictions
    ]) + "]")
    if error is not None:
        fields.append('"error": ' + _json_string(error))
    return "{" + ", ".join(fields) + "}"
