"""Bipartite token-to-keyphrase graphs in CSR form, one per leaf category.

A model is a collection of leaf graphs over a shared token vocabulary and
a shared keyphrase string table.  Keyphrase ids are assigned contiguously
per leaf (leaves in ascending id order, keyphrases in ascending text
order within a leaf), which makes every leaf's ids a dense range
``[kp_base, kp_base + num_keyphrases)`` and keeps builds deterministic:
the same curated dataset always produces the same model, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .curation import CuratedDataset, ScoreOrientation
from .vocab import Vocabulary

FORMAT_VERSION = 2


class UnknownLeafError(KeyError):
    """Raised when a leaf category id has no graph in the model."""

    def __init__(self, leaf_category: int):
        super().__init__(leaf_category)
        self.leaf_category = leaf_category

    def __str__(self) -> str:
        return f"unknown leaf category: {self.leaf_category}"


@dataclass(frozen=True)
class KeyphraseRecord:
    """One keyphrase as stored in the model (scores in canonical form)."""

    kp_id: int
    text: str
    token_ids: tuple[int, ...]
    search: float
    recall: float

    @property
    def length(self) -> int:
        return len(self.token_ids)


class LeafGraph:
    """CSR adjacency from local token rows to global keyphrase ids.

    ``token_rows`` holds the global token ids present in this leaf in
    strictly ascending order (loading a model file checks this), so the
    row of a token is found by binary search over it; row ``i`` covers
    ``edges[offsets[i]:offsets[i + 1]]``.  Edge lists store global
    keyphrase ids, all within this leaf's dense range.  A graph holds only
    these arrays, which are never mutated after construction, so it can be
    shared across threads freely.
    """

    __slots__ = ("leaf_category", "token_rows", "offsets", "edges", "kp_base",
                 "num_keyphrases")

    def __init__(
        self,
        leaf_category: int,
        token_rows: np.ndarray,
        offsets: np.ndarray,
        edges: np.ndarray,
        kp_base: int,
        num_keyphrases: int,
    ) -> None:
        self.leaf_category = leaf_category
        self.token_rows = token_rows
        self.offsets = offsets
        self.edges = edges
        self.kp_base = kp_base
        self.num_keyphrases = num_keyphrases

    @property
    def num_tokens(self) -> int:
        return len(self.token_rows)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def row_of(self, token_id: int) -> int | None:
        """Local row for a global token id, or ``None`` if absent here."""
        # Ids outside uint32 are never rows; checking first also keeps the
        # needle cast below from wrapping or raising.
        if not 0 <= token_id < 1 << 32:
            return None
        rows = self.token_rows
        row = int(rows.searchsorted(np.uint32(token_id)))
        if row < len(rows) and rows[row] == token_id:
            return row
        return None

    def adjacency_row(self, row: int) -> np.ndarray:
        """Keyphrase ids adjacent to local row ``row`` (a view, not a copy)."""
        return self.edges[self.offsets[row]:self.offsets[row + 1]]

    def adjacency(self, token_id: int) -> np.ndarray:
        """Keyphrase ids adjacent to a global token id (empty if absent)."""
        row = self.row_of(token_id)
        if row is None:
            return self.edges[:0]
        return self.adjacency_row(row)


@dataclass(frozen=True)
class DegreeStats:
    leaf_category: int
    num_tokens: int
    num_edges: int

    @property
    def avg_degree(self) -> float:
        return self.num_edges / self.num_tokens if self.num_tokens else 0.0


class Model:
    """Immutable recommendation model: vocabulary, keyphrases, leaf graphs."""

    def __init__(
        self,
        meta_category: str,
        orientation: ScoreOrientation,
        vocabulary: Vocabulary,
        kp_texts: list[str],
        kp_text_ref: np.ndarray,
        kp_token_offsets: np.ndarray,
        kp_token_ids: np.ndarray,
        kp_search: np.ndarray,
        kp_recall: np.ndarray,
        leaf_graphs: dict[int, LeafGraph],
        version: int = FORMAT_VERSION,
    ) -> None:
        self.meta_category = meta_category
        self.orientation = orientation
        self.vocabulary = vocabulary
        self.kp_texts = kp_texts
        self.kp_text_ref = kp_text_ref
        self.kp_token_offsets = kp_token_offsets
        self.kp_token_ids = kp_token_ids
        self.kp_search = kp_search
        self.kp_recall = kp_recall
        self.leaf_graphs = leaf_graphs
        self.version = version
        # Unique token count per keyphrase, precomputed for the hot path.
        # The offsets are int64 already; a copy would be one more
        # keyphrase-sized temporary at load.
        self.kp_lengths = np.diff(kp_token_offsets).astype(np.int64, copy=False)

    @property
    def num_keyphrases(self) -> int:
        return len(self.kp_text_ref)

    @property
    def leaf_categories(self) -> list[int]:
        return sorted(self.leaf_graphs)

    def leaf(self, leaf_category: int) -> LeafGraph:
        try:
            return self.leaf_graphs[leaf_category]
        except KeyError:
            raise UnknownLeafError(leaf_category) from None

    def kp_text(self, kp_id: int) -> str:
        return self.kp_texts[int(self.kp_text_ref[kp_id])]

    def keyphrase(self, kp_id: int) -> KeyphraseRecord:
        if not 0 <= kp_id < self.num_keyphrases:
            raise IndexError(f"keyphrase id out of range: {kp_id}")
        start, stop = self.kp_token_offsets[kp_id], self.kp_token_offsets[kp_id + 1]
        return KeyphraseRecord(
            kp_id=kp_id,
            text=self.kp_text(kp_id),
            token_ids=tuple(int(t) for t in self.kp_token_ids[start:stop]),
            search=float(self.kp_search[kp_id]),
            recall=float(self.kp_recall[kp_id]),
        )

    def keyphrases_in_leaf(self, leaf_category: int) -> Iterable[KeyphraseRecord]:
        graph = self.leaf(leaf_category)
        for kp_id in range(graph.kp_base, graph.kp_base + graph.num_keyphrases):
            yield self.keyphrase(kp_id)


def degree_stats(model: Model, leaf_category: int) -> DegreeStats:
    """Token count, edge count for one leaf graph (unknown leaf raises)."""
    graph = model.leaf(leaf_category)
    return DegreeStats(leaf_category, graph.num_tokens, graph.num_edges)


def build(dataset: CuratedDataset) -> Model:
    """Construct an immutable model from a curated dataset.

    Deterministic by construction: token ids follow sorted token order,
    the string table is sorted, and keyphrase ids are assigned leaf by
    leaf (ascending leaf id) in ascending text order.  An empty dataset
    yields a valid model with zero leaves.
    """
    leaf_ids = sorted(dataset.leaves)

    # Shared string table and token vocabulary, both in sorted order so
    # that ids are reproducible across builds.
    unique_texts = sorted({kp.text for leaf in leaf_ids for kp in dataset.leaves[leaf]})
    text_index = {text: i for i, text in enumerate(unique_texts)}

    token_surfaces = sorted({tok for text in unique_texts for tok in text.split()})
    vocabulary = Vocabulary()
    for surface in token_surfaces:
        vocabulary.intern(surface)
    vocabulary.freeze()

    orientation = dataset.orientation
    text_refs: list[int] = []
    searches: list[float] = []
    recalls: list[float] = []
    token_offsets: list[int] = [0]
    flat_token_ids: list[int] = []
    leaf_graphs: dict[int, LeafGraph] = {}

    next_kp = 0
    for leaf_id in leaf_ids:
        group = sorted(dataset.leaves[leaf_id], key=lambda kp: kp.text)
        kp_base = next_kp
        edge_tokens: list[int] = []
        edge_lengths: list[int] = []
        for kp in group:
            token_ids = sorted({vocabulary.lookup(tok) for tok in kp.text.split()})
            text_refs.append(text_index[kp.text])
            searches.append(orientation.canonical_search(kp.search_score))
            recalls.append(orientation.canonical_recall(kp.recall_score))
            flat_token_ids.extend(token_ids)
            token_offsets.append(len(flat_token_ids))
            edge_tokens.extend(token_ids)
            edge_lengths.append(len(token_ids))
        next_kp += len(group)

        # CSR for this leaf: sort (token, keyphrase) pairs by token then
        # keyphrase and slice rows out of the flat edge array.
        tok_col = np.asarray(edge_tokens, dtype=np.int64)
        kp_col = np.repeat(
            np.arange(kp_base, next_kp, dtype=np.int64),
            np.asarray(edge_lengths, dtype=np.int64),
        )
        order = np.lexsort((kp_col, tok_col))
        tok_col = tok_col[order]
        kp_col = kp_col[order]
        token_rows, counts = np.unique(tok_col, return_counts=True)
        offsets = np.zeros(len(token_rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        leaf_graphs[leaf_id] = LeafGraph(
            leaf_category=leaf_id,
            token_rows=token_rows.astype(np.uint32),
            offsets=offsets,
            edges=kp_col.astype(np.uint32),
            kp_base=kp_base,
            num_keyphrases=len(group),
        )

    return Model(
        meta_category=dataset.meta_category,
        orientation=orientation,
        vocabulary=vocabulary,
        kp_texts=unique_texts,
        kp_text_ref=np.asarray(text_refs, dtype=np.uint32),
        kp_token_offsets=np.asarray(token_offsets, dtype=np.int64),
        kp_token_ids=np.asarray(flat_token_ids, dtype=np.uint32),
        kp_search=np.asarray(searches, dtype=np.float64),
        kp_recall=np.asarray(recalls, dtype=np.float64),
        leaf_graphs=leaf_graphs,
    )
