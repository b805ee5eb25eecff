"""Bipartite token-to-keyphrase graphs in CSR form, one per leaf category.

A model is a collection of leaf graphs over a shared token vocabulary and
a shared keyphrase string table.  Keyphrase ids are assigned contiguously
per leaf (leaves in ascending id order, keyphrases in ascending text
order within a leaf), which makes every leaf's ids a dense range
``[kp_base, kp_base + num_keyphrases)`` and keeps builds deterministic:
the same curated dataset always produces the same model, byte for byte.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator

import numpy as np

from .curation import CuratedDataset, ScoreOrientation
from .vocab import Vocabulary


class UnknownLeafError(KeyError):
    """Raised when a leaf category id has no graph in the model."""

    def __init__(self, leaf_category: int):
        super().__init__(leaf_category)
        self.leaf_category = leaf_category

    def __str__(self) -> str:
        return f"unknown leaf category: {self.leaf_category}"


# Entries decoded at a time when a string table is iterated.
_ITER_CHUNK = 4096


class StringTable:
    """Read-only table of texts kept as one UTF-8 blob, not as ``str`` objects.

    Every entry is followed by ``\\n``, the layout of a text table in the
    model file.  ``starts`` holds ``len(table) + 1`` int64 offsets into
    ``data``: entry ``i`` is ``data[starts[i]:starts[i + 1] - 1]`` and
    the blob is ``data[starts[0]:starts[-1]]``.  A built table's ``data``
    is its blob; a loaded table's is the whole file, so the table copies
    nothing.  Indexing decodes one entry and :meth:`take` decodes many,
    so a query decodes only the texts it returns.  A table compares equal
    to another with the same blob and to a list of the same strings.
    """

    __slots__ = ("_data", "_starts")

    def __init__(self, texts: Iterable[str] = ()) -> None:
        texts = list(texts)
        blob = "\n".join([*texts, ""]).encode("utf-8")
        newlines = np.flatnonzero(np.frombuffer(blob, dtype=np.uint8) == 10)
        if len(newlines) != len(texts):
            bad = next(text for text in texts if "\n" in text)
            raise ValueError(f"a string table entry contains a newline: {bad!r}")
        self._data = blob
        self._starts = memoryview(np.concatenate(([0], newlines + 1)).astype(np.int64, copy=False))

    @classmethod
    def from_buffer(cls, data: bytes, starts: np.ndarray) -> StringTable:
        """A table over ``data`` whose int64 entry offsets are known (unchecked)."""
        table = cls.__new__(cls)
        table._data = data
        # Indexing a memoryview gives Python ints, cheaper than numpy scalars.
        table._starts = memoryview(starts)
        return table

    @property
    def blob(self) -> memoryview:
        """The newline-ended UTF-8 bytes of all entries (a view)."""
        return memoryview(self._data)[self._starts[0]:self._starts[-1]]

    def __len__(self) -> int:
        return len(self._starts) - 1

    def __getitem__(self, index: int) -> str:
        i = operator.index(index)
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"string table index out of range: {index}")
        return self._data[self._starts[i]:self._starts[i + 1] - 1].decode()

    def __iter__(self) -> Iterator[str]:
        starts, n = self._starts, len(self)
        for lo in range(0, n, _ITER_CHUNK):
            chunk = self._data[starts[lo]:starts[min(lo + _ITER_CHUNK, n)] - 1]
            yield from chunk.decode().split("\n")

    def take(self, ids: np.ndarray) -> list[str]:
        """The texts of entries ``ids`` (valid indices), decoded in order."""
        data, starts = self._data, self._starts
        return [data[starts[i]:starts[i + 1] - 1].decode() for i in ids.tolist()]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StringTable):
            return self.blob == other.blob
        if isinstance(other, list):
            return len(other) == len(self) and list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"<StringTable: {len(self)} entries, {len(self.blob)} bytes>"


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


class Model:
    """Immutable recommendation model: vocabulary, keyphrases, leaf graphs.

    Keyphrase ``i`` has text ``kp_texts[kp_text_ref[i]]``, ``kp_lengths[i]``
    unique tokens and canonical scores ``kp_search[i]``/``kp_recall[i]``;
    its tokens are the rows whose adjacency holds ``i`` in its leaf graph.
    ``kp_texts`` is a :class:`StringTable`: the texts stay one UTF-8 blob
    (a view of the file bytes in a loaded model) and are decoded only
    when read, so a model holds no ``str`` per keyphrase.
    """

    def __init__(
        self,
        meta_category: str,
        orientation: ScoreOrientation,
        vocabulary: Vocabulary,
        kp_texts: StringTable,
        kp_text_ref: np.ndarray,
        kp_lengths: np.ndarray,
        kp_search: np.ndarray,
        kp_recall: np.ndarray,
        leaf_graphs: dict[int, LeafGraph],
    ) -> None:
        self.meta_category = meta_category
        self.orientation = orientation
        self.vocabulary = vocabulary
        self.kp_texts = kp_texts
        self.kp_text_ref = kp_text_ref
        self.kp_lengths = kp_lengths
        self.kp_search = kp_search
        self.kp_recall = kp_recall
        self.leaf_graphs = leaf_graphs

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

    vocabulary = Vocabulary(sorted({tok for text in unique_texts for tok in text.split()}))
    lookup = vocabulary.lookup

    orientation = dataset.orientation
    text_refs: list[int] = []
    lengths: list[int] = []
    searches: list[float] = []
    recalls: list[float] = []
    leaf_graphs: dict[int, LeafGraph] = {}

    for leaf_id in leaf_ids:
        group = sorted(dataset.leaves[leaf_id], key=lambda kp: kp.text)
        kp_base = len(lengths)
        edge_tokens: list[int] = []
        for kp in group:
            token_ids = {lookup(tok) for tok in kp.text.split()}
            text_refs.append(text_index[kp.text])
            lengths.append(len(token_ids))
            searches.append(orientation.canonical_search(kp.search_score))
            recalls.append(orientation.canonical_recall(kp.recall_score))
            edge_tokens.extend(token_ids)

        # CSR for this leaf: sort (token, keyphrase) pairs by token then
        # keyphrase and slice rows out of the flat edge array.
        tok_col = np.asarray(edge_tokens, dtype=np.int64)
        kp_col = np.repeat(
            np.arange(kp_base, len(lengths), dtype=np.int64),
            np.asarray(lengths[kp_base:], dtype=np.int64),
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
        kp_texts=StringTable(unique_texts),
        kp_text_ref=np.asarray(text_refs, dtype=np.uint32),
        kp_lengths=np.asarray(lengths, dtype=np.uint32),
        kp_search=np.asarray(searches, dtype=np.float64),
        kp_recall=np.asarray(recalls, dtype=np.float64),
        leaf_graphs=leaf_graphs,
    )
