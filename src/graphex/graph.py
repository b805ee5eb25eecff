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
from itertools import chain
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

# Unsigned types an index array can be stored in, narrowest first.
_UINTS = tuple(np.dtype(t) for t in (np.uint8, np.uint16, np.uint32, np.uint64))


def narrowest(values: np.ndarray) -> np.ndarray:
    """``values`` in the narrowest type that holds every one of them exactly.

    Floats become float32 when each value survives the round trip through
    float32 bit for bit (``-0.0`` included), and float64 otherwise.
    Non-negative integers take the first of uint8, uint16, uint32 and
    uint64 that holds the largest.  An array already of that type is
    returned as it is.  A model's arrays are narrowed when it is built
    and again when it is written, so a built model, its file and the
    model loaded from that file hold the same types.
    """
    if values.dtype.kind == "f":
        with np.errstate(over="ignore"):
            narrow = values.astype(np.float32, copy=False)
        wide = values.astype(np.float64, copy=False)
        exact = np.array_equal(narrow.astype(np.float64).view(np.uint64), wide.view(np.uint64))
        return narrow if exact else wide
    top = int(values.max()) if len(values) else 0
    return values.astype(next(t for t in _UINTS if top <= np.iinfo(t).max), copy=False)


def starts_dtype(nbytes: int) -> np.dtype:
    """Type of the entry starts of a string table over ``nbytes`` of data."""
    return np.dtype(np.uint32 if nbytes < 1 << 32 else np.uint64)


class StringTable:
    """Read-only table of texts kept as one UTF-8 blob, not as ``str`` objects.

    Every entry is followed by ``\\n``, the layout of a text table in the
    model file.  ``starts`` holds ``len(table) + 1`` offsets into
    ``data``: entry ``i`` is ``data[starts[i]:starts[i + 1] - 1]`` and
    the blob is ``data[starts[0]:starts[-1]]``.  The offsets are uint32
    when ``data`` is under 4 GiB and uint64 otherwise (:func:`starts_dtype`).
    A built table's ``data`` is its blob; a loaded table's is the whole
    file, so the table copies nothing.  Indexing decodes one entry and
    :meth:`take` decodes many, so a query decodes only the texts it
    returns.  A table compares equal to another with the same blob and to
    a list of the same strings.
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
        starts = np.concatenate(([0], newlines + 1)).astype(starts_dtype(len(blob)))
        self._starts = memoryview(starts)

    @classmethod
    def from_buffer(cls, data: bytes, starts: np.ndarray) -> StringTable:
        """A table over ``data`` whose entry offsets are known (unchecked)."""
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
    keyphrase ids, all within this leaf's dense range.  ``token_rows`` and
    ``edges`` are uint32: a query searches the rows with a uint32 needle
    and sorts gathered edges as uint32.  ``offsets`` takes the narrowest
    unsigned type that holds the edge count (:func:`narrowest`), so a
    leaf of fewer than 65,536 edges spends 2 bytes a row on it.  A graph
    holds only these arrays, which are never mutated after construction,
    so it can be shared across threads freely.
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


class Model:
    """Immutable recommendation model: vocabulary, keyphrases, leaf graphs.

    Keyphrase ``i`` has text ``kp_texts[kp_text_ref[i]]``, ``kp_lengths[i]``
    unique tokens and canonical scores ``kp_search[i]``/``kp_recall[i]``;
    its tokens are the rows whose adjacency holds ``i`` in its leaf graph,
    so its length is its edge count (:func:`keyphrase_lengths`).
    Each of these four arrays has the narrowest type that holds its
    values exactly (:func:`narrowest`): an unsigned integer type for the
    references and lengths, float32 or float64 for the scores.
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


# Edges counted per bincount call: bincount widens its input to intp, so
# counting a whole big leaf at once would cost 8 bytes per edge.
_COUNT_CHUNK = 1 << 16


def keyphrase_lengths(leaf_graphs: Iterable[LeafGraph], num_keyphrases: int) -> np.ndarray:
    """Each keyphrase's token count, its number of edges, in the narrowest type.

    A keyphrase has one edge per distinct token, so an overlap count,
    which counts some of its edges, never exceeds its length.  A leaf
    whose keyphrase range leaves ``[0, num_keyphrases)``, or whose edge
    leaves that range, raises ``ValueError``.  The result starts as uint8
    and widens only when a leaf's counts need it, so no array of all
    keyphrases is wider than the result.
    """
    lengths = np.zeros(num_keyphrases, dtype=np.uint8)
    for graph in leaf_graphs:
        base, count, edges = graph.kp_base, graph.num_keyphrases, graph.edges
        if base + count > num_keyphrases:
            raise ValueError(f"leaf {graph.leaf_category}: keyphrases [{base}, {base + count}) "
                             f"run past the {num_keyphrases}-keyphrase table")
        # Checked before the uint32 subtraction below, which would wrap.
        if len(edges) and not (edges.min() >= base and edges.max() < base + count):
            raise ValueError(f"leaf {graph.leaf_category}: edge outside the leaf's "
                             f"keyphrase range [{base}, {base + count})")
        counts = np.zeros(count, dtype=np.intp)
        for start in range(0, len(edges), _COUNT_CHUNK):
            counts += np.bincount(edges[start:start + _COUNT_CHUNK] - np.uint32(base),
                                  minlength=count)
        counts = narrowest(counts)
        lengths = lengths.astype(np.promote_types(lengths.dtype, counts.dtype), copy=False)
        lengths[base:base + count] = counts
    return lengths


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from the one before."""
    first = np.empty(len(values), dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return first


def build(dataset: CuratedDataset) -> Model:
    """Construct an immutable model from a curated dataset.

    Deterministic by construction: token ids follow sorted token order,
    the string table is sorted, and keyphrase ids are assigned leaf by
    leaf (ascending leaf id) in ascending text order.  An empty dataset
    yields a valid model with zero leaves.
    """
    leaf_ids = sorted(dataset.leaves)
    by_text = operator.attrgetter("text")
    groups = [sorted(dataset.leaves[leaf], key=by_text) for leaf in leaf_ids]
    keyphrases = list(chain.from_iterable(groups))
    texts = [kp.text for kp in keyphrases]

    # Shared string table, sorted so that ids are reproducible across
    # builds.  Each leaf's texts are one sorted run, which sorting merges.
    unique_texts = list(dict.fromkeys(sorted(texts)))
    text_index = dict(zip(unique_texts, range(len(unique_texts))))

    # Every token of every keyphrase, interned in one pass; token ids
    # follow sorted token order.
    tokens = " ".join(texts).split()
    vocabulary = Vocabulary(sorted(set(tokens)))
    token_ids = np.fromiter(map(vocabulary.lookup, tokens), np.uint64, len(tokens))
    # Counted without keeping a list per keyphrase alive for the garbage
    # collector to walk.
    token_counts = np.fromiter(map(len, map(str.split, texts)), np.int64, len(texts))
    token_starts = np.concatenate(([0], np.cumsum(token_counts)))
    kp_ids = np.repeat(np.arange(len(keyphrases), dtype=np.uint64), token_counts)
    # One uint64 key per (token, keyphrase) pair, both ids below 2**32:
    # sorted, a leaf's keys run by token, then keyphrase, and a token
    # repeated in a keyphrase gives equal keys side by side.  Both
    # operands stay uint64; numpy mixes uint64 and int64 into float.
    keys = token_ids << np.uint64(32) | kp_ids

    leaf_graphs: dict[int, LeafGraph] = {}
    kp_base = 0
    for leaf_id, group in zip(leaf_ids, groups):
        kp_end = kp_base + len(group)
        # CSR for this leaf: one edge per distinct key, rows where the
        # token changes.
        leaf_keys = np.sort(keys[token_starts[kp_base]:token_starts[kp_end]])
        leaf_keys = leaf_keys[_run_starts(leaf_keys)]
        edges = leaf_keys.astype(np.uint32)  # the low 32 bits: keyphrase ids
        edge_tokens = (leaf_keys >> np.uint64(32)).astype(np.uint32)
        starts = np.flatnonzero(_run_starts(edge_tokens))
        leaf_graphs[leaf_id] = LeafGraph(
            leaf_category=leaf_id,
            token_rows=edge_tokens[starts],
            offsets=narrowest(np.append(starts, len(edges))),
            edges=edges,
            kp_base=kp_base,
            num_keyphrases=len(group),
        )
        kp_base = kp_end

    orientation = dataset.orientation
    return Model(
        meta_category=dataset.meta_category,
        orientation=orientation,
        vocabulary=vocabulary,
        kp_texts=StringTable(unique_texts),
        kp_text_ref=narrowest(
            np.fromiter(map(text_index.__getitem__, texts), np.uint32, len(texts))),
        kp_lengths=keyphrase_lengths(leaf_graphs.values(), len(keyphrases)),
        kp_search=narrowest(orientation.canonical_search(
            np.array([kp.search_score for kp in keyphrases], dtype=np.float64))),
        kp_recall=narrowest(orientation.canonical_recall(
            np.array([kp.recall_score for kp in keyphrases], dtype=np.float64))),
        leaf_graphs=leaf_graphs,
    )
