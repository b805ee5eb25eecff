"""Versioned binary serialization for models.

Layout (all integers little-endian):

* header: magic ``GEX1``, u32 format version, six u64 section offsets
  (meta, vocabulary, string table, keyphrase table, leaf graphs, body
  end).
* body: the five sections, written back to back in that order.
* footer: u32 CRC-32 of the body bytes.

Strings are u32-length-prefixed UTF-8.  Numeric arrays are written as raw
little-endian buffers so they can be rebuilt with ``np.frombuffer``
without per-element work.  Format version 2 zero-pads so that every array
and every leaf graph block starts at a file offset that is a multiple of
8; the reader works the padding out from the offset alone, and the
arrays it returns are aligned.  Serialization is deterministic: the same
model always produces the same bytes.

Loading checks the header, the checksum and then the structure, so that
a file whose checksum matches but whose contents are inconsistent fails
here with :class:`MalformedModelError` instead of misranking or raising
at query time.  Only the current format version is read; older files
are rebuilt with ``graphex train``.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .curation import ScoreOrientation
from .graph import FORMAT_VERSION, LeafGraph, Model
from .vocab import Vocabulary

MAGIC = b"GEX1"
_HEADER = struct.Struct("<4sI6Q")
_U32 = struct.Struct("<I")
_U8 = struct.Struct("<B")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_LEAF_HEADER_NBYTES = 8 + 4 + 4 + 4 + 8
_ALIGN = 8


class ModelFormatError(Exception):
    """Base error for unreadable model files."""


class NotAModelFileError(ModelFormatError):
    pass


class UnsupportedVersionError(ModelFormatError):
    pass


class TruncatedModelError(ModelFormatError):
    pass


class ChecksumError(ModelFormatError):
    pass


class MalformedModelError(ModelFormatError):
    """The checksum matches but the contents break the model's invariants."""


def _check_u32(value: int, what: str) -> int:
    if value >= 1 << 32:
        raise ValueError(f"{what} too large for format version {FORMAT_VERSION}: {value}")
    return value


def _require(ok, message: str) -> None:
    if not ok:
        raise MalformedModelError(message)


def _padded(nbytes: int) -> int:
    return nbytes + -nbytes % _ALIGN


class _Writer:
    """Appends fields to a buffer that starts at file offset 0."""

    def __init__(self) -> None:
        self.buf = bytearray()

    def u8(self, value: int) -> None:
        self.buf += _U8.pack(value)

    def u32(self, value: int) -> None:
        self.buf += _U32.pack(_check_u32(value, "u32 field"))

    def u64(self, value: int) -> None:
        self.buf += _U64.pack(value)

    def i64(self, value: int) -> None:
        self.buf += _I64.pack(value)

    def string(self, text: str) -> None:
        raw = text.encode("utf-8")
        self.u32(len(raw))
        self.buf += raw

    def align(self) -> None:
        self.buf += bytes(-len(self.buf) % _ALIGN)

    def array(self, arr: np.ndarray, dtype: str) -> None:
        self.align()
        self.buf += np.ascontiguousarray(arr, dtype=dtype).tobytes()


class _Reader:
    def __init__(self, data: bytes, pos: int) -> None:
        self.data = data
        self.pos = pos

    def _take(self, n: int) -> int:
        start = self.pos
        if start + n > len(self.data):
            raise TruncatedModelError(
                f"file ends at byte {len(self.data)}, needed {start + n}"
            )
        self.pos = start + n
        return start

    def u8(self) -> int:
        return self.data[self._take(1)]

    def u32(self) -> int:
        return _U32.unpack_from(self.data, self._take(4))[0]

    def u64(self) -> int:
        return _U64.unpack_from(self.data, self._take(8))[0]

    def i64(self) -> int:
        return _I64.unpack_from(self.data, self._take(8))[0]

    def string(self) -> str:
        length = self.u32()
        start = self._take(length)
        try:
            return self.data[start:start + length].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedModelError(f"string at byte {start} is not UTF-8: {exc}") from None

    def align(self) -> None:
        self._take(-self.pos % _ALIGN)

    def array(self, count: int, dtype: str) -> np.ndarray:
        self.align()
        itemsize = np.dtype(dtype).itemsize
        start = self._take(count * itemsize)
        return np.frombuffer(self.data, dtype=dtype, count=count, offset=start)


def _write_meta(w: _Writer, model: Model) -> None:
    w.string(model.meta_category)
    w.u8(int(model.orientation.search_higher_better))
    w.u8(int(model.orientation.recall_lower_better))
    w.u64(model.num_keyphrases)
    w.u32(len(model.leaf_graphs))

def _write_vocab(w: _Writer, model: Model) -> None:
    surfaces = model.vocabulary.surfaces()
    w.u32(len(surfaces))
    for surface in surfaces:
        w.string(surface)

def _write_strings(w: _Writer, model: Model) -> None:
    w.u32(len(model.kp_texts))
    for text in model.kp_texts:
        w.string(text)

def _write_keyphrases(w: _Writer, model: Model) -> None:
    w.u32(model.num_keyphrases)
    w.u64(len(model.kp_token_ids))
    w.array(model.kp_text_ref, "<u4")
    w.array(model.kp_token_offsets, "<i8")
    w.array(model.kp_token_ids, "<u4")
    w.array(model.kp_search, "<f8")
    w.array(model.kp_recall, "<f8")

def _write_leaf_block(w: _Writer, graph: LeafGraph) -> None:
    w.i64(graph.leaf_category)
    w.u32(graph.kp_base)
    w.u32(graph.num_keyphrases)
    w.u32(_check_u32(graph.num_tokens, "leaf token count"))
    w.u64(graph.num_edges)
    w.array(graph.token_rows, "<u4")
    w.array(graph.offsets, "<i8")
    w.array(graph.edges, "<u4")

def _write_leaves(w: _Writer, model: Model) -> None:
    # Each leaf block starts on an 8-byte boundary, and so does the body
    # end, so a block's size does not depend on where it lands.
    w.u32(len(model.leaf_graphs))
    for leaf_id in sorted(model.leaf_graphs):
        w.align()
        _write_leaf_block(w, model.leaf_graphs[leaf_id])
    w.align()


def leaf_block_nbytes(graph: LeafGraph) -> int:
    """Serialized size of one leaf graph block, in bytes.

    Includes the zero padding before each array and after the block, so
    the sizes of all blocks add up to the leaf section minus its 8-byte
    header (the leaf count and its padding).
    """
    rows = graph.num_tokens
    return (
        _padded(_LEAF_HEADER_NBYTES)
        + _padded(4 * rows)
        + 8 * (rows + 1)
        + _padded(4 * graph.num_edges)
    )


def to_bytes(model: Model) -> bytes:
    """Serialize ``model`` to the binary format (deterministic)."""
    _check_u32(model.num_keyphrases, "keyphrase count")
    _check_u32(len(model.vocabulary), "vocabulary size")
    w = _Writer()
    w.buf += bytes(_HEADER.size)  # filled in once the section offsets are known
    offsets = []
    for write in (_write_meta, _write_vocab, _write_strings, _write_keyphrases, _write_leaves):
        offsets.append(len(w.buf))
        write(w, model)
    offsets.append(len(w.buf))  # body end == checksum offset
    w.buf[:_HEADER.size] = _HEADER.pack(MAGIC, FORMAT_VERSION, *offsets)
    crc = zlib.crc32(memoryview(w.buf)[_HEADER.size:])
    w.buf += _U32.pack(crc)
    return bytes(w.buf)


def save(model: Model, path: str) -> int:
    """Write ``model`` to ``path``; returns the number of bytes written."""
    data = to_bytes(model)
    with open(path, "wb") as handle:
        handle.write(data)
    return len(data)


def _check_keyphrases(
    kp_text_ref: np.ndarray,
    kp_token_offsets: np.ndarray,
    kp_token_ids: np.ndarray,
    num_strings: int,
    num_tokens: int,
) -> None:
    _require(
        kp_token_offsets[0] == 0
        and kp_token_offsets[-1] == len(kp_token_ids)
        and bool(np.all(kp_token_offsets[1:] >= kp_token_offsets[:-1])),
        "keyphrase token offsets must rise from 0 to the token id count",
    )
    _require(
        not len(kp_text_ref) or kp_text_ref.max() < num_strings,
        f"keyphrase text reference outside the {num_strings}-entry string table",
    )
    _require(
        not len(kp_token_ids) or kp_token_ids.max() < num_tokens,
        f"keyphrase token id outside the {num_tokens}-token vocabulary",
    )


def _check_leaf(graph: LeafGraph, num_tokens: int) -> None:
    """Whole-array checks that make every query on ``graph`` well defined."""
    leaf = f"leaf {graph.leaf_category}"
    rows, offsets, edges = graph.token_rows, graph.offsets, graph.edges
    base, count = graph.kp_base, graph.num_keyphrases
    _require(
        bool(np.all(rows[1:] > rows[:-1])) and (not len(rows) or rows[-1] < num_tokens),
        f"{leaf}: token rows must be strictly ascending vocabulary ids",
    )
    _require(
        offsets[0] == 0 and offsets[-1] == len(edges)
        and bool(np.all(offsets[1:] >= offsets[:-1])),
        f"{leaf}: row offsets must rise from 0 to the edge count",
    )
    _require(
        not len(edges) or (edges.min() >= base and edges.max() < base + count),
        f"{leaf}: edge outside the leaf's keyphrase range [{base}, {base + count})",
    )


# Edges counted per bincount call: bincount widens its input to intp, so
# counting a whole big leaf at once would cost 8 bytes per edge.
_COUNT_CHUNK = 1 << 16


def _check_edge_counts(graph: LeafGraph, kp_token_offsets: np.ndarray) -> None:
    """Each keyphrase has one edge per token, so overlaps never exceed lengths.

    Runs after the range checks, which keep every edge inside the leaf's
    keyphrase range and that range inside the keyphrase table.
    """
    base, count, edges = graph.kp_base, graph.num_keyphrases, graph.edges
    counts = np.zeros(count, dtype=np.intp)
    for start in range(0, len(edges), _COUNT_CHUNK):
        counts += np.bincount(edges[start:start + _COUNT_CHUNK] - np.uint32(base),
                              minlength=count)
    lengths = kp_token_offsets[base + 1:base + count + 1] - kp_token_offsets[base:base + count]
    _require(
        np.array_equal(counts, lengths),
        f"leaf {graph.leaf_category}: a keyphrase's edge count differs from its token count",
    )


def _check_leaf_ranges(graphs: list[LeafGraph], num_keyphrases: int) -> None:
    bases = np.array([g.kp_base for g in graphs], dtype=np.int64)
    counts = np.array([g.num_keyphrases for g in graphs], dtype=np.int64)
    order = np.lexsort((counts, bases))
    # Sorted by start, the ranges tile [0, num_keyphrases) exactly when
    # each one starts where the previous one ends.
    bounds = np.concatenate(([0], (bases + counts)[order]))
    _require(
        np.array_equal(bases[order], bounds[:-1]) and bounds[-1] == num_keyphrases,
        "leaf keyphrase ranges overlap or do not cover all keyphrases",
    )


def from_bytes(data: bytes) -> Model:
    """Parse a serialized model, validating magic, version, checksum and structure."""
    if len(data) < 4 or data[:4] != MAGIC:
        raise NotAModelFileError("missing GEX1 magic; not a model file")
    if len(data) < 8:
        raise TruncatedModelError("file too short to hold a version field")
    version = _U32.unpack_from(data, 4)[0]
    if version != FORMAT_VERSION:
        hint = "; rebuild the model with graphex train" if version < FORMAT_VERSION else ""
        raise UnsupportedVersionError(
            f"format version {version} not supported (expected {FORMAT_VERSION}){hint}"
        )
    if len(data) < _HEADER.size:
        raise TruncatedModelError("file too short to hold a model header")
    _, _, *offsets = _HEADER.unpack_from(data, 0)
    body_end = offsets[5]
    if offsets[0] != _HEADER.size or any(a > b for a, b in zip(offsets, offsets[1:])):
        raise TruncatedModelError("section offsets out of order")
    if body_end + 4 > len(data):
        raise TruncatedModelError(
            f"file ends at byte {len(data)}, needed {body_end + 4}"
        )
    stored_crc = _U32.unpack_from(data, body_end)[0]
    actual_crc = zlib.crc32(memoryview(data)[_HEADER.size:body_end])
    if stored_crc != actual_crc:
        raise ChecksumError(
            f"body checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )

    meta = _Reader(data, offsets[0])
    meta_category = meta.string()
    orientation = ScoreOrientation(
        search_higher_better=bool(meta.u8()),
        recall_lower_better=bool(meta.u8()),
    )
    num_keyphrases = meta.u64()
    num_leaves = meta.u32()

    # The structure is checked from the counts alone, before the vocabulary
    # and string table are decoded, so the checks' temporaries are freed
    # before the Python strings are made.
    vocab_reader = _Reader(data, offsets[1])
    num_tokens = vocab_reader.u32()
    strings_reader = _Reader(data, offsets[2])
    num_strings = strings_reader.u32()

    kp = _Reader(data, offsets[3])
    n = kp.u32()
    if n != num_keyphrases:
        raise TruncatedModelError(
            f"keyphrase table holds {n} entries, meta section says {num_keyphrases}"
        )
    total_token_ids = kp.u64()
    kp_text_ref = kp.array(n, "<u4")
    kp_token_offsets = kp.array(n + 1, "<i8")
    kp_token_ids = kp.array(total_token_ids, "<u4")
    kp_search = kp.array(n, "<f8")
    kp_recall = kp.array(n, "<f8")
    _check_keyphrases(kp_text_ref, kp_token_offsets, kp_token_ids, num_strings, num_tokens)

    leaves_reader = _Reader(data, offsets[4])
    leaf_count = leaves_reader.u32()
    if leaf_count != num_leaves:
        raise TruncatedModelError(
            f"leaf section holds {leaf_count} graphs, meta section says {num_leaves}"
        )
    leaf_graphs: dict[int, LeafGraph] = {}
    for _ in range(leaf_count):
        leaves_reader.align()
        leaf_id = leaves_reader.i64()
        kp_base = leaves_reader.u32()
        num_kp = leaves_reader.u32()
        rows = leaves_reader.u32()
        edges = leaves_reader.u64()
        graph = LeafGraph(
            leaf_category=leaf_id,
            token_rows=leaves_reader.array(rows, "<u4"),
            offsets=leaves_reader.array(rows + 1, "<i8"),
            edges=leaves_reader.array(edges, "<u4"),
            kp_base=kp_base,
            num_keyphrases=num_kp,
        )
        _require(leaf_id not in leaf_graphs, f"leaf {leaf_id} appears twice")
        _check_leaf(graph, num_tokens)
        leaf_graphs[leaf_id] = graph
    _check_leaf_ranges(list(leaf_graphs.values()), num_keyphrases)
    for graph in leaf_graphs.values():
        _check_edge_counts(graph, kp_token_offsets)

    try:
        vocabulary = Vocabulary.from_surfaces(vocab_reader.string() for _ in range(num_tokens))
    except ValueError as exc:
        raise MalformedModelError(f"vocabulary: {exc}") from None
    kp_texts = [strings_reader.string() for _ in range(num_strings)]

    return Model(
        meta_category=meta_category,
        orientation=orientation,
        vocabulary=vocabulary,
        kp_texts=kp_texts,
        kp_text_ref=kp_text_ref,
        kp_token_offsets=kp_token_offsets,
        kp_token_ids=kp_token_ids,
        kp_search=kp_search,
        kp_recall=kp_recall,
        leaf_graphs=leaf_graphs,
        version=version,
    )


def load(path: str) -> Model:
    """Read a model from ``path``; see :func:`from_bytes` for validation."""
    with open(path, "rb") as handle:
        data = handle.read()
    return from_bytes(data)
