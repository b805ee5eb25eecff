"""Versioned binary serialization for models.

Layout (all integers little-endian):

* header: magic ``GEX1``, u32 format version, u64 body end (the file
  offset of the checksum).
* body, its sections back to back in this order:

  - meta: the category label, a u32-length-prefixed UTF-8 string, and
    two u8 orientation flags;
  - the vocabulary, then the keyphrase string table;
  - the keyphrase table: a u32 count, text references, search scores
    and recall scores;
  - the leaf graphs: a u32 count, then one block per leaf in ascending
    leaf id order: i64 leaf id, u32 keyphrase count, u32 row count,
    token rows, row offsets and edges.

* footer: u32 CRC-32 of the body bytes.

The file stores each fact once; the reader derives the rest.  Each
section starts where the one before it ends.  A leaf's first keyphrase
id (``kp_base``) is the sum of the keyphrase counts of the leaves
before it, its edge count is its last row offset, and a keyphrase's
token count is its edge count (:func:`~graphex.graph.keyphrase_lengths`).
The body end is kept so that a cut file reads as
:class:`TruncatedModelError`, not as a checksum mismatch.

The vocabulary and the keyphrase string table are each a u32 entry
count, a u64 byte length and one UTF-8 blob with ``\n`` after every entry.
The string table's blob is the one a :class:`~graphex.graph.StringTable`
holds: the writer copies it as it is, and the reader returns a table
over the file bytes, so keyphrase texts are decoded per prediction,
never all at load.  Numeric arrays are written as raw little-endian
buffers so they can be rebuilt with ``np.frombuffer`` without
per-element work.  Every array and every leaf graph block starts at a
file offset that is a multiple of 8 (zero padding); the reader works the
padding out from the offset alone, and the arrays it returns are
aligned.  Serialization is deterministic: the same
model always produces the same bytes.

The keyphrase table (text references, search and recall scores) and
each leaf's row offsets are stored in the narrowest type that holds
their values exactly (:func:`~graphex.graph.narrowest`).  A one-byte
type code comes before each of these arrays, ahead of its padding: 1,
2, 3 and 4 are u8, u16, u32 and u64, allowed for the references and
offsets; 5 and 6 are f32 and f64, allowed for the scores.  A leaf's
token rows and edges are always u32 and have no code: they hold global
token and keyphrase ids, and a query searches the token rows with a u32
needle and sorts gathered edges as u32.

Loading checks the header and the checksum, then each stored value a
query relies on: leaf ids ascend; the leaves hold exactly the keyphrase
table's entries; padding is zero, and the last leaf block ends at the
body end; token rows ascend inside the vocabulary; row offsets rise
from 0; edges stay in their leaf's keyphrase range; text references
fall inside the string table; scores are finite; type codes are known
and allowed for their arrays; text tables are UTF-8 and hold their
stated entry counts.  A file whose checksum matches but which breaks one
of these fails here with :class:`MalformedModelError` instead of
misranking or raising at query time.  Only the current format version
(5) is read; older files are rebuilt with ``graphex train``.
"""

from __future__ import annotations

import mmap
import struct
import zlib

import numpy as np

from .curation import ScoreOrientation
from .graph import LeafGraph, Model, StringTable, keyphrase_lengths, narrowest, starts_dtype
from .vocab import Vocabulary

MAGIC = b"GEX1"
FORMAT_VERSION = 5
_HEADER = struct.Struct("<4sIQ")
_U32 = struct.Struct("<I")
_U8 = struct.Struct("<B")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_ALIGN = 8
# Type codes, the byte written before each array whose stored type
# follows its values (graph.narrowest).  Code 0 is no type, so zero
# padding read as a code is an error.
_INDEX_TYPES = {1: "<u1", 2: "<u2", 3: "<u4", 4: "<u8"}
_SCORE_TYPES = {5: "<f4", 6: "<f8"}
_TYPE_CODES = {np.dtype(t): code for code, t in {**_INDEX_TYPES, **_SCORE_TYPES}.items()}
# Bytes of a text table checked at a time: decoding or scanning the whole
# table at once would hold a temporary the size of the table at load.
_DECODE_CHUNK = 1 << 20


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

    def text_table(self, table: StringTable) -> None:
        self.u32(len(table))
        self.u64(len(table.blob))
        self.buf += table.blob

    def align(self) -> None:
        self.buf += bytes(-len(self.buf) % _ALIGN)

    def array(self, arr: np.ndarray, dtype: str) -> None:
        self.align()
        self.buf += np.ascontiguousarray(arr, dtype=dtype).tobytes()

    def narrow_array(self, arr: np.ndarray) -> None:
        """``arr`` in its narrowest type (:func:`narrowest`), after that type's code."""
        arr = narrowest(arr)
        dtype = arr.dtype.newbyteorder("<")
        self.u8(_TYPE_CODES[dtype])
        self.array(arr, dtype)


class _Reader:
    """Reads fields in order from ``pos``, never past ``end``."""

    def __init__(self, data: bytes | mmap.mmap, pos: int, end: int) -> None:
        self.data = data
        self.pos = pos
        self.end = end

    def take(self, n: int) -> int:
        start = self.pos
        if start + n > self.end:
            raise TruncatedModelError(f"body ends at byte {self.end}, needed {start + n}")
        self.pos = start + n
        return start

    def u8(self) -> int:
        return self.data[self.take(1)]

    def u32(self) -> int:
        return _U32.unpack_from(self.data, self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack_from(self.data, self.take(8))[0]

    def i64(self) -> int:
        return _I64.unpack_from(self.data, self.take(8))[0]

    def string(self) -> str:
        length = self.u32()
        start = self.take(length)
        try:
            return self.data[start:start + length].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedModelError(f"string at byte {start} is not UTF-8: {exc}") from None

    def text_table(self, count: int, what: str) -> StringTable:
        """The ``count`` entries of a text table whose byte length starts here.

        The table reads the file bytes in place.  Its UTF-8 is checked and
        its newlines found a chunk at a time, so no temporary grows with
        the table.
        """
        nbytes = self.u64()
        start = self.take(nbytes)
        end = start + nbytes
        data = self.data
        _require(not nbytes or data[end - 1] == 0x0A, f"{what} does not end in a newline")
        view = memoryview(data)
        # Each entry takes at least its newline, so a count above the byte
        # length is wrong and allocates no more than the bytes allow.
        starts = np.empty(min(count, nbytes) + 1, dtype=starts_dtype(len(data)))
        starts[0] = start
        found = 0
        pos = start
        while pos < end:
            # Cut after the first newline from a chunk's length on.  No
            # other UTF-8 sequence holds byte 0x0A, so no character splits.
            # The table ends in a newline, so one is always found.
            cut = data.find(b"\n", min(pos + _DECODE_CHUNK, end) - 1, end) + 1
            try:
                str(view[pos:cut], "utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedModelError(
                    f"{what} at byte {pos + exc.start} is not UTF-8: {exc.reason}"
                ) from None
            newlines = np.flatnonzero(np.frombuffer(data, np.uint8, cut - pos, pos) == 0x0A)
            if found + len(newlines) <= count:
                # File offsets of the entries after these newlines.
                starts[found + 1:found + 1 + len(newlines)] = newlines + (pos + 1)
            found += len(newlines)
            pos = cut
        _require(found == count, f"{what} holds {found} entries, not {count}")
        return StringTable.from_buffer(data, starts)

    def align(self) -> None:
        start = self.take(-self.pos % _ALIGN)
        _require(not any(self.data[start:self.pos]), f"nonzero padding at byte {start}")

    def array(self, count: int, dtype: str) -> np.ndarray:
        self.align()
        itemsize = np.dtype(dtype).itemsize
        start = self.take(count * itemsize)
        return np.frombuffer(self.data, dtype=dtype, count=count, offset=start)

    def narrow_array(self, count: int, types: dict[int, str], what: str) -> np.ndarray:
        """An array written by :meth:`_Writer.narrow_array` with one of ``types``."""
        code = self.u8()
        _require(code in types, f"{what}: type code {code} is not one of {sorted(types)}")
        return self.array(count, types[code])


def _write_leaf_block(w: _Writer, graph: LeafGraph) -> None:
    w.i64(graph.leaf_category)
    w.u32(graph.num_keyphrases)
    w.u32(_check_u32(graph.num_tokens, "leaf token count"))
    w.array(graph.token_rows, "<u4")
    w.narrow_array(graph.offsets)
    w.array(graph.edges, "<u4")


def leaf_block_nbytes(graph: LeafGraph) -> int:
    """Serialized size of one leaf graph block, in bytes.

    Includes the offsets' type code and the zero padding before each
    array and after the block, so the sizes of all blocks add up to the
    leaf section minus its leaf count and the padding after it.  The
    offsets count in the type they are written in, whatever type
    ``graph`` holds them in.
    """
    # Blocks start on an 8-byte boundary, as a fresh buffer does.
    w = _Writer()
    _write_leaf_block(w, graph)
    w.align()
    return len(w.buf)


def to_bytes(model: Model) -> bytes:
    """Serialize ``model`` to the binary format (deterministic).

    Raises ``ValueError`` when a leaf's ``kp_base`` is not the number of
    keyphrases in the leaves before it, or ``kp_lengths`` are not the
    keyphrases' edge counts: the file stores neither, and the reader
    derives them so.
    """
    _check_u32(len(model.vocabulary), "vocabulary size")
    w = _Writer()
    w.buf += bytes(_HEADER.size)  # filled in once the body end is known
    w.string(model.meta_category)
    w.u8(int(model.orientation.search_higher_better))
    w.u8(int(model.orientation.recall_lower_better))
    w.text_table(StringTable(model.vocabulary.surfaces()))
    w.text_table(model.kp_texts)
    w.u32(_check_u32(model.num_keyphrases, "keyphrase count"))
    w.narrow_array(model.kp_text_ref)
    w.narrow_array(model.kp_search)
    w.narrow_array(model.kp_recall)
    w.u32(len(model.leaf_graphs))
    kp_base = 0
    for leaf_id in sorted(model.leaf_graphs):
        graph = model.leaf_graphs[leaf_id]
        if graph.kp_base != kp_base:
            raise ValueError(f"leaf {leaf_id}: kp_base is {graph.kp_base}, but the leaves "
                             f"before it hold {kp_base} keyphrases")
        kp_base += graph.num_keyphrases
        # Each block starts on an 8-byte boundary, and so does the body
        # end, so a block's size does not depend on where it lands.
        w.align()
        _write_leaf_block(w, graph)
    if not np.array_equal(model.kp_lengths,
                          keyphrase_lengths(model.leaf_graphs.values(), model.num_keyphrases)):
        raise ValueError("kp_lengths are not the keyphrases' edge counts")
    w.align()
    body_end = len(w.buf)
    w.buf[:_HEADER.size] = _HEADER.pack(MAGIC, FORMAT_VERSION, body_end)
    w.buf += _U32.pack(zlib.crc32(memoryview(w.buf)[_HEADER.size:]))
    return bytes(w.buf)


def save(model: Model, path: str) -> int:
    """Write ``model`` to ``path``; returns the number of bytes written."""
    data = to_bytes(model)
    with open(path, "wb") as handle:
        handle.write(data)
    return len(data)


def _check_leaf(graph: LeafGraph, num_tokens: int) -> None:
    """Whole-array checks that make every query on ``graph`` well defined."""
    leaf = f"leaf {graph.leaf_category}"
    rows, offsets = graph.token_rows, graph.offsets
    _require(
        bool(np.all(rows[1:] > rows[:-1])) and (not len(rows) or rows[-1] < num_tokens),
        f"{leaf}: token rows must be strictly ascending vocabulary ids",
    )
    _require(
        offsets[0] == 0 and bool(np.all(offsets[1:] >= offsets[:-1])),
        f"{leaf}: row offsets must rise from 0",
    )


def from_bytes(data: bytes | mmap.mmap) -> Model:
    """Parse a serialized model, validating magic, version, checksum and structure.

    ``data`` is the file's bytes or a read-only ``mmap`` of the file; the
    model's arrays and text tables view it in place.
    """
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
    body_end = _HEADER.unpack_from(data, 0)[-1]
    if body_end + 4 > len(data):
        raise TruncatedModelError(
            f"file ends at byte {len(data)}, needed {body_end + 4}"
        )
    _require(
        body_end + 4 == len(data),
        f"trailing bytes: file ends at byte {len(data)}, its checksum trailer at {body_end + 4}",
    )
    stored_crc = _U32.unpack_from(data, body_end)[0]
    actual_crc = zlib.crc32(memoryview(data)[_HEADER.size:body_end])
    if stored_crc != actual_crc:
        raise ChecksumError(
            f"body checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )

    r = _Reader(data, _HEADER.size, body_end)
    meta_category = r.string()
    orientation = ScoreOrientation(
        search_higher_better=bool(r.u8()),
        recall_lower_better=bool(r.u8()),
    )
    # The text tables are skipped here and decoded last, so the structure
    # checks' temporaries are freed before the vocabulary's Python
    # strings are made.
    num_tokens = r.u32()
    vocab_at = r.pos
    r.take(r.u64())
    num_strings = r.u32()
    strings_at = r.pos
    r.take(r.u64())

    n = r.u32()
    kp_text_ref = r.narrow_array(n, _INDEX_TYPES, "keyphrase text references")
    kp_search = r.narrow_array(n, _SCORE_TYPES, "keyphrase search scores")
    kp_recall = r.narrow_array(n, _SCORE_TYPES, "keyphrase recall scores")
    _require(
        not n or kp_text_ref.max() < num_strings,
        f"keyphrase text reference outside the {num_strings}-entry string table",
    )
    _require(
        np.isfinite(kp_search).all() and np.isfinite(kp_recall).all(),
        "keyphrase search or recall score is not finite",
    )

    leaf_graphs: dict[int, LeafGraph] = {}
    kp_base = 0
    previous = None
    for _ in range(r.u32()):
        r.align()
        leaf_id = r.i64()
        _require(previous is None or leaf_id > previous,
                 f"leaf ids must be strictly ascending: leaf {leaf_id} follows leaf {previous}")
        num_kp = r.u32()
        rows = r.u32()
        token_rows = r.array(rows, "<u4")
        offsets = r.narrow_array(rows + 1, _INDEX_TYPES, f"leaf {leaf_id} offsets")
        graph = LeafGraph(
            leaf_category=leaf_id,
            token_rows=token_rows,
            offsets=offsets,
            edges=r.array(int(offsets[-1]), "<u4"),
            kp_base=kp_base,
            num_keyphrases=num_kp,
        )
        _check_leaf(graph, num_tokens)
        leaf_graphs[leaf_id] = graph
        kp_base += num_kp
        previous = leaf_id
    # Bases are a running sum, so a total of n keeps every leaf's
    # keyphrases inside the table.
    _require(kp_base == n, f"the leaves hold {kp_base} of the {n} keyphrases")
    r.align()
    _require(r.pos == body_end, f"{body_end - r.pos} unread bytes before the checksum")
    try:  # it also checks each leaf's edge range
        kp_lengths = keyphrase_lengths(leaf_graphs.values(), n)
    except ValueError as exc:
        raise MalformedModelError(str(exc)) from None

    try:
        vocabulary = Vocabulary(
            _Reader(data, vocab_at, body_end).text_table(num_tokens, "vocabulary"))
    except ValueError as exc:
        raise MalformedModelError(f"vocabulary: {exc}") from None
    kp_texts = _Reader(data, strings_at, body_end).text_table(num_strings, "keyphrase string table")

    return Model(
        meta_category=meta_category,
        orientation=orientation,
        vocabulary=vocabulary,
        kp_texts=kp_texts,
        kp_text_ref=kp_text_ref,
        kp_lengths=kp_lengths,
        kp_search=kp_search,
        kp_recall=kp_recall,
        leaf_graphs=leaf_graphs,
    )


def stored_crc(data: bytes) -> int:
    """The body CRC-32 stored in model file bytes that :func:`from_bytes` accepts."""
    body_end = _HEADER.unpack_from(data, 0)[-1]
    return _U32.unpack_from(data, body_end)[0]


def read(path: str) -> tuple[Model, bytes]:
    """The model in the file at ``path`` and the file's bytes, which it views.

    See :func:`from_bytes` for validation.  A :class:`ModelFormatError`
    is raised again as the same class with ``path`` before its message,
    as an input-line error names its file.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return from_bytes(data), data
    except ModelFormatError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def load(path: str) -> Model:
    """Read a model from ``path``; see :func:`read`."""
    return read(path)[0]
