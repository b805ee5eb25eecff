from __future__ import annotations

import random
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from graphex import storage
from graphex.curation import COUNT_ORIENTATION, RawKeyphraseRow, curate
from graphex.graph import LeafGraph, StringTable, build
from graphex.inference import Query, recommend
from graphex.storage import (
    ChecksumError,
    MalformedModelError,
    NotAModelFileError,
    TruncatedModelError,
    UnsupportedVersionError,
    from_bytes,
    leaf_block_nbytes,
    load,
    save,
    to_bytes,
)

from helpers import make_dataset


def assert_models_equal(a, b):
    assert a.meta_category == b.meta_category
    assert a.orientation == b.orientation
    assert a.vocabulary.surfaces() == b.vocabulary.surfaces()
    assert a.kp_texts == b.kp_texts
    assert np.array_equal(a.kp_text_ref, b.kp_text_ref)
    assert np.array_equal(a.kp_lengths, b.kp_lengths)
    assert np.array_equal(a.kp_search, b.kp_search)
    assert np.array_equal(a.kp_recall, b.kp_recall)
    assert sorted(a.leaf_graphs) == sorted(b.leaf_graphs)
    for leaf_id, left in a.leaf_graphs.items():
        right = b.leaf_graphs[leaf_id]
        assert left.kp_base == right.kp_base
        assert left.num_keyphrases == right.num_keyphrases
        assert np.array_equal(left.token_rows, right.token_rows)
        assert np.array_equal(left.offsets, right.offsets)
        assert np.array_equal(left.edges, right.edges)


def test_round_trip_preserves_structure(headphones_model, tmp_path):
    path = str(tmp_path / "model.gex")
    nbytes = save(headphones_model, path)
    loaded = load(path)
    assert_models_equal(headphones_model, loaded)
    assert nbytes == (tmp_path / "model.gex").stat().st_size


def test_serialization_is_deterministic(headphones_model):
    data = to_bytes(headphones_model)
    assert data == to_bytes(headphones_model)
    assert data == to_bytes(from_bytes(data))


def test_round_trip_on_random_models(tmp_path):
    rng = random.Random(41)
    for i in range(5):
        dataset = make_dataset(rng, 150, vocab_size=40, leaf_ids=[1, 2, 3])
        model = build(dataset)
        path = str(tmp_path / f"m{i}.gex")
        save(model, path)
        assert_models_equal(model, load(path))


def test_empty_model_round_trips():
    from graphex.curation import curate

    model = build(curate([]))
    assert_models_equal(model, from_bytes(to_bytes(model)))


def test_wrong_magic_is_not_a_model_file(headphones_model):
    data = bytearray(to_bytes(headphones_model))
    data[:4] = b"ZIP!"
    with pytest.raises(NotAModelFileError):
        from_bytes(bytes(data))
    with pytest.raises(NotAModelFileError):
        from_bytes(b"")
    with pytest.raises(NotAModelFileError):
        from_bytes(b"GE")


def test_future_version_is_rejected(headphones_model):
    data = bytearray(to_bytes(headphones_model))
    data[4:8] = (99).to_bytes(4, "little")
    with pytest.raises(UnsupportedVersionError) as excinfo:
        from_bytes(bytes(data))
    assert "99" in str(excinfo.value)


def test_truncated_file_is_detected(headphones_model):
    data = to_bytes(headphones_model)
    for cut in (6, 30, len(data) // 2, len(data) - 1):
        with pytest.raises(TruncatedModelError):
            from_bytes(data[:cut])


def test_bytes_after_the_checksum_trailer_are_rejected(headphones_model):
    data = to_bytes(headphones_model)
    for extra in (b"\x00", b"trailer"):
        with pytest.raises(MalformedModelError, match=(
            f"trailing bytes: file ends at byte {len(data) + len(extra)}, "
            f"its checksum trailer at {len(data)}"
        )):
            from_bytes(data + extra)


def test_corrupted_body_fails_checksum(headphones_model):
    data = bytearray(to_bytes(headphones_model))
    data[len(data) // 2] ^= 0xFF
    with pytest.raises(ChecksumError):
        from_bytes(bytes(data))


def test_errors_are_distinct_types(headphones_model):
    from graphex.storage import ModelFormatError

    cases = {
        NotAModelFileError: b"nope",
        TruncatedModelError: to_bytes(headphones_model)[:40],
    }
    for expected, payload in cases.items():
        with pytest.raises(expected):
            from_bytes(payload)
        assert issubclass(expected, ModelFormatError)


def test_load_names_the_file_and_keeps_the_error_class(headphones_model, tmp_path):
    # A corrupt model's error read "body checksum mismatch: ..." with no
    # file name, while every input-line error names its file.
    data = to_bytes(headphones_model)
    corrupt = bytearray(data)
    corrupt[len(data) // 2] ^= 0xFF
    cases = {ChecksumError: bytes(corrupt), TruncatedModelError: data[:40],
             NotAModelFileError: b"nope"}
    for expected, payload in cases.items():
        path = tmp_path / expected.__name__
        path.write_bytes(payload)
        with pytest.raises(expected) as excinfo:
            load(str(path))
        with pytest.raises(expected) as bare:
            from_bytes(payload)
        assert str(excinfo.value) == f"{path}: {bare.value}"
    good = str(tmp_path / "good.gex")
    save(headphones_model, good)
    model, read_bytes = storage.read(good)
    assert read_bytes == data
    assert_models_equal(model, headphones_model)


def test_loaded_model_answers_queries_identically(headphones_model, tmp_path):
    from graphex.inference import Query, recommend

    path = str(tmp_path / "model.gex")
    save(headphones_model, path)
    loaded = load(path)
    query = Query("audeze maxwell gaming headphones for xbox", 42, k=5)
    assert recommend(headphones_model, query) == recommend(loaded, query)


def test_leaf_block_nbytes_matches_serialized_growth():
    rng = random.Random(43)
    small = build(make_dataset(rng, 100, vocab_size=50, leaf_ids=[1]))
    large = build(make_dataset(rng, 400, vocab_size=50, leaf_ids=[1]))
    small_bytes = len(to_bytes(small))
    large_bytes = len(to_bytes(large))
    # File growth is dominated by the leaf block plus per-keyphrase tables.
    assert large_bytes > small_bytes
    assert leaf_block_nbytes(large.leaf(1)) > leaf_block_nbytes(small.leaf(1))


# ---------------------------------------------------------------------------
# Format version 3 layout, read back by a parser independent of storage.py.

HEADER_SIZE = 56


def section_offsets(buf):
    return struct.unpack_from("<6Q", buf, 8)


def parse_layout(buf):
    """Array views (writable over a bytearray) and leaf block spans of a file.

    Returns ``(arrays, leaves)``: ``arrays`` maps keyphrase array names to
    ``(byte offset, view)``; ``leaves`` holds one dict per leaf block with
    its ``start``, leaf id, where its ``kp_base`` field sits and its
    arrays as ``(byte offset, view)``.
    """
    offsets = section_offsets(buf)
    pos = offsets[3]

    def take(count, dtype):
        nonlocal pos
        pos += -pos % 8
        start = pos
        pos += count * np.dtype(dtype).itemsize
        return start, np.frombuffer(buf, dtype=dtype, count=count, offset=start)

    (n,) = struct.unpack_from("<I", buf, pos)
    pos += 4
    arrays = {}
    for name, dtype in (("kp_text_ref", "<u4"), ("kp_lengths", "<u4"),
                        ("kp_search", "<f8"), ("kp_recall", "<f8")):
        arrays[name] = take(n, dtype)
    pos = offsets[4]
    (leaf_count,) = struct.unpack_from("<I", buf, pos)
    pos += 4
    leaves = []
    for _ in range(leaf_count):
        pos += -pos % 8
        start = pos
        leaf_id, kp_base, num_kp, rows, edges = struct.unpack_from("<qIIIQ", buf, pos)
        pos += 28
        leaves.append({
            "start": start, "leaf_id": leaf_id, "kp_base_at": start + 8,
            "token_rows": take(rows, "<u4"), "offsets": take(rows + 1, "<i8"),
            "edges": take(edges, "<u4"),
        })
    return arrays, leaves


def reseal(buf) -> bytes:
    """Recompute the body CRC after an edit, so only the edit is wrong."""
    body_end = section_offsets(buf)[5]
    struct.pack_into("<I", buf, body_end, zlib.crc32(bytes(buf[HEADER_SIZE:body_end])))
    return bytes(buf)


def model_of(*pairs):
    rows = [RawKeyphraseRow(text, leaf, 1.0, 1.0) for text, leaf in pairs]
    return build(curate(rows, orientation=COUNT_ORIENTATION))


def test_every_loaded_array_is_aligned():
    rng = random.Random(47)
    model = build(make_dataset(rng, 200, vocab_size=45, leaf_ids=[1, 2, 3, 4, 5]))
    data = to_bytes(model)
    arrays, leaves = parse_layout(data)
    starts = [start for start, _ in arrays.values()]
    starts += [leaf[name][0] for leaf in leaves for name in ("token_rows", "offsets", "edges")]
    assert all(start % 8 == 0 for start in starts)
    assert all(leaf["start"] % 8 == 0 for leaf in leaves)
    loaded = from_bytes(data)
    loaded_arrays = [loaded.kp_text_ref, loaded.kp_lengths, loaded.kp_search, loaded.kp_recall]
    for graph in loaded.leaf_graphs.values():
        loaded_arrays += [graph.token_rows, graph.offsets, graph.edges]
    assert all(arr.flags.aligned for arr in loaded_arrays)


def test_leaf_block_nbytes_is_the_serialized_block_size():
    rng = random.Random(53)
    model = build(make_dataset(rng, 300, vocab_size=35, leaf_ids=list(range(9)),
                               min_len=1, max_len=5))
    data = to_bytes(model)
    _, leaves = parse_layout(data)
    leaf_start, body_end = section_offsets(data)[4], section_offsets(data)[5]
    bounds = [leaf["start"] for leaf in leaves] + [body_end]
    sizes = {leaf["leaf_id"]: stop - leaf["start"] for leaf, stop in zip(leaves, bounds[1:])}
    assert sizes == {leaf_id: leaf_block_nbytes(model.leaf(leaf_id)) for leaf_id in sizes}
    # Odd and even row and edge counts both occur, so padding is exercised.
    assert {len(leaf["token_rows"][1]) % 2 for leaf in leaves} == {0, 1}
    assert {len(leaf["edges"][1]) % 2 for leaf in leaves} == {0, 1}
    # The leaf section header is the u32 leaf count padded to 8 bytes.
    assert sum(sizes.values()) == body_end - leaf_start - 8


def test_version_1_file_is_rejected_and_names_its_version(headphones_model):
    data = bytearray(to_bytes(headphones_model))
    for version in (1, 2):
        data[4:8] = version.to_bytes(4, "little")
        with pytest.raises(UnsupportedVersionError) as excinfo:
            from_bytes(bytes(data))
        assert f"version {version} " in str(excinfo.value)
        assert "graphex train" in str(excinfo.value)


def tiny_model():
    rows = [RawKeyphraseRow("red shoe", 1, 30.0, 2.0), RawKeyphraseRow("shoe", 1, 10.0, 1.0),
            RawKeyphraseRow("red hat", 2, 20.0, 3.0)]
    return build(curate(rows, orientation=COUNT_ORIENTATION, meta_category="Tiny"))


# Every byte of tiny_model() in format version 3.  A layout change that
# does not bump the version fails here.
TINY_MODEL_V3 = bytes.fromhex(
    # header: magic, version 3, offsets of the five sections and the body end
    "47455831 03000000 3800000000000000 4e00000000000000 6700000000000000 "
    "8900000000000000 e000000000000000 8001000000000000 "
    # meta: label length and UTF-8, orientation flags, keyphrase count, leaf count
    "04000000 54696e79 01 01 0300000000000000 02000000 "
    # vocabulary: entry count, byte length, blob
    "03000000 0d00000000000000 6861740a7265640a73686f650a "
    # string table: entry count, byte length, blob
    "03000000 1600000000000000 726564206861740a7265642073686f650a73686f650a "
    # keyphrases: count, pad; text refs, pad; lengths, pad; search; recall
    "03000000 000000 010000000200000000000000 00000000 020000000100000002000000 00000000 "
    "0000000000003e4000000000000024400000000000003440 "
    "0000000000000040000000000000f03f0000000000000840 "
    # leaves: count, pad
    "02000000 00000000 "
    # leaf 1: id, kp base, keyphrase count, row count, edge count, pad
    "0100000000000000 00000000 02000000 02000000 0300000000000000 00000000 "
    # token rows; row offsets; edges, pad
    "0100000002000000 000000000000000001000000000000000300000000000000 "
    "000000000000000001000000 00000000 "
    # leaf 2: id, kp base, keyphrase count, row count, edge count, pad
    "0200000000000000 02000000 01000000 02000000 0200000000000000 00000000 "
    # token rows; row offsets; edges
    "0000000001000000 000000000000000001000000000000000200000000000000 0200000002000000 "
    # CRC-32 of the body
    "404d61f2"
)


def test_tiny_model_file_is_pinned_byte_for_byte():
    assert to_bytes(tiny_model()).hex() == TINY_MODEL_V3.hex()
    loaded = from_bytes(TINY_MODEL_V3)
    assert_models_equal(tiny_model(), loaded)
    predictions = recommend(loaded, Query("red shoe", 1))
    assert [(p.keyphrase, p.align, p.search) for p in predictions] == [
        ("red shoe", 2.0, 30.0), ("shoe", 1.0, 10.0),
    ]


def test_string_table_rejects_a_keyphrase_text_with_a_newline():
    # The table is read-only, so its constructor is the one place a text
    # can enter a model, and the writer copies its blob as it is.
    with pytest.raises(ValueError, match="string table entry contains a newline"):
        StringTable(["red hat", "red\nhat"])
    with pytest.raises(TypeError):
        tiny_model().kp_texts[0] = "red\nhat"


def test_text_tables_decode_the_same_in_chunks_of_any_size(monkeypatch):
    # Multi-byte characters and entries longer than a chunk: each chunk
    # ends after a newline, so none splits a character or an entry.
    model = model_of(("café crème brûlée", 1), ("naïve " + "x" * 40, 1), ("日本 語", 2))
    data = to_bytes(model)
    for chunk in (1, 3, 7, 64):
        monkeypatch.setattr(storage, "_DECODE_CHUNK", chunk)
        loaded = from_bytes(data)
        assert_models_equal(model, loaded)


def test_loaded_string_table_reads_the_file_bytes_in_place():
    model = model_of(("café crème", 1), ("日本 語", 2), ("red shoe", 2))
    data = to_bytes(model)
    loaded = from_bytes(data).kp_texts
    assert isinstance(loaded, StringTable)
    assert loaded == model.kp_texts == ["café crème", "red shoe", "日本 語"]
    assert loaded[-1] == "日本 語"
    assert loaded.blob.obj is data


def test_loading_holds_no_string_per_keyphrase():
    # ~49,000 keyphrases: their texts as str objects took ~3.2 MB more than
    # the blob (0.95 MB) they now stay in; measured 5.85 MB retained
    # before, 2.60 MB after (the vocabulary, entry offsets and arrays).
    data = to_bytes(build(make_dataset(random.Random(7), 50000, 20000, [1, 2, 3])))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model = from_bytes(data)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(model.kp_texts) > 45000
    assert retained < 4.2e6


def test_leaf_without_token_rows_loads_and_answers_empty():
    model = model_of(("a b", 1))
    model.leaf_graphs[2] = LeafGraph(
        leaf_category=2,
        token_rows=np.empty(0, dtype=np.uint32),
        offsets=np.zeros(1, dtype=np.int64),
        edges=np.empty(0, dtype=np.uint32),
        kp_base=model.num_keyphrases,
        num_keyphrases=0,
    )
    loaded = from_bytes(to_bytes(model))
    for candidate in (model, loaded):
        assert recommend(candidate, Query("a b", 2)) == []
        assert candidate.leaf(2).row_of(0) is None
        assert [p.keyphrase for p in recommend(candidate, Query("a b", 1))] == ["a b"]


def drop_last_leaf(buf):
    """Cut the last leaf block out of the file and fix every count."""
    offsets = list(section_offsets(buf))
    _, leaves = parse_layout(buf)
    cut = leaves[-1]["start"]
    out = bytearray(buf[:cut]) + bytearray(4)
    offsets[5] = cut
    struct.pack_into("<6Q", out, 8, *offsets)
    for count_at in (offsets[1] - 4, offsets[4]):  # meta section and leaf section
        struct.pack_into("<I", out, count_at, len(leaves) - 1)
    return out


def edit_first_leaf(name, index, value):
    def edit(buf):
        _, leaves = parse_layout(buf)
        leaves[0][name][1][index] = value
        return buf
    return edit


def edit_array(name, index, value):
    def edit(buf):
        arrays, _ = parse_layout(buf)
        arrays[name][1][index] = value
        return buf
    return edit


def edit_text(old: bytes, new: bytes):
    def edit(buf):
        at = bytes(buf).index(old)
        buf[at:at + len(old)] = new
        return buf
    return edit


def edit_second_leaf_to_overlap(buf):
    _, leaves = parse_layout(buf)
    second = leaves[1]
    struct.pack_into("<I", buf, second["kp_base_at"], 0)
    second["edges"][1][:] = 0
    return buf


def edit_second_leaf_id(buf):
    _, leaves = parse_layout(buf)
    struct.pack_into("<q", buf, leaves[1]["start"], leaves[0]["leaf_id"])
    return buf


# Each file is CRC-valid but breaks one invariant; before load checked
# structure, every one of them loaded, and querying it raised or misranked.
MALFORMED = {
    "token rows not ascending": (
        [("aa bb cc", 1)], edit_first_leaf("token_rows", 0, 1), "strictly ascending"),
    "token row outside vocabulary": (
        [("aa bb cc", 1)], edit_first_leaf("token_rows", 2, 3), "strictly ascending"),
    "offsets do not start at 0": (
        [("aa bb cc", 1)], edit_first_leaf("offsets", 0, 1), "row offsets"),
    "offsets decrease": (
        [("aa bb", 1), ("aa cc", 1)], edit_first_leaf("offsets", 2, 1), "row offsets"),
    "offsets do not end at edge count": (
        [("aa bb cc", 1)], edit_first_leaf("offsets", 3, 2), "row offsets"),
    "edge outside leaf range": (
        [("aa bb", 1), ("cc dd", 2)], edit_first_leaf("edges", 0, 1), "edge outside"),
    # Row bb's edge moves from "aa bb" to "aa cc": "aa cc" then overlaps a
    # title on three tokens but has two, and its LTA score is infinite.
    "keyphrase edge count differs from its token count": (
        [("aa bb", 1), ("aa cc", 1)], edit_first_leaf("edges", 2, 1), "edge count"),
    "leaf ranges overlap": (
        [("aa bb", 1), ("aa bb", 2)], edit_second_leaf_to_overlap, "overlap"),
    "leaf ranges leave keyphrases uncovered": (
        [("aa bb", 1), ("aa bb", 2)], drop_last_leaf, "cover"),
    "duplicate leaf id": (
        [("aa bb", 1), ("aa bb", 2)], edit_second_leaf_id, "appears twice"),
    "keyphrase length differs from its edge count": (
        [("aa bb", 1), ("cc dd", 1)], edit_array("kp_lengths", 1, 3), "edge count"),
    "keyphrase text reference outside string table": (
        [("aa bb", 1), ("cc dd", 1)], edit_array("kp_text_ref", 1, 2), "string table"),
    # The vocabulary blob of these models is b"aa\nab\n" or b"aa\nbb\n", the
    # keyphrase string table b"aa ab\n" or b"aa bb\n".
    "duplicate vocabulary surface": (
        [("aa ab", 1)], edit_text(b"aa\nab\n", b"aa\naa\n"), "duplicate"),
    "vocabulary surface with whitespace": (
        [("aa bb", 1)], edit_text(b"aa\nbb\n", b"aa\nb \n"), "whitespace"),
    "vocabulary surface not UTF-8": (
        [("aa bb", 1)], edit_text(b"aa\nbb\n", b"aa\nb\xff\n"), "vocabulary at byte .* UTF-8"),
    "vocabulary without a trailing newline": (
        [("aa bb", 1)], edit_text(b"aa\nbb\n", b"aa\nbbb"), "vocabulary does not end"),
    "vocabulary entry count differs from its header": (
        [("aa bb", 1)], edit_text(b"aa\nbb\n", b"aa\nb\n\n"), "vocabulary holds 3 entries, not 2"),
    "keyphrase text not UTF-8": (
        [("aa bb", 1)], edit_text(b"aa bb\n", b"aa b\xff\n"), "string table at byte .* UTF-8"),
    "keyphrase string table without a trailing newline": (
        [("aa bb", 1)], edit_text(b"aa bb\n", b"aa bbb"), "string table does not end"),
    "keyphrase string table entry count differs from its header": (
        [("aa bb", 1)], edit_text(b"aa bb\n", b"aa\nbb\n"), "string table holds 2 entries, not 1"),
    # A NaN search score ranked and reached the output as "search": NaN,
    # which is not JSON.
    "search score is NaN": (
        [("aa bb", 1), ("cc dd", 1)], edit_array("kp_search", 1, np.nan), "not finite"),
    "search score is infinite": (
        [("aa bb", 1), ("cc dd", 1)], edit_array("kp_search", 0, -np.inf), "not finite"),
    "recall score is infinite": (
        [("aa bb", 1), ("cc dd", 1)], edit_array("kp_recall", 1, np.inf), "not finite"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_body_with_valid_checksum_fails_at_load(case):
    pairs, edit, message = MALFORMED[case]
    data = reseal(edit(bytearray(to_bytes(model_of(*pairs)))))
    with pytest.raises(MalformedModelError, match=message):
        from_bytes(data)
