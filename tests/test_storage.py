from __future__ import annotations

import mmap
import random
import struct
import tracemalloc

import numpy as np
import pytest

from graphex import storage
from graphex.curation import COUNT_ORIENTATION, RANK_ORIENTATION, RawKeyphraseRow, curate
from graphex.graph import LeafGraph, StringTable, build
from graphex.inference import Alignment, Query, recommend
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

from helpers import (
    brute_build,
    brute_recommend,
    make_dataset,
    parse_layout,
    predictions_as_tuples,
    reseal,
    section_offsets,
)


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
# The format version 5 layout, read back by the parser in helpers.py.


def model_of(*pairs):
    rows = [RawKeyphraseRow(text, leaf, 1.0, 1.0) for text, leaf in pairs]
    return build(curate(rows, orientation=COUNT_ORIENTATION))


def test_every_loaded_array_is_aligned():
    rng = random.Random(47)
    model = build(make_dataset(rng, 200, vocab_size=45, leaf_ids=[1, 2, 3, 4, 5]))
    data = to_bytes(model)
    arrays, leaves = parse_layout(data)
    starts = [start for start, _, _ in arrays.values()]
    starts += [leaf[name][0] for leaf in leaves for name in ("token_rows", "offsets", "edges")]
    assert all(start % 8 == 0 for start in starts)
    assert all(leaf["start"] % 8 == 0 for leaf in leaves)
    loaded = from_bytes(data)
    loaded_arrays = [loaded.kp_text_ref, loaded.kp_search, loaded.kp_recall]
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
    # The leaf section header is the u32 leaf count, then padding to 8 bytes.
    first = leaves[0]["start"]
    assert first - leaf_start - 4 == -(leaf_start + 4) % 8
    assert sum(sizes.values()) == body_end - first


def test_version_1_file_is_rejected_and_names_its_version(headphones_model):
    data = bytearray(to_bytes(headphones_model))
    for version in (1, 2, 3, 4):
        data[4:8] = version.to_bytes(4, "little")
        with pytest.raises(UnsupportedVersionError) as excinfo:
            from_bytes(bytes(data))
        assert f"version {version} " in str(excinfo.value)
        assert "graphex train" in str(excinfo.value)


def tiny_model():
    rows = [RawKeyphraseRow("red shoe", 1, 30.0, 2.0), RawKeyphraseRow("shoe", 1, 10.0, 1.0),
            RawKeyphraseRow("red hat", 2, 20.0, 3.0)]
    return build(curate(rows, orientation=COUNT_ORIENTATION, meta_category="Tiny"))


# Every byte of tiny_model() in format version 5.  A layout change that
# does not bump the version fails here.
TINY_MODEL_V5 = bytes.fromhex(
    # header: magic, version 5, body end
    "47455831 05000000 f000000000000000 "
    # meta: label length and UTF-8, orientation flags
    "04000000 54696e79 01 01 "
    # vocabulary: entry count, byte length, blob
    "03000000 0d00000000000000 6861740a7265640a73686f650a "
    # string table: entry count, byte length, blob
    "03000000 1600000000000000 726564206861740a7265642073686f650a73686f650a "
    # keyphrases: count; each array a type code, pad and values.  Text refs
    # are u8 (code 1), search and recall scores f32 (code 5).
    "03000000 01 000000000000 010200 05 00000000 0000f041 00002041 0000a041 "
    "05 000000 00000040 0000803f 00004040 "
    # leaves: count
    "02000000 "
    # leaf 1: id, keyphrase count, row count
    "0100000000000000 02000000 02000000 "
    # token rows; row offsets as u8 (code 1, pad, values, pad); edges, pad
    "0100000002000000 01 00000000000000 000103 0000000000 "
    "000000000000000001000000 00000000 "
    # leaf 2: id, keyphrase count, row count
    "0200000000000000 01000000 02000000 "
    # token rows; row offsets as u8; edges
    "0000000001000000 01 00000000000000 000102 0000000000 0200000002000000 "
    # CRC-32 of the body
    "ac56a379"
)


def test_tiny_model_file_is_pinned_byte_for_byte():
    assert to_bytes(tiny_model()).hex() == TINY_MODEL_V5.hex()
    loaded = from_bytes(TINY_MODEL_V5)
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


def empty_leaf(leaf_id, kp_base):
    return LeafGraph(
        leaf_category=leaf_id,
        token_rows=np.empty(0, dtype=np.uint32),
        offsets=np.zeros(1, dtype=np.int64),
        edges=np.empty(0, dtype=np.uint32),
        kp_base=kp_base,
        num_keyphrases=0,
    )


def test_leaf_without_token_rows_loads_and_answers_empty():
    model = model_of(("a b", 1))
    model.leaf_graphs[2] = empty_leaf(2, model.num_keyphrases)
    loaded = from_bytes(to_bytes(model))
    for candidate in (model, loaded):
        assert recommend(candidate, Query("a b", 2)) == []
        assert candidate.leaf(2).row_of(0) is None
        assert [p.keyphrase for p in recommend(candidate, Query("a b", 1))] == ["a b"]


def drop_last_leaf(buf):
    """Cut the last leaf block out of the file and fix the leaf count and body end."""
    _, leaves = parse_layout(buf)
    cut = leaves[-1]["start"]
    out = bytearray(buf[:cut]) + bytearray(4)
    struct.pack_into("<Q", out, 8, cut)
    struct.pack_into("<I", out, section_offsets(buf)[4], len(leaves) - 1)
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


def edit_type_code(name, code):
    """Set the type code of keyphrase array ``name``, or of leaf 1's offsets."""
    def edit(buf):
        arrays, leaves = parse_layout(buf)
        entry = leaves[0]["offsets"] if name == "offsets" else arrays[name]
        buf[entry[2]] = code
        return buf
    return edit


def edit_text(old: bytes, new: bytes):
    def edit(buf):
        at = bytes(buf).index(old)
        buf[at:at + len(old)] = new
        return buf
    return edit


def edit_last_leaf_keyphrase_count(buf):
    _, leaves = parse_layout(buf)
    struct.pack_into("<I", buf, leaves[-1]["num_kp_at"], 2)
    return buf


def edit_padding_after_offsets_code(buf):
    _, leaves = parse_layout(buf)
    buf[leaves[0]["offsets"][2] + 1] = 0x55
    return buf


def insert_before_checksum(junk: bytes):
    def edit(buf):
        body_end = struct.unpack_from("<Q", buf, 8)[0]
        buf[body_end:body_end] = junk
        struct.pack_into("<Q", buf, 8, body_end + len(junk))
        return buf
    return edit


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
    # The last offset is the edge count, so the third edge goes unread.
    "offsets do not end at edge count": (
        [("aa bb cc", 1)], edit_first_leaf("offsets", 3, 2),
        "8 unread bytes before the checksum"),
    "nonzero padding": (
        [("aa bb", 1)], edit_padding_after_offsets_code, "nonzero padding at byte"),
    "bytes between the last leaf and the checksum": (
        [("aa bb", 1)], insert_before_checksum(b"junkjunk"), "8 unread bytes before the checksum"),
    "edge outside leaf range": (
        [("aa bb", 1), ("cc dd", 2)], edit_first_leaf("edges", 0, 1), "edge outside"),
    "leaf ranges leave keyphrases uncovered": (
        [("aa bb", 1), ("aa bb", 2)], drop_last_leaf, "the leaves hold 1 of the 2 keyphrases"),
    # Leaf 2 starts at keyphrase 1 and claims 2 of a 2-entry table.
    "a leaf runs past the keyphrase table": (
        [("aa bb", 1), ("cc dd", 2)], edit_last_leaf_keyphrase_count,
        "the leaves hold 3 of the 2 keyphrases"),
    "duplicate leaf id": (
        [("aa bb", 1), ("aa bb", 2)], edit_second_leaf_id,
        "leaf ids must be strictly ascending: leaf 1 follows leaf 1"),
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
    # Codes 1-4 are u8-u64 and 5-6 are f32-f64; 0 is zero padding.
    "unknown type code": (
        [("aa bb", 1)], edit_type_code("kp_search", 7), "search scores: type code 7"),
    "zero type code": (
        [("aa bb", 1)], edit_type_code("kp_text_ref", 0), "text references: type code 0"),
    "float row offsets": (
        [("aa bb", 1)], edit_type_code("offsets", 5), "leaf 1 offsets: type code 5"),
    "integer search scores": (
        [("aa bb", 1)], edit_type_code("kp_search", 3), "search scores: type code 3"),
    "integer recall scores": (
        [("aa bb", 1)], edit_type_code("kp_recall", 1), "recall scores: type code 1"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_body_with_valid_checksum_fails_at_load(case):
    pairs, edit, message = MALFORMED[case]
    data = reseal(edit(bytearray(to_bytes(model_of(*pairs)))))
    with pytest.raises(MalformedModelError, match=message):
        from_bytes(data)


def test_moved_edge_changes_the_derived_lengths_and_scores_stay_finite():
    # Row bb's edge moves from "aa bb" to "aa cc".  Format 4 stored "aa
    # cc"'s length, 2, so a title overlapping it on three tokens gave an
    # infinite LTA score; its length is now its edge count, 3.
    edit = edit_first_leaf("edges", 2, 1)
    loaded = from_bytes(reseal(edit(bytearray(to_bytes(model_of(("aa bb", 1), ("aa cc", 1)))))))
    assert loaded.kp_lengths.tolist() == [1, 3]
    for align in Alignment:
        predictions = recommend(loaded, Query("aa bb cc", 1), align=align)
        assert sorted(p.keyphrase for p in predictions) == ["aa bb", "aa cc"]
        assert all(np.isfinite(p.align) for p in predictions)


def test_empty_leaf_between_populated_leaves_round_trips():
    model = model_of(("a b", 1), ("c d", 3))
    model.leaf_graphs[2] = empty_leaf(2, model.leaf(3).kp_base)
    data = to_bytes(model)
    loaded = from_bytes(data)
    assert_models_equal(model, loaded)
    assert to_bytes(loaded) == data
    assert [loaded.leaf(leaf).kp_base for leaf in (1, 2, 3)] == [0, 1, 1]
    assert recommend(loaded, Query("a b c d", 2)) == []
    assert [p.keyphrase for p in recommend(loaded, Query("a b c d", 3))] == ["c d"]


def test_writer_rejects_a_kp_base_that_is_not_the_running_keyphrase_count():
    model = model_of(("a b", 1), ("c d", 3))
    model.leaf_graphs[2] = empty_leaf(2, 0)
    with pytest.raises(ValueError, match="leaf 2: kp_base is 0, but the leaves before it "
                                         "hold 1 keyphrases"):
        to_bytes(model)
    model = model_of(("a b", 1), ("c d", 3))
    model.kp_lengths = np.array([2, 3], dtype=np.uint8)
    with pytest.raises(ValueError, match="kp_lengths are not the keyphrases' edge counts"):
        to_bytes(model)
    # Leaf 1 holds keyphrase 0 and leaf 3 keyphrase 1.  An edge above a
    # leaf's range, or below it (where the count's uint32 subtraction
    # would wrap), is named before anything is counted.
    for leaf_id, edge, leaf_range in ((1, 1, r"\[0, 1\)"), (3, 0, r"\[1, 2\)")):
        model = model_of(("a b", 1), ("c d", 3))
        graph = model.leaf_graphs[leaf_id]
        graph.edges = graph.edges.copy()
        graph.edges[0] = edge
        with pytest.raises(ValueError, match=f"leaf {leaf_id}: edge outside the leaf's "
                                             f"keyphrase range {leaf_range}"):
            to_bytes(model)
    model = model_of(("a b", 1), ("c d", 3))
    model.leaf_graphs[3].num_keyphrases = 2
    with pytest.raises(ValueError, match=r"leaf 3: keyphrases \[1, 3\) run past the "
                                         r"2-keyphrase table"):
        to_bytes(model)


# ---------------------------------------------------------------------------
# Each array is stored in the narrowest type that holds its values.

def wide_rows(n_keyphrases: int, length: int) -> list[RawKeyphraseRow]:
    """``n_keyphrases`` keyphrases of ``length`` distinct tokens in leaf 1.

    Keyphrase ``i`` holds tokens ``t{i}`` to ``t{i + length - 1}``, so the
    leaf has exactly ``n_keyphrases * length`` edges.
    """
    return [
        RawKeyphraseRow(" ".join(f"t{i + j}" for j in range(length)), 1, float(i), 1.0)
        for i in range(n_keyphrases)
    ]


def assert_stored_and_answered_like_brute(dataset, titles):
    """Built, loaded and reference models write one file and answer alike."""
    model = build(dataset)
    data = to_bytes(model)
    loaded = from_bytes(data)
    assert_models_equal(model, loaded)
    assert to_bytes(loaded) == data
    reference = brute_build(dataset)
    assert to_bytes(reference) == data
    # The file holds no lengths; the reference counts its own.
    assert np.array_equal(reference.kp_lengths, loaded.kp_lengths)
    for leaf in dataset.leaves:
        for title in titles:
            for align in Alignment:
                for k in (1, 10):
                    got = recommend(loaded, Query(title, leaf, k), align=align)
                    assert predictions_as_tuples(got) == brute_recommend(
                        dataset, leaf, title, k, align=align.value), (title, align, k)
    return model, loaded


@pytest.mark.parametrize("n_keyphrases, length, offsets_type, lengths_type", [
    (255, 1, np.uint8, np.uint8),      # largest offset 255
    (256, 1, np.uint16, np.uint8),     # 256
    (255, 257, np.uint16, np.uint16),  # 65,535
    (256, 256, np.uint32, np.uint16),  # 65,536
    (1, 255, np.uint8, np.uint8),      # keyphrase length 255
    (1, 256, np.uint16, np.uint16),    # 256
])
def test_offsets_and_lengths_take_the_narrowest_unsigned_type(
        n_keyphrases, length, offsets_type, lengths_type):
    dataset = curate(wide_rows(n_keyphrases, length), orientation=COUNT_ORIENTATION)
    titles = ["t0 t1 t2", f"t{n_keyphrases - 1} t{n_keyphrases} t{length} zz", "t3"]
    model, loaded = assert_stored_and_answered_like_brute(dataset, titles)
    assert int(model.leaf(1).offsets[-1]) == n_keyphrases * length
    for candidate in (model, loaded):
        assert candidate.leaf(1).offsets.dtype == offsets_type
        assert candidate.kp_lengths.dtype == lengths_type
        assert candidate.kp_text_ref.dtype == (np.uint8 if n_keyphrases <= 256 else np.uint16)
        assert candidate.leaf(1).token_rows.dtype == candidate.leaf(1).edges.dtype == np.uint32
    assert leaf_block_nbytes(model.leaf(1)) == leaf_block_nbytes(brute_build(dataset).leaf(1))


@pytest.mark.parametrize("orientation, search, recall, search_type, recall_type", [
    (COUNT_ORIENTATION, [3.0, 7.0, 1e6], [0.0, 2.0, 5.0], np.float32, np.float32),
    # Rank 0 is canonical -0.0, whose sign float32 keeps.
    (RANK_ORIENTATION, [0.0, 1.0, 2.0], [2.0, 0.0, 1.0], np.float32, np.float32),
    (COUNT_ORIENTATION, [0.1, 7.0, 1.0], [0.0, 2.0, 5.0], np.float64, np.float32),
    # 2**24 + 1, the least positive integer float32 rounds.
    (COUNT_ORIENTATION, [3.0, 16_777_217.0, 1.0], [1.0, 16_777_216.0, 5.0],
     np.float64, np.float32),
    # Beyond float32's range, with no overflow warning.
    (COUNT_ORIENTATION, [3.0, 7.0, 1.0], [1e300, 2.0, 5.0], np.float32, np.float64),
], ids=["integers", "rank -0.0", "0.1", "2**24 + 1", "1e300"])
def test_scores_are_float32_only_when_every_value_is_exact(
        orientation, search, recall, search_type, recall_type):
    texts = ["red shoe", "red hat", "shoe"]
    rows = [RawKeyphraseRow(text, 1, s, r) for text, s, r in zip(texts, search, recall)]
    dataset = curate(rows, orientation=orientation)
    model, loaded = assert_stored_and_answered_like_brute(dataset, ["red shoe", "hat", "red"])
    for candidate in (model, loaded):
        assert candidate.kp_search.dtype == search_type
        assert candidate.kp_recall.dtype == recall_type
        raw = sorted(zip(texts, search))
        expected = [orientation.canonical_search(value) for _, value in raw]
        assert np.array_equal(candidate.kp_search.astype(np.float64).view(np.uint64),
                              np.array(expected).view(np.uint64))


def test_model_loads_from_a_read_only_map(tmp_path, monkeypatch):
    dataset = make_dataset(random.Random(59), 300, 60, [1, 2, 3])
    path = tmp_path / "model.gex"
    save(build(dataset), str(path))
    from_file = from_bytes(path.read_bytes())
    # Small chunks make the reader find newlines across many chunks.
    monkeypatch.setattr(storage, "_DECODE_CHUNK", 7)
    with open(path, "rb") as handle:
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    try:
        model = from_bytes(mapped)
        assert_models_equal(model, from_file)
        rng = random.Random(61)
        for _ in range(200):
            title = " ".join(f"w{rng.randrange(70)}" for _ in range(rng.randint(1, 6)))
            query = Query(title, rng.choice([1, 2, 3]), rng.randint(1, 12))
            for align in Alignment:
                assert recommend(model, query, align) == recommend(from_file, query, align)
    finally:
        # The model's arrays view the map, which cannot close while they live.
        model = None
        mapped.close()
