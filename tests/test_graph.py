from __future__ import annotations

import random

import numpy as np
import pytest

from graphex.curation import (
    COUNT_ORIENTATION,
    INT64_MAX,
    INT64_MIN,
    RANK_ORIENTATION,
    CuratedDataset,
    CuratedKeyphrase,
    CurationStats,
    RawKeyphraseRow,
    curate,
)
from graphex import graph as graph_module
from graphex.graph import StringTable, UnknownLeafError, build
from graphex.inference import _gather
from graphex.storage import to_bytes

from helpers import (
    brute_build,
    brute_degree,
    brute_edge_count,
    brute_unique_token_count,
    make_dataset,
)


def dataset_of(*pairs):
    rows = [RawKeyphraseRow(text, leaf, 1.0, 1.0) for text, leaf in pairs]
    return curate(rows, orientation=COUNT_ORIENTATION)


def leaf_texts(dataset, leaf):
    return [kp.text for kp in dataset.leaves[leaf]]


def test_build_two_keyphrase_leaf_has_expected_csr():
    model = build(dataset_of(("a b", 1)))
    graph = model.leaf(1)
    assert graph.num_tokens == 2
    assert graph.num_edges == 2
    assert graph.offsets.tolist() == [0, 1, 2]
    assert graph.edges.tolist() == [0, 0]


def test_headphones_leaf_degrees_match_full_scan(headphones_dataset, headphones_model):
    texts = leaf_texts(headphones_dataset, 42)
    graph = headphones_model.leaf(42)
    for token in ["headphones", "audeze", "xbox", "wireless", "maxwell", "gaming", "bluetooth"]:
        token_id = headphones_model.vocabulary.lookup(token)
        assert token_id is not None
        row = graph.row_of(token_id)
        assert row is not None
        assert len(graph.adjacency_row(row)) == brute_degree(texts, token)
        assert len(_gather(headphones_model, graph, [token])) == brute_degree(texts, token)
    assert graph.row_of(10_000) is None
    assert len(_gather(headphones_model, graph, ["nosuchtoken"])) == 0


def lookup_cases(rows: list[int]) -> list[int]:
    """First, last, below, between and above the rows, plus ids outside uint32."""
    cases = [rows[0], rows[-1], rows[0] - 1, rows[-1] + 1, -1, 2**32, 2**40, 2**32 + rows[0]]
    cases += [a + 1 for a, b in zip(rows, rows[1:]) if b - a > 1][:5]
    return cases


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_row_lookup_matches_a_dict_over_token_rows(seed):
    rng = random.Random(seed)
    dataset = make_dataset(rng, 60, vocab_size=30, leaf_ids=[1, 2, 3], min_len=1, max_len=4)
    dataset.leaves[4] = dataset_of(("onlytoken", 4)).leaves[4]
    model = build(dataset)
    surfaces = model.vocabulary.surfaces()
    for leaf_id in model.leaf_categories:
        graph = model.leaf(leaf_id)
        rows = graph.token_rows.tolist()
        expected = {token_id: row for row, token_id in enumerate(rows)}
        leaf_kp_ids = range(graph.kp_base, graph.kp_base + graph.num_keyphrases)
        for token_id in lookup_cases(rows):
            row = expected.get(token_id)
            assert graph.row_of(token_id) == row, (leaf_id, token_id)
            members = []
            if row is not None:
                adjacency = graph.adjacency_row(row)
                assert adjacency.dtype == graph.edges.dtype
                members = [kp_id for kp_id in leaf_kp_ids
                           if surfaces[token_id] in model.kp_text(kp_id).split()]
                assert adjacency.tolist() == members, (leaf_id, token_id)
            # A vocabulary token takes the same lookup inside a query.
            if 0 <= token_id < len(surfaces):
                gathered = _gather(model, graph, [surfaces[token_id]])
                assert gathered.tolist() == members, (leaf_id, token_id)
    assert model.leaf(4).num_tokens == 1


def test_headphones_leaf_stats_match_full_scan(headphones_dataset, headphones_model):
    texts = leaf_texts(headphones_dataset, 42)
    graph = headphones_model.leaf(42)
    assert graph.num_tokens == brute_unique_token_count(texts) == 7
    assert graph.num_edges == brute_edge_count(texts) == 13


def test_degree_stats_single_keyphrase():
    graph = build(dataset_of(("a b", 5))).leaf(5)
    assert (graph.num_tokens, graph.num_edges, graph.num_keyphrases) == (2, 2, 1)


def test_degree_stats_unknown_leaf_raises():
    model = build(dataset_of(("a b", 5)))
    with pytest.raises(UnknownLeafError):
        model.leaf(6)


def test_duplicate_tokens_inside_keyphrase_produce_one_edge():
    model = build(dataset_of(("spare spare tire", 3)))
    graph = model.leaf(3)
    assert graph.num_edges == 2
    assert model.kp_lengths.tolist() == [2]


def test_leaves_are_isolated_but_share_string_and_token_tables():
    dataset = dataset_of(("shared phrase", 1), ("shared phrase", 2), ("only here", 2))
    model = build(dataset)
    assert model.num_keyphrases == 3
    assert model.kp_texts == ["only here", "shared phrase"]
    one, two = model.leaf(1), model.leaf(2)
    assert one.num_keyphrases == 1
    assert two.num_keyphrases == 2
    assert set(one.edges.tolist()) == {0}
    assert set(two.edges.tolist()) == {1, 2}
    # Same text, same string table slot, distinct keyphrase ids.
    assert model.kp_text(0) == model.kp_text(2) == "shared phrase"
    assert model.kp_text(1) == "only here"
    assert model.kp_text_ref[0] == model.kp_text_ref[2]


def test_keyphrase_ids_are_contiguous_per_leaf_in_sorted_order():
    rng = random.Random(3)
    dataset = make_dataset(rng, 400, vocab_size=60, leaf_ids=[9, 4, 7])
    model = build(dataset)
    expected_base = 0
    for leaf_id in sorted(dataset.leaves):
        graph = model.leaf(leaf_id)
        assert graph.kp_base == expected_base
        texts = [model.kp_text(k) for k in range(graph.kp_base, graph.kp_base + graph.num_keyphrases)]
        assert texts == sorted(texts)
        assert texts == leaf_texts(dataset, leaf_id)
        expected_base += graph.num_keyphrases
    assert expected_base == model.num_keyphrases


def test_token_ids_follow_sorted_surface_order():
    model = build(dataset_of(("zebra apple", 1), ("mango", 1)))
    assert model.vocabulary.surfaces() == ["apple", "mango", "zebra"]


def test_graph_edges_match_membership_both_ways_on_random_models():
    rng = random.Random(17)
    for _ in range(10):
        dataset = make_dataset(rng, 120, vocab_size=25, leaf_ids=[1, 2], min_len=1, max_len=4)
        model = build(dataset)
        surfaces = model.vocabulary.surfaces()
        for leaf_id, group in dataset.leaves.items():
            graph = model.leaf(leaf_id)
            texts = [kp.text for kp in group]
            # Forward: each CSR edge corresponds to real token membership.
            for row, token_id in enumerate(graph.token_rows.tolist()):
                token = surfaces[token_id]
                for kp_id in graph.adjacency_row(row).tolist():
                    assert token in set(model.kp_text(kp_id).split())
            # Backward: every membership pair appears exactly once.
            edge_pairs = []
            for row, token_id in enumerate(graph.token_rows.tolist()):
                token = surfaces[token_id]
                edge_pairs.extend((token, kp_id) for kp_id in graph.adjacency_row(row).tolist())
            expected = {
                (token, graph.kp_base + idx)
                for idx, text in enumerate(texts)
                for token in set(text.split())
            }
            assert len(edge_pairs) == len(expected)
            assert set(edge_pairs) == expected


def test_offsets_are_monotone_and_cover_all_edges():
    rng = random.Random(23)
    dataset = make_dataset(rng, 300, vocab_size=40, leaf_ids=[1, 2, 3])
    model = build(dataset)
    for leaf_id in model.leaf_categories:
        graph = model.leaf(leaf_id)
        offsets = graph.offsets
        assert offsets[0] == 0
        assert offsets[-1] == graph.num_edges
        assert np.all(np.diff(offsets) >= 1)
        assert len(offsets) == graph.num_tokens + 1
        rows = graph.token_rows.tolist()
        assert rows == sorted(rows)
        within = (graph.edges >= graph.kp_base) & (graph.edges < graph.kp_base + graph.num_keyphrases)
        assert bool(within.all())


def test_build_is_deterministic_across_input_order():
    rng = random.Random(29)
    rows = [
        RawKeyphraseRow(" ".join(f"w{rng.randint(0, 20)}" for _ in range(rng.randint(1, 4))),
                        rng.choice([5, 6]), float(rng.randint(0, 99)), float(rng.randint(0, 99)))
        for _ in range(200)
    ]
    shuffled = rows[:]
    rng.shuffle(shuffled)
    first = build(curate(rows))
    second = build(curate(shuffled))
    assert first.kp_texts == second.kp_texts
    assert first.vocabulary.surfaces() == second.vocabulary.surfaces()
    for leaf_id in first.leaf_categories:
        a, b = first.leaf(leaf_id), second.leaf(leaf_id)
        assert a.edges.tolist() == b.edges.tolist()
        assert a.offsets.tolist() == b.offsets.tolist()
        assert a.token_rows.tolist() == b.token_rows.tolist()


def _scored_rows(rng, pairs):
    return [RawKeyphraseRow(text, leaf, float(rng.randint(0, 50)), float(rng.randint(0, 50)))
            for text, leaf in pairs]


def _random_text(rng, words, lo=1, hi=5):
    return " ".join(rng.choice(words) for _ in range(rng.randint(lo, hi)))


def _hand_made_dataset(rng):
    # Texts curate would never produce: tabs, double and edge spaces, a
    # text twice in one leaf; groups out of text order.
    def kp(text):
        return CuratedKeyphrase(text, float(rng.randint(0, 9)), float(rng.randint(0, 9)))
    leaves = {
        9: [kp("shoe\tred"), kp("red  shoe"), kp(" red shoe "), kp("a b"), kp("a b")],
        -2: [kp("zz\t\tyy xx"), kp("b"), kp("a  a")],
    }
    for group in leaves.values():
        rng.shuffle(group)
    return CuratedDataset("hand", RANK_ORIENTATION, leaves, CurationStats())


def _equivalence_dataset(kind, rng):
    words = [f"w{i}" for i in range(30)]
    if kind == "repeated token":
        texts = [f"{w} {_random_text(rng, words)} {w}" for w in rng.choices(words, k=80)]
        return curate(_scored_rows(rng, [(text, rng.randint(1, 3)) for text in texts]))
    if kind == "hand-made texts":
        return _hand_made_dataset(rng)
    if kind == "text in several leaves":
        texts = [_random_text(rng, words) for _ in range(40)]
        pairs = [(text, leaf) for text in texts for leaf in rng.sample(range(6), 3)]
        return curate(_scored_rows(rng, pairs), orientation=RANK_ORIENTATION)
    if kind == "empty leaf lists":
        dataset = curate(_scored_rows(rng, [(_random_text(rng, words), 4) for _ in range(30)]))
        dataset.leaves[1] = []
        dataset.leaves[7] = []
        return dataset
    if kind == "one-token keyphrases":
        return curate(_scored_rows(rng, [(w, rng.randint(1, 4)) for w in words]))
    if kind == "hub token":
        pairs = [(f"hub {_random_text(rng, words, 0, 3)}", rng.randint(1, 2)) for _ in range(120)]
        return curate(_scored_rows(rng, pairs))
    if kind == "non-ascii tokens":
        accented = ["café", "CAFÉ", "cafe\u0301", "naïve", "東京", "straße", "ω", "«ω»", "x"]
        pairs = [(_random_text(rng, accented + words[:5]), rng.randint(1, 3)) for _ in range(80)]
        return curate(_scored_rows(rng, pairs))
    if kind == "int64 leaf extremes":
        pairs = [(_random_text(rng, words), rng.choice([INT64_MIN, INT64_MAX, 0]))
                 for _ in range(60)]
        return curate(_scored_rows(rng, pairs))
    if kind == "mixed":
        return make_dataset(rng, 400, vocab_size=60, leaf_ids=range(-3, 12), max_len=6)
    assert kind == "empty"
    return curate([])


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", [
    "repeated token", "hand-made texts", "text in several leaves", "empty leaf lists",
    "one-token keyphrases", "hub token", "non-ascii tokens", "int64 leaf extremes", "mixed",
    "empty",
])
def test_build_writes_the_same_bytes_as_the_per_keyphrase_reference(kind, seed):
    dataset = _equivalence_dataset(kind, random.Random(seed))
    model, reference = build(dataset), brute_build(dataset)
    assert to_bytes(model) == to_bytes(reference)
    # The file holds no lengths; the reference counts its own.
    assert np.array_equal(model.kp_lengths, reference.kp_lengths)


def test_build_empty_dataset_yields_model_with_no_leaves():
    dataset = curate([], orientation=COUNT_ORIENTATION)
    model = build(dataset)
    assert model.num_keyphrases == 0
    assert model.leaf_categories == []
    with pytest.raises(UnknownLeafError):
        model.leaf(1)


def test_keyphrase_record_exposes_scores_in_canonical_form(headphones_model):
    kp_id = headphones_model.leaf(42).kp_base
    assert headphones_model.kp_text(kp_id) == "audeze headphones"
    # Rank orientation: canonical search negates the raw rank.
    assert headphones_model.kp_search[kp_id] == -3.0
    assert headphones_model.kp_recall[kp_id] == -3.0
    assert headphones_model.kp_lengths[kp_id] == 2


# ---------------------------------------------------------------------------
# StringTable: texts kept as one UTF-8 blob.

TEXTS = ["red shoe", "café crème", "", "日本 語", "x"]


def test_string_table_len_indexing_and_iteration():
    table = StringTable(TEXTS)
    assert len(table) == 5
    assert [table[i] for i in range(5)] == TEXTS
    assert [table[i] for i in range(-5, 0)] == TEXTS
    assert table[np.uint32(3)] == "日本 語"
    assert list(table) == TEXTS
    assert bytes(table.blob) == "\n".join([*TEXTS, ""]).encode("utf-8")
    for index in (5, -6, 1 << 40):
        with pytest.raises(IndexError):
            table[index]
    with pytest.raises(TypeError):
        table["0"]
    with pytest.raises(TypeError):
        table[0] = "blue shoe"


def test_string_table_take_decodes_the_given_entries_in_order():
    table = StringTable(TEXTS)
    assert table.take(np.array([4, 1, 1, 3], dtype=np.uint32)) == ["x", "café crème",
                                                                   "café crème", "日本 語"]
    assert table.take(np.empty(0, dtype=np.uint32)) == []


def test_string_table_equality_with_lists_and_tables():
    table = StringTable(TEXTS)
    assert table == TEXTS
    assert table == StringTable(TEXTS)
    assert table != TEXTS[:-1]
    assert table != [*TEXTS[:-1], "y"]
    assert table != StringTable(TEXTS[:-1])
    assert table != tuple(TEXTS)
    assert table != "red shoe"


def test_empty_string_table():
    table = StringTable()
    assert len(table) == 0
    assert list(table) == []
    assert table == [] and table == StringTable([])
    assert table != [""]
    assert bytes(table.blob) == b""
    for index in (0, -1):
        with pytest.raises(IndexError):
            table[index]


def test_string_table_iterates_in_chunks_of_any_size(monkeypatch):
    texts = [f"entry {i}" for i in range(10)]
    for chunk in (1, 3, 10, 11):
        monkeypatch.setattr(graph_module, "_ITER_CHUNK", chunk)
        assert list(StringTable(texts)) == texts


def test_built_model_keeps_its_texts_in_one_table():
    model = build(dataset_of(("shared phrase", 1), ("only here", 2)))
    assert isinstance(model.kp_texts, StringTable)
    assert bytes(model.kp_texts.blob) == b"only here\nshared phrase\n"

