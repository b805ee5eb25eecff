from __future__ import annotations

import json
import random
import threading

import numpy as np
import pytest

from graphex.curation import COUNT_ORIENTATION, RANK_ORIENTATION, RawKeyphraseRow, curate
from graphex.graph import UnknownLeafError, build
from graphex.inference import (
    _RANK_CHUNK,
    Alignment,
    BatchItem,
    Prediction,
    Query,
    _candidates,
    _prune_cutoff,
    encode_row,
    enumerate_candidates,
    predictions_to_dicts,
    recommend,
    recommend_batch,
)

from helpers import (
    brute_prune,
    brute_recommend,
    make_dataset,
    make_rows,
    make_title,
    predictions_as_tuples,
    reference_candidates,
)

from conftest import HEADPHONES_LEAF, HEADPHONES_TITLE


def scores(align, common, label_len, title_len=0.0):
    return align.score_array(np.array(common), np.array(label_len), title_len).tolist()


def test_lta_values():
    assert scores(Alignment.LTA, [2, 2, 1, 5], [2, 3, 3, 5]) == [
        2.0, 1.0, pytest.approx(1 / 3), 5.0,
    ]


def test_wmr_values():
    assert scores(Alignment.WMR, [2, 2, 4], [2, 3, 5]) == [1.0, pytest.approx(2 / 3), 0.8]


def test_jac_values():
    title_len = np.array([6.0, 3.0])
    assert scores(Alignment.JAC, [2, 3], [3, 3], title_len) == [pytest.approx(2 / 7), 1.0]


def test_alignment_enum_dispatch():
    assert [scores(align, [2], [3], 6.0) for align in Alignment] == [[1.0], [2 / 3], [2 / 7]]
    assert Alignment("lta") is Alignment.LTA


def pruned(counts, k):
    """Indices of the counts the prune cutoff keeps."""
    cutoff = _prune_cutoff(np.asarray(counts, dtype=np.int64), k)
    return [i for i, c in enumerate(counts) if c >= cutoff]


def test_prune_takes_whole_threshold_group():
    assert pruned([3, 2, 2, 2, 1], k=3) == [0, 1, 2, 3]


def test_prune_can_exceed_k_substantially():
    assert len(pruned([2, 2, 2], k=1)) == 3


def test_prune_keeps_all_when_under_k():
    assert len(pruned([1, 2], k=10)) == 2


def test_prune_rejects_bad_k():
    with pytest.raises(ValueError):
        pruned([1], k=0)


def test_prune_matches_reference_on_random_inputs():
    rng = random.Random(19)
    for _ in range(300):
        counts = [rng.randint(1, 8) for _ in range(rng.randint(0, 40))]
        k = rng.randint(1, 15)
        assert pruned(counts, k) == brute_prune(list(enumerate(counts)), k)


def model_of(*rows, orientation=RANK_ORIENTATION):
    """One-leaf model from (text, raw search, raw recall) rows."""
    rows = [RawKeyphraseRow(text, 1, search, recall) for text, search, recall in rows]
    return build(curate(rows, orientation=orientation))


def test_rank_orders_by_align_then_search_then_recall_then_id():
    # Rank orientation, so canonical search and recall are the negated raw
    # values.  For title "x y", LTA gives "x y" 2.0 and the rest 1.0.
    model = model_of(
        ("x y c", 5.0, 1.0), ("x y", 9.0, 9.0), ("x y a", 2.0, 3.0), ("x y b", 2.0, 9.0)
    )
    ranked = recommend(model, Query("x y", 1))
    assert [p.position for p in ranked] == [1, 2, 3, 4]
    assert [p.align for p in ranked] == [2.0, 1.0, 1.0, 1.0]
    # align 2.0 first; then search 2.0 pair, recall 9.0 before 3.0; then 5.0.
    assert [p.search for p in ranked] == [9.0, 2.0, 2.0, 5.0]
    assert [p.recall for p in ranked] == [9.0, 9.0, 3.0, 1.0]


def test_rank_falls_back_to_keyphrase_id_for_full_ties():
    model = model_of(("x c", 1.0, 1.0), ("x a", 1.0, 1.0), ("x b", 1.0, 1.0))
    ranked = recommend(model, Query("x", 1))
    texts = [model.kp_text(i) for i in range(3)]
    assert [p.keyphrase for p in ranked] == texts


def test_rank_respects_limit():
    model = model_of(*((f"x {c}", 1.0, 1.0) for c in "abcd"))
    assert len(recommend(model, Query("x", 1), max_predictions=2)) == 2


def test_sort_key_is_a_total_order():
    # Few distinct scores, so only the keyphrase id separates many
    # predictions; the ranking must still order every pair strictly.
    rows = _adversarial_rows(1, "tiebreak")
    model = build(curate(rows, orientation=COUNT_ORIENTATION))
    for align in Alignment:
        preds = recommend(model, Query("t", 1, k=len(rows)), align=align, max_predictions=None)
        assert len(preds) == len(rows)
        keys = [(-p.align, -p.search, p.recall, p.keyphrase) for p in preds]
        assert all(a < b for a, b in zip(keys, keys[1:]))


def test_enumerate_candidates_counts_match_overlaps(headphones_model):
    out = enumerate_candidates(headphones_model, Query(HEADPHONES_TITLE, HEADPHONES_LEAF))
    by_text = {headphones_model.kp_text(c.kp_id): c.common for c in out}
    assert [c.kp_id for c in out] == sorted(c.kp_id for c in out)
    assert by_text == {
        "audeze maxwell": 2,
        "gaming headphones xbox": 3,
        "audeze headphones": 2,
        "wireless headphones xbox": 2,
        "bluetooth wireless headphones": 1,
    }


def test_enumerate_candidates_repeated_title_tokens_count_once(headphones_model):
    once = enumerate_candidates(headphones_model, Query("audeze maxwell", HEADPHONES_LEAF))
    twice = enumerate_candidates(headphones_model, Query("audeze audeze maxwell", HEADPHONES_LEAF))
    assert sorted((c.kp_id, c.common) for c in once) == sorted((c.kp_id, c.common) for c in twice)


def test_worked_example_ranking(headphones_model):
    preds = recommend(headphones_model, Query(HEADPHONES_TITLE, HEADPHONES_LEAF, k=5))
    assert [p.keyphrase for p in preds] == [
        "gaming headphones xbox",
        "audeze maxwell",
        "audeze headphones",
        "wireless headphones xbox",
        "bluetooth wireless headphones",
    ]
    assert [p.align for p in preds] == [3.0, 2.0, 2.0, 1.0, pytest.approx(1 / 3)]
    # Raw rank scores come back unnegated.
    assert [p.search for p in preds] == [2.0, 1.0, 3.0, 4.0, 5.0]
    assert [p.recall for p in preds] == [4.0, 5.0, 3.0, 2.0, 1.0]
    assert [p.position for p in preds] == [1, 2, 3, 4, 5]


def test_recommend_rejects_bad_k(headphones_model):
    with pytest.raises(ValueError):
        recommend(headphones_model, Query("anything", HEADPHONES_LEAF, k=0))


def test_recommend_unknown_leaf_raises(headphones_model):
    with pytest.raises(UnknownLeafError):
        recommend(headphones_model, Query("anything", 99, k=5))


def test_recommend_no_overlap_returns_empty(headphones_model):
    assert recommend(headphones_model, Query("trampoline parts", HEADPHONES_LEAF, k=5)) == []
    assert recommend(headphones_model, Query("", HEADPHONES_LEAF, k=5)) == []


def test_recommend_respects_max_predictions():
    rows = [RawKeyphraseRow(f"common w{i}", 1, float(i), 1.0) for i in range(100)]
    model = build(curate(rows, orientation=COUNT_ORIENTATION))
    preds = recommend(model, Query("common", 1, k=10), max_predictions=40)
    # One huge count-1 group: pruning keeps it whole, the cap trims it.
    assert len(preds) == 40
    preds = recommend(model, Query("common", 1, k=10), max_predictions=15)
    assert len(preds) == 15


def test_recommend_min_common_tokens_filters_before_pruning(headphones_model):
    preds = recommend(
        headphones_model,
        Query(HEADPHONES_TITLE, HEADPHONES_LEAF, k=5),
        min_common_tokens=2,
    )
    assert [p.keyphrase for p in preds] == [
        "gaming headphones xbox",
        "audeze maxwell",
        "audeze headphones",
        "wireless headphones xbox",
    ]


def test_recommend_case_and_duplicates_do_not_change_output(headphones_model):
    base = recommend(headphones_model, Query(HEADPHONES_TITLE, HEADPHONES_LEAF, k=5))
    shouty = recommend(
        headphones_model, Query(HEADPHONES_TITLE.upper(), HEADPHONES_LEAF, k=5)
    )
    doubled = recommend(
        headphones_model,
        Query(HEADPHONES_TITLE + " " + HEADPHONES_TITLE, HEADPHONES_LEAF, k=5),
    )
    assert base == shouty == doubled


def test_recommend_matches_enumerate_candidates_scores(headphones_model):
    # The vectorized path and the readable path must agree candidate by
    # candidate before pruning ever enters the picture.
    for align in Alignment:
        slow = enumerate_candidates(
            headphones_model, Query(HEADPHONES_TITLE, HEADPHONES_LEAF), align=align
        )
        slow_map = {c.kp_id: (c.common, c.align) for c in slow}
        preds = recommend(
            headphones_model, Query(HEADPHONES_TITLE, HEADPHONES_LEAF, k=50), align=align
        )
        assert len(preds) == len(slow_map)
        for pred in preds:
            kp_id = next(
                c.kp_id for c in slow if headphones_model.kp_text(c.kp_id) == pred.keyphrase
            )
            assert slow_map[kp_id][1] == pred.align


def test_recommend_matches_brute_force_on_random_models():
    rng = random.Random(37)
    for _ in range(8):
        dataset = make_dataset(rng, 250, vocab_size=40, leaf_ids=[1, 2], min_len=1, max_len=5)
        model = build(dataset)
        for _ in range(40):
            leaf = rng.choice([1, 2])
            title = make_title(rng, 40, rng.randint(1, 10))
            k = rng.randint(1, 12)
            align = rng.choice(list(Alignment))
            got = predictions_as_tuples(
                recommend(model, Query(title, leaf, k=k), align=align)
            )
            expected = brute_recommend(dataset, leaf, title, k, align=align.value)
            assert got == expected


def _adversarial_rows(leaf: int, kind: str) -> list[RawKeyphraseRow]:
    """Keyphrase rows for one leaf shaped to stress the counting kernel."""
    rng = random.Random(f"{kind}-{leaf}")
    if kind == "hub":
        # "hub" is in every keyphrase: its degree is the leaf size.
        texts = {f"hub w{a} w{b}" for a, b in
                 (rng.sample(range(30), 2) for _ in range(400))}
    elif kind == "one_token":
        texts = {f"w{i}" for i in range(30)} | {f"w{i} w{i + 1}" for i in range(0, 30, 3)}
    elif kind == "tied":
        # One shared token, a distinct second token, equal scores: the
        # order falls through align, search and recall to the keyphrase id.
        return [RawKeyphraseRow(f"common x{i}", leaf, 7.0, 7.0) for i in range(120)]
    elif kind == "tiebreak":
        # Three keyphrase lengths and two values each of search and recall:
        # align ties fall through to search, then recall, then the id.
        texts = ["t"] + [f"t a{i}" for i in range(20)] + [f"t a{i} b{i}" for i in range(20)]
        return [RawKeyphraseRow(text, leaf, float(rng.randint(0, 1)), float(rng.randint(0, 1)))
                for text in texts]
    else:
        raise ValueError(kind)
    return [
        RawKeyphraseRow(text, leaf, float(rng.randint(0, 5)), float(rng.randint(0, 5)))
        for text in sorted(texts)
    ]


@pytest.mark.parametrize(
    "kind, title, k, max_predictions, min_common",
    [
        ("hub", "hub w3 w7 w11 zz1", 10, 40, 1),
        ("hub", "hub", 10, 40, 1),
        ("hub", "hub w3 w7 w11", 5, 40, 2),
        ("hub", "hub w3 w7 w11", 1, 40, 3),
        ("one_token", "w0 w1 w4 w9 w12 w13", 4, 40, 1),
        ("one_token", "w0 w1 w4 w9 w12 w13", 3, 40, 2),
        ("one_token", "w6 zz1 zz2", 10, 40, 1),
        ("one_token", "zz1 zz2 zz3", 10, 40, 1),
        ("tied", "common", 10, 40, 1),
        ("tied", "common x5 x9", 2, 3, 1),
        ("tied", "common", 10, 40, 2),
        ("tiebreak", "t", 50, 40, 1),
        ("tiebreak", "t a3 b3 a5 a7", 2, 40, 1),
    ],
)
def test_recommend_matches_brute_force_on_adversarial_leaves(
    kind, title, k, max_predictions, min_common
):
    # The stressed leaf sits after a noise leaf that shares its tokens, so
    # its keyphrase ids start above zero and cross-leaf edges would show.
    rows = make_rows(random.Random(3), 200, 30, [1]) + _adversarial_rows(2, kind)
    dataset = curate(rows, orientation=COUNT_ORIENTATION)
    model = build(dataset)
    assert model.leaf(2).kp_base > 0
    for align in Alignment:
        got = predictions_as_tuples(recommend(
            model, Query(title, 2, k=k), align=align,
            max_predictions=max_predictions, min_common_tokens=min_common,
        ))
        expected = brute_recommend(dataset, 2, title, k, align=align.value,
                                   max_predictions=max_predictions,
                                   min_common_tokens=min_common)
        assert got == expected
    if title.startswith("zz"):
        assert got == []  # all-OOV title: nothing is gathered
    if kind == "tied" and title == "common":
        # 120 candidates tied at count 1: the cap trims the kept group,
        # and requiring 2 common tokens leaves nothing.
        assert len(got) == (max_predictions if min_common == 1 else 0)


def _overlap_leaf(n3: int, n2: int, n1: int):
    """A leaf whose keyphrases share 3, 2 and 1 tokens with the title "a b c".

    It sits after a noise leaf over the same tokens, so its keyphrase ids
    start above zero.  The title gathers ``3*n3 + 2*n2 + n1`` edges, and
    ``n3 + n2`` ids repeat.
    """
    texts = ([f"a b c x{i}" for i in range(n3)] + [f"a b y{i}" for i in range(n2)]
             + [f"a z{i}" for i in range(n1)])
    rng = random.Random(n3 * 10_000 + n2 * 100 + n1)
    rows = [RawKeyphraseRow(text, 2, float(rng.randint(0, 3)), float(rng.randint(0, 3)))
            for text in texts]
    rows += [RawKeyphraseRow(text, 1, 1.0, 1.0) for text in ("a b", "b c", "a x0", "c")]
    dataset = curate(rows, orientation=COUNT_ORIENTATION)
    return dataset, build(dataset)


# (keyphrases sharing 3, 2 and 1 title tokens, k, min_common_tokens)
@pytest.mark.parametrize(
    "n3, n2, n1, k, min_common",
    [
        # Exactly k, k - 1 and k + 1 distinct repeated ids.
        pytest.param(1, 3, 6, 4, None, id="k-repeats"),
        pytest.param(0, 4, 6, 4, None, id="k-repeats-all-one-group"),
        pytest.param(1, 2, 6, 4, None, id="k-minus-1-repeats"),
        pytest.param(0, 3, 6, 4, None, id="k-minus-1-repeats-one-group"),
        pytest.param(2, 3, 6, 4, None, id="k-plus-1-repeats"),
        pytest.param(0, 4, 0, 4, None, id="k-repeats-in-2k-edges"),
        # No repeats: the cutoff is 1 and every candidate survives.
        pytest.param(0, 0, 9, 4, None, id="no-repeats"),
        # k repeated ids need 2k edges: 2k - 1 edges count every run.
        pytest.param(0, 3, 1, 4, None, id="edges-2k-minus-1"),
        # As many gathered edges as k, and one more.
        pytest.param(0, 1, 3, 5, None, id="edges-equal-k"),
        pytest.param(0, 1, 4, 5, None, id="edges-k-plus-1"),
        pytest.param(1, 0, 2, 5, None, id="edges-equal-k-count-3"),
        pytest.param(0, 1, 3, 5, 2, id="edges-equal-k-floor-2"),
        pytest.param(0, 1, 4, 5, 2, id="edges-k-plus-1-floor-2"),
        # k = 1.
        pytest.param(0, 1, 5, 1, None, id="k1-one-repeat"),
        pytest.param(0, 2, 5, 1, None, id="k1-two-repeats"),
        pytest.param(0, 0, 5, 1, None, id="k1-no-repeats"),
        pytest.param(1, 0, 0, 1, None, id="k1-one-candidate"),
        # A floor of 2 or 3 with k or fewer edges still filters.
        pytest.param(0, 2, 2, 10, 2, id="short-floor-2"),
        pytest.param(1, 1, 2, 10, 2, id="short-floor-2-count-3"),
        pytest.param(1, 1, 2, 10, 3, id="short-floor-3"),
        pytest.param(0, 2, 2, 10, 3, id="short-floor-3-empties"),
        # A floor on the long path, with fewer than k repeats.
        pytest.param(1, 2, 9, 5, 2, id="long-floor-2"),
        pytest.param(1, 2, 9, 5, 3, id="long-floor-3"),
    ],
)
def test_candidates_match_the_count_everything_reference_at_each_boundary(
    n3, n2, n1, k, min_common
):
    dataset, model = _overlap_leaf(n3, n2, n1)
    query = Query("a b c", 2, k=k)
    got = _candidates(model, query, min_common)
    expected = reference_candidates(model, query, min_common)
    assert got[0].tolist() == expected[0].tolist()
    assert got[1].tolist() == expected[1].tolist()
    assert got[2] == expected[2] == 3
    assert predictions_as_tuples(recommend(model, query, min_common_tokens=min_common)) == (
        brute_recommend(dataset, 2, "a b c", k, min_common_tokens=min_common or 1))


@pytest.mark.parametrize(
    "counts, k",
    [([5, 1, 1], 1), ([5, 1, 1], 2), ([5, 1, 1], 3), ([9, 2, 2, 2], 2),
     ([1, 7, 1, 4, 7], 3), ([3, 3, 3], 1), ([2, 8], 5)],
)
def test_prune_cutoff_skips_empty_count_groups(counts, k):
    cutoff = _prune_cutoff(np.asarray(counts, dtype=np.int64), k)
    kept = [i for i, c in enumerate(counts) if c >= cutoff]
    assert kept == brute_prune(list(enumerate(counts)), k)


def test_recommend_batch_preserves_order_and_isolates_errors(headphones_model):
    items = [
        BatchItem("one", Query(HEADPHONES_TITLE, HEADPHONES_LEAF, k=5)),
        BatchItem("two", Query("no such leaf", 123, k=5)),
        BatchItem("three", Query("audeze maxwell", HEADPHONES_LEAF, k=5)),
    ]
    results = recommend_batch(headphones_model, items)
    assert [r.item_id for r in results] == ["one", "two", "three"]
    assert results[0].error is None and results[0].predictions
    assert results[1].error is not None and results[1].predictions == []
    assert "123" in results[1].error
    assert results[2].error is None


def test_recommend_batch_workers_do_not_change_results(headphones_model):
    rng = random.Random(43)
    vocab = ["audeze", "maxwell", "gaming", "headphones", "xbox", "wireless", "nothing"]
    items = [
        BatchItem(
            f"i{n}",
            Query(" ".join(rng.choices(vocab, k=rng.randint(1, 6))), HEADPHONES_LEAF, k=3),
        )
        for n in range(100)
    ]
    sequential = recommend_batch(headphones_model, items, workers=1)
    threaded = recommend_batch(headphones_model, items, workers=8)
    assert sequential == threaded


def test_recommend_batch_starts_no_thread(headphones_model, monkeypatch):
    def refuse(self):
        raise AssertionError("recommend_batch started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    items = [BatchItem(f"i{n}", Query(HEADPHONES_TITLE, HEADPHONES_LEAF, k=3)) for n in range(20)]
    expected = recommend_batch(headphones_model, items, workers=1)
    for workers in (0, 2, 8):
        assert recommend_batch(headphones_model, items, workers=workers) == expected


def _random_batch_item(
    rng: random.Random, n: int, named_share: float, most_named: int
) -> BatchItem:
    leaf = rng.choice([1, 2, 3, 4, 99])  # 4 is the tied leaf, 99 is unknown
    title = rng.choice([
        make_title(rng, 30, rng.randint(1, 12)),
        make_title(rng, 30, rng.randint(1, 12)),
        "common " + make_title(rng, 30, rng.randint(0, 3)),
        "",
        "zz1 zz2 zz3",
    ])
    k = rng.choice([-1, 0, 1, 2, 5, 10, 40])
    if rng.random() < named_share:
        # On the tied leaf with k=1, the survivors are exactly the named
        # x-keyphrases, so their number can land on either side of a cap.
        named = rng.sample(range(120), rng.randint(1, most_named))
        leaf, k, title = 4, 1, " ".join(["common"] + [f"x{i}" for i in named])
    return BatchItem(f"i{n}", Query(title, leaf, k))


@pytest.mark.parametrize("seed", range(4))
def test_recommend_batch_equals_recommend_per_item(seed):
    rng = random.Random(900 + seed)
    rows = make_rows(rng, 400, vocab_size=30, leaf_ids=[1, 2, 3], max_len=4, max_score=3)
    model = build(curate(rows + _adversarial_rows(4, "tied"), orientation=COUNT_ORIENTATION))
    # Chunks smaller and larger than the rank chunk; the last batch holds
    # only small tied queries, so no segment is far above the cap.
    batches = [(0, 0.3), (1, 0.3), (_RANK_CHUNK - 1, 0.3), (_RANK_CHUNK, 0.3),
               (_RANK_CHUNK + 1, 0.3), (3 * _RANK_CHUNK + 5, 0.3), (rng.randint(2, 5), 0.3),
               (2 * _RANK_CHUNK, 1.0)]
    for size, named_share in batches:
        align = rng.choice(list(Alignment))
        max_predictions = rng.choice([None, -1, 0, 1, 2, 3, 40])
        most_named = max(max_predictions or 4, 1) + 1
        items = [_random_batch_item(rng, n, named_share, most_named) for n in range(size)]
        results = recommend_batch(model, items, align=align, max_predictions=max_predictions)
        assert [result.item_id for result in results] == [item.item_id for item in items]
        for item, result in zip(items, results):
            try:
                expected = recommend(model, item.query, align=align,
                                     max_predictions=max_predictions)
            except (UnknownLeafError, ValueError) as exc:
                assert (result.error, result.predictions) == (str(exc), [])
            else:
                assert result.error is None
                assert result.predictions == expected


# Text json.dumps escapes: non-ASCII (including outside the BMP), quotes,
# backslashes, control characters, DEL and the JSON-unsafe separators.
AWKWARD_TEXTS = [
    "café crème", 'say "hi"', "back\\slash \\u0041", "tab\tnew\nline\r\x00\x1f\x7f",
    "headphones \U0001f3a7", "\u2028\u2029", "/slash", "", "ünïcödé \ud7ff \ue000",
]


def test_encode_row_matches_json_dumps_of_prediction_dicts(headphones_model):
    awkward = [
        Prediction(text, align, search, recall, position)
        for position, (text, align, search, recall) in enumerate(zip(
            AWKWARD_TEXTS,
            [3.0, 0.1, 1 / 3, 1e-300, 2.5e-7, 1e21, 0.0, 12345678.9, 2],
            [1.0, -0.0, 1e16, 7, 0.30000000000000004, 2.0, 5e-324, 1.5, 100.0],
            [5.0, 4.0, 3.0, 2.0, 1.0, 1.7976931348623157e308, 0.5, 0.25, 9],
        ), start=1)
    ]
    real = recommend(headphones_model, Query(HEADPHONES_TITLE, HEADPHONES_LEAF, k=5))
    assert real
    for predictions in (awkward, real, awkward[:1], []):
        assert encode_row(predictions) == json.dumps(
            {"predictions": predictions_to_dicts(predictions)})


@pytest.mark.parametrize("text", AWKWARD_TEXTS)
def test_encode_row_matches_json_dumps_for_every_row_shape(headphones_model, text):
    predictions = recommend(headphones_model, Query(HEADPHONES_TITLE, HEADPHONES_LEAF))
    item_id, title, error = f"id {text}", f"title {text}", f"error {text}"
    shapes = [
        ({"item_id": item_id, "title": title,
          "predictions": predictions_to_dicts(predictions)},
         encode_row(predictions, item_id, title)),
        ({"item_id": item_id, "predictions": [], "error": error},
         encode_row([], item_id, error=error)),
        ({"item_id": item_id, "title": title, "predictions": [], "error": error},
         encode_row([], item_id, title, error)),
    ]
    for row, encoded in shapes:
        assert encoded == json.dumps(row)
