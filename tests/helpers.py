"""Independent reference implementations and data generators for tests.

Everything here recomputes expected values from first principles (dicts,
sets, full scans) so the production code's count arrays, CSR graphs, and
vectorized scoring can be checked against a second opinion.
"""

from __future__ import annotations

import functools
import random
import sys
import unicodedata
from collections import Counter

import numpy as np

from graphex.curation import (
    COUNT_ORIENTATION,
    CuratedDataset,
    RawKeyphraseRow,
    ScoreOrientation,
    curate,
)
from graphex.graph import LeafGraph, Model, StringTable, build
from graphex.inference import Alignment, Query, _prune_cutoff, recommend
from graphex.vocab import Vocabulary, tokenize


def brute_unique_token_count(texts):
    """Distinct tokens across keyphrase texts (the leaf's |X|)."""
    tokens: set[str] = set()
    for text in texts:
        tokens.update(text.split())
    return len(tokens)


def brute_edge_count(texts):
    """Sum of per-keyphrase unique token counts (the leaf's |E|)."""
    return sum(len(set(text.split())) for text in texts)


def brute_degree(texts, token):
    """How many keyphrases in the leaf contain ``token``."""
    return sum(1 for text in texts if token in set(text.split()))


def align_value(name: str, common: int, label_len: int, title_len: int) -> float:
    if name == "lta":
        return common / (label_len - common + 1)
    if name == "wmr":
        return common / label_len
    if name == "jac":
        return common / (label_len + title_len - common)
    raise ValueError(name)


def brute_prune(pairs, k):
    """Group-preserving prune of (id, count) pairs; returns kept ids."""
    if len(pairs) <= k:
        return [item for item, _ in pairs]
    sizes = Counter(count for _, count in pairs)
    kept_counts: set[int] = set()
    cumulative = 0
    for count in sorted(sizes, reverse=True):
        kept_counts.add(count)
        cumulative += sizes[count]
        if cumulative >= k:
            break
    return [item for item, count in pairs if count in kept_counts]


@functools.cache
def _punctuation_chars() -> frozenset[str]:
    return frozenset(ch for ch in map(chr, range(sys.maxunicode + 1))
                     if unicodedata.category(ch).startswith("P"))


def brute_tokenize(text: str) -> list[str]:
    """The default tokenizer policy, one character at a time.

    NFC, whitespace split, lowercase, then punctuation (category P*)
    peeled off each end of the token a character at a time.
    """
    punctuation = _punctuation_chars()
    out = []
    for raw in unicodedata.normalize("NFC", text).split():
        chars = list(raw.lower())
        while chars and chars[0] in punctuation:
            chars.pop(0)
        while chars and chars[-1] in punctuation:
            chars.pop()
        if chars:
            out.append("".join(chars))
    return out


def brute_build(dataset: CuratedDataset) -> Model:
    """The model :func:`graphex.graph.build` must produce, one keyphrase at a time.

    Sorted texts and tokens give the string table and token ids; each
    leaf's keyphrases take ids in text order, and its CSR comes from one
    lexsort of (token, keyphrase) pairs.
    """
    leaf_ids = sorted(dataset.leaves)
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


def brute_recommend(
    dataset: CuratedDataset,
    leaf: int,
    title: str,
    k: int,
    align: str = "lta",
    max_predictions: int = 40,
    min_common_tokens: int = 1,
):
    """Full-scan reference recommender over the curated dataset.

    Never touches graphs, ids, or numpy: it intersects token sets for
    every keyphrase in the leaf, drops overlaps below
    ``min_common_tokens``, prunes count groups, and sorts by
    (align desc, canonical search desc, canonical recall asc, text asc).
    Returns (keyphrase, align, raw search, raw recall, position) tuples.
    """
    orientation = dataset.orientation
    title_tokens = set(tokenize(title))
    title_len = len(title_tokens)
    scored = []
    for kp in sorted(dataset.leaves.get(leaf, []), key=lambda kp: kp.text):
        kp_tokens = set(kp.text.split())
        common = len(kp_tokens & title_tokens)
        if common == 0 or common < min_common_tokens:
            continue
        scored.append((kp, common, len(kp_tokens)))
    kept_texts = set(brute_prune([(kp.text, common) for kp, common, _ in scored], k))
    survivors = [entry for entry in scored if entry[0].text in kept_texts]
    keyed = sorted(
        survivors,
        key=lambda entry: (
            -align_value(align, entry[1], entry[2], title_len),
            -orientation.canonical_search(entry[0].search_score),
            orientation.canonical_recall(entry[0].recall_score),
            entry[0].text,
        ),
    )
    out = []
    for position, (kp, common, label_len) in enumerate(keyed[:max_predictions], start=1):
        out.append(
            (
                kp.text,
                align_value(align, common, label_len, title_len),
                kp.search_score,
                kp.recall_score,
                position,
            )
        )
    return out


def predictions_as_tuples(predictions):
    return [(p.keyphrase, p.align, p.search, p.recall, p.position) for p in predictions]


def make_rows(
    rng: random.Random,
    n_keyphrases: int,
    vocab_size: int,
    leaf_ids,
    min_len: int = 1,
    max_len: int = 5,
    max_score: int = 1000,
) -> list[RawKeyphraseRow]:
    """Random well-formed rows; duplicates across rows are possible."""
    leaf_ids = list(leaf_ids)
    rows = []
    for _ in range(n_keyphrases):
        length = rng.randint(min_len, max_len)
        token_ids = rng.sample(range(vocab_size), length)
        text = " ".join(f"w{t}" for t in token_ids)
        rows.append(
            RawKeyphraseRow(
                keyphrase=text,
                leaf_category=rng.choice(leaf_ids),
                search_score=float(rng.randint(0, max_score)),
                recall_score=float(rng.randint(0, max_score)),
            )
        )
    return rows


def make_dataset(
    rng: random.Random,
    n_keyphrases: int,
    vocab_size: int,
    leaf_ids,
    orientation: ScoreOrientation = COUNT_ORIENTATION,
    **kwargs,
) -> CuratedDataset:
    rows = make_rows(rng, n_keyphrases, vocab_size, leaf_ids, **kwargs)
    return curate(rows, orientation=orientation, meta_category="synthetic")


def make_title(rng: random.Random, vocab_size: int, length: int, unknown_rate: float = 0.2) -> str:
    """Random title mixing in-vocabulary and unseen tokens, with repeats."""
    tokens = []
    for _ in range(length):
        if rng.random() < unknown_rate:
            tokens.append(f"zz{rng.randint(0, 10_000)}")
        else:
            tokens.append(f"w{rng.randint(0, vocab_size - 1)}")
    if length >= 3 and rng.random() < 0.3:
        tokens[-1] = tokens[0]
    return " ".join(tokens)


# ---------------------------------------------------------------------------
# Property checks, shared by the standalone property suite and the
# acceptance gate.  Each returns the number of cases it verified.


def check_lta_monotonicity(n_cases: int = 10_000, seed: int = 101) -> int:
    """At fixed keyphrase length, LTA strictly increases with the overlap."""
    rng = random.Random(seed)
    common, label_len = [], []
    for _ in range(n_cases):
        label_len.append(rng.randint(1, 60))
        common.append(rng.randint(1, label_len[-1]))
    common, label_len = np.array(common, dtype=np.int64), np.array(label_len, dtype=np.int64)
    score = Alignment.LTA.score_array(common, label_len, 0.0)
    assert (score > 0).all()
    partial = common < label_len
    grown = Alignment.LTA.score_array(common[partial] + 1, label_len[partial], 0.0)
    assert (grown > score[partial]).all()
    assert (score[~partial] == label_len[~partial]).all()  # full match peaks at |l|
    return len(score)


def _property_model(seed: int, n_keyphrases: int = 1500, vocab_size: int = 120):
    rng = random.Random(seed)
    dataset = make_dataset(rng, n_keyphrases, vocab_size, leaf_ids=[1, 2, 3])
    return rng, dataset, build(dataset)


def check_permutation_insensitivity(n_cases: int = 10_000, seed: int = 102) -> int:
    """Reordering or repeating title tokens never changes the output."""
    rng, _, model = _property_model(seed)
    vocab_size = 120
    checked = 0
    for _ in range(n_cases):
        leaf = rng.choice([1, 2, 3])
        tokens = make_title(rng, vocab_size, rng.randint(1, 10)).split()
        shuffled = tokens[:]
        rng.shuffle(shuffled)
        if rng.random() < 0.3:
            shuffled.append(rng.choice(shuffled))  # duplicate one token
        k = rng.randint(1, 12)
        align = rng.choice(list(Alignment))
        base = recommend(model, Query(" ".join(tokens), leaf, k), align=align)
        moved = recommend(model, Query(" ".join(shuffled), leaf, k), align=align)
        assert base == moved
        checked += 1
    return checked


def check_in_vocabulary_guarantee(n_cases: int = 10_000, seed: int = 103) -> int:
    """Predictions come from the queried leaf and overlap the title."""
    from graphex.vocab import tokenize as _tokenize

    rng, dataset, model = _property_model(seed)
    leaf_texts = {leaf: {kp.text for kp in group} for leaf, group in dataset.leaves.items()}
    leaf_tokens = {
        leaf: {tok for text in texts for tok in text.split()}
        for leaf, texts in leaf_texts.items()
    }
    checked = 0
    for _ in range(n_cases):
        leaf = rng.choice([1, 2, 3])
        title = make_title(rng, 120, rng.randint(1, 12), unknown_rate=0.3)
        preds = recommend(model, Query(title, leaf, rng.randint(1, 10)))
        title_set = set(_tokenize(title))
        for pred in preds:
            assert pred.keyphrase in leaf_texts[leaf]
            kp_tokens = set(pred.keyphrase.split())
            assert kp_tokens & title_set
            assert kp_tokens <= leaf_tokens[leaf]
        checked += 1
    return checked


def check_prune_group_rule(n_cases: int = 10_000, seed: int = 104) -> int:
    """Pruning matches the whole-group reference on random count lists."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(n_cases):
        n = rng.randint(0, 50)
        counts = [rng.randint(1, 9) for _ in range(n)]
        k = rng.randint(1, 15)
        pairs = list(enumerate(counts))
        expected = brute_prune(pairs, k)
        cutoff = _prune_cutoff(np.asarray(counts, dtype=np.int64), k)
        kept = [(i, c) for i, c in pairs if c >= cutoff]
        assert [i for i, _ in kept] == expected
        assert len(kept) >= min(k, n)
        kept_counts = {c for _, c in kept}
        dropped_counts = {c for _, c in pairs} - kept_counts
        if kept_counts:
            floor = min(kept_counts)
            assert all(d < floor for d in dropped_counts)
        else:
            assert not dropped_counts
        checked += 1
    return checked
