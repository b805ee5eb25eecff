"""Independent reference implementations and data generators for tests.

Everything here recomputes expected values from first principles (dicts,
sets, full scans) so the production code's count arrays, CSR graphs, and
vectorized scoring can be checked against a second opinion.
"""

from __future__ import annotations

import functools
import random
import struct
import sys
import unicodedata
import zlib
from collections import Counter

import numpy as np

from graphex.curation import (
    COUNT_ORIENTATION,
    CuratedDataset,
    RawKeyphraseRow,
    ScoreOrientation,
    curate,
)
from graphex.graph import LeafGraph, Model, StringTable, UnknownLeafError, build
from graphex.inference import (
    Alignment,
    BatchItem,
    Query,
    _gather,
    _prune_cutoff,
    _runs,
    recommend,
    recommend_batch,
)
from graphex.storage import from_bytes, to_bytes
from graphex.vocab import Vocabulary, tokenize, unique_tokens


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

    Sorted tokens give the token ids; each leaf's keyphrases take ids in
    text order, each keyphrase id keeps its own text, and each leaf's CSR
    comes from one lexsort of (token, keyphrase) pairs.
    """
    leaf_ids = sorted(dataset.leaves)
    vocabulary = Vocabulary(sorted(
        {tok for leaf in leaf_ids for kp in dataset.leaves[leaf] for tok in kp.text.split()}))
    lookup = vocabulary.lookup

    orientation = dataset.orientation
    texts: list[str] = []
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
            texts.append(kp.text)
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
        kp_texts=StringTable(texts),
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


def reference_candidates(model: Model, query: Query, min_common_tokens: int | None = None):
    """What ``inference._candidates`` must return, counting every gathered id.

    Every run of the sorted gathered ids is counted, then the
    ``min_common_tokens`` floor and the whole-group prune apply, however
    many of the candidates share one title token only.
    """
    graph = model.leaf(query.leaf_category)
    tokens = unique_tokens(tokenize(query.title))
    kp_ids, counts = _runs(_gather(model, graph, tokens))
    if min_common_tokens is not None and min_common_tokens > 1:
        keep = counts >= min_common_tokens
        kp_ids, counts = kp_ids[keep], counts[keep]
    cutoff = _prune_cutoff(counts, query.k)
    if cutoff > 1:
        keep = counts >= cutoff
        kp_ids, counts = kp_ids[keep], counts[keep]
    return kp_ids, counts, len(tokens)


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
# Format version 6 layout, read back by a parser independent of storage.py.

HEADER_SIZE = 16
# The type code before each array stored in the narrowest type that holds
# its values.
TYPE_CODES = {1: "<u1", 2: "<u2", 3: "<u4", 4: "<u8", 5: "<f4", 6: "<f8"}


def _walk(buf):
    """Section offsets, keyphrase arrays and leaf blocks of a file, in file order."""
    pos = HEADER_SIZE

    def take(count, dtype="<u4", coded=False):
        nonlocal pos
        code_at = None
        if coded:
            code_at = pos
            dtype = TYPE_CODES[buf[pos]]
            pos += 1
        pos += -pos % 8
        start = pos
        pos += count * np.dtype(dtype).itemsize
        return start, np.frombuffer(buf, dtype=dtype, count=count, offset=start), code_at

    offsets = [pos]
    (label_len,) = struct.unpack_from("<I", buf, pos)
    pos += 4 + label_len + 2  # label, orientation flags
    for _ in range(2):  # vocabulary, string table: count, byte length, blob
        offsets.append(pos)
        (count,) = struct.unpack_from("<I", buf, pos)
        pos += 12 + struct.unpack_from("<Q", buf, pos + 4)[0]
    offsets.append(pos)
    # The string table's entry count is the keyphrase count.
    arrays = {name: take(count, coded=True) for name in ("kp_search", "kp_recall")}
    offsets.append(pos)
    (leaf_count,) = struct.unpack_from("<I", buf, pos)
    pos += 4
    leaves = []
    for _ in range(leaf_count):
        pos += -pos % 8
        start = pos
        leaf_id, _, rows = struct.unpack_from("<qII", buf, pos)  # id, keyphrases, rows
        pos += 16
        token_rows = take(rows)
        row_offsets = take(rows + 1, coded=True)
        leaves.append({
            "start": start, "leaf_id": leaf_id, "num_kp_at": start + 8,
            "token_rows": token_rows, "offsets": row_offsets,
            "edges": take(int(row_offsets[1][-1])),
        })
    offsets.append(struct.unpack_from("<Q", buf, 8)[0])
    return offsets, arrays, leaves


def section_offsets(buf):
    """Starts of the meta, vocabulary, string table, score and leaf sections, and the body end.

    The header stores only the body end; the rest are found by walking the body.
    """
    return _walk(buf)[0]


def parse_layout(buf):
    """Array views (writable over a bytearray) and leaf block spans of a file.

    Returns ``(arrays, leaves)``: ``arrays`` maps keyphrase array names to
    ``(byte offset, view, type code offset)``; ``leaves`` holds one dict
    per leaf block with its ``start``, leaf id, where its keyphrase count
    sits and its arrays in the same form.  The type code offset is None
    for the arrays that are always u32 and have no code.
    """
    return _walk(buf)[1:]


def type_code_offsets(buf) -> list[int]:
    """Byte offsets of every type code in a model file."""
    arrays, leaves = parse_layout(buf)
    entries = [*arrays.values(), *(leaf["offsets"] for leaf in leaves)]
    return [code_at for _, _, code_at in entries]


def reseal(buf) -> bytes:
    """Recompute the body CRC after an edit, so only the edit is wrong."""
    (body_end,) = struct.unpack_from("<Q", buf, 8)
    struct.pack_into("<I", buf, body_end, zlib.crc32(bytes(buf[HEADER_SIZE:body_end])))
    return bytes(buf)


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


# Tokens of the dense-leaf corpora: ASCII and not, all already in the
# tokenizer's normal form (NFC, lowercase, no edge punctuation).
_DENSE_TOKENS = (
    [f"w{i}" for i in range(16)]
    + ["café", "größe", "naïve", "straße", "ñu", "øre", "żółw", "açaí", "日本", "東京", "ядро", "κύμα"]
)


def _dense_corpus(rng: random.Random):
    """Two dense leaves over a small vocabulary, curated with random scores.

    In leaf 1 a hub token is in every keyphrase, the hub alone being the
    leaf's one-token keyphrase.  Leaf 2 holds every vocabulary token as a
    one-token keyphrase, and a second hub is in nine of ten of its longer
    keyphrases, so its degree is near the leaf's size.
    """
    vocab = rng.sample(_DENSE_TOKENS, rng.randint(8, len(_DENSE_TOKENS)))
    hub, near_hub = vocab[:2]
    others = vocab[2:]
    texts = {1: {hub}, 2: set(others)}
    for _ in range(rng.randint(60, 240)):
        texts[1].add(" ".join([hub] + rng.sample(others, rng.randint(1, 4))))
        tokens = rng.sample(others, rng.randint(1, 4))
        if rng.random() < 0.9:
            tokens.append(near_hub)
        texts[2].add(" ".join(tokens))
    rows = [
        RawKeyphraseRow(text, leaf, float(rng.randint(0, 5)), float(rng.randint(0, 5)))
        for leaf in (1, 2) for text in sorted(texts[leaf])
    ]
    return vocab, curate(rows, orientation=COUNT_ORIENTATION)


def check_dense_leaf_equivalence(
    n_cases: int = 10_000, seed: int = 105, cases_per_corpus: int = 250
) -> int:
    """``recommend`` equals the full-scan reference on dense leaves.

    Titles mix hub tokens, non-ASCII and capitalised tokens, repeats and
    unknown tokens; ``k`` runs over 1..15 and ``min_common_tokens`` over
    None, 2 and 3.  Both counting paths must be exercised: titles where at
    least ``k`` keyphrases share two or more tokens, and titles where
    fewer do.
    """
    rng = random.Random(seed)
    checked = 0
    dense = sparse = 0
    while checked < n_cases:
        vocab, dataset = _dense_corpus(rng)
        model = build(dataset)
        token_sets = {
            leaf: [set(kp.text.split()) for kp in group] for leaf, group in dataset.leaves.items()
        }
        for _ in range(min(cases_per_corpus, n_cases - checked)):
            leaf = rng.choice([1, 2])
            tokens = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
            if rng.random() < 0.6:
                tokens.append(vocab[leaf - 1])  # the leaf's hub
            if rng.random() < 0.3:
                tokens.append(f"zz{rng.randint(0, 99)}")
            tokens = [tok.capitalize() if rng.random() < 0.2 else tok for tok in tokens]
            rng.shuffle(tokens)
            title = " ".join(tokens)
            k = rng.randint(1, 15)
            min_common = rng.choice([None, 2, 3])
            align = rng.choice(list(Alignment))
            got = predictions_as_tuples(recommend(
                model, Query(title, leaf, k), align=align, min_common_tokens=min_common
            ))
            expected = brute_recommend(dataset, leaf, title, k, align=align.value,
                                       min_common_tokens=min_common or 1)
            assert got == expected, (title, leaf, k, min_common, align)
            title_set = set(tokenize(title))
            repeated = sum(len(kp & title_set) >= 2 for kp in token_sets[leaf])
            if repeated >= k:
                dense += 1
            else:
                sparse += 1
            checked += 1
    assert min(dense, sparse) >= n_cases // 10, (dense, sparse)
    return checked


def _empty_leaf_corpus(rng: random.Random):
    """A multi-leaf dataset, some of whose leaves are empty or gone.

    Texts come from one small pool, so most repeat across leaves.  Every
    row of the "curated away" leaves is below the ``min_search``
    threshold, so curation drops those leaves entirely; up to three leaf
    ids, interleaved with the others, are then added by hand with an
    empty keyphrase list.  Returns the vocabulary size, the dataset and
    the populated, empty and curated-away leaf ids.
    """
    vocab_size = rng.randint(6, 30)
    pool = [" ".join(f"w{t}" for t in rng.sample(range(vocab_size), rng.randint(1, 4)))
            for _ in range(rng.randint(4, 30))]
    ids = rng.sample(range(-20, 40), rng.randint(4, 10))
    n_away = rng.randint(1, 2)
    away, leaf_ids = ids[:n_away], ids[n_away:]
    empty = leaf_ids[:rng.randint(0, 3)]
    rows = [
        RawKeyphraseRow(rng.choice(pool), leaf,
                        float(rng.randint(0, 9) if leaf in away else rng.randint(10, 99)),
                        float(rng.randint(0, 99)))
        for leaf in leaf_ids[len(empty):] + away for _ in range(rng.randint(1, 25))
    ]
    curated = curate(rows, min_search=10, orientation=COUNT_ORIENTATION, meta_category="e")
    assert not curated.leaves.keys() & set(away)
    leaves = {**curated.leaves, **{leaf: [] for leaf in empty}}
    dataset = CuratedDataset(curated.meta_category, curated.orientation, leaves, curated.stats)
    return vocab_size, dataset, sorted(curated.leaves), empty, away


def check_empty_leaf_equivalence(
    n_cases: int = 10_000, seed: int = 106, cases_per_corpus: int = 100
) -> int:
    """Empty and curated-away leaves answer as the full scan says they should.

    On random multi-leaf corpora (:func:`_empty_leaf_corpus`) a populated
    leaf's answers equal :func:`brute_recommend`, a leaf with an empty
    keyphrase list answers ``[]``, and a leaf curated away raises
    :class:`UnknownLeafError`, both from the built model and from the one
    its file loads to; writing the loaded model gives the same bytes, and
    a batch over the loaded model answers each query as ``recommend``.
    Corpora where a text sits in two leaves must occur.
    """
    rng = random.Random(seed)
    checked = corpora = repeats = 0
    seen = Counter()
    while checked < n_cases:
        vocab_size, dataset, populated, empty, away = _empty_leaf_corpus(rng)
        model = build(dataset)
        data = to_bytes(model)
        loaded = from_bytes(data)
        assert to_bytes(loaded) == data
        texts = [kp.text for group in dataset.leaves.values() for kp in group]
        corpora += 1
        repeats += len(texts) > len(set(texts))
        items = []
        for _ in range(min(cases_per_corpus, n_cases - checked)):
            kind, leaf = rng.choice(
                [("populated", leaf) for leaf in populated]
                + [("empty", leaf) for leaf in empty] + [("away", leaf) for leaf in away])
            query = Query(make_title(rng, vocab_size, rng.randint(1, 8)), leaf, rng.randint(1, 12))
            items.append(BatchItem(str(len(items)), query))
            align = rng.choice(list(Alignment))
            min_common = rng.choice([None, 2])
            if kind == "away":
                for candidate in (model, loaded):
                    try:
                        recommend(candidate, query, align=align, min_common_tokens=min_common)
                    except UnknownLeafError:
                        pass
                    else:
                        raise AssertionError(f"leaf {leaf} was curated away but answered")
            else:
                got = recommend(model, query, align=align, min_common_tokens=min_common)
                assert recommend(loaded, query, align=align, min_common_tokens=min_common) == got
                expected = brute_recommend(dataset, leaf, query.title, query.k,
                                           align=align.value, min_common_tokens=min_common or 1)
                assert predictions_as_tuples(got) == expected, (query, align, min_common)
                assert kind == "populated" or got == []
            seen[kind] += 1
            checked += 1
        for item, result in zip(items, recommend_batch(loaded, items)):
            if item.query.leaf_category in away:
                assert result.error == f"unknown leaf category: {item.query.leaf_category}"
            else:
                assert result.error is None
                assert result.predictions == recommend(loaded, item.query)
    assert len(seen) == 3 and min(seen.values()) >= n_cases // 10, seen
    assert repeats >= corpora // 2, (repeats, corpora)
    return checked
