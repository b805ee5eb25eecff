"""Seeded inputs for the benchmark: a keyphrase TSV and a pool of titles.

The keyphrase generator is the one the acceptance suite uses for its
250,000-keyphrase corpus (``tests/test_acceptance.py``): unique 4-token
keyphrases drawn 25% from a 100-token hot pool and 75% from a
100,000-token vocabulary.  With the default seeds the single-leaf corpus
is exactly the acceptance one, and the titles hold the acceptance
titles' tokens (in a fixed order rather than set order).  Leaf assignment and
title leaves come from their own random streams, so a multi-leaf corpus
holds the same keyphrase texts as the single-leaf one for the same seed.
"""

from __future__ import annotations

import random

ACCEPTANCE_CORPUS_SEED = 20260817
ACCEPTANCE_TITLE_SEED = 424242
SINGLE_LEAF_ID = 5000


def _hot_tokens(hot: int) -> list[str]:
    return [f"tok{i:05d}" for i in range(hot)]


def keyphrase_lines(
    seed: int, keyphrases: int, vocab: int, hot: int, leaves: int
) -> list[str]:
    """TSV rows ``keyphrase, leaf, search, recall``; every keyphrase unique.

    One leaf gets id ``SINGLE_LEAF_ID``; ``leaves > 1`` spreads rows
    uniformly over leaf ids ``0 .. leaves - 1``.
    """
    rng = random.Random(seed)
    leaf_rng = random.Random(f"leaves-{seed}")
    hot_tokens = _hot_tokens(hot)
    lines: list[str] = []
    seen: set[str] = set()
    while len(lines) < keyphrases:
        picked: set[str] = set()
        while len(picked) < 4:
            if rng.random() < 0.25:
                picked.add(hot_tokens[rng.randrange(hot)])
            else:
                picked.add(f"tok{rng.randrange(vocab):05d}")
        text = " ".join(sorted(picked))
        if text in seen:
            continue
        seen.add(text)
        search = rng.randint(1, 1_000_000)
        recall = rng.randint(1, 1_000_000)
        leaf = SINGLE_LEAF_ID if leaves == 1 else leaf_rng.randrange(leaves)
        lines.append(f"{text}\t{leaf}\t{search}\t{recall}\n")
    return lines


def titles(
    seed: int, count: int, vocab: int, hot: int, leaf_ids: list[int]
) -> list[tuple[str, int]]:
    """(title, leaf) pairs; a title has 2 hot, 11 cold and 2 unknown tokens.

    Each title goes to a uniformly chosen leaf of ``leaf_ids``.
    """
    rng = random.Random(seed)
    leaf_rng = random.Random(f"title-leaves-{seed}")
    hot_tokens = _hot_tokens(hot)
    out: list[tuple[str, int]] = []
    for _ in range(count):
        tokens: set[str] = set()
        while len(tokens) < 2:
            tokens.add(hot_tokens[rng.randrange(hot)])
        while len(tokens) < 13:
            tokens.add(f"tok{rng.randrange(vocab):05d}")
        # Sorted before the shuffle: set order varies with the hash seed,
        # and the same seed must give the same title strings.
        words = sorted(tokens) + [f"unk{rng.randrange(10_000)}" for _ in range(2)]
        rng.shuffle(words)
        out.append((" ".join(words), leaf_ids[leaf_rng.randrange(len(leaf_ids))]))
    return out
