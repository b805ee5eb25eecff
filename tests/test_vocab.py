from __future__ import annotations

import random
import sys
import unicodedata

import pytest

from graphex.vocab import Vocabulary, tokenize, unique_tokens

from helpers import brute_tokenize

EVERY_CHAR = [chr(code) for code in range(sys.maxunicode + 1)]


def test_tokenize_lowercases_and_splits_whitespace_runs():
    assert tokenize("Audeze Maxwell  gaming\theadphones") == [
        "audeze", "maxwell", "gaming", "headphones",
    ]


def test_tokenize_strips_edge_punctuation_only():
    assert tokenize("(wireless) headphones, usb-c!") == ["wireless", "headphones", "usb-c"]
    assert tokenize("'quoted' o'neill") == ["quoted", "o'neill"]


def test_tokenize_drops_tokens_that_normalize_to_empty():
    assert tokenize("... headphones !!!") == ["headphones"]
    assert tokenize("") == []
    assert tokenize(" \t \n ") == []


def test_tokenize_applies_nfc_normalization():
    composed = "café"
    decomposed = "café"
    assert tokenize(composed) == tokenize(decomposed)


def test_tokenize_idempotent_on_random_strings():
    rng = random.Random(7)
    alphabet = "abcXYZ09 .,!()'\t-é"
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once


def _first_difference(got: list[str], expected: list[str]):
    if len(got) != len(expected):
        return f"{len(got)} tokens, expected {len(expected)}"
    return next(((a, b) for a, b in zip(got, expected) if a != b), None)


def test_tokenize_fast_path_matches_reference_for_every_code_point():
    # Clean alphanumeric tokens skip edge stripping; the tokenizer must
    # agree with the per-character reference for every code point, alone
    # and wrapped in punctuation.
    bare = " ".join(EVERY_CHAR)
    expected = brute_tokenize(bare)
    assert _first_difference(tokenize(bare), expected) is None
    wrapped = " ".join(f"({ch}!" for ch in EVERY_CHAR)
    assert _first_difference(tokenize(wrapped), brute_tokenize(wrapped)) is None


def test_no_alphanumeric_code_point_is_punctuation_or_whitespace():
    # The tokenizer's and the Vocabulary constructor's fast paths rest on this.
    assert [ch for ch in EVERY_CHAR if ch.isalnum()
            and (ch.isspace() or unicodedata.category(ch).startswith("P"))] == []
    for ch in EVERY_CHAR:
        if ch.isspace():
            with pytest.raises(ValueError, match="whitespace"):
                Vocabulary(["ok", f"a{ch}b"])


def test_unique_tokens_keeps_first_occurrence_order():
    assert unique_tokens(["b", "a", "b", "c", "a"]) == ["b", "a", "c"]
    assert unique_tokens([]) == []


def test_vocabulary_assigns_dense_ids_in_insertion_order():
    vocab = Vocabulary(["gaming", "headphones", "xbox"])
    ids = [vocab.lookup(t) for t in ["gaming", "headphones", "gaming", "xbox"]]
    assert ids == [0, 1, 0, 2]
    assert len(vocab) == 3
    assert [vocab.surface(i) for i in range(3)] == ["gaming", "headphones", "xbox"]


def test_vocabulary_roundtrip_is_bijective():
    tokens = [f"t{i}" for i in range(100)]
    vocab = Vocabulary(tokens)
    for token in tokens:
        token_id = vocab.lookup(token)
        assert token_id is not None
        assert vocab.surface(token_id) == token


def test_vocabulary_rejects_empty_and_whitespace_tokens():
    with pytest.raises(ValueError, match="empty"):
        Vocabulary(["a", ""])
    with pytest.raises(ValueError, match="whitespace"):
        Vocabulary(["two words"])
    with pytest.raises(ValueError, match="whitespace"):
        Vocabulary(["tab\tbed"])


def test_frozen_vocabulary_rejects_writes_and_reports_absent():
    # Immutable from construction: neither the caller's list nor the
    # copy surfaces() returns can change the table.
    tokens = ["known"]
    vocab = Vocabulary(tokens)
    tokens.append("later")
    vocab.surfaces().append("other")
    assert vocab.surfaces() == ["known"]
    assert vocab.lookup("known") == 0
    assert vocab.lookup("later") is None
    assert vocab.lookup("unknown") is None
    for name in ("intern", "freeze", "frozen", "from_surfaces"):
        assert not hasattr(Vocabulary, name)


def test_vocabulary_surface_rejects_out_of_range_ids():
    vocab = Vocabulary(["only"])
    with pytest.raises(IndexError):
        vocab.surface(1)
    with pytest.raises(IndexError):
        vocab.surface(-1)


def test_from_surfaces_rebuilds_identical_table():
    vocab = Vocabulary(iter(["c", "a", "b"]))
    clone = Vocabulary(vocab.surfaces())
    assert clone.surfaces() == ["c", "a", "b"]
    assert [clone.lookup(t) for t in "cab"] == [0, 1, 2]


def test_from_surfaces_rejects_a_repeated_token():
    # A repeat would shift the id of every later token.
    with pytest.raises(ValueError, match="duplicate token 'b'"):
        Vocabulary(["a", "b", "c", "b"])
