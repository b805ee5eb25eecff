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


ASCII_CASES = [
    "",
    "Red SHOE",
    "UPPER lower MiXeD 4K",
    "(Wireless) Headphones, USB-C! o'neill's",
    "...edge,, ,inner.dot's!? -- a-b_c {x} [y] @home #1 100% *star*",
    "$5 +tax <b> ^up `tick` |bar| ~wave =eq",
    "red\x0bshoe\x0cbig\x1cx\x1dy\x1ez\x1fw",
    "\x0b\x0c\x1c\x1d\x1e\x1f",
    " \t\n\r lead and trail \t ",
    "nul\x00inside \x01ctrl\x7f",
]


def test_tokenize_ascii_fast_path_matches_reference():
    # ASCII text is lowercased and split as one string; compare that
    # path with the per-character reference.
    ascii_chars = [chr(code) for code in range(128)]
    rng = random.Random(11)
    alphabet = "aZ9 " + "".join(ascii_chars)
    generated = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
                 for _ in range(3000)]
    cases = [*ASCII_CASES, " ".join(ascii_chars), " ".join(f"({ch}!" for ch in ascii_chars),
             " ".join(f"A{ch}b" for ch in ascii_chars), *generated]
    for text in cases:
        assert text.isascii()
        assert tokenize(text) == brute_tokenize(text), text


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
    assert vocab.surfaces() == ["gaming", "headphones", "xbox"]


def test_vocabulary_roundtrip_is_bijective():
    tokens = [f"t{i}" for i in range(100)]
    vocab = Vocabulary(tokens)
    surfaces = vocab.surfaces()
    for token in tokens:
        token_id = vocab.lookup(token)
        assert token_id is not None
        assert surfaces[token_id] == token


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


def test_from_surfaces_rebuilds_identical_table():
    vocab = Vocabulary(iter(["c", "a", "b"]))
    clone = Vocabulary(vocab.surfaces())
    assert clone.surfaces() == ["c", "a", "b"]
    assert [clone.lookup(t) for t in "cab"] == [0, 1, 2]


def test_from_surfaces_rejects_a_repeated_token():
    # A repeat would shift the id of every later token.
    with pytest.raises(ValueError, match="duplicate token 'b'"):
        Vocabulary(["a", "b", "c", "b"])
