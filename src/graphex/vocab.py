"""Text normalization, tokenization, and the token id table.

Titles and keyphrases are compared as sets of normalized tokens, so the
whole pipeline funnels through one tokenizer.  Token ids are dense ints
held by an immutable :class:`Vocabulary`.
"""

from __future__ import annotations

import unicodedata
from typing import Iterable


def _strip_edge_punct(token: str) -> str:
    # Strip leading/trailing Unicode punctuation (category P*) only;
    # interior punctuation ("o'neill", "usb-c") is part of the token.
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


# The ASCII code points of category P*, for stripping ASCII tokens.
_ASCII_PUNCT = "".join(ch for ch in map(chr, range(128))
                       if unicodedata.category(ch).startswith("P"))


def tokenize(text: str) -> list[str]:
    """Split ``text`` into normalized tokens.

    The input is NFC-normalized and split on runs of whitespace; each
    piece is lowercased and stripped of edge punctuation.  Pieces that
    normalize to the empty string are dropped, so the result never
    contains empties.
    """
    if text.isascii():
        # ASCII text is already NFC, so the whole string is lowercased
        # and split once; when every piece is alphanumeric, none has
        # punctuation to strip.
        pieces = text.lower().split()
        if "".join(pieces).isalnum():
            return pieces
        return [tok for tok in (piece.strip(_ASCII_PUNCT) for piece in pieces) if tok]
    out: list[str] = []
    for raw in unicodedata.normalize("NFC", text).split():
        tok = raw.lower()
        # No alphanumeric code point is punctuation, so a clean token
        # skips the per-character scan.
        if not tok.isalnum():
            tok = _strip_edge_punct(tok)
        if tok:
            out.append(tok)
    return out


def unique_tokens(tokens: Iterable[str]) -> list[str]:
    """Collapse duplicates, keeping first-occurrence order."""
    return list(dict.fromkeys(tokens))


class Vocabulary:
    """Immutable token <-> dense id table.

    A token's id is its position in the ``surfaces`` the table is built
    from.  Tokens must be non-empty, contain no whitespace (they are
    already tokenized) and appear once each; the constructor raises
    ``ValueError`` otherwise.  Nothing changes after construction, so a
    vocabulary can be shared across threads freely.
    """

    __slots__ = ("_ids", "lookup")

    def __init__(self, surfaces: Iterable[str]) -> None:
        surfaces = list(surfaces)
        # Dict keys keep insertion order, which is id order, so the id dict
        # alone gives both directions; the list goes once it is checked.
        ids = {token: i for i, token in enumerate(surfaces)}
        for token in ids:
            if not token:
                raise ValueError("cannot intern an empty token")
            # No alphanumeric code point is whitespace, so a clean token
            # skips the scan.
            if not token.isalnum() and any(ch.isspace() for ch in token):
                raise ValueError(f"token contains whitespace: {token!r}")
        if len(ids) != len(surfaces):
            # A repeated token's dict entry holds its last position.
            repeated = next(t for i, t in enumerate(surfaces) if ids[t] != i)
            raise ValueError(f"duplicate token {repeated!r}")
        self._ids = ids
        # The id dict's own ``get``: ``lookup(token)`` returns the id, or
        # ``None`` for an unknown token, with no Python frame per call.
        self.lookup = ids.get

    def __len__(self) -> int:
        return len(self._ids)

    def surfaces(self) -> list[str]:
        """All token strings in id order (a copy)."""
        return list(self._ids)
