"""Text normalization, tokenization, and the token id table.

Titles and keyphrases are compared as sets of normalized tokens, so the
whole pipeline funnels through one tokenizer.  Token ids are dense ints
handed out by a :class:`Vocabulary` that is mutable during model builds
and frozen before inference.
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


def tokenize(text: str) -> list[str]:
    """Split ``text`` into normalized tokens.

    The input is NFC-normalized and split on runs of whitespace; each
    piece is lowercased and stripped of edge punctuation.  Pieces that
    normalize to the empty string are dropped, so the result never
    contains empties.
    """
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
    """Bidirectional token <-> dense id table.

    Ids are assigned contiguously from 0 in insertion order.  The table is
    mutable while a model is being built (single writer) and must be
    frozen before it is shared with concurrent readers; after
    :meth:`freeze`, lookups of unknown tokens return ``None`` instead of
    allocating new ids.
    """

    __slots__ = ("_ids", "_surfaces", "_frozen")

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._surfaces: list[str] = []
        self._frozen = False

    def __len__(self) -> int:
        return len(self._surfaces)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> None:
        self._frozen = True

    def intern(self, token: str) -> int:
        """Return the id for ``token``, assigning the next free id if new.

        Only valid while the vocabulary is unfrozen.  Tokens must be
        non-empty and contain no whitespace (i.e. already tokenized).
        """
        if self._frozen:
            raise RuntimeError("cannot intern into a frozen vocabulary")
        if not token:
            raise ValueError("cannot intern an empty token")
        # No alphanumeric code point is whitespace, so a clean token skips
        # the scan.
        if not token.isalnum() and any(ch.isspace() for ch in token):
            raise ValueError(f"token contains whitespace: {token!r}")
        existing = self._ids.get(token)
        if existing is not None:
            return existing
        new_id = len(self._surfaces)
        self._ids[token] = new_id
        self._surfaces.append(token)
        return new_id

    def lookup(self, token: str) -> int | None:
        """Return the id for ``token``, or ``None`` if it was never interned."""
        return self._ids.get(token)

    def surface(self, token_id: int) -> str:
        """Return the token string for ``token_id``."""
        if not 0 <= token_id < len(self._surfaces):
            raise IndexError(f"token id out of range: {token_id}")
        return self._surfaces[token_id]

    def surfaces(self) -> list[str]:
        """All token strings in id order (a copy)."""
        return list(self._surfaces)

    @classmethod
    def from_surfaces(cls, surfaces: Iterable[str], frozen: bool = True) -> "Vocabulary":
        """Rebuild a vocabulary from an id-ordered token list (deserialization).

        Raises ``ValueError`` for a repeated token, which would shift the
        id of every later one.
        """
        vocab = cls()
        for token in surfaces:
            if token in vocab:
                raise ValueError(f"duplicate token {token!r}")
            vocab.intern(token)
        if frozen:
            vocab.freeze()
        return vocab
