"""Seeded fuzz suite for the model file reader.

Each case mutates a valid 300-keyphrase, 3-leaf model file and, for
mutations inside the body, recomputes the checksum so the mutation
reaches the structural checks.  Loading the result must raise
``ModelFormatError``, or give a model that answers a query on every leaf
under every alignment, and every ``kp_text``, without an exception.
Seeds are fixed: failures reproduce deterministically.
"""

from __future__ import annotations

import random
import struct

from graphex.curation import COUNT_ORIENTATION, curate
from graphex.graph import build
from graphex.inference import Alignment, Query, recommend
from graphex.storage import ModelFormatError, from_bytes, to_bytes

from helpers import HEADER_SIZE, make_rows, reseal, type_code_offsets

N_CASES = 4000
# Integers that sit on a type's edge, written over counts, offsets and ids.
EDGE_INTEGERS = (0, 1, 2, 255, 256, 65_535, 65_536, 2**31, 2**32 - 1)


def fuzz_model_bytes() -> bytes:
    rows = make_rows(random.Random(71), 300, 90, [1, 2, 3])
    # Recall scores off the float32 grid, so both float type codes occur.
    rows = [row._replace(recall_score=row.recall_score + 0.1) for row in rows]
    return to_bytes(build(curate(rows, orientation=COUNT_ORIENTATION)))


def mutate(rng: random.Random, data: bytes) -> bytes:
    """One random edit of ``data``; body edits are resealed with a fresh CRC."""
    buf = bytearray(data)
    (body_end,) = struct.unpack_from("<Q", buf, 8)
    kind = rng.choice(("byte", "type code", "u32", "u64", "span", "header"))
    if kind == "byte":
        buf[rng.randrange(HEADER_SIZE, body_end)] = rng.randrange(256)
    elif kind == "type code":
        buf[rng.choice(type_code_offsets(buf))] = rng.choice((*range(8), 255))
    elif kind == "u32":
        at = rng.randrange(HEADER_SIZE, body_end - 3)
        struct.pack_into("<I", buf, at, rng.choice(EDGE_INTEGERS))
    elif kind == "u64":
        at = rng.randrange(HEADER_SIZE, body_end - 7)
        struct.pack_into("<Q", buf, at, rng.choice(EDGE_INTEGERS))
    elif kind == "span":
        # Cut out or repeat a span of the body; the body end moves with it.
        lo = rng.randrange(HEADER_SIZE, body_end)
        hi = min(body_end, lo + rng.randint(1, 16))
        if rng.random() < 0.5:
            del buf[lo:hi]
            body_end -= hi - lo
        else:
            buf[lo:lo] = buf[lo:hi]
            body_end += hi - lo
        struct.pack_into("<Q", buf, 8, body_end)
    else:
        # The header is outside the checksum: move the body end.
        struct.pack_into("<Q", buf, 8, rng.randrange(body_end + 16))
        return bytes(buf)
    return reseal(buf)


def answer_everything(model) -> None:
    for kp_id in range(model.num_keyphrases):
        model.kp_text(kp_id)
    surfaces = model.vocabulary.surfaces()
    title = " ".join(surfaces[:: max(1, len(surfaces) // 6)])
    for leaf in model.leaf_categories:
        for align in Alignment:
            recommend(model, Query(title, leaf, 5), align=align)


def test_mutated_model_files_fail_to_load_or_answer():
    data = fuzz_model_bytes()
    rng = random.Random(73)
    rejected = loaded = 0
    for _ in range(N_CASES):
        try:
            model = from_bytes(mutate(rng, data))
        except ModelFormatError:
            rejected += 1
            continue
        answer_everything(model)
        loaded += 1
    # Both outcomes occur, so neither half of the check is vacuous.
    assert rejected > N_CASES // 4 and loaded > N_CASES // 10, (rejected, loaded)
