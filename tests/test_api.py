from __future__ import annotations

import importlib

import pytest

import graphex

PUBLIC_NAMES = [
    "Alignment",
    "BatchItem",
    "BatchResult",
    "COUNT_ORIENTATION",
    "Candidate",
    "ChecksumError",
    "CuratedDataset",
    "IngestReport",
    "LeafGraph",
    "Model",
    "ModelFormatError",
    "NotAModelFileError",
    "Prediction",
    "Query",
    "RANK_ORIENTATION",
    "RawKeyphraseRow",
    "ScoreOrientation",
    "TruncatedModelError",
    "UnknownLeafError",
    "UnsupportedVersionError",
    "Vocabulary",
    "build",
    "curate",
    "enumerate_candidates",
    "ingest",
    "load",
    "recommend",
    "recommend_batch",
    "save",
    "tokenize",
    "unique_tokens",
]

# The plain-Python query pipeline and the tokenizer hook, which the
# vectorized pipeline and the one fixed tokenizer replace; the degree
# wrapper, whose counts the leaf graph already holds; the format version,
# which belongs to storage.
REMOVED = {
    "graphex": ["DegreeStats", "Normalizer", "dedupe_and_count", "degree_stats", "jac", "lta",
                "prune_by_count_groups", "rank", "wmr"],
    "graphex.inference": ["_check_common", "dedupe_and_count", "jac", "lta",
                          "prune_by_count_groups", "rank", "wmr"],
    "graphex.vocab": ["DEFAULT_NORMALIZER", "Normalizer", "Stemmer", "identity_stem"],
    "graphex.graph": ["DegreeStats", "FORMAT_VERSION", "KeyphraseRecord", "degree_stats"],
}


def test_public_names_are_pinned_and_resolve():
    assert len(PUBLIC_NAMES) == 31
    assert graphex.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(graphex, name) is not None


@pytest.mark.parametrize("module", sorted(REMOVED))
def test_removed_names_cannot_be_imported(module):
    loaded = importlib.import_module(module)
    for name in REMOVED[module]:
        assert not hasattr(loaded, name)


def test_removed_methods_are_gone():
    assert not hasattr(graphex.Alignment, "score")
    assert not hasattr(graphex.Candidate, "sort_key")
    assert not hasattr(graphex.Model, "keyphrase")
    assert not hasattr(graphex.Model, "keyphrases_in_leaf")
