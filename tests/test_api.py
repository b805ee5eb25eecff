from __future__ import annotations

import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

import graphex
from graphex import evaluation

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
    assert not hasattr(graphex.LeafGraph, "adjacency")
    assert not hasattr(graphex.Vocabulary, "surface")
    assert not hasattr(graphex.CuratedDataset, "num_keyphrases")


def field_names(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


def test_removed_fields_and_parameters_are_gone():
    # A batch result names its item; the item keeps its query.
    assert field_names(graphex.BatchResult) == ["item_id", "predictions", "error"]
    assert field_names(graphex.BatchItem) == ["item_id", "query"]
    # The eval report names the oracle once, not per judgment.
    assert field_names(evaluation.Judgment) == ["item_id", "keyphrase", "relevant"]
    assert list(inspect.signature(evaluation.relative_ratios).parameters) == [
        "run_a", "run_b", "judgment_map", "threshold"]
    assert list(inspect.signature(evaluation.HttpCompletionOracle).parameters) == ["url"]
    assert evaluation.COMPLETION_TIMEOUT_S == 30.0


README = Path(__file__).resolve().parent.parent / "README.md"

# Keyphrases for README's example query ("title text here", leaf 42):
# three share a token with it, one shares none, and one is in another leaf.
README_ROWS = (
    "title text\t42\t30\t2\n"
    "text here\t42\t20\t3\n"
    "title\t42\t10\t1\n"
    "other thing\t42\t50\t1\n"
    "title text here\t7\t90\t1\n"
)


def library_use_block() -> str:
    """The python block of README's "Library use" section."""
    match = re.search(r"^## Library use\n\n```python\n(.*?)^```$", README.read_text("utf-8"),
                      re.MULTILINE | re.DOTALL)
    assert match, "README has no python block under '## Library use'"
    return match.group(1)


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    (tmp_path / "rows.tsv").write_text(README_ROWS)
    monkeypatch.chdir(tmp_path)
    exec(compile(library_use_block(), str(README), "exec"), {"__name__": "__readme__"})
    lines = capsys.readouterr().out.splitlines()
    predictions = graphex.recommend(graphex.load("model.gex"),
                                    graphex.Query("title text here", 42, k=10))
    assert lines == [f"{p.position} {p.keyphrase} {p.align} {p.search} {p.recall}"
                     for p in predictions]
    assert sorted(p.keyphrase for p in predictions) == ["text here", "title", "title text"]
