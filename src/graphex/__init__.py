"""Keyphrase recommendation over per-category token-to-keyphrase graphs.

The package builds one bipartite graph per leaf category from curated
(keyphrase, category, search, recall) rows, serializes the result to a
compact versioned binary file, and answers title queries by counting
token overlaps along adjacency lists, scoring them with an alignment
function, and ranking with popularity tie-breaks.  An evaluation harness
judges competing prediction runs with pluggable relevance oracles.
"""

from __future__ import annotations

from .curation import (
    COUNT_ORIENTATION,
    RANK_ORIENTATION,
    CuratedDataset,
    IngestReport,
    RawKeyphraseRow,
    ScoreOrientation,
    curate,
    ingest,
)
from .graph import LeafGraph, Model, UnknownLeafError, build
from .inference import (
    Alignment,
    BatchItem,
    BatchResult,
    Candidate,
    Prediction,
    Query,
    enumerate_candidates,
    recommend,
    recommend_batch,
)
from .storage import (
    ChecksumError,
    ModelFormatError,
    NotAModelFileError,
    TruncatedModelError,
    UnsupportedVersionError,
    load,
    save,
)
from .vocab import Vocabulary, tokenize, unique_tokens

__version__ = "0.1.0"

__all__ = [
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
