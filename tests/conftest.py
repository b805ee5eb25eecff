from __future__ import annotations

import pytest

from graphex import curation, graph

# Pass/fail lines registered by the acceptance tests; echoed in the
# terminal summary so they are visible without -s.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

# The five-keyphrase leaf used across the suite: search scores are rank
# positions (1 = most searched), recall scores are rank positions too.
HEADPHONES_TSV = (
    "audeze maxwell\t42\t1\t5\n"
    "gaming headphones xbox\t42\t2\t4\n"
    "audeze headphones\t42\t3\t3\n"
    "wireless headphones xbox\t42\t4\t2\n"
    "bluetooth wireless headphones\t42\t5\t1\n"
)

HEADPHONES_LEAF = 42
HEADPHONES_TITLE = "Audeze Maxwell gaming headphones for Xbox"


@pytest.fixture
def headphones_rows(tmp_path) -> list[curation.RawKeyphraseRow]:
    path = tmp_path / "headphones.tsv"
    path.write_text(HEADPHONES_TSV)
    return list(curation.ingest(str(path)))


@pytest.fixture
def headphones_dataset(headphones_rows) -> curation.CuratedDataset:
    return curation.curate(
        headphones_rows,
        orientation=curation.RANK_ORIENTATION,
        meta_category="Headphones",
    )


@pytest.fixture
def headphones_model(headphones_dataset) -> graph.Model:
    return graph.build(headphones_dataset)
