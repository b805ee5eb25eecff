"""Smoke test of the benchmark on a tiny corpus (a few seconds per run).

    python -m pytest bench
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    for name, workload in list(run.WORKLOADS.items()):
        monkeypatch.setitem(run.WORKLOADS, name, dataclasses.replace(
            workload, keyphrases=3000, vocab=2000, leaves=min(workload.leaves, 5),
            pool=100, brute_checks=5))
    monkeypatch.setattr(run, "SETUP_REPS", 1)


def bench(capsys, *args: str) -> tuple[int, list[str], dict]:
    code = run.main(["--seconds", "2", *args])
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


def context(lines: list[str]) -> dict:
    (line,) = [line for line in lines if line.startswith("context ")]
    return json.loads(line[len("context "):])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(capsys, trace, kind):
    code, lines, result = bench(capsys, "--workload", "many_leaves", "--seed", "1",
                                "--trace", str(trace))
    assert code == 0
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] > 0
    units = {metric["name"]: metric["unit"] for metric in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("fail_frac 0 ratio") for line in lines)
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_prediction_counts_as_failed(capsys, monkeypatch):
    real = run.recommend
    calls = []

    def corrupt_first(model, query, *args, **kwargs):
        predictions = real(model, query, *args, **kwargs)
        if not calls:
            predictions[0] = dataclasses.replace(predictions[0], keyphrase="corrupted")
        calls.append(query)
        return predictions

    monkeypatch.setattr(run, "recommend", corrupt_first)
    code, lines, result = bench(capsys, "--workload", "big_leaf", "--seed", "1")
    assert code == 1
    assert (result["correct"], result["failed"]) == (False, 1)
    (line,) = [line for line in lines if line.startswith("fail_frac ")]
    assert float(line.split()[1]) == pytest.approx(1 / result["attempted"], rel=1e-5)


def test_seed_changes_inputs_but_not_metric_names(capsys):
    assert corpus.keyphrase_lines(5, 500, 300, 10, 3) == corpus.keyphrase_lines(5, 500, 300, 10, 3)
    assert corpus.titles(5, 50, 300, 10, [1, 2]) == corpus.titles(5, 50, 300, 10, [1, 2])
    _, lines_1, result_1 = bench(capsys, "--workload", "big_leaf", "--seed", "1")
    _, lines_2, result_2 = bench(capsys, "--workload", "big_leaf", "--seed", "2")
    assert context(lines_1)["corpus"]["model_crc"] != context(lines_2)["corpus"]["model_crc"]
    assert result_1["metrics"].keys() == result_2["metrics"].keys()
