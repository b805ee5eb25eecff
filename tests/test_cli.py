from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

import graphex
from graphex import cli, curation, evaluation, storage
from graphex.cli import main
from graphex.graph import UnknownLeafError
from graphex.inference import Query, predictions_to_dicts, recommend, recommend_batch

from conftest import HEADPHONES_TSV, HEADPHONES_TITLE


@pytest.fixture
def model_path(tmp_path):
    tsv = tmp_path / "kp.tsv"
    tsv.write_text(HEADPHONES_TSV)
    out = tmp_path / "model.gex"
    code = main([
        "train", "--input", str(tsv), "--output", str(out),
        "--score-orientation", "rank", "--meta-category", "Headphones",
    ])
    assert code == 0
    return str(out)


def test_train_reports_counts(tmp_path, capsys):
    tsv = tmp_path / "kp.tsv"
    tsv.write_text(HEADPHONES_TSV)
    out = tmp_path / "model.gex"
    code = main(["train", "--input", str(tsv), "--output", str(out),
                 "--score-orientation", "rank"])
    captured = capsys.readouterr()
    assert code == 0
    assert "rows: 5 ok, 0 malformed" in captured.out
    assert "1 leaves, 7 tokens, 13 edges, 5 keyphrases" in captured.out
    assert out.exists()


def test_train_last_line_splits_the_time_by_stage(tmp_path, capsys):
    tsv = tmp_path / "kp.tsv"
    tsv.write_text(HEADPHONES_TSV)
    out = tmp_path / "model.gex"
    assert main(["train", "--input", str(tsv), "--output", str(out)]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    match = re.fullmatch(r"wrote (.+) \((\d+) bytes\) in (\d+\.\d\d)s "
                         r"\(read\+curate (\d+\.\d\d)s, build (\d+\.\d\d)s, "
                         r"save (\d+\.\d\d)s\)", last)
    assert match, last
    assert match[1] == str(out) and int(match[2]) == out.stat().st_size
    total, *stages = map(float, match.groups()[2:])
    # Each figure is rounded to 0.01 s, and the stages leave out the
    # time spent printing row errors and warnings.
    assert sum(stages) <= total + 0.02


def test_train_writes_the_same_bytes_under_any_hash_seed(tmp_path):
    # Set and dict order vary with PYTHONHASHSEED; none of it may reach
    # the model file.
    rng = random.Random(5)
    words = ["red", "Shoe", "café", "東京", "o'neill", "usb-c", *(f"w{i}" for i in range(40))]
    tsv = tmp_path / "kp.tsv"
    tsv.write_text("".join(
        f"{' '.join(rng.choices(words, k=rng.randint(1, 5)))}\t{rng.randint(-3, 20)}"
        f"\t{rng.randint(0, 99)}\t{rng.randint(0, 99)}\n" for _ in range(600)), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(graphex.__file__))
    models = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"model-{hash_seed}.gex"
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        subprocess.run([sys.executable, "-m", "graphex.cli", "train", "--input", str(tsv),
                        "--output", str(out)], env=env, check=True, capture_output=True,
                       timeout=60)
        models.append(out.read_bytes())
    assert models[0] == models[1]


def test_train_missing_input_exits_2(tmp_path, capsys):
    code = main(["train", "--input", str(tmp_path / "absent.tsv"),
                 "--output", str(tmp_path / "m.gex")])
    assert code == 2
    assert "absent.tsv" in capsys.readouterr().err


def test_train_reports_malformed_rows_with_line_numbers(tmp_path, capsys):
    tsv = tmp_path / "kp.tsv"
    tsv.write_text("fine phrase\t1\t5\t5\nbroken row\t1\t5\nother\t2\t9\t9\n")
    code = main(["train", "--input", str(tsv), "--output", str(tmp_path / "m.gex")])
    captured = capsys.readouterr()
    assert code == 0
    assert "rows: 2 ok, 1 malformed" in captured.out
    assert ":2:" in captured.err


@pytest.mark.parametrize("first, ok, malformed, message", [
    ("three\tcolumns\tonly", 1, 1, "expected 4 tab-separated columns, got 3"),
    ("five\t1\t2\t3\t4", 1, 1, "expected 4 tab-separated columns, got 5"),
    ("much searched\t1\tlots\t3", 1, 1, "could not convert string to float: 'lots'"),
    ("keyphrase\tleaf_category\tsearch_score\trecall_score", 1, 0, None),
    ("first row\t1\t2\t3", 2, 0, None),
])
def test_train_first_line_is_a_header_only_without_numbers(
    first, ok, malformed, message, tmp_path, capsys
):
    tsv = tmp_path / "kp.tsv"
    tsv.write_text(f"{first}\nred shoe\t1\t5\t5\n")
    assert main(["train", "--input", str(tsv), "--output", str(tmp_path / "m.gex")]) == 0
    captured = capsys.readouterr()
    assert f"rows: {ok} ok, {malformed} malformed" in captured.out
    assert captured.err == ("" if message is None else f"{tsv}:1: {message}\n")


def test_train_skips_a_row_with_invalid_utf8(tmp_path, capsys):
    tsv = tmp_path / "kp.tsv"
    tsv.write_bytes(b"red shoe\t1\t5\t5\r\nbad \xff row\t1\t5\t5\r\nblue hat\t2\t9\t9\r\n")
    out = tmp_path / "m.gex"
    code = main(["train", "--input", str(tsv), "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "rows: 2 ok, 1 malformed" in captured.out
    assert f"{tsv}:2: invalid UTF-8 byte 0xff at column 5" in captured.err
    assert storage.load(str(out)).kp_texts == ["blue hat", "red shoe"]


def test_train_leaf_id_outside_int64_is_a_malformed_row(tmp_path, capsys):
    tsv = tmp_path / "kp.tsv"
    tsv.write_text(f"fine phrase\t{2**63 - 1}\t5\t5\nhuge leaf\t{2**63}\t5\t5\n")
    out = tmp_path / "m.gex"
    code = main(["train", "--input", str(tsv), "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "rows: 1 ok, 1 malformed" in captured.out
    assert ":2:" in captured.err and "64-bit" in captured.err
    assert storage.load(str(out)).leaf_categories == [2**63 - 1]


def test_train_filtering_everything_warns_but_succeeds(tmp_path, capsys):
    tsv = tmp_path / "kp.tsv"
    tsv.write_text("a phrase\t1\t5\t5\n")
    out = tmp_path / "m.gex"
    code = main(["train", "--input", str(tsv), "--output", str(out),
                 "--min-search-count", "100"])
    captured = capsys.readouterr()
    assert code == 0
    assert "warning" in captured.err.lower()
    assert out.exists()
    assert "0 keyphrases" in captured.out


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["train", "--input", "x.tsv"])  # --output missing
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2


def test_infer_writes_expected_jsonl(model_path, tmp_path):
    items = tmp_path / "items.tsv"
    items.write_text(
        f"i1\t{HEADPHONES_TITLE}\t42\n"
        "i2\tnothing in common here\t42\n"
        "i3\tsome title\t99\n"
        "i4\tbroken line\n"
    )
    out = tmp_path / "preds.jsonl"
    code = main(["infer", "--model", model_path, "--items", str(items),
                 "--k", "5", "--output", str(out)])
    assert code == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [row["item_id"] for row in rows] == ["i1", "i2", "i3", "i4"]
    assert [p["keyphrase"] for p in rows[0]["predictions"]] == [
        "gaming headphones xbox",
        "audeze maxwell",
        "audeze headphones",
        "wireless headphones xbox",
        "bluetooth wireless headphones",
    ]
    first = rows[0]["predictions"][0]
    assert set(first) == {"keyphrase", "align", "search", "recall"}
    assert first["align"] == 3.0
    assert rows[1]["predictions"] == []
    assert "error" not in rows[1]
    assert "unknown leaf" in rows[2]["error"]
    assert "columns" in rows[3]["error"]


def test_infer_writes_an_error_row_for_a_line_with_invalid_utf8(model_path, tmp_path):
    items = tmp_path / "items.tsv"
    items.write_bytes(
        f"i1\t{HEADPHONES_TITLE}\t42\n".encode()
        + b"i2\tbad \xe9 title\t42\n"
        + b"\xffid\ttitle\t42\r\n"
        + b"i4\taudeze\t42\n"
    )
    out = tmp_path / "preds.jsonl"
    code = main(["infer", "--model", model_path, "--items", str(items), "--output", str(out)])
    assert code == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [row["item_id"] for row in rows] == ["i1", "i2", "line-3", "i4"]
    assert rows[0]["predictions"] and rows[3]["predictions"]
    assert rows[1] == {"item_id": "i2", "predictions": [],
                       "error": "invalid UTF-8 byte 0xe9 at column 8"}
    assert rows[2]["error"] == "invalid UTF-8 byte 0xff at column 1"


def test_infer_ranks_at_most_one_chunk_of_items_per_call(model_path, tmp_path, monkeypatch):
    sizes = []

    def recording(model, items, **kwargs):
        sizes.append(len(items))
        return recommend_batch(model, items, **kwargs)

    monkeypatch.setattr(cli, "recommend_batch", recording)
    items = tmp_path / "items.tsv"
    items.write_text("".join(f"i{n}\t{HEADPHONES_TITLE}\t42\n" for n in range(200)))
    out = tmp_path / "preds.jsonl"
    assert main(["infer", "--model", model_path, "--items", str(items), "--output", str(out)]) == 0
    assert sum(sizes) == 200 and max(sizes) <= 64
    assert len(out.read_text().splitlines()) == 200


def mixed_items_line(line_no: int) -> bytes:
    """Line ``line_no`` of a 130-line items file with errors at 63-66 and 128-130."""
    bad = {
        63: b"i63\tonly two columns",
        64: b"i64\taudeze maxwell\tforty-two",
        65: b"i65\tbad \xff title\t42",
        66: b"i66\taudeze maxwell\t99",
        128: b"\xffid\taudeze\t42\r",
        129: b"i129\taudeze\t7",
        130: b"i130\ttoo\tmany\tcolumns",
    }
    if line_no in bad:
        return bad[line_no] + b"\n"
    if line_no % 20 == 0:
        return b"\n"
    if line_no % 7 == 0:
        title = "nothing in common"
    else:
        start = line_no % 5
        title = " ".join(HEADPHONES_TITLE.split()[start:start + 1 + line_no % 4])
    return f"i{line_no}\t{title}\t42\n".encode()


def test_infer_streams_the_same_rows_as_per_item_recommend(model_path, tmp_path, capsys):
    items = tmp_path / "items.tsv"
    items.write_bytes(b"".join(mixed_items_line(n) for n in range(1, 131)))
    out = tmp_path / "preds.jsonl"
    code = main(["infer", "--model", model_path, "--items", str(items), "--k", "3",
                 "--output", str(out)])
    assert code == 0

    model = storage.load(model_path)
    errors = {
        63: ("i63", "expected 3 tab-separated columns, got 2"),
        64: ("i64", "bad leaf category: 'forty-two'"),
        65: ("i65", "invalid UTF-8 byte 0xff at column 9"),
        128: ("line-128", "invalid UTF-8 byte 0xff at column 1"),
        130: ("i130", "expected 3 tab-separated columns, got 4"),
    }
    expected = []
    for line_no in range(1, 131):
        if line_no in errors:
            item_id, error = errors[line_no]
            expected.append({"item_id": item_id, "predictions": [], "error": error})
            continue
        fields = mixed_items_line(line_no).decode().rstrip("\r\n").split("\t")
        if fields == [""]:
            continue
        item_id, title, leaf = fields
        row = {"item_id": item_id, "title": title}
        try:
            row["predictions"] = predictions_to_dicts(
                recommend(model, Query(title, int(leaf), k=3)))
        except UnknownLeafError as exc:
            row.update(predictions=[], error=str(exc))
        expected.append(row)
    assert out.read_text() == "".join(json.dumps(row) + "\n" for row in expected)
    assert sum(1 for row in expected if row["predictions"]) > 90
    assert sum(1 for row in expected if not row["predictions"] and "error" not in row) > 10
    assert [row["item_id"] for row in expected if "error" in row] == [
        "i63", "i64", "i65", "i66", "line-128", "i129", "i130"]
    assert capsys.readouterr().err == f"7 of {len(expected)} items failed\n"


def test_infer_rows_equal_json_dumps_with_awkward_ids_and_titles(model_path, tmp_path):
    awkward = ['"quoted"', "back\\slash", "café \U0001f3a7", "ctl\x01\x1f\x7f", "\u2028"]
    lines, expected = [], []
    model = storage.load(model_path)
    for n, text in enumerate(awkward):
        item_id, title = f"i{n} {text}", f"{HEADPHONES_TITLE} {text}"
        lines += [f"{item_id}\t{title}\t42", f"{item_id}\t{title}\t99", f"{item_id}\t{title}"]
        expected += [
            {"item_id": item_id, "title": title, "predictions": predictions_to_dicts(
                recommend(model, Query(title, 42)))},
            {"item_id": item_id, "title": title, "predictions": [],
             "error": "unknown leaf category: 99"},
            {"item_id": item_id, "predictions": [],
             "error": "expected 3 tab-separated columns, got 2"},
        ]
    items = tmp_path / "items.tsv"
    items.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "preds.jsonl"
    assert main(["infer", "--model", model_path, "--items", str(items), "--output", str(out)]) == 0
    assert all(row["predictions"] for row in expected[::3])
    assert out.read_text() == "".join(json.dumps(row) + "\n" for row in expected)


def test_infer_output_naming_the_items_file_exits_2(model_path, tmp_path, capsys):
    items = tmp_path / "items.tsv"
    items.write_text(f"i1\t{HEADPHONES_TITLE}\t42\n")
    for output in (str(items), str(tmp_path / "." / "items.tsv")):
        code = main(["infer", "--model", model_path, "--items", str(items),
                     "--output", output])
        assert code == 2
        assert "--output must differ from --items" in capsys.readouterr().err
        assert items.read_text() == f"i1\t{HEADPHONES_TITLE}\t42\n"


@pytest.mark.parametrize("command", ["infer", "serve"])
@pytest.mark.parametrize(
    "flag, value",
    [("--k", "0"), ("--k", "-1"), ("--max-predictions", "0"), ("--max-predictions", "-3")],
)
def test_nonpositive_k_or_max_predictions_exit_2_before_loading(
    command, flag, value, model_path, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(storage, "load", lambda path: pytest.fail("model loaded"))
    monkeypatch.setattr(cli, "serve", lambda config, model: pytest.fail("server started"))
    items = tmp_path / "items.tsv"
    items.write_text(f"i1\t{HEADPHONES_TITLE}\t42\n")
    extra = ["--items", str(items), "--output", str(tmp_path / "out.jsonl")]
    code = main([command, "--model", model_path, *(extra if command == "infer" else []),
                 flag, value])
    assert code == 2
    assert f"{flag} must be >= 1, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("port", ["70000", "-1"])
def test_serve_port_out_of_range_exits_2_before_loading(port, model_path, capsys, monkeypatch):
    monkeypatch.setattr(storage, "load", lambda path: pytest.fail("model loaded"))
    monkeypatch.setattr(cli, "serve", lambda config, model: pytest.fail("server started"))
    assert main(["serve", "--model", model_path, "--port", port]) == 2
    assert f"--port must be 0-65535, got {port}" in capsys.readouterr().err


def test_infer_missing_model_exits_2(tmp_path, capsys):
    code = main(["infer", "--model", str(tmp_path / "nope.gex"),
                 "--items", str(tmp_path / "nope.tsv")])
    assert code == 2


def test_infer_corrupt_model_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.gex"
    bad.write_bytes(b"GEX1" + b"\x00" * 100)
    items = tmp_path / "items.tsv"
    items.write_text("i1\ttitle\t1\n")
    code = main(["infer", "--model", str(bad), "--items", str(items)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_stats_prints_per_leaf_lines(model_path, capsys):
    assert main(["stats", "--model", model_path]) == 0
    out = capsys.readouterr().out
    assert "leaf 42: 5 keyphrases, 7 tokens, 13 edges, avg degree 1.86" in out
    assert "total: 1 leaves" in out


def test_stats_prints_the_model_fingerprint(model_path, capsys):
    data = Path(model_path).read_bytes()
    crc = zlib.crc32(data[16:-4])
    assert main(["stats", "--model", model_path]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == (f"model: format 5, crc 0x{crc:08x}, 5 keyphrases, "
                     f"7 vocabulary tokens, {len(data)} bytes")


def eval_setup(tmp_path):
    runs = {
        "ours": {
            "i1": [("u10", 10.0), ("u5", 5.0)],
            "i2": [("u9", 9.0), ("u1", 1.0)],
        },
        "rival": {
            "i1": [("u10", 10.0), ("u2", 2.0)],
            "i2": [("u3", 3.0), ("u1", 1.0)],
        },
    }
    paths = {}
    for name, spec in runs.items():
        path = tmp_path / f"{name}.jsonl"
        lines = []
        for item_id, preds in spec.items():
            lines.append(json.dumps({
                "item_id": item_id,
                "title": f"title {item_id}",
                "predictions": [
                    {"keyphrase": kp, "align": 1.0, "search": s, "recall": 0.0}
                    for kp, s in preds
                ],
            }))
        path.write_text("\n".join(lines) + "\n")
        paths[name] = str(path)
    fixture = tmp_path / "fixture.tsv"
    fixture.write_text(
        "i1\tu10\tyes\ni1\tu5\tyes\ni1\tu2\tno\n"
        "i2\tu9\tyes\ni2\tu1\tno\ni2\tu3\tyes\n"
    )
    universe = tmp_path / "universe.tsv"
    universe.write_text("".join(f"u{i}\t{i}\n" for i in range(1, 11)))
    return paths, str(fixture), str(universe)


def test_eval_end_to_end_report(tmp_path):
    paths, fixture, universe = eval_setup(tmp_path)
    report_path = tmp_path / "report.json"
    code = main([
        "eval",
        "--runs", f"ours={paths['ours']}", f"rival={paths['rival']}",
        "--oracle", f"fixture:{fixture}",
        "--keyphrase-universe", universe,
        "--head-percentile", "90",
        "--baseline", "ours",
        "--report", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["baseline"] == "ours"
    assert report["head_threshold"]["value"] == 9.0
    ours, rival = report["models"]["ours"], report["models"]["rival"]
    assert ours["rp"] == 0.75
    assert ours["hp"] == 0.25
    assert ours["rrr_vs_baseline"] == 1.0
    assert rival["rp"] == 0.5
    assert rival["rrr_vs_baseline"] == pytest.approx(2 / 3)
    assert rival["rhr_vs_baseline"] == 1.0
    assert report["judging"]["oracle"] == "fixture"
    assert report["judging"]["errors"] == 0


@pytest.mark.parametrize("names, items, hits", [
    (["a"], 1, 0),       # two distinct pairs: two oracle calls, none saved
    (["a", "b"], 1, 2),  # the second run's two pairs are cached already
    (["a"], 2, 2),       # the second item repeats the first's title and keyphrases
])
def test_eval_cache_hits_count_only_saved_oracle_calls(names, items, hits, tmp_path):
    row = {"title": "red shoe", "predictions": [
        {"keyphrase": "red shoe", "search": 5.0}, {"keyphrase": "blue hat", "search": 3.0}]}
    run = tmp_path / "run.jsonl"
    run.write_text("".join(json.dumps({"item_id": f"i{n}", **row}) + "\n" for n in range(items)))
    report_path = tmp_path / "report.json"
    assert main(["eval", "--runs", *(f"{name}={run}" for name in names),
                 "--oracle", "heuristic", "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["judging"]["pairs_judged"] == 2
    assert report["judging"]["cache_hits"] == hits
    assert set(report["head_threshold"]) == {"percentile", "value", "universe_size"}


# Ten keyphrases of leaf 1 with search ranks 1..10 (1 = most searched),
# all sharing a token with the title "red shoe".
RANKED_TSV = "".join(
    f"{text}\t1\t{rank}\t{rank}\n" for rank, text in enumerate(
        ["red shoe", "shoe", "red", "red boot", "red hat", "red sock", "red coat",
         "red scarf", "red glove", "red mug"], start=1)
)


@pytest.mark.parametrize("orientation, value, head", [
    ("count", 9.0, "red mug"),  # ranks read as counts: rank 10 is the head
    ("rank", 2.0, "red shoe"),  # rank 1
])
def test_eval_head_set_follows_the_score_orientation(orientation, value, head, tmp_path):
    tsv, model, items = tmp_path / "kp.tsv", tmp_path / "model.gex", tmp_path / "items.tsv"
    run, report_path = tmp_path / "run.jsonl", tmp_path / "report.json"
    tsv.write_text(RANKED_TSV)
    items.write_text("i1\tred shoe\t1\n")
    assert main(["train", "--input", str(tsv), "--output", str(model),
                 "--score-orientation", "rank"]) == 0
    assert main(["infer", "--model", str(model), "--items", str(items), "--k", "20",
                 "--output", str(run)]) == 0
    predictions = json.loads(run.read_text())["predictions"]
    assert sorted(p["search"] for p in predictions) == [float(r) for r in range(1, 11)]
    args = ["eval", "--runs", f"ours={run}", "--oracle", "heuristic",
            "--report", str(report_path)]
    if orientation == "rank":
        args += ["--score-orientation", "rank"]
    assert main(args) == 0
    report = json.loads(report_path.read_text())
    assert report["head_threshold"] == {"percentile": 90.0, "value": value, "universe_size": 10}
    # Every prediction is relevant to the heuristic, so the head count is
    # the number of keyphrases on the head side of the threshold: one.
    assert report["models"]["ours"]["relevant"] == 10
    assert report["models"]["ours"]["head"] == 1
    threshold = evaluation.HeadThreshold(
        90.0, value, 10, curation.ScoreOrientation.from_name(orientation))
    assert [p["keyphrase"] for p in predictions if threshold.is_head(p["search"])] == [head]


def test_eval_prediction_without_search_is_never_head_nor_in_the_universe(tmp_path):
    # "shoe" was read as search 0.0, the best rank: universe 4, head 2.
    predictions = [{"keyphrase": "red shoe", "search": 1}, {"keyphrase": "red hat", "search": 2},
                   {"keyphrase": "red mug", "search": 3}, {"keyphrase": "shoe"}]
    run, report_path = tmp_path / "run.jsonl", tmp_path / "report.json"
    run.write_text(json.dumps({"item_id": "i1", "title": "red shoe",
                               "predictions": predictions}) + "\n")
    assert main(["eval", "--runs", f"ours={run}", "--oracle", "heuristic",
                 "--score-orientation", "rank", "--head-percentile", "50",
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["head_threshold"] == {"percentile": 50.0, "value": 2.0, "universe_size": 3}
    assert report["models"]["ours"]["head"] == 1


def test_eval_rank_universe_counts_missing_keyphrases_as_tail(tmp_path):
    paths, fixture, _ = eval_setup(tmp_path)
    # Ranks: u10 best.  u5, u9 and u1 are predicted but not in the universe.
    universe = tmp_path / "ranks.tsv"
    universe.write_text("".join(f"u{i}\t{11 - i}\n" for i in (2, 3, 10)))
    report_path = tmp_path / "report.json"
    assert main(["eval", "--runs", f"ours={paths['ours']}", "--oracle", f"fixture:{fixture}",
                 "--keyphrase-universe", str(universe), "--score-orientation", "rank",
                 "--head-percentile", "50", "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    # Ranks worst first: 9, 8, 1; the 50th percentile is rank 8, and of
    # the relevant predictions u10, u5 and u9 only u10 ranks better.
    assert report["head_threshold"]["value"] == 8.0
    assert report["models"]["ours"]["head"] == 1


def test_eval_duplicate_run_names_exit_2(tmp_path, capsys):
    paths, fixture, universe = eval_setup(tmp_path)
    code = main([
        "eval", "--runs", f"ours={paths['ours']}", f"ours={paths['rival']}",
        "--oracle", f"fixture:{fixture}",
    ])
    assert code == 2
    assert "duplicate run name" in capsys.readouterr().err


def test_eval_unjudgeable_pairs_exit_1(tmp_path, capsys):
    paths, _, universe = eval_setup(tmp_path)
    sparse = tmp_path / "sparse.tsv"
    sparse.write_text("i1\tu10\tyes\n")
    code = main([
        "eval", "--runs", f"ours={paths['ours']}",
        "--oracle", f"fixture:{sparse}",
        "--keyphrase-universe", universe,
    ])
    assert code == 1
    assert "could not be judged" in capsys.readouterr().err


def test_eval_heuristic_oracle_and_default_universe(tmp_path, capsys):
    paths, _, _ = eval_setup(tmp_path)
    report_path = tmp_path / "report.json"
    code = main([
        "eval", "--runs", f"ours={paths['ours']}",
        "--oracle", "heuristic",
        "--report", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert "ours" in report["models"]
    # Default universe is the union of predicted keyphrases: u10, u5, u9, u1.
    assert report["head_threshold"]["universe_size"] == 4


def test_eval_bad_oracle_spec_exits_2(tmp_path, capsys):
    paths, _, _ = eval_setup(tmp_path)
    code = main(["eval", "--runs", f"ours={paths['ours']}", "--oracle", "psychic"])
    assert code == 2
    assert "oracle" in capsys.readouterr().err


def test_eval_fixture_answer_that_is_not_yes_or_no_names_file_and_line(tmp_path, capsys):
    paths, fixture, _ = eval_setup(tmp_path)
    with open(fixture, "a") as handle:
        handle.write("i2\tu7\tmaybe\n")
    code = main(["eval", "--runs", f"ours={paths['ours']}", "--oracle", f"fixture:{fixture}"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {fixture}:7: cannot parse yes/no answer from 'maybe'\n")


@pytest.mark.parametrize("count", ["lots", "nan", "inf", "-3"])
def test_eval_bad_universe_count_names_file_and_line(count, tmp_path, capsys):
    paths, fixture, universe = eval_setup(tmp_path)
    with open(universe, "a") as handle:
        handle.write(f"u99\t{count}\n")
    code = main(["eval", "--runs", f"ours={paths['ours']}", "--oracle", f"fixture:{fixture}",
                 "--keyphrase-universe", universe])
    assert code == 1
    message = (f"could not convert string to float: {count!r}" if count == "lots" else
               f"search count must be a non-negative finite number, got {count!r}")
    assert capsys.readouterr().err == f"error: {universe}:11: {message}\n"


def test_eval_repeated_universe_keyphrase_names_file_and_line(tmp_path, capsys):
    # Read into a dict, the repeat's count 1 replaced 30, and the threshold
    # became 10.0 where it is 20.0 without the repeated line.
    run = tmp_path / "run.jsonl"
    run.write_text(json.dumps({"item_id": "i1", "title": "red shoe", "predictions": [
        {"keyphrase": "red shoe", "search": 30}]}) + "\n")
    universe = tmp_path / "universe.tsv"
    universe.write_text("red shoe\t30\nred hat\t20\nred mug\t10\nred shoe\t1\n")
    code = main(["eval", "--runs", f"a={run}", "--oracle", "heuristic",
                 "--head-percentile", "50", "--keyphrase-universe", str(universe)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {universe}:4: duplicate keyphrase in universe: 'red shoe'\n")


@pytest.mark.parametrize("which", ["run", "items", "fixture", "universe"])
def test_eval_invalid_utf8_names_file_and_line(which, tmp_path, capsys):
    paths, fixture, universe = eval_setup(tmp_path)
    items = tmp_path / "items.tsv"
    items.write_text("i1\ttitle i1\t42\ni2\ttitle i2\t42\n")
    path = {"run": paths["ours"], "items": str(items), "fixture": fixture,
            "universe": universe}[which]
    with open(path, "ab") as handle:
        handle.write(b"\n\xff\n")
    lines = Path(path).read_bytes().count(b"\n")
    code = main(["eval", "--runs", f"ours={paths['ours']}", "--oracle", f"fixture:{fixture}",
                 "--items", str(items), "--keyphrase-universe", universe])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{path}:{lines}: " in err and "invalid UTF-8 byte 0xff at column 1" in err


@pytest.mark.parametrize("flag, value, minimum", [
    ("--retries", "-1", 0), ("--max-in-flight", "0", 1), ("--max-in-flight", "-3", 1),
])
def test_eval_bad_retries_or_max_in_flight_exit_2_before_reading_runs(
    flag, value, minimum, tmp_path, capsys, monkeypatch
):
    paths, fixture, _ = eval_setup(tmp_path)
    monkeypatch.setattr(cli.evaluation.ModelRun, "from_jsonl",
                        lambda name, path: pytest.fail("run file read"))
    code = main(["eval", "--runs", f"ours={paths['ours']}", "--oracle", f"fixture:{fixture}",
                 flag, value])
    assert code == 2
    assert capsys.readouterr().err == f"error: {flag} must be >= {minimum}, got {value}\n"


def test_eval_titles_line_without_a_tab_names_file_and_line(tmp_path, capsys):
    paths, _, _ = eval_setup(tmp_path)
    items = tmp_path / "items.tsv"
    items.write_text("i1\ttitle i1\textra column\ni2 title i2\n")
    code = main(["eval", "--runs", f"ours={paths['ours']}", "--oracle", "heuristic",
                 "--items", str(items)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {items}:2: expected item_id<TAB>title\n"


def run_with_closed_stdout(args: list[str], lines_read: int) -> tuple[int, bytes]:
    """Run ``graphex`` with a stdout reader that leaves after ``lines_read`` lines."""
    src = os.path.dirname(os.path.dirname(graphex.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "graphex.cli", *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for _ in range(lines_read):
        assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=60), err


def test_stats_to_a_closed_pipe_exits_1_quietly(model_path):
    assert run_with_closed_stdout(["stats", "--model", model_path], 0) == (1, b"")


def test_streamed_infer_to_a_closed_pipe_exits_1_quietly(model_path, tmp_path):
    items = tmp_path / "items.tsv"
    items.write_text("".join(f"i{n}\t{HEADPHONES_TITLE}\t42\n" for n in range(3000)))
    args = ["infer", "--model", model_path, "--items", str(items)]
    assert run_with_closed_stdout(args, 2) == (1, b"")


BOUNDARY_CASES = [
    # command, input class, arguments, exit code, start of the one stderr line
    ("train", "missing file", "train --input {absent} --output {out}",
     2, "error: no such file: {absent}"),
    ("train", "bad flag value", "train --input {kp} --output {out} --min-search-count lots",
     2, "graphex train: error: argument --min-search-count: invalid float value: 'lots'"),
    # A malformed row is skipped and reported; the model is still written.
    ("train", "malformed line", "train --input {bad_kp} --output {out}",
     0, "{bad_kp}:2: expected 4 tab-separated columns, got 3"),
    ("infer", "missing file", "infer --model {absent} --items {items}",
     2, "error: no such file: {absent}"),
    ("infer", "bad flag value", "infer --model {model} --items {items} --k five",
     2, "graphex infer: error: argument --k: invalid int value: 'five'"),
    # A malformed item gets an error row; the other items are answered.
    ("infer", "malformed line", "infer --model {model} --items {bad_items} --output {out}",
     0, "1 of 2 items failed"),
    ("infer", "corrupt model", "infer --model {corrupt} --items {items}",
     1, "error: {corrupt}: body checksum mismatch"),
    ("infer", "truncated model", "infer --model {truncated} --items {items}",
     1, "error: {truncated}: file ends at byte"),
    ("eval", "missing file", "eval --runs a={absent} --oracle heuristic",
     2, "error: no such file: {absent}"),
    ("eval", "bad flag value", "eval --runs a={run} --oracle heuristic --head-percentile high",
     2, "graphex eval: error: argument --head-percentile: invalid float value: 'high'"),
    ("eval", "malformed line", "eval --runs a={bad_run} --oracle heuristic",
     1, "error: {bad_run}:1: bad prediction row"),
    # Without --keyphrase-universe the head threshold needs predicted search scores.
    ("eval", "no search score", "eval --runs a={unscored_run} --oracle heuristic",
     1, "error: no prediction in the runs has a search score; "
        "give the scores with --keyphrase-universe"),
    ("serve", "missing file", "serve --model {absent}",
     2, "error: no such file: {absent}"),
    ("serve", "bad flag value", "serve --model {model} --port http",
     2, "graphex serve: error: argument --port: invalid int value: 'http'"),
    ("serve", "corrupt model", "serve --model {corrupt}",
     1, "error: {corrupt}: body checksum mismatch"),
    ("serve", "truncated model", "serve --model {truncated}",
     1, "error: {truncated}: file ends at byte"),
    ("stats", "missing file", "stats --model {absent}",
     2, "error: no such file: {absent}"),
    ("stats", "bad flag value", "stats --model",
     2, "graphex stats: error: argument --model: expected one argument"),
    ("stats", "corrupt model", "stats --model {corrupt}",
     1, "error: {corrupt}: body checksum mismatch"),
    ("stats", "truncated model", "stats --model {truncated}",
     1, "error: {truncated}: file ends at byte"),
]


@pytest.mark.parametrize("args, code, line", [case[2:] for case in BOUNDARY_CASES],
                         ids=[f"{case[0]}-{case[1].replace(' ', '-')}" for case in BOUNDARY_CASES])
def test_each_command_answers_a_bad_input_with_one_line(
    args, code, line, model_path, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(cli, "serve", lambda config, model: pytest.fail("server started"))
    data = Path(model_path).read_bytes()
    middle = len(data) // 2
    files = {
        "corrupt": data[:middle] + bytes([data[middle] ^ 1]) + data[middle + 1:],
        "truncated": data[:middle],
        "kp": HEADPHONES_TSV,
        "bad_kp": "red shoe\t42\t5\t5\nblue hat\t42\t5\n",
        "items": f"i1\t{HEADPHONES_TITLE}\t42\n",
        "bad_items": f"i1\t{HEADPHONES_TITLE}\t42\ni2\tno leaf column\n",
        "run": json.dumps({"item_id": "i1", "title": "red shoe", "predictions": []}) + "\n",
        "bad_run": "{not json\n",
        "unscored_run": json.dumps({"item_id": "i1", "title": "red shoe",
                                    "predictions": [{"keyphrase": "red shoe"}]}) + "\n",
    }
    paths = {"model": model_path, "absent": str(tmp_path / "absent"),
             "out": str(tmp_path / "out")}
    for name, content in files.items():
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        paths[name] = str(path)

    try:
        status = main([arg.format(**paths) for arg in args.split()])
    except SystemExit as exc:  # argparse rejects a flag value itself
        status = exc.code
    err = capsys.readouterr().err
    assert status == code
    assert "Traceback" not in err
    lines = err.splitlines()
    matching = [text for text in lines if text.startswith(line.format(**paths))]
    assert len(matching) == 1
    # Only a failed command prints an ``error:`` line, and then only this one.
    assert [text for text in lines if "error:" in text] == (matching if code else [])
