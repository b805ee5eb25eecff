from __future__ import annotations

import json
import random
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from graphex import evaluation
from graphex.curation import RANK_ORIENTATION
from graphex.evaluation import (
    FixtureOracle,
    MAX_COMPLETION_BYTES,
    HttpCompletionOracle,
    JudgmentCache,
    ModelRun,
    OracleError,
    RelevanceOracle,
    RunItem,
    RunPrediction,
    TokenOverlapOracle,
    build_judgment_map,
    compute_metrics,
    exclusive_diversity,
    head_threshold,
    judge,
    load_prompt_template,
    parse_yes_no,
    relative_ratios,
)


def run_of(name, spec):
    """spec: {item_id: [(keyphrase, search), ...]}"""
    return ModelRun(
        name,
        [
            RunItem(item_id, f"title {item_id}", [RunPrediction(kp, s) for kp, s in preds])
            for item_id, preds in spec.items()
        ],
    )


class MapOracle(RelevanceOracle):
    """In-memory oracle with a call counter and optional failure budget."""

    name = "map"

    def __init__(self, verdicts, fail_first=0):
        self.verdicts = verdicts
        self.calls = 0
        self.fail_first = fail_first

    def relevant(self, item_id, title, keyphrase):
        self.calls += 1
        if self.fail_first > 0:
            self.fail_first -= 1
            raise OracleError("transient failure")
        try:
            return self.verdicts[(item_id, keyphrase)]
        except KeyError:
            raise OracleError(f"no verdict for {(item_id, keyphrase)}") from None

    def cache_key(self, item_id, title, keyphrase):
        return (item_id, keyphrase)


def test_parse_yes_no_tolerates_case_and_whitespace():
    assert parse_yes_no(" Yes \n") is True
    assert parse_yes_no("NO") is False
    with pytest.raises(OracleError):
        parse_yes_no("maybe")
    with pytest.raises(OracleError):
        parse_yes_no("yes please")


def test_prompt_template_has_both_slots():
    template = load_prompt_template()
    assert "{title}" in template
    assert "{keyphrase}" in template
    assert "yes or no" in template


def test_fixture_oracle_replays_judgments(tmp_path):
    path = tmp_path / "fixture.tsv"
    path.write_text("i1\tgaming headphones\tyes\ni1\trandom phrase\tno\n")
    oracle = FixtureOracle.from_tsv(str(path))
    assert oracle.relevant("i1", None, "gaming headphones") is True
    assert oracle.relevant("i1", None, "random phrase") is False
    with pytest.raises(OracleError):
        oracle.relevant("i2", None, "gaming headphones")


def test_token_overlap_oracle_requires_half_the_tokens():
    oracle = TokenOverlapOracle()
    title = "Audeze Maxwell gaming headphones for Xbox"
    assert oracle.relevant("i", title, "gaming headphones xbox") is True
    assert oracle.relevant("i", title, "wireless headphones xbox") is True
    assert oracle.relevant("i", title, "bluetooth wireless headphones") is False
    with pytest.raises(OracleError):
        oracle.relevant("i", None, "anything")


def test_judge_emits_one_judgment_per_unique_pair():
    run = run_of("m", {"i1": [("a", 1.0), ("b", 2.0)], "i2": [("a", 3.0)]})
    oracle = MapOracle({("i1", "a"): True, ("i1", "b"): False, ("i2", "a"): True})
    judgments, errors = judge(run, oracle)
    assert errors == []
    assert [(j.item_id, j.keyphrase, j.relevant) for j in judgments] == [
        ("i1", "a", True),
        ("i1", "b", False),
        ("i2", "a", True),
    ]
    assert oracle.calls == 3


def test_judge_shares_cache_across_runs_and_is_idempotent():
    run = run_of("m", {"i1": [("a", 1.0), ("b", 2.0)]})
    oracle = MapOracle({("i1", "a"): True, ("i1", "b"): False})
    cache = JudgmentCache()
    first, _ = judge(run, oracle, cache=cache)
    calls_after_first = oracle.calls
    second, _ = judge(run, oracle, cache=cache)
    assert oracle.calls == calls_after_first  # warm cache: zero new calls
    assert first == second


def test_judge_default_cache_key_reuses_title_keyphrase_pairs():
    # Two items share title and keyphrase: one oracle call serves both.
    run = ModelRun(
        "m",
        [
            RunItem("i1", "same title", [RunPrediction("kp", 1.0)]),
            RunItem("i2", "same title", [RunPrediction("kp", 1.0)]),
        ],
    )

    class TitleOracle(RelevanceOracle):
        name = "t"

        def __init__(self):
            self.calls = 0

        def relevant(self, item_id, title, keyphrase):
            self.calls += 1
            return True

    oracle = TitleOracle()
    judgments, errors = judge(run, oracle)
    assert oracle.calls == 1
    assert len(judgments) == 2 and not errors


def test_judge_retries_transient_failures_then_succeeds():
    run = run_of("m", {"i1": [("a", 1.0)]})
    oracle = MapOracle({("i1", "a"): True}, fail_first=1)
    judgments, errors = judge(run, oracle, retries=1)
    assert not errors
    assert judgments[0].relevant is True
    assert oracle.calls == 2


def test_judge_records_errors_instead_of_defaulting():
    run = run_of("m", {"i1": [("a", 1.0), ("b", 2.0)]})
    oracle = MapOracle({("i1", "a"): True})  # no verdict for b
    judgments, errors = judge(run, oracle, retries=1)
    assert [(j.item_id, j.keyphrase) for j in judgments] == [("i1", "a")]
    assert len(errors) == 1
    assert errors[0].keyphrase == "b"
    assert "no verdict" in errors[0].message


def test_judge_parallel_matches_serial():
    spec = {f"i{n}": [(f"kp{j}", 1.0) for j in range(4)] for n in range(10)}
    verdicts = {(f"i{n}", f"kp{j}"): (n + j) % 2 == 0 for n in range(10) for j in range(4)}
    serial, _ = judge(run_of("m", spec), MapOracle(verdicts), max_in_flight=1)
    parallel, _ = judge(run_of("m", spec), MapOracle(verdicts), max_in_flight=8)
    assert serial == parallel


class _CompletionHandler(BaseHTTPRequestHandler):
    responses: list = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        assert "prompt" in body
        status, payload = type(self).responses.pop(0)
        raw = json.dumps(payload).encode() if not isinstance(payload, bytes) else payload
        self.send_response(status)
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        try:
            self.wfile.write(raw)
        except ConnectionError:
            pass  # the client stopped reading a reply it found too long

    def log_message(self, *args):
        pass


@pytest.fixture
def completion_server():
    server = HTTPServer(("127.0.0.1", 0), _CompletionHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _CompletionHandler.responses = []
    yield f"http://127.0.0.1:{server.server_address[1]}/complete", _CompletionHandler.responses
    server.shutdown()
    server.server_close()


def test_http_oracle_parses_yes_and_no(completion_server):
    url, responses = completion_server
    responses.extend([(200, {"text": " Yes \n"}), (200, {"completion": "no"})])
    oracle = HttpCompletionOracle(url)
    assert oracle.relevant("i", "a title", "a keyphrase") is True
    assert oracle.relevant("i", "a title", "other keyphrase") is False


def test_http_oracle_raises_on_garbage_and_transport_errors(completion_server):
    url, responses = completion_server
    responses.append((200, {"text": "definitely maybe"}))
    oracle = HttpCompletionOracle(url)
    with pytest.raises(OracleError):
        oracle.relevant("i", "t", "k")
    responses.append((500, {"error": "boom"}))
    with pytest.raises(OracleError):
        oracle.relevant("i", "t", "k")
    dead = HttpCompletionOracle("http://127.0.0.1:1/complete")
    with pytest.raises(OracleError):
        dead.relevant("i", "t", "k")


def test_http_oracle_gives_up_on_a_silent_endpoint_after_the_timeout(monkeypatch):
    # The kernel completes the connection on a listening socket that never
    # accepts, so the request is sent and no reply ever comes.
    monkeypatch.setattr(evaluation, "COMPLETION_TIMEOUT_S", 0.2)
    with socket.create_server(("127.0.0.1", 0)) as silent:
        oracle = HttpCompletionOracle(f"http://127.0.0.1:{silent.getsockname()[1]}/complete")
        start = time.monotonic()
        with pytest.raises(OracleError, match="timed out"):
            oracle.relevant("i", "t", "k")
        assert time.monotonic() - start < 2


def test_http_oracle_reads_at_most_a_capped_reply(completion_server):
    url, responses = completion_server
    assert MAX_COMPLETION_BYTES == 1 << 20
    at_cap = b'{"text": "yes"}'.ljust(MAX_COMPLETION_BYTES)
    responses.extend([(200, at_cap), (200, b"x" * (2 << 20)), (200, at_cap + b" ")])
    oracle = HttpCompletionOracle(url)
    assert oracle.relevant("i", "t", "k") is True
    for _ in range(2):
        with pytest.raises(OracleError, match=f"completion reply exceeds {1 << 20} bytes"):
            oracle.relevant("i", "t", "k")


def test_http_oracle_failures_surface_as_judge_errors(completion_server):
    url, responses = completion_server
    responses.extend([(200, {"text": "hmm"}), (200, {"text": "hmm"})])
    run = run_of("m", {"i1": [("a", 1.0)]})
    judgments, errors = judge(run, HttpCompletionOracle(url), retries=1)
    assert judgments == []
    assert len(errors) == 1


def test_head_threshold_ninetieth_percentile_nearest_rank():
    pairs = [(f"kp{i}", float(i)) for i in range(1, 11)]
    threshold = head_threshold(pairs, percentile=90.0)
    assert threshold.value == 9.0
    assert threshold.universe_size == 10
    assert [c for _, c in pairs if threshold.is_head(c)] == [10.0]


def test_head_threshold_under_rank_orientation_takes_the_best_ranks():
    pairs = [(f"kp{i}", float(i)) for i in range(1, 11)]
    threshold = head_threshold(pairs, percentile=90.0, orientation=RANK_ORIENTATION)
    # Ranks ordered worst first: 10, 9, ..., 1; the 9th of them is rank 2.
    assert threshold.value == 2.0
    assert [c for _, c in pairs if threshold.is_head(c)] == [1.0]
    # A keyphrase missing from the universe is never head, in either orientation.
    assert not threshold.is_head(None)
    assert not head_threshold(pairs).is_head(None)
    with pytest.raises(ValueError):
        head_threshold([("a", -1.0)], orientation=RANK_ORIENTATION)


def test_head_threshold_requires_strictly_greater():
    threshold = head_threshold([("a", 5.0), ("b", 5.0), ("c", 5.0)])
    assert threshold.value == 5.0
    assert not threshold.is_head(5.0)


def test_head_threshold_single_keyphrase_has_empty_head():
    threshold = head_threshold([("a", 7.0)])
    assert threshold.value == 7.0
    assert not threshold.is_head(7.0)


def test_head_threshold_validates_input():
    with pytest.raises(ValueError):
        head_threshold([])
    with pytest.raises(ValueError):
        head_threshold([("a", 1.0), ("a", 2.0)])
    with pytest.raises(ValueError):
        head_threshold([("a", 1.0)], percentile=0.0)
    with pytest.raises(ValueError):
        head_threshold([("a", -1.0)])


def small_eval_setup():
    """Two runs over two items; hand-checked numbers in the asserts."""
    ours = run_of("ours", {"i1": [("u10", 10.0), ("u5", 5.0)], "i2": [("u9", 9.0), ("u1", 1.0)]})
    rival = run_of("rival", {"i1": [("u10", 10.0), ("u2", 2.0)], "i2": [("u3", 3.0), ("u1", 1.0)]})
    verdicts = {
        ("i1", "u10"): True, ("i1", "u5"): True, ("i1", "u2"): False,
        ("i2", "u9"): True, ("i2", "u1"): False, ("i2", "u3"): True,
    }
    universe = [(f"u{i}", float(i)) for i in range(1, 11)]
    threshold = head_threshold(universe, percentile=90.0)
    return ours, rival, verdicts, threshold


def test_compute_metrics_hand_checked_values():
    ours, rival, verdicts, threshold = small_eval_setup()
    report = compute_metrics([ours, rival], dict_to_judgments(verdicts), threshold, "ours")
    m_ours, m_rival = report.models["ours"], report.models["rival"]

    assert (m_ours.total_predictions, m_ours.relevant, m_ours.head) == (4, 3, 1)
    assert m_ours.rp == 0.75
    assert m_ours.hp == 0.25
    assert (m_rival.total_predictions, m_rival.relevant, m_rival.head) == (4, 2, 1)
    assert m_rival.rp == 0.5
    assert m_rival.hp == 0.25

    assert m_ours.rrr_vs_baseline == 1.0
    assert m_ours.rhr_vs_baseline == 1.0
    assert m_rival.rrr_vs_baseline == pytest.approx(2 / 3)
    assert m_rival.rhr_vs_baseline == 1.0

    # Exclusive relevant head keyphrases: u10 is shared on i1, u9 and u5
    # are exclusive to ours but below the head threshold, so all zero.
    assert m_ours.exclusive_per_item == {"i1": 0, "i2": 0}
    assert m_rival.exclusive_per_item == {"i1": 0, "i2": 0}
    assert m_ours.exclusive_ratio_vs_baseline is None


def test_exclusive_ratio_divides_the_baseline_by_the_run():
    # Every prediction is relevant and u6..u10 are head.  Exclusive head
    # keyphrases: ours has u6 on i1 (0.5 per item), base has u7 on i1 and
    # u8 on i2 (1.0 per item).  The ratio is baseline / run, the inverse
    # of rrr and rhr, which are run / baseline.
    ours = run_of("ours", {"i1": [("u10", 10.0), ("u6", 6.0)], "i2": [("u9", 9.0)]})
    base = run_of("base", {"i1": [("u10", 10.0), ("u7", 7.0)], "i2": [("u8", 8.0), ("u9", 9.0)]})
    verdicts = {(item.item_id, p.keyphrase): True
                for run in (ours, base) for item in run.items for p in item.predictions}
    threshold = head_threshold([(f"u{i}", float(i)) for i in range(1, 11)], percentile=50.0)
    report = compute_metrics([ours, base], dict_to_judgments(verdicts), threshold, "base")
    m_ours, m_base = report.models["ours"], report.models["base"]
    assert (m_ours.exclusive_avg, m_base.exclusive_avg) == (0.5, 1.0)
    assert m_ours.exclusive_ratio_vs_baseline == 2.0
    assert m_base.exclusive_ratio_vs_baseline == 1.0
    assert m_ours.rrr_vs_baseline == 0.75  # 1.5 relevant per item against 2.0


def dict_to_judgments(verdicts):
    from graphex.evaluation import Judgment

    return [Judgment(item, kp, flag) for (item, kp), flag in verdicts.items()]


def test_exclusive_diversity_identical_runs_are_all_zero():
    ours, _, verdicts, threshold = small_eval_setup()
    clone = run_of("clone", {
        item.item_id: [(p.keyphrase, p.search) for p in item.predictions]
        for item in ours.items
    })
    result = exclusive_diversity([ours, clone], verdicts, threshold)
    assert all(v == 0 for counts in result.values() for v in counts.values())


def test_exclusive_diversity_superset_on_head_keyphrase():
    a = run_of("a", {"i1": [("u10", 10.0), ("u9", 9.0)]})
    b = run_of("b", {"i1": [("u9", 9.0)]})
    verdicts = {("i1", "u10"): True, ("i1", "u9"): True}
    threshold = head_threshold([(f"u{i}", float(i)) for i in range(1, 11)])
    result = exclusive_diversity([a, b], verdicts, threshold)
    assert result["a"] == {"i1": 1}  # u10: head, relevant, only in a
    assert result["b"] == {"i1": 0}


def test_exclusive_diversity_three_runs_matches_set_reference():
    rng = random.Random(47)
    universe = [(f"u{i}", float(i)) for i in range(1, 21)]
    threshold = head_threshold(universe)  # value 18; head = count > 18
    items = [f"i{n}" for n in range(6)]
    runs = []
    for name in ("a", "b", "c"):
        spec = {}
        for item in items:
            picks = rng.sample(universe, rng.randint(0, 6))
            spec[item] = [(kp, count) for kp, count in picks]
        runs.append(run_of(name, spec))
    verdicts = {
        (item, kp): rng.random() < 0.7 for item in items for kp, _ in universe
    }
    result = exclusive_diversity(runs, verdicts, threshold)
    for run in runs:
        others = [r for r in runs if r.name != run.name]
        for item in run.items:
            predicted = {p.keyphrase for p in item.predictions}
            other_union = set()
            for other in others:
                for oitem in other.items:
                    if oitem.item_id == item.item_id:
                        other_union |= {p.keyphrase for p in oitem.predictions}
            expected = sum(
                1
                for kp in predicted - other_union
                if verdicts[(item.item_id, kp)] and float(kp[1:]) > threshold.value
            )
            assert result[run.name][item.item_id] == expected


def test_exclusive_diversity_requires_two_runs():
    ours, _, verdicts, threshold = small_eval_setup()
    with pytest.raises(ValueError):
        exclusive_diversity([ours], verdicts, threshold)


def test_relative_ratios_inverse_product_is_one():
    ours, rival, verdicts, threshold = small_eval_setup()
    ab = relative_ratios(ours, rival, verdicts, threshold)
    ba = relative_ratios(rival, ours, verdicts, threshold)
    assert abs(ab[0] * ba[0] - 1.0) < 1e-12
    assert abs(ab[1] * ba[1] - 1.0) < 1e-12


def test_ratios_with_zero_denominator_are_undefined():
    a = run_of("a", {"i1": [("u10", 10.0)]})
    b = run_of("b", {"i1": [("u1", 1.0)]})
    verdicts = {("i1", "u10"): True, ("i1", "u1"): False}
    threshold = head_threshold([(f"u{i}", float(i)) for i in range(1, 11)])
    rrr, rhr = relative_ratios(a, b, verdicts, threshold)
    assert rrr is None and rhr is None
    report = compute_metrics([a, b], dict_to_judgments(verdicts), threshold, "b")
    assert report.models["a"].rrr_vs_baseline is None
    assert report.models["b"].rp == 0.0


def test_compute_metrics_validates_runs():
    ours, rival, verdicts, threshold = small_eval_setup()
    judgments = dict_to_judgments(verdicts)
    with pytest.raises(ValueError):
        compute_metrics([], judgments, threshold, "ours")
    with pytest.raises(ValueError):
        compute_metrics([ours, rival], judgments, threshold, "absent")
    with pytest.raises(ValueError):
        compute_metrics([ours, ours], judgments, threshold, "ours")
    lopsided = run_of("rival", {"i1": [("u10", 10.0)]})
    with pytest.raises(ValueError):
        compute_metrics([ours, lopsided], judgments, threshold, "ours")


def test_compute_metrics_requires_judgment_coverage():
    ours, rival, verdicts, threshold = small_eval_setup()
    del verdicts[("i2", "u3")]
    with pytest.raises(ValueError, match="missing judgment"):
        compute_metrics([ours, rival], dict_to_judgments(verdicts), threshold, "ours")


def test_metrics_do_not_depend_on_item_order():
    ours, rival, verdicts, threshold = small_eval_setup()
    flipped = ModelRun("ours", list(reversed(ours.items)))
    report_a = compute_metrics([ours, rival], dict_to_judgments(verdicts), threshold, "ours")
    report_b = compute_metrics([flipped, rival], dict_to_judgments(verdicts), threshold, "ours")
    a, b = report_a.models["ours"], report_b.models["ours"]
    assert (a.rp, a.hp, a.rrr_vs_baseline, a.rhr_vs_baseline) == (
        b.rp, b.hp, b.rrr_vs_baseline, b.rhr_vs_baseline
    )


def test_model_run_rejects_duplicate_item_ids():
    with pytest.raises(ValueError):
        ModelRun("m", [RunItem("i1", None, []), RunItem("i1", None, [])])


def test_model_run_from_jsonl_round_trip(tmp_path):
    path = tmp_path / "run.jsonl"
    rows = [
        {"item_id": "i1", "title": "a title",
         "predictions": [{"keyphrase": "kp one", "align": 2.0, "search": 9.0, "recall": 1.0}]},
        {"item_id": "i2", "predictions": []},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    run = ModelRun.from_jsonl("m", str(path))
    assert run.items[0].title == "a title"
    assert run.items[0].predictions == [RunPrediction("kp one", 9.0)]
    assert run.items[1].predictions == []
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"predictions": []}\n')
    with pytest.raises(ValueError):
        ModelRun.from_jsonl("m", str(bad))


def test_model_run_from_jsonl_skips_blank_lines_and_names_a_bad_one(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_bytes(b'\n  \n{"item_id": "i1"}\r\n\t\n{"item_id": "i2"}\n')
    assert [item.item_id for item in ModelRun.from_jsonl("m", str(path)).items] == ["i1", "i2"]
    path.write_bytes(b'{"item_id": "i1"}\n\n{"item_id": "\xe9"}\n')
    with pytest.raises(ValueError, match=r":3: bad prediction row: invalid UTF-8 byte 0xe9"):
        ModelRun.from_jsonl("m", str(path))


def test_build_judgment_map_rejects_conflicts():
    from graphex.evaluation import Judgment

    rows = [Judgment("i", "kp", True), Judgment("i", "kp", False)]
    with pytest.raises(ValueError):
        build_judgment_map(rows)
