"""Offline evaluation: relevance oracles, head thresholds, and metrics.

Prediction runs from different models are judged by a pluggable relevance
oracle (human-labeled fixture, token-overlap heuristic, or an HTTP text
completion endpoint answering yes/no).  Judged runs are summarized as
relevancy and head-relevancy precision plus ratio metrics against a named
baseline, and an exclusive-diversity analysis counts relevant head
keyphrases only one model found.
"""

from __future__ import annotations

import json
import math
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from importlib import resources
from typing import Hashable, Iterable, Sequence

from .curation import read_lines
from .vocab import tokenize

# Largest completion reply read; a longer one is an oracle error.
MAX_COMPLETION_BYTES = 1 << 20
# Seconds a completion request may wait to connect or for each read.
COMPLETION_TIMEOUT_S = 30.0


class OracleError(Exception):
    """A relevance oracle could not produce a judgment for a pair."""


def parse_yes_no(text: str) -> bool:
    """Strict yes/no parse, tolerant to case and surrounding whitespace."""
    answer = text.strip().casefold()
    if answer == "yes":
        return True
    if answer == "no":
        return False
    raise OracleError(f"cannot parse yes/no answer from {text!r}")


def load_prompt_template() -> str:
    """The packaged relevance prompt with {title} and {keyphrase} slots."""
    return resources.files("graphex").joinpath("prompts/relevance.txt").read_text("utf-8")


class RelevanceOracle:
    """Interface for relevance judges.

    ``cache_key`` controls judgment reuse: the default keys by (title,
    keyphrase) so identical pairs are never judged twice, while fixture
    oracles key by (item id, keyphrase) to match their label files.
    """

    name = "oracle"

    def relevant(self, item_id: str, title: str | None, keyphrase: str) -> bool:
        raise NotImplementedError

    def cache_key(self, item_id: str, title: str | None, keyphrase: str) -> Hashable:
        return (title, keyphrase)


class FixtureOracle(RelevanceOracle):
    """Replays human judgments keyed by (item id, keyphrase)."""

    name = "fixture"

    def __init__(self, judgments: dict[tuple[str, str], bool]):
        self.judgments = judgments

    @classmethod
    def from_tsv(cls, path: str) -> "FixtureOracle":
        """Read ``item_id \\t keyphrase \\t yes|no`` lines."""
        judgments: dict[tuple[str, str], bool] = {}
        for line_no, line, error in read_lines(path):
            fields = line.split("\t")
            try:
                if error is not None:
                    raise ValueError(error)
                if len(fields) != 3:
                    raise ValueError(f"expected 3 tab-separated columns, got {len(fields)}")
                judgments[(fields[0], fields[1])] = parse_yes_no(fields[2])
            except (ValueError, OracleError) as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
        return cls(judgments)

    def cache_key(self, item_id: str, title: str | None, keyphrase: str) -> Hashable:
        return (item_id, keyphrase)

    def relevant(self, item_id: str, title: str | None, keyphrase: str) -> bool:
        try:
            return self.judgments[(item_id, keyphrase)]
        except KeyError:
            raise OracleError(
                f"fixture has no judgment for item {item_id!r}, keyphrase {keyphrase!r}"
            ) from None


class TokenOverlapOracle(RelevanceOracle):
    """Deterministic heuristic: at least half the keyphrase tokens appear
    in the title (both as unique-token sets)."""

    name = "heuristic"

    def relevant(self, item_id: str, title: str | None, keyphrase: str) -> bool:
        if title is None:
            raise OracleError(f"item {item_id!r} has no title for the heuristic oracle")
        kp_tokens = set(tokenize(keyphrase))
        if not kp_tokens:
            return False
        common = len(kp_tokens & set(tokenize(title)))
        return 2 * common >= len(kp_tokens)


class HttpCompletionOracle(RelevanceOracle):
    """Asks a text-completion HTTP endpoint for a yes/no answer.

    Sends ``{"prompt": ...}`` built from the packaged template and expects
    a JSON response whose completion field (``text``, ``completion``,
    ``response``, or ``answer``) parses as yes or no.  Each request waits
    at most ``COMPLETION_TIMEOUT_S`` to connect and for each read, and
    reads at most ``MAX_COMPLETION_BYTES`` of reply.  Transport failures,
    timeouts, oversized replies and unparseable answers raise
    :class:`OracleError`; there is no default judgment.
    """

    name = "http"

    def __init__(self, url: str):
        self.url = url
        self.template = load_prompt_template()

    def _prompt(self, title: str, keyphrase: str) -> str:
        return self.template.replace("{title}", title).replace("{keyphrase}", keyphrase)

    def relevant(self, item_id: str, title: str | None, keyphrase: str) -> bool:
        if title is None:
            raise OracleError(f"item {item_id!r} has no title for the completion oracle")
        body = json.dumps({"prompt": self._prompt(title, keyphrase)}).encode("utf-8")
        request = urllib.request.Request(
            self.url, data=body, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(request, timeout=COMPLETION_TIMEOUT_S) as response:
                payload = response.read(MAX_COMPLETION_BYTES + 1)
        except (urllib.error.URLError, OSError) as exc:
            raise OracleError(f"completion request failed: {exc}") from exc
        if len(payload) > MAX_COMPLETION_BYTES:
            raise OracleError(f"completion reply exceeds {MAX_COMPLETION_BYTES} bytes")
        return parse_yes_no(_extract_completion(payload))


def _extract_completion(payload: bytes) -> str:
    text = payload.decode("utf-8", errors="replace")
    try:
        parsed = json.loads(text)
    except json.JSONDecodeError:
        return text
    if isinstance(parsed, str):
        return parsed
    if isinstance(parsed, dict):
        for key in ("text", "completion", "response", "answer"):
            value = parsed.get(key)
            if isinstance(value, str):
                return value
    raise OracleError(f"completion response has no text field: {text[:200]!r}")


class JudgmentCache:
    """Thread-safe oracle result cache.

    ``hits`` counts the pairs :func:`judge` answered without an oracle
    call: their key was cached already, or an earlier pair of the same
    run had it.
    """

    def __init__(self) -> None:
        self._data: dict[Hashable, bool] = {}
        self._lock = threading.Lock()
        self.hits = 0

    def get(self, key: Hashable) -> bool | None:
        with self._lock:
            return self._data.get(key)

    def put(self, key: Hashable, value: bool) -> None:
        with self._lock:
            self._data[key] = value

    def add_hits(self, count: int) -> None:
        with self._lock:
            self.hits += count

    def __len__(self) -> int:
        return len(self._data)


@dataclass(frozen=True)
class Judgment:
    item_id: str
    keyphrase: str
    relevant: bool


@dataclass(frozen=True)
class JudgeError:
    item_id: str
    keyphrase: str
    message: str


@dataclass(frozen=True)
class RunPrediction:
    keyphrase: str
    search: float


@dataclass
class RunItem:
    item_id: str
    title: str | None
    predictions: list[RunPrediction]


@dataclass
class ModelRun:
    """One model's predictions over a shared item set."""

    name: str
    items: list[RunItem]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for item in self.items:
            if item.item_id in seen:
                raise ValueError(f"run {self.name!r} repeats item id {item.item_id!r}")
            seen.add(item.item_id)

    @property
    def item_ids(self) -> set[str]:
        return {item.item_id for item in self.items}

    @classmethod
    def from_jsonl(cls, name: str, path: str) -> "ModelRun":
        """Read prediction rows shaped like the infer command's output."""
        items: list[RunItem] = []
        for line_no, line, error in read_lines(path):
            if not line.strip():
                continue
            try:
                if error is not None:
                    raise ValueError(error)
                row = json.loads(line)
                item_id = str(row["item_id"])
                predictions = [
                    RunPrediction(str(p["keyphrase"]), float(p.get("search", 0.0)))
                    for p in row.get("predictions", [])
                ]
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{line_no}: bad prediction row: {exc}") from exc
            items.append(RunItem(item_id, row.get("title"), predictions))
        return cls(name, items)

    def unique_pairs(self) -> list[tuple[str, str | None, str]]:
        """(item id, title, keyphrase) per unique pair, first-seen order."""
        seen: set[tuple[str, str]] = set()
        out: list[tuple[str, str | None, str]] = []
        for item in self.items:
            for pred in item.predictions:
                key = (item.item_id, pred.keyphrase)
                if key not in seen:
                    seen.add(key)
                    out.append((item.item_id, item.title, pred.keyphrase))
        return out


def judge(
    run: ModelRun,
    oracle: RelevanceOracle,
    cache: JudgmentCache | None = None,
    max_in_flight: int = 1,
    retries: int = 1,
) -> tuple[list[Judgment], list[JudgeError]]:
    """Judge every unique (item, keyphrase) pair in a run.

    Returns one :class:`Judgment` (item, keyphrase, verdict) per judged
    pair, in first-seen order; every verdict is ``oracle``'s, so a
    judgment does not repeat its name.  Oracle calls go through
    ``cache`` (judging the same run twice with a shared cache makes zero
    new calls), at most ``max_in_flight`` at a time.  Each missing pair
    is attempted ``retries + 1`` times; pairs that still fail become
    :class:`JudgeError` records rather than default judgments.
    """
    if cache is None:
        cache = JudgmentCache()
    pairs = [(oracle.cache_key(*pair), pair) for pair in run.unique_pairs()]

    pending: dict[Hashable, tuple[str, str | None, str]] = {}
    for key, pair in pairs:
        if key not in pending and cache.get(key) is None:
            pending[key] = pair
    cache.add_hits(len(pairs) - len(pending))

    failures: dict[Hashable, str] = {}

    def resolve(key: Hashable) -> None:
        item_id, title, keyphrase = pending[key]
        last = "oracle produced no result"
        for _ in range(retries + 1):
            try:
                cache.put(key, oracle.relevant(item_id, title, keyphrase))
                return
            except OracleError as exc:
                last = str(exc)
        failures[key] = last

    with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
        list(pool.map(resolve, pending))

    judgments: list[Judgment] = []
    errors: list[JudgeError] = []
    for key, (item_id, _, keyphrase) in pairs:
        verdict = cache.get(key)
        if verdict is None:
            errors.append(JudgeError(item_id, keyphrase, failures.get(key, "not judged")))
        else:
            judgments.append(Judgment(item_id, keyphrase, verdict))
    return judgments, errors


@dataclass(frozen=True)
class HeadThreshold:
    """Search-volume cutoff separating head keyphrases from the tail."""

    percentile: float
    value: float
    universe_size: int

    def is_head(self, search_count: float) -> bool:
        return search_count > self.value


def head_threshold(
    pairs: Sequence[tuple[str, float]],
    percentile: float = 90.0,
) -> HeadThreshold:
    """Nearest-rank percentile of search counts over a keyphrase universe.

    With the default 90th percentile, a keyphrase is head when its count
    strictly exceeds the threshold, i.e. roughly the top 10% by volume.
    Duplicate keyphrases in the universe are an error.
    """
    if not pairs:
        raise ValueError("keyphrase universe is empty")
    if not 0 < percentile <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    seen: set[str] = set()
    counts: list[float] = []
    for keyphrase, count in pairs:
        if keyphrase in seen:
            raise ValueError(f"duplicate keyphrase in universe: {keyphrase!r}")
        seen.add(keyphrase)
        if not math.isfinite(count) or count < 0:
            raise ValueError(f"bad search count for {keyphrase!r}: {count}")
        counts.append(float(count))
    counts.sort()
    rank = max(1, math.ceil(percentile / 100 * len(counts)))
    return HeadThreshold(percentile, counts[rank - 1], len(counts))


def build_judgment_map(judgments: Iterable[Judgment]) -> dict[tuple[str, str], bool]:
    """Index judgments by (item id, keyphrase); conflicts are an error."""
    out: dict[tuple[str, str], bool] = {}
    for j in judgments:
        key = (j.item_id, j.keyphrase)
        if key in out and out[key] != j.relevant:
            raise ValueError(f"conflicting judgments for {key}")
        out[key] = j.relevant
    return out


def _lookup(judgment_map: dict[tuple[str, str], bool], run: str, item_id: str, keyphrase: str) -> bool:
    try:
        return judgment_map[(item_id, keyphrase)]
    except KeyError:
        raise ValueError(
            f"missing judgment for item {item_id!r}, keyphrase {keyphrase!r} (run {run!r})"
        ) from None


def _search_volume(pred: RunPrediction, search_counts: dict[str, float] | None) -> float:
    """Volume from ``search_counts`` when given (0 if absent), else the prediction's own."""
    if search_counts is not None:
        return search_counts.get(pred.keyphrase, 0.0)
    return pred.search


def _run_counts(
    run: ModelRun,
    judgment_map: dict[tuple[str, str], bool],
    threshold: HeadThreshold,
    search_counts: dict[str, float] | None,
) -> tuple[int, int, int]:
    """(total, relevant, relevant-and-head) prediction counts for a run."""
    total = relevant = head = 0
    for item in run.items:
        for pred in item.predictions:
            total += 1
            if not _lookup(judgment_map, run.name, item.item_id, pred.keyphrase):
                continue
            relevant += 1
            if threshold.is_head(_search_volume(pred, search_counts)):
                head += 1
    return total, relevant, head


def _ratio(numerator: float, denominator: float) -> float | None:
    return numerator / denominator if denominator else None


def _per_item(count: float, n_items: int) -> float:
    return count / n_items if n_items else 0.0


@dataclass
class ModelMetrics:
    name: str
    n_items: int
    total_predictions: int
    relevant: int
    head: int
    rp: float | None
    hp: float | None
    avg_relevant_per_item: float
    avg_head_per_item: float
    rrr_vs_baseline: float | None = None
    rhr_vs_baseline: float | None = None
    exclusive_per_item: dict[str, int] | None = None
    exclusive_avg: float | None = None
    exclusive_ratio_vs_baseline: float | None = None


@dataclass
class MetricsReport:
    baseline: str
    threshold: HeadThreshold
    models: dict[str, ModelMetrics]

    def to_dict(self) -> dict:
        out: dict = {
            "baseline": self.baseline,
            "head_threshold": {
                "percentile": self.threshold.percentile,
                "value": self.threshold.value,
                "universe_size": self.threshold.universe_size,
            },
            "models": {},
        }
        for name, m in self.models.items():
            entry = {
                "items": m.n_items,
                "total_predictions": m.total_predictions,
                "relevant": m.relevant,
                "head": m.head,
                "rp": m.rp,
                "hp": m.hp,
                "avg_relevant_per_item": m.avg_relevant_per_item,
                "avg_head_per_item": m.avg_head_per_item,
                "rrr_vs_baseline": m.rrr_vs_baseline,
                "rhr_vs_baseline": m.rhr_vs_baseline,
            }
            if m.exclusive_avg is not None:
                entry["exclusive_relevant_head_avg"] = m.exclusive_avg
                entry["exclusive_ratio_vs_baseline"] = m.exclusive_ratio_vs_baseline
            out["models"][name] = entry
        return out


def exclusive_diversity(
    runs: Sequence[ModelRun],
    judgment_map: dict[tuple[str, str], bool],
    threshold: HeadThreshold,
    search_counts: dict[str, float] | None = None,
) -> dict[str, dict[str, int]]:
    """Per item, count relevant head keyphrases no other run predicted.

    A keyphrase counts for a run when the run predicted it, it was judged
    relevant, its search volume clears the head threshold, and no other
    run predicted it for the same item (relevant or not).
    """
    if len(runs) < 2:
        raise ValueError("exclusive diversity needs at least two runs")
    predicted: dict[str, dict[str, set[str]]] = {
        run.name: {item.item_id: {p.keyphrase for p in item.predictions} for item in run.items}
        for run in runs
    }

    out: dict[str, dict[str, int]] = {}
    for run in runs:
        per_item: dict[str, int] = {}
        for item in run.items:
            others: set[str] = set()
            for other in runs:
                if other.name != run.name:
                    others |= predicted[other.name].get(item.item_id, set())
            count = 0
            for pred in item.predictions:
                if pred.keyphrase in others:
                    continue
                if not _lookup(judgment_map, run.name, item.item_id, pred.keyphrase):
                    continue
                if threshold.is_head(_search_volume(pred, search_counts)):
                    count += 1
            per_item[item.item_id] = count
        out[run.name] = per_item
    return out


def relative_ratios(
    run_a: ModelRun,
    run_b: ModelRun,
    judgment_map: dict[tuple[str, str], bool],
    threshold: HeadThreshold,
) -> tuple[float | None, float | None]:
    """(relevancy ratio, head ratio) of run_a over run_b.

    Ratios compare per-item average counts; a prediction is head when
    its own search score clears ``threshold``.  A zero denominator yields
    ``None`` rather than infinity.
    """
    _, rel_a, head_a = _run_counts(run_a, judgment_map, threshold, None)
    _, rel_b, head_b = _run_counts(run_b, judgment_map, threshold, None)
    n_a, n_b = len(run_a.items), len(run_b.items)
    return (
        _ratio(_per_item(rel_a, n_a), _per_item(rel_b, n_b)),
        _ratio(_per_item(head_a, n_a), _per_item(head_b, n_b)),
    )


def compute_metrics(
    runs: Sequence[ModelRun],
    judgments: Iterable[Judgment] | dict[tuple[str, str], bool],
    threshold: HeadThreshold,
    baseline: str,
    search_counts: dict[str, float] | None = None,
) -> MetricsReport:
    """Summarize judged runs against a named baseline.

    Computes per-run relevancy precision (relevant / total predictions)
    and head precision (relevant head / total), per-item average relevant
    and head counts, their ratios against the baseline run, and, when two
    or more runs are compared, the exclusive-diversity counts.  All runs
    must cover the same item ids and every prediction must be judged.
    """
    if not runs:
        raise ValueError("no runs to evaluate")
    names = [run.name for run in runs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate run names: {names}")
    if baseline not in names:
        raise ValueError(f"baseline {baseline!r} is not among the runs {names}")
    expected_ids = runs[0].item_ids
    for run in runs[1:]:
        if run.item_ids != expected_ids:
            diff = sorted(run.item_ids ^ expected_ids)[:5]
            raise ValueError(
                f"run {run.name!r} covers different items than {runs[0].name!r} "
                f"(first differences: {diff})"
            )
    judgment_map = (
        judgments if isinstance(judgments, dict) else build_judgment_map(judgments)
    )

    metrics: dict[str, ModelMetrics] = {}
    for run in runs:
        total, relevant, head = _run_counts(run, judgment_map, threshold, search_counts)
        n_items = len(run.items)
        metrics[run.name] = ModelMetrics(
            name=run.name,
            n_items=n_items,
            total_predictions=total,
            relevant=relevant,
            head=head,
            rp=_ratio(relevant, total),
            hp=_ratio(head, total),
            avg_relevant_per_item=_per_item(relevant, n_items),
            avg_head_per_item=_per_item(head, n_items),
        )

    base = metrics[baseline]
    for m in metrics.values():
        m.rrr_vs_baseline = _ratio(m.avg_relevant_per_item, base.avg_relevant_per_item)
        m.rhr_vs_baseline = _ratio(m.avg_head_per_item, base.avg_head_per_item)

    if len(runs) >= 2:
        exclusive = exclusive_diversity(runs, judgment_map, threshold, search_counts)
        for run in runs:
            per_item = exclusive[run.name]
            m = metrics[run.name]
            m.exclusive_per_item = per_item
            m.exclusive_avg = _per_item(sum(per_item.values()), len(per_item))
        base_avg = metrics[baseline].exclusive_avg or 0.0
        for m in metrics.values():
            m.exclusive_ratio_vs_baseline = _ratio(base_avg, m.exclusive_avg or 0.0)

    return MetricsReport(baseline=baseline, threshold=threshold, models=metrics)
