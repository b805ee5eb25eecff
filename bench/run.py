"""The graphex benchmark: set-up, query latency, batch throughput and HTTP.

    python3 bench/run.py --workload big_leaf --seed 1 --seconds 22 --trace 0

One run generates its inputs from ``--seed``, then ``SETUP_REPS`` times:

1. sets up: ingests, curates, builds and serializes the TSV into a model
   file, starts ``graphex serve`` on it and waits for the answer to one
   query (the write path plus the read path);
2. loads the model file in this process (the first time, also compares a
   sample of titles with the full-scan reference in ``tests/helpers.py``);
3. measures one round: single ``recommend`` calls alternating with
   ``recommend_batch`` at one worker and one worker per core, then an
   open-loop HTTP load on the server at the lowest grid rate.

Last, it offers the last server the higher grid rates until one falls
behind.  The measured phases share ``--seconds``.  Every output is checked;
a mismatch, an error or a non-200 answer counts as failed.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with ``--trace 0`` or
the per-layer metrics with ``--trace 1``.  The exit code is 0 only when
nothing failed.  Scratch files live in ``bench/.work/``; see
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import corpus
import http_load
from spans import Tracer, median, percentile

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]

try:
    from graphex import curation, storage
    from graphex.graph import build
    from graphex.inference import (
        BatchItem,
        Query,
        predictions_to_dicts,
        recommend,
        recommend_batch,
    )
    from graphex.vocab import tokenize, unique_tokens
    from helpers import brute_recommend, predictions_as_tuples
except ImportError as exc:
    sys.exit(f"bench/run.py runs from a graphex checkout (src/ and tests/): {exc}")

K = 10
SETUP_REPS = 3
WARMUP_QUERIES = 50
BATCH_ITEMS = 100
SLICE_S = 0.5  # one pass over the in-process phases
# Offered HTTP rates, req/s.  The lowest sits well under what two
# keep-alive connections sustain today (~45 req/s, limited by a ~40 ms
# Nagle/delayed-ACK stall), and no rate sits near that capacity, so the
# highest rate kept up does not flip between runs.
HTTP_RATES = (20, 60, 150, 400, 1000)
# Shares of --seconds, split evenly over the rounds except the higher
# HTTP rates, which run once at the end.  Batch shares are per worker count.
LATENCY_SHARE = 0.25
BATCH_SHARE = 0.15
HTTP_LOW_SHARE = 0.35
HTTP_STEP_SHARE = 0.05  # per higher rate
MAX_REPORTED_FAILURES = 20


@dataclass(frozen=True)
class Workload:
    name: str
    leaves: int
    pool: int  # distinct titles; every phase draws its queries from them
    brute_checks: int  # titles compared with the full-scan reference
    keyphrases: int = 250_000
    vocab: int = 100_000
    hot: int = 100


WORKLOADS = {
    # One 250k-keyphrase leaf: ~5,100 edges gathered and a dense count
    # over the whole leaf per query, so counting in `inference` dominates.
    "big_leaf": Workload("big_leaf", leaves=1, pool=1200, brute_checks=3),
    # The same keyphrases over 500 leaves: gathering is cheap, so
    # tokenizing and building predictions dominate a query, and per-leaf
    # storage and graph objects dominate set-up and memory.
    "many_leaves": Workload("many_leaves", leaves=500, pool=4000, brute_checks=200),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_state() -> tuple[str | None, bool | None]:
    if not (REPO / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
                             text=True, timeout=60, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=REPO,
                                capture_output=True, text=True, timeout=60, check=True)
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(status.stdout.strip())


class Bench:
    """One run of one workload; owns the scratch directory and the server."""

    def __init__(self, workload: Workload, seed: int | None, seconds: float, trace: bool,
                 work: Path) -> None:
        self.workload = workload
        self.seed = seed
        if seed is None:
            self.corpus_seed = corpus.ACCEPTANCE_CORPUS_SEED
            self.title_seed = corpus.ACCEPTANCE_TITLE_SEED
        else:
            self.corpus_seed, self.title_seed = seed, seed + 1
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.tracer = Tracer()
        self.server: http_load.ServerProcess | None = None
        self.model = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.report: list[str] = []
        self.fingerprint: dict = {}
        self.rounds = 0
        self.cursor = itertools.count()  # position in the title pool
        self.latency_ns: list[int] = []
        # Per worker count: items and ns spent in recommend_batch batches.
        self.batch_totals: dict[int, list[int]] = {1: [0, 0], nproc(): [0, 0]}
        self.http_steps: list[tuple[http_load.StepResult, list[int]]] = []
        self.totals = dict.fromkeys(("queries", "tokens", "oov", "rows_hit", "edges",
                                     "scanned", "candidates", "survivors"), 0)

    # -- bookkeeping -------------------------------------------------------

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.append(what)

    def expect(self, index: int, predictions: list) -> None:
        """First answer for a title becomes its expected answer; later ones must match."""
        if self.expected[index] is None:
            self.expected[index] = predictions
            self.attempted += 1
        else:
            self.check(predictions == self.expected[index],
                       f"title {index}: recommend changed its answer")

    def stop_server(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    # -- phases ------------------------------------------------------------

    def generate(self) -> None:
        wl = self.workload
        self.tsv = self.work / "rows.tsv"
        self.tsv.write_text("".join(corpus.keyphrase_lines(
            self.corpus_seed, wl.keyphrases, wl.vocab, wl.hot, wl.leaves)), encoding="utf-8")
        leaf_ids = [corpus.SINGLE_LEAF_ID] if wl.leaves == 1 else list(range(wl.leaves))
        self.pool = corpus.titles(self.title_seed, wl.pool, wl.vocab, wl.hot, leaf_ids)
        self.bodies = [json.dumps({"title": title, "leaf_category": leaf, "k": K}).encode()
                       for title, leaf in self.pool]
        self.expected: list[list | None] = [None] * wl.pool
        self.query_ns: list[list[int]] = [[] for _ in self.pool]
        self.model_path = self.work / "model.gex"

    def setup(self, rep: int) -> curation.CuratedDataset:
        """TSV on disk to a served model answering its first query."""
        tr = self.tracer
        report = curation.IngestReport()
        with tr.span("setup", rep):
            with tr.span("curation.ingest", rep):
                rows = list(curation.ingest(str(self.tsv), report))
            with tr.span("curation.curate", rep):
                dataset = curation.curate(rows, meta_category=self.workload.name)
            del rows
            with tr.span("graph.build", rep):
                model = build(dataset)
            with tr.span("storage.to_bytes", rep):
                blob = storage.to_bytes(model)
            with tr.span("storage.write", rep):
                self.model_path.write_bytes(blob)
            with tr.span("server.start", rep):
                self.server = http_load.ServerProcess(
                    str(REPO), str(self.model_path), str(self.work / f"serve-{rep}.log"))
                status, _ = self.server.wait_first_answer(self.bodies[0])
        self.check(status == 200 and report.rows_ok == self.workload.keyphrases
                   and report.rows_bad == 0,
                   f"set-up {rep}: {report.rows_ok} rows ingested, "
                   f"{report.rows_bad} malformed, first answer HTTP {status}")
        self.fingerprint = {
            "rows": report.rows_ok,
            "leaves": len(model.leaf_graphs),
            "vocabulary": len(model.vocabulary),
            "keyphrases": model.num_keyphrases,
            "edges": sum(g.num_edges for g in model.leaf_graphs.values()),
            "model_bytes": len(blob),
            "model_crc": f"{int.from_bytes(blob[-4:], 'little'):#010x}",
        }
        return dataset

    def load(self) -> None:
        with self.tracer.span("storage.read"):
            data = self.model_path.read_bytes()
        with self.tracer.span("storage.from_bytes"):
            self.model = storage.from_bytes(data)

    def check_reference(self, dataset: curation.CuratedDataset) -> None:
        """Compare a sample of titles with the full-scan reference."""
        for index in range(min(self.workload.brute_checks, len(self.pool))):
            title, leaf = self.pool[index]
            got = predictions_as_tuples(recommend(self.model, Query(title, leaf, K)))
            self.check(got == brute_recommend(dataset, leaf, title, K),
                       f"title {index}: recommend differs from the full-scan reference")

    def latency(self, seconds: float, min_queries: int = 1) -> None:
        """Single-caller recommend latencies, continuing through the title pool."""
        model, pool = self.model, self.pool
        deadline = perf_counter_ns() + int(seconds * 1e9)
        for i in itertools.count():
            index = next(self.cursor) % len(pool)
            title, leaf = pool[index]
            query = Query(title, leaf, K)
            start = perf_counter_ns()
            predictions = recommend(model, query)
            end = perf_counter_ns()
            self.latency_ns.append(end - start)
            self.query_ns[index].append(end - start)
            self.expect(index, predictions)
            if end >= deadline and i + 1 >= min_queries:
                return

    def traced_queries(self, seconds: float) -> None:
        """Time each layer's calls for one query, plus the counts at each boundary."""
        tr, model, pool, totals = self.tracer, self.model, self.pool, self.totals
        vocabulary = model.vocabulary
        deadline = perf_counter_ns() + int(seconds * 1e9)
        first = totals["queries"]
        while totals["queries"] == first or perf_counter_ns() < deadline:
            qid = totals["queries"]
            index = next(self.cursor) % len(pool)
            title, leaf = pool[index]
            graph = model.leaf(leaf)
            with tr.span("query", qid):
                with tr.span("vocab.tokenize", qid):
                    tokens = unique_tokens(tokenize(title))
                with tr.span("vocab.lookup", qid):
                    ids = [vocabulary.lookup(token) for token in tokens]
                with tr.span("graph.row_of", qid):
                    rows = [graph.row_of(token_id) for token_id in ids if token_id is not None]
                with tr.span("inference.recommend", qid):
                    predictions = recommend(model, Query(title, leaf, K))
            self.expect(index, predictions)
            adjacency = [graph.adjacency_row(row) for row in rows if row is not None]
            totals["queries"] += 1
            totals["tokens"] += len(tokens)
            totals["oov"] += sum(1 for token_id in ids if token_id is None)
            totals["rows_hit"] += len(adjacency)
            totals["edges"] += sum(len(adj) for adj in adjacency)
            totals["scanned"] += graph.num_keyphrases
            totals["candidates"] += (np.unique(np.concatenate(adjacency)).size
                                     if adjacency else 0)
            totals["survivors"] += len(predictions)

    def batch(self, workers: int, seconds: float) -> None:
        """recommend_batch + predictions_to_dicts on batches of BATCH_ITEMS titles."""
        pool = self.pool
        totals = self.batch_totals[workers]
        deadline = perf_counter_ns() + int(seconds * 1e9)
        while True:
            indices = [next(self.cursor) % len(pool) for _ in range(BATCH_ITEMS)]
            items = [BatchItem(str(index), Query(*pool[index], K)) for index in indices]
            start = perf_counter_ns()
            results = recommend_batch(self.model, items, workers=workers)
            rows = [predictions_to_dicts(result.predictions) for result in results]
            end = perf_counter_ns()
            totals[0] += len(rows)
            totals[1] += end - start
            for index, result in zip(indices, results):
                self.check(result.error is None and result.predictions == self.expected[index],
                           f"title {index}: recommend_batch(workers={workers}) differs "
                           f"from recommend ({result.error})")
            if end >= deadline:
                return

    def http_step(self, rate: float, seconds: float, part: int) -> http_load.StepResult:
        """One open-loop step against the current server; every answer is checked."""
        rng = random.Random(f"http-{self.title_seed}-{rate}-{part}")
        offsets = http_load.schedule(rng, rate, seconds)
        picks = [rng.randrange(len(self.pool)) for _ in offsets]
        step = http_load.run_step(self.server.port, rate, [self.bodies[i] for i in picks],
                                  offsets, nproc())
        for sent in step.sent:
            index = picks[sent.request]
            try:
                body = json.loads(sent.body)
            except ValueError:
                body = None
            self.check(sent.status == 200
                       and body == {"predictions": predictions_to_dicts(self.expected[index])},
                       f"title {index}: HTTP {sent.status} answer differs from recommend")
            if self.trace:
                self.tracer.record("server.request", sent.sent, sent.done, sent.request)
        latencies = [sent.latency_ms for sent in step.sent]
        self.report.append(
            f"http_step rate={rate} req/s part={part} scheduled={step.scheduled} "
            f"sent={len(step.sent)} kept_up={step.kept_up} p50={median(latencies):.3f} ms "
            f"p90={percentile(latencies, 0.9):.3f} ms "
            f"achieved={http_load.achieved_rps([step]):.2f} req/s")
        self.http_steps.append((step, picks))
        return step

    def measure(self) -> None:
        """One round against the current model and server.

        The in-process phases alternate in short slices, so that each
        metric samples the whole round rather than one stretch of it.  The
        first round starts by querying every title once, which fixes the
        answers that everything later is checked against.
        """
        seconds = self.seconds / SETUP_REPS
        for _ in range(WARMUP_QUERIES):
            recommend(self.model, Query(*self.pool[next(self.cursor) % len(self.pool)], K))
        inproc_share = LATENCY_SHARE + BATCH_SHARE * len(self.batch_totals)
        deadline = perf_counter_ns() + int(inproc_share * seconds * 1e9)
        min_queries = len(self.pool) if self.expected[-1] is None else 1
        while perf_counter_ns() < deadline:
            latency_s = SLICE_S * LATENCY_SHARE / inproc_share
            if self.trace:
                self.latency(latency_s / 2, min_queries)
                self.traced_queries(latency_s / 2)
            else:
                self.latency(latency_s, min_queries)
            min_queries = 1
            for workers in self.batch_totals:
                self.batch(workers, SLICE_S * BATCH_SHARE / inproc_share)
        self.http_step(HTTP_RATES[0], HTTP_LOW_SHARE * seconds, self.rounds)
        self.rounds += 1

    # -- the run -----------------------------------------------------------

    def execute(self) -> dict[str, tuple[float, str]]:
        """Set up SETUP_REPS times; after each set-up, measure one round.

        Spreading the measured phases over the whole run, rather than
        measuring once at the end, averages out the seconds-long swings in
        CPU speed of a shared host.
        """
        self.generate()
        for rep in range(SETUP_REPS):
            self.stop_server()
            self.model = None
            gc.collect()
            dataset = self.setup(rep)
            self.load()
            if rep == 0:
                self.check_reference(dataset)
            del dataset
            gc.collect()
            self.measure()
        if all(step.kept_up for step, _ in self.http_steps):
            for rate in HTTP_RATES[1:]:
                if not self.http_step(rate, HTTP_STEP_SHARE * self.seconds, 0).kept_up:
                    break
        rss_mb = self.server.peak_rss_mb()
        self.report.append(
            f"query_latency n={len(self.latency_ns)} "
            + " ".join(f"p{round(q * 100)}={percentile(self.latency_ns, q) / 1e3:.1f} us"
                       for q in (0.5, 0.9, 0.95, 0.99)))
        self.stop_server()

        by_rate: dict[float, list[http_load.StepResult]] = {}
        for step, _ in self.http_steps:
            by_rate.setdefault(step.rate, []).append(step)
        low = by_rate[HTTP_RATES[0]]
        kept = [steps for steps in by_rate.values() if all(step.kept_up for step in steps)]
        if self.trace:
            return self.layer_metrics(low, kept)
        low_ms = [sent.latency_ms for step in low for sent in step.sent]
        return {
            "setup_s": (median(self.tracer.durations("setup")) / 1e9, "s"),
            "rss_mb": (rss_mb, "MB"),
            "query_p50_us": (median(self.latency_ns) / 1e3, "us"),
            "query_p95_us": (percentile(self.latency_ns, 0.95) / 1e3, "us"),
            "batch_qps_w1": (self.batch_rate(1), "items/s"),
            "batch_qps_wn": (self.batch_rate(nproc()), "items/s"),
            "http_p90_ms": (percentile(low_ms, 0.9), "ms"),
            "http_max_rps": (http_load.achieved_rps(kept[-1] if kept else low), "req/s"),
        }

    def batch_rate(self, workers: int) -> float:
        items, ns = self.batch_totals[workers]
        return items / (ns / 1e9)

    def layer_metrics(self, low, kept) -> dict[str, tuple[float, str]]:
        tr, totals = self.tracer, self.totals

        def med_us(name: str) -> float:
            return median(tr.durations(name)) / 1e3

        def med_s(name: str) -> float:
            return median(tr.durations(name)) / 1e9

        spans = {name: tr.by_qid(name) for name in
                 ("vocab.tokenize", "vocab.lookup", "graph.row_of", "inference.recommend")}
        rest = [recommend_ns - spans["vocab.tokenize"][qid] - spans["vocab.lookup"][qid]
                - spans["graph.row_of"][qid]
                for qid, recommend_ns in spans["inference.recommend"].items()]
        queries = totals["queries"]
        low_titles_ns = [ns for step, picks in self.http_steps if step.rate == HTTP_RATES[0]
                         for index in picks for ns in self.query_ns[index]]
        low_ms = [sent.latency_ms for step in low for sent in step.sent]
        late_ms = [sent.late_ms for steps in (kept or [low]) for step in steps
                   for sent in step.sent]
        for name, ns in sorted(tr.self_times().items()):
            self.report.append(f"self_time {name} {ns / 1e6:.3f} ms")
        return {
            "vocab.tokenize_us": (med_us("vocab.tokenize"), "us"),
            "vocab.lookup_us": (med_us("vocab.lookup"), "us"),
            "vocab.oov_frac": (totals["oov"] / totals["tokens"], "ratio"),
            "graph.row_of_us": (med_us("graph.row_of"), "us"),
            "graph.rows_hit_per_query": (totals["rows_hit"] / queries, "count"),
            "graph.edges_gathered_per_query": (totals["edges"] / queries, "count"),
            "graph.build_s": (med_s("graph.build"), "s"),
            "inference.leaf_kp_scanned_per_query": (totals["scanned"] / queries, "count"),
            "inference.candidates_per_query": (totals["candidates"] / queries, "count"),
            "inference.useful_frac": (totals["candidates"] / totals["scanned"], "ratio"),
            "inference.survivors_per_query": (totals["survivors"] / queries, "count"),
            "inference.recommend_us": (med_us("inference.recommend"), "us"),
            "inference.rest_us": (median(rest) / 1e3, "us"),
            "curation.ingest_s": (med_s("curation.ingest"), "s"),
            "curation.curate_s": (med_s("curation.curate"), "s"),
            "storage.to_bytes_s": (med_s("storage.to_bytes"), "s"),
            "storage.from_bytes_s": (med_s("storage.from_bytes"), "s"),
            "storage.model_mb": (self.fingerprint["model_bytes"] / 1e6, "MB"),
            "server.start_s": (med_s("server.start"), "s"),
            "server.overhead_ms": (median(low_ms) - median(low_titles_ns) / 1e6, "ms"),
            "server.generator_late_ms": (percentile(late_ms, 0.9), "ms"),
            "trace.overhead_us": (med_us("query") - median(self.latency_ns) / 1e3, "us"),
        }

    def context(self) -> dict:
        sha, dirty = git_state()
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "corpus_seed": self.corpus_seed,
            "title_seed": self.title_seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "git_sha": sha,
            "git_dirty": dirty,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": nproc(),
            "corpus": self.fingerprint,
        }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the acceptance suite's seeds)")
    parser.add_argument("--seconds", type=float, default=22.0,
                        help="time shared by the measured phases")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from spans instead of end-to-end metrics")
    return parser.parse_args(argv)


def _terminate(signum, frame) -> None:
    sys.exit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    workload = WORKLOADS[args.workload]
    out_dir = BENCH / ".work"
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = out_dir / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    bench = Bench(workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        metrics = bench.execute()
    finally:
        bench.stop_server()
        shutil.rmtree(work, ignore_errors=True)
    context = bench.context()
    bench.tracer.write(str(out_dir / f"{tag}.spans.jsonl"))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(
        {"context": context, "report": bench.report, "failures": bench.failures, **result},
        indent=2) + "\n", encoding="utf-8")

    for failure in bench.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print("context " + json.dumps(context))
    for line in bench.report:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_frac {bench.failed / bench.attempted:.6g} ratio "
          f"({bench.failed} of {bench.attempted} operations)")
    print(json.dumps(result), flush=True)
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
