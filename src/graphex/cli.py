"""Command-line interface: train, infer, eval, serve, stats.

Exit codes: 0 on success, 1 on runtime failures (corrupt model, oracle
breakdown), 2 on usage errors such as bad flags or missing input files.
Logging verbosity comes from the GRAPHEX_LOG environment variable
(DEBUG, INFO, WARNING, ERROR).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from itertools import islice
from typing import IO, Iterator

from . import curation, evaluation, storage
from .graph import Model, build
from .inference import (
    _RANK_CHUNK,
    DEFAULT_K,
    DEFAULT_MAX_PREDICTIONS,
    Alignment,
    BatchItem,
    Query,
    encode_row,
    recommend_batch,
)
from .server import ServeConfig, serve

log = logging.getLogger("graphex.cli")

MAX_REPORTED_ROW_ERRORS = 20


class UsageError(ValueError):
    """Bad flag values discovered after argparse (exit code 2)."""


def _configure_logging() -> None:
    level_name = os.environ.get("GRAPHEX_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(asctime)s %(name)s %(levelname)s %(message)s")


def _require_file(path: str) -> str:
    if not os.path.isfile(path):
        raise FileNotFoundError(f"no such file: {path}")
    return path


def _open_out(path: str) -> IO[str]:
    if path == "-":
        return sys.stdout
    return open(path, "w", encoding="utf-8")


def _close_out(handle: IO[str]) -> None:
    if handle is not sys.stdout:
        handle.close()


def cmd_train(args: argparse.Namespace) -> int:
    _require_file(args.input)
    orientation = curation.ScoreOrientation.from_name(args.score_orientation)
    started = time.perf_counter()
    report = curation.IngestReport()
    # Ingest feeds curate row by row, so the two are timed together.
    rows = curation.ingest(args.input, report=report)
    dataset = curation.curate(
        rows,
        min_search=args.min_search_count,
        orientation=orientation,
        meta_category=args.meta_category,
    )
    curate_s = time.perf_counter() - started
    for error in report.errors[:MAX_REPORTED_ROW_ERRORS]:
        print(f"{args.input}:{error.line_no}: {error.message}", file=sys.stderr)
    if report.rows_bad > MAX_REPORTED_ROW_ERRORS:
        print(
            f"... and {report.rows_bad - MAX_REPORTED_ROW_ERRORS} more malformed rows",
            file=sys.stderr,
        )
    for warning in dataset.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    build_started = time.perf_counter()
    model = build(dataset)
    save_started = time.perf_counter()
    nbytes = storage.save(model, args.output)
    finished = time.perf_counter()
    total_edges = sum(g.num_edges for g in model.leaf_graphs.values())
    print(f"rows: {report.rows_ok} ok, {report.rows_bad} malformed")
    print(
        f"model: {len(model.leaf_graphs)} leaves, {len(model.vocabulary)} tokens, "
        f"{total_edges} edges, {model.num_keyphrases} keyphrases"
    )
    print(
        f"wrote {args.output} ({nbytes} bytes) in {finished - started:.2f}s "
        f"(read+curate {curate_s:.2f}s, build {save_started - build_started:.2f}s, "
        f"save {finished - save_started:.2f}s)"
    )
    return 0


def _read_items(path: str, k: int) -> Iterator[tuple[str, str | None, BatchItem | None]]:
    """Yield (item id, error, batch item) per line of an items TSV."""
    for line_no, line, error in curation.read_lines(path):
        fields = line.split("\t")
        item_id = fields[0] if fields[0] else f"line-{line_no}"
        if error is not None:
            if curation.utf8_error(item_id) is not None:
                item_id = f"line-{line_no}"
            yield item_id, error, None
            continue
        if len(fields) != 3:
            yield item_id, f"expected 3 tab-separated columns, got {len(fields)}", None
            continue
        try:
            leaf = int(fields[2])
        except ValueError:
            yield item_id, f"bad leaf category: {fields[2]!r}", None
            continue
        yield item_id, None, BatchItem(item_id, Query(fields[1], leaf, k=k))


def _check_limits(*limits: tuple[str, int, int]) -> None:
    for flag, value, minimum in limits:
        if value < minimum:
            raise UsageError(f"{flag} must be >= {minimum}, got {value}")


def cmd_infer(args: argparse.Namespace) -> int:
    _check_limits(("--k", args.k, 1), ("--max-predictions", args.max_predictions, 1))
    _require_file(args.model)
    _require_file(args.items)
    if (args.output != "-" and os.path.exists(args.output)
            and os.path.samefile(args.output, args.items)):
        raise UsageError(f"--output must differ from --items, got {args.output} for both")
    model = storage.load(args.model)
    align = Alignment(args.align)

    # Write each chunk's rows before reading the next, so memory holds one chunk.
    lines = _read_items(args.items, args.k)
    total = failed = 0
    out = _open_out(args.output)
    try:
        while chunk := list(islice(lines, _RANK_CHUNK)):
            items = [item for _, _, item in chunk if item is not None]
            results = iter(recommend_batch(
                model, items, align=align, max_predictions=args.max_predictions))
            rows = []
            for item_id, error, item in chunk:
                title, predictions = None, []
                if item is not None:
                    result = next(results)
                    title, predictions, error = item.query.title, result.predictions, result.error
                failed += error is not None
                rows.append(encode_row(predictions, item_id, title, error) + "\n")
            out.write("".join(rows))
            total += len(chunk)
    finally:
        _close_out(out)
    if failed:
        print(f"{failed} of {total} items failed", file=sys.stderr)
    return 0


def _parse_runs(specs: list[str]) -> list[tuple[str, str]]:
    runs: list[tuple[str, str]] = []
    seen: set[str] = set()
    for spec_text in specs:
        name, sep, path = spec_text.partition("=")
        if not sep or not name or not path:
            raise UsageError(f"run must look like name=predictions.jsonl, got {spec_text!r}")
        if name in seen:
            raise UsageError(f"duplicate run name: {name!r}")
        seen.add(name)
        runs.append((name, path))
    return runs


def _make_oracle(spec_text: str) -> evaluation.RelevanceOracle:
    kind, sep, rest = spec_text.partition(":")
    if kind == "heuristic" and not sep:
        return evaluation.TokenOverlapOracle()
    if kind == "fixture" and rest:
        return evaluation.FixtureOracle.from_tsv(_require_file(rest))
    if kind == "http" and rest:
        return evaluation.HttpCompletionOracle(rest)
    raise UsageError(
        f"oracle must be fixture:<path>, heuristic, or http:<url>; got {spec_text!r}"
    )


def _load_titles(path: str) -> dict[str, str]:
    titles: dict[str, str] = {}
    for line_no, line, error in curation.read_lines(path):
        if error is not None:
            raise ValueError(f"{path}:{line_no}: {error}")
        fields = line.split("\t")
        if len(fields) < 2:
            raise ValueError(f"{path}:{line_no}: expected item_id<TAB>title")
        titles[fields[0]] = fields[1]
    return titles


def _load_universe(path: str) -> dict[str, float]:
    counts: dict[str, float] = {}
    for line_no, line, error in curation.read_lines(path):
        fields = line.split("\t")
        try:
            if error is not None:
                raise ValueError(error)
            if len(fields) != 2:
                raise ValueError("expected keyphrase<TAB>count")
            if fields[0] in counts:
                raise ValueError(f"duplicate keyphrase in universe: {fields[0]!r}")
            counts[fields[0]] = curation._parse_score(fields[1], "search count")
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None
    return counts


def cmd_eval(args: argparse.Namespace) -> int:
    _check_limits(("--max-in-flight", args.max_in_flight, 1), ("--retries", args.retries, 0))
    run_specs = _parse_runs(args.runs)
    oracle = _make_oracle(args.oracle)
    runs = [evaluation.ModelRun.from_jsonl(name, _require_file(path)) for name, path in run_specs]

    if args.items:
        titles = _load_titles(_require_file(args.items))
        for run in runs:
            for item in run.items:
                if item.title is None:
                    item.title = titles.get(item.item_id)

    cache = evaluation.JudgmentCache()
    judgments: list[evaluation.Judgment] = []
    errors: list[evaluation.JudgeError] = []
    for run in runs:
        judged, failed = evaluation.judge(
            run, oracle, cache=cache,
            max_in_flight=args.max_in_flight, retries=args.retries,
        )
        judgments.extend(judged)
        errors.extend(failed)
    if errors:
        for err in errors[:MAX_REPORTED_ROW_ERRORS]:
            print(f"judge error: item {err.item_id} keyphrase {err.keyphrase!r}: {err.message}",
                  file=sys.stderr)
        print(f"error: {len(errors)} pairs could not be judged", file=sys.stderr)
        return 1

    orientation = curation.ScoreOrientation.from_name(args.score_orientation)
    canonical = orientation.canonical_search
    if args.keyphrase_universe:
        search_counts = _load_universe(_require_file(args.keyphrase_universe))
    else:
        # Each keyphrase's best search score across the runs; a prediction
        # without one adds nothing.
        search_counts = {}
        for run in runs:
            for item in run.items:
                for pred in item.predictions:
                    if pred.search is None:
                        continue
                    current = search_counts.get(pred.keyphrase)
                    if current is None or canonical(pred.search) > canonical(current):
                        search_counts[pred.keyphrase] = pred.search
        if not search_counts:
            raise ValueError("no prediction in the runs has a search score; "
                             "give the scores with --keyphrase-universe")

    threshold = evaluation.head_threshold(
        sorted(search_counts.items()), percentile=args.head_percentile, orientation=orientation
    )
    baseline = args.baseline if args.baseline is not None else runs[0].name
    report = evaluation.compute_metrics(
        runs, judgments, threshold, baseline, search_counts=search_counts
    )

    payload = report.to_dict()
    payload["judging"] = {
        "oracle": oracle.name,
        "pairs_judged": len(cache),
        "cache_hits": cache.hits,
        "errors": len(errors),
    }
    out = _open_out(args.report)
    try:
        out.write(json.dumps(payload, indent=2) + "\n")
    finally:
        _close_out(out)

    def fmt(value: float | None) -> str:
        return "n/a" if value is None else f"{value:.4f}"

    for name, m in report.models.items():
        print(
            f"{name}: rp={fmt(m.rp)} hp={fmt(m.hp)} "
            f"rrr={fmt(m.rrr_vs_baseline)} rhr={fmt(m.rhr_vs_baseline)}"
        )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    _check_limits(("--k", args.k, 1), ("--max-predictions", args.max_predictions, 1))
    if not 0 <= args.port <= 65535:
        raise UsageError(f"--port must be 0-65535, got {args.port}")
    _require_file(args.model)
    model = storage.load(args.model)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        default_k=args.k,
        align=Alignment(args.align),
        max_predictions=args.max_predictions,
        unknown_leaf_empty=args.unknown_leaf_empty,
    )
    print(f"serving {args.model} on http://{config.host}:{config.port}")
    serve(config, model)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    _require_file(args.model)
    model, data = storage.read(args.model)
    print(
        f"model: format {storage.FORMAT_VERSION}, crc 0x{storage.stored_crc(data):08x}, "
        f"{model.num_keyphrases} keyphrases, {len(model.vocabulary)} vocabulary tokens, "
        f"{len(data)} bytes"
    )
    total_edges = 0
    total_bytes = 0
    for leaf_id in model.leaf_categories:
        graph = model.leaf(leaf_id)
        nbytes = storage.leaf_block_nbytes(graph)
        total_edges += graph.num_edges
        total_bytes += nbytes
        avg_degree = graph.num_edges / graph.num_tokens if graph.num_tokens else 0.0
        print(
            f"leaf {leaf_id}: {graph.num_keyphrases} keyphrases, {graph.num_tokens} tokens, "
            f"{graph.num_edges} edges, avg degree {avg_degree:.2f}, {nbytes} bytes"
        )
    print(
        f"total: {len(model.leaf_graphs)} leaves, {len(model.vocabulary)} tokens, "
        f"{total_edges} edges, {model.num_keyphrases} keyphrases, "
        f"{total_bytes} graph bytes"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphex",
        description="Keyphrase recommendation over per-category token graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="curate a TSV and build a model file")
    train.add_argument("--input", required=True, help="TSV: keyphrase, leaf, search, recall")
    train.add_argument("--output", required=True, help="model file to write")
    train.add_argument("--min-search-count", type=float, default=None,
                       help="drop keyphrases below this search score (per orientation)")
    train.add_argument("--score-orientation", choices=["count", "rank"], default="count",
                       help="count: higher search better; rank: lower better")
    train.add_argument("--meta-category", default="", help="label stored in the model")
    train.set_defaults(func=cmd_train)

    infer = sub.add_parser("infer", help="batch recommendations to JSONL")
    infer.add_argument("--model", required=True)
    infer.add_argument("--items", required=True, help="TSV: item_id, title, leaf_category")
    infer.add_argument("--k", type=int, default=DEFAULT_K)
    infer.add_argument("--align", choices=[a.value for a in Alignment], default="lta")
    infer.add_argument("--max-predictions", type=int, default=DEFAULT_MAX_PREDICTIONS)
    infer.add_argument("--output", default="-", help="JSONL path, - for stdout")
    infer.set_defaults(func=cmd_infer)

    evalp = sub.add_parser("eval", help="judge prediction runs and report metrics")
    evalp.add_argument("--runs", nargs="+", required=True, metavar="NAME=JSONL")
    evalp.add_argument("--oracle", required=True,
                       help="fixture:<path>, heuristic, or http:<url>")
    evalp.add_argument("--items", default=None, help="TSV with titles for judging")
    evalp.add_argument("--keyphrase-universe", default=None,
                       help="TSV keyphrase<TAB>search count for the head threshold")
    evalp.add_argument("--head-percentile", type=float, default=90.0)
    evalp.add_argument("--score-orientation", choices=["count", "rank"], default="count",
                       help="search scores of the runs and the universe: count, higher "
                            "is head; rank, lower is head")
    evalp.add_argument("--baseline", default=None, help="run name ratios compare against")
    evalp.add_argument("--report", default="-", help="JSON report path, - for stdout")
    evalp.add_argument("--max-in-flight", type=int, default=1)
    evalp.add_argument("--retries", type=int, default=1)
    evalp.set_defaults(func=cmd_eval)

    servep = sub.add_parser("serve", help="HTTP recommendation endpoint")
    servep.add_argument("--model", required=True)
    servep.add_argument("--host", default="127.0.0.1")
    servep.add_argument("--port", type=int, default=8080)
    servep.add_argument("--k", type=int, default=DEFAULT_K)
    servep.add_argument("--align", choices=[a.value for a in Alignment], default="lta")
    servep.add_argument("--max-predictions", type=int, default=DEFAULT_MAX_PREDICTIONS)
    servep.add_argument("--unknown-leaf-empty", action="store_true",
                        help="answer unknown leaves with 200 and no predictions")
    servep.set_defaults(func=cmd_serve)

    stats = sub.add_parser("stats", help="model fingerprint and per-leaf graph statistics")
    stats.add_argument("--model", required=True)
    stats.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # Standard output's reader left early (``graphex stats | head -1``).
        # Say nothing; pointing stdout at devnull keeps the flush at exit
        # quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (FileNotFoundError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (storage.ModelFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
