"""Command-line front end: cut generation, solving, verification, export.

Every command reads instance files in the one-per-line text format (anything
after whitespace on a line is a comment) and isolates per-instance failures.
Each command is one worker, ``worker(args, many, instance_id, token) ->
(ok, text, record)``, over the parsed arguments. ``main`` runs it on every
instance, in order or on ``--jobs`` processes, prints each text in input
order and, when --results-csv is given, appends one self-describing row per
instance and run. MSCP_LOG=debug|info|warning controls logging.

Per-instance names: an instance is ``<file name>:<line>``. When a file holds
more than one instance, each per-instance path (--out, --progress-csv,
--trace-csv, and the --cuts-file that solve and export read) gets the line
number before its suffix: ``--out x.unav`` means ``x.2.unav`` for line 2.
export writes into ``<out-dir>/instance_<line>/``. genunav's default --out is
the grid file with suffix ``.unav`` under the same rule, so a batch reads its
own genunav output back with ``--cuts-file <grid_file stem>.unav``. A file
with one instance uses every path as given.

Flag ranges (anything else is a usage error, exit 2): --max-sets, --max-size,
--max-cut-size and --jobs at least 1; --seed-cuts and --max-time at least 0;
--budget comma-separated ``<seconds>[s]`` and ``<nodes>n`` parts, at most
one of each, none negative.
"""
from __future__ import annotations

import argparse
import csv
import logging
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Optional

from .engine import SearchBudget, count_solutions
from .export import export_bilevel
from .grid import (
    GridError,
    infer_size,
    iter_instance_lines,
    parse_grid,
    parse_puzzle,
)
from .solver import MscpConfig, MscpStatus, solve_mscp
from .unavoidable import GenerationLimits, generate_all, load_collection, save_collection

__all__ = ["main", "RESULT_FIELDS", "TIME_BUCKETS", "bucket_label", "parse_budget"]

RESULT_FIELDS = [
    "instance_id",
    "command",
    "config",
    "status",
    "lower_bound",
    "upper_bound",
    "iterations",
    "nodes",
    "elapsed_seconds",
]

# bucket edges (seconds) for the generation-time frequency table
TIME_BUCKETS = [1, 10, 30, 60, 300, 600, 1800, 3600, 7200]


def bucket_label(seconds: float) -> str:
    if seconds <= TIME_BUCKETS[0]:
        return f"<={TIME_BUCKETS[0]}"
    for low, high in zip(TIME_BUCKETS, TIME_BUCKETS[1:]):
        if seconds <= high:
            return f"{low}-{high}"
    return f">={TIME_BUCKETS[-1]}"


def bucket_table(times: list[float]) -> list[tuple[str, int]]:
    counts = Counter(map(bucket_label, times))
    return [(label, counts[label]) for label in map(bucket_label, [*TIME_BUCKETS, math.inf])]


def parse_budget(text: Optional[str]) -> SearchBudget:
    """'60', '60s', '500000n', or '60s,500000n'; ValueError if malformed,
    negative, or a second time or node part."""
    if not text:
        return SearchBudget()
    limits: dict = {}
    for part in text.split(","):
        part = part.strip().lower()
        if not part:
            continue
        kind = "max_nodes" if part.endswith("n") else "max_time"
        value = int(part[:-1]) if kind == "max_nodes" else float(part.removesuffix("s"))
        if not value >= 0:
            raise ValueError(f"budget part {part!r} is not a non-negative number")
        if kind in limits:
            raise ValueError(f"budget part {part!r} repeats a {kind} limit")
        limits[kind] = value
    return SearchBudget(**limits)


def _append_record(path: Optional[str], record: dict) -> None:
    if not path:
        return
    file = Path(path)
    new = not file.exists() or file.stat().st_size == 0
    with open(file, "a", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_FIELDS)
        if new:
            writer.writeheader()
        writer.writerow({key: record.get(key, "") for key in RESULT_FIELDS})


def _instances(path: str) -> list[tuple[str, str]]:
    name = Path(path).name
    items = [(f"{name}:{lineno}", token) for lineno, token in iter_instance_lines(path)]
    if not items:
        raise GridError(f"no instances found in {path}")
    return items


def _grid_instances(args) -> list[tuple[str, str]]:
    return _instances(args.grid_file)


def _paired_instances(args) -> list[tuple[str, tuple[str, str]]]:
    """verify's input: the n-th grid with the n-th puzzle, ids from the grid file."""
    grids = _instances(args.grid_file)
    puzzles = _instances(args.puzzle_file)
    if len(grids) != len(puzzles):
        raise GridError(
            f"instance counts differ: {len(grids)} grids vs {len(puzzles)} puzzles"
        )
    return [(gid, (gtoken, ptoken)) for (gid, gtoken), (_, ptoken) in zip(grids, puzzles)]


def _derived_path(base: Optional[str], many: bool, instance_id: str) -> Optional[str]:
    """Per-instance path: line number before the suffix in a batch."""
    if base is None:
        return None
    if not many:
        return base
    p = Path(base)
    lineno = instance_id.rsplit(":", 1)[1]
    return str(p.with_name(f"{p.stem}.{lineno}{p.suffix}"))


def _at_least(low: int, convert=int):
    """argparse type: a number read by `convert` that is at least `low`."""

    def check(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if not value >= low:  # also rejects NaN
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value

    return check


def _budget_text(text: str) -> str:
    """argparse type: a --budget that parse_budget accepts, kept as given."""
    try:
        parse_budget(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _genunav(args, many: bool, instance_id: str, token: str) -> tuple[bool, str, dict]:
    grid = parse_grid(token, infer_size(token))
    collection = generate_all(
        grid,
        GenerationLimits(max_sets=args.max_sets, max_size=args.max_size),
        budget=SearchBudget(max_time=args.max_time),
    )
    default_out = str(Path(args.grid_file).with_suffix(".unav"))
    out_path = _derived_path(args.out or default_out, many, instance_id)
    save_collection(collection, out_path)
    progress_csv = _derived_path(args.progress_csv, many, instance_id)
    if progress_csv:
        with open(progress_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["set_index", "m", "elapsed_seconds"])
            writer.writerows(
                (index, rec.cells.size, rec.seconds)
                for index, rec in enumerate(collection.records)
            )
    seconds = [0.0] + [rec.seconds for rec in collection.records]
    table = bucket_table([b - a for a, b in zip(seconds, seconds[1:])])
    lines = [f"{instance_id}: {len(collection)} sets -> {out_path}"]
    lines.append("generation time [s]   sets")
    for label, count in table:
        lines.append(f"{label:<21} {count}")
    return True, "\n".join(lines), {
        "config": f"max_sets={args.max_sets};max_size={args.max_size};max_time={args.max_time}",
        "status": "complete" if collection.complete else "incomplete",
        "iterations": len(collection),
    }


def _solve(args, many: bool, instance_id: str, token: str) -> tuple[bool, str, dict]:
    grid = parse_grid(token, infer_size(token))
    cuts_file = _derived_path(args.cuts_file, many, instance_id)
    seed_collection = load_collection(cuts_file, grid) if cuts_file else None
    config = MscpConfig(
        initial_cuts=args.seed_cuts,
        max_cut_size=args.max_cut_size,
        solve_budget=parse_budget(args.budget),
        seed_collection=seed_collection,
    )
    result = solve_mscp(grid, config)
    trace_csv = _derived_path(args.trace_csv, many, instance_id)
    if trace_csv:
        with open(trace_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["iteration", "lower", "upper", "certificate_size", "elapsed_seconds"]
            )
            for entry in result.trace:
                writer.writerow(
                    [
                        entry.iteration,
                        entry.lower,
                        entry.upper,
                        entry.certificate_size,
                        f"{entry.elapsed:.6f}",
                    ]
                )
    if result.status is MscpStatus.OPTIMAL:
        text = f"{instance_id}: optimum {result.upper_bound}"
    else:
        text = (
            f"{instance_id}: {result.status.value} "
            f"lower={result.lower_bound} upper={result.upper_bound}"
        )
    return True, text, {
        "config": f"seed_cuts={args.seed_cuts};cuts_file={cuts_file or 'none'};"
        f"max_cut_size={args.max_cut_size or 'none'};budget={args.budget or 'none'}",
        "status": result.status.value,
        "lower_bound": result.lower_bound,
        "upper_bound": result.upper_bound,
        "iterations": result.iterations,
        "nodes": result.nodes,
    }


def _verify(
    args, many: bool, instance_id: str, tokens: tuple[str, str]
) -> tuple[bool, str, dict]:
    size = infer_size(tokens[0])
    grid = parse_grid(tokens[0], size)
    puzzle = parse_puzzle(tokens[1], size)
    if any(given and given != sol for given, sol in zip(puzzle.entries, grid.entries)):
        status = "MISMATCH"
    elif count_solutions(puzzle, 2) == 1:
        status = "VALID"
    else:
        status = "INVALID(multiple)"
    return status == "VALID", f"{instance_id}: {status}", {"status": status}


def _export(args, many: bool, instance_id: str, token: str) -> tuple[bool, str, dict]:
    grid = parse_grid(token, infer_size(token))
    cuts_file = _derived_path(args.cuts_file, many, instance_id)
    cuts = load_collection(cuts_file, grid) if cuts_file else None
    out_dir = Path(args.out_dir)
    if many:
        out_dir /= f"instance_{instance_id.rsplit(':', 1)[1]}"
    files = export_bilevel(grid, cuts, out_dir)
    text = (
        f"{instance_id}: {files.model_path} {files.aux_path}"
        + (f" {files.cuts_path}" if files.cuts_path else "")
        + f"\n{instance_id}: {files.variable_count} variables, "
        f"{files.constraint_count} constraint rows"
    )
    return True, text, {
        "status": "ok",
        "iterations": files.constraint_count,
        "nodes": files.variable_count,
    }


def _run_one(args, many: bool, instance_id: str, token) -> tuple[bool, str, dict]:
    """One instance of one command; a failure becomes an error outcome.

    The command's worker returns (ok, text, record): whether the instance
    passed, its stdout lines, and its results-CSV fields.
    """
    started = perf_counter()
    try:
        ok, text, record = args.worker(args, many, instance_id, token)
    except Exception as exc:  # per-instance isolation
        text = f"{instance_id}: ERROR {exc}"
        record = {"status": f"error:{type(exc).__name__}"}
        ok = False
    record["instance_id"] = instance_id
    record["command"] = args.command
    record["elapsed_seconds"] = f"{perf_counter() - started:.3f}"
    return ok, text, record


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minclue",
        description="Exact minimum-clue analysis of completed Sudoku grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, worker, instances=_grid_instances):
        p = sub.add_parser(name, help=help)
        p.add_argument("grid_file")
        p.add_argument("--results-csv", default=None)
        p.set_defaults(worker=worker, instances=instances, jobs=1)
        return p

    p = command("genunav", "generate minimal unavoidable sets", _genunav)
    p.add_argument("--max-sets", type=_at_least(1), default=GenerationLimits.max_sets)
    p.add_argument("--max-size", type=_at_least(1), default=None)
    p.add_argument("--max-time", type=_at_least(0, float), default=None)
    p.add_argument("--out", default=None, help="collection file (default <grid_file>.unav)")
    p.add_argument("--progress-csv", default=None)
    p.add_argument("--jobs", type=_at_least(1), default=1)

    p = command("solve", "solve the minimum-clue problem", _solve)
    p.add_argument("--seed-cuts", type=_at_least(0), default=MscpConfig.initial_cuts)
    p.add_argument("--cuts-file", default=None, help="reuse a genunav collection")
    p.add_argument(
        "--max-cut-size", type=_at_least(1), default=None, help="cap seeded cut size"
    )
    p.add_argument(
        "--budget",
        type=_budget_text,
        default=None,
        help="e.g. 300s, 2000000n, or 300s,2000000n",
    )
    p.add_argument("--trace-csv", default=None)
    p.add_argument("--jobs", type=_at_least(1), default=1)

    p = command("verify", "check a puzzle uniquely yields a grid", _verify, _paired_instances)
    p.add_argument("puzzle_file")

    p = command("export", "write bilevel model files", _export)
    p.add_argument("--cuts-file", default=None)
    p.add_argument("--out-dir", default="model_out")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command over every instance of its input; 1 if any failed."""
    level = os.environ.get("MSCP_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = build_parser().parse_args(argv)
    try:
        instances = args.instances(args)
    except (GridError, OSError) as exc:
        print(f"ERROR {exc}")
        return 1
    many = len(instances) > 1
    run = partial(_run_one, args, many)
    if args.jobs <= 1 or not many:
        outcomes = list(map(run, *zip(*instances)))
    else:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(run, *zip(*instances)))
    failed = False
    for ok, text, record in outcomes:
        print(text)
        _append_record(args.results_csv, record)
        failed |= not ok
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
