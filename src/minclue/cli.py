"""Command-line front end: cut generation, solving, verification, export.

Every command reads instance files in the one-per-line text format (anything
after whitespace on a line is a comment) and isolates per-instance failures.
Each run of each instance appends one self-describing row to the results CSV
when --results-csv is given. MSCP_LOG=debug|info|warning controls logging.
"""
from __future__ import annotations

import argparse
import csv
import logging
import os
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

log = logging.getLogger("minclue.cli")

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
    labels = [f"<={TIME_BUCKETS[0]}"]
    labels += [f"{a}-{b}" for a, b in zip(TIME_BUCKETS, TIME_BUCKETS[1:])]
    labels.append(f">={TIME_BUCKETS[-1]}")
    counts = {label: 0 for label in labels}
    for t in times:
        counts[bucket_label(t)] += 1
    return [(label, counts[label]) for label in labels]


def parse_budget(text: Optional[str]) -> SearchBudget:
    """'60', '60s', '500000n', or '60s,500000n'."""
    if not text:
        return SearchBudget()
    max_time = None
    max_nodes = None
    for part in text.split(","):
        part = part.strip().lower()
        if not part:
            continue
        if part.endswith("n"):
            max_nodes = int(part[:-1])
        elif part.endswith("s"):
            max_time = float(part[:-1])
        else:
            max_time = float(part)
    return SearchBudget(max_nodes=max_nodes, max_time=max_time)


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


def _derived_path(base: Optional[str], many: bool, instance_id: str) -> Optional[str]:
    """Per-instance output path: line number inserted before the suffix."""
    if base is None:
        return None
    if not many:
        return base
    p = Path(base)
    lineno = instance_id.rsplit(":", 1)[1]
    return str(p.with_name(f"{p.stem}.{lineno}{p.suffix}"))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _genunav_one(task: dict) -> tuple[bool, str, dict]:
    size = infer_size(task["token"])
    grid = parse_grid(task["token"], size)
    progress_rows: list[tuple[int, int, float]] = []
    collection = generate_all(
        grid,
        GenerationLimits(max_sets=task["max_sets"], max_size=task["max_size"]),
        progress=lambda idx, m, sec: progress_rows.append((idx, m, sec)),
        budget=SearchBudget(max_time=task["max_time"]),
    )
    out_path = task["out"]
    save_collection(collection, out_path)
    if task["progress_csv"]:
        with open(task["progress_csv"], "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["set_index", "m", "elapsed_seconds"])
            writer.writerows(progress_rows)
    deltas = []
    prev = 0.0
    for _, _, sec in progress_rows:
        deltas.append(sec - prev)
        prev = sec
    table = bucket_table(deltas)
    lines = [f"{task['instance_id']}: {len(collection)} sets -> {out_path}"]
    lines.append("generation time [s]   sets")
    for label, count in table:
        lines.append(f"{label:<21} {count}")
    return True, "\n".join(lines), {
        "config": f"max_sets={task['max_sets']};max_size={task['max_size']};max_time={task['max_time']}",
        "status": "complete" if collection.complete else "incomplete",
        "iterations": len(collection),
    }


def _solve_one(task: dict) -> tuple[bool, str, dict]:
    instance_id = task["instance_id"]
    size = infer_size(task["token"])
    grid = parse_grid(task["token"], size)
    seed_collection = None
    if task["cuts_file"]:
        seed_collection = load_collection(task["cuts_file"], grid)
    config = MscpConfig(
        initial_cuts=task["seed_cuts"],
        max_cut_size=task["max_cut_size"],
        solve_budget=parse_budget(task["budget"]),
        seed_collection=seed_collection,
    )
    result = solve_mscp(grid, config)
    if task["trace_csv"]:
        with open(task["trace_csv"], "w", newline="", encoding="utf-8") as fh:
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
        "config": f"seed_cuts={task['seed_cuts']};budget={task['budget'] or 'none'}",
        "status": result.status.value,
        "lower_bound": result.lower_bound,
        "upper_bound": result.upper_bound,
        "iterations": result.iterations,
        "nodes": result.nodes,
    }


def _verify_one(task: dict) -> tuple[bool, str, dict]:
    size = infer_size(task["token"])
    grid = parse_grid(task["token"], size)
    puzzle = parse_puzzle(task["puzzle"], size)
    if any(given and given != sol for given, sol in zip(puzzle.entries, grid.entries)):
        status = "MISMATCH"
    elif count_solutions(puzzle, 2) == 1:
        status = "VALID"
    else:
        status = "INVALID(multiple)"
    return status == "VALID", f"{task['instance_id']}: {status}", {"status": status}


def _export_one(task: dict) -> tuple[bool, str, dict]:
    instance_id = task["instance_id"]
    grid = parse_grid(task["token"], infer_size(task["token"]))
    cuts = load_collection(task["cuts_file"], grid) if task["cuts_file"] else None
    files = export_bilevel(grid, cuts, task["out_dir"])
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


def _run_one(worker, task: dict) -> dict:
    """One instance of one command; a failure becomes an error outcome.

    A worker returns (ok, text, record): whether the instance passed, its
    stdout lines, and its results-CSV fields.
    """
    started = perf_counter()
    try:
        ok, text, record = worker(task)
    except Exception as exc:  # per-instance isolation
        text = f"{task['instance_id']}: ERROR {exc}"
        record = {"status": f"error:{type(exc).__name__}"}
        ok = False
    record["instance_id"] = task["instance_id"]
    record["command"] = task["command"]
    record["elapsed_seconds"] = f"{perf_counter() - started:.3f}"
    return {"ok": ok, "text": text, "record": record}


def _run_tasks(args, worker, tasks: list[dict]) -> int:
    """Run every task, print and record each outcome; 1 if any failed."""
    run = partial(_run_one, worker)
    if args.jobs <= 1 or len(tasks) <= 1:
        outcomes = [run(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(run, tasks))
    failed = 0
    for outcome in outcomes:
        print(outcome["text"])
        _append_record(args.results_csv, outcome["record"])
        failed += 0 if outcome["ok"] else 1
    return 1 if failed else 0


def _cmd_genunav(args) -> int:
    instances = _instances(args.grid_file)
    many = len(instances) > 1
    tasks = []
    for instance_id, token in instances:
        out = _derived_path(args.out, many, instance_id) or str(
            Path(args.grid_file).with_suffix(
                f".{instance_id.rsplit(':', 1)[1]}.unav" if many else ".unav"
            )
        )
        tasks.append(
            {
                "command": "genunav",
                "instance_id": instance_id,
                "token": token,
                "max_sets": args.max_sets,
                "max_size": args.max_size,
                "max_time": args.max_time,
                "out": out,
                "progress_csv": _derived_path(args.progress_csv, many, instance_id),
            }
        )
    return _run_tasks(args, _genunav_one, tasks)


def _cmd_solve(args) -> int:
    instances = _instances(args.grid_file)
    many = len(instances) > 1
    tasks = [
        {
            "command": "solve",
            "instance_id": instance_id,
            "token": token,
            "seed_cuts": args.seed_cuts,
            "cuts_file": args.cuts_file,
            "budget": args.budget,
            "max_cut_size": args.max_cut_size,
            "trace_csv": _derived_path(args.trace_csv, many, instance_id),
        }
        for instance_id, token in instances
    ]
    return _run_tasks(args, _solve_one, tasks)


def _cmd_verify(args) -> int:
    grids = _instances(args.grid_file)
    puzzles = _instances(args.puzzle_file)
    if len(grids) != len(puzzles):
        print(
            f"ERROR instance counts differ: {len(grids)} grids vs {len(puzzles)} puzzles"
        )
        return 1
    tasks = [
        {"command": "verify", "instance_id": gid, "token": gtoken, "puzzle": ptoken}
        for (gid, gtoken), (_pid, ptoken) in zip(grids, puzzles)
    ]
    return _run_tasks(args, _verify_one, tasks)


def _cmd_export(args) -> int:
    instances = _instances(args.grid_file)
    many = len(instances) > 1
    out_dir = Path(args.out_dir)
    tasks = [
        {
            "command": "export",
            "instance_id": instance_id,
            "token": token,
            "cuts_file": args.cuts_file,
            "out_dir": (
                out_dir / f"instance_{instance_id.rsplit(':', 1)[1]}" if many else out_dir
            ),
        }
        for instance_id, token in instances
    ]
    return _run_tasks(args, _export_one, tasks)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minclue",
        description="Exact minimum-clue analysis of completed Sudoku grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genunav", help="generate minimal unavoidable sets")
    p.add_argument("grid_file")
    p.add_argument("--max-sets", type=_positive_int, default=5000)
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--max-time", type=float, default=None)
    p.add_argument("--out", default=None, help="collection file (default <grid_file>.unav)")
    p.add_argument("--progress-csv", default=None)
    p.add_argument("--results-csv", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_genunav)

    p = sub.add_parser("solve", help="solve the minimum-clue problem")
    p.add_argument("grid_file")
    p.add_argument("--seed-cuts", type=int, default=1000)
    p.add_argument("--cuts-file", default=None, help="reuse a genunav collection")
    p.add_argument("--max-cut-size", type=int, default=None, help="cap seeded cut size")
    p.add_argument("--budget", default=None, help="e.g. 300s, 2000000n, or 300s,2000000n")
    p.add_argument("--trace-csv", default=None)
    p.add_argument("--results-csv", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a puzzle uniquely yields a grid")
    p.add_argument("grid_file")
    p.add_argument("puzzle_file")
    p.add_argument("--results-csv", default=None)
    p.set_defaults(func=_cmd_verify, jobs=1)

    p = sub.add_parser("export", help="write bilevel model files")
    p.add_argument("grid_file")
    p.add_argument("--cuts-file", default=None)
    p.add_argument("--out-dir", default="model_out")
    p.add_argument("--results-csv", default=None)
    p.set_defaults(func=_cmd_export, jobs=1)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    level = os.environ.get("MSCP_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GridError as exc:
        print(f"ERROR {exc}")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
