"""Benchmark runner for minclue.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (sweep4, sweep4_seeded, fig9_ihs, genunav9) from the root
of a source checkout, against the package under src/. With --trace 0 it
times the workload untraced and reports the end-to-end metrics. With
--trace 1 it runs the workload untraced and then traced, replays the frozen
layer inputs, and reports the per-layer metrics plus the tracing overhead.
Correctness checks run outside the timed phases. The last line of standard
output is one JSON object; the exit code is non-zero when any check fails.
See perfbench/README.md for what each metric means.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 9
# a fresh interpreter times importing minclue and parsing the workload's
# input texts, which it reads from standard input beforehand, and samples
# the reference loop just before and just after
SETUP_PROBE = """
import sys
from time import perf_counter
import hostspeed
side = int(sys.argv[1])
texts = sys.stdin.read().split()
before = hostspeed.sample()
t0 = perf_counter()
import minclue
size = minclue.GridSize.of_side(side)
grids = [minclue.parse_grid(t, size) for t in texts]
spent = perf_counter() - t0
print(repr(spent), repr((before + hostspeed.sample()) / 2))
"""


def measure_setup(side: int, texts: list[str]) -> tuple[float, float]:
    """Median set-up time over the probes: (scaled, raw) seconds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(side)],
            input="\n".join(texts),
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=60,
            check=True,
        )
        spent, reference = (float(x) for x in out.stdout.split())
        raw.append(spent)
        scaled.append(spent * hostspeed.REFERENCE_S / reference)
    return statistics.median(scaled), statistics.median(raw)


def git_commit() -> str:
    """HEAD of the checkout's own git directory, or 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, traced: bool) -> dict:
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {
        "commit": git_commit(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "scipy": scipy_version,
        "traced": int(traced),
    }


def layer_metrics(tracer, phase) -> dict:
    ops = len(phase.samples)
    busy = tracer.solve_wall_s if tracer.solve_calls else phase.busy_s

    def pct(seconds: float) -> float:
        return 100.0 * seconds / busy

    alt, hit, dev, gen = tracer.alt, tracer.hit, tracer.dev, tracer.gen
    return {
        "engine.find_alternate.calls_per_op": (alt.calls / ops, "count"),
        "engine.find_alternate.busy_pct": (pct(alt.busy_s), "%"),
        "engine.find_alternate.nodes_per_op": (alt.nodes / ops, "count"),
        "engine.find_alternate.nodes_per_s": (
            alt.nodes / alt.busy_s if alt.busy_s else 0.0, "1/s"),
        "engine.find_alternate.alt_ratio": (alt.ratio(), "ratio"),
        "hitting.min_hitting_set.calls_per_op": (hit.calls / ops, "count"),
        "hitting.min_hitting_set.busy_pct": (pct(hit.busy_s), "%"),
        "hitting.min_hitting_set.nodes_per_op": (hit.nodes / ops, "count"),
        "hitting.min_hitting_set.family_max": (hit.family_max, "count"),
        "hitting.min_hitting_set.unproven": (hit.unproven, "count"),
        "unavoidable.find_deviating_grid.calls_per_op": (dev.calls / ops, "count"),
        "unavoidable.find_deviating_grid.busy_pct": (pct(dev.busy_s), "%"),
        "unavoidable.find_deviating_grid.nodes_per_op": (dev.nodes / ops, "count"),
        "unavoidable.find_deviating_grid.found_ratio": (dev.ratio(), "ratio"),
        "unavoidable.generate_all.calls_per_op": (gen.calls / ops, "count"),
        "unavoidable.generate_all.busy_pct": (pct(gen.busy_s), "%"),
        "unavoidable.generate_all.sets_per_op": (gen.sets / ops, "count"),
        "solver.self_pct": (pct(tracer.solver_self_s()) if tracer.solve_calls else 0.0, "%"),
        "solver.iterations_per_op": (tracer.iterations / ops, "count"),
        "solver.cuts_per_op": (tracer.cuts / ops, "count"),
    }


def nesting_failures(tracer, phase) -> list[str]:
    """Child layers' busy time must fit inside their parent's wall time."""
    failures = []
    if tracer.solve_children_s > tracer.solve_wall_s:
        failures.append("solver children busier than solve_mscp wall time")
    if tracer.dev.busy_s > tracer.gen.busy_s:
        failures.append("find_deviating_grid busier than generate_all")
    if tracer.gen.busy_s > phase.busy_s:
        failures.append("generate_all busier than the phase wall time")
    return failures


def report(label: str, pairs: dict) -> None:
    for name, (value, unit) in pairs.items():
        print(f"{label} {name} {value:.6g} {unit}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description="minclue benchmark runner")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None, sizes=None, expected=None) -> int:
    args = parse_args(argv)
    if not (SRC / "minclue" / "__init__.py").is_file():
        print(f"error: no minclue package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import tracing
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    workload = workloads.make(
        args.workload, sizes or workloads.Sizes(), expected or workloads.Expected()
    )
    print("provenance " + json.dumps(provenance(args.seed, bool(args.trace)),
                                     sort_keys=True))

    texts = workload.texts(args.seed)
    setup_s, setup_raw_s = measure_setup(workload.side, texts)
    workload.prepare(texts)

    attempted = failed = 0

    def record(label: str, problems: list[str]) -> None:
        nonlocal attempted, failed
        attempted += 1
        if problems:
            failed += 1
            print(f"FAIL {label}: {'; '.join(problems)}", file=sys.stderr)

    def checker(label: str):
        return lambda result: record(label, workload.check(result))

    label = f"{args.workload} untraced"
    plain = workloads.Phase(workload, tracing.Untraced, args.seconds, checker(label))
    untraced = plain.metrics()
    untraced["setup_s"] = (setup_s, "s")
    untraced["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    print(f"{label} ops {len(plain.samples)} busy_s {plain.busy_s:.3f}")
    report(label, untraced)
    report(f"{label} raw", plain.raw_metrics())
    report(f"{label} raw", {"setup_s": (setup_raw_s, "s")})
    report(f"{label} raw", workload.extras(plain.samples, plain.last))
    metrics = untraced

    if args.trace:
        tracer = tracing.Tracer()
        label = f"{args.workload} traced"
        with tracer.installed():
            phase = workloads.Phase(workload, tracer, args.seconds, checker(label))
        print(f"{label} ops {len(phase.samples)} busy_s {phase.busy_s:.3f}")
        report(label, phase.metrics())
        report(f"{label} raw", phase.raw_metrics())
        report(f"{label} raw", workload.extras(phase.samples, phase.last))
        layers = layer_metrics(tracer, phase)
        for layer in (tracer.alt, tracer.hit, tracer.dev, tracer.gen):
            print(f"layer {layer.name} calls {layer.calls} busy_s {layer.busy_s:.6f}")
        print(f"layer solver self_s {tracer.solver_self_s():.6f} "
              f"wall_s {tracer.solve_wall_s:.6f}")
        nesting = nesting_failures(tracer, phase)
        replay_s, replay_nodes, replay_fail = workloads.hitting_replay()
        shift16_s, shift16_fail = workloads.shift16_replay()
        for problems in (nesting, replay_fail, shift16_fail):
            record(label, problems)
        layers["hitting.replay_s"] = (replay_s, "s")
        layers["hitting.replay_nodes"] = (replay_nodes, "count")
        layers["engine.shift16_s"] = (shift16_s, "s")
        before = untraced["op_ms_p50"][0]
        after = phase.metrics()["op_ms_p50"][0]
        layers["trace_overhead"] = (after / before - 1.0, "ratio")
        report("layer", layers)
        metrics = layers

    print(f"{args.workload} fail_ratio {failed / attempted:.6g} ratio "
          f"({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
