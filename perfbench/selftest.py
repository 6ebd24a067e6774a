"""Self-test of the benchmark runner at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload, untraced and traced, on a few 4x4 grids, a short
budget and a small K, and checks that the last output line reports every
metric BENCHMARK.json names, each with its unit. Then it runs sweep4 with a
deliberately wrong expected optimum and checks that the runner fails.
Exits non-zero on the first mismatch.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

TINY = "workloads.Sizes(sweep_grids=4, fig_target=2, gen_sets=5)"
SECONDS = "2"


def run(workload: str, trace: int, expected: str = "workloads.Expected()"):
    code = (
        "import sys; "
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]; "
        "import run, workloads; "
        f"sys.exit(run.main(sys.argv[1:], {TINY}, {expected}))"
    )
    argv = ["--workload", workload, "--seed", "3", "--seconds", SECONDS,
            "--trace", str(trace)]
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [w["name"] for w in spec["workloads"]]
    for workload in names:
        for trace in (0, 1):
            code, result, err = run(workload, trace)
            where = f"{workload} --trace {trace}"
            if code != 0 or result is None or not result["correct"]:
                print(f"FAIL {where}: exit {code}\n{err}", file=sys.stderr)
                return 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(got))
                extra = sorted(set(got) - set(wanted[trace]))
                wrong = sorted(k for k in got if k in wanted[trace]
                               and got[k] != wanted[trace][k])
                print(f"FAIL {where}: missing {missing} extra {extra} "
                      f"unit mismatch {wrong}", file=sys.stderr)
                return 1
            print(f"ok {where}: {len(got)} metrics, {result['attempted']} checked")
    code, result, _ = run("sweep4", 0, "workloads.Expected(optimum4=5)")
    if code == 0 or result is None or result["correct"] or result["failed"] == 0:
        print("FAIL a wrong expected optimum did not fail the run", file=sys.stderr)
        return 1
    print(f"ok wrong expected optimum fails the run (exit {code}, "
          f"{result['failed']} of {result['attempted']} failed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
