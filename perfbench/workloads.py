"""The four benchmark workloads, their correctness checks and layer replays.

Each workload is a closed loop of operations on one thread: the next
operation starts only when the previous one has returned. Operations go
through an `api` object (tracing.Untraced or tracing.Tracer) so the same
code runs traced and untraced. Each result is checked right after its
operation, outside its timing; the checks call no function that tracing
wraps, so they never count toward a layer.

A run repeats whole rounds, so that every run measures the same work: a
round is one sweep of all the grids, both fig9_ihs solves, or one
generate_all.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from minclue import (
    CluePattern,
    Grid,
    GridSize,
    HittingInstance,
    MscpConfig,
    MscpStatus,
    SearchBudget,
    SearchStats,
    find_alternate,
    is_unavoidable,
    load_collection,
    min_hitting_set,
    minimalize,
    parse_grid,
    verify_validity,
)
from minclue.unavoidable import GenerationLimits

import hostspeed
import inputs

# L: fig9_ihs reports the time until its lower bound first reaches L
FIG_TARGET = 7
DATA = Path(__file__).resolve().parent / "data"
# frozen hitting-set family: the cuts fig9_ihs held (seed 0) when its lower
# bound first reached L; its minimum hitting set has size L
REPLAY_FILE = DATA / f"fig9_lb{FIG_TARGET}.unav"


@dataclass(frozen=True)
class Expected:
    """Known answers the checks compare against."""

    optimum4: int = 4
    figure_optimum: int = 17


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark, smaller ones the self-test."""

    sweep_grids: int = 288
    fig_target: int = FIG_TARGET
    gen_sets: int = 24  # K: time_to_k_sets_s is the time to the first K sets


class Workload:
    name = ""
    side = 9
    round_size = 1  # operations per round

    def __init__(self, sizes: Sizes, expected: Expected):
        self.sizes = sizes
        self.expected = expected
        self.grids: list[Grid] = []

    def texts(self, seed: int) -> list[str]:
        raise NotImplementedError

    def prepare(self, texts: list[str]) -> None:
        size = GridSize.of_side(self.side)
        self.grids = [parse_grid(t, size) for t in texts]

    def op(self, api, i: int, seconds: float):
        """Run operation i; returns (latency in seconds, result to check)."""
        raise NotImplementedError

    def check(self, result) -> list[str]:
        raise NotImplementedError

    def extras(self, samples: list[float], last) -> dict:
        """The workload's own end-to-end figures, by the names users know;
        `last` is the result of the phase's last operation."""
        raise NotImplementedError


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


class Phase:
    """One timed closed loop: whole rounds until the run's seconds are used.

    Each result is checked right after its operation, outside the timing,
    and then dropped, so memory and garbage collection do not grow with the
    number of operations a run completes. `samples` holds each operation's
    latency in wall seconds, `scaled` the same at the reference host speed.
    """

    def __init__(self, workload: Workload, api, seconds: float, check):
        self.samples: list[float] = []
        self.busy_s = 0.0
        starts = []
        sampler = hostspeed.Sampler()
        with sampler.running():
            while True:
                round_start = self.busy_s
                for _ in range(workload.round_size):
                    op_start = perf_counter()
                    latency, result = workload.op(api, len(self.samples), seconds)
                    self.busy_s += perf_counter() - op_start
                    starts.append(op_start)
                    self.samples.append(latency)
                    self.last = result
                    check(result)
                # another round only if, as long as this one, it would end
                # within the run's seconds; at least one round always runs
                if 2 * self.busy_s - round_start > seconds:
                    break
            sampler.tick()  # one more sample after the last operation
        self.scaled = [sampler.scaled(t, x) for t, x in zip(starts, self.samples)]

    @staticmethod
    def _summary(samples: list[float]) -> dict:
        return {
            "op_ms_p50": (1000 * percentile(samples, 50), "ms"),
            "op_ms_p95": (1000 * percentile(samples, 95), "ms"),
            "ops_per_s": (len(samples) / sum(samples), "1/s"),
        }

    def metrics(self) -> dict:
        """Operation latency and throughput at the reference host speed."""
        return self._summary(self.scaled)

    def raw_metrics(self) -> dict:
        """The same figures in plain wall time."""
        return self._summary(self.samples)


class Sweep4(Workload):
    """All 4x4 grids, each solved to OPTIMAL; seeded or not."""

    side = 4

    def __init__(self, sizes, expected, name: str, config: MscpConfig):
        super().__init__(sizes, expected)
        self.name = name
        self.config = config

    def texts(self, seed):
        return inputs.sweep4_texts(seed)[: self.sizes.sweep_grids]

    @property
    def round_size(self) -> int:
        return len(self.grids)

    def op(self, api, i, seconds):
        grid = self.grids[i % len(self.grids)]
        t0 = perf_counter()
        result = api.solve_mscp(grid, self.config)
        return perf_counter() - t0, (grid, result)

    def check(self, result):
        grid, res = result
        if res.status is not MscpStatus.OPTIMAL:
            return [f"status {res.status.value}"]
        if res.optimum != self.expected.optimum4:
            return [f"optimum {res.optimum} != {self.expected.optimum4}"]
        if not verify_validity(grid, res.best_pattern):
            return ["best pattern is not a valid puzzle"]
        chosen = set(res.best_pattern.cells())
        if not all(chosen & set(member) for member in res.certificate):
            return ["best pattern misses a certificate member"]
        return []

    def extras(self, samples, last):
        return {
            "solve_ms_p50": (1000 * percentile(samples, 50), "ms"),
            "solve_ms_p95": (1000 * percentile(samples, 95), "ms"),
            "grids_per_s": (len(samples) / sum(samples), "1/s"),
        }


class Fig9Ihs(Workload):
    """The 9x9 figure grid, no seed cuts, two solves of seconds/2 each."""

    name = "fig9_ihs"
    # two samples per run; each solve's budget leaves room for a machine
    # that runs half as fast again before the lower bound misses L
    round_size = 2

    def texts(self, seed):
        # the instance is fixed: isomorphs differ several-fold in time to a
        # given lower bound, which no bound of this benchmark could absorb
        return [inputs.FIGURE_GRID]

    def op(self, api, i, seconds):
        budget = SearchBudget(max_time=seconds / self.round_size)
        config = MscpConfig(initial_cuts=0, solve_budget=budget)
        t0 = perf_counter()
        res = api.solve_mscp(self.grids[0], config)
        wall = perf_counter() - t0
        reached = self._time_to_lb(res)
        return (wall if reached is None else reached), (self.grids[0], res)

    def _time_to_lb(self, res):
        for entry in res.trace:
            if entry.lower >= self.sizes.fig_target:
                return entry.elapsed
        return None

    def check(self, result):
        grid, res = result
        failures = []
        opt = self.expected.figure_optimum
        if not res.lower_bound <= opt <= res.upper_bound:
            failures.append(f"bounds {res.lower_bound}..{res.upper_bound} exclude {opt}")
        if res.best_pattern.cardinality() != res.upper_bound:
            failures.append("best pattern size differs from the upper bound")
        if not verify_validity(grid, res.best_pattern):
            failures.append("best pattern is not a valid puzzle")
        lowers = [e.lower for e in res.trace]
        if lowers != sorted(lowers):
            failures.append("lower bound decreased along the trace")
        if self._time_to_lb(res) is None:
            failures.append(f"lower bound never reached {self.sizes.fig_target}")
        return failures

    def extras(self, samples, last):
        res = last[1]
        return {
            "time_to_lb_s": (percentile(samples, 50), "s"),
            "lower_at_budget": (res.lower_bound, "count"),
            "upper_at_budget": (res.upper_bound, "count"),
        }


class GenUnav9(Workload):
    """generate_all on the figure grid, up to its first K sets."""

    name = "genunav9"

    def __init__(self, sizes, expected):
        super().__init__(sizes, expected)
        self._verified: dict = {}

    def texts(self, seed):
        # fixed instance, for the same reason as fig9_ihs
        return [inputs.FIGURE_GRID]

    def op(self, api, i, seconds):
        limits = GenerationLimits(max_sets=self.sizes.gen_sets)
        t0 = perf_counter()
        collection = api.generate_all(self.grids[0], limits)
        return perf_counter() - t0, collection

    def check(self, collection):
        grid = self.grids[0]
        failures = []
        if len(collection) != self.sizes.gen_sets:
            failures.append(f"{len(collection)} sets, expected {self.sizes.gen_sets}")
        for member in collection.sets:
            ok = self._verified.get(member)
            if ok is None:
                ok = is_unavoidable(grid, member.cells) and (
                    minimalize(grid, member.cells) == member
                )
                self._verified[member] = ok
            if not ok:
                failures.append(f"{member} is not a minimal unavoidable set")
        return failures

    def extras(self, samples, last):
        return {
            "time_to_k_sets_s": (percentile(samples, 50), "s"),
            "sets": (len(last), "count"),
        }


def make(name: str, sizes: Sizes, expected: Expected) -> Workload:
    if name == "sweep4":
        return Sweep4(sizes, expected, name, MscpConfig(initial_cuts=0))
    if name == "sweep4_seeded":
        return Sweep4(sizes, expected, name, MscpConfig())
    if name == "fig9_ihs":
        return Fig9Ihs(sizes, expected)
    if name == "genunav9":
        return GenUnav9(sizes, expected)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("sweep4", "sweep4_seeded", "fig9_ihs", "genunav9")


def hitting_replay() -> tuple[float, int, list[str]]:
    """min_hitting_set on the frozen fig9 family: (seconds at the reference
    host speed, nodes, failures)."""
    grid = parse_grid(inputs.FIGURE_GRID, GridSize.of_side(9))
    family = load_collection(REPLAY_FILE, grid).family()
    instance = HittingInstance.build(grid.size.all_cells(), family)
    stats = SearchStats()
    spent, sol = hostspeed.timed(lambda: min_hitting_set(instance, stats=stats))
    failures = []
    if not sol.proven_optimal or sol.value != FIG_TARGET:
        failures.append(f"replay optimum {sol.value}, expected {FIG_TARGET}")
    return spent, stats.nodes, failures


def shift16_replay() -> tuple[float, list[str]]:
    """find_alternate on the 16x16 shift grid, all and no cells revealed:
    (seconds at the reference host speed, failures)."""
    size = GridSize.of_side(16)
    grid = Grid(size, inputs.shift_grid(16))
    spent, (pinned, free) = hostspeed.timed(lambda: (
        find_alternate(grid, CluePattern.all_cells(size)),
        find_alternate(grid, CluePattern.no_cells(size)),
    ))
    failures = []
    if pinned is not None:
        failures.append("16x16 grid has an alternate with every cell revealed")
    if free is None or free == grid:
        failures.append("16x16 grid has no alternate with no cell revealed")
    return spent, failures
