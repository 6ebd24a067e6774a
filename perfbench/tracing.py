"""Per-layer accounting, recorded from outside the program.

Tracing replaces the names that `minclue.solver` and `minclue.unavoidable`
import from the lower layers with wrappers that time each call and read the
`SearchStats` the caller passes in (or a fresh one when it passes none). The
wrappers are installed only for the traced phase.
"""
from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

import minclue.solver as solver_mod
import minclue.unavoidable as unavoidable_mod
from minclue import SearchStats


class Untraced:
    """The same entry points as Tracer, calling the program directly."""

    solve_mscp = staticmethod(solver_mod.solve_mscp)
    generate_all = staticmethod(unavoidable_mod.generate_all)


class Layer:
    """Counts for one public function: calls, busy time, nodes, outcomes."""

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.busy_s = 0.0
        self.nodes = 0
        self.hits = 0  # calls with a useful outcome (alternate or grid found)
        self.family_max = 0
        self.unproven = 0
        self.sets = 0

    def ratio(self) -> float:
        return self.hits / self.calls if self.calls else 0.0


class Tracer:
    """Layer counters plus the wrappers that fill them."""

    def __init__(self):
        self.alt = Layer("engine.find_alternate")
        self.hit = Layer("hitting.min_hitting_set")
        self.dev = Layer("unavoidable.find_deviating_grid")
        self.gen = Layer("unavoidable.generate_all")
        self.solve_calls = 0
        self.solve_wall_s = 0.0
        self.iterations = 0
        self.cuts = 0
        # busy time of the solver's direct children, counted only inside
        # solve_mscp, so that solver self time excludes them
        self._in_solve = False
        self.solve_children_s = 0.0

    def _timed(self, layer: Layer, fn, stats_pos: int, observe):
        def wrapped(*args, **kwargs):
            if len(args) <= stats_pos and kwargs.get("stats") is None:
                kwargs["stats"] = SearchStats()
            stats = args[stats_pos] if len(args) > stats_pos else kwargs["stats"]
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = perf_counter() - t0
                layer.calls += 1
                layer.busy_s += spent
                layer.nodes += stats.nodes
                if self._in_solve and layer is not self.dev:
                    self.solve_children_s += spent
            observe(layer, args, result)
            return result

        return wrapped

    @staticmethod
    def _found(layer: Layer, args, result) -> None:
        if result is not None:
            layer.hits += 1

    @staticmethod
    def _hitting(layer: Layer, args, result) -> None:
        layer.family_max = max(layer.family_max, len(args[0].family))
        if not result.proven_optimal:
            layer.unproven += 1

    @staticmethod
    def _generated(layer: Layer, args, result) -> None:
        layer.sets += len(result)

    def solve_mscp(self, grid, config):
        """solve_mscp as the root span of the solver layer."""
        self._in_solve = True
        t0 = perf_counter()
        try:
            result = solver_mod.solve_mscp(grid, config)
        finally:
            self.solve_wall_s += perf_counter() - t0
            self._in_solve = False
        self.solve_calls += 1
        self.iterations += result.iterations
        self.cuts += len(result.certificate)
        return result

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        originals = {
            (solver_mod, "find_alternate"): solver_mod.find_alternate,
            (solver_mod, "min_hitting_set"): solver_mod.min_hitting_set,
            (solver_mod, "generate_all"): solver_mod.generate_all,
            (unavoidable_mod, "find_deviating_grid"): unavoidable_mod.find_deviating_grid,
        }
        wrappers = {
            (solver_mod, "find_alternate"): self._timed(
                self.alt, solver_mod.find_alternate, 3, self._found
            ),
            (solver_mod, "min_hitting_set"): self._timed(
                self.hit, solver_mod.min_hitting_set, 3, self._hitting
            ),
            (solver_mod, "generate_all"): self._timed(
                self.gen, solver_mod.generate_all, 3, self._generated
            ),
            (unavoidable_mod, "find_deviating_grid"): self._timed(
                self.dev, unavoidable_mod.find_deviating_grid, 2, self._found
            ),
        }
        for (module, name), fn in wrappers.items():
            setattr(module, name, fn)
        try:
            yield self
        finally:
            for (module, name), fn in originals.items():
                setattr(module, name, fn)

    def generate_all(self, grid, limits):
        """generate_all called by the benchmark itself, through the wrapper."""
        return solver_mod.generate_all(grid, limits)

    def solver_self_s(self) -> float:
        return self.solve_wall_s - self.solve_children_s
