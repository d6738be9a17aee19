"""Spans around the calls the CLI and the Pareto trace make into each layer.

Wrappers are installed from outside the program by replacing names in the
namespaces that look them up (``infoquad.cli.solve_min_rate``,
``infoquad.pareto.solve_min_rate``, ...), so nothing under ``src/`` changes.  A
target that no longer exists is reported, not fatal: later versions of the
program may drop a call (the Pareto trace need not call the solver at all).

Spans stay in memory; ``Tracer.dump`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# (namespace the name is looked up in, attribute, span name = layer.function)
TARGETS = (
    ("infoquad.cli", "load_pgm", "world.load_pgm"),
    ("infoquad.cli", "load_prior", "world.load_prior"),
    ("infoquad.cli", "mutual_info_xy", "world.mutual_info_xy"),
    ("infoquad.cli", "render_abstraction", "world.render_abstraction"),
    ("infoquad.cli", "compute_increments", "increments.compute_increments"),
    ("infoquad.cli", "tree_information", "increments.tree_information"),
    ("infoquad.cli", "solve_min_rate", "solver.solve_min_rate"),
    ("infoquad.cli", "solve_max_relevance", "solver.solve_max_relevance"),
    ("infoquad.pareto", "solve_min_rate", "solver.solve_min_rate"),
    ("infoquad.pareto", "solve_equality_max_relevance", "solver.solve_equality_max_relevance"),
    ("infoquad.cli", "solve_lp_relaxation", "relaxation.solve_lp_relaxation"),
    ("infoquad.cli", "round_selection", "relaxation.round_selection"),
    ("infoquad.cli", "trace_pareto", "pareto.trace_pareto"),
    ("infoquad.cli", "write_pareto_csv", "pareto.write_pareto_csv"),
    ("infoquad.cli", "write_tree_json", "quadtree.write_tree_json"),
    ("infoquad.cli", "read_tree_json", "quadtree.read_tree_json"),
    ("infoquad.cli", "is_valid_selection", "quadtree.is_valid_selection"),
)
SOLVERS = {"solver.solve_min_rate", "solver.solve_max_relevance",
           "solver.solve_equality_max_relevance"}
COMMANDS = ("abstract", "relax", "validate", "pareto")
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS)) + tuple(
    f"cli.{c}" for c in COMMANDS)


class Tracer:
    """Records (name, start, end, parent, op) spans for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, op id]
        self.solves: list[tuple[int, bool, bool]] = []   # (span index, cold, 0 nodes)
        self.nodes = 0
        self.points = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._seen_inc: dict[int, object] = {}
        self._restore: list = []

    # -- wrappers ---------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, fn, name):
        solver = name in SOLVERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if solver:
                # the first argument is the increments object the solve runs on
                cold = id(args[0]) not in self._seen_inc
                self._seen_inc[id(args[0])] = args[0]
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if solver:
                nodes = int(result.nodes_explored)
                self.nodes += nodes
                self.solves.append((idx, cold, nodes == 0))
            elif name == "pareto.trace_pareto":
                self.points += len(result)
            return result

        return traced

    # -- spans ------------------------------------------------------------

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def op(self, op_id: int, command: str, call):
        """Run one CLI call as the root span of operation op_id."""
        self._op = op_id
        self._seen_inc.clear()   # each CLI call builds its own increments
        idx = self._open(f"cli.{command}")
        try:
            return call()
        finally:
            self._close(idx)
            self._seen_inc.clear()

    # -- metrics ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-name self time (ms) and call counts, plus the solver split."""
        child_ms = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1e3
        self_ms = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_ms[name] += (end - start) * 1e3 - child_ms[i]
            calls[name] += 1
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.self_ms"] = self_ms[name]
            out[f"{name}.calls"] = float(calls[name])
        solve_ms = {True: 0.0, False: 0.0}
        free = in_trace = 0
        for i, cold, zero_nodes in self.solves:
            _, start, end, parent, _ = self.spans[i]
            solve_ms[cold] += (end - start) * 1e3
            free += zero_nodes
            in_trace += parent >= 0 and self.spans[parent][0] == "pareto.trace_pareto"
        out["solver.cold_solve_ms"] = solve_ms[True]
        out["solver.warm_solve_ms"] = solve_ms[False]
        out["solver.search_nodes"] = float(self.nodes)
        out["solver.search_free_frac"] = free / len(self.solves) if self.solves else 0.0
        out["pareto.points"] = float(self.points)
        out["pareto.solves_per_point"] = in_trace / self.points if self.points else 0.0
        out["trace.missing_targets"] = float(len(self.missing))
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"missing": self.missing,
                       "fields": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": self.spans}, fh)
