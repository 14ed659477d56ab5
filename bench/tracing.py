"""Per-layer tracing from the benchmark side.

The tracer replaces each traced library function at every name it is
bound to in the ``sumgraph`` modules and in the benchmark's own modules,
so calls between library modules are caught as well as calls from the
benchmark.  It records calls, inclusive time and self time (inclusive
time minus the time of traced callees) per function, plus a few counts
read off the results.  Nothing inside the library changes; ``uninstall``
puts every original back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from collections.abc import Callable

CLI_MARK = "bench-cli-trace "


def _local_markov(tracer, result, seconds):
    tracer.counters["queries.local_markov.statements"] += len(result)


def _implies(tracer, result, seconds):
    kind = "implied" if result.implied else "witness"
    tracer.counters[f"queries.implies_independence.{kind}_calls"] += 1
    tracer.times[f"queries.implies_independence.{kind}"] += seconds
    tracer.counters["queries.witnesses"] += result.witness is not None


def _active_paths(tracer, result, seconds):
    tracer.counters["queries.active_paths.paths"] += len(result)
    if tracer.caller() == "queries.implies_independence":
        tracer.counters["queries.active_paths.paths_for_witness"] += len(result)


def _audit(tracer, result, seconds):
    tracer.counters["confounding.audit_edge.paths"] += len(result.witnesses)


def _verify(tracer, result, seconds):
    tracer.counters["oracle.verify_structural_zeros.draws"] += result.n_draws


# (name, module, attribute, hook on the result)
TARGETS: list[tuple[str, str, str, Callable | None]] = [
    ("edge_matrix.reach_closure", "sumgraph.edge_matrix", "reach_closure", None),
    ("edge_matrix.partial_close", "sumgraph.edge_matrix", "partial_close", None),
    ("edge_matrix.partial_invert", "sumgraph.edge_matrix", "partial_invert", None),
    ("graph_model.descendants", "sumgraph.graph_model", "SummaryGraph.descendants", None),
    ("graph_model.classify", "sumgraph.graph_model", "classify", None),
    ("transform.summary_from_parent", "sumgraph.transform", "summary_from_parent", None),
    ("transform.summary_from_summary", "sumgraph.transform", "summary_from_summary", None),
    ("transform.stepwise_reduce", "sumgraph.transform", "stepwise_reduce", None),
    ("transform.mag_from_summary", "sumgraph.transform", "mag_from_summary", None),
    ("queries.local_markov", "sumgraph.queries", "local_markov", _local_markov),
    ("queries.implies_independence", "sumgraph.queries", "implies_independence", _implies),
    ("queries.active_paths", "sumgraph.queries", "active_paths", _active_paths),
    ("queries.equivalence_obstruction", "sumgraph.queries", "equivalence_obstruction", None),
    ("confounding.audit_edge", "sumgraph.confounding", "audit_edge", _audit),
    ("oracle.sample_system", "sumgraph.oracle", "sample_system", None),
    ("oracle.derive_linear_summary", "sumgraph.oracle", "derive_linear_summary", None),
    ("oracle.verify_structural_zeros", "sumgraph.oracle", "verify_structural_zeros", _verify),
]


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}      # name -> [calls, inclusive s, self s]
        self.counters: Counter = Counter()
        self.times: Counter = Counter()       # seconds, split by outcome
        self._stack: list[list] = []          # [name, seconds spent in traced callees]
        self._restore: list[tuple] = []

    def merge(self, other: "Tracer") -> None:
        for name, (calls, incl, own) in other.stats.items():
            st = self.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += incl
            st[2] += own
        self.counters.update(other.counters)
        self.times.update(other.times)

    def caller(self) -> str | None:
        """Name of the traced function that called the one now returning."""
        return self._stack[-1][0] if self._stack else None

    def _wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                self._stack.pop()
                st = self.stats.setdefault(name, [0, 0.0, 0.0])
                st[0] += 1
                st[1] += spent
                st[2] += spent - frame[1]
                if self._stack:
                    self._stack[-1][1] += spent
            if hook is not None:
                hook(self, result, spent)
            return result

        return traced

    def install(self, extra_modules=()) -> None:
        modules = [m for n, m in sys.modules.items() if n == "sumgraph" or n.startswith("sumgraph.")]
        modules += list(extra_modules)
        for name, module_name, attr, hook in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:  # a method: patch the class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original, hook))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def record_cli(self, stderr: str, spawned_at: float) -> None:
        """Read the timing line the traced CLI child appends to stderr."""
        for line in stderr.splitlines():
            if line.startswith(CLI_MARK):
                t = json.loads(line[len(CLI_MARK):])
                self.counters["cli.processes"] += 1
                self.times["cli.interpreter"] += t["entered"] - spawned_at
                self.times["cli.import"] += t["import_s"]
                self.times["cli.main"] += t["main_s"]
                for fn in ("parse_graph", "emit_graph"):
                    self.counters[f"cli.{fn}.calls"] += t[fn][0]
                    self.times[f"cli.{fn}"] += t[fn][1]

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, as (value, unit)."""

        def calls(name):
            return self.stats.get(name, [0, 0.0, 0.0])[0]

        def self_ms(name):
            return self.stats.get(name, [0, 0.0, 0.0])[2] * 1e3

        def mean_ms(total_s, count):
            return total_s * 1e3 / count if count else 0.0

        def per_call_ms(name):
            st = self.stats.get(name, [0, 0.0, 0.0])
            return mean_ms(st[1], st[0])

        c, t = self.counters, self.times
        out: dict[str, tuple[float, str]] = {}
        for name in ("edge_matrix.reach_closure", "edge_matrix.partial_close",
                     "edge_matrix.partial_invert", "graph_model.descendants"):
            out[f"{name}.calls"] = (calls(name), "count")
            out[f"{name}.self_ms"] = (self_ms(name), "ms")
        out["graph_model.classify.self_ms"] = (self_ms("graph_model.classify"), "ms")
        for name in ("transform.summary_from_parent", "transform.summary_from_summary",
                     "transform.stepwise_reduce", "transform.mag_from_summary", "queries.local_markov"):
            out[f"{name}.ms"] = (per_call_ms(name), "ms")
        out["queries.local_markov.statements"] = (c["queries.local_markov.statements"], "count")
        for kind in ("implied", "witness"):
            out[f"queries.implies_independence.{kind}_ms"] = (
                mean_ms(t[f"queries.implies_independence.{kind}"],
                        c[f"queries.implies_independence.{kind}_calls"]), "ms")
        out["queries.active_paths.paths"] = (c["queries.active_paths.paths"], "count")
        enumerated = c["queries.active_paths.paths_for_witness"]
        out["queries.witness_yield"] = (c["queries.witnesses"] / enumerated if enumerated else 0.0, "ratio")
        out["queries.equivalence_obstruction.ms"] = (per_call_ms("queries.equivalence_obstruction"), "ms")
        out["confounding.audit_edge.ms"] = (per_call_ms("confounding.audit_edge"), "ms")
        out["confounding.audit_edge.paths"] = (c["confounding.audit_edge.paths"], "count")
        out["oracle.sample_system.ms"] = (per_call_ms("oracle.sample_system"), "ms")
        out["oracle.derive_linear_summary.ms"] = (per_call_ms("oracle.derive_linear_summary"), "ms")
        out["oracle.verify_structural_zeros.draw_ms"] = (
            mean_ms(self.stats.get("oracle.verify_structural_zeros", [0, 0.0])[1],
                    c["oracle.verify_structural_zeros.draws"]), "ms")
        n_cli = c["cli.processes"]
        out["cli.interpreter_ms"] = (mean_ms(t["cli.interpreter"], n_cli), "ms")
        out["cli.import_ms"] = (mean_ms(t["cli.import"], n_cli), "ms")
        out["cli.parse_graph.ms"] = (mean_ms(t["cli.parse_graph"], c["cli.parse_graph.calls"]), "ms")
        out["cli.emit_graph.ms"] = (mean_ms(t["cli.emit_graph"], c["cli.emit_graph.calls"]), "ms")
        out["cli.main.ms"] = (mean_ms(t["cli.main"], n_cli), "ms")
        return out
