"""The four benchmark workloads.

Each ``build_*`` function turns a seed into a ``Workload``: one pass of
operations, all alike in cost, in a fixed order, and a check that every
result of a pass must pass.  The checks compare against ``reference``
(plain numpy and direct reads of the component matrices), against
properties the method must have, or, for the CLI, against the same
operation run in-process; none compares against stored output.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
import zlib
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

import reference as ref
from cases import Case, complete_v_case, cycle_v_case, dense_case, sparse_case
from reference import CheckFailure
from sumgraph import (
    IndependenceQuery,
    audit_edge,
    classify,
    equivalence_obstruction,
    implies_independence,
    local_markov,
    mag_from_summary,
    parent_to_summary,
    spec_of,
    stepwise_reduce,
    summary_from_parent,
    summary_from_summary,
    verify_structural_zeros,
)
from sumgraph.queries import NotARegressionGraphError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "bench", "out")

# Workload sizes.  Each pass is one list of distinct cases; a run repeats
# the pass a whole number of times (see run.py), so every run attempts the
# same operations in the same order.  The sizes make one pass last about
# 12 s on the reference machine (cli: 21 s) and give every run at least
# 100 samples.
REDUCE_CASES = 100
ANALYSE_ROUNDS = 34          # one dense, one complete-v and one cycle-v operation each
DENSE_N = 10
DENSE_PER_OP = 4
VERIFY_CASES = 100
VERIFY_DRAWS = 6
CLI_ROUNDS = 15              # one operation per subcommand each
CLI_VERIFY_DRAWS = 5

NOT_REGRESSION = "not a regression graph"


@dataclass
class Workload:
    name: str
    ops: list[Callable[[], object]]
    check: Callable[[int, object], None]   # (position in the pass, result)
    uses_children: bool = False
    close: Callable[[], None] = field(default=lambda: None)


def _rng(seed: int, name: str, *more: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode()), *more])


def _edges(s) -> set[tuple]:
    return ref.summary_edges(s.u_nodes, s.v_nodes, s.h_uu, s.h_uv, s.w_uu, s.s_vv)


def _shape(s) -> tuple:
    """A summary graph up to storage order: node sets by block and edge set."""
    return frozenset(s.u_nodes), frozenset(s.v_nodes), frozenset(_edges(s))


def _fail_unless(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailure(what)


# ---------------------------------------------------------------------------
# reduce: the three derivation routes on sparse DAGs


def _two_stage(spec):
    c, m = sorted(spec.conditioning), sorted(spec.marginalising)
    return spec_of(c[: len(c) // 2], m[: len(m) // 2]), spec_of(c[len(c) // 2:], m[len(m) // 2:])


def _reduce_op(case: Case):
    first, second = _two_stage(case.spec)
    block = summary_from_parent(case.graph, case.spec)
    two = summary_from_summary(summary_from_parent(case.graph, first), second)
    step = stepwise_reduce(case.graph, case.spec)
    return block, two, step


def _check_reduce(case: Case, result, rng) -> None:
    block, two, step = result
    _fail_unless(_shape(two) == _shape(block), "two-stage route differs from the parent route")
    _fail_unless(_shape(step) == _shape(block), "stepwise route differs from the parent route")
    g = case.graph
    idx = {n: i for i, n in enumerate(g.nodes)}
    if block.v_nodes:
        sigma = ref.covariance(*ref.sample_triangular(g.amat, rng))
        pc = ref.conditional_partial_correlations(
            sigma, [idx[x] for x in block.v_nodes], [idx[x] for x in sorted(case.spec.conditioning)]
        )
        _fail_unless(
            np.array_equal(ref.support(pc, 1e-6, 1e-9), block.s_vv),
            "s_vv support differs from the conditional concentration of v given C",
        )


def build_reduce(seed: int) -> Workload:
    rng = _rng(seed, "reduce")
    cases = [sparse_case(rng, int(rng.integers(100, 121))) for _ in range(REDUCE_CASES)]

    def check(i, result):
        _check_reduce(cases[i], result, _rng(seed, "reduce-check", i))

    return Workload("reduce", [partial(_reduce_op, c) for c in cases], check)


# ---------------------------------------------------------------------------
# analyse: reading derived summary graphs


@dataclass(frozen=True, eq=False)
class AnalyseItem:
    case: Case
    summary: object
    queries: tuple
    edge: tuple


def _analyse_item(case: Case, rng: np.random.Generator) -> AnalyseItem:
    s = summary_from_parent(case.graph, case.spec)
    nodes = list(s.nodes)
    queries = []
    if case.family == "dense":
        # youngest against oldest given a middle node: the witness search
        # must enumerate every active path of a dense graph
        queries.append(IndependenceQuery({nodes[0]}, {nodes[-1]}, {nodes[len(nodes) // 2]}))
    while len(queries) < 4:
        a = nodes[int(rng.integers(len(s.u_nodes)))]
        b = nodes[int(rng.integers(len(nodes)))]
        if a == b:
            continue
        rest = [x for x in s.u_nodes if x not in (a, b)]
        given = {rest[int(i)] for i in rng.choice(len(rest), int(rng.integers(1, 3)), replace=False)}
        # regression cases condition on the rest of v, which keeps the
        # witness search out of their (possibly complete) v block
        given |= set(s.v_nodes) - {a, b}
        queries.append(IndependenceQuery({a}, {b}, given))
    g = case.graph
    arrows = [
        (g.nodes[i], g.nodes[k]) for i, k in np.argwhere(np.triu(g.amat, 1))
    ]
    in_u = [e for e in arrows if e[0] in s.u_nodes and e[1] in s.u_nodes]
    return AnalyseItem(case, s, tuple(queries), (in_u or arrows)[0])


def _analyse_op(items: tuple):
    results = []
    for item in items:
        s = item.summary
        statements = local_markov(s)
        mag = mag_from_summary(s)
        verdicts = [implies_independence(s, q) for q in item.queries]
        try:
            obstruction = equivalence_obstruction(s)
        except NotARegressionGraphError:
            obstruction = NOT_REGRESSION
        report = audit_edge(item.case.graph, item.case.spec, item.edge)
        results.append((statements, mag, verdicts, obstruction, report))
    return tuple(results)


def _has_semi_directed_cycle(s) -> bool:
    """Some arrow k -> i within u closes a direction-preserving cycle: a
    path from i back to k along arrows (forwards) and dashed edges."""
    edges = _edges(s)
    step: dict = {}
    for x, y, mx, my in edges:
        if x in s.u_nodes and y in s.u_nodes and (mx, my) in ((ref.TAIL, ref.HEAD), (ref.DASH, ref.DASH)):
            step.setdefault(x, set()).add(y)
    for x, y, mx, my in edges:
        if (mx, my) == (ref.TAIL, ref.HEAD) and x in s.u_nodes:
            seen, stack = {y}, [y]
            while stack:
                for z in step.get(stack.pop(), ()):
                    if z == x:
                        return True
                    if z not in seen:
                        seen.add(z)
                        stack.append(z)
    return False


def _check_analyse(item: AnalyseItem, result, rng) -> None:
    statements, mag, verdicts, obstruction, report = result
    case, s = item.case, item.summary
    g = case.graph
    idx = {n: i for i, n in enumerate(g.nodes)}
    context = case.spec.conditioning
    sigma = ref.covariance(*ref.sample_triangular(g.amat, rng, coef=(0.2, 0.5)))

    def vanishes(i, k, given) -> bool:
        return abs(ref.partial_correlation(sigma, idx[i], idx[k], [idx[x] for x in given | context])) < 1e-8

    for st in statements:
        _fail_unless(vanishes(st.i, st.k, st.given), f"local Markov statement {st.render()} fails numerically")
    edges = _edges(s)
    for q, verdict in zip(item.queries, verdicts):
        (a,), (b,) = q.alpha, q.beta
        if verdict.implied:
            _fail_unless(vanishes(a, b, q.given), f"IMPLIED verdict for {a}, {b} | {set(q.given)} fails numerically")
        else:
            w = verdict.witness
            _fail_unless(w is not None, "NOT IMPLIED verdict without a witness")
            rest = set(s.nodes) - q.alpha - q.beta - q.given
            ref.check_active_path(edges, w.nodes, w.marks, w.inner_status, q.alpha, q.beta, q.given, rest)

    _fail_unless(mag.u_nodes == s.u_nodes and mag.v_nodes == s.v_nodes, "MAG changes the node split")
    pairs = [frozenset((x, y)) for x, y, _, _ in _edges(mag)]
    _fail_unless(len(pairs) == 2 * len(set(pairs)), "MAG carries more than one edge on a pair")
    for q, verdict in zip(item.queries, verdicts):
        _fail_unless(
            implies_independence(mag, q).implied == verdict.implied, "MAG and summary graph disagree on a query"
        )

    if obstruction == NOT_REGRESSION:
        _fail_unless(_has_semi_directed_cycle(s), "obstruction search refused a regression graph")
    elif case.family == "complete_v":
        _fail_unless(obstruction is None, "a complete v yielded an obstruction")
    elif case.family == "cycle_v":
        _fail_unless(obstruction is not None and obstruction.kind == "chordless_cycle", "planted cycle missed")
        ref.check_chordless_cycle(s.s_vv, [s.v_nodes.index(x) for x in obstruction.nodes])
        _fail_unless(set(obstruction.nodes) == case.planted, "a cycle other than the planted one was returned")
    elif obstruction is not None:
        if obstruction.kind == "chordless_cycle":
            ref.check_chordless_cycle(s.s_vv, [s.v_nodes.index(x) for x in obstruction.nodes])
        else:
            ref.check_collision_path(edges, obstruction.nodes)

    i, k = item.edge
    if i in s.u_nodes and k in s.u_nodes:
        for w in report.direct_witnesses:
            _fail_unless(len(w.nodes) > 2, "direct audit path is the audited edge itself")
            ref.check_active_path(
                ref.parent_edges(g.nodes, g.amat), w.nodes, w.marks, w.inner_status,
                {i}, {k}, case.spec.conditioning, case.spec.marginalising,
            )
        arrows_u = {e for e in edges if e[0] in s.u_nodes and e[1] in s.u_nodes and e[2] in (ref.HEAD, ref.TAIL)}
        c_i = ref.ancestors(arrows_u, i)
        pos = s.u_nodes.index(i)
        m_i = set(s.u_nodes[: pos + 1]) | (set(s.u_nodes[pos + 1:]) - c_i)
        for w in report.indirect_witnesses:
            _fail_unless(len(w.nodes) > 2, "indirect audit path is the audited edge itself")
            ref.check_active_path(
                edges, w.nodes, w.marks, w.inner_status, {i}, {k}, (c_i - {k}) | set(s.v_nodes), m_i - {i}
            )
    else:
        _fail_unless(report.status == "out_of_scope_for_distortion", "audit of an edge outside u")


def build_analyse(seed: int) -> Workload:
    rng = _rng(seed, "analyse")
    bundles = []
    for _ in range(ANALYSE_ROUNDS):
        # a dense case costs a sixth of a regression case, so one operation
        # reads several of them and all operations stay alike in cost
        bundles.append(tuple(_analyse_item(dense_case(rng, DENSE_N, 2), rng) for _ in range(DENSE_PER_OP)))
        bundles.append((_analyse_item(complete_v_case(rng, 6, 12), rng),))
        bundles.append((_analyse_item(cycle_v_case(rng, 6, 6, 6), rng),))

    def check(i, results):
        for j, (item, result) in enumerate(zip(bundles[i], results)):
            _check_analyse(item, result, _rng(seed, "analyse-check", i, j))

    return Workload("analyse", [partial(_analyse_op, b) for b in bundles], check)


# ---------------------------------------------------------------------------
# verify: the Gaussian oracle


def _verify_op(case: Case, seed: int):
    return verify_structural_zeros(case.graph, case.spec, VERIFY_DRAWS, seed)


def build_verify(seed: int) -> Workload:
    rng = _rng(seed, "verify")
    cases = [sparse_case(rng, int(rng.integers(80, 161))) for _ in range(VERIFY_CASES)]
    seeds = [int(x) for x in rng.integers(0, 2**31, size=len(cases))]
    ops = [partial(_verify_op, c, s) for c, s in zip(cases, seeds)]

    def check(i, report):
        _fail_unless(report.n_draws == VERIFY_DRAWS, "verify ran a different number of draws")
        _fail_unless(not report.violations, f"verify reported violations: {report.lines()[:3]}")

    return Workload("verify", ops, check)


# ---------------------------------------------------------------------------
# cli: one `python -m sumgraph.cli` process per operation


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class CliRunner:
    """Runs one CLI process; ``command`` is what follows the interpreter."""

    command: list = field(default_factory=lambda: ["-m", "sumgraph.cli"])
    on_stderr: Callable[[str, float], None] = lambda text, spawned_at: None

    def __call__(self, argv: list) -> tuple[int, str]:
        spawned_at = time.monotonic()
        proc = subprocess.run(
            [sys.executable, *self.command, *argv],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
        )
        self.on_stderr(proc.stderr, spawned_at)
        return proc.returncode, proc.stdout


def write_document(path: str, graph=None, summary=None) -> None:
    """The CLI document format, written here rather than by the library."""
    if summary is not None:
        s = summary
        lines = [f"nodes: {' '.join(map(str, s.nodes))}", f"u: {' '.join(map(str, s.u_nodes))}",
                 f"v: {' '.join(map(str, s.v_nodes))}"]
        for x, y, mx, my in sorted(_edges(s), key=str):
            if (mx, my) == (ref.HEAD, ref.TAIL):
                lines.append(f"{x} <- {y}")
            elif (mx, my) in ((ref.DASH, ref.DASH), (ref.LINE, ref.LINE)) and str(x) < str(y):
                lines.append(f"{x} {'~~' if mx == ref.DASH else '--'} {y}")
    else:
        lines = [f"nodes: {' '.join(map(str, graph.nodes))}"]
        lines += [f"{graph.nodes[i]} <- {graph.nodes[k]}" for i, k in np.argwhere(np.triu(graph.amat, 1))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_document(text: str) -> tuple:
    """(u, v, edges) of an emitted summary-graph document, ids as strings."""
    u = v = ()
    edges = set()
    for line in text.splitlines():
        if line.startswith("u:"):
            u = tuple(line[2:].split())
        elif line.startswith("v:"):
            v = tuple(line[2:].split())
        elif line and not line.startswith("nodes:"):
            x, sym, y = line.split()
            mx, my = {"<-": (ref.HEAD, ref.TAIL), "~~": (ref.DASH, ref.DASH), "--": (ref.LINE, ref.LINE)}[sym]
            edges |= {(x, y, mx, my), (y, x, my, mx)}
    return frozenset(u), frozenset(v), frozenset(edges)


def _str_shape(s) -> tuple:
    edges = frozenset((str(x), str(y), mx, my) for x, y, mx, my in _edges(s))
    return frozenset(map(str, s.u_nodes)), frozenset(map(str, s.v_nodes)), edges


def _spec_args(spec) -> list:
    return ["--condition", ",".join(map(str, sorted(spec.conditioning))),
            "--marginalise", ",".join(map(str, sorted(spec.marginalising)))]


def _status_text(status: str) -> str:
    return "DIRECTLY AND INDIRECTLY CONFOUNDED" if status == "both" else status.upper().replace("_", " ")


def _shape_of(derive: Callable, *args) -> tuple:
    return _str_shape(derive(*args))


def _audit_all(g, spec) -> list:
    return [audit_edge(g, spec, (g.nodes[i], g.nodes[k])) for i, k in np.argwhere(np.triu(g.amat, 1))]


def _cli_cases(rng, workdir: str) -> list[tuple]:
    """(argv, in-process computation, comparison) per subcommand and round.
    The in-process side runs only when the results are checked."""
    out = []

    def doc(name, **kw):
        path = os.path.join(workdir, f"{len(out)}-{name}.g")
        write_document(path, **kw)
        return path

    def reduced(lo, hi):
        case = sparse_case(rng, int(rng.integers(lo, hi)))
        return case, summary_from_parent(case.graph, case.spec)

    for r in range(CLI_ROUNDS):
        case, _ = reduced(10, 31)
        out.append((["transform", doc("transform", graph=case.graph), *_spec_args(case.spec)],
                    partial(_shape_of, summary_from_parent, case.graph, case.spec), _expect_graph))

        # a generating graph: on reduced graphs of this size the witness
        # search can enumerate for seconds, which `analyse` measures instead
        case, _ = reduced(10, 31)
        g = case.graph
        a, b, *given = [g.nodes[int(i)] for i in rng.choice(g.dim, 4, replace=False)]
        argv = ["query", doc("query", graph=g), "--alpha", str(a), "--beta", str(b),
                "--given", ",".join(map(str, given))]
        out.append((argv, partial(implies_independence, parent_to_summary(g), IndependenceQuery({a}, {b}, set(given))),
                    _expect_query))

        _, s = reduced(10, 31)
        out.append((["mag", doc("mag", summary=s)], partial(_shape_of, mag_from_summary, s), _expect_graph))

        _, s = reduced(10, 31)
        out.append((["classify", doc("classify", summary=s)], partial(classify, s), _expect_classify))

        case, _ = reduced(5, 13)
        out.append((["audit", doc("audit", graph=case.graph), *_spec_args(case.spec)],
                    partial(_audit_all, case.graph, case.spec), _expect_audit))

        case, _ = reduced(10, 31)
        seed = int(rng.integers(0, 2**31))
        argv = ["verify", doc("verify", graph=case.graph), *_spec_args(case.spec),
                "--draws", str(CLI_VERIFY_DRAWS), "--seed", str(seed)]
        out.append((argv, partial(verify_structural_zeros, case.graph, case.spec, CLI_VERIFY_DRAWS, seed),
                    _expect_verify))

        case = cycle_v_case(rng, 3, 5, 2) if r % 2 else complete_v_case(rng, 3, 6)
        s = summary_from_parent(case.graph, case.spec)
        out.append((["equivalence", doc("equivalence", summary=s)], partial(equivalence_obstruction, s),
                    _expect_equivalence))
    return out


def _expect_graph(shape, rc, stdout):
    if rc != 0 or parse_document(stdout) != shape:
        return f"exit {rc}, graph differs from the in-process derivation"


def _expect_query(verdict, rc, stdout):
    want = "IMPLIED\n" if verdict.implied else "NOT IMPLIED\n"
    if not verdict.implied and verdict.witness is not None:
        want += f"witness: {verdict.witness.render()}\n"
    if rc != (0 if verdict.implied else 1) or stdout != want:
        return f"exit {rc}, query output {stdout!r} differs from {want!r}"


def _expect_classify(cls, rc, stdout):
    lines = stdout.splitlines()
    cycles = [tuple(ln.split(": ", 1)[1].split()) for ln in lines if ln.startswith("semi-directed cycle:")]
    doubles = [tuple(ln.split(": ", 1)[1].split()) for ln in lines if ln.startswith("double edge:")]
    got = (lines[0], cycles, doubles, lines[-1].endswith("yes"))
    want = (cls.kind.upper(), [tuple(map(str, c)) for c in cls.semi_directed_cycles],
            [tuple(map(str, d)) for d in cls.double_edges], cls.independence_graph_candidate)
    if rc != 0 or got != want:
        return f"exit {rc}, classification {got} differs from {want}"


def _expect_audit(reports, rc, stdout):
    want = []
    for rep in reports:
        line = f"{rep.edge[0]} <- {rep.edge[1]}: {_status_text(rep.status)}"
        want.append((line, [w.render() for w in rep.witnesses]))
    got = []
    for ln in stdout.splitlines():
        head, _, via = ln.partition(" via ")
        got.append((head, via.split("; ") if via else []))
    if rc != 0 or got != want:
        return f"exit {rc}, audit {got} differs from {want}"


def _expect_verify(report, rc, stdout):
    lines = stdout.splitlines()
    want = f"verify: {report.n_draws} draws, {len(report.violations)} violations"
    if rc != (0 if report.ok else 1) or lines[-1:] != [want] or lines[:-1] != report.lines():
        return f"exit {rc}, verify output {lines[-1:]} differs from {want!r}"


def _expect_equivalence(obstruction, rc, stdout):
    if obstruction is None:
        want = "NO OBSTRUCTION FOUND"
    elif obstruction.kind == "chordless_cycle":
        want = "OBSTRUCTION: chordless cycle " + " ".join(map(str, obstruction.nodes))
    else:
        want = f"OBSTRUCTION: chordless collision path ({obstruction.pattern}) " + " ".join(
            map(str, obstruction.nodes))
    if rc != 0 or stdout.splitlines() != [want]:
        return f"exit {rc}, equivalence output {stdout!r} differs from {want!r}"


def build_cli(seed: int, runner: CliRunner | None = None) -> Workload:
    rng = _rng(seed, "cli")
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR)
    cases = _cli_cases(rng, workdir)
    run = runner or CliRunner()

    def check(i, result):
        argv, in_process, compare = cases[i]
        problem = compare(in_process(), *result)
        _fail_unless(not problem, f"sumgraph {argv[0]}: {problem}")

    return Workload(
        "cli", [partial(run, argv) for argv, _, _ in cases], check, uses_children=True,
        close=partial(shutil.rmtree, workdir, ignore_errors=True),
    )


WORKLOADS = {
    "reduce": build_reduce,
    "analyse": build_analyse,
    "verify": build_verify,
    "cli": build_cli,
}
