"""Command-line front end and the line-oriented graph document format.

Documents are UTF-8 text with LF newlines:

    # comment
    nodes: 1 2 3 4        node order; for generating graphs the first node
                          is the youngest response
    u: 1 2                optional; presence of u:/v: marks a summary graph
    v: 3 4
    1 <- 2 : 0.4          arrow into 1, optional coefficient
    1 ~~ 2                dashed edge (within u)
    3 -- 4                full line (within v)
    var 1 : 1.0           optional residual variance

Emitted documents are canonical: the header keeps the semantic node
order, edges are sorted by (lower id, higher id, kind), and a document
re-parses to the identical graph.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from typing import Optional

from .confounding import ConfoundingError, audit_edge, indirect_paths
from .edge_matrix import EdgeMatrixError
from .graph_model import (
    ARROW,
    DASHED,
    FULL,
    Edge,
    GraphModelError,
    NodeId,
    ParentGraph,
    SummaryGraph,
    classify,
    from_edge_list,
    parent_to_summary,
    reorder_v,
    to_edge_list,
    validate_parent,
)
from .oracle import OracleError, TriangularSystem, system_from_coefficients, verify_structural_zeros
from .queries import (
    IndependenceQuery,
    NotARegressionGraphError,
    QueryError,
    equivalence_obstruction,
    implies_independence,
)
from .transform import (
    MarginalConditionSpec,
    TransformError,
    mag_from_summary,
    spec_of,
    stepwise_trace,
    summary_from_parent,
    summary_from_summary,
)


class DocumentError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass
class GraphDocument:
    parent: Optional[ParentGraph] = None
    summary: Optional[SummaryGraph] = None
    system: Optional[TriangularSystem] = None

    @property
    def is_parent(self) -> bool:
        return self.parent is not None

    def as_summary(self) -> SummaryGraph:
        return self.summary if self.summary is not None else parent_to_summary(self.parent)


_KINDS = {"<-": ARROW, "--": FULL, "~~": DASHED}
_SYMBOL = {ARROW: "<-", FULL: "--", DASHED: "~~"}


def _id_key(node: NodeId):
    s = str(node)
    return (0, int(s)) if s.lstrip("-").isdigit() else (1, s)


def _number(text: str, what: str, lineno: int) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise DocumentError(f"bad {what} {text.strip()!r}", lineno)
    return value


def parse_graph(text: str) -> GraphDocument:
    nodes: list[str] = []
    u_nodes: Optional[list[str]] = None
    v_nodes: Optional[list[str]] = None
    edges: list[Edge] = []
    coefficients: dict[tuple[str, str], float] = {}
    variances: dict[str, float] = {}
    seen_edges: set[tuple[frozenset, str]] = set()
    have_nodes = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("nodes:"):
            if have_nodes:
                raise DocumentError("duplicate nodes: line", lineno)
            nodes = line[len("nodes:"):].split()
            if len(set(nodes)) != len(nodes):
                raise DocumentError("duplicate node id in nodes:", lineno)
            for name in nodes:
                if name in _KINDS or ":" in name:
                    raise DocumentError(f"reserved token {name!r} cannot be a node id", lineno)
            have_nodes = True
            continue
        if line.startswith("u:"):
            u_nodes = line[2:].split()
            continue
        if line.startswith("v:"):
            v_nodes = line[2:].split()
            continue
        if line.startswith("var "):
            rest = line[4:]
            if ":" not in rest:
                raise DocumentError("var line needs ': <value>'", lineno)
            name, value = rest.split(":", 1)
            variances[name.strip()] = _number(value, "variance value", lineno)
            continue
        coef = None
        if ":" in line:
            line, coef_text = line.split(":", 1)
            line = line.strip()
            coef = _number(coef_text, "coefficient", lineno)
        tokens = line.split()
        if len(tokens) != 3 or tokens[1] not in _KINDS:
            raise DocumentError(f"cannot parse edge line {raw.strip()!r}", lineno)
        left, symbol, right = tokens
        kind = _KINDS[symbol]
        if coef is not None and kind != ARROW:
            raise DocumentError("coefficients are only allowed on arrows", lineno)
        if left == right:
            raise DocumentError("self edges are not allowed", lineno)
        key = (frozenset((left, right)), kind)
        if key in seen_edges:
            raise DocumentError(f"duplicate edge {left} {symbol} {right}", lineno)
        seen_edges.add(key)
        if kind == ARROW:
            edge = Edge(tail=right, head=left, kind=ARROW)
            if coef is not None:
                coefficients[(left, right)] = coef
        else:
            edge = Edge(tail=left, head=right, kind=kind)
        edges.append(edge)

    if not have_nodes:
        raise DocumentError("missing nodes: line")
    declared = set(nodes)
    for e in edges:
        for endpoint in (e.tail, e.head):
            if endpoint not in declared:
                raise DocumentError(f"edge uses undeclared node {endpoint!r}")
    for name in variances:
        if name not in declared:
            raise DocumentError(f"variance for undeclared node {name!r}")

    if u_nodes is None and v_nodes is None:
        return _parent_document(nodes, edges, coefficients, variances)
    u_nodes = u_nodes or []
    v_nodes = v_nodes or []
    if set(u_nodes) | set(v_nodes) != declared or set(u_nodes) & set(v_nodes):
        raise DocumentError("u: and v: must partition the declared nodes")
    if coefficients or variances:
        raise DocumentError("numeric annotations are only supported on generating graphs")
    try:
        summary = from_edge_list(edges, u_nodes, v_nodes)
    except GraphModelError as exc:
        raise DocumentError(str(exc)) from None
    return GraphDocument(summary=summary)


def _parent_document(nodes, edges, coefficients, variances) -> GraphDocument:
    import numpy as np

    for e in edges:
        if e.kind != ARROW:
            raise DocumentError(
                f"{_SYMBOL[e.kind]} edges need a u:/v: partition; generating graphs carry arrows only"
            )
    idx = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    amat = np.eye(n, dtype=np.int8)
    for e in edges:
        amat[idx[e.head], idx[e.tail]] = 1
    parent = ParentGraph(nodes=tuple(nodes), amat=amat)
    system = None
    if coefficients or variances:
        missing = [
            (nodes[i], nodes[k])
            for i in range(n)
            for k in range(n)
            if i != k and amat[i, k] and (nodes[i], nodes[k]) not in coefficients
        ]
        if missing:
            raise DocumentError(
                f"coefficients missing for edges: {['%s <- %s' % m for m in missing]}"
            )
        try:
            system = system_from_coefficients(parent, coefficients, variances)
        except OracleError as exc:
            raise DocumentError(str(exc)) from None
    return GraphDocument(parent=parent, system=system)


def emit_graph(
    graph: ParentGraph | SummaryGraph, system: Optional[TriangularSystem] = None
) -> str:
    lines = []
    lines.append(("nodes: " + " ".join(str(n) for n in graph.nodes)).rstrip())
    if isinstance(graph, ParentGraph):
        edges = to_edge_list(parent_to_summary(graph))
    else:
        lines.append(("u: " + " ".join(str(n) for n in graph.u_nodes)).rstrip())
        lines.append(("v: " + " ".join(str(n) for n in graph.v_nodes)).rstrip())
        edges = to_edge_list(graph)

    key = {n: _id_key(n) for n in graph.nodes}

    def ends(e: Edge) -> tuple[NodeId, NodeId]:
        """The endpoints in id order, the tail first on a tie."""
        return (e.head, e.tail) if key[e.head] < key[e.tail] else (e.tail, e.head)

    def edge_key(e: Edge):
        lo, hi = ends(e)
        return (key[lo], key[hi], e.kind)

    for e in sorted(edges, key=edge_key):
        if e.kind == ARROW:
            line = f"{e.head} <- {e.tail}"
            if system is not None:
                line += f" : {system.coefficient(e.head, e.tail)!r}"
        else:
            lo, hi = ends(e)
            line = f"{lo} {_SYMBOL[e.kind]} {hi}"
        lines.append(line)
    if system is not None:
        for node in graph.nodes:
            lines.append(f"var {node} : {float(system.dvar[system.graph.index(node)])!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command infrastructure


class CommandError(Exception):
    """Fatal usage or input error; maps to exit code 2."""


def _load(path: str) -> GraphDocument:
    """Read and parse a document; every command reads through here, so a
    generating graph is always checked before any command uses it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CommandError(f"cannot read {path}: {exc}") from None
    try:
        doc = parse_graph(text)
    except DocumentError as exc:
        raise CommandError(f"{path}: {exc}") from None
    if doc.is_parent:
        report = validate_parent(doc.parent)
        if not report.valid:
            raise CommandError(f"{path}: invalid generating graph: {'; '.join(report.problems)}")
    return doc


def _node_set(text: Optional[str]) -> frozenset:
    if not text:
        return frozenset()
    return frozenset(tok for tok in text.replace(",", " ").split() if tok)


def _spec(args, nodes) -> MarginalConditionSpec:
    try:
        spec = spec_of(_node_set(args.condition), _node_set(args.marginalise))
        spec.validate_over(nodes)
    except TransformError as exc:
        raise CommandError(str(exc)) from None
    return spec


def _checked_parent(doc: GraphDocument, path: str) -> ParentGraph:
    if not doc.is_parent:
        raise CommandError(f"{path}: this command needs a generating graph (no u:/v: lines)")
    return doc.parent


def cmd_transform(args, out, err) -> int:
    doc = _load(args.file)
    graph = doc.as_summary()
    spec = _spec(args, graph.nodes)
    if args.stepwise:
        steps = stepwise_trace(graph, spec)
        for op, node, intermediate in steps:
            print(f"# after {op} {node}", file=err)
            err.write(emit_graph(intermediate))
        result = steps[-1][2] if steps else graph
    elif doc.is_parent:
        result = summary_from_parent(doc.parent, spec)
    else:
        result = summary_from_summary(graph, spec)
    # both routes emit the same document: v order is storage only
    result = reorder_v(result, sorted(result.v_nodes, key=_id_key))
    out.write(emit_graph(result))
    return 0


def cmd_query(args, out, err) -> int:
    doc = _load(args.file)
    graph = doc.as_summary()
    try:
        query = IndependenceQuery(
            _node_set(args.alpha), _node_set(args.beta), _node_set(args.given)
        )
        verdict = implies_independence(graph, query)
    except QueryError as exc:
        raise CommandError(str(exc)) from None
    if verdict.implied:
        print("IMPLIED", file=out)
        return 0
    print("NOT IMPLIED", file=out)
    if verdict.witness is not None:
        print(f"witness: {verdict.witness.render()}", file=out)
    return 1


def cmd_mag(args, out, err) -> int:
    doc = _load(args.file)
    mag = mag_from_summary(doc.as_summary())
    out.write(emit_graph(mag))
    return 0


def cmd_classify(args, out, err) -> int:
    doc = _load(args.file)
    cls = classify(doc.as_summary())
    print(cls.kind.upper(), file=out)
    for cycle in cls.semi_directed_cycles:
        print("semi-directed cycle: " + " ".join(str(n) for n in cycle), file=out)
    for i, k in cls.double_edges:
        print(f"double edge: {i} {k}", file=out)
    print(
        "independence graph candidate: " + ("yes" if cls.independence_graph_candidate else "no"),
        file=out,
    )
    return 0


def _parse_edge(text: str) -> tuple[str, str]:
    parts = [tok for tok in text.replace(",", " ").split() if tok]
    if len(parts) != 2:
        raise CommandError(f"--edge expects 'i,k', got {text!r}")
    return parts[0], parts[1]


_STATUS_TEXT = {
    "undistorted": "UNDISTORTED",
    "directly_confounded": "DIRECTLY CONFOUNDED",
    "indirectly_confounded": "INDIRECTLY CONFOUNDED",
    "both": "DIRECTLY AND INDIRECTLY CONFOUNDED",
    "out_of_scope_for_distortion": "OUT OF SCOPE FOR DISTORTION",
}


def cmd_audit(args, out, err) -> int:
    doc = _load(args.file)
    if not doc.is_parent:
        return _audit_summary_only(args, doc, out)
    parent = _checked_parent(doc, args.file)
    spec = _spec(args, parent.nodes)
    if args.edge:
        targets = [_parse_edge(args.edge)]
    else:
        targets = [
            (parent.nodes[i], parent.nodes[k])
            for i in range(parent.dim)
            for k in range(i + 1, parent.dim)
            if parent.amat[i, k]
        ]
    for i, k in targets:
        try:
            report = audit_edge(parent, spec, (i, k))
        except ConfoundingError as exc:
            raise CommandError(str(exc)) from None
        line = f"{i} <- {k}: {_STATUS_TEXT[report.status]}"
        if report.witnesses:
            line += " via " + "; ".join(w.render() for w in report.witnesses)
        print(line, file=out)
    return 0


def _audit_summary_only(args, doc: GraphDocument, out) -> int:
    """Without the generating graph only the indirect criterion applies."""
    graph = doc.summary
    if args.order:
        order = args.order.replace(",", " ").split()
        graph = from_edge_list(to_edge_list(graph), order, graph.v_nodes)
    if not args.edge:
        raise CommandError("audit on a summary graph needs --edge")
    i, k = _parse_edge(args.edge)
    try:
        paths = indirect_paths(graph, (i, k))
    except ConfoundingError as exc:
        raise CommandError(str(exc)) from None
    if paths:
        print(
            f"{i} <- {k}: INDIRECTLY CONFOUNDED via " + "; ".join(w.render() for w in paths),
            file=out,
        )
    else:
        print(f"{i} <- {k}: NO INDIRECT-CONFOUNDING PATHS", file=out)
    return 0


def cmd_verify(args, out, err) -> int:
    doc = _load(args.file)
    parent = _checked_parent(doc, args.file)
    spec = _spec(args, parent.nodes)
    report = verify_structural_zeros(parent, spec, n_draws=args.draws, seed=args.seed)
    for line in report.lines():
        print(line, file=out)
    print(
        f"verify: {report.n_draws} draws, {len(report.violations)} violations",
        file=out,
    )
    return 0 if report.ok else 1


def cmd_equivalence(args, out, err) -> int:
    doc = _load(args.file)
    try:
        obstruction = equivalence_obstruction(doc.as_summary())
    except NotARegressionGraphError as exc:
        raise CommandError(str(exc)) from None
    if obstruction is None:
        print("NO OBSTRUCTION FOUND", file=out)
    elif obstruction.kind == "chordless_cycle":
        print(
            "OBSTRUCTION: chordless cycle " + " ".join(str(n) for n in obstruction.nodes),
            file=out,
        )
    else:
        print(
            f"OBSTRUCTION: chordless collision path ({obstruction.pattern}) "
            + " ".join(str(n) for n in obstruction.nodes),
            file=out,
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumgraph",
        description="Summary graphs, MAGs, independence queries and confounding audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_args(p):
        p.add_argument("--condition", default="", help="comma-separated conditioning nodes")
        p.add_argument("--marginalise", default="", help="comma-separated marginalising nodes")

    p = sub.add_parser("transform", help="derive the reduced summary graph")
    p.add_argument("file")
    add_spec_args(p)
    p.add_argument("--stepwise", action="store_true", help="one-node-at-a-time route")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("query", help="independence query (exit 0 implied, 1 not)")
    p.add_argument("file")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--given", default="")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("mag", help="maximal ancestral graph of a summary graph")
    p.add_argument("file")
    p.set_defaults(func=cmd_mag)

    p = sub.add_parser("classify", help="regression graph or proper summary graph")
    p.add_argument("file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("audit", help="confounding audit of generating dependences")
    p.add_argument("file")
    add_spec_args(p)
    p.add_argument("--edge", default="", help="audit one edge, as i,k")
    p.add_argument("--order", default="", help="u order for bare summary input")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("verify", help="numeric structural-zero verification")
    p.add_argument("file")
    add_spec_args(p)
    p.add_argument("--draws", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("equivalence", help="search Markov-equivalence obstructions")
    p.add_argument("file")
    p.set_defaults(func=cmd_equivalence)

    return parser


def main(argv: Optional[list[str]] = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args, out, err)
    except CommandError as exc:
        print(f"sumgraph: {exc}", file=err)
        return 2
    except (GraphModelError, TransformError, QueryError, OracleError, EdgeMatrixError) as exc:
        print(f"sumgraph: {exc}", file=err)
        return 2


if __name__ == "__main__":
    sys.exit(main())
