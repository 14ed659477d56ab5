"""Confounding audits for generating dependences under graph reduction.

When a parent-graph model is reduced to a MAG model over the surviving
nodes, an arrow's parameter can change although the arrow itself
survives.  Two structural alarms exist: an active path between the
endpoints relative to (C, M) in the generating graph (direct
confounding, visible as a double edge when the path induces a residual
association), and an active path relative to the node's own ancestor
and implicit-marginalisation sets in the derived summary graph
(indirect confounding).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph_model import (
    DASH,
    HEAD,
    NodeId,
    ParentGraph,
    SummaryGraph,
    double_edges,
    parent_to_summary,
)
from .queries import PathWitness, QueryError, _listed, _path_search, active_paths
from .transform import MarginalConditionSpec, summary_from_parent

UNDISTORTED = "undistorted"
DIRECT = "directly_confounded"
INDIRECT = "indirectly_confounded"
BOTH = "both"
OUT_OF_SCOPE = "out_of_scope_for_distortion"


@dataclass(frozen=True)
class ConfoundingReport:
    edge: tuple[NodeId, NodeId]  # (i, k) for i <- k
    status: str
    direct_witnesses: tuple[PathWitness, ...]
    indirect_witnesses: tuple[PathWitness, ...]
    conditioning: frozenset
    marginalising: frozenset
    c_i: frozenset
    m_i: frozenset
    double_edge: bool

    @property
    def witnesses(self) -> tuple[PathWitness, ...]:
        return self.direct_witnesses + self.indirect_witnesses


class ConfoundingError(QueryError):
    pass


def _edge_sets(g: SummaryGraph, i: NodeId) -> tuple[frozenset, frozenset]:
    """The per-node sets of the indirect check: c_i holds the ancestors of i
    within u, m_i the nodes at or before i in the u order plus the later
    u nodes that are not ancestors."""
    order = list(g.u_nodes)
    pos = order.index(i)
    c_i = g.ancestors_in_u(i)
    pst = set(order[pos + 1:])
    m_i = set(order[: pos + 1]) | (pst - c_i)
    return frozenset(c_i), frozenset(m_i)


def audit_edge(
    g: ParentGraph, spec: MarginalConditionSpec, edge: tuple[NodeId, NodeId]
) -> ConfoundingReport:
    """Audit one generating dependence i <- k for distortion under (C, M).

    The direct check searches the generating graph for an active ik-path
    relative to (C, M) other than the edge itself; the indirect check
    searches the derived summary graph relative to (c_i, m_i).
    """
    i, k = edge
    if i not in g.nodes or k not in g.nodes:
        raise ConfoundingError(f"edge endpoints {edge} not in graph")
    gi, gk = g.index(i), g.index(k)
    if not g.amat[gi, gk] or gi == gk:
        raise ConfoundingError(f"edge {i} <- {k} is not present in the parent graph")
    summary = summary_from_parent(g, spec)
    in_u = set(summary.u_nodes)
    if i not in in_u or k not in in_u:
        return ConfoundingReport(
            edge=edge,
            status=OUT_OF_SCOPE,
            direct_witnesses=(),
            indirect_witnesses=(),
            conditioning=spec.conditioning,
            marginalising=spec.marginalising,
            c_i=frozenset(),
            m_i=frozenset(),
            double_edge=False,
        )
    skip = frozenset([frozenset((i, k))])
    direct = tuple(
        active_paths(
            parent_to_summary(g),
            [i],
            [k],
            conditioning=spec.conditioning,
            marginalised=spec.marginalising,
            skip_direct=skip,
        )
    )
    c_i, m_i = _edge_sets(summary, i)
    indirect = tuple(
        active_paths(
            summary,
            [i],
            [k],
            conditioning=(c_i - {k}) | set(summary.v_nodes),
            marginalised=m_i - {i},
            skip_direct=skip,
        )
    )
    if direct and indirect:
        status = BOTH
    elif direct:
        status = DIRECT
    elif indirect:
        status = INDIRECT
    else:
        status = UNDISTORTED
    # double_edges lists each pair in u order
    pair = tuple(sorted((i, k), key=summary.u_nodes.index))
    return ConfoundingReport(
        edge=edge,
        status=status,
        direct_witnesses=direct,
        indirect_witnesses=indirect,
        conditioning=spec.conditioning,
        marginalising=spec.marginalising,
        c_i=c_i,
        m_i=m_i,
        double_edge=pair in double_edges(summary),
    )


def residual_associating_paths(
    g: ParentGraph, spec: MarginalConditionSpec, edge: tuple[NodeId, NodeId]
) -> tuple[PathWitness, ...]:
    """Active ik-paths relative to (C, M) whose edge ends at both endpoints
    carry an arrowhead; exactly these induce a dashed edge and therefore a
    double edge next to the audited arrow."""
    i, k = edge
    skip = frozenset([frozenset((i, k))])
    paths = active_paths(
        parent_to_summary(g),
        [i],
        [k],
        conditioning=spec.conditioning,
        marginalised=spec.marginalising,
        skip_direct=skip,
    )
    out = []
    for w in paths:
        first_mark = w.marks[0][0]
        last_mark = w.marks[-1][1]
        if first_mark in (HEAD, DASH) and last_mark in (HEAD, DASH):
            out.append(w)
    return tuple(out)


def indirect_paths(g: SummaryGraph, edge: tuple[NodeId, NodeId]) -> list[PathWitness]:
    """Collision ik-paths whose inner nodes are all forefathers of i, of the
    two shapes i ~~ ... ~~ k and i ~~ ... <- k.  Only defined for summary
    graphs without double edges.

    They are the active paths of the shared path search with no node
    marginalised, the forefathers (ancestors of i within u that are not
    its parents) as the only nodes enabled as collisions, and the edge
    i, k skipped.  Every inner node is then a collision node, so the
    edges between inner nodes are dashed; the last edge is dashed or an
    arrow from k, and the first is dashed, since an arrow from i into an
    ancestor of i would close a directed cycle."""
    doubles = double_edges(g)
    if doubles:
        raise ConfoundingError(
            f"graph has double edges {doubles}; run a full audit instead"
        )
    i, k = edge
    if i not in g.u_nodes or k not in g.u_nodes:
        raise ConfoundingError(f"edge endpoints {edge} must both lie in u")
    index = g.edge_index
    parents_i = {g.nodes[j] for j in index.parents[index.position[i]]}
    forefathers = g.ancestors_in_u(i) - parents_i
    skip = frozenset([frozenset((i, k))])
    return _listed(
        _path_search(g, frozenset([i]), frozenset([k]), frozenset(), forefathers, skip, len(g.nodes) + 1)
    )


@dataclass(frozen=True)
class IdentificationHint:
    double_edge_pairs: tuple[tuple[NodeId, NodeId], ...]

    @property
    def sufficient_for_identification(self) -> bool:
        """Absence of double edges suffices for identification; their presence
        is inconclusive (some double-edge models are identified instrumental
        variable models)."""
        return not self.double_edge_pairs


def identification_hint(g: SummaryGraph) -> IdentificationHint:
    return IdentificationHint(double_edge_pairs=double_edges(g))
