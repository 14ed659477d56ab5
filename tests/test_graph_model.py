import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumgraph.graph_model import (
    ARROW,
    DASHED,
    FULL,
    Edge,
    GraphModelError,
    Mag,
    ParentGraph,
    PlacementError,
    SummaryGraph,
    classify,
    from_edge_list,
    parent_to_summary,
    reorder_v,
    semi_directed_cycles,
    to_edge_list,
    validate_parent,
    validate_summary,
)
from sumgraph.transform import spec_of, summary_from_parent

from conftest import dag, random_dag, random_spec


# ---------------------------------------------------------------------------
# parent-graph validation


@pytest.mark.parametrize("bad", [0.5, 1.9, np.int64(257), np.nan], ids=["0.5", "1.9", "257", "nan"])
@pytest.mark.parametrize("component", ["amat", "h_uu", "h_uv", "w_uu", "s_vv"])
def test_entries_other_than_0_1_are_rejected_not_truncated(component, bad):
    dtype = np.int64 if isinstance(bad, np.integer) else float
    m = np.eye(2, dtype=dtype)
    m[0, 1] = bad
    parts = {
        "h_uu": np.eye(2, dtype=np.int8),
        "h_uv": np.zeros((2, 2), dtype=np.int8),
        "w_uu": np.eye(2, dtype=np.int8),
        "s_vv": np.eye(2, dtype=np.int8),
    }
    with pytest.raises(GraphModelError):
        if component == "amat":
            ParentGraph((1, 2), m)
        else:
            SummaryGraph((1, 2), (3, 4), **{**parts, component: m})


def test_validate_parent_chain_valid_connected():
    g = dag([1, 2, 3], [(1, 2), (2, 3)])
    report = validate_parent(g)
    assert report.valid and report.connected


def test_validate_parent_flags_lower_triangle():
    a = np.eye(3, dtype=np.int8)
    a[2, 0] = 1  # entry below the diagonal
    g = ParentGraph((1, 2, 3), a)
    report = validate_parent(g)
    assert not report.valid
    assert any("below the diagonal" in p for p in report.problems)
    assert any("(3, 1)" in p for p in report.problems)


def test_validate_parent_disconnected_is_valid_but_flagged():
    g = dag([1, 2, 3, 4], [(1, 2), (3, 4)])
    report = validate_parent(g)
    assert report.valid
    assert not report.connected


# ---------------------------------------------------------------------------
# summary-graph validation


def test_validate_summary_iv_reduction_valid(iv_graph):
    s = summary_from_parent(iv_graph, spec_of(marginalising=[4]))
    assert validate_summary(s).valid


def test_validate_summary_flags_asymmetric_w():
    w = np.eye(2, dtype=np.int8)
    w[0, 1] = 1
    s = SummaryGraph((1, 2), (), np.eye(2, dtype=np.int8), np.zeros((2, 0), dtype=np.int8), w, np.zeros((0, 0), dtype=np.int8))
    report = validate_summary(s)
    assert any("w_uu is not symmetric" in p for p in report.problems)


def test_dashed_edge_at_v_node_is_a_placement_error():
    with pytest.raises(PlacementError):
        from_edge_list([Edge(1, 2, DASHED)], u_nodes=[1], v_nodes=[2])


def test_arrow_into_v_is_a_placement_error():
    with pytest.raises(PlacementError):
        from_edge_list([Edge(1, 2, ARROW)], u_nodes=[1], v_nodes=[2])


def test_full_line_needs_v():
    with pytest.raises(PlacementError):
        from_edge_list([Edge(1, 2, FULL)], u_nodes=[1, 2], v_nodes=[])


# ---------------------------------------------------------------------------
# classification


def test_classify_iv_reduction_proper_with_double_edge(iv_graph):
    s = summary_from_parent(iv_graph, spec_of(marginalising=[4]))
    cls = classify(s)
    assert cls.kind == "summary_graph_proper"
    assert cls.double_edges == ((1, 2),)
    assert not cls.independence_graph_candidate
    assert cls.semi_directed_cycles  # the double edge is a two-node cycle


def test_classify_pure_dag_is_regression_graph(iv_graph):
    cls = classify(parent_to_summary(iv_graph))
    assert cls.kind == "regression_graph"
    assert cls.semi_directed_cycles == ()
    assert cls.independence_graph_candidate


def test_classify_three_node_semi_directed_cycle():
    # 1 -> 2, 2 ~~ 3, 3 -> 1
    g = from_edge_list(
        [Edge("1", "2", ARROW), Edge("2", "3", DASHED), Edge("3", "1", ARROW)],
        u_nodes=["2", "1", "3"],
    )
    cls = classify(g)
    assert cls.kind == "summary_graph_proper"
    assert len(cls.semi_directed_cycles) == 1
    assert set(cls.semi_directed_cycles[0]) == {"1", "2", "3"}


def test_pure_undirected_structures_have_no_semi_directed_cycles():
    star = from_edge_list([Edge("a", "c", DASHED), Edge("b", "c", DASHED)], ["a", "b", "c"])
    assert semi_directed_cycles(star) == ()
    triangle = from_edge_list(
        [Edge("a", "b", DASHED), Edge("b", "c", DASHED), Edge("a", "c", DASHED)],
        ["a", "b", "c"],
    )
    assert semi_directed_cycles(triangle) == ()


def _brute_force_has_semi_directed_cycle(g: SummaryGraph) -> bool:
    """Enumerate all simple cycles within u; direction-preserving with at
    least one arrow and one dashed edge."""
    nu = len(g.u_nodes)
    edges = []
    for i in range(nu):
        for k in range(nu):
            if i != k and g.h_uu[i, k]:
                edges.append((k, i, "arrow"))
            if i < k and g.w_uu[i, k]:
                edges.append((i, k, "dashed"))
                edges.append((k, i, "dashed"))
    for length in range(2, nu + 1):
        for cyc in itertools.permutations(range(nu), length):
            if cyc[0] != min(cyc):
                continue
            steps = list(zip(cyc, cyc[1:] + (cyc[0],)))
            used = set()
            kinds = []
            ok = True
            for x, y in steps:
                options = [e for e in edges if e[0] == x and e[1] == y and frozenset((x, y, e[2])) not in used]
                if not options:
                    ok = False
                    break
                e = options[0]
                used.add(frozenset((x, y, e[2])))
                kinds.append(e[2])
            if ok and "arrow" in kinds and "dashed" in kinds:
                return True
    return False


def test_semi_directed_cycle_detection_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(2, 8))
        h = np.eye(n, dtype=np.int8)
        w = np.eye(n, dtype=np.int8)
        for i in range(n):
            for k in range(i + 1, n):
                if rng.random() < 0.3:
                    h[i, k] = 1
                if rng.random() < 0.3:
                    w[i, k] = w[k, i] = 1
        g = SummaryGraph(tuple(range(n)), (), h, np.zeros((n, 0), dtype=np.int8), w, np.zeros((0, 0), dtype=np.int8))
        assert bool(semi_directed_cycles(g)) == _brute_force_has_semi_directed_cycle(g)


# ---------------------------------------------------------------------------
# edge lists


def test_edge_list_empty_round_trip():
    g = from_edge_list([], u_nodes=[1, 2], v_nodes=[3])
    assert to_edge_list(g) == []


def test_edge_list_indirect_reduction_round_trip(indirect_graph):
    s = summary_from_parent(indirect_graph, spec_of(marginalising=[5]))
    edges = to_edge_list(s)
    want = {
        Edge(2, 1, ARROW),
        Edge(4, 1, ARROW),
        Edge(3, 2, ARROW),
        Edge(4, 3, ARROW),
        Edge(1, 3, DASHED),
    }
    assert set(edges) == want
    back = from_edge_list(edges, s.u_nodes, s.v_nodes)
    assert back == s


def test_edge_list_round_trip_random():
    rng = np.random.default_rng(12)
    for _ in range(100):
        g = random_dag(rng, int(rng.integers(2, 8)))
        s = summary_from_parent(g, random_spec(rng, g.nodes))
        back = from_edge_list(to_edge_list(s), s.u_nodes, s.v_nodes, provenance=s.provenance)
        assert back == s


def test_from_edge_list_reorders_u_topologically():
    # supplied order (2, 1) conflicts with the arrow 1 <- 2
    g = from_edge_list([Edge(2, 1, ARROW)], u_nodes=[2, 1])
    assert g.u_nodes == (1, 2)


def test_from_edge_list_rejects_directed_cycle():
    with pytest.raises(GraphModelError):
        from_edge_list([Edge(1, 2, ARROW), Edge(2, 1, ARROW)], u_nodes=[1, 2])


def test_self_edges_are_stripped():
    g = from_edge_list([Edge(1, 1, DASHED)], u_nodes=[1, 2])
    assert to_edge_list(g) == []


# ---------------------------------------------------------------------------
# Mag type


def test_mag_rejects_double_edges():
    h = np.eye(2, dtype=np.int8)
    h[0, 1] = 1
    w = np.ones((2, 2), dtype=np.int8)
    with pytest.raises(GraphModelError):
        Mag((1, 2), (), h, np.zeros((2, 0), dtype=np.int8), w, np.zeros((0, 0), dtype=np.int8))


def test_every_mag_is_a_valid_summary_graph():
    from sumgraph.transform import mag_from_summary

    rng = np.random.default_rng(13)
    for _ in range(30):
        g = random_dag(rng, int(rng.integers(2, 7)))
        s = summary_from_parent(g, random_spec(rng, g.nodes))
        mag = mag_from_summary(s)
        assert validate_summary(mag).valid


# ---------------------------------------------------------------------------
# misc structure helpers


def test_reorder_v_is_an_isomorphism(two_stage_graph):
    s = summary_from_parent(two_stage_graph, spec_of(conditioning=[2, 4], marginalising=[6, 7]))
    flipped = reorder_v(s, tuple(reversed(s.v_nodes)))
    assert {e.canonical() for e in to_edge_list(flipped)} == {
        e.canonical() for e in to_edge_list(s)
    }
    assert reorder_v(flipped, s.v_nodes) == s


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_round_trip_identity_hypothesis(data):
    n = data.draw(st.integers(min_value=1, max_value=7))
    n_u = data.draw(st.integers(min_value=0, max_value=n))
    u = list(range(n_u))
    v = list(range(n_u, n))
    edges = []
    for i in range(n):
        for k in range(i + 1, n):
            both_u = k < n_u
            both_v = i >= n_u
            choices = [None]
            if both_u:
                choices += [ARROW, DASHED, "double"]
            elif i < n_u <= k:
                choices += [ARROW]
            elif both_v:
                choices += [FULL]
            pick = data.draw(st.sampled_from(choices))
            if pick == ARROW and both_u:
                edges.append(Edge(k, i, ARROW))
            elif pick == ARROW:
                edges.append(Edge(k, i, ARROW))
            elif pick == DASHED:
                edges.append(Edge(i, k, DASHED))
            elif pick == FULL:
                edges.append(Edge(i, k, FULL))
            elif pick == "double":
                edges.append(Edge(k, i, ARROW))
                edges.append(Edge(i, k, DASHED))
    g = from_edge_list(edges, u, v)
    assert from_edge_list(to_edge_list(g), g.u_nodes, g.v_nodes) == g


# ---------------------------------------------------------------------------
# descendants and ancestors, read off the cached arrow closure


def descendants_by_bfs(g: SummaryGraph, node) -> set:
    """Breadth first from ``node`` along the arrows of the edge list."""
    children: dict = {}
    for e in to_edge_list(g):
        if e.kind == ARROW:
            children.setdefault(e.tail, set()).add(e.head)
    seen: set = set()
    frontier = {node}
    while frontier:
        frontier = {c for x in frontier for c in children.get(x, ())} - seen
        seen |= frontier
    return seen - {node}


def test_descendants_equal_a_search_over_the_edge_list():
    rng = np.random.default_rng(26)
    v_with_descendants = 0
    for _ in range(300):
        g = random_dag(rng, int(rng.integers(2, 12)), p=float(rng.uniform(0.1, 0.6)))
        s = summary_from_parent(g, random_spec(rng, g.nodes))
        for node in s.nodes:
            below = descendants_by_bfs(s, node)
            assert s.descendants(node) == below, (node, s.u_nodes, s.v_nodes)
            v_with_descendants += node in s.v_nodes and bool(below)
        for node in s.u_nodes:
            ancestors = {x for x in s.u_nodes if node in descendants_by_bfs(s, x)}
            assert s.ancestors_in_u(node) == ancestors
    assert v_with_descendants > 100


@pytest.mark.parametrize("n_children", [127, 128, 255, 256, 300])
def test_descendants_of_a_v_node_with_many_children(n_children):
    # u node 0 is a child of the u nodes 1..n, which are all children of
    # the one v node: a count of those paths would overflow an int8
    nu = n_children + 1
    h_uu = np.eye(nu, dtype=np.int8)
    h_uu[0, 1:] = 1
    h_uv = np.zeros((nu, 1), dtype=np.int8)
    h_uv[1:, 0] = 1
    s = SummaryGraph(tuple(range(nu)), ("v",), h_uu, h_uv, np.eye(nu, dtype=np.int8), np.eye(1, dtype=np.int8))
    assert s.descendants("v") == descendants_by_bfs(s, "v") == set(range(nu))
    assert s.descendants(0) == set()
    assert s.descendants(1) == {0}


def test_arrow_closure_is_cached_and_read_only(indirect_graph):
    s = summary_from_parent(indirect_graph, spec_of(marginalising=[5]))
    closed = s._arrow_closure
    assert closed is s._arrow_closure
    assert not closed.flags.writeable
