import itertools

import numpy as np
import pytest

from sumgraph.confounding import (
    BOTH,
    DIRECT,
    INDIRECT,
    OUT_OF_SCOPE,
    UNDISTORTED,
    ConfoundingError,
    audit_edge,
    identification_hint,
    indirect_paths,
    residual_associating_paths,
)
from sumgraph.graph_model import DASH, HEAD, TAIL, SummaryGraph, double_edges, parent_to_summary
from sumgraph.oracle import derive_linear_summary, mag_coefficients, sample_system, standardized
from sumgraph.queries import PathWitness
from sumgraph.transform import mag_from_summary, spec_of, summary_from_parent

from conftest import dag, random_dag, random_spec


# ---------------------------------------------------------------------------
# audits on the worked examples


def test_iv_direct_confounding(iv_graph):
    report = audit_edge(iv_graph, spec_of(marginalising=[4]), (1, 2))
    assert report.status == DIRECT
    assert [w.render() for w in report.direct_witnesses] == ["1 <- 4 -> 2"]
    assert report.double_edge


def test_indirect_confounding_detected(indirect_graph):
    report = audit_edge(indirect_graph, spec_of(marginalising=[5]), (1, 4))
    assert report.status == INDIRECT
    assert [w.render() for w in report.indirect_witnesses] == ["1 ~~ 3 <- 4"]
    assert report.c_i == frozenset([2, 3, 4])
    assert report.m_i == frozenset([1])


def test_indirect_first_coefficient_undistorted(indirect_graph):
    report = audit_edge(indirect_graph, spec_of(marginalising=[5]), (1, 2))
    assert report.status == UNDISTORTED
    assert report.witnesses == ()


def test_audit_rejects_absent_edge(iv_graph):
    with pytest.raises(ConfoundingError):
        audit_edge(iv_graph, spec_of(marginalising=[4]), (1, 3))


def test_audit_out_of_scope_endpoint(indirect_graph):
    report = audit_edge(indirect_graph, spec_of(marginalising=[5]), (1, 5))
    assert report.status == OUT_OF_SCOPE


def test_audit_endpoint_in_v_is_out_of_scope():
    g = dag([1, 2, 3], [(1, 2), (2, 3)])
    report = audit_edge(g, spec_of(conditioning=[1]), (2, 3))
    # both endpoints are ancestors of the conditioning set, hence land in v
    assert report.status == OUT_OF_SCOPE


# ---------------------------------------------------------------------------
# indirect-confounding paths through forefathers


def test_indirect_paths_found(indirect_graph):
    s = summary_from_parent(indirect_graph, spec_of(marginalising=[5]))
    assert [w.render() for w in indirect_paths(s, (1, 4))] == ["1 ~~ 3 <- 4"]
    assert indirect_paths(s, (1, 2)) == []


def test_indirect_paths_require_no_double_edges(iv_graph):
    s = summary_from_parent(iv_graph, spec_of(marginalising=[4]))
    with pytest.raises(ConfoundingError):
        indirect_paths(s, (1, 2))


def test_indirect_paths_empty_without_dashed_edges(indirect_graph):
    s = parent_to_summary(indirect_graph)
    assert indirect_paths(s, (1, 2)) == []


def test_indirect_paths_are_active_for_the_per_node_sets(indirect_graph):
    from sumgraph.queries import active_paths

    s = summary_from_parent(indirect_graph, spec_of(marginalising=[5]))
    found = indirect_paths(s, (1, 4))
    c_1 = s.ancestors_in_u(1)
    m_1 = {1}
    actives = active_paths(
        s,
        [1],
        [4],
        conditioning=(c_1 - {4}) | set(s.v_nodes),
        marginalised=m_1 - {1},
        skip_direct=frozenset([frozenset((1, 4))]),
    )
    rendered = {w.render() for w in actives}
    for w in found:
        assert w.render() in rendered


def dfs_indirect_paths(g: SummaryGraph, edge) -> list:
    """The forefather collision paths by their own depth-first search: from
    i along dashed edges through forefathers of i, closed by a dashed edge
    or an arrow from k into the last node."""
    i, k = edge
    ui = {n: j for j, n in enumerate(g.u_nodes)}
    parents_i = {g.u_nodes[j] for j in np.flatnonzero(g.h_uu[ui[i]]) if g.u_nodes[j] != i}
    forefathers = sorted(g.ancestors_in_u(i) - parents_i, key=ui.get)
    out = []

    def dashed(x, y):
        return bool(g.w_uu[ui[x], ui[y]]) and x != y

    def arrow_from(head, tail):
        return bool(g.h_uu[ui[head], ui[tail]]) and head != tail

    def chain(nodes, final_arrow):
        marks = [(DASH, DASH)] * (len(nodes) - 1)
        if final_arrow:
            marks[-1] = (HEAD, TAIL)
        return PathWitness(tuple(nodes), tuple(marks), tuple("collision" for _ in nodes[1:-1]))

    def extend(path):
        last = path[-1]
        if len(path) > 1:
            if dashed(last, k):
                out.append(chain(path + [k], final_arrow=False))
            if arrow_from(last, k):
                out.append(chain(path + [k], final_arrow=True))
        for nxt in forefathers:
            if nxt not in path and nxt != k and dashed(last, nxt):
                extend(path + [nxt])

    extend([i])
    out.sort(key=lambda w: (len(w.nodes), tuple(ui[n] for n in w.nodes)))
    return out


def random_summary_without_double_edges(rng) -> SummaryGraph:
    nu, nv = int(rng.integers(3, 9)), int(rng.integers(0, 3))
    h_uu = np.triu(rng.random((nu, nu)) < rng.uniform(0.2, 0.7), 1).astype(np.int8)
    dashed = np.triu(rng.random((nu, nu)) < rng.uniform(0.2, 0.6), 1) & (h_uu == 0)
    w_uu = (dashed | dashed.T | np.eye(nu, dtype=bool)).astype(np.int8)
    h_uv = (rng.random((nu, nv)) < 0.4).astype(np.int8)
    s_vv = np.ones((nv, nv), dtype=np.int8)
    return SummaryGraph(
        tuple(range(1, nu + 1)), tuple(range(nu + 1, nu + nv + 1)),
        h_uu + np.eye(nu, dtype=np.int8), h_uv, w_uu, s_vv,
    )


def test_indirect_paths_equal_their_own_search_on_random_summary_graphs():
    rng = np.random.default_rng(2011)
    found = longer = 0
    for _ in range(600):
        s = random_summary_without_double_edges(rng)
        for i, k in itertools.permutations(s.u_nodes, 2):
            got = indirect_paths(s, (i, k))
            assert got == dfs_indirect_paths(s, (i, k)), (s.h_uu.tolist(), s.w_uu.tolist(), i, k)
            found += bool(got)
            longer += any(len(w.nodes) > 3 for w in got)
    # 667 of the 17,062 ordered pairs have paths, 86 through two or more forefathers
    assert found > 600 and longer > 60


# ---------------------------------------------------------------------------
# identification hints


def test_identification_hint_iv(iv_graph):
    s = summary_from_parent(iv_graph, spec_of(marginalising=[4]))
    hint = identification_hint(s)
    assert hint.double_edge_pairs == ((1, 2),)
    assert not hint.sufficient_for_identification


def test_identification_hint_indirect(indirect_graph):
    s = summary_from_parent(indirect_graph, spec_of(marginalising=[5]))
    hint = identification_hint(s)
    assert hint.sufficient_for_identification


def test_identification_hint_pure_dag(indirect_graph):
    hint = identification_hint(parent_to_summary(indirect_graph))
    assert hint.sufficient_for_identification


# ---------------------------------------------------------------------------
# structural invariants


def test_double_edge_implies_directly_confounded():
    rng = np.random.default_rng(41)
    for _ in range(60):
        g = random_dag(rng, int(rng.integers(3, 8)), p=0.45)
        spec = random_spec(rng, g.nodes)
        s = summary_from_parent(g, spec)
        in_u = set(s.u_nodes)
        for i, k in double_edges(s):
            gi, gk = g.index(i), g.index(k)
            if not g.amat[min(gi, gk), max(gi, gk)]:
                continue  # double edge without a generating arrow on the pair
            edge = (g.nodes[min(gi, gk)], g.nodes[max(gi, gk)])
            report = audit_edge(g, spec, edge)
            assert report.status in (DIRECT, BOTH)


def test_double_edge_equivalent_to_residual_associating_active_path():
    # the double-edge signature matches exactly the active paths that carry
    # arrowheads at both endpoints; descendant-ancestor active paths distort
    # the equation coefficient without a double edge
    rng = np.random.default_rng(42)
    for _ in range(60):
        g = random_dag(rng, int(rng.integers(3, 8)), p=0.45)
        spec = random_spec(rng, g.nodes)
        s = summary_from_parent(g, spec)
        in_u = set(s.u_nodes)
        pairs = double_edges(s)
        for i in range(g.dim):
            for k in range(i + 1, g.dim):
                if not g.amat[i, k]:
                    continue
                ni, nk = g.nodes[i], g.nodes[k]
                if ni not in in_u or nk not in in_u:
                    continue
                has_double = (ni, nk) in pairs or (nk, ni) in pairs
                paths = residual_associating_paths(g, spec, (ni, nk))
                assert has_double == bool(paths)


def test_mediator_path_confounds_without_double_edge():
    # 1 <- 2 with mediator 3 <- 2, 1 <- 3; marginalising the mediator folds
    # the indirect effect into the equation coefficient: flagged as direct
    # confounding although no residual association (double edge) appears
    g = dag([1, 3, 2], [(1, 3), (1, 2), (3, 2)])
    spec = spec_of(marginalising=[3])
    report = audit_edge(g, spec, (1, 2))
    assert report.status == DIRECT
    assert not report.double_edge
    assert [w.render() for w in report.direct_witnesses] == ["1 <- 3 <- 2"]


def test_numeric_confirmation_of_audit_verdicts():
    # undistorted <=> the MAG coefficient reproduces the generating
    # coefficient, up to near-cancellation draws which are resampled
    rng = np.random.default_rng(43)
    checked = 0
    trial = 0
    while checked < 25 and trial < 200:
        trial += 1
        g = random_dag(rng, int(rng.integers(3, 7)), p=0.5)
        spec = random_spec(rng, g.nodes, max_c=0, max_m=2)
        s = summary_from_parent(g, spec)
        in_u = set(s.u_nodes)
        edges = [
            (g.nodes[i], g.nodes[k])
            for i in range(g.dim)
            for k in range(i + 1, g.dim)
            if g.amat[i, k] and g.nodes[i] in in_u and g.nodes[k] in in_u
        ]
        if not edges:
            continue
        i, k = edges[int(rng.integers(0, len(edges)))]
        report = audit_edge(g, spec, (i, k))
        mag = mag_from_summary(s)
        if not mag.h_uu[mag.u_nodes.index(i), mag.u_nodes.index(k)]:
            continue  # dependence not represented by an arrow in the MAG
        for attempt in range(5):
            sysd = standardized(sample_system(g, seed=trial * 10 + attempt))
            model = derive_linear_summary(sysd, spec)
            coefs = mag_coefficients(model, mag)
            pos_i = list(model.nodes).index(i)
            pos_k = list(model.nodes).index(k)
            distortion = coefs[pos_i, pos_k] - sysd.coefficient(i, k)
            if report.status == UNDISTORTED:
                assert abs(distortion) < 1e-8
                break
            if abs(distortion) > 1e-6:
                break  # genuine distortion observed
        else:
            pytest.fail(f"distortion cancelled in all resamples for {i} <- {k}")
        checked += 1
    assert checked >= 25
