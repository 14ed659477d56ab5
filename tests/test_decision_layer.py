"""The decision layer against the formulas it replaced, written out here.

Each rewritten piece (the compiled edge index, the levelled witness
search, the pruned cycle search, the MAG closures grouped by ancestor
set and the local Markov confirmation) is compared with the plain
formula on at least 300 seeded graphs, dense ones and regression graphs
whose v block is complete or carries a planted chordless cycle among
them.
"""

import itertools

import numpy as np
import pytest

from sumgraph.edge_matrix import partial_close, reach_closure
from sumgraph.graph_model import (
    DASH,
    HEAD,
    LINE,
    TAIL,
    ParentGraph,
    SummaryGraph,
    _reachable,
    parent_to_summary,
)
from sumgraph.queries import (
    IndependenceQuery,
    IndependenceStatement,
    _chordless_cycle_in_v,
    _cycle_order,
    active_paths,
    implies_independence,
    local_markov,
)
from sumgraph.transform import TransformError, mag_from_summary, spec_of, summary_from_parent

from conftest import random_dag, random_spec


def _parent(a: np.ndarray) -> ParentGraph:
    return ParentGraph(tuple(range(1, a.shape[0] + 1)), a)


def _regression(rng, n_u, n_v, colliders, v_arrows=()):
    """Outsiders, then one conditioned collider per entry of ``colliders``
    (its v parents), then v; conditioning the colliders joins their
    parents in v."""
    n_c = len(colliders)
    v0 = n_u + n_c
    a = np.eye(v0 + n_v, dtype=np.int8)
    for i in range(n_u):
        for k in list(range(i + 1, n_u)) + list(range(v0, v0 + n_v)):
            a[i, k] = rng.random() < 0.35
    for j, parents in enumerate(colliders):
        a[n_u + j, [v0 + p for p in parents]] = 1
    for child, parent in v_arrows:
        a[v0 + child, v0 + parent] = 1
    return summary_from_parent(_parent(a), spec_of(range(n_u + 1, v0 + 1), ()))


def _complete_v(rng):
    n_v = int(rng.integers(3, 8))
    return _regression(rng, int(rng.integers(1, 5)), n_v, [range(n_v)])


def _cycle_v(rng):
    length = int(rng.integers(4, 7))
    cycle = [int(x) for x in rng.permutation(length)]
    colliders = [(cycle[j], cycle[(j + 1) % length]) for j in range(length)]
    pendants = int(rng.integers(0, 3))
    v_arrows = [(int(rng.integers(length)), length + e) for e in range(pendants)]
    return _regression(rng, int(rng.integers(1, 4)), length + pendants, colliders, v_arrows)


def _dense(rng):
    # marginalising two or three nodes leaves dashed and double edges
    g = random_dag(rng, int(rng.integers(5, 10)), p=0.5)
    perm = [g.nodes[int(x)] for x in rng.permutation(g.dim)]
    n_c, n_m = int(rng.integers(0, 2)), int(rng.integers(2, 4))
    return summary_from_parent(g, spec_of(perm[:n_c], perm[n_c:n_c + n_m]))


def _sparse(rng):
    n = int(rng.integers(3, 12))
    g = random_dag(rng, n, p=2.0 / n)
    return summary_from_parent(g, random_spec(rng, g.nodes))


def seeded_graphs(tag: int, count: int = 320):
    """Dense reductions, complete-v and cycle-v regression graphs and sparse
    reductions, in turn."""
    makers = (_dense, _complete_v, _cycle_v, _sparse)
    for k in range(count):
        rng = np.random.default_rng([tag, k])
        yield rng, makers[k % len(makers)](rng)


# ---------------------------------------------------------------------------
# the compiled edge index


def scanned_adjacency(g: SummaryGraph) -> dict:
    """Every cell of the four components read in turn, then each node's
    edges sorted stably by the other node's position."""
    adj = {n: [] for n in g.nodes}
    nu = len(g.u_nodes)

    def link(x, y, mark_x, mark_y):
        adj[x].append((y, mark_x, mark_y))
        adj[y].append((x, mark_y, mark_x))

    for i in range(nu):
        for k in range(nu):
            if i != k and g.h_uu[i, k]:
                link(g.u_nodes[i], g.u_nodes[k], HEAD, TAIL)
        for k in range(len(g.v_nodes)):
            if g.h_uv[i, k]:
                link(g.u_nodes[i], g.v_nodes[k], HEAD, TAIL)
        for k in range(i + 1, nu):
            if g.w_uu[i, k]:
                link(g.u_nodes[i], g.u_nodes[k], DASH, DASH)
    for i in range(len(g.v_nodes)):
        for k in range(i + 1, len(g.v_nodes)):
            if g.s_vv[i, k]:
                link(g.v_nodes[i], g.v_nodes[k], LINE, LINE)
    order = {n: i for i, n in enumerate(g.nodes)}
    return {n: tuple(sorted(recs, key=lambda rec: order[rec[0]])) for n, recs in adj.items()}


def test_edge_index_equals_the_cell_scan():
    for _, s in seeded_graphs(1):
        index = s.edge_index
        assert index.adjacency == scanned_adjacency(s)
        nu = len(s.u_nodes)
        for i in range(len(s.nodes)):
            arrows = np.zeros(len(s.nodes), dtype=bool)
            if i < nu:
                arrows[:nu] = s.h_uu[i].astype(bool)
                arrows[nu:] = s.h_uv[i].astype(bool)
                arrows[i] = False
            assert index.parents[i] == tuple(np.flatnonzero(arrows).tolist())


def test_edge_index_keeps_double_edges_and_arrows_against_the_order():
    # arrows both ways on (1, 2) next to a dashed edge: the scan reads the
    # arrow headed at the earlier node, the dashed edge, then the other arrow
    h = np.array([[1, 1, 0], [1, 1, 1], [0, 0, 1]])
    w = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    s = SummaryGraph((1, 2, 3), (), h, np.zeros((3, 0)), w, np.zeros((0, 0)))
    assert s.edge_index.adjacency == scanned_adjacency(s)
    assert s.edge_index.adjacency[1] == ((2, HEAD, TAIL), (2, DASH, DASH), (2, TAIL, HEAD))


def test_components_are_read_only_copies():
    h = np.eye(3, dtype=np.int8)
    h[0, 1] = 1
    s = SummaryGraph((1, 2, 3), (), h, np.zeros((3, 0)), np.eye(3), np.zeros((0, 0)))
    before = s.edge_index.adjacency[1]
    h[0, 2] = 1
    assert s.h_uu[0, 2] == 0
    assert s.edge_index.adjacency[1] == before == ((2, HEAD, TAIL),)
    for m in (s.h_uu, s.h_uv, s.w_uu, s.s_vv):
        assert not m.flags.writeable


# ---------------------------------------------------------------------------
# the witness search


def _queries(rng, s, count=4):
    nodes = list(s.nodes)
    for _ in range(count if len(nodes) > 1 else 0):
        a, b = (nodes[int(x)] for x in rng.choice(len(nodes), 2, replace=False))
        rest = [x for x in nodes if x not in (a, b)]
        given = {rest[int(x)] for x in rng.choice(len(rest), int(rng.integers(0, min(3, len(rest)) + 1)), replace=False)}
        yield IndependenceQuery({a}, {b}, given)


def test_witness_is_the_first_enumerated_active_path():
    witnesses = 0
    for rng, s in seeded_graphs(2):
        for q in _queries(rng, s):
            verdict = implies_independence(s, q)
            paths = active_paths(s, q.alpha, q.beta, q.given)
            assert verdict.implied == (not paths)
            if paths:
                assert verdict.witness == paths[0]
                witnesses += 1
    assert witnesses > 300


def test_witness_found_late_in_its_level():
    # arrows both ways between 1 and 2 beside a dashed edge: from 2 the
    # search reaches 1 first by arrowheads, which pass only 1 -> 5, and last
    # by a tail, which also passes 1 ~~ 3.  The later path is the smaller.
    h = np.eye(5, dtype=np.int8)
    h[0, 1] = h[1, 0] = h[4, 0] = 1
    w = np.eye(5, dtype=np.int8)
    w[0, 1] = w[1, 0] = w[0, 2] = w[2, 0] = 1
    s = SummaryGraph((1, 2, 3, 4, 5), (), h, np.zeros((5, 0)), w, np.zeros((0, 0)))
    q = IndependenceQuery({2}, {3, 5})
    paths = active_paths(s, q.alpha, q.beta, q.given)
    assert paths[0].render() == "2 <- 1 ~~ 3"
    assert [p.render() for p in paths[1:]] == ["2 -> 1 -> 5", "2 ~~ 1 -> 5", "2 <- 1 -> 5"]
    assert implies_independence(s, q).witness == paths[0]


# ---------------------------------------------------------------------------
# the cycle search


def unpruned_chordless_cycle(s_vv: np.ndarray):
    """Every subset of v by size, then lexicographically: the first that
    induces a chordless cycle, in the order the cycle is walked."""
    nv = s_vv.shape[0]
    for length in range(4, nv + 1):
        for combo in itertools.combinations(range(nv), length):
            sub = s_vv[np.ix_(combo, combo)]
            if not ((sub.sum(axis=1) - 1) == 2).all():
                continue
            if int(sub.sum() - length) != 2 * length:
                continue
            if len(_reachable(sub, [0])) == length:
                return tuple(combo[i] for i in _cycle_order(sub))
    return None


def _concentration(rng, k):
    nv = int(rng.integers(4, 10))
    shape = k % 4
    if shape == 0:  # complete
        s = np.ones((nv, nv), dtype=np.int8)
    elif shape == 1:  # a planted cycle with pendants and chords at random
        s = np.eye(nv, dtype=np.int8)
        length = int(rng.integers(4, nv + 1))
        cyc = rng.permutation(nv)[:length]
        for j in range(length):
            s[cyc[j], cyc[(j + 1) % length]] = s[cyc[(j + 1) % length], cyc[j]] = 1
        for x in range(nv):
            if rng.random() < 0.3:
                y = int(rng.integers(nv))
                s[x, y] = s[y, x] = 1
    elif shape == 2:  # a tree plus random triangles: chordal
        s = np.eye(nv, dtype=np.int8)
        for x in range(1, nv):
            y = int(rng.integers(x))
            s[x, y] = s[y, x] = 1
            if y and rng.random() < 0.5:
                z = int(rng.integers(y))
                if s[y, z]:
                    s[x, z] = s[z, x] = 1
    else:  # dense at random
        s = np.triu((rng.random((nv, nv)) < rng.uniform(0.2, 0.8)).astype(np.int8), 1)
        s = s + s.T + np.eye(nv, dtype=np.int8)
    return s


def test_pruned_cycle_search_equals_the_subset_search():
    found = 0
    for k in range(320):
        s_vv = _concentration(np.random.default_rng([3, k]), k)
        nv = s_vv.shape[0]
        v = tuple(range(1, nv + 1))
        g = SummaryGraph((), v, np.zeros((0, 0)), np.zeros((0, nv)), np.zeros((0, 0)), s_vv)
        expected = unpruned_chordless_cycle(s_vv)
        got = _chordless_cycle_in_v(g)
        assert (got and got.nodes) == (expected and tuple(v[i] for i in expected))
        found += expected is not None
    assert found > 60


def test_cycle_search_on_seeded_regression_graphs():
    for _, s in seeded_graphs(4):
        expected = unpruned_chordless_cycle(s.s_vv)
        got = _chordless_cycle_in_v(s)
        assert (got and got.nodes) == (expected and tuple(s.v_nodes[i] for i in expected))


# ---------------------------------------------------------------------------
# the MAG


def per_pair_mag(g: SummaryGraph) -> tuple:
    """Two partial closures per node pair, and the whole a x a product."""
    nu = len(g.u_nodes)
    closed = reach_closure(g.h_uu)
    anc = [frozenset(k for k in range(nu) if k != i and closed[i, k]) for i in range(nu)]
    h_new = np.eye(nu, dtype=np.int8)
    w_new = np.eye(nu, dtype=np.int8)
    for i in range(nu):
        b = sorted(anc[i])
        if b:
            a = sorted(set(range(nu)) - set(b))
            k_mat = partial_close(g.h_uu, a).astype(np.int64)
            q_mat = partial_close(g.w_uu, b).astype(np.int64)
            row = k_mat[i, b] + q_mat[i, b] @ k_mat[np.ix_(b, b)]
            for pos, kk in enumerate(b):
                if row[pos] > 0:
                    h_new[i, kk] = 1
        for ll in range(i + 1, nu):
            if ll in anc[i]:
                continue
            e = sorted(anc[i] | anc[ll])
            a = sorted(set(range(nu)) - set(e))
            k_mat = partial_close(g.h_uu, a).astype(np.int64)
            q_mat = partial_close(g.w_uu, e).astype(np.int64) if e else g.w_uu.astype(np.int64)
            s_aa = k_mat[np.ix_(a, a)] @ q_mat[np.ix_(a, a)] @ k_mat[np.ix_(a, a)].T
            if s_aa[a.index(i), a.index(ll)] > 0:
                w_new[i, ll] = w_new[ll, i] = 1
    return h_new, w_new


def test_grouped_mag_equals_the_per_pair_formula():
    for _, s in seeded_graphs(5):
        mag = mag_from_summary(s)
        h_new, w_new = per_pair_mag(s)
        assert np.array_equal(mag.h_uu, h_new)
        assert np.array_equal(mag.w_uu, w_new)
        assert np.array_equal(mag.h_uv, s.h_uv) and np.array_equal(mag.s_vv, s.s_vv)


def test_mag_refuses_a_u_order_that_is_not_topological():
    # 3 <- 1 and 2 <- 3 stored in the order 1 2 3: 1 is an ancestor of 2
    # that comes before it
    a = np.eye(3, dtype=np.int8)
    a[2, 0] = a[1, 2] = 1
    with pytest.raises(TransformError, match="unit upper-triangular"):
        mag_from_summary(parent_to_summary(ParentGraph((1, 2, 3), a)))


# ---------------------------------------------------------------------------
# local Markov statements


def confirmed_local_markov(g: SummaryGraph) -> list:
    """The four families, each candidate confirmed by a full independence
    query."""
    prov = g.provenance
    context = frozenset(prov.conditioning) if prov is not None else frozenset()
    nu, nv = len(g.u_nodes), len(g.v_nodes)
    closed = reach_closure(g.h_uu)
    w = g.w_uu.astype(np.int64)
    out = []

    def confirmed(i, k, given):
        return implies_independence(g, IndependenceQuery({i}, {k}, given)).implied

    for a in range(nv):
        for b in range(a + 1, nv):
            i, k = g.v_nodes[a], g.v_nodes[b]
            given = frozenset(set(g.v_nodes) - {i, k})
            if not g.s_vv[a, b] and confirmed(i, k, given):
                out.append(IndependenceStatement(i, k, given, 1, context))
    for a in range(nu):
        for b in range(nv):
            i, k = g.u_nodes[a], g.v_nodes[b]
            given = frozenset(set(g.v_nodes) - {k})
            if not g.h_uv[a, b] and confirmed(i, k, given):
                out.append(IndependenceStatement(i, k, given, 2, context))
    for a in range(nu):
        anc_a = {k for k in range(nu) if k != a and closed[a, k]}
        for b in range(a + 1, nu):
            if b in anc_a:
                continue
            anc_b = {k for k in range(nu) if k != b and closed[b, k]}
            e = sorted((anc_a | anc_b) - {a, b})
            ok = w[a, b] == 0
            if ok and e:
                w_ee = reach_closure(g.w_uu[np.ix_(e, e)]).astype(np.int64)
                ok = (w[np.ix_([a], e)] @ w_ee @ w[np.ix_(e, [b])]).item() == 0
            i, k = g.u_nodes[a], g.u_nodes[b]
            given = frozenset(set(g.v_nodes) | {g.u_nodes[x] for x in e})
            if ok and confirmed(i, k, given):
                out.append(IndependenceStatement(i, k, given, 3, context))
    for a in range(nu):
        anc_a = sorted(k for k in range(nu) if k != a and closed[a, k])
        if not anc_a:
            continue
        w_cc = reach_closure(g.w_uu[np.ix_(anc_a, anc_a)]).astype(np.int64)
        h64 = g.h_uu.astype(np.int64)
        for b in anc_a:
            if g.h_uu[a, b]:
                continue
            ok = (w[np.ix_([a], anc_a)] @ w_cc @ h64[np.ix_(anc_a, [b])]).item() == 0
            i, k = g.u_nodes[a], g.u_nodes[b]
            given = frozenset(set(g.v_nodes) | {g.u_nodes[x] for x in anc_a if x != b})
            if ok and confirmed(i, k, given):
                out.append(IndependenceStatement(i, k, given, 4, context))
    return out


def test_local_markov_equals_the_query_confirmation():
    statements = 0
    for _, s in seeded_graphs(6):
        got = local_markov(s)
        assert got == confirmed_local_markov(s)
        statements += len(got)
    assert statements > 300
