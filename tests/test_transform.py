import numpy as np
import pytest

from sumgraph.graph_model import (
    ARROW,
    DASH,
    DASHED,
    FULL,
    HEAD,
    LINE,
    TAIL,
    Edge,
    ParentGraph,
    Provenance,
    SummaryGraph,
    _topological_u_order,
    classify,
    from_edge_list,
    parent_to_summary,
    to_edge_list,
    validate_summary,
)
from sumgraph.transform import (
    InvalidSpecError,
    MarginalConditionSpec,
    compute_split,
    induced_concentration_graph,
    induced_covariance_graph,
    induced_edge_kind,
    is_collision_pair,
    mag_from_summary,
    regression_graph_from_parent,
    spec_of,
    step_condition,
    step_marginalise,
    stepwise_reduce,
    stepwise_trace,
    summary_from_parent,
    summary_from_summary,
)

from conftest import dag, random_dag, random_spec, same_graph
from test_decision_layer import _complete_v, _cycle_v


def edge_set(g):
    return {e.canonical() for e in to_edge_list(g)}


# ---------------------------------------------------------------------------
# summary_from_parent


def test_iv_marginalising_over_common_parent(iv_graph):
    s = summary_from_parent(iv_graph, spec_of(marginalising=[4]))
    assert s.u_nodes == (1, 2, 3) and s.v_nodes == ()
    assert edge_set(s) == {Edge(2, 1, ARROW), Edge(1, 2, DASHED), Edge(3, 2, ARROW)}


def test_indirect_marginalising_induces_dashed_pair(indirect_graph):
    s = summary_from_parent(indirect_graph, spec_of(marginalising=[5]))
    assert edge_set(s) == {
        Edge(2, 1, ARROW),
        Edge(4, 1, ARROW),
        Edge(3, 2, ARROW),
        Edge(4, 3, ARROW),
        Edge(1, 3, DASHED),
    }


def test_conditioning_on_common_offspring_builds_concentration_edge():
    g = dag([1, 2, 3], [(1, 2), (1, 3)])
    s = summary_from_parent(g, spec_of(conditioning=[1]))
    assert s.u_nodes == () and set(s.v_nodes) == {2, 3}
    assert edge_set(s) == {Edge(2, 3, FULL)}


def test_empty_spec_returns_parent_graph_itself(iv_graph):
    s = summary_from_parent(iv_graph, spec_of())
    assert s == parent_to_summary(iv_graph)
    assert np.array_equal(s.w_uu, np.eye(4, dtype=np.int8))


def test_overlapping_sets_rejected():
    with pytest.raises(InvalidSpecError):
        MarginalConditionSpec(frozenset([1]), frozenset([1]))


def test_spec_must_name_graph_nodes(iv_graph):
    with pytest.raises(InvalidSpecError):
        summary_from_parent(iv_graph, spec_of(marginalising=[99]))


def test_split_record_two_stage_fixture(two_stage_graph):
    split = compute_split(two_stage_graph, spec_of(conditioning=[2, 4], marginalising=[6, 7]))
    assert set(split.foster) == {3, 5, 6, 7, 8}
    assert split.outsiders == (1,)
    assert split.u == (1,)
    assert set(split.v) == {3, 5, 8}
    assert split.p == ()
    assert set(split.q) == {6, 7}


def test_provenance_carries_spec_and_split(indirect_graph):
    spec = spec_of(marginalising=[5])
    s = summary_from_parent(indirect_graph, spec)
    assert s.provenance.marginalising == frozenset([5])
    assert s.provenance.split.u == s.u_nodes


# ---------------------------------------------------------------------------
# single-node steps


def test_step_marginalise_common_source_gives_dashed():
    g = dag([1, 2, 4], [(1, 4), (2, 4)])
    s = step_marginalise(parent_to_summary(g), 4)
    assert edge_set(s) == {Edge(1, 2, DASHED)}


def test_step_marginalise_transition_node_gives_arrow():
    g = dag([1, 2, 3], [(1, 2), (2, 3)])
    s = step_marginalise(parent_to_summary(g), 2)
    assert edge_set(s) == {Edge(3, 1, ARROW)}


def test_step_marginalise_full_chain_stays_full():
    g = from_edge_list([Edge(1, 2, FULL), Edge(2, 3, FULL)], u_nodes=[], v_nodes=[1, 2, 3])
    s = step_marginalise(g, 2)
    assert edge_set(s) == {Edge(1, 3, FULL)}


def test_step_condition_collider():
    g = dag([1, 2, 3], [(1, 2), (1, 3)])
    s = step_condition(parent_to_summary(g), 1)
    assert set(s.v_nodes) == {2, 3}
    assert edge_set(s) == {Edge(2, 3, FULL)}


def test_step_condition_arrow_dashed_collision():
    # 1 -> 2 ~~ 3, condition on 2: induced arrow points at the dashed side,
    # and node 1, as an ancestor of 2, moves into v
    g = from_edge_list([Edge(1, 2, ARROW), Edge(2, 3, DASHED)], u_nodes=[2, 3, 1])
    s = step_condition(g, 2)
    assert s.v_nodes == (1,) and s.u_nodes == (3,)
    assert edge_set(s) == {Edge(1, 3, ARROW)}


def test_step_condition_dashed_dashed_collision():
    g = from_edge_list([Edge(1, 2, DASHED), Edge(2, 3, DASHED)], u_nodes=[1, 2, 3])
    s = step_condition(g, 2)
    assert edge_set(s) == {Edge(1, 3, DASHED)}


def test_step_rejects_unknown_node(iv_graph):
    with pytest.raises(Exception):
        step_marginalise(parent_to_summary(iv_graph), 99)


def test_step_condition_closes_longer_collision_paths():
    # x -> w ~~ z <- q with w, z ancestors of s: conditioning on s must
    # couple every pair on the collision path, including (x, q)
    g = from_edge_list(
        [
            Edge("x", "w", ARROW),
            Edge("q", "z", ARROW),
            Edge("w", "z", DASHED),
            Edge("w", "s", ARROW),
            Edge("z", "s", ARROW),
        ],
        u_nodes=["s", "w", "z", "x", "q"],
    )
    s = step_condition(g, "s")
    assert set(s.v_nodes) == {"w", "z", "x", "q"}
    assert Edge("q", "x", FULL).canonical() in edge_set(s)
    ref = summary_from_parent(
        dag(["s", "w", "z", "x", "q"], [("s", "w"), ("s", "z"), ("w", "x"), ("z", "q")]),
        spec_of(conditioning=["s"]),
    )
    # note the parent graph above lacks the dashed edge; check against the
    # one-shot route on the same mixed graph instead
    one_shot = summary_from_summary(g, spec_of(conditioning=["s"]))
    assert same_graph(s, one_shot) or edge_set(s) == edge_set(one_shot)


# ---------------------------------------------------------------------------
# summary_from_summary


def test_summary_from_summary_empty_spec_is_identity(indirect_graph):
    s = summary_from_parent(indirect_graph, spec_of(marginalising=[5]))
    again = summary_from_summary(s, spec_of())
    assert again == s


def test_route_equivalence_samples():
    rng = np.random.default_rng(21)
    for _ in range(40):
        g = random_dag(rng, int(rng.integers(3, 9)))
        spec = random_spec(rng, g.nodes)
        ref = summary_from_parent(g, spec)
        sw = stepwise_reduce(g, spec, condition_first=bool(rng.integers(0, 2)))
        assert same_graph(sw, ref)
        c1 = frozenset(x for x in spec.conditioning if rng.random() < 0.5)
        m1 = frozenset(x for x in spec.marginalising if rng.random() < 0.5)
        inter = summary_from_parent(g, MarginalConditionSpec(c1, m1))
        two = summary_from_summary(
            inter, MarginalConditionSpec(spec.conditioning - c1, spec.marginalising - m1)
        )
        assert same_graph(two, ref)


def test_order_exchange_marginalise_vs_condition_first():
    rng = np.random.default_rng(22)
    for _ in range(20):
        g = random_dag(rng, int(rng.integers(3, 8)))
        spec = random_spec(rng, g.nodes, max_c=2, max_m=2)
        a = stepwise_reduce(g, spec, condition_first=True)
        b = stepwise_reduce(g, spec, condition_first=False)
        assert same_graph(a, reorder_to(b, a)) or same_graph(b, reorder_to(a, b))


def reorder_to(g, ref):
    from sumgraph.graph_model import reorder_v

    return reorder_v(g, ref.v_nodes) if set(g.v_nodes) == set(ref.v_nodes) else g


def test_no_coupled_pair_gets_uncoupled():
    rng = np.random.default_rng(23)
    for _ in range(40):
        g = random_dag(rng, int(rng.integers(3, 8)), p=0.5)
        spec = random_spec(rng, g.nodes)
        s = summary_from_parent(g, spec)
        survivors = set(s.nodes)
        coupled_before = {
            frozenset((g.nodes[i], g.nodes[k]))
            for i in range(g.dim)
            for k in range(i + 1, g.dim)
            if g.amat[i, k] and g.nodes[i] in survivors and g.nodes[k] in survivors
        }
        coupled_after = {frozenset((e.tail, e.head)) for e in to_edge_list(s)}
        assert coupled_before <= coupled_after


def test_class_closed_under_derivation():
    rng = np.random.default_rng(24)
    for _ in range(40):
        g = random_dag(rng, int(rng.integers(3, 8)))
        s = summary_from_parent(g, random_spec(rng, g.nodes))
        assert validate_summary(s).valid
        spec2 = random_spec(rng, s.nodes, max_c=2, max_m=2)
        s2 = summary_from_summary(s, spec2)
        assert validate_summary(s2).valid
        sw = stepwise_reduce(s, spec2)
        assert validate_summary(sw).valid


# ---------------------------------------------------------------------------
# induced covariance and concentration graphs


def test_induced_graphs_edgeless():
    g = dag([1, 2, 3], [])
    assert np.array_equal(induced_covariance_graph(g), np.eye(3, dtype=np.int8))
    assert np.array_equal(induced_concentration_graph(g), np.eye(3, dtype=np.int8))


def test_common_offspring_creates_concentration_edge_only():
    g = dag([1, 2, 3], [(1, 2), (1, 3)])
    conc = induced_concentration_graph(g)
    cov = induced_covariance_graph(g)
    assert conc[1, 2] == 1
    assert cov[1, 2] == 0


def test_common_parent_creates_covariance_edge_only():
    g = dag([1, 2, 3], [(1, 3), (2, 3)])
    conc = induced_concentration_graph(g)
    cov = induced_covariance_graph(g)
    assert cov[0, 1] == 1
    assert conc[0, 1] == 0


# ---------------------------------------------------------------------------
# regression graph from an order-respecting split


def test_regression_graph_empty_a_is_concentration(iv_graph):
    comps = regression_graph_from_parent(iv_graph, 0)
    assert np.array_equal(comps.s_bb_marginal, induced_concentration_graph(iv_graph))


def test_regression_graph_empty_b_is_covariance(iv_graph):
    comps = regression_graph_from_parent(iv_graph, iv_graph.dim)
    assert np.array_equal(comps.s_aa_given_b, induced_covariance_graph(iv_graph))


def test_regression_graph_cross_checked_against_subgraph_and_oracle():
    # every order-respecting split is ancestrally closed in b, so the b block
    # is itself a parent graph: its marginal concentration component must be
    # that subgraph's induced concentration graph, and all three components
    # must carry exactly the structural zeros of the sampled joint regression
    from sumgraph.oracle import implied_covariance, regress, sample_system
    from sumgraph.graph_model import ParentGraph

    rng = np.random.default_rng(25)
    for trial in range(100):
        g = random_dag(rng, int(rng.integers(2, 8)))
        n_a = int(rng.integers(0, g.dim + 1))
        comps = regression_graph_from_parent(g, n_a)
        sub = ParentGraph(g.nodes[n_a:], g.amat[n_a:, n_a:])
        assert np.array_equal(comps.s_bb_marginal, induced_concentration_graph(sub))

        a_idx = list(range(n_a))
        b_idx = list(range(n_a, g.dim))
        max_seen = [np.zeros_like(m, dtype=float) for m in
                    (comps.s_aa_given_b, comps.p_a_given_b, comps.s_bb_marginal)]
        for draw in range(3):
            cov = implied_covariance(sample_system(g, seed=trial * 10 + draw))
            pi, sigma_aa_b, conc_bb_a = regress(cov, a_idx, b_idx)
            for seen, edge, param in zip(
                max_seen,
                (comps.s_aa_given_b, comps.p_a_given_b, comps.s_bb_marginal),
                (sigma_aa_b, pi, conc_bb_a),
            ):
                param = np.abs(param)
                assert ((param > 1e-9) <= (edge == 1)).all()
                np.maximum(seen, param, out=seen)
        for seen, edge in zip(max_seen, (comps.s_aa_given_b, comps.p_a_given_b, comps.s_bb_marginal)):
            assert (seen[edge == 1] > 1e-6).all()


# ---------------------------------------------------------------------------
# MAG construction


def test_mag_iv_closes_every_pair(iv_graph):
    # the double edge plus 2 <- 3 leaves no independence at all, so the MAG
    # is complete: dependence of 1 on 3 survives conditioning on 2
    s = summary_from_parent(iv_graph, spec_of(marginalising=[4]))
    mag = mag_from_summary(s)
    assert edge_set(mag) == {
        Edge(2, 1, ARROW),
        Edge(3, 1, ARROW),
        Edge(3, 2, ARROW),
    }


def test_mag_indirect_orients_the_dashed_edge(indirect_graph):
    s = summary_from_parent(indirect_graph, spec_of(marginalising=[5]))
    mag = mag_from_summary(s)
    assert edge_set(mag) == {
        Edge(2, 1, ARROW),
        Edge(3, 1, ARROW),
        Edge(4, 1, ARROW),
        Edge(3, 2, ARROW),
        Edge(4, 3, ARROW),
    }


def test_mag_identity_without_dashed_or_double_edges(indirect_graph):
    s = parent_to_summary(indirect_graph)
    mag = mag_from_summary(s)
    assert edge_set(mag) == edge_set(s)


def test_mag_has_no_double_edges_randomized():
    rng = np.random.default_rng(26)
    for _ in range(50):
        g = random_dag(rng, int(rng.integers(2, 7)))
        s = summary_from_parent(g, random_spec(rng, g.nodes))
        mag = mag_from_summary(s)
        assert not (np.triu(mag.h_uu & mag.w_uu, 1)).any()
        assert classify(mag).independence_graph_candidate


# ---------------------------------------------------------------------------
# the stepwise route on one work graph


def test_step_operators_accept_a_parent_graph():
    g = dag([1, 2, 3], [(1, 2), (2, 3)])
    assert step_marginalise(g, 2) == step_marginalise(parent_to_summary(g), 2)
    assert step_condition(g, 2) == step_condition(parent_to_summary(g), 2)


def test_stepwise_trace_equals_chained_single_steps():
    # the work graph carried through a whole run must match a fresh rebuild
    # from the summary graph of the previous step, node order included
    rng = np.random.default_rng(25)
    for case in range(400):
        g = random_dag(rng, int(rng.integers(2, 11)))
        if case % 4:
            g = summary_from_parent(g, random_spec(rng, g.nodes, max_c=1, max_m=1))
        if case % 4 == 2:
            u = list(g.u_nodes)
            rng.shuffle(u)
            g = from_edge_list(to_edge_list(g), u, g.v_nodes, g.provenance)
        if case % 4 == 3:
            # u stored in an arbitrary order, which the first step re-sorts
            p = [int(i) for i in rng.permutation(len(g.u_nodes))]
            g = SummaryGraph(tuple(g.u_nodes[i] for i in p), g.v_nodes, g.h_uu[np.ix_(p, p)],
                             g.h_uv[p], g.w_uu[np.ix_(p, p)], g.s_vv, g.provenance)
        spec = random_spec(rng, g.nodes)
        c_order, m_order = list(spec.conditioning), list(spec.marginalising)
        rng.shuffle(c_order)
        rng.shuffle(m_order)
        condition_first = bool(rng.integers(0, 2))
        trace = stepwise_trace(g, spec, c_order, m_order, condition_first)
        ops = [("condition", x) for x in c_order] + [("marginalise", x) for x in m_order]
        if not condition_first:
            ops = ops[len(c_order):] + ops[:len(c_order)]
        assert [(op, x) for op, x, _ in trace] == ops, case
        current = g
        for op, x, got in trace:
            current = (step_condition if op == "condition" else step_marginalise)(current, x)
            assert got == current and got.provenance == current.provenance, case
        last = stepwise_reduce(g, spec, c_order, m_order, condition_first)
        want = trace[-1][2] if trace else parent_to_summary(g) if isinstance(g, ParentGraph) else g
        assert last == want and last.provenance == want.provenance, case


# ---------------------------------------------------------------------------
# the incremental steps against the whole-graph steps they replaced


def _mark(item, node):
    if item[0] == ARROW:
        return HEAD if item[1] == node else TAIL
    return DASH if item[0] == DASHED else LINE


class WholeGraphSteps:
    """The step operators written out as whole-graph passes: every step
    re-types the edges of every v node and scans every arrow at u for the
    u order, and conditioning repeats its sweep over s and the ancestors of
    s until a whole sweep adds nothing."""

    def __init__(self, g):
        self.edges, self.adj = {}, {n: set() for n in g.nodes}
        u, v = g.u_nodes, g.v_nodes
        for i, k in np.argwhere(g.h_uu):
            if i != k:
                self.add(u[i], u[k], (ARROW, u[i]))
        for i, k in np.argwhere(g.h_uv):
            self.add(u[i], v[k], (ARROW, u[i]))
        for i, k in np.argwhere(np.triu(g.w_uu, 1)):
            self.add(u[i], u[k], (DASHED,))
        for i, k in np.argwhere(np.triu(g.s_vv, 1)):
            self.add(v[i], v[k], (FULL,))
        self.prov = g.provenance or Provenance()
        self.order(list(u), list(v))

    def order(self, u, v):
        self.u, self.v = u, v
        self.pos = {n: i for i, n in enumerate(u + v)}

    def add(self, x, y, item):
        bucket = self.edges.setdefault(frozenset((x, y)), set())
        if item in bucket:
            return False
        bucket.add(item)
        self.adj[x].add(y)
        self.adj[y].add(x)
        return True

    def is_arrow(self, tail, head):
        return (ARROW, head) in self.edges[frozenset((tail, head))]

    def ancestors(self, node):
        out, stack = set(), [node]
        while stack:
            x = stack.pop()
            for par in self.adj[x]:
                if par not in out and self.is_arrow(par, x):
                    out.add(par)
                    stack.append(par)
        out.discard(node)
        return out

    def induce_at(self, w, collision):
        changed = False
        nbrs = sorted(self.adj[w], key=self.pos.__getitem__)
        for xi, x in enumerate(nbrs):
            for y in nbrs[xi + 1:]:
                for e1 in self.edges[frozenset((x, w))]:
                    for e2 in self.edges[frozenset((w, y))]:
                        if is_collision_pair(_mark(e1, w), _mark(e2, w)) != collision:
                            continue
                        kind, head_end = induced_edge_kind(_mark(e1, x), _mark(e2, y))
                        item = (ARROW, x if head_end == "x" else y) if kind == ARROW else (kind,)
                        changed |= self.add(x, y, item)
        return changed

    def retype(self, v_new):
        for x in v_new:
            for y in self.adj[x]:
                self.edges[frozenset((x, y))] = {(FULL,)} if y in v_new else {(ARROW, y)}

    def delete(self, node):
        for y in self.adj.pop(node):
            self.adj[y].discard(node)
            del self.edges[frozenset((node, y))]

    def settle(self, u, v):
        self.order(u, v)
        if any(self.pos[y] < self.pos[x] and self.is_arrow(y, x) for x in u for y in self.adj[x]):
            arrows = [Edge(y, x, ARROW) for x in u for y in self.adj[x] if y in u and self.is_arrow(y, x)]
            self.order(_topological_u_order(u, arrows), v)

    def marginalise(self, t):
        self.induce_at(t, collision=False)
        self.retype(set(self.v) - {t})
        self.delete(t)
        self.prov = Provenance(self.prov.conditioning, self.prov.marginalising | {t})
        self.settle([n for n in self.u if n != t], [n for n in self.v if n != t])

    def condition(self, s):
        closure_nodes = [s] + sorted(self.ancestors(s), key=self.pos.__getitem__)
        while any([self.induce_at(w, collision=True) for w in closure_nodes]):
            pass
        v_new = (set(self.v) | self.ancestors(s) & set(self.u)) - {s}
        self.retype(v_new)
        self.delete(s)
        self.prov = Provenance(self.prov.conditioning | {s}, self.prov.marginalising)
        self.settle(
            [n for n in self.u if n != s and n not in v_new],
            [n for n in self.v if n != s] + [n for n in self.u if n in v_new],
        )

    def snapshot(self):
        edges = []
        for key, bucket in self.edges.items():
            x, y = key
            for item in bucket:
                if item[0] == ARROW:
                    edges.append(Edge(y if item[1] == x else x, item[1], ARROW))
                else:
                    edges.append(Edge(x, y, item[0]))
        return from_edge_list(edges, self.u, self.v, self.prov)


def whole_graph_trace(g, c_order, m_order, condition_first):
    work = WholeGraphSteps(g)
    ops = [("condition", x) for x in c_order] + [("marginalise", x) for x in m_order]
    if not condition_first:
        ops = ops[len(c_order):] + ops[:len(c_order)]
    out = []
    for op, x in ops:
        getattr(work, op)(x)
        out.append((op, x, work.snapshot()))
    return out


def _step_inputs(k):
    """Dense DAGs, complete-v and cycle-v regression graphs and sparse DAGs
    of up to 60 nodes, in turn; every other dense one reduced first and
    stored with u in an arbitrary order."""
    rng = np.random.default_rng([31, k])
    kind = k % 4
    if kind == 0:
        g = random_dag(rng, int(rng.integers(3, 10)), p=0.6)
        if k % 8 == 4:
            g = summary_from_parent(g, random_spec(rng, g.nodes, max_c=1, max_m=2))
            p = [int(i) for i in rng.permutation(len(g.u_nodes))]
            g = SummaryGraph(tuple(g.u_nodes[i] for i in p), g.v_nodes, g.h_uu[np.ix_(p, p)],
                             g.h_uv[p], g.w_uu[np.ix_(p, p)], g.s_vv, g.provenance)
    elif kind == 1:
        g = _complete_v(rng)
    elif kind == 2:
        g = _cycle_v(rng)
    else:
        n = int(rng.integers(10, 61))
        g = random_dag(rng, n, p=3.0 / n)
    nodes = list(g.nodes)
    rng.shuffle(nodes)
    n_c = int(rng.integers(0, min(4, len(nodes)) + 1))
    n_m = int(rng.integers(0, min(5, len(nodes) - n_c) + 1))
    return g, nodes[:n_c], nodes[n_c:n_c + n_m]


def test_incremental_steps_equal_the_whole_graph_steps():
    moved = 0
    for k in range(240):
        g, c_order, m_order = _step_inputs(k)
        spec = MarginalConditionSpec(frozenset(c_order), frozenset(m_order))
        for condition_first in (True, False):
            got = stepwise_trace(g, spec, c_order, m_order, condition_first)
            start = parent_to_summary(g) if isinstance(g, ParentGraph) else g
            want = whole_graph_trace(start, c_order, m_order, condition_first)
            assert [(op, x) for op, x, _ in got] == [(op, x) for op, x, _ in want], k
            for (_, _, a), (_, _, b) in zip(got, want):
                assert a == b and a.provenance == b.provenance, (k, condition_first)
            moved += sum(len(b.v_nodes) > len(start.v_nodes) for _, _, b in want)
    assert moved > 100
