"""The three correctness gates on sparse DAGs of 50 to 80 nodes: the routes
agree (the two-stage linear reduction also numerically), the real and
boolean derivations have the same support, and the oracle finds no
structural-zero violation."""

import numpy as np

from sumgraph import ParentGraph
from sumgraph.oracle import (
    derive_linear_summary,
    derive_linear_summary_from_summary,
    model_edge_structure,
    sample_system,
    verify_structural_zeros,
)
from sumgraph.transform import (
    MarginalConditionSpec,
    spec_of,
    stepwise_reduce,
    summary_from_parent,
    summary_from_summary,
)

from conftest import random_dag, same_graph


def test_gates_on_sparse_dags_of_50_to_80_nodes():
    rng = np.random.default_rng(50)
    for n in (50, 60, 70, 80) * 3:
        g = random_dag(rng, n, p=3.0 / n)
        perm = [int(x) + 1 for x in rng.permutation(n)]
        nc, nm = n // 10, n // 4
        spec = MarginalConditionSpec(frozenset(perm[:nc]), frozenset(perm[nc:nc + nm]))
        first = MarginalConditionSpec(frozenset(perm[: nc // 2]), frozenset(perm[nc:nc + nm // 2]))
        rest = MarginalConditionSpec(
            spec.conditioning - first.conditioning, spec.marginalising - first.marginalising
        )

        ref = summary_from_parent(g, spec)
        stage1 = summary_from_parent(g, first)
        two_stage = summary_from_summary(stage1, rest)
        assert same_graph(two_stage, ref), n
        assert same_graph(stepwise_reduce(g, spec), ref), n

        sys = sample_system(g, seed=int(rng.integers(1000)))
        one = derive_linear_summary(sys, spec)
        assert model_edge_structure(one) == ref, n
        model1 = derive_linear_summary(sys, first)
        assert model_edge_structure(model1) == stage1, n
        model2 = derive_linear_summary_from_summary(model1, rest)
        assert model_edge_structure(model2) == two_stage, n
        perm = [model2.v_nodes.index(x) for x in one.v_nodes]
        assert model2.u_nodes == one.u_nodes, n
        assert np.allclose(model2.h_uu, one.h_uu, atol=1e-9), n
        assert np.allclose(model2.h_uv[:, perm], one.h_uv, atol=1e-9), n
        assert np.allclose(model2.w_uu, one.w_uu, atol=1e-9), n
        assert np.allclose(model2.s_vv[np.ix_(perm, perm)], one.s_vv, atol=1e-9), n

        report = verify_structural_zeros(g, spec, n_draws=3, seed=int(rng.integers(1000)))
        assert report.ok, report.lines()


def test_stepwise_route_agrees_at_120_to_160_nodes():
    rng = np.random.default_rng(120)
    for n in (120, 140, 160):
        g = random_dag(rng, n, p=3.0 / n)
        perm = [int(x) + 1 for x in rng.permutation(n)]
        nc, nm = n // 10, n // 4
        spec = MarginalConditionSpec(frozenset(perm[:nc]), frozenset(perm[nc:nc + nm]))
        assert same_graph(stepwise_reduce(g, spec), summary_from_parent(g, spec)), n


def test_routes_and_one_verify_draw_at_1000_nodes():
    """The route and oracle gates on the benchmark's sparse family at
    n = 1,000 (``bench/cases.sparse_case(default_rng(0), 1000)``)."""
    rng = np.random.default_rng(0)
    n = 1000
    a = np.eye(n, dtype=np.int8)
    a[np.triu(rng.random((n, n)) < 3.0 / n, 1)] = 1
    g = ParentGraph(tuple(range(1, n + 1)), a)
    perm = [int(x) for x in rng.permutation(n) + 1]
    c, m = sorted(perm[: n // 10]), sorted(perm[n // 10: n // 10 + n // 4])
    spec = spec_of(c, m)
    first = spec_of(c[: len(c) // 2], m[: len(m) // 2])
    rest = spec_of(c[len(c) // 2:], m[len(m) // 2:])

    ref = summary_from_parent(g, spec)
    assert same_graph(summary_from_summary(summary_from_parent(g, first), rest), ref)
    assert same_graph(stepwise_reduce(g, spec), ref)
    report = verify_structural_zeros(g, spec, n_draws=1)
    assert report.ok, report.lines()
