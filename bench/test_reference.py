"""Tests that the benchmark's reference checks accept correct outputs and
reject tampered ones.  Run with ``python3 -m pytest bench``."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from reference import DASH, HEAD, LINE, TAIL, CheckFailure  # noqa: E402

# 1 <- 2 <- 3 and 1 <- 4 -> 5 (node 4 a common parent of 1 and 5)
NODES = (1, 2, 3, 4, 5)
AMAT = np.eye(5, dtype=np.int8)
for _i, _k in ((0, 1), (1, 2), (0, 3), (4, 3)):
    AMAT[_i, _k] = 1


def _sigma(amat=AMAT, seed=0):
    return ref.covariance(*ref.sample_triangular(amat, np.random.default_rng(seed)))


def test_covariance_solves_the_system():
    a, d = ref.sample_triangular(AMAT, np.random.default_rng(1))
    sigma = ref.covariance(a, d)
    assert np.allclose(a @ sigma @ a.T, np.diag(d), atol=1e-12)
    a[0, 2] = 0.5  # an arrow the graph does not have
    assert not np.allclose(a @ sigma @ a.T, np.diag(d), atol=1e-6)


def test_partial_correlation_vanishes_only_where_the_graph_separates():
    sigma = _sigma()
    assert abs(ref.partial_correlation(sigma, 0, 2, [1])) < 1e-12   # 1 _||_ 3 | 2
    assert abs(ref.partial_correlation(sigma, 0, 2, [])) > 1e-3     # marginally dependent
    tampered = AMAT.copy()
    tampered[0, 2] = 1                                                # add 1 <- 3
    assert abs(ref.partial_correlation(_sigma(tampered), 0, 2, [1])) > 1e-3


def test_conditional_concentration_support():
    # condition on the collider 1: its parents 2 and 4 become adjacent in v
    sigma = _sigma()
    pc = ref.conditional_partial_correlations(sigma, [1, 2, 3], [0])
    got = ref.support(pc, 1e-6, 1e-9)
    want = np.array([[1, 1, 1], [1, 1, 0], [1, 0, 1]], dtype=np.int8)
    assert np.array_equal(got, want)
    tampered = want.copy()
    tampered[1, 2] = tampered[2, 1] = 1
    assert not np.array_equal(got, tampered)


def test_support_refuses_unclear_entries():
    with pytest.raises(CheckFailure):
        ref.support(np.array([[1.0, 1e-7], [1e-7, 1.0]]), 1e-6, 1e-9)


def _edges():
    return ref.parent_edges(NODES, AMAT)


def test_active_path_validator_accepts_a_real_path():
    # 3 -> 2 -> 1 <- 4 -> 5 given {1}: 2 transmits (marginalised), 1 collides (in C), 4 transmits
    ref.check_active_path(
        _edges(), (3, 2, 1, 4, 5),
        ((TAIL, HEAD), (TAIL, HEAD), (HEAD, TAIL), (TAIL, HEAD)),
        ("transmitting", "collision", "transmitting"),
        {3}, {5}, {1}, {2, 4},
    )


@pytest.mark.parametrize("path, marks, statuses, cond, marg", [
    ((3, 1, 4), ((TAIL, HEAD), (HEAD, TAIL)), ("collision",), {1}, set()),             # 3 - 1 is no edge
    ((2, 1, 4), ((HEAD, TAIL), (HEAD, TAIL)), ("collision",), {1}, set()),             # wrong end marks
    ((2, 1, 4), ((TAIL, HEAD), (HEAD, TAIL)), ("collision",), set(), set()),           # collision not in C
    ((2, 1, 4), ((TAIL, HEAD), (HEAD, TAIL)), ("transmitting",), {1}, set()),          # wrong status
    ((3, 2, 1), ((TAIL, HEAD), (TAIL, HEAD)), ("transmitting",), set(), set()),        # 2 not marginalised
    ((2, 1, 2), ((TAIL, HEAD), (HEAD, TAIL)), ("collision",), {1}, set()),             # repeated node
])
def test_active_path_validator_rejects_tampered_paths(path, marks, statuses, cond, marg):
    with pytest.raises(CheckFailure):
        ref.check_active_path(_edges(), path, marks, statuses, {path[0]}, {path[-1]}, cond, marg)


def _cycle_adj(n, chords=()):
    adj = np.eye(n, dtype=np.int8)
    for a in range(n):
        adj[a, (a + 1) % n] = adj[(a + 1) % n, a] = 1
    for a, b in chords:
        adj[a, b] = adj[b, a] = 1
    return adj


def test_chordless_cycle_validator():
    ref.check_chordless_cycle(_cycle_adj(5), [0, 1, 2, 3, 4])
    ref.check_chordless_cycle(_cycle_adj(5), [2, 1, 0, 4, 3])
    for adj, cycle in (
        (_cycle_adj(5, [(0, 2)]), [0, 1, 2, 3, 4]),   # chord
        (_cycle_adj(5), [0, 1, 3, 2, 4]),             # not consecutive
        (_cycle_adj(3), [0, 1, 2]),                   # too short
        (_cycle_adj(5), [0, 1, 2, 3]),                # not closed
    ):
        with pytest.raises(CheckFailure):
            ref.check_chordless_cycle(adj, cycle)


def test_collision_path_validator():
    # 1 -> 2 ~~ 3 <- 4: both inner nodes collide, no chords
    u = (1, 2, 3, 4)
    h = np.eye(4, dtype=np.int8)
    h[1, 0] = h[2, 3] = 1
    w = np.eye(4, dtype=np.int8)
    w[1, 2] = w[2, 1] = 1
    edges = ref.summary_edges(u, (), h, np.zeros((4, 0)), w, np.zeros((0, 0)))
    ref.check_collision_path(edges, (1, 2, 3, 4))
    with pytest.raises(CheckFailure):
        ref.check_collision_path(edges | {(1, 3, DASH, DASH), (3, 1, DASH, DASH)}, (1, 2, 3, 4))
    h[2, 3], h[3, 2] = 0, 1                                          # now 3 -> 4: 3 transmits
    edges = ref.summary_edges(u, (), h, np.zeros((4, 0)), w, np.zeros((0, 0)))
    with pytest.raises(CheckFailure):
        ref.check_collision_path(edges, (1, 2, 3, 4))


def test_summary_edges_marks():
    edges = ref.summary_edges((1, 2), (3, 4), np.array([[1, 1], [0, 1]]), np.array([[0, 0], [1, 0]]),
                              np.eye(2), np.ones((2, 2)))
    assert edges == {(1, 2, HEAD, TAIL), (2, 1, TAIL, HEAD), (2, 3, HEAD, TAIL), (3, 2, TAIL, HEAD),
                     (3, 4, LINE, LINE), (4, 3, LINE, LINE)}


# the workload checks reject tampered library results


def test_reduce_check_rejects_a_tampered_route():
    wl = workloads.build_reduce(0)
    block, two, step = wl.ops[0]()
    wl.check(0, (block, two, step))
    with pytest.raises(CheckFailure):
        wl.check(0, (block, two, workloads.summary_from_parent(wl.ops[1].args[0].graph, wl.ops[1].args[0].spec)))


def test_verify_check_rejects_violations():
    wl = workloads.build_verify(0)
    report = wl.ops[0]()
    wl.check(0, report)
    bad = type(report)(report.n_draws, (_violation(),))
    with pytest.raises(CheckFailure):
        wl.check(0, bad)


def _violation():
    from sumgraph.oracle import Violation

    return Violation(seed=0, matrix="h_uu", cell=(1, 2), value=1.0, kind="nonzero_at_structural_zero")


def test_analyse_check_rejects_a_tampered_obstruction():
    wl = workloads.build_analyse(0)
    (result,) = wl.ops[2]()                   # a planted-cycle case
    wl.check(2, (result,))
    statements, mag, verdicts, obstruction, report = result
    with pytest.raises(CheckFailure):
        wl.check(2, ((statements, mag, verdicts, None, report),))


def test_cli_check_rejects_tampered_output():
    wl = workloads.build_cli(0)
    try:
        rc, stdout = wl.ops[0]()
        wl.check(0, (rc, stdout))
        with pytest.raises(CheckFailure):
            wl.check(0, (rc, stdout + "1 <- 2\n" if "1 <- 2" not in stdout else stdout.replace("1 <- 2\n", "")))
        with pytest.raises(CheckFailure):
            wl.check(0, (2, stdout))
    finally:
        wl.close()
