"""Seeded input families for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` and returns plain
library inputs (a ``ParentGraph`` plus the (C, M) spec and whatever the
checks need to know about how the case was built).  Node ids are the
integers 1..n, youngest first, so the same case can be written as a CLI
document without renaming.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from sumgraph import MarginalConditionSpec, ParentGraph, spec_of


@dataclass(frozen=True, eq=False)
class Case:
    graph: ParentGraph
    spec: MarginalConditionSpec
    family: str
    planted: frozenset = field(default=frozenset())  # nodes of a planted chordless cycle


def random_dag(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """Unit upper-triangular 0/1 matrix with each possible arrow present with probability p."""
    a = np.eye(n, dtype=np.int8)
    a[np.triu(rng.random((n, n)) < p, 1)] = 1
    return a


def _graph(a: np.ndarray) -> ParentGraph:
    return ParentGraph(tuple(range(1, a.shape[0] + 1)), a)


def sparse_case(rng: np.random.Generator, n: int) -> Case:
    """Sparse DAG with p = 3/n, |C| = n // 10 and |M| = n // 4 drawn at random."""
    g = _graph(random_dag(rng, n, 3.0 / n))
    perm = [int(x) for x in rng.permutation(n) + 1]
    nc, nm = n // 10, n // 4
    return Case(g, spec_of(perm[:nc], perm[nc:nc + nm]), "sparse")


def dense_case(rng: np.random.Generator, n: int, n_marg: int) -> Case:
    """DAG carrying exactly half of the n(n-1)/2 possible arrows (p = 0.5
    without the spread in edge count), reduced by marginalising ``n_marg``
    random nodes."""
    a = np.eye(n, dtype=np.int8)
    rows, cols = np.triu_indices(n, 1)
    pick = rng.choice(rows.size, rows.size // 2, replace=False)
    a[rows[pick], cols[pick]] = 1
    perm = [int(x) for x in rng.permutation(n) + 1]
    return Case(_graph(a), spec_of((), perm[:n_marg]), "dense")


def _regression_case(rng, n_u: int, n_v: int, colliders, v_arrows, family: str, planted=()):
    """Outsiders first, then the conditioned colliders, then the v block.

    ``colliders`` lists, per collider, the v positions of its parents;
    ``v_arrows`` lists (offspring, parent) pairs of v positions with the
    parent later in the order.  The outsiders carry exactly 35% of the
    arrows they could have from older outsiders and from v, so u holds
    arrows only, M is empty, and the derived summary graph is a regression
    graph whose v block is the concentration graph the colliders induce.
    """
    n_c = len(colliders)
    v0 = n_u + n_c
    n = v0 + n_v
    a = np.eye(n, dtype=np.int8)
    rows, cols = np.nonzero(np.triu(np.ones((n_u, n), dtype=bool), 1))
    keep = (cols < n_u) | (cols >= v0)
    rows, cols = rows[keep], cols[keep]
    pick = rng.choice(rows.size, round(0.35 * rows.size), replace=False)
    a[rows[pick], cols[pick]] = 1
    for j, parents in enumerate(colliders):
        a[n_u + j, [v0 + p for p in parents]] = 1
    for child, parent in v_arrows:
        a[v0 + child, v0 + parent] = 1
    conditioning = range(n_u + 1, v0 + 1)
    return Case(_graph(a), spec_of(conditioning, ()), family, frozenset(v0 + p + 1 for p in planted))


def complete_v_case(rng: np.random.Generator, n_u: int, n_v: int) -> Case:
    """One conditioned collider with every v node as a parent: v is complete.
    Exactly 30% of the possible arrows within v are added; they do not
    change s_vv."""
    pairs = [(i, k) for i in range(n_v) for k in range(i + 1, n_v)]
    v_arrows = [pairs[j] for j in rng.choice(len(pairs), round(0.3 * len(pairs)), replace=False)]
    return _regression_case(rng, n_u, n_v, [range(n_v)], v_arrows, "complete_v")


def cycle_v_case(rng: np.random.Generator, n_u: int, length: int, n_pendant: int) -> Case:
    """A chordless cycle of ``length`` v nodes planted through one conditioned
    collider per cycle edge, plus pendant v nodes that each feed one cycle
    node and so add only triangles and trees to the concentration graph."""
    cycle = [int(x) for x in rng.permutation(length)]
    colliders = [(cycle[j], cycle[(j + 1) % length]) for j in range(length)]
    v_arrows = [(int(rng.integers(length)), length + e) for e in range(n_pendant)]
    return _regression_case(
        rng, n_u, length + n_pendant, colliders, v_arrows, "cycle_v", planted=range(length)
    )
