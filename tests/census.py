"""An exhaustive census of small cases for the tests to share.

``dag_cases(k)`` yields every DAG in generating order on the nodes
1..k (each of the k(k-1)/2 possible arrows present or not) under every
(C, M) role assignment (each node conditioned on, marginalised over or
kept): 2^(k(k-1)/2) * 3^k cases in a fixed order.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np

from sumgraph import MarginalConditionSpec, ParentGraph


def dag_count(k: int) -> int:
    return 2 ** (k * (k - 1) // 2) * 3**k


def dags(k: int) -> Iterator[ParentGraph]:
    """Every DAG on 1..k with arrows from later to earlier nodes, the arrow
    pairs (i, j), i < j, read as the bits of a counter in row-major order."""
    rows, cols = np.triu_indices(k, 1)
    for bits in itertools.product((0, 1), repeat=rows.size):
        a = np.eye(k, dtype=np.int8)
        a[rows, cols] = bits
        yield ParentGraph(tuple(range(1, k + 1)), a)


def dag_cases(k: int) -> Iterator[tuple[ParentGraph, MarginalConditionSpec]]:
    """Every DAG on k nodes times every (C, M) role assignment."""
    nodes = range(1, k + 1)
    for g in dags(k):
        for roles in itertools.product("cmk", repeat=k):
            yield g, MarginalConditionSpec(
                frozenset(n for n, r in zip(nodes, roles) if r == "c"),
                frozenset(n for n, r in zip(nodes, roles) if r == "m"),
            )
