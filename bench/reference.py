"""Reference computations the benchmark checks the library against.

Nothing here calls into ``sumgraph``: the Gaussian side is plain numpy on
a triangular system sampled here, and the graph side reads the 0/1
component matrices of a graph directly.  Edge-end marks use the
library's spelling ("head", "tail", "dash", "line") because that is how
witness paths report them.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

HEAD, TAIL, DASH, LINE = "head", "tail", "dash", "line"


class CheckFailure(AssertionError):
    """A library output disagrees with its reference."""


# ---------------------------------------------------------------------------
# Gaussian side


def sample_triangular(
    amat: np.ndarray, rng: np.random.Generator, coef=(0.4, 0.9), var=(0.5, 1.5)
) -> tuple[np.ndarray, np.ndarray]:
    """A unit upper-triangular A with a coefficient of random sign and
    magnitude in ``coef`` on every off-diagonal one of ``amat``, and
    residual variances drawn from ``var``."""
    amat = np.asarray(amat)
    n = amat.shape[0]
    off = np.triu(amat, 1).astype(bool)
    mag = rng.uniform(*coef, size=(n, n))
    sign = rng.choice((-1.0, 1.0), size=(n, n))
    a = np.eye(n) - np.where(off, mag * sign, 0.0)
    return a, rng.uniform(*var, size=n)


def covariance(a: np.ndarray, dvar: np.ndarray) -> np.ndarray:
    """Sigma = A^{-1} Delta A^{-T} of the system A Y = eps, cov(eps) = Delta."""
    n = a.shape[0]
    a_inv = np.linalg.solve(a, np.eye(n))
    sigma = (a_inv * dvar) @ a_inv.T
    return 0.5 * (sigma + sigma.T)


def partial_correlation(sigma: np.ndarray, i: int, k: int, given: Iterable[int]) -> float:
    """Correlation of Y_i and Y_k given Y_given, from the covariance alone."""
    idx = [i, k] + [g for g in given if g not in (i, k)]
    conc = np.linalg.inv(sigma[np.ix_(idx, idx)])
    return float(-conc[0, 1] / np.sqrt(conc[0, 0] * conc[1, 1]))


def conditional_partial_correlations(
    sigma: np.ndarray, keep: Sequence[int], given: Sequence[int]
) -> np.ndarray:
    """Scaled concentration matrix of Y_keep given Y_given: entry (a, b) is
    minus the partial correlation of the pair given every other variable in
    ``keep`` and ``given``; the diagonal is 1.  Its support is the support
    of the conditional concentration matrix."""
    keep, given = list(keep), list(given)
    s = sigma[np.ix_(keep, keep)]
    if given:
        skg = sigma[np.ix_(keep, given)]
        s = s - skg @ np.linalg.solve(sigma[np.ix_(given, given)], skg.T)
    conc = np.linalg.inv(s)
    d = np.sqrt(np.diag(conc))
    return conc / np.outer(d, d)


def support(values: np.ndarray, one_above: float, zero_below: float) -> np.ndarray:
    """0/1 support of |values|; an entry between the two thresholds is
    neither clearly zero nor clearly nonzero and fails the check."""
    mag = np.abs(values)
    unclear = (mag >= zero_below) & (mag <= one_above)
    if unclear.any():
        i, k = np.argwhere(unclear)[0]
        raise CheckFailure(f"entry ({i}, {k}) = {mag[i, k]:.3e} lies between {zero_below} and {one_above}")
    return (mag > one_above).astype(np.int8)


# ---------------------------------------------------------------------------
# graph side


def summary_edges(u, v, h_uu, h_uv, w_uu, s_vv) -> set[tuple]:
    """Every edge of a summary graph as (x, y, mark at x, mark at y), in
    both orientations, read off the stored component matrices."""
    out: set[tuple] = set()

    def link(x, y, mx, my):
        out.add((x, y, mx, my))
        out.add((y, x, my, mx))

    for i, k in np.argwhere(np.asarray(h_uu)):
        if i != k:
            link(u[i], u[k], HEAD, TAIL)
    for i, k in np.argwhere(np.asarray(h_uv)):
        link(u[i], v[k], HEAD, TAIL)
    for i, k in np.argwhere(np.triu(np.asarray(w_uu), 1)):
        link(u[i], u[k], DASH, DASH)
    for i, k in np.argwhere(np.triu(np.asarray(s_vv), 1)):
        link(v[i], v[k], LINE, LINE)
    return out


def parent_edges(nodes, amat) -> set[tuple]:
    """The arrows of a parent graph (entry (i, k) = 1 means i <- k)."""
    empty = np.zeros((len(nodes), 0), dtype=np.int8)
    return summary_edges(nodes, (), amat, empty, np.eye(len(nodes), dtype=np.int8), np.zeros((0, 0)))


def _reach(edges: set[tuple], node, step: tuple) -> set:
    nxt: dict = {}
    for x, y, mx, my in edges:
        if (mx, my) == step:
            nxt.setdefault(x, set()).add(y)
    seen, stack = set(), [node]
    while stack:
        for y in nxt.get(stack.pop(), ()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    seen.discard(node)
    return seen


def descendants(edges: set[tuple], node) -> set:
    """Nodes reachable from ``node`` along arrows tail -> head, node excluded."""
    return _reach(edges, node, (TAIL, HEAD))


def ancestors(edges: set[tuple], node) -> set:
    """Nodes with an arrow path into ``node``, node excluded."""
    return _reach(edges, node, (HEAD, TAIL))


def is_collision(mark_in: str, mark_out: str) -> bool:
    """An inner node is a collision node when both its edge ends carry an
    arrowhead or a dash."""
    return mark_in in (HEAD, DASH) and mark_out in (HEAD, DASH)


def check_active_path(edges, nodes, marks, statuses, alpha, beta, conditioning, marginalised):
    """Raise CheckFailure unless the path is an active path from alpha to
    beta relative to (conditioning, marginalised): every step is a real edge
    with the stated end marks, inner nodes are distinct and off the
    endpoint sets, each collision node is in C or has a descendant in C,
    and each transmitting node is marginalised."""
    nodes = list(nodes)
    conditioning, marginalised = set(conditioning), set(marginalised)
    if len(nodes) < 2 or len(marks) != len(nodes) - 1 or len(statuses) != len(nodes) - 2:
        raise CheckFailure(f"malformed path {nodes}")
    if nodes[0] not in alpha or nodes[-1] not in beta:
        raise CheckFailure(f"path {nodes} does not join alpha and beta")
    inner = nodes[1:-1]
    if len(set(nodes)) != len(nodes) or set(inner) & (set(alpha) | set(beta)):
        raise CheckFailure(f"path {nodes} repeats a node or passes an endpoint")
    for x, y, (mx, my) in zip(nodes, nodes[1:], marks):
        if (x, y, mx, my) not in edges:
            raise CheckFailure(f"path {nodes}: no edge {x} {mx}-{my} {y}")
    for j, node in enumerate(inner):
        collision = is_collision(marks[j][1], marks[j + 1][0])
        if statuses[j] != ("collision" if collision else "transmitting"):
            raise CheckFailure(f"path {nodes}: wrong status {statuses[j]!r} at {node}")
        if collision:
            if node not in conditioning and not descendants(edges, node) & conditioning:
                raise CheckFailure(f"path {nodes}: collision node {node} has no descendant in C")
        elif node not in marginalised:
            raise CheckFailure(f"path {nodes}: transmitting node {node} is not marginalised")


def check_chordless_cycle(adj: np.ndarray, cycle: Sequence[int]) -> None:
    """Raise CheckFailure unless ``cycle`` (indices into the symmetric 0/1
    matrix ``adj``) lists four or more distinct nodes that are consecutively
    adjacent, closing back to the first, with no other pair adjacent."""
    cycle = list(cycle)
    n = len(cycle)
    if n < 4 or len(set(cycle)) != n:
        raise CheckFailure(f"{cycle} is not a cycle of four or more distinct nodes")
    for a in range(n):
        for b in range(a + 1, n):
            consecutive = b == a + 1 or (a == 0 and b == n - 1)
            if bool(adj[cycle[a], cycle[b]]) != consecutive:
                what = "misses the edge" if consecutive else "has a chord"
                raise CheckFailure(f"cycle {cycle} {what} ({cycle[a]}, {cycle[b]})")


def check_collision_path(edges: set[tuple], nodes: Sequence) -> None:
    """Raise CheckFailure unless x1 x2 x3 x4 is a path whose two inner nodes
    are collision nodes and whose outer pairs (x1, x3) and (x2, x4) are not
    adjacent: the four-node chordless collision path."""
    if len(nodes) != 4 or len(set(nodes)) != 4:
        raise CheckFailure(f"{list(nodes)} is not four distinct nodes")
    x1, x2, x3, x4 = nodes
    adjacent = {(x, y) for x, y, _, _ in edges}
    if (x1, x3) in adjacent or (x2, x4) in adjacent:
        raise CheckFailure(f"collision path {list(nodes)} has a chord")
    for prev, node, nxt in ((x1, x2, x3), (x2, x3, x4)):
        ins = {m for x, y, _, m in edges if (x, y) == (prev, node)}
        outs = {m for x, y, m, _ in edges if (x, y) == (node, nxt)}
        if not any(is_collision(a, b) for a in ins for b in outs):
            raise CheckFailure(f"collision path {list(nodes)}: {node} is not a collision node")
