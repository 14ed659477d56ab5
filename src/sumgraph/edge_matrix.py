"""Binary edge-matrix algebra and real-matrix partial inversion.

Two operators carry the whole library: ``partial_invert`` rearranges a
linear system so that a chosen subset of variables switches sides, and
``partial_close`` is its structural shadow on 0/1 edge matrices, closing
special paths through the chosen subset.  Everything downstream (summary
graph derivations, MAG construction, the Gaussian oracle) is phrased in
terms of these two.

Binary edge matrices are plain ``numpy`` arrays with entries in {0, 1};
real matrices are float arrays.  All functions return fresh arrays and
never mutate their inputs.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

DEFAULT_ZERO_TOL = 1e-9


class EdgeMatrixError(ValueError):
    """Invalid input to an edge-matrix operation."""


class SingularBlockError(EdgeMatrixError):
    """A principal submatrix that must be inverted is singular."""

    def __init__(self, subset: tuple[int, ...]):
        self.subset = subset
        super().__init__(f"principal submatrix on node subset {list(subset)} is singular")


def as_subset(a: Iterable[int], dim: int) -> np.ndarray:
    """Validate a node subset and return it as a sorted index array."""
    idx = sorted(a)
    if len(set(idx)) != len(idx):
        raise EdgeMatrixError(f"subset contains duplicates: {idx}")
    if idx and (idx[0] < 0 or idx[-1] >= dim):
        raise EdgeMatrixError(f"subset {idx} out of range for dimension {dim}")
    return np.asarray(idx, dtype=int)


def _square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise EdgeMatrixError(f"{name} must be square, got shape {m.shape}")
    return m


def _binary(m: np.ndarray) -> np.ndarray:
    m = _square(m, "edge matrix")
    if not ((m == 0) | (m == 1)).all():
        raise EdgeMatrixError("edge matrix entries must be 0 or 1")
    return m.astype(np.int8)


def indicator(m: np.ndarray, tol: float = DEFAULT_ZERO_TOL) -> np.ndarray:
    """Map every entry with |entry| > tol to 1 and the rest to 0."""
    m = np.asarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise EdgeMatrixError("indicator requires finite entries")
    return (np.abs(m) > tol).astype(np.int8)


def partial_invert(f: np.ndarray, a: Iterable[int]) -> np.ndarray:
    """Partially invert the square matrix ``f`` on the index subset ``a``.

    Rows and columns stay in their original order.  The a-block becomes
    f_aa^{-1}, the off blocks become -f_aa^{-1} f_ab and f_ba f_aa^{-1},
    and the b-block becomes the Schur complement f_bb - f_ba f_aa^{-1} f_ab.
    The operation is an involution on ``a`` and commutes across disjoint
    subsets.
    """
    f = _square(np.asarray(f, dtype=float))
    dim = f.shape[0]
    ai = as_subset(a, dim)
    if ai.size == 0:
        return f.copy()
    bi = np.setdiff1d(np.arange(dim), ai)
    faa = f[np.ix_(ai, ai)]
    try:
        faa_inv = np.linalg.inv(faa)
    except np.linalg.LinAlgError:
        raise SingularBlockError(tuple(int(i) for i in ai)) from None
    out = np.empty_like(f)
    out[np.ix_(ai, ai)] = faa_inv
    if bi.size:
        fab = f[np.ix_(ai, bi)]
        fba = f[np.ix_(bi, ai)]
        out[np.ix_(ai, bi)] = -faa_inv @ fab
        out[np.ix_(bi, ai)] = fba @ faa_inv
        out[np.ix_(bi, bi)] = f[np.ix_(bi, bi)] - fba @ faa_inv @ fab
    return out


def reach_closure(block: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of a binary block by repeated squaring.

    The products run as float32 BLAS ``matmul`` and are read back with
    ``> 0``.  This is exact: every entry of a product of 0/1 matrices is a
    sum of nonnegative terms, at least one of which is 1 whenever the true
    entry is nonzero, so rounding cannot turn a positive sum into 0, and no
    sum (at most the dimension) comes near float32 overflow.
    """
    b = _binary(block)
    r = (b | np.eye(b.shape[0], dtype=np.int8)).astype(np.float32)
    while True:
        nxt = ((r @ r) > 0).astype(np.float32)
        if (nxt == r).all():
            return r.astype(np.int8)
        r = nxt


def closure_by_regularized_inverse(block: np.ndarray) -> np.ndarray:
    """Numeric route to the same closure: indicator of (n I - F)^{-1}, n-1 = dim.

    Retained as a test oracle for ``reach_closure``; the inverse of the
    diagonally dominant matrix expands into a Neumann series with
    non-negative terms, so its support is the reachability set as long as
    every path shows above the 1e-12 cut-off.  A path of length L shows in
    an entry of about n^-(L + 1), so blocks of 12 or more nodes, where a
    path of length 11 falls below it, raise ``EdgeMatrixError``.
    """
    b = _binary(block).astype(float)
    if b.shape[0] >= 12:
        raise EdgeMatrixError(f"the regularized inverse resolves blocks of at most 11 nodes, got {b.shape[0]}")
    n = b.shape[0] + 1
    inv = np.linalg.inv(n * np.eye(b.shape[0]) - b)
    return indicator(inv, tol=1e-12)


def partial_close(b: np.ndarray, a: Iterable[int]) -> np.ndarray:
    """Partial closure of a binary edge matrix on the index subset ``a``.

    The a-block is replaced by its reflexive-transitive closure F_aa^-,
    the off blocks by In[F_aa^- F_ab] and In[F_ba F_aa^-], and the b-block
    by In[F_bb + F_ba F_aa^- F_ab].  Idempotent and commutative, but not
    undoable.  The products are float32 BLAS products read back with
    ``> 0``; as in ``reach_closure`` their terms are nonnegative path counts
    that stay far below float32 overflow, so the supports are exact.
    """
    b = _binary(b)
    dim = b.shape[0]
    ai = as_subset(a, dim)
    if ai.size == 0:
        return b.copy()
    bi = np.setdiff1d(np.arange(dim), ai)
    closed = reach_closure(b[np.ix_(ai, ai)])
    out = np.zeros_like(b)
    out[np.ix_(ai, ai)] = closed
    if bi.size:
        closed = closed.astype(np.float32)
        fab = b[np.ix_(ai, bi)].astype(np.float32)
        fba = b[np.ix_(bi, ai)].astype(np.float32)
        fbb = b[np.ix_(bi, bi)].astype(np.float32)
        out[np.ix_(ai, bi)] = closed @ fab > 0
        out[np.ix_(bi, ai)] = fba @ closed > 0
        out[np.ix_(bi, bi)] = (fbb + fba @ closed @ fab) > 0
    return out


def is_unit_upper_triangular(b: np.ndarray) -> bool:
    b = np.asarray(b)
    return bool((np.diag(b) == 1).all() and (np.tril(b, -1) == 0).all())


def ancestor_closure(b: np.ndarray) -> np.ndarray:
    """Close a parent-graph edge matrix: one at (i, k) iff k is i or an ancestor of i."""
    b = _binary(b)
    if not is_unit_upper_triangular(b):
        raise EdgeMatrixError("ancestor closure requires a unit upper-triangular edge matrix")
    return reach_closure(b)
