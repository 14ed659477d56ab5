import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumgraph.edge_matrix import (
    DEFAULT_ZERO_TOL,
    EdgeMatrixError,
    SingularBlockError,
    ancestor_closure,
    closure_by_regularized_inverse,
    indicator,
    partial_close,
    partial_invert,
    reach_closure,
)


def rand_binary(rng, n, p=0.4):
    return (rng.random((n, n)) < p).astype(np.int8)


def well_conditioned(rng, n):
    # dominant diagonal keeps every principal submatrix comfortably invertible
    m = rng.uniform(-1.0, 1.0, size=(n, n))
    return m + n * np.eye(n)


# ---------------------------------------------------------------------------
# indicator


def test_indicator_identity():
    assert np.array_equal(indicator(np.eye(3)), np.eye(3, dtype=np.int8))


def test_indicator_ignores_sign_and_magnitude():
    got = indicator(np.array([[2.0, 0.5], [0.0, 1.0]]))
    assert np.array_equal(got, np.array([[1, 1], [0, 1]]))


def test_indicator_tolerance_rule():
    m = np.array([[1.0, 1e-12], [0.0, 1.0]])
    assert np.array_equal(indicator(m, tol=1e-10), np.eye(2, dtype=np.int8))
    assert indicator(m, tol=1e-13)[0, 1] == 1


def test_indicator_rejects_non_finite():
    with pytest.raises(EdgeMatrixError):
        indicator(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(EdgeMatrixError):
        indicator(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_default_zero_tolerance():
    assert DEFAULT_ZERO_TOL == 1e-9


# ---------------------------------------------------------------------------
# partial inversion


def test_partial_invert_empty_subset_is_identity_op():
    f = np.array([[2.0, 1.0], [3.0, 4.0]])
    assert np.array_equal(partial_invert(f, []), f)


def test_partial_invert_full_subset_is_inverse():
    rng = np.random.default_rng(0)
    f = well_conditioned(rng, 4)
    got = partial_invert(f, range(4))
    assert np.allclose(got, np.linalg.inv(f), atol=1e-10)


def test_partial_invert_two_by_two_blocks():
    f = np.array([[2.0, 1.0], [0.0, 1.0]])
    got = partial_invert(f, [0])
    assert np.allclose(got, np.array([[0.5, -0.5], [0.0, 1.0]]))
    # complement sweep lands on the full inverse
    assert np.allclose(partial_invert(got, [1]), np.linalg.inv(f), atol=1e-12)


def test_partial_invert_singular_block_reports_subset():
    f = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(SingularBlockError) as exc:
        partial_invert(f, [0])
    assert exc.value.subset == (0,)


def test_partial_invert_validates_subsets():
    f = np.eye(2)
    with pytest.raises(EdgeMatrixError):
        partial_invert(f, [0, 0])
    with pytest.raises(EdgeMatrixError):
        partial_invert(f, [5])


def test_partial_invert_undo_commute_exchange():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        f = well_conditioned(rng, n)
        parts = np.array_split(rng.permutation(n), 4)
        a, b, c, _ = [list(map(int, part)) for part in parts]
        assert np.allclose(partial_invert(partial_invert(f, a), a), f, atol=1e-10)
        assert np.allclose(
            partial_invert(partial_invert(f, a), b),
            partial_invert(partial_invert(f, b), a),
            atol=1e-10,
        )
        assert np.allclose(
            partial_invert(partial_invert(f, a + b), b + c),
            partial_invert(f, a + c),
            atol=1e-10,
        )


def test_partial_invert_submatrix_exchange():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(3, 7))
        f = well_conditioned(rng, n)
        k = int(rng.integers(1, n))
        j = sorted(map(int, rng.permutation(n)[:k]))
        a = [i for i in j if rng.random() < 0.5]
        full = partial_invert(f, a)
        sub = partial_invert(f[np.ix_(j, j)], [j.index(i) for i in a])
        assert np.allclose(full[np.ix_(j, j)], sub, atol=1e-10)


# ---------------------------------------------------------------------------
# partial closure


def test_partial_close_empty_subset():
    b = np.array([[1, 1], [0, 1]], dtype=np.int8)
    assert np.array_equal(partial_close(b, []), b)


def test_partial_close_chain():
    # 1 <- 2 <- 3; closing on the inner node adds the ancestor edge (1, 3)
    b = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=np.int8)
    got = partial_close(b, [1])
    want = np.array([[1, 1, 1], [0, 1, 1], [0, 0, 1]], dtype=np.int8)
    assert np.array_equal(got, want)


def test_partial_close_composition_on_random_matrices():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        b = rand_binary(rng, n)
        perm = rng.permutation(n)
        a = [int(x) for x in perm[: n // 2]]
        c = [int(x) for x in perm[n // 2:]]
        both = partial_close(partial_close(b, a), c)
        assert np.array_equal(both, partial_close(partial_close(b, c), a))
        assert np.array_equal(both, partial_close(b, a + c))


def test_partial_close_idempotent_not_undoable():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        b = rand_binary(rng, n)
        a = [int(x) for x in rng.permutation(n)[: max(1, n // 2)]]
        once = partial_close(b, a)
        assert np.array_equal(partial_close(once, a), once)


def test_partial_close_union_composition():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(3, 6))
        b = rand_binary(rng, n)
        parts = np.array_split(rng.permutation(n), 3)
        a, bb, c = [list(map(int, part)) for part in parts]
        assert np.array_equal(
            partial_close(partial_close(b, a + bb), bb + c), partial_close(b, a + bb + c)
        )


def test_partial_close_submatrix_exchange():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(3, 7))
        b = rand_binary(rng, n)
        k = int(rng.integers(1, n))
        j = sorted(map(int, rng.permutation(n)[:k]))
        a = [i for i in j if rng.random() < 0.5]
        full = partial_close(b, a)
        sub = partial_close(b[np.ix_(j, j)], [j.index(i) for i in a])
        assert np.array_equal(full[np.ix_(j, j)], sub)


def test_boolean_closure_equals_regularized_inverse_exhaustively():
    for n in (1, 2, 3):
        for bits in itertools.product((0, 1), repeat=n * n):
            b = np.array(bits, dtype=np.int8).reshape(n, n)
            assert np.array_equal(reach_closure(b), closure_by_regularized_inverse(b))


def test_boolean_closure_equals_regularized_inverse_random_dim5():
    rng = np.random.default_rng(7)
    for _ in range(100):
        b = rand_binary(rng, 5)
        assert np.array_equal(reach_closure(b), closure_by_regularized_inverse(b))


def test_structural_zero_soundness_against_partial_inversion():
    # zeros surviving partial closure are structural: the numeric sweep of a
    # generic same-pattern matrix vanishes there
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        b = rand_binary(rng, n, p=0.35)
        np.fill_diagonal(b, 1)
        f = b * rng.uniform(0.5, 1.5, size=(n, n)) * rng.choice((-1, 1), size=(n, n))
        f = f + n * np.eye(n)  # keep principal blocks invertible
        b_f = indicator(f)
        a = [int(x) for x in rng.permutation(n)[: n // 2]]
        closed = partial_close(b_f, a)
        swept = partial_invert(f, a)
        assert ((np.abs(swept) > 1e-9) <= (closed == 1)).all()


def bfs_closure(b):
    """Reflexive-transitive closure by a breadth-first search from every row."""
    n = b.shape[0]
    out = np.eye(n, dtype=bool)
    for start in range(n):
        frontier = out[start].copy()
        while frontier.any():
            frontier = b[frontier].any(axis=0) & ~out[start]
            out[start] |= frontier
    return out.astype(np.int8)


def closure_blocks():
    rng = np.random.default_rng(9)
    for n in (2, 5, 10, 20, 40, 80, 150, 300):
        for p in (1.5 / n, 0.1, 0.5):
            b = (rng.random((n, n)) < p).astype(np.int8)
            yield b  # cyclic
            yield np.triu(b)  # acyclic
    yield np.eye(200, dtype=np.int8) + np.eye(200, k=1, dtype=np.int8)  # the most squarings
    yield np.zeros((0, 0), dtype=np.int8)
    yield np.zeros((1, 1), dtype=np.int8)
    yield np.ones((1, 1), dtype=np.int8)


def test_reach_closure_equals_bfs_up_to_300_nodes():
    for b in closure_blocks():
        got = reach_closure(b)
        assert got.dtype == np.int8
        assert np.array_equal(got, bfs_closure(b)), b.shape


def test_reach_closure_equals_regularized_inverse_where_it_resolves():
    # The inverse route reads a path of length L off an entry of about
    # (n + 1)^-(L + 1); against its 1e-12 cut-off that is sound while
    # (n + 1)^n < 1e12, i.e. up to n = 10.
    for b in closure_blocks():
        if b.shape[0] <= 10:
            assert np.array_equal(reach_closure(b), closure_by_regularized_inverse(b)), b.shape


def test_regularized_inverse_refuses_blocks_it_cannot_resolve():
    chain = np.eye(11, k=1, dtype=np.int8)
    assert np.array_equal(closure_by_regularized_inverse(chain), np.triu(np.ones((11, 11), dtype=np.int8)))
    with pytest.raises(EdgeMatrixError):
        closure_by_regularized_inverse(np.eye(12, k=1, dtype=np.int8))
    with pytest.raises(EdgeMatrixError):
        closure_by_regularized_inverse(np.zeros((300, 300), dtype=np.int8))


def test_partial_close_equals_int64_reference():
    rng = np.random.default_rng(10)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        b = (rng.random((n, n)) < rng.uniform(0.02, 0.5)).astype(np.int8)
        a = [int(x) for x in np.flatnonzero(rng.random(n) < rng.uniform(0.1, 0.9))]
        bi = [k for k in range(n) if k not in a]
        want = b.copy()
        if a:
            closed = b[np.ix_(a, a)].astype(bool) | np.eye(len(a), dtype=bool)
            while True:
                nxt = closed | (closed @ closed)
                if (nxt == closed).all():
                    break
                closed = nxt
            closed = closed.astype(np.int64)
            fab = b[np.ix_(a, bi)].astype(np.int64)
            fba = b[np.ix_(bi, a)].astype(np.int64)
            fbb = b[np.ix_(bi, bi)].astype(np.int64)
            want[np.ix_(a, a)] = closed
            want[np.ix_(a, bi)] = closed @ fab > 0
            want[np.ix_(bi, a)] = fba @ closed > 0
            want[np.ix_(bi, bi)] = fbb + fba @ closed @ fab > 0
        got = partial_close(b, a)
        assert got.dtype == np.int8
        assert np.array_equal(got, want), (n, a)


# ---------------------------------------------------------------------------
# ancestor closure


def test_ancestor_closure_edgeless():
    assert np.array_equal(ancestor_closure(np.eye(3, dtype=np.int8)), np.eye(3, dtype=np.int8))


def test_ancestor_closure_chain():
    b = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=np.int8)
    want = np.array([[1, 1, 1], [0, 1, 1], [0, 0, 1]], dtype=np.int8)
    assert np.array_equal(ancestor_closure(b), want)


def test_ancestor_closure_rejects_non_triangular():
    with pytest.raises(EdgeMatrixError):
        ancestor_closure(np.array([[1, 0], [1, 1]], dtype=np.int8))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
def test_ancestor_closure_equals_full_partial_close(n, pyrandom):
    b = np.eye(n, dtype=np.int8)
    for i in range(n):
        for k in range(i + 1, n):
            if pyrandom.random() < 0.5:
                b[i, k] = 1
    assert np.array_equal(ancestor_closure(b), partial_close(b, range(n)))


@pytest.mark.parametrize("bad", [0.5, 1.9, 257, np.nan])
def test_binary_operators_reject_entries_other_than_zero_and_one(bad):
    m = np.eye(3)
    m[0, 1] = bad
    for call in (reach_closure, lambda b: partial_close(b, [0, 1])):
        with pytest.raises(EdgeMatrixError, match="entries must be 0 or 1"):
            call(m)
    assert np.array_equal(reach_closure(np.eye(3, dtype=bool)), np.eye(3))
