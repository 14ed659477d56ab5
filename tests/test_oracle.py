from dataclasses import replace

import numpy as np
import pytest

from sumgraph.edge_matrix import indicator
from sumgraph.graph_model import ParentGraph
from sumgraph.oracle import (
    CovariancePair,
    OracleError,
    TriangularSystem,
    _check_recovered_conditional_covariance,
    _conditional_covariance_of_u,
    conditional_covariance,
    derive_linear_summary,
    derive_linear_summary_from_summary,
    implied_covariance,
    mag_coefficients,
    model_edge_structure,
    partial_correlation,
    regress,
    sample_system,
    standardized,
    system_from_coefficients,
    verify_structural_zeros,
)
from sumgraph.transform import (
    MarginalConditionSpec,
    compute_split,
    spec_of,
    summary_from_parent,
    summary_from_summary,
)

from conftest import dag, random_dag, random_spec


# ---------------------------------------------------------------------------
# sampling


def test_sample_edgeless_graph_gives_identity():
    g = dag([1, 2, 3], [])
    sys = sample_system(g, seed=0)
    assert np.array_equal(sys.a, np.eye(3))


def test_sampling_is_deterministic(iv_graph):
    a = sample_system(iv_graph, seed=11)
    b = sample_system(iv_graph, seed=11)
    assert np.array_equal(a.a, b.a) and np.array_equal(a.dvar, b.dvar)


def test_sampled_coefficients_live_on_edges_in_range():
    rng = np.random.default_rng(51)
    for draw in range(100):
        g = random_dag(rng, int(rng.integers(2, 7)))
        sys = sample_system(g, seed=draw)
        offdiag = sys.a - np.eye(g.dim)
        assert np.array_equal(indicator(sys.a), g.amat)
        mags = np.abs(offdiag[offdiag != 0])
        assert ((mags >= 0.3) & (mags <= 0.9)).all()
        assert ((sys.dvar >= 0.5) & (sys.dvar <= 1.5)).all()


def test_sampling_keeps_the_double_loop_stream():
    # The draws of every `verify --seed` rest on this order and these calls.
    rng = np.random.default_rng(52)
    for seed in range(240):
        n = int(rng.integers(1, 40))
        g = random_dag(rng, n, p=float(rng.uniform(0.05, 0.6)))
        draws = np.random.default_rng(seed)
        a = np.eye(n)
        for i in range(n):
            for k in range(i + 1, n):
                if g.amat[i, k]:
                    coef = draws.uniform(0.3, 0.9) * draws.choice((-1.0, 1.0))
                    a[i, k] = -coef
        dvar = draws.uniform(0.5, 1.5, size=n)
        sys = sample_system(g, seed)
        assert np.array_equal(sys.a, a), seed
        assert np.array_equal(sys.dvar, dvar), seed


def _random_graph(rng, n, p):
    a = np.eye(n, dtype=np.int8)
    a[np.triu(rng.random((n, n)) < p, 1)] = 1
    return ParentGraph(tuple(range(1, n + 1)), a)


def test_one_pass_sampling_keeps_the_stream_at_its_edges():
    # Two arrows share one sign word, so odd and even arrow counts end the
    # stream differently; the complete and the sparse 160-node DAGs read
    # long streams.
    rng = np.random.default_rng(53)
    graphs = [
        dag([1, 2, 3], []),
        dag([1, 2, 3], [(1, 3)]),
        dag([1, 2, 3], [(1, 2), (2, 3)]),
        dag([1, 2, 3], [(1, 2), (1, 3), (2, 3)]),
        ParentGraph(tuple(range(1, 61)), np.triu(np.ones((60, 60), dtype=np.int8))),
    ] + [_random_graph(rng, 160, 3.0 / 160) for _ in range(5)]
    for g in graphs:
        for seed in range(10):
            draws = np.random.default_rng(seed)
            a = np.eye(g.dim)
            for i in range(g.dim):
                for k in range(i + 1, g.dim):
                    if g.amat[i, k]:
                        a[i, k] = -draws.uniform(0.3, 0.9) * draws.choice((-1.0, 1.0))
            dvar = draws.uniform(0.5, 1.5, size=g.dim)
            sys = sample_system(g, seed)
            assert np.array_equal(sys.a, a), (g.dim, seed)
            assert np.array_equal(sys.dvar, dvar), (g.dim, seed)


def test_system_from_coefficients_requires_every_edge(iv_graph):
    with pytest.raises(OracleError):
        system_from_coefficients(iv_graph, {(1, 2): 0.4})


# (row, column) of a, or None for the residual variance of node 2
_CELLS = {"edge": (0, 1), "diagonal": (1, 1), "absent_edge": (1, 0), "variance": None}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("cell", list(_CELLS))
def test_system_rejects_a_non_finite_entry(cell, value):
    # 1 <- 2: a nan or inf coefficient used to escape as EdgeMatrixError,
    # and an inf variance passed the positivity check
    g = dag([1, 2], [(1, 2)])
    a = np.array([[1.0, -0.5], [0.0, 1.0]])
    dvar = np.ones(2)
    if _CELLS[cell] is None:
        dvar[1] = value
    else:
        a[_CELLS[cell]] = value
    with pytest.raises(OracleError, match="finite"):
        TriangularSystem(g, a, dvar)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_system_from_coefficients_rejects_a_non_finite_value(iv_graph, value):
    coefficients = {(1, 2): 0.4, (1, 4): 0.3, (2, 3): 0.5, (2, 4): value}
    with pytest.raises(OracleError, match="finite"):
        system_from_coefficients(iv_graph, coefficients)
    with pytest.raises(OracleError, match="finite"):
        system_from_coefficients(iv_graph, {**coefficients, (2, 4): 0.2}, {3: value})


# ---------------------------------------------------------------------------
# implied covariance


def test_identity_system_covariance_is_delta():
    g = dag([1, 2], [])
    sys = sample_system(g, seed=1)
    cov = implied_covariance(sys)
    assert np.allclose(cov.sigma, np.diag(sys.dvar))


def test_iv_standardized_correlations(iv_graph):
    for seed in range(10):
        sys = standardized(sample_system(iv_graph, seed=seed))
        alpha, delta = sys.coefficient(1, 2), sys.coefficient(1, 4)
        lam, gamma = sys.coefficient(2, 3), sys.coefficient(2, 4)
        s = implied_covariance(sys).sigma
        assert np.allclose(np.diag(s), 1.0, atol=1e-12)
        assert abs(s[0, 1] - (alpha + gamma * delta)) < 1e-10
        assert abs(s[0, 2] - alpha * lam) < 1e-10
        assert abs(s[1, 2] - lam) < 1e-10


def test_covariance_concentration_inverse_pair():
    rng = np.random.default_rng(52)
    for draw in range(20):
        g = random_dag(rng, int(rng.integers(2, 8)))
        cov = implied_covariance(sample_system(g, seed=draw))
        assert np.allclose(cov.sigma @ cov.concentration, np.eye(g.dim), atol=1e-10)


# ---------------------------------------------------------------------------
# regression components


def test_regress_empty_b_returns_sigma(iv_graph):
    cov = implied_covariance(sample_system(iv_graph, seed=2))
    _, sigma_aa_b, _ = regress(cov, range(4), [])
    assert np.allclose(sigma_aa_b, cov.sigma, atol=1e-10)


def test_cochran_recursion():
    rng = np.random.default_rng(53)
    for draw in range(20):
        g = random_dag(rng, 6, p=0.5)
        cov = implied_covariance(sample_system(g, seed=draw))
        a, b, c = [0, 1], [2, 3], [4, 5]
        pi_ac, _, _ = regress(cov, a, b + c)  # columns ordered (b, c)
        pi_a_bc = pi_ac[:, [0, 1]]
        pi_a_cb = pi_ac[:, [2, 3]]
        pi_a_c, _, _ = regress_sub(cov, a, c)
        pi_b_c, _, _ = regress_sub(cov, b, c)
        assert np.allclose(pi_a_c, pi_a_cb + pi_a_bc @ pi_b_c, atol=1e-10)


def regress_sub(cov, a, c):
    """Regression of Y_a on Y_c alone (marginalising everything else)."""
    keep = sorted(a) + sorted(c)
    sub = cov.sigma[np.ix_(keep, keep)]
    sub_cov = CovariancePair(sigma=sub, concentration=np.linalg.inv(sub))
    return regress(sub_cov, range(len(a)), range(len(a), len(keep)))


def test_anderson_recursion():
    rng = np.random.default_rng(54)
    for draw in range(20):
        g = random_dag(rng, 6, p=0.5)
        cov = implied_covariance(sample_system(g, seed=draw))
        a, b, c = [0, 1], [2, 3], [4, 5]
        _, sigma_aa_bc, _ = regress(cov, a, b + c)
        _, sigma_aa_c, _ = regress_sub(cov, a, c)
        _, sigma_ab_c_full, _ = regress_sub(cov, a + b, c)
        sigma_ab_c = sigma_ab_c_full[:2, 2:]
        sigma_bb_c = sigma_ab_c_full[2:, 2:]
        want = sigma_aa_bc + sigma_ab_c @ np.linalg.solve(sigma_bb_c, sigma_ab_c.T)
        assert np.allclose(sigma_aa_c, want, atol=1e-10)


def test_dempster_recursion():
    rng = np.random.default_rng(55)
    for draw in range(20):
        g = random_dag(rng, 5, p=0.5)
        cov = implied_covariance(sample_system(g, seed=draw))
        a, b = [0, 1], [2, 3, 4]
        _, _, conc_bb_a = regress(cov, a, b)
        assert np.allclose(conc_bb_a, np.linalg.inv(cov.sigma[np.ix_(b, b)]), atol=1e-10)


def test_dual_expressions_for_the_sweep():
    rng = np.random.default_rng(56)
    for draw in range(20):
        g = random_dag(rng, 5, p=0.5)
        cov = implied_covariance(sample_system(g, seed=draw))
        a = [0, 2]
        b = [1, 3, 4]
        pi, sigma_aa_b, conc_bb_a = regress(cov, a, b)
        s = cov.sigma
        assert np.allclose(pi, s[np.ix_(a, b)] @ np.linalg.inv(s[np.ix_(b, b)]), atol=1e-10)
        assert np.allclose(
            sigma_aa_b,
            s[np.ix_(a, a)] - s[np.ix_(a, b)] @ np.linalg.solve(s[np.ix_(b, b)], s[np.ix_(b, a)]),
            atol=1e-10,
        )
        assert np.allclose(conc_bb_a, np.linalg.inv(s[np.ix_(b, b)]), atol=1e-10)


# ---------------------------------------------------------------------------
# partial correlation


def test_partial_correlation_independent_pair():
    g = dag([1, 2], [])
    cov = implied_covariance(sample_system(g, seed=3))
    assert abs(partial_correlation(cov, 0, 1, [])) < 1e-12


def test_iv_partial_correlation_23_is_lambda(iv_graph):
    sys = standardized(sample_system(iv_graph, seed=4))
    cov = implied_covariance(sys)
    assert abs(partial_correlation(cov, 1, 2, []) - sys.coefficient(2, 3)) < 1e-10


def test_partial_correlation_matches_small_matrix_inverse():
    rng = np.random.default_rng(57)
    for draw in range(30):
        g = random_dag(rng, 5, p=0.5)
        cov = implied_covariance(sample_system(g, seed=draw))
        i, k, c = 0, 1, 2
        sub = cov.sigma[np.ix_([i, k, c], [i, k, c])]
        prec = np.linalg.inv(sub)
        want = -prec[0, 1] / np.sqrt(prec[0, 0] * prec[1, 1])
        assert abs(partial_correlation(cov, i, k, [c]) - want) < 1e-10


# ---------------------------------------------------------------------------
# reduced linear systems


def test_trivial_spec_returns_the_system(iv_graph):
    sys = sample_system(iv_graph, seed=5)
    model = derive_linear_summary(sys, spec_of())
    assert np.allclose(model.h_uu, sys.a)
    assert np.allclose(model.w_uu, np.diag(sys.dvar))


def test_iv_residual_covariance_is_gamma_delta(iv_graph):
    for seed in range(10):
        sys = standardized(sample_system(iv_graph, seed=seed))
        model = derive_linear_summary(sys, spec_of(marginalising=[4]))
        gamma, delta = sys.coefficient(2, 4), sys.coefficient(1, 4)
        assert abs(model.w_uu[0, 1] - gamma * delta) < 1e-10
        assert abs(model.equation_coefficient(1, 2) - sys.coefficient(1, 2)) < 1e-12


def test_indirect_residual_covariance_and_preserved_coefficients(indirect_graph):
    for seed in range(10):
        sys = standardized(sample_system(indirect_graph, seed=seed))
        model = derive_linear_summary(sys, spec_of(marginalising=[5]))
        gamma, delta = sys.coefficient(3, 5), sys.coefficient(1, 5)
        assert abs(model.w_uu[0, 2] - gamma * delta) < 1e-10
        assert abs(model.equation_coefficient(1, 2) - sys.coefficient(1, 2)) < 1e-12
        assert abs(model.equation_coefficient(1, 4) - sys.coefficient(1, 4)) < 1e-12


def test_two_stage_equals_one_stage_fixture(two_stage_graph):
    spec_c = spec_of(conditioning=[2, 4])
    spec_m = spec_of(marginalising=[6, 7])
    for seed in range(5):
        sys = sample_system(two_stage_graph, seed=seed)
        one = derive_linear_summary(sys, spec_of(conditioning=[2, 4], marginalising=[6, 7]))
        stage1 = derive_linear_summary(sys, spec_c)
        stage2 = derive_linear_summary_from_summary(stage1, spec_m)
        _assert_models_close(stage2, one)


def _assert_models_close(got, want, atol=1e-9):
    assert got.u_nodes == want.u_nodes
    assert set(got.v_nodes) == set(want.v_nodes)
    perm = [got.v_nodes.index(n) for n in want.v_nodes]
    assert np.allclose(got.h_uu, want.h_uu, atol=atol)
    got_huv = got.h_uv[:, perm] if got.h_uv.size else got.h_uv
    assert np.allclose(got_huv, want.h_uv, atol=atol)
    assert np.allclose(got.w_uu, want.w_uu, atol=atol)
    got_svv = got.s_vv[np.ix_(perm, perm)] if perm else got.s_vv
    assert np.allclose(got_svv, want.s_vv, atol=atol)


def test_two_stage_equals_one_stage_random():
    rng = np.random.default_rng(58)
    for trial in range(200):
        g = random_dag(rng, int(rng.integers(3, 9)))
        sys = sample_system(g, seed=trial)
        spec = random_spec(rng, g.nodes)
        c1 = frozenset(x for x in spec.conditioning if rng.random() < 0.5)
        m1 = frozenset(x for x in spec.marginalising if rng.random() < 0.5)
        one = derive_linear_summary(sys, spec)
        stage1 = derive_linear_summary(sys, MarginalConditionSpec(c1, m1))
        stage2 = derive_linear_summary_from_summary(
            stage1, MarginalConditionSpec(spec.conditioning - c1, spec.marginalising - m1)
        )
        _assert_models_close(stage2, one)


def test_two_stage_real_support_equals_summary_from_summary():
    rng = np.random.default_rng(59)
    for trial in range(200):
        g = random_dag(rng, int(rng.integers(3, 10)), p=float(rng.uniform(0.2, 0.6)))
        spec = random_spec(rng, g.nodes)
        first = MarginalConditionSpec(
            frozenset(x for x in spec.conditioning if rng.random() < 0.5),
            frozenset(x for x in spec.marginalising if rng.random() < 0.5),
        )
        rest = MarginalConditionSpec(
            spec.conditioning - first.conditioning, spec.marginalising - first.marginalising
        )
        stage1 = derive_linear_summary(sample_system(g, seed=trial), first)
        got = model_edge_structure(derive_linear_summary_from_summary(stage1, rest))
        want = summary_from_summary(summary_from_parent(g, first), rest)
        assert got == want, (g.nodes, spec, first)


def test_empty_spec_leaves_model_unchanged(indirect_graph):
    sys = sample_system(indirect_graph, seed=6)
    model = derive_linear_summary(sys, spec_of(marginalising=[5]))
    again = derive_linear_summary_from_summary(model, spec_of())
    _assert_models_close(again, model, atol=1e-12)


def test_reduced_form_consistency(two_stage_graph):
    sys = sample_system(two_stage_graph, seed=7)
    spec = spec_of(conditioning=[2, 4], marginalising=[6, 7])
    model = derive_linear_summary(sys, spec)
    cov = implied_covariance(sys)
    gi = {n: i for i, n in enumerate(two_stage_graph.nodes)}
    u = [gi[n] for n in model.u_nodes]
    vC = [gi[n] for n in model.v_nodes] + [gi[n] for n in sorted(model.conditioning)]
    s = cov.sigma
    pi_joint = s[np.ix_(u, vC)] @ np.linalg.inv(s[np.ix_(vC, vC)])
    pi_v_part = pi_joint[:, : len(model.v_nodes)]
    assert np.allclose(pi_v_part, -np.linalg.inv(model.h_uu) @ model.h_uv, atol=1e-9)


def test_recovered_covariance_check_catches_a_perturbed_residual_variance():
    # The last u node has no parent in u, so its row of H_uu^{-1} is a unit
    # vector and scaling its residual variance by 1 + 1e-4 moves that
    # diagonal entry of the recovered covariance by ten times the tolerance.
    rng = np.random.default_rng(63)
    caught = 0
    while caught < 100:
        n = int(rng.integers(5, 161))
        g = _random_graph(rng, n, 3.0 / n)
        perm = [int(x) for x in rng.permutation(n) + 1]
        spec = spec_of(perm[: n // 10], perm[n // 10 : n // 10 + n // 4])
        sys = sample_system(g, caught)
        model = derive_linear_summary(sys, spec)
        if not model.u_nodes:
            continue
        w_uu = model.w_uu.copy()
        w_uu[-1, -1] *= 1 + 1e-4
        with pytest.raises(OracleError):
            _check_recovered_conditional_covariance(sys, replace(model, w_uu=w_uu))
        caught += 1


def test_conditional_covariance_target_equals_the_full_covariance_route():
    rng = np.random.default_rng(64)
    compared = 0
    for trial in range(240):
        dense = trial % 3 == 0
        n = int(rng.integers(5, 45)) if dense else int(rng.integers(20, 161))
        g = _random_graph(rng, n, 0.5 if dense else 3.0 / n)
        perm = [int(x) for x in rng.permutation(n) + 1]
        c, m = perm[: n // 10], perm[n // 10 : n // 10 + n // 4]
        split = compute_split(g, spec_of(c, m))
        if not split.u:
            continue
        sys = sample_system(g, trial)
        u = [g.index(x) for x in split.u]
        given = [g.index(x) for x in split.v] + [g.index(x) for x in sorted(c)]
        old = conditional_covariance(implied_covariance(sys), u, given)
        new = _conditional_covariance_of_u(sys, u, sorted(g.index(x) for x in m))
        # to 1e-10 of the largest entry: dense cases reach entries of 780
        assert np.abs(new - old).max() <= 1e-10 * max(1.0, np.abs(old).max()), trial
        compared += 1
    assert compared >= 200


# ---------------------------------------------------------------------------
# MAG coefficients


def test_iv_mag_coefficient(iv_graph):
    for seed in range(10):
        sys = standardized(sample_system(iv_graph, seed=seed))
        model = derive_linear_summary(sys, spec_of(marginalising=[4]))
        alpha, delta = sys.coefficient(1, 2), sys.coefficient(1, 4)
        lam, gamma = sys.coefficient(2, 3), sys.coefficient(2, 4)
        coefs = mag_coefficients(model)
        assert abs(coefs[0, 1] - (alpha + gamma * delta / (1 - lam**2))) < 1e-10


def test_indirect_mag_coefficients(indirect_graph):
    for seed in range(10):
        sys = standardized(sample_system(indirect_graph, seed=seed))
        model = derive_linear_summary(sys, spec_of(marginalising=[5]))
        lam, alpha, delta = sys.coefficient(1, 2), sys.coefficient(1, 4), sys.coefficient(1, 5)
        tau, gamma = sys.coefficient(3, 4), sys.coefficient(3, 5)
        theta = gamma * delta / (1 - tau**2)
        coefs = mag_coefficients(model)
        assert np.allclose(
            [coefs[0, 1], coefs[0, 2], coefs[0, 3]],
            [lam, theta, alpha - tau * theta],
            atol=1e-10,
        )


def test_mag_coefficients_without_dashed_edges_reproduce_the_system():
    rng = np.random.default_rng(59)
    count = 0
    trial = 0
    while count < 10 and trial < 100:
        trial += 1
        g = random_dag(rng, int(rng.integers(2, 7)))
        spec = random_spec(rng, g.nodes, max_c=0, max_m=2)
        s = summary_from_parent(g, spec)
        if np.triu(s.w_uu, 1).any() or s.v_nodes:
            continue
        count += 1
        sys = sample_system(g, seed=trial)
        model = derive_linear_summary(sys, spec)
        coefs = mag_coefficients(model)
        for i, ni in enumerate(model.u_nodes):
            for k, nk in enumerate(model.u_nodes):
                if i != k and s.h_uu[i, k]:
                    assert abs(coefs[i, k] - model.equation_coefficient(ni, nk)) < 1e-9


def test_block_sweep_identity_random():
    # inv_a(H^T W^{-1} H) equals the closed block form, on random models
    rng = np.random.default_rng(60)
    for trial in range(30):
        g = random_dag(rng, int(rng.integers(4, 8)))
        spec = random_spec(rng, g.nodes, max_c=2, max_m=2)
        sys = sample_system(g, seed=trial)
        model = derive_linear_summary(sys, spec)
        if not model.u_nodes or not model.v_nodes:
            continue
        mag_coefficients(model)  # raises if the identity fails at 1e-8


def test_block_sweep_identity_on_raw_random_matrices():
    # same identity straight from random positive-definite W and
    # block-triangular H, pinned at 1e-10
    from sumgraph.edge_matrix import partial_invert

    rng = np.random.default_rng(62)
    for _ in range(50):
        n_a = int(rng.integers(1, 4))
        n_b = int(rng.integers(1, 4))
        n = n_a + n_b
        h = rng.uniform(-1, 1, size=(n, n)) + n * np.eye(n)
        h[n_a:, :n_a] = 0.0
        root = rng.uniform(-1, 1, size=(n, n))
        w = root @ root.T + n * np.eye(n)
        a = list(range(n_a))
        b = list(range(n_a, n))
        left = partial_invert(h.T @ np.linalg.inv(w) @ h, a)
        k = partial_invert(h, a)
        q = partial_invert(w, b)
        kaa, kab, kbb = k[np.ix_(a, a)], k[np.ix_(a, b)], k[np.ix_(b, b)]
        qaa, qab, qbb = q[np.ix_(a, a)], q[np.ix_(a, b)], q[np.ix_(b, b)]
        hbb = h[np.ix_(b, b)]
        assert np.allclose(left[np.ix_(a, a)], kaa @ qaa @ kaa.T, atol=1e-10)
        assert np.allclose(left[np.ix_(a, b)], kab + kaa @ qab @ kbb, atol=1e-10)
        assert np.allclose(left[np.ix_(b, b)], hbb.T @ qbb @ hbb, atol=1e-10)


# ---------------------------------------------------------------------------
# structural-zero verification


def test_verify_edgeless_graph():
    g = dag([1, 2, 3], [])
    report = verify_structural_zeros(g, spec_of(), n_draws=5, seed=0)
    assert report.ok


def test_verify_indirect_dashed_pair_is_generic(indirect_graph):
    report = verify_structural_zeros(indirect_graph, spec_of(marginalising=[5]), n_draws=10, seed=0)
    assert report.ok  # in particular the dashed (1, 3) entry is generically nonzero


def test_verify_serialization_shape(indirect_graph):
    report = verify_structural_zeros(indirect_graph, spec_of(marginalising=[5]), n_draws=3, seed=1)
    assert report.lines() == []
    assert report.n_draws == 3


def test_path_criterion_soundness_sampled():
    import itertools

    from sumgraph.queries import IndependenceQuery, implies_independence

    rng = np.random.default_rng(61)
    for trial in range(15):
        g = random_dag(rng, int(rng.integers(3, 7)))
        spec = random_spec(rng, g.nodes, max_c=1, max_m=2)
        s = summary_from_parent(g, spec)
        covs = [implied_covariance(sample_system(g, seed=trial * 7 + d)) for d in range(3)]
        gi = {n: i for i, n in enumerate(g.nodes)}
        nodes = list(s.nodes)
        for i, k in itertools.combinations(nodes, 2):
            rest = [n for n in nodes if n not in (i, k)]
            for cset in [(), tuple(rest[:1])]:
                verdict = implies_independence(
                    s, IndependenceQuery(frozenset([i]), frozenset([k]), frozenset(cset))
                )
                if verdict.implied:
                    given = [gi[x] for x in set(cset) | spec.conditioning]
                    for cov in covs:
                        assert abs(partial_correlation(cov, gi[i], gi[k], given)) < 1e-8


@pytest.mark.parametrize("key, n", [([34, 59], 55), ([35, 59], 59)])
def test_verify_dense_case_with_large_covariances(key, n):
    # Covariance entries here grow to about 1e5, where the product of the
    # full covariance and concentration matrices misses the identity by
    # more than an absolute 1e-10 although the system is well formed.
    rng = np.random.default_rng(key)
    assert int(rng.integers(50, 61)) == n
    a = np.eye(n, dtype=np.int8)
    a[np.triu(rng.random((n, n)) < 0.5, 1)] = 1
    perm = [int(x) for x in rng.permutation(n) + 1]
    spec = spec_of(perm[:8], perm[8:24])
    report = verify_structural_zeros(ParentGraph(tuple(range(1, n + 1)), a), spec, 10, int(rng.integers(1000)))
    assert report.ok, report.lines()
