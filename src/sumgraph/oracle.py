"""Gaussian verification layer for the structural derivations.

Every structural statement in this library has a numeric shadow: a
recursive linear system A Y = eps with diagonal residual covariance
implies a joint covariance, and reducing the system by conditioning and
marginalising produces parameter matrices whose zero pattern must
reproduce the derived edge matrices.  This module samples such systems,
carries out the reductions with partial inversion, and exposes the
comparison utilities the tests and the ``verify`` command are built on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .edge_matrix import indicator, partial_invert
from .graph_model import Mag, NodeId, ParentGraph, SummaryGraph
from .transform import (
    _REAL,
    MarginalConditionSpec,
    SplitRecord,
    _reduce_parent,
    _reduce_summary,
    compute_split,
    mag_from_summary,
    summary_from_parent,
)


class OracleError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class TriangularSystem:
    """A recursive linear system on a parent graph.  Construction raises
    ``OracleError`` unless every coefficient and variance is finite, the
    variances are positive and the nonzero coefficients sit exactly on the
    graph's edges."""

    graph: ParentGraph
    a: np.ndarray       # unit upper-triangular coefficient matrix of A Y = eps
    dvar: np.ndarray    # positive residual variances (diagonal of Delta)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        d = np.asarray(self.dvar, dtype=float)
        n = self.graph.dim
        if a.shape != (n, n) or d.shape != (n,):
            raise OracleError("system dimensions do not match the graph")
        if not (np.isfinite(a).all() and np.isfinite(d).all()):
            raise OracleError("coefficients and residual variances must be finite")
        if not (d > 0).all():
            raise OracleError("residual variances must be positive")
        if not np.array_equal(indicator(a) - np.eye(n, dtype=np.int8), self.graph.amat - np.eye(n, dtype=np.int8)):
            raise OracleError("nonzero coefficients must sit exactly on graph edges")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "dvar", d)

    @property
    def delta(self) -> np.ndarray:
        return np.diag(self.dvar)

    def coefficient(self, i: NodeId, k: NodeId) -> float:
        """Equation coefficient of Y_k in the equation for Y_i (sign-corrected)."""
        return -float(self.a[self.graph.index(i), self.graph.index(k)])


@dataclass(frozen=True, eq=False)
class CovariancePair:
    sigma: np.ndarray
    concentration: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sigma, dtype=float)
        c = np.asarray(self.concentration, dtype=float)
        if not np.allclose(s @ c, np.eye(s.shape[0]), atol=1e-10):
            raise OracleError("covariance and concentration are not inverse to 1e-10")
        object.__setattr__(self, "sigma", s)
        object.__setattr__(self, "concentration", c)


@dataclass(frozen=True, eq=False)
class LinearSummaryModel:
    """Block-triangular equations of the reduced system, orthogonal in (u, v):
    H_uu, H_uv with residual covariance W_uu for the u part, and the
    concentration matrix of Y_v given C for the v part."""

    u_nodes: tuple[NodeId, ...]
    v_nodes: tuple[NodeId, ...]
    h_uu: np.ndarray
    h_uv: np.ndarray
    w_uu: np.ndarray
    s_vv: np.ndarray  # concentration matrix of Y_v given Y_C
    conditioning: frozenset = frozenset()
    marginalising: frozenset = frozenset()

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        return self.u_nodes + self.v_nodes

    def equation_coefficient(self, i: NodeId, k: NodeId) -> float:
        ui = self.u_nodes.index(i)
        if k in self.u_nodes:
            return -float(self.h_uu[ui, self.u_nodes.index(k)])
        return -float(self.h_uv[ui, self.v_nodes.index(k)])


def sample_system(
    g: ParentGraph,
    seed: int,
    coef_range: tuple[float, float] = (0.3, 0.9),
    var_range: tuple[float, float] = (0.5, 1.5),
) -> TriangularSystem:
    """Draw coefficients with random sign on exactly the graph edges and
    residual variances in the given range; deterministic per seed."""
    rng = np.random.default_rng(seed)
    n = g.dim
    a = np.eye(n)
    rows, cols = np.nonzero(np.triu(g.amat, 1))  # row-major: the seeded draw order
    # One pass over the stream of the per-arrow loop `rng.uniform(lo, hi)`,
    # then `rng.integers(2)` for the sign: the uniform takes a fresh 64-bit
    # word w and gives lo + (hi - lo) (w >> 11) 2^-53; the sign is the top
    # bit of a 32-bit half, and PCG64 hands out the low half of a fresh word
    # first and keeps the high half for the next arrow.  So arrows 2j and
    # 2j + 1 read words 3j and 3j + 2 for their magnitudes and bits 31 and 63
    # of word 3j + 1 for their signs.  test_sampling_keeps_the_double_loop_stream
    # pins this layout.
    raw = rng.bit_generator.random_raw(rows.size + (rows.size + 1) // 2)
    pair, odd = np.divmod(np.arange(rows.size), 2)
    lo, hi = coef_range
    magnitude = lo + (hi - lo) * ((raw[3 * pair + 2 * odd] >> np.uint64(11)).astype(float) * 2.0**-53)
    sign_bit = (raw[3 * pair + 1] >> (np.uint64(31) + np.uint64(32) * odd.astype(np.uint64))) & np.uint64(1)
    a[rows, cols] = np.where(sign_bit == 1, -magnitude, magnitude)  # (-1.0, 1.0)[bit] times -magnitude
    dvar = rng.uniform(*var_range, size=n)
    return TriangularSystem(graph=g, a=a, dvar=dvar)


def system_from_coefficients(
    g: ParentGraph,
    coefficients: dict[tuple[NodeId, NodeId], float],
    variances: Optional[dict[NodeId, float]] = None,
) -> TriangularSystem:
    """Build a system from explicit edge coefficients; every edge needs one."""
    n = g.dim
    a = np.eye(n)
    seen = set()
    for (i, k), coef in coefficients.items():
        ii, kk = g.index(i), g.index(k)
        if not g.amat[ii, kk] or ii == kk:
            raise OracleError(f"coefficient given for absent edge {i} <- {k}")
        if coef == 0:
            raise OracleError(f"edge {i} <- {k} must carry a nonzero coefficient")
        a[ii, kk] = -coef
        seen.add((ii, kk))
    for i in range(n):
        for k in range(i + 1, n):
            if g.amat[i, k] and (i, k) not in seen:
                raise OracleError(f"edge {g.nodes[i]} <- {g.nodes[k]} lacks a coefficient")
    dvar = np.ones(n)
    for node, value in (variances or {}).items():
        dvar[g.index(node)] = value
    return TriangularSystem(graph=g, a=a, dvar=dvar)


def standardized(sys: TriangularSystem) -> TriangularSystem:
    """Rescale the system so every variable has unit marginal variance."""
    sigma = implied_covariance(sys).sigma
    s = np.sqrt(np.diag(sigma))
    a = sys.a * s[np.newaxis, :] / s[:, np.newaxis]
    dvar = sys.dvar / s**2
    return TriangularSystem(graph=sys.graph, a=a, dvar=dvar)


def implied_covariance(sys: TriangularSystem) -> CovariancePair:
    """Sigma = A^{-1} Delta A^{-T} and its inverse A^T Delta^{-1} A."""
    a = sys.a
    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:  # unit-triangular, so never expected
        raise OracleError("coefficient matrix is numerically singular") from None
    sigma = (a_inv * sys.dvar) @ a_inv.T
    # an F-ordered factor would change BLAS's summation order and the last digits
    conc = np.multiply(a.T, 1.0 / sys.dvar, order="C") @ a
    sigma = 0.5 * (sigma + sigma.T)
    conc = 0.5 * (conc + conc.T)
    return CovariancePair(sigma=sigma, concentration=conc)


def regress(cov: CovariancePair, a: Iterable[int], b: Iterable[int]):
    """Partial inversion of the concentration matrix on ``a``: the regression
    coefficients Pi_{a|b}, the conditional covariance Sigma_{aa|b}, and the
    marginal concentration Sigma^{bb.a}."""
    a = sorted(a)
    b = sorted(b)
    n = cov.sigma.shape[0]
    if sorted(a + b) != list(range(n)):
        raise OracleError("a and b must partition the variable set")
    swept = partial_invert(cov.concentration, a)
    ai, bi = list(a), list(b)
    pi = swept[np.ix_(ai, bi)]
    sigma_aa_b = swept[np.ix_(ai, ai)]
    conc_bb_a = swept[np.ix_(bi, bi)]
    return pi, sigma_aa_b, conc_bb_a


def conditional_covariance(cov: CovariancePair, keep: Iterable[int], given: Iterable[int]) -> np.ndarray:
    keep = list(keep)
    given = list(given)
    s = cov.sigma
    if not given:
        return s[np.ix_(keep, keep)].copy()
    skk = s[np.ix_(keep, keep)]
    skg = s[np.ix_(keep, given)]
    sgg = s[np.ix_(given, given)]
    return skk - skg @ np.linalg.solve(sgg, skg.T)


def partial_correlation(cov: CovariancePair, i: int, k: int, given: Iterable[int]) -> float:
    given = list(given)
    if i in given or k in given or i == k:
        raise OracleError("endpoints must be distinct and outside the conditioning set")
    c = conditional_covariance(cov, [i, k], given)
    return float(c[0, 1] / np.sqrt(c[0, 0] * c[1, 1]))


# ---------------------------------------------------------------------------
# reduced linear systems


def derive_linear_summary(sys: TriangularSystem, spec: MarginalConditionSpec) -> LinearSummaryModel:
    """Reduce A Y = eps by conditioning on C and marginalising over M: the
    block derivation of ``summary_from_parent`` run with partial inversion."""
    return _derive_linear_summary(sys, spec, compute_split(sys.graph, spec))


def _derive_linear_summary(
    sys: TriangularSystem, spec: MarginalConditionSpec, split: SplitRecord
) -> LinearSummaryModel:
    blocks = _reduce_parent(sys.graph, spec, split, _REAL, sys.a, sys.dvar)
    model = LinearSummaryModel(split.u, split.v, *blocks, spec.conditioning, spec.marginalising)
    _check_recovered_conditional_covariance(sys, model)
    return model


def _conditional_covariance_of_u(sys: TriangularSystem, u: list[int], m: list[int]) -> np.ndarray:
    """Covariance of Y_u given all variables outside u and m, with m
    marginalised: the concentration of a margin is the Schur complement of
    the joint concentration Omega = A^T Delta^{-1} A, so this is
    (Omega_uu - Omega_um Omega_mm^{-1} Omega_mu)^{-1}, and only the u and m
    columns of A enter."""
    cols = sys.a[:, u + m]
    # C-ordered like the concentration factor of ``implied_covariance``
    omega = np.multiply(cols.T, 1.0 / sys.dvar, order="C") @ cols
    n_u = len(u)
    conc_uu = omega[:n_u, :n_u]
    if m:
        conc_uu = conc_uu - omega[:n_u, n_u:] @ np.linalg.solve(omega[n_u:, n_u:], omega[n_u:, :n_u])
    return np.linalg.inv(conc_uu)


def _check_recovered_conditional_covariance(sys: TriangularSystem, model: LinearSummaryModel):
    """H_uu^{-1} W_uu H_uu^{-T} must be the covariance of Y_u given Y_v, Y_C."""
    if not model.u_nodes:
        return
    idx = {n: i for i, n in enumerate(sys.graph.nodes)}
    u = [idx[n] for n in model.u_nodes]
    m = sorted(idx[n] for n in model.marginalising)
    target = _conditional_covariance_of_u(sys, u, m)
    h_inv = np.linalg.inv(model.h_uu)
    got = h_inv @ model.w_uu @ h_inv.T
    if not np.allclose(got, target, atol=1e-9):
        raise OracleError("reduced system fails to reproduce the conditional covariance of Y_u")


def derive_linear_summary_from_summary(
    model: LinearSummaryModel, spec: MarginalConditionSpec
) -> LinearSummaryModel:
    """Reduce an already-reduced system further, staying inside the model
    class: the block derivation of ``summary_from_summary`` run with
    partial inversion."""
    (u_new, v_new), blocks = _reduce_summary(model, spec, _REAL)
    return LinearSummaryModel(
        u_new,
        v_new,
        *blocks,
        conditioning=model.conditioning | spec.conditioning,
        marginalising=model.marginalising | spec.marginalising,
    )


def implied_model_covariance(model: LinearSummaryModel) -> np.ndarray:
    """Joint covariance of (Y_u, Y_v) given Y_C implied by the model."""
    n_u, n_v = len(model.u_nodes), len(model.v_nodes)
    out = np.zeros((n_u + n_v,) * 2)
    if n_v:
        sigma_vv = np.linalg.inv(model.s_vv)
    else:
        sigma_vv = np.zeros((0, 0))
    if n_u:
        h_inv = np.linalg.inv(model.h_uu)
        resid = h_inv @ model.w_uu @ h_inv.T
        if n_v:
            pi = -h_inv @ model.h_uv  # reduced form coefficients of Y_v
            out[:n_u, :n_u] = pi @ sigma_vv @ pi.T + resid
            out[:n_u, n_u:] = pi @ sigma_vv
            out[n_u:, :n_u] = out[:n_u, n_u:].T
        else:
            out[:n_u, :n_u] = resid
    out[n_u:, n_u:] = sigma_vv
    return 0.5 * (out + out.T)


def _assert_block_sweep_identity(model: LinearSummaryModel, atol: float = 1e-8):
    """Check inv_u(H^T W^{-1} H) against its closed block form built from
    K = inv_u H and Q = inv_v W."""
    n_u, n_v = len(model.u_nodes), len(model.v_nodes)
    if n_u == 0 or n_v == 0:
        return
    h = np.zeros((n_u + n_v,) * 2)
    h[:n_u, :n_u] = model.h_uu
    h[:n_u, n_u:] = model.h_uv
    h[n_u:, n_u:] = model.s_vv
    w = np.zeros_like(h)
    w[:n_u, :n_u] = model.w_uu
    w[n_u:, n_u:] = model.s_vv
    u_idx = list(range(n_u))
    v_idx = list(range(n_u, n_u + n_v))
    left = partial_invert(h.T @ np.linalg.inv(w) @ h, u_idx)
    k = partial_invert(h, u_idx)
    q = partial_invert(w, v_idx)
    kaa = k[np.ix_(u_idx, u_idx)]
    kab = k[np.ix_(u_idx, v_idx)]
    kbb = k[np.ix_(v_idx, v_idx)]
    qaa = q[np.ix_(u_idx, u_idx)]
    qab = q[np.ix_(u_idx, v_idx)]
    qbb = q[np.ix_(v_idx, v_idx)]
    hbb = h[np.ix_(v_idx, v_idx)]
    ok = (
        np.allclose(left[np.ix_(u_idx, u_idx)], kaa @ qaa @ kaa.T, atol=atol)
        and np.allclose(left[np.ix_(u_idx, v_idx)], kab + kaa @ qab @ kbb, atol=atol)
        and np.allclose(left[np.ix_(v_idx, v_idx)], hbb.T @ qbb @ hbb, atol=atol)
    )
    if not ok:
        raise OracleError("block sweep identity violated for this model")


def model_edge_structure(model: LinearSummaryModel, tol: float = 1e-9) -> SummaryGraph:
    """Read the summary-graph structure off the model's zero pattern."""
    return SummaryGraph(
        u_nodes=model.u_nodes,
        v_nodes=model.v_nodes,
        h_uu=indicator(model.h_uu, tol),
        h_uv=indicator(model.h_uv, tol),
        w_uu=indicator(model.w_uu, tol),
        s_vv=indicator(model.s_vv, tol),
    )


def mag_coefficients(model: LinearSummaryModel, mag: Optional[Mag] = None) -> np.ndarray:
    """Population least-squares coefficients of every u node on its MAG
    parents, from the implied joint covariance given C.  Entry (i, k) of the
    returned matrix is the coefficient of Y_k in the MAG equation of Y_i,
    indexed in (u, v) node order."""
    _assert_block_sweep_identity(model)
    if mag is None:
        mag = mag_from_summary(model_edge_structure(model))
    if tuple(mag.u_nodes) != tuple(model.u_nodes) or tuple(mag.v_nodes) != tuple(model.v_nodes):
        raise OracleError("MAG and model node sets differ")
    sigma = implied_model_covariance(model)
    nodes = list(model.nodes)
    n_u = len(model.u_nodes)
    coefs = np.zeros((len(nodes), len(nodes)))
    for i in range(n_u):
        parents = [n_u + kk for kk in np.flatnonzero(mag.h_uv[i])]
        parents += [kk for kk in np.flatnonzero(mag.h_uu[i]) if kk != i]
        if not parents:
            continue
        parents = sorted(parents)
        sub = sigma[np.ix_(parents, parents)]
        rhs = sigma[np.ix_(parents, [i])]
        beta = np.linalg.solve(sub, rhs).ravel()
        for pos, kk in enumerate(parents):
            coefs[i, kk] = beta[pos]
    return coefs


# ---------------------------------------------------------------------------
# structural-zero verification


@dataclass(frozen=True)
class Violation:
    seed: Optional[int]
    matrix: str
    cell: tuple[NodeId, NodeId]
    value: float
    kind: str  # "nonzero_at_structural_zero" | "never_generic"

    def line(self) -> str:
        seed = "-" if self.seed is None else str(self.seed)
        return f"{seed}\t{self.matrix}\t{self.cell[0]},{self.cell[1]}\t{self.value:.3e}\t{self.kind}"


@dataclass(frozen=True)
class VerificationReport:
    n_draws: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        return [v.line() for v in self.violations]


def verify_structural_zeros(
    g: ParentGraph,
    spec: MarginalConditionSpec,
    n_draws: int,
    seed: int = 0,
    tol_zero: float = 1e-9,
    tol_generic: float = 1e-6,
) -> VerificationReport:
    """Check that across random draws the reduced parameter matrices vanish
    exactly on the zeros of the derived edge matrices, and that every
    edge-matrix one is generically nonzero in at least one draw."""
    if n_draws < 1:
        raise OracleError(f"the number of draws must be at least 1, got {n_draws}")
    if seed < 0:
        raise OracleError(f"the seed must be at least 0, got {seed}")
    summary = summary_from_parent(g, spec)
    split = summary.provenance.split
    components = ("h_uu", "h_uv", "w_uu", "s_vv")
    node_sets = {
        "h_uu": (summary.u_nodes, summary.u_nodes),
        "h_uv": (summary.u_nodes, summary.v_nodes),
        "w_uu": (summary.u_nodes, summary.u_nodes),
        "s_vv": (summary.v_nodes, summary.v_nodes),
    }
    violations: list[Violation] = []
    max_seen = {name: np.zeros_like(getattr(summary, name), dtype=float) for name in components}
    for draw in range(n_draws):
        draw_seed = seed + draw
        sys = sample_system(g, draw_seed)
        model = _derive_linear_summary(sys, spec, split)
        for name in components:
            edge = getattr(summary, name)
            param = np.abs(getattr(model, name))
            if name != "h_uv":
                np.fill_diagonal(param, 1.0)  # diagonals are conventional ones
            max_seen[name] = np.maximum(max_seen[name], param)
            bad = (edge == 0) & (param >= tol_zero)
            rows, cols = node_sets[name]
            for i, k in np.argwhere(bad):
                violations.append(
                    Violation(
                        seed=draw_seed,
                        matrix=name,
                        cell=(rows[i], cols[k]),
                        value=float(param[i, k]),
                        kind="nonzero_at_structural_zero",
                    )
                )
    for name in components:
        edge = getattr(summary, name)
        rows, cols = node_sets[name]
        never = (edge == 1) & (max_seen[name] <= tol_generic)
        for i, k in np.argwhere(never):
            violations.append(
                Violation(
                    seed=None,
                    matrix=name,
                    cell=(rows[i], cols[k]),
                    value=float(max_seen[name][i, k]),
                    kind="never_generic",
                )
            )
    return VerificationReport(n_draws=n_draws, violations=tuple(violations))
