"""Moment relaxations, SOS tightenings, certificates, membership tests.

Level d bounds the total degree of every certified product.  The moment side
minimizes L(f) over pseudo-moment sequences with PSD moment and localizing
matrices and L(h * X^gamma) = 0 for equality constraints h; the SOS side is
its SDP dual, read off the same solve.  Equality relations are eliminated
up front (the pseudo-moment vector is parametrized over an affine subspace),
which keeps the remaining SDP strictly feasible even when K is finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cone import PseudoMomentSequence, SemialgebraicProblem
from .poly import MonomialBasis, Polynomial, monomials_upto
from .sdp import SdpBlock, SdpOptions, SdpProblem, extract_dual_gram, solve, svd_rank

__all__ = [
    "SosCertificate",
    "RelaxationResult",
    "MomentSdp",
    "relaxation_order",
    "build_moment_sdp",
    "solve_moment_sdp",
    "solve_moment_relaxation",
    "solve_sos_tightening",
    "qmodule_membership",
    "compute_d0",
    "run_hierarchy",
]

MEMBERSHIP_TOL = 1e-7


def relaxation_order(d: int) -> int:
    """Moment-matrix order used at level d (pseudo-moments reach degree 2*order)."""
    return (d + 1) // 2


@dataclass(frozen=True)
class SosCertificate:
    """Weighted SOS decomposition q = s + sigma_0 + sum sigma_i p_i + sum lam_j h_j.

    `grams[0]` is the Gram of sigma_0 over `gram_bases[0]`; subsequent entries
    pair with the inequality constraints in problem order (skipped constraints
    carry an empty Gram).  `multipliers` are the (sign-free) equality
    multipliers lam_j.  `residual` is what is left of q - s after subtracting
    the decomposition; its coefficient norm is the soundness measure.
    """

    s: float
    gram_bases: tuple
    grams: tuple
    multipliers: tuple
    residual: Polynomial
    residual_norm: float

    def sos_terms(self, n: int) -> list:
        """The polynomials sigma_j expanded from their Gram matrices."""
        out = []
        for expo, G in zip(self.gram_bases, self.grams):
            basis = MonomialBasis(n, 2 * max((sum(a) for a in expo), default=0))
            coeffs = _localizing_map(basis, expo, Polynomial.constant(1.0, n)).T @ np.ravel(G)
            out.append(Polynomial.from_coeffs(basis, coeffs))
        return out


@dataclass(frozen=True)
class RelaxationResult:
    d: int
    m_d_star: float
    pseudo_moments: PseudoMomentSequence | None
    f_d_star: float
    certificate: SosCertificate | None
    status: str
    retried: bool = False  # accepted solve is the loosened-tolerance (1e-7) re-solve


@dataclass(frozen=True)
class MomentSdp:
    """Assembled level-d moment SDP in eliminated coordinates y = y_p + N z."""

    d: int
    order: int
    basis: MonomialBasis           # pseudo-moment basis, degree 2*order
    problem: SdpProblem            # variables z
    y_particular: np.ndarray
    nullbasis: np.ndarray          # columns span the admissible y directions
    offset: float                  # L(f) = c.z + offset
    block_weights: tuple           # g multiplying each PSD block (g=1 for the moment block)
    block_bases: tuple             # kept monomial rows of each block


def _relation_rows(prob: SemialgebraicProblem, budget: int, basis: MonomialBasis):
    """Coefficient rows of h * X^gamma for every equality h, deg(h*X^gamma) <= budget."""
    rows = []
    owners = []  # (equality index, gamma) for multiplier recovery
    for j, h in enumerate(prob.equalities):
        gammas = monomials_upto(prob.n, budget - h.degree)
        if h.is_zero() or not gammas:
            continue
        shifted = np.array(gammas)[:, None] + np.array(list(h.terms))[None]
        block = np.zeros((len(gammas), len(basis)))
        block[np.arange(len(gammas))[:, None], basis.indices(shifted)] = list(h.terms.values())
        rows.extend(block)
        owners.extend((j, gamma) for gamma in gammas)
    return rows, owners


def _localizing_map(basis: MonomialBasis, rows, g: Polynomial) -> np.ndarray:
    """Matrix V with V @ y = vec of the localizing matrix of g over the monomial `rows`.

    Row i*s + j holds the coefficients of X^(a_i + a_j) * g over `basis`, so
    V.T @ vec(G) is the coefficient vector of sigma * g for sigma = v' G v.
    """
    E = np.array(rows, dtype=np.int64).reshape(len(rows), basis.n)
    pair_exps = (E[:, None] + E[None, :]).reshape(-1, basis.n)
    V = np.zeros((len(pair_exps), len(basis)))
    r = np.arange(len(pair_exps))
    for gamma, c in g.terms.items():
        V[r, basis.indices(pair_exps + gamma)] += c
    return V


def _eliminate(E: np.ndarray, h: np.ndarray):
    """Solutions of E x = h as x_p + N z: returns (x_p, N, ||E x_p - h||).

    x_p is the least-squares solution and the orthonormal columns of N span
    the null space of E; a residual above round-off means E x = h has no
    solution.
    """
    x_p, *_ = np.linalg.lstsq(E, h, rcond=None)
    _, vt, rank = svd_rank(E, rtol=1e-12)
    return x_p, vt[rank:].T, float(np.linalg.norm(E @ x_p - h))


def _dedup_rows(F0: np.ndarray, FN: np.ndarray):
    """Indices of structurally distinct rows of an affine matrix F0 + FN.z.

    Equality relations can make two monomial rows of a moment/localizing
    block identical as functions of z (e.g. the rows of x and x^2 on {0,1});
    keeping one of each restores strict feasibility.
    """
    s = F0.shape[0]
    sigs = np.concatenate([F0, FN.reshape(s, -1)], axis=1)
    scale = 1.0 + float(np.max(np.abs(sigs)))
    keep = []
    for i in range(s):
        dup = any(np.max(np.abs(sigs[i] - sigs[j])) <= 1e-12 * scale for j in keep)
        if not dup:
            keep.append(i)
    return keep


def build_moment_sdp(prob: SemialgebraicProblem, d: int) -> MomentSdp:
    """Assemble the level-d moment relaxation as an explicit SDP over z."""
    deg_needed = max(prob.objective.degree, prob.max_constraint_degree)
    if d < deg_needed:
        raise ValueError(f"level {d} below problem degree {deg_needed}")
    n = prob.n
    k = relaxation_order(d)
    budget = 2 * k
    basis = MonomialBasis(n, budget)
    m = len(basis)

    # linear constraints on y: normalization + equality relations
    e0 = np.zeros(m)
    e0[0] = 1.0
    rel_rows, _ = _relation_rows(prob, budget, basis)
    E = np.vstack([e0] + rel_rows) if rel_rows else e0.reshape(1, -1)
    rhs = np.zeros(E.shape[0])
    rhs[0] = 1.0
    y_p, N, residual = _eliminate(E, rhs)
    if residual > 1e-8:
        raise ValueError("equality constraints are inconsistent with L(1) = 1")
    nv = N.shape[1]

    weights = [Polynomial.constant(1.0, n)] + list(prob.constraints)
    blocks, block_weights, block_bases = [], [], []
    for g in weights:
        kg = (budget - g.degree) // 2
        if kg < 0:
            continue
        rows = MonomialBasis(n, kg)
        s = len(rows)
        V = _localizing_map(basis, rows.exponents, g)
        F0 = (V @ y_p).reshape(s, s)
        FN = (V @ N).reshape(s, s, nv)
        keep = _dedup_rows(F0, FN)
        F0 = F0[np.ix_(keep, keep)]
        FN = FN[np.ix_(keep, keep)]
        mats = np.transpose(FN, (2, 0, 1))
        blocks.append(SdpBlock(F0=F0, var_idx=np.arange(nv), mats=mats))
        block_weights.append(g)
        block_bases.append(tuple(rows[i] for i in keep))

    f_vec = prob.objective.coeff_vector(basis)
    c = N.T @ f_vec
    offset = float(f_vec @ y_p)
    sdp = SdpProblem(n_vars=nv, c=c, blocks=blocks)
    return MomentSdp(
        d=d,
        order=k,
        basis=basis,
        problem=sdp,
        y_particular=y_p,
        nullbasis=N,
        offset=offset,
        block_weights=tuple(block_weights),
        block_bases=tuple(block_bases),
    )


def _recover_multipliers(prob, residual_vec, basis, budget):
    """Least-squares equality multipliers soaking up the certificate residual."""
    rel_rows, owners = _relation_rows(prob, budget, basis)
    multipliers = [Polynomial.zero(prob.n) for _ in prob.equalities]
    if not rel_rows:
        return tuple(multipliers), residual_vec
    R = np.array(rel_rows).T  # columns are h*X^gamma coefficient vectors
    lam, *_ = np.linalg.lstsq(R, residual_vec, rcond=None)
    for (j, gamma), lv in zip(owners, lam):
        mono = Polynomial(prob.n, {gamma: float(lv)})
        multipliers[j] = multipliers[j] + mono
    return tuple(multipliers), residual_vec - R @ lam


def _certificate(prob, q, s, basis, budget, gram_bases, weights, grams) -> SosCertificate:
    """Certificate of q - s = sum_j sigma_j g_j + sum_k lam_k h_k over `basis`.

    The residual is what remains after the least-squares equality multipliers.
    """
    res_vec = q.coeff_vector(basis)
    res_vec[0] -= s
    for rows, g, G in zip(gram_bases, weights, grams):
        res_vec -= _localizing_map(basis, rows, g).T @ G.ravel()
    multipliers, res_vec = _recover_multipliers(prob, res_vec, basis, budget)
    return SosCertificate(
        s=s,
        gram_bases=tuple(gram_bases),
        grams=tuple(grams),
        multipliers=multipliers,
        residual=Polynomial.from_coeffs(basis, res_vec),
        residual_norm=float(np.linalg.norm(res_vec)),
    )


def solve_moment_relaxation(
    prob: SemialgebraicProblem, d: int, want_certificate: bool = True
) -> RelaxationResult:
    """Level-d moment relaxation: returns m_d*, pseudo-moments and the dual bound."""
    return solve_moment_sdp(prob, build_moment_sdp(prob, d), want_certificate)


def solve_moment_sdp(
    prob: SemialgebraicProblem, ms: MomentSdp, want_certificate: bool = True
) -> RelaxationResult:
    """Solve a moment SDP assembled by `build_moment_sdp(prob, d)`.

    A solve that ends non-Optimal is repeated once at gap and feasibility
    tolerances of 1e-7; `retried` on the result says whether that happened.
    """
    if ms.problem.n_vars == 0:
        # equalities pin every pseudo-moment; nothing to optimize
        y = PseudoMomentSequence(prob.n, 2 * ms.order, ms.y_particular, ms.basis)
        val = ms.offset
        return RelaxationResult(ms.d, val, y, val, None, "Optimal")
    sol = solve(ms.problem)
    retried = sol.status != "Optimal"
    if retried:
        # degenerate problems can stall just above the default tolerances;
        # a slightly looser target still leaves orders of magnitude of margin
        # over every downstream tolerance
        sol = solve(ms.problem, SdpOptions(gap_tol=1e-7, feas_tol=1e-7))
    if sol.status != "Optimal":
        raise RuntimeError(f"level {ms.d}: moment SDP ended with status {sol.status}")
    y_vec = ms.y_particular + ms.nullbasis @ sol.x
    y = PseudoMomentSequence(prob.n, 2 * ms.order, y_vec, ms.basis)
    m_d = sol.value + ms.offset
    f_d = sol.dual_value + ms.offset
    cert = None
    if want_certificate:
        grams = [extract_dual_gram(sol, j) for j in range(len(ms.block_bases))]
        cert = _certificate(prob, prob.objective, f_d, ms.basis, 2 * ms.order,
                            ms.block_bases, ms.block_weights, grams)
    return RelaxationResult(ms.d, m_d, y, f_d, cert, sol.status, retried)


def solve_sos_tightening(prob: SemialgebraicProblem, d: int):
    """SOS lower bound f_d* with certificate, read off the moment SDP's dual."""
    res = solve_moment_relaxation(prob, d, want_certificate=True)
    return res.f_d_star, res.certificate


def _sym_from_triu(vals: np.ndarray, sdim: int) -> np.ndarray:
    """Symmetric sdim x sdim matrices from upper-triangular entries on the last axis."""
    iu, ju = np.triu_indices(sdim)
    G = np.zeros(vals.shape[:-1] + (sdim, sdim))
    G[..., iu, ju] = vals
    G[..., ju, iu] = vals
    return G


def phase1_gram(basis: MonomialBasis, blocks, target, project=None,
                what: str = "membership SDP"):
    """Phase-I Gram SDP: is `target` = sum_j (v_j' G_j v_j) g_j with every G_j PSD?

    `blocks` pairs monomial rows v_j (exponent tuples) with weights g_j;
    `target` is a coefficient vector over `basis`.  Minimizes t subject to
    G_j + t*I PSD and exact coefficient matching (left-multiplied by
    `project` when given).  The matching equations are eliminated before the
    solve: the Gram entries range over x_p + N z and the SDP is over (z, t).
    Returns the Grams, shifted by t* and eigenvalue-floored, or None when the
    matching is inconsistent, the SDP is infeasible or t* > MEMBERSHIP_TOL.
    Any other non-Optimal status raises RuntimeError naming `what`.
    """
    # coefficient matching over the upper-triangular Gram entries
    cols, sizes = [], [len(rows) for rows, _ in blocks]
    for (rows, g), sdim in zip(blocks, sizes):
        iu, ju = np.triu_indices(sdim)
        V = _localizing_map(basis, rows, g)
        cols.append((np.where(iu == ju, 1.0, 2.0)[:, None] * V[iu * sdim + ju]).T)
    A = np.hstack(cols)
    if project is None:
        Aeq, beq = A, target
    else:
        Aeq, beq = project.T @ A, project.T @ target
    x_p, N, residual = _eliminate(Aeq, beq)
    if residual > 1e-9 * (1.0 + np.linalg.norm(beq)):
        return None
    nz = N.shape[1]
    t_idx = nz

    sdp_blocks, lo = [], 0
    for sdim in sizes:
        hi = lo + sdim * (sdim + 1) // 2
        mats = np.concatenate([_sym_from_triu(N[lo:hi].T, sdim), np.eye(sdim)[None]])
        sdp_blocks.append(SdpBlock(F0=_sym_from_triu(x_p[lo:hi], sdim),
                                   var_idx=np.arange(nz + 1), mats=mats))
        lo = hi
    # safeguard keeping t bounded below even on inconsistent numerics
    sdp_blocks.append(
        SdpBlock(F0=np.array([[1e6]]), var_idx=np.array([t_idx]), mats=np.array([[[1.0]]]))
    )
    c = np.zeros(nz + 1)
    c[t_idx] = 1.0
    sol = solve(SdpProblem(n_vars=nz + 1, c=c, blocks=sdp_blocks))
    if sol.status == "Infeasible":
        return None
    if sol.status != "Optimal":
        raise RuntimeError(f"{what} ended with status {sol.status}")
    t_star = float(sol.x[t_idx])
    if t_star > MEMBERSHIP_TOL:
        return None

    entries = x_p + N @ sol.x[:nz]
    grams, lo = [], 0
    for sdim in sizes:
        hi = lo + sdim * (sdim + 1) // 2
        G = _sym_from_triu(entries[lo:hi], sdim) + max(t_star, 0.0) * np.eye(sdim)
        w, U = np.linalg.eigh(G)
        grams.append((U * np.clip(w, 0.0, None)) @ U.T)
        lo = hi
    return grams


def qmodule_membership(q: Polynomial, prob: SemialgebraicProblem, d: int):
    """Is q = sigma_0 + sum sigma_i p_i + sum lam_j h_j with every product degree <= d?

    Decided by a phase-I SDP: minimize t subject to G_j + t*I PSD and exact
    coefficient matching; membership iff the optimum is <= ~1e-7.  Equality
    multipliers are eliminated from the matching equations first (projection
    onto the complement of their column span) so every remaining variable
    appears in a PSD block.
    """
    if q.n != prob.n:
        raise ValueError("dimension mismatch")
    if d < q.degree:
        return False, None
    n = prob.n
    basis = MonomialBasis(n, d)
    weights = [g for g in [Polynomial.constant(1.0, n)] + list(prob.constraints)
               if (d - g.degree) // 2 >= 0]
    gram_bases = [tuple(monomials_upto(n, (d - g.degree) // 2)) for g in weights]

    project = None
    rel_rows, _ = _relation_rows(prob, d, basis)
    if rel_rows:
        u, _, rank = svd_rank(np.array(rel_rows).T)
        project = u[:, rank:]  # orthonormal complement of the multiplier span
    grams = phase1_gram(basis, list(zip(gram_bases, weights)), q.coeff_vector(basis), project)
    if grams is None:
        return False, None
    return True, _certificate(prob, q, 0.0, basis, d, gram_bases, weights, grams)


def compute_d0(prob: SemialgebraicProblem, d_max: int):
    """Smallest k <= d_max with 1 - p in the level-k module for every constraint p."""
    targets = [Polynomial.constant(1.0, prob.n) - p for p in prob.constraint_pairs()]
    for k in range(d_max + 1):
        ok = True
        for q in targets:
            member, _ = qmodule_membership(q, prob, k)
            if not member:
                ok = False
                break
        if ok:
            return k
    return None


def run_hierarchy(prob: SemialgebraicProblem, d_min: int, d_max: int):
    """Solve levels d_min..d_max; failures are recorded, monotonicity checked."""
    results = []
    for d in range(d_min, d_max + 1):
        try:
            results.append(solve_moment_relaxation(prob, d))
        except Exception as exc:  # noqa: BLE001 - per-level isolation is the contract
            results.append(
                RelaxationResult(d, math.nan, None, math.nan, None, f"Failed: {exc}")
            )
    solved = [r.m_d_star for r in results if r.status == "Optimal"]
    for lo, hi in zip(solved, solved[1:]):
        if not hi >= lo - 1e-6:
            raise RuntimeError(f"lower bounds decreased: {lo} -> {hi}")
    return results
