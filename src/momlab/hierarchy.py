"""Moment relaxations, SOS tightenings, certificates, membership tests.

Level d bounds the total degree of every certified product.  The moment side
minimizes L(f) over pseudo-moment sequences with PSD moment and localizing
matrices and L(h * X^gamma) = 0 for equality constraints h; the SOS side is
its SDP dual, read off the same solve.  Equality relations are eliminated
up front (the pseudo-moment vector is parametrized over an affine subspace),
and each PSD block keeps only the rows that no earlier rows span there
(`_independent_rows`), which keeps the SDP strictly feasible even when K is
finite or a sphere.  A flat solution is rounded to the moments of its
polished atoms (`solve_moment_sdp`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cone import PseudoMomentSequence, SemialgebraicProblem
from .extraction import AtomicMeasure, check_flatness, extract_atoms, polish_atoms
from .poly import MonomialBasis, Polynomial, r_dim
from .sdp import SdpBlock, SdpProblem, affine_solutions, extract_dual_gram, psd_floor, solve

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
            coeffs = basis.localizing_map(expo, Polynomial.constant(1.0, n)).adjoint(G)
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
    retried: bool = False  # accepted iterate met only the loosened 1e-7 tolerance (sdp.LOOSE_TOL)
    iterations: int = 0  # interior-point iterations of the solve; 0 when no SDP ran
    rounded: AtomicMeasure | None = None  # polished atoms whose moments are pseudo_moments


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
    block_bases: tuple             # monomial rows of each block left by the row reduction


class MomentSdpError(RuntimeError):
    """A moment SDP that ended non-Optimal; the message names the level and how it ended."""

    def __init__(self, d: int, how: str):
        super().__init__(f"level {d}: moment SDP ended with {how}")
        self.how = how


def _relation_rows(prob: SemialgebraicProblem, basis: MonomialBasis):
    """Coefficient rows of h * X^gamma for every equality h, deg(h*X^gamma) <= basis.d."""
    rows = []
    owners = []  # (equality index, gamma) for multiplier recovery
    for j, h in enumerate(prob.equalities):
        if h.is_zero() or h.degree > basis.d:
            continue
        m = r_dim(prob.n, basis.d - h.degree)  # the multipliers X^gamma lead the basis
        shifted = basis.exps[:m, None] + np.array(list(h.terms))[None]
        block = np.zeros((m, len(basis)))
        block[np.arange(m)[:, None], basis.indices(shifted)] = list(h.terms.values())
        rows.extend(block)
        owners.extend((j, gamma) for gamma in basis.exponents[:m])
    return rows, owners


def _independent_rows(F0: np.ndarray, FN: np.ndarray):
    """Indices of the rows of an affine matrix F0 + FN.z that no earlier rows span.

    F(z)v = 0 for every z iff v'[F0 | FN] = 0, so each dropped row is a fixed
    combination of kept rows and F is PSD iff its kept block is.  Equalities make
    such rows (x = x^2 on {0,1}; row(1) = row(x1^2) + row(x2^2) on the circle).
    Row i is kept when |R_ii| of one unpivoted QR of the signatures [F0 | FN]
    exceeds 1e-12 (1 + max|signature|); row 0 is kept when no row is.
    """
    s = F0.shape[0]
    sigs = np.concatenate([F0, FN.reshape(s, -1)], axis=1)
    tol = 1e-12 * (1.0 + float(np.max(np.abs(sigs))))
    r = np.abs(np.diag(np.linalg.qr(sigs.T, mode="r")))
    return np.flatnonzero(r > tol).tolist() or [0]


def _check_level(prob: SemialgebraicProblem, d: int) -> None:
    """Raise ValueError when level d is below the degree of f or of a constraint."""
    deg_needed = max(prob.objective.degree, prob.max_constraint_degree)
    if d < deg_needed:
        raise ValueError(f"level {d} below problem degree {deg_needed}")


def build_moment_sdp(prob: SemialgebraicProblem, d: int) -> MomentSdp:
    """Assemble the level-d moment relaxation as an explicit SDP over z."""
    _check_level(prob, d)
    n = prob.n
    k = relaxation_order(d)
    budget = 2 * k
    basis = MonomialBasis(n, budget)
    m = len(basis)

    # linear constraints on y: normalization + equality relations
    e0 = np.zeros(m)
    e0[0] = 1.0
    rel_rows, _ = _relation_rows(prob, basis)
    E = np.vstack([e0, *rel_rows])
    rhs = np.zeros(E.shape[0])
    rhs[0] = 1.0
    y_p, N, residual = affine_solutions(E, rhs)
    if residual > 1e-8:
        raise ValueError("equality constraints are inconsistent with L(1) = 1")

    weights = [Polynomial.constant(1.0, n)] + list(prob.constraints)
    blocks, block_weights, block_bases = [], [], []
    for g in weights:
        loc = basis.localizing_map(basis.exps[:r_dim(n, (budget - g.degree) // 2)], g)
        F0 = loc.gather(y_p)
        FN = loc.gather(N)
        keep = range(len(F0))
        if rel_rows:  # only equality relations give a block a common kernel
            keep = _independent_rows(F0, FN)
            F0, FN = F0[keep][:, keep], FN[keep][:, keep]
        blocks.append(SdpBlock(F0=F0, mats=np.transpose(FN, (2, 0, 1))))
        block_weights.append(g)
        block_bases.append(tuple(basis.exponents[i] for i in keep))

    f_vec = prob.objective.coeff_vector(basis)
    c = N.T @ f_vec
    offset = float(f_vec @ y_p)
    sdp = SdpProblem(n_vars=N.shape[1], c=c, blocks=blocks)
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


def _recover_multipliers(prob, residual_vec, basis):
    """Least-squares equality multipliers soaking up the certificate residual."""
    rel_rows, owners = _relation_rows(prob, basis)
    multipliers = [Polynomial.zero(prob.n) for _ in prob.equalities]
    if not rel_rows:
        return tuple(multipliers), residual_vec
    R = np.array(rel_rows).T  # columns are h*X^gamma coefficient vectors
    lam, *_ = np.linalg.lstsq(R, residual_vec, rcond=None)
    for (j, gamma), lv in zip(owners, lam):
        mono = Polynomial(prob.n, {gamma: float(lv)})
        multipliers[j] = multipliers[j] + mono
    return tuple(multipliers), residual_vec - R @ lam


def _certificate(prob, q, s, basis, gram_bases, weights, grams) -> SosCertificate:
    """Certificate of q - s = sum_j sigma_j g_j + sum_k lam_k h_k over `basis`.

    The residual is what remains after the least-squares equality multipliers.
    """
    res_vec = q.coeff_vector(basis)
    res_vec[0] -= s
    for rows, g, G in zip(gram_bases, weights, grams):
        res_vec -= basis.localizing_map(rows, g).adjoint(G)
    multipliers, res_vec = _recover_multipliers(prob, res_vec, basis)
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

    The SDP is solved once, with no re-solve.  When the iteration misses the
    1e-8 tolerances, `sdp.solve` accepts its first iterate within 1e-7 if
    there is one; `retried` on the result says whether that happened (the
    solution's `loose` flag), and `iterations` how many iterations the solve
    took.  Any other non-Optimal status raises MomentSdpError, a RuntimeError
    naming the level, status, iteration count and residuals
    (`SdpSolution.describe`).

    An Optimal result whose order-k moment matrix is flat is rounded
    (`_round`): its atoms are extracted, polished onto KKT points of min f
    over K (`polish_atoms`) and given weights that sum to 1.  When every
    polished atom lies in K and the measure's cost sum_j w_j f(x_j) is at
    most m_d + 1e-7 (1 + |m_d|), `pseudo_moments` are that measure's moments
    and `rounded` is the measure; otherwise `rounded` is None and the SDP's
    pseudo-moments stay.  An interior-point solution is only epsilon-optimal,
    so its atoms sit about sqrt(epsilon) from the minimizers where f grows
    quadratically; the polished ones reach round-off.  `m_d_star`, `f_d_star`
    and the certificate are always the SDP's.  Every measure on K costs at
    least f*, so rounding fires only when m_d is within the tolerance of f*.

    Equalities that pin every pseudo-moment leave an SDP with no variables.
    It is solved the same way: constant PSD blocks end Optimal, with a
    certificate and rounding, and a constant block that is not PSD (K empty)
    raises MomentSdpError naming Infeasible.
    """
    sol = solve(ms.problem)
    if sol.status != "Optimal":
        raise MomentSdpError(ms.d, sol.describe())
    y_vec = ms.y_particular + ms.nullbasis @ sol.x
    y = PseudoMomentSequence(prob.n, 2 * ms.order, y_vec, ms.basis)
    m_d = sol.value + ms.offset
    f_d = sol.dual_value + ms.offset
    cert = None
    if want_certificate:
        grams = [extract_dual_gram(sol, j) for j in range(len(ms.block_bases))]
        cert = _certificate(prob, prob.objective, f_d, ms.basis,
                            ms.block_bases, ms.block_weights, grams)
    rounded = _round(prob, y, ms.order, m_d)
    if rounded is not None:
        y = PseudoMomentSequence(prob.n, 2 * ms.order,
                                 rounded.weights @ ms.basis.eval_matrix(rounded.atoms), ms.basis)
    return RelaxationResult(ms.d, m_d, y, f_d, cert, sol.status, sol.loose, sol.iterations,
                            rounded)


def _flatness_step(prob: SemialgebraicProblem) -> int:
    """The step r of the flatness check that decides rounding: max(2, max constraint degree)."""
    return max(2, prob.max_constraint_degree)


def _round(prob: SemialgebraicProblem, y: PseudoMomentSequence, k: int,
           m_d: float) -> AtomicMeasure | None:
    """The polished atomic measure of a flat order-k y, or None (see `solve_moment_sdp`).

    Flatness uses the step `_flatness_step(prob)`; an order k below it is not rounded.
    """
    r = _flatness_step(prob)
    if k < r or not check_flatness(y, k, r).is_flat:
        return None
    try:
        mu = extract_atoms(y, k)
    except ValueError:
        return None
    atoms = polish_atoms(prob, mu.atoms)
    weights = mu.weights / mu.mass
    cost = float(weights @ prob.objective.eval_grid(atoms))
    # polished atoms are in K to round-off, or not at all
    if (all(prob.contains(x, tol=1e-12) for x in atoms)
            and cost <= m_d + 1e-7 * (1.0 + abs(m_d))):
        return AtomicMeasure(atoms, weights)
    return None


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
    G_j + t*I PSD, t >= -1 and exact coefficient matching (left-multiplied by
    `project` when given).  The matching equations are eliminated before the
    solve: the Gram entries range over x_p + N z and the SDP is over (z, t).
    The verdict reads only whether t* <= MEMBERSHIP_TOL, so any lower bound
    on t below 0 gives the same answer; -1 keeps the SDP well scaled (with
    -1e6, the Gram SDPs of `compute_d0` on the builtin corpus take up to 139
    iterations, where -1 takes at most 10).
    Returns the Grams, shifted by t* and eigenvalue-floored, or None when the
    matching is inconsistent, the SDP is infeasible or t* > MEMBERSHIP_TOL.
    Any other non-Optimal status raises RuntimeError naming `what`, the status,
    iteration count and residuals.
    """
    # coefficient matching over the upper-triangular Gram entries
    cols, sizes = [], [len(rows) for rows, _ in blocks]
    for (rows, g), sdim in zip(blocks, sizes):
        iu, ju = np.triu_indices(sdim)
        V = basis.localizing_map(rows, g).gather(np.eye(len(basis)))
        cols.append((np.where(iu == ju, 1.0, 2.0)[:, None] * V[iu, ju]).T)
    A = np.hstack(cols)
    if project is None:
        Aeq, beq = A, target
    else:
        Aeq, beq = project.T @ A, project.T @ target
    x_p, N, residual = affine_solutions(Aeq, beq)
    if residual > 1e-9 * (1.0 + np.linalg.norm(beq)):
        return None
    nz = N.shape[1]
    t_idx = nz

    sdp_blocks, lo = [], 0
    for sdim in sizes:
        hi = lo + sdim * (sdim + 1) // 2
        mats = np.concatenate([_sym_from_triu(N[lo:hi].T, sdim), np.eye(sdim)[None]])
        sdp_blocks.append(SdpBlock(F0=_sym_from_triu(x_p[lo:hi], sdim), mats=mats))
        lo = hi
    # t >= -1 keeps the SDP bounded; any bound below 0 gives the same verdict
    t_mats = np.zeros((nz + 1, 1, 1))
    t_mats[t_idx] = 1.0
    sdp_blocks.append(SdpBlock(F0=np.array([[1.0]]), mats=t_mats))
    c = np.zeros(nz + 1)
    c[t_idx] = 1.0
    sol = solve(SdpProblem(n_vars=nz + 1, c=c, blocks=sdp_blocks))
    if sol.status == "Infeasible":
        return None
    if sol.status != "Optimal":
        raise RuntimeError(f"{what} ended with {sol.describe()}")
    t_star = float(sol.x[t_idx])
    if t_star > MEMBERSHIP_TOL:
        return None

    entries = x_p + N @ sol.x[:nz]
    grams, lo = [], 0
    for sdim in sizes:
        hi = lo + sdim * (sdim + 1) // 2
        G = _sym_from_triu(entries[lo:hi], sdim) + max(t_star, 0.0) * np.eye(sdim)
        grams.append(psd_floor(G))
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
    weights = [Polynomial.constant(1.0, n)] + list(prob.constraints)
    # a constraint of degree above d gets no block: an empty basis and a 0 x 0 Gram
    gram_bases = [tuple(basis.exponents[:r_dim(n, (d - g.degree) // 2)]) if g.degree <= d else ()
                  for g in weights]

    project = None
    rel_rows, _ = _relation_rows(prob, basis)
    if rel_rows:
        # orthonormal complement of the multiplier span: the null space of the rows
        _, project, _ = affine_solutions(np.array(rel_rows), np.zeros(len(rel_rows)))
    grams = phase1_gram(basis, [(rows, g) for rows, g in zip(gram_bases, weights) if rows],
                        q.coeff_vector(basis), project)
    if grams is None:
        return False, None
    found = iter(grams)
    grams = [next(found) if rows else np.zeros((0, 0)) for rows in gram_bases]
    return True, _certificate(prob, q, 0.0, basis, gram_bases, weights, grams)


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


def _failed(d: int, exc: Exception) -> RelaxationResult:
    """Level d's record of a solve of its order that raised `exc`."""
    if isinstance(exc, MomentSdpError):
        exc = MomentSdpError(d, exc.how)
    return RelaxationResult(d, math.nan, None, math.nan, None, f"Failed: {exc}")


def _solve_levels(prob: SemialgebraicProblem, levels) -> list:
    """`solve_moment_relaxation` at each level, with each relaxation order solved once.

    Levels of one `relaxation_order` build the same SDP, so the first of them
    at or above the problem degree is built, solved and certified, and each
    level of the order reports that result under its own d.  A level below the
    problem degree fails alone.  A level whose order failed gets the status
    "Failed: <message>" with the message its own solve would raise.
    """
    results, by_order = [], {}
    for d in levels:
        try:
            _check_level(prob, d)
        except ValueError as exc:
            results.append(_failed(d, exc))
            continue
        k = relaxation_order(d)
        if k not in by_order:
            try:
                by_order[k] = solve_moment_relaxation(prob, d)
            except Exception as exc:  # noqa: BLE001 - per-level isolation is the contract
                by_order[k] = exc
        got = by_order[k]
        results.append(_failed(d, got) if isinstance(got, Exception) else replace(got, d=d))
    return results


def run_hierarchy(prob: SemialgebraicProblem, d_min: int, d_max: int):
    """Solve levels d_min..d_max; failures are recorded, monotonicity checked.

    Levels 2k-1 and 2k share the order-k SDP, which is solved once: their
    results share one pseudo-moment object and one certificate object.
    """
    results = _solve_levels(prob, range(d_min, d_max + 1))
    solved = [r.m_d_star for r in results if r.status == "Optimal"]
    for lo, hi in zip(solved, solved[1:]):
        if not hi >= lo - 1e-6:
            raise RuntimeError(f"lower bounds decreased: {lo} -> {hi}")
    return results
