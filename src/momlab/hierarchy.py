"""Moment relaxations, SOS tightenings, certificates, membership tests.

Level d bounds the total degree of every certified product.  Every SDP here is
a moment SDP built by `_moment_sdp`: min L(cost) over pseudo-moment sequences
with PSD moment and localizing matrices and L(h * X^gamma) = 0 for equality
constraints h; the SOS side is its SDP dual, read off the same solve.  The
equality relations are eliminated first, as a homogeneous system, by one
echelon form (`sdp.basic_solutions`, columns in descending grlex order):
y = N1 w over the basic moments w; with no equalities N1 is the identity's
columns on the moments that a block or the cost reaches, built without an
m x m identity.  A pivot monomial's row of a block is its normal form, a fixed
combination of the basic rows, when each relation of degree e combines
relation rows h X^gamma of degree at most e, as for a single equality or
x_i = x_i^2.  So each block keeps its basic rows and any pivot row that its
normal form misses (`_block_rows`), and a block that the relations make
identically zero is left out.  This removes the common kernel that equalities
give every feasible moment matrix (x = x^2 on {0,1}; the row of 1 equal to the
sum of the rows of x_i^2 on a sphere), which keeps the SDP strictly feasible
even when K is finite or a sphere.  Each block is gathered once, over N1 with
unit-norm columns: its kept rows, F0 and the F_i are slices of that gather, as
sparse as the moment matrix.  One normalization row is eliminated.  A
relaxation has L(1) = 1, whose column stays unscaled as y_p, and a flat
solution is rounded to its polished atoms' moments (`solve_moment_sdp`).  A
Gram question (`qmodule_membership`, `compute_d0`, `is_sos_convex`) has
L(tau) = 1, tau each block's squared rows times its weight, summed: q is a
member when min L(q) >= -MEMBERSHIP_TOL, and its Grams are the dual blocks
plus lam* I (`_gram_certificate`).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .cone import PseudoMomentSequence, SemialgebraicProblem
from .extraction import AtomicMeasure, check_flatness, extract_atoms, polish_atoms
from .poly import MonomialBasis, Polynomial, r_dim
from .sdp import SdpBlock, SdpProblem, _leading_columns, basic_solutions, psd_floor, solve

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

log = logging.getLogger("momlab.hierarchy")


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
    """Assembled level-d moment SDP in basic moment coordinates y = y_p + N z."""

    d: int
    order: int
    basis: MonomialBasis           # pseudo-moment basis, degree 2*order
    problem: SdpProblem            # variables z
    y_particular: np.ndarray       # L(1)'s column of y = N1 w, unscaled: 0 on other basic moments
    nullbasis: np.ndarray          # N1's other columns, unit-norm before the one gather, a view
    offset: float                  # L(f) = c.z + offset
    block_weights: tuple           # g multiplying each PSD block (g=1 for the moment block)
    block_bases: tuple             # monomial rows of each block: 1, the basic monomials and
                                   # the pivot monomials whose normal forms miss their rows;
                                   # () for a block that the equalities make identically zero


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


def _block_rows(G, idx, forms, pivots):
    """Positions a block keeps: its basic rows and the pivot rows that they miss.

    G holds the signatures of the block's rows `idx` in the basic moments w of
    the relations, G[i, j] = [F_1 ... F_k][i, j], w's columns scaled or not.
    The row of a pivot monomial is its normal form (its row of `forms`, N1's
    unscaled pivot rows, over the block's basic rows) applied to the basic rows
    when each relation of degree e combines relation rows of degree at most e,
    as for a single equality or x_i = x_i^2.  A pivot row that differs from
    that combination by more than round-off is kept, unless its difference is
    a combination of the differences of pivot rows kept before it
    (`sdp._leading_columns`, the pivot rule of `basic_solutions`); each dropped
    row is then a fixed combination of kept rows.
    """
    rows, pivot_rows = np.flatnonzero(~pivots[idx]), np.flatnonzero(pivots[idx])
    if not len(pivot_rows):
        return rows
    coef = forms[np.ix_(np.cumsum(pivots)[idx[pivot_rows]] - 1, np.cumsum(~pivots)[idx[rows]] - 1)]
    sigs = G.reshape(len(G), -1)
    diff = sigs[pivot_rows] - coef @ sigs[rows]
    tol = 1e-12 * (1.0 + np.max(np.abs(sigs))) * (1.0 + np.max(np.abs(coef).sum(axis=1)))
    missed = np.max(np.abs(diff), axis=1) > tol
    if not missed.any():
        return rows
    kept = pivot_rows[missed][_leading_columns(diff[missed].T, tol)]
    return np.sort(np.r_[rows, kept])


def _check_level(prob: SemialgebraicProblem, d: int) -> None:
    """Raise ValueError when level d is below the degree of f or of a constraint."""
    deg_needed = max(prob.objective.degree, prob.max_constraint_degree)
    if d < deg_needed:
        raise ValueError(f"level {d} below problem degree {deg_needed}")


def _moment_sdp(prob: SemialgebraicProblem, basis: MonomialBasis, blocks, cost: Polynomial,
                what: str, trace: bool = False):
    """min L(cost) over pseudo-moments on `basis` with PSD localizing matrices.

    `blocks` pairs each block's rows, an (s, n) exponent array, with its weight
    g.  The normalization is L(1) = 1, or with `trace` L(tau) = 1 for tau =
    sum_j sum_i v_i^2 g_j over each block's kept rows v, after the basic
    moments that no block holds are dropped.  Returns (problem, y_p, N, offset,
    block_bases), y = y_p + N z and L(cost) = c.z + offset, with an empty basis
    for a block left out.  With `trace`: None when L(cost) is unbounded because
    the cost reaches a dropped moment, and problem None when no block is left.
    Each block is gathered once, over N1 with unit-norm columns (L(1)'s stays
    unscaled in a relaxation); its kept rows, F0 and the F_i are its slices.
    """
    m = len(basis)
    f_vec = cost.coeff_vector(basis)
    maps = [basis.localizing_map(rows, g) for rows, g in blocks]
    rel_rows, _ = _relation_rows(prob, basis)
    if rel_rows:
        _, N1, pivots, _ = basic_solutions(np.array(rel_rows), np.zeros(len(rel_rows)))
    else:  # the identity's columns on the moments that a block or the cost reaches
        reached = np.concatenate([np.flatnonzero(f_vec), *(lm.idx.ravel() for lm in maps)])
        N1, pivots = (np.arange(m)[:, None] == np.unique(reached)) * 1.0, np.zeros(m, dtype=bool)
    max_n, forms = float(np.max(np.abs(N1), initial=0.0)), N1[pivots]
    # unit-norm columns, scaled before the gather (dividing the gathered blocks rounds
    # otherwise): on 31 circle, sphere and binary-corner relaxations they left 1 solve loose
    # and raw basic coordinates 3, but which end loose moves with round-off (ROADMAP item 15)
    norms = np.linalg.norm(N1, axis=0)
    if not trace:
        norms[:1] = 1.0  # L(1)'s column, when L(1) is basic: it becomes y_p
    N1 /= norms

    gathered, bases = [], []  # the SDP's blocks, each gathered once; every block's kept rows
    for lmap, (rows, _) in zip(maps, blocks):
        idx, G = basis.indices(rows), lmap.gather(N1)
        # a block that is 0 on every solution of the relations has F0 = 0 and F_i = 0
        keep = _block_rows(G, idx, forms, pivots) if G.any() else []
        if 0 < len(keep) < len(rows):
            G = G[np.ix_(keep, keep)]  # the full gather is freed
        if len(keep):
            gathered.append(G)
        bases.append(tuple(basis.exponents[i] for i in idx[keep]))

    if trace:  # w: the basic moments that some block holds; tau's row: the blocks' traces
        w = np.flatnonzero(np.any([G.any(axis=(0, 1)) for G in gathered], axis=0))
        dropped = np.delete((f_vec @ N1) * norms, w)  # in unscaled basic moments
        if np.linalg.norm(dropped) > 1e-9 * (1.0 + np.linalg.norm(f_vec)):
            return None
        if not gathered:  # every block is 0 on the relations, and so is L(cost)
            return None, None, None, 0.0, tuple(bases)
        row = sum(np.einsum("iij->j", G) for G in gathered)
    else:
        row, w = N1[0], np.arange(N1.shape[1])
    w_p, N2, piv2, residual = basic_solutions(row[None, w], np.ones(1))
    if residual > 1e-8 or not trace and pivots[0]:  # pivots[0]: the relations force L(1) = 0
        raise ValueError("equality constraints are inconsistent with "
                         f"{'L(tau)' if trace else 'L(1)'} = 1")
    p, cols, scale, piv_row = w[piv2][0], w[~piv2], w_p[piv2][0], N2[piv2][0]
    changed = np.flatnonzero(piv_row)  # the columns that a trace row changes; none in a relaxation
    rescale = np.linalg.norm(N1[:, changed] + np.outer(N1[:, p], piv_row[changed]), axis=0)
    # a slice where the columns are contiguous, as in every relaxation: N is a
    # view of N1, and SdpBlock's copy is each block's only one
    take = slice(cols[0], cols[-1] + 1) if len(cols) and np.ptp(cols) == len(cols) - 1 else cols

    def columns(G):  # z's columns on G's last axis; a changed one gains p's, then unit norm
        out = G[..., take]
        out[..., changed] = (out[..., changed] + G[..., p, None] * piv_row[changed]) / rescale
        return out

    y_p, N = N1[:, p] * scale, columns(N1)
    sdp_blocks = [SdpBlock(F0=G[:, :, p] * scale, mats=np.moveaxis(columns(G), 2, 0))
                  for G in gathered]
    log.debug("%s: %d pivots of %d moments, max|N| %.3g, rows kept per block %s", what,
              np.count_nonzero(pivots) + 1, m, max_n, [len(rows) for rows in bases])
    problem = SdpProblem(n_vars=N.shape[1], c=N.T @ f_vec, blocks=sdp_blocks)
    return problem, y_p, N, float(f_vec @ y_p), tuple(bases)


def build_moment_sdp(prob: SemialgebraicProblem, d: int) -> MomentSdp:
    """Assemble the level-d moment relaxation as an explicit SDP over z."""
    _check_level(prob, d)
    n = prob.n
    k = relaxation_order(d)
    basis = MonomialBasis(n, 2 * k)
    weights = (Polynomial.constant(1.0, n),) + tuple(prob.constraints)
    blocks = [(basis.exps[:r_dim(n, (2 * k - g.degree) // 2)], g) for g in weights]
    problem, y_p, N, offset, bases = _moment_sdp(prob, basis, blocks, prob.objective,
                                                 f"level {d} moment SDP")
    return MomentSdp(d=d, order=k, basis=basis, problem=problem, y_particular=y_p,
                     nullbasis=N, offset=offset, block_weights=weights, block_bases=bases)


def _recover_multipliers(prob, residual_vec, basis):
    """Least-squares equality multipliers soaking up the certificate residual.

    They give the smallest `residual_norm`, the certificate's soundness measure;
    a triangular solve on the echelon pivots of the relation rows would zero the
    residual on the pivot monomials only.
    """
    rel_rows, owners = _relation_rows(prob, basis)
    terms = [{} for _ in prob.equalities]
    if not rel_rows:
        return tuple(Polynomial.zero(prob.n) for _ in terms), residual_vec
    R = np.array(rel_rows).T  # columns are h*X^gamma coefficient vectors
    lam, *_ = np.linalg.lstsq(R, residual_vec, rcond=None)
    for (j, gamma), lv in zip(owners, lam.tolist()):
        terms[j][gamma] = lv
    return tuple(Polynomial._result(prob.n, t.items()) for t in terms), residual_vec - R @ lam


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
        grams = _dual_grams(sol, ms.block_bases)
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


def _dual_grams(sol, block_bases, shift: float = 0.0) -> list:
    """Each dual block Z_j + shift * I, eigenvalue-floored; 0 x 0 for an empty basis."""
    duals = iter(sol.block_duals)
    return [psd_floor(next(duals) + shift * np.eye(len(rows)) if shift else next(duals))
            if rows else np.zeros((0, 0)) for rows in block_bases]


def _gram_certificate(prob: SemialgebraicProblem, q: Polynomial, basis: MonomialBasis,
                      blocks, what: str):
    """Is q = sum_j (v_j' G_j v_j) g_j + sum_k lam_k h_k, G_j PSD?  (True, cert) or (False, None).

    `blocks` pairs rows v_j (an exponent array) with weights g_j.  The moment
    SDP min L(q) s.t. L(tau) = 1 (`_moment_sdp` with `trace`) is the dual of
    max lam with q - lam * tau in the module, which is -t* of the phase-I
    min t with G_j + t*I PSD.  q is a member when min L(q) >= -MEMBERSHIP_TOL,
    read from the primal side that the face check refines, and the Grams are
    the dual blocks plus lam* I.  A solve that ends other than Optimal raises
    RuntimeError naming `what` and how it ended.
    """
    built = _moment_sdp(prob, basis, blocks, q, what, trace=True)
    if built is None:
        return False, None
    problem, _, _, offset, gram_bases = built
    weights = [g for _, g in blocks]
    if problem is None:  # q lies in the span of the relations, as every block does
        return True, _certificate(prob, q, 0.0, basis, gram_bases, weights,
                                  [np.zeros((0, 0))] * len(blocks))
    sol = solve(problem)
    if sol.status != "Optimal":
        raise RuntimeError(f"{what} ended with {sol.describe()}")
    if sol.value + offset < -MEMBERSHIP_TOL:
        return False, None
    grams = _dual_grams(sol, gram_bases, sol.dual_value + offset)
    return True, _certificate(prob, q, 0.0, basis, gram_bases, weights, grams)


def qmodule_membership(q: Polynomial, prob: SemialgebraicProblem, d: int):
    """Is q = sigma_0 + sum sigma_i p_i + sum lam_j h_j with every product degree <= d?

    Decided by one trace-normalized moment SDP (`_gram_certificate`); the
    Grams are over each block's kept rows.  A constraint of degree above d, or
    one that the equalities make identically zero, gets an empty basis and a
    0 x 0 Gram.
    """
    if q.n != prob.n:
        raise ValueError("dimension mismatch")
    if d < q.degree:
        return False, None
    n = prob.n
    basis = MonomialBasis(n, d)
    weights = [Polynomial.constant(1.0, n)] + list(prob.constraints)
    blocks = [(basis.exps[:r_dim(n, (d - g.degree) // 2) if g.degree <= d else 0], g)
              for g in weights]
    return _gram_certificate(prob, q, basis, blocks, "membership SDP")


def compute_d0(prob: SemialgebraicProblem, d_max: int):
    """Smallest k <= d_max with 1 - p in the level-k module for every constraint p.

    Each test is a `qmodule_membership` call, one trace-normalized moment SDP;
    None when no k <= d_max passes.
    """
    targets = [Polynomial.constant(1.0, prob.n) - p for p in prob.constraint_pairs()]
    for k in range(d_max + 1):
        if all(qmodule_membership(q, prob, k)[0] for q in targets):
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
