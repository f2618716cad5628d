"""Dense primal-dual interior-point solver for small block-diagonal SDPs.

Problem form (minimization convention used throughout the package):

    minimize    c' x
    subject to  A_j(x) = F_j0 + sum_i x_i F_ji  PSD   for each block j

Every block is affine in all n variables, as in the SDPA form (Fujisawa,
Kojima & Nakata 1997) that `export_sdpa` writes: F_ji = 0 where variable i is
absent from block j, so no kernel gathers or scatters by variable.  A problem
with n = 0 is solved like any other; its blocks are constants, and the run
ends Optimal when they are positive definite and Infeasible when one is not
PSD.

There are no linear equality constraints: callers eliminate them before the
solve by affine substitution x = x_p + N z, which keeps the blocks strictly
feasible.  One helper makes every such elimination and every null space in
the package: `basic_solutions`, one echelon form whose z is the basic
entries of x and whose N is [I; -X] up to the row order, so each F_i stays
as sparse as the rows it comes from.  It eliminates a moment relaxation's
L(1) = 1 and equality relations, the coefficient matching of the phase-I
Gram SDPs (`phase1_gram`), and gives the null space of the relation rows
that `qmodule_membership` projects onto and the null vector of each
`tchakaloff_prune` step.  Its pivots are the columns `_leading_columns`
finds at PIVOT_TOL, a rule the moment blocks' pivot-row check shares.  The
final projection onto the optimal face (`_refine_primal`, one least-squares
step at `_rank_cutoff`) reads the dual blocks' ranges, and the dual
correction AA*'s pseudo-inverse, from `psd_split` (the `sv_rank` rule), the
package's only `np.linalg.eigh`, also behind `psd_floor`, CD kernels and atoms.

How the coefficient matrices F_ji are stored is known only to `SdpBlock`:
its `apply` (sum_i x_i F_ji), `adjoint` (<F_ji, Z>) and `schur`
(<F_ji, W^-1 F_jk W^-1>) are the only code in the iteration that reads
`mats`.  Each block keeps the nonzeros of its flattened (m, s*s) `mats`
once, as (variable, flat position, value) arrays.  `apply` and `adjoint` are
one dense matrix-vector product each over the flattened `mats`, except on a
large, sparse block, where they are one `np.bincount` each over its nonzeros;
one cost rule (`_nonzero_products`) picks the product per block when it is
built.  `schur` has a dense first stage, every W^-1 F_jk W^-1 in one batched
product, and a sparse second stage: a CSR copy of the flattened `mats`, built
from the same nonzeros, sums each inner product over the nonzeros of F_ji
only.  A block's arrays are read-only, so neither copy can go stale, and a
malformed block is rejected when it is built.

The solver is an infeasible-start path-following method with Nesterov-Todd
scaling and Mehrotra's predictor-corrector (Mehrotra 1992; in NT scaling,
Todd, Toh & Tutuncu 1998).  The predictor is the pure Newton step; its gap
after the step to the boundary fixes the centering weight sigma.  The
corrector reuses the same Schur factorization and adds the predictor's
second-order term: in the NT basis G_j of each block, where S_j and Z_j both
scale to the diagonal D_j, the full step's symmetrized complementarity keeps
dS~ dZ~ + dZ~ dS~, and the corrector takes G_j C_j G_j' off its right-hand
side, C_j solving D_j C_j + C_j D_j = dS~ dZ~ + dZ~ dS~ (`_second_order`).
The term is added only after a predictor step min(ap, ad) of at least
SECOND_ORDER_MIN_STEP = 1/sqrt(3) (SDPT3's rule).  The term cuts the
iteration count: the SDPs of an n=4 and two n=3, d=6 ball relaxations take
38 iterations, where the corrector without it took 54.  Without the gate
about as many iterations are saved, but more runs stall just above TOL: of
52 moment SDPs (the builtin benchmark suite and 39 seeded dense quartics on
the ball and box, n = 2..5), 5 ended loose instead of 3.
Everything is dense; blocks at desk scale are at most a few hundred rows.
The iteration is fully deterministic: fixed order, no randomized pivoting.
`solve` holds the loop, the centering rule and the order of the status
tests, and calls named kernels: `_Iterate.measure` (an iterate's residuals,
objectives and gap, measured once), `SdpProblem.adjoint` and
`SdpProblem.schur`, `_schur_factor`, `_direction`, `_step` and
`_threshold_status`.  The Cholesky factors LS_j of S_j and LZ_j of Z_j are
the only factorizations of a block per iterate, and every per-block kernel
reads them: the NT scaling W_j^-1 and its basis G_j from one SVD of
LZ_j' LS_j and one triangular solve (`_nt_scaling`), both step lengths from
one `sygst` and one smallest-eigenvalue `syevr` call (`_max_step`), and the
corrector's Z_j^-1 from `potri` (`_chol_inv`).  The Schur solves are `potrs`
calls on the Schur matrix's jittered factor (`_chol_solve`).  A step's
factorizations run in one `try`: a LinAlgError from any of them (a block
that has left the positive definite cone, a Schur matrix past its jitter
cap, a failed SVD) ends the run `IllConditioned`.  The blocks are small, so
the loop's cost is per-call overhead more than arithmetic: each of these
kernels is a direct LAPACK call that keeps scipy's checks (a non-finite
operand raises ValueError), with a factor checked once, when `_chol` makes
it; and every Frobenius inner product is one dot product (`_inner`).

Every search direction keeps the dual residual exactly.  A*(Z) = c - rd is
linear in Z, and the Newton system asks A*(dZ) = rd, but the dZ that the
Schur solve gives meets it only up to the solve's error, which the jittered
Cholesky of a near-singular Schur matrix makes large.  So each dZ is
corrected by the minimum-norm change sum_i w_i F_i with
(AA*) w = rd - A*(dZ).  AA* is the Schur matrix at W = I; it is formed and
pseudo-inverted once per solve, from `psd_split` at `_rank_cutoff`, so a
variable whose coefficient matrices are all zero (a zero row of AA*) is
simply left out of the correction.  A step of length ad then scales the dual
residual by 1 - ad up to round-off, and once it has reached round-off it
stays there.

Stopping rule: `Optimal` at the first iterate with relative residuals and
gap <= TOL (1e-8).  A run that ends any other way logs one DEBUG line naming
the test that ended it, and returns its first iterate within LOOSE_TOL
(1e-7), if it had one, as `Optimal` with `loose=True`; no second solve runs,
and `iterations` and `trace` cover the whole run.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import get_lapack_funcs

__all__ = [
    "SdpBlock",
    "SdpProblem",
    "SdpSolution",
    "solve",
    "extract_dual_gram",
    "psd_floor",
    "psd_split",
    "basic_solutions",
    "sv_rank",
    "export_sdpa",
]

log = logging.getLogger("momlab.sdp")


# Cost of one `apply` or `adjoint`, in entries of the dense product, which reads
# all m*s^2 entries of `flat_mats`: the product over the nonzeros costs a fixed
# NONZERO_FIXED_COST plus NONZERO_COST per nonzero (table in `SdpBlock`).
NONZERO_FIXED_COST = 10_000
NONZERO_COST = 20


def _nonzero_products(dense_entries: int, nnz: int) -> bool:
    """Whether `apply` and `adjoint` of a block are cheaper over its nonzeros."""
    return NONZERO_FIXED_COST + NONZERO_COST * nnz < dense_entries


@dataclass(frozen=True)
class SdpBlock:
    """One affine PSD block on every variable: F0 + sum over i of x[i] * mats[i].

    `mats` holds one (s, s) coefficient matrix per variable of the problem,
    zero where the variable does not enter the block; a block of a problem with
    no variables has `mats` of shape (0, s, s) and is a constant PSD
    constraint.  The block keeps read-only copies of F0 and `mats`, both of
    which must be finite and exactly symmetric.

    `nonzeros` holds the nonzeros of `flat_mats` once, as (variable, flat
    position, value) arrays in row-major order: flat_mats[i, p] = v for each
    (i, p, v).  `apply` and `adjoint` are the dense products x @ flat_mats and
    flat_mats @ Z.ravel(), unless `product` is "nonzero": then `apply` is one
    `np.bincount` over the positions and `adjoint` one over the variables.
    `_nonzero_products` picks the product from m*s^2 and the nonzero count.
    The dense product costs about m*s^2 BLAS entries, the nonzero one a fixed
    ~10 000 plus ~20 per nonzero, so the rule reads density as well as size.
    Median of five runs, one BLAS thread on a shared 2-core Xeon, us per call,
    dense -> nonzero:

    | block                          | m*s^2 / nnz      | adjoint        | apply         |
    |--------------------------------|------------------|----------------|---------------|
    | n=4, d=6 ball moment           | 256 025 / 1 224  | 60.6 -> 7.2    | 66.8 -> 6.8   |
    | n=4, d=6 ball localizing       | 47 025 / 1 124   | 8.0 -> 6.2     | 8.7 -> 5.9    |
    | n=3, d=6 ball moment           | 33 200 / 399     | 5.0 -> 3.1     | 4.9 -> 3.5    |
    | n=3, d=6 ball localizing       | 8 300 / 399      | 2.5 -> 3.3     | 3.0 -> 3.6    |
    | n=2, d=8 ball moment           | 9 900 / 224      | 2.8 -> 2.6     | 3.2 -> 3.1    |
    | motzkin-box, d=6, box block    | 2 700 / 99       | 1.5 -> 2.0     | 2.3 -> 2.4    |
    | phase-I Gram block             | 230 400 / 1 032  | 42.7 -> 5.9    | 44.1 -> 6.4   |

    The last block is the Gram block of `is_sos_convex(x1^6 + x2^6 + x3^2)`.
    Through a dense SVD null basis it held 36 742 nonzeros (16 %), and the
    nonzero products took 210.5 and 115.9 us against 38.8 and 46.3 dense.
    """

    F0: np.ndarray
    mats: np.ndarray  # (m, s, s) symmetric coefficient matrices, one per variable
    # np.arange(m), read-only, all variables; its last reader is perfbench/tracing.py::_sdp_counts
    var_idx: np.ndarray = field(init=False, repr=False, compare=False)
    # mats as an (m, s*s) matrix, a read-only view; explicit sizes, since m may be 0
    flat_mats: np.ndarray = field(init=False, repr=False, compare=False)
    nonzeros: tuple = field(init=False, repr=False, compare=False)  # (var, pos, val)
    product: str = field(init=False, repr=False, compare=False)  # "dense" | "nonzero"
    _sparse: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        import scipy.sparse  # here, so that importing momlab does not load it

        # copies, C-ordered, so the flattened (m, s*s) view never copies and
        # marking them read-only leaves the caller's arrays writable
        F0 = np.array(self.F0, dtype=float)
        mats = np.array(self.mats, dtype=float, order="C")
        _check_block(F0, mats)
        flat = mats.reshape(len(mats), F0.size)
        # the nonzeros from the flat positions, and the CSR from them: scipy's own
        # dense-to-CSR conversion takes several times as long on the moment blocks
        nz = np.flatnonzero(flat != 0)
        var, pos = np.divmod(nz, flat.shape[1])
        val = flat.ravel()[nz]
        for name, arr in (("F0", F0), ("mats", mats), ("var_idx", np.arange(len(mats))),
                          ("flat_mats", flat)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        for arr in (var, pos, val):
            arr.flags.writeable = False
        object.__setattr__(self, "nonzeros", (var, pos, val))
        object.__setattr__(self, "product",
                           "nonzero" if _nonzero_products(flat.size, len(nz)) else "dense")
        indptr = np.searchsorted(var, np.arange(len(flat) + 1))
        object.__setattr__(self, "_sparse",
                           scipy.sparse.csr_array((val, pos, indptr), shape=flat.shape))

    @property
    def size(self) -> int:
        return self.F0.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """sum over i of x[i] * mats[i]."""
        if self.product == "dense":
            return (x @ self.flat_mats).reshape(self.size, self.size)
        var, pos, val = self.nonzeros
        return np.bincount(pos, weights=x[var] * val,
                           minlength=self.flat_mats.shape[1]).reshape(self.size, self.size)

    def adjoint(self, Z: np.ndarray) -> np.ndarray:
        """<mats[i], Z> for every i: the block's share of A*(Z)."""
        if self.product == "dense":
            return self.flat_mats @ Z.ravel()
        var, pos, val = self.nonzeros
        return np.bincount(var, weights=val * Z.ravel()[pos], minlength=len(self.mats))

    def schur(self, W_inv: np.ndarray) -> np.ndarray:
        """<mats[i], W_inv mats[j] W_inv>: the block's share of the Schur complement.

        Fujisawa, Kojima & Nakata (1997): U_j = W_inv mats[j] W_inv for every j
        in one dense batched product, then <mats[i], U_j> summed over the
        nonzeros of mats[i] only, as one sparse (CSR) by dense product.  That
        costs nnz * m instead of m^2 * s^2.
        """
        U = (W_inv @ self.mats @ W_inv).reshape(self.flat_mats.shape)
        return self._sparse @ U.T

    def assemble(self, x: np.ndarray) -> np.ndarray:
        return self.F0 + self.apply(x)


def _check_block(F0: np.ndarray, mats: np.ndarray) -> None:
    """Raise ValueError naming the first way in which a block's arrays are malformed."""
    if F0.ndim != 2 or F0.shape[0] != F0.shape[1]:
        raise ValueError(f"SdpBlock F0 must be a square matrix, got shape {F0.shape}")
    if mats.ndim != 3 or mats.shape[1:] != F0.shape:
        raise ValueError(f"SdpBlock mats has shape {mats.shape}; a {F0.shape[0]}x{F0.shape[1]} "
                         f"F0 needs (m,) + {F0.shape}, one matrix per variable")
    if not (np.isfinite(F0).all() and np.isfinite(mats).all()):
        raise ValueError("SdpBlock F0 or mats has non-finite entries")
    if not np.array_equal(F0, F0.T):
        raise ValueError("SdpBlock F0 is not symmetric")
    if not np.array_equal(mats, np.swapaxes(mats, 1, 2)):
        k = np.flatnonzero(np.any(mats != np.swapaxes(mats, 1, 2), axis=(1, 2)))[0]
        raise ValueError(f"SdpBlock mats[{k}] (variable {k}) is not symmetric")


@dataclass
class SdpProblem:
    n_vars: int
    c: np.ndarray
    blocks: list

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        if self.c.shape != (self.n_vars,):
            raise ValueError(f"SdpProblem c has shape {self.c.shape}, "
                             f"expected ({self.n_vars},) for n_vars={self.n_vars}")
        if not np.all(np.isfinite(self.c)):
            raise ValueError("SdpProblem c has non-finite entries")
        if not self.blocks:
            raise ValueError("SdpProblem blocks is empty; an SDP needs at least one block")
        for j, blk in enumerate(self.blocks):
            if len(blk.mats) != self.n_vars:
                raise ValueError(f"SdpProblem block {j} has {len(blk.mats)} coefficient "
                                 f"matrices, but n_vars is {self.n_vars}")

    def adjoint(self, Z: list) -> np.ndarray:
        """A*(Z): the blocks' shares <F_ji, Z_j> summed, one entry per variable."""
        return sum((blk.adjoint(Zj) for blk, Zj in zip(self.blocks, Z)), np.zeros(self.n_vars))

    def schur(self, W_inv: list) -> np.ndarray:
        """M[i, k] = sum over blocks of <F_ji, W_j^-1 F_jk W_j^-1>."""
        M = np.zeros((self.n_vars, self.n_vars))
        for blk, Wj_inv in zip(self.blocks, W_inv):
            M += blk.schur(Wj_inv)
        return _sym(M)


MAX_ITER = 200
STEP_FRAC = 0.99  # fraction of the distance to the PSD boundary a step may cover
# the corrector adds the predictor's second-order term only after a predictor
# step min(ap, ad) of at least this (SDPT3's rule): after a short predictor
# step the term is a poor model of the step actually taken
SECOND_ORDER_MIN_STEP = 1.0 / np.sqrt(3.0)
TOL = 1e-8  # residuals and relative gap at which the iteration stops Optimal
# Degenerate problems can stall just above TOL; an iterate within LOOSE_TOL
# still leaves orders of magnitude of margin over every downstream tolerance.
LOOSE_TOL = 1e-7


@dataclass
class SdpSolution:
    x: np.ndarray
    block_duals: list
    value: float
    dual_value: float
    status: str  # Optimal | Infeasible | MaxIter | IllConditioned
    iterations: int
    gap: float
    primal_residual: float
    dual_residual: float
    trace: list = field(default_factory=list)  # (pobj, dobj, pres, dres, mu) per iterate
    loose: bool = False  # Optimal only at LOOSE_TOL: the first iterate that met it

    def describe(self) -> str:
        """How the run ended, for error messages: status, iterations and residuals."""
        return (f"status {self.status} after {self.iterations} iterations "
                f"(pres {self.primal_residual:.2e}; dres {self.dual_residual:.2e}; "
                f"gap {self.gap:.2e})")


def _sym(A):
    return 0.5 * (A + A.T)


def _inner(A, B):
    """Frobenius inner product <A, B> as one (1, n) by (n, 1) dot product."""
    return float(np.dot(A.reshape(1, -1), B.reshape(-1, 1))[0, 0])


_potrf, _potrs, _potri, _sygst, _syevr, _gesdd, _trtrs = get_lapack_funcs(
    ("potrf", "potrs", "potri", "sygst", "syevr", "gesdd", "trtrs"), (np.empty((1, 1)),))


def _check_finite(A):
    """scipy's operand check, made once per factor (`_chol`), not on every use of one."""
    if not np.isfinite(A).all():
        raise ValueError("array must not contain infs or NaNs")


def _check_info(info, routine, failure):
    if info > 0:
        raise np.linalg.LinAlgError(failure)
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal {routine}")


def _chol(A, where=""):
    """Lower Cholesky factor of symmetric A (lower triangle read) by LAPACK potrf.

    A failure's LinAlgError names the matrix first: `where` is, e.g., "Z_1: ".
    """
    _check_finite(A)
    L, info = _potrf(A, lower=1)
    _check_info(info, "potrf", f"{where}matrix not positive definite: leading minor {info} fails")
    return L


def _chol_solve(L, b):
    """A^-1 b from the lower Cholesky factor L of A (`_chol`), by LAPACK potrs."""
    _check_finite(b)
    if b.size == 0:
        return np.empty_like(b)
    x, info = _potrs(L, b, lower=1)
    _check_info(info, "potrs", "potrs failed")
    return x


def _chol_inv(L):
    """A^-1 from the lower Cholesky factor L of A (`_chol`), by LAPACK potri."""
    Ainv, info = _potri(L, lower=1)
    _check_info(info, "potri", f"singular matrix: zero on the factor's diagonal at {info - 1}")
    # potri fills the lower triangle only; above it stay the zeros of L
    return Ainv + np.tril(Ainv, -1).T


def _nt_scaling(LS, LZ):
    """Nesterov-Todd scaling point in its scaled basis, from S = LS LS', Z = LZ LZ'.

    Todd, Toh & Tutuncu (1998): with the SVD LZ' LS = U D V', the basis
    G = LZ U D^-1/2 gives W^-1 = G G' (W Z W = S) and G' S G = G^-1 Z G^-T = D.
    Returns (W^-1, G, G^-T, d); G^-T = LZ^-T U D^1/2 takes one triangular
    solve.  D is floored at 1e-7 of its largest value, the square root of a
    1e-14 eigenvalue floor on S and Z.
    """
    A = LZ.T @ LS
    _check_finite(A)
    U, d, _, info = _gesdd(A, compute_uv=1, full_matrices=0)
    _check_info(info, "gesdd", "SVD did not converge")
    d = np.maximum(d, max(d[0], 1e-300) * 1e-7)
    R = LZ @ U
    X, info = _trtrs(LZ, U, lower=1, trans=1)
    _check_info(info, "trtrs", f"singular factor: zero on its diagonal at {info - 1}")
    sqrt_d = np.sqrt(d)
    return _sym((R / d) @ R.T), R / sqrt_d, X * sqrt_d, d


def _second_order(G, G_inv_T, d, dS, dZ):
    """Mehrotra's second-order term of a predictor step (dS, dZ), as G C G'.

    In the NT basis of `_nt_scaling` (S and Z both scale to D), the
    symmetrized complementarity of the full step keeps dS~ dZ~ + dZ~ dS~, with
    dS~ = G' dS G and dZ~ = G^-1 dZ G^-T.  C solves D C + C D = dS~ dZ~ + dZ~ dS~,
    C_ij = (dS~ dZ~ + dZ~ dS~)_ij / (d_i + d_j); mapped back by G, it is the
    amount the corrector takes off W^-1 Rc W^-1.
    """
    P = (G.T @ dS @ G) @ (G_inv_T.T @ dZ @ G_inv_T)
    return _sym(G @ ((P + P.T) / (d[:, None] + d)) @ G.T)


def sv_rank(s: np.ndarray, tol: float) -> int:
    """Number of singular values s (descending) above tol * s[0]; 0 for a zero matrix."""
    return int(np.sum(s > tol * s[0])) if s.size and s[0] > 0 else 0


def psd_split(A: np.ndarray, tol: float):
    """(w, U): the eigenpairs of symmetrized A above tol * lambda_max (`sv_rank`), ascending.

    None when A is 0x0 or lambda_max <= 0.  The other eigenvectors span the kernel.
    """
    w, U = np.linalg.eigh(_sym(A))
    k = len(w) - sv_rank(w[::-1], tol)
    return w[k:], U[:, k:]


def _rank_cutoff(A: np.ndarray) -> float:
    """The package's relative rank cutoff for A: max(max(A.shape) * eps, 1e-12)."""
    return max(max(A.shape) * np.finfo(float).eps, 1e-12)


# The pivot tolerance of `basic_solutions`: a column is a pivot when its part
# outside the span of the columns scanned before it has norm above
# PIVOT_TOL * max|E|.  It is absolute in the scale of E, where `_rank_cutoff`
# is relative to the largest singular value.
PIVOT_TOL = 1e-10


def _leading_columns(A: np.ndarray, tol: float) -> list:
    """Columns of A whose part outside the span of the columns before them exceeds tol.

    Divide and conquer: the right half is projected off the span of the left
    half's leading columns (one QR) and scanned the same way.
    """
    if not A.shape[1] or np.max(np.linalg.norm(A, axis=0)) <= tol:
        return []
    if A.shape[1] == 1:
        return [0]
    h = A.shape[1] // 2
    left = _leading_columns(A[:, :h], tol)
    Q = np.linalg.qr(A[:, left])[0]
    right = A[:, h:] - Q @ (Q.T @ A[:, h:])
    return left + [h + j for j in _leading_columns(right, tol)]


def basic_solutions(E: np.ndarray, h: np.ndarray):
    """Solutions of E x = h in basic coordinates: returns (x_p, N, pivots, residual).

    The reduced echelon form of E, its columns scanned from the last to the
    first: a column is a pivot when the columns after it do not span it
    (`PIVOT_TOL`); the others are basic.  The pivot entries of x are an affine
    function of the basic ones, x_P = x_p,P - X x_B, with x_p zero on the
    basic entries.  X and x_p come from one LU with partial pivoting of the
    pivot columns, in scan order, and two triangular solves, which is exact
    where the eliminations are, as on the sphere's relations and on
    x_i = x_i^2.  N is [I; -X] up to the row order, so z is the basic entries
    of x in ascending order; `pivots` masks the columns.  A residual above
    round-off means E x = h has no solution.
    """
    m = E.shape[1]
    scale = float(np.max(np.abs(E), initial=0.0))
    cols = m - 1 - np.array(_leading_columns(E[:, ::-1], PIVOT_TOL * scale), dtype=int)
    pivots = np.zeros(m, dtype=bool)
    pivots[cols] = True
    r = len(cols)
    P, L, U = scipy.linalg.lu(E[:, cols])
    rows = np.nonzero(P[:, :r].T)[1]  # E[rows][:, cols] = L[:r] U
    rhs = np.column_stack([h, E[:, ~pivots]])[rows]
    sol = scipy.linalg.solve_triangular(
        U, scipy.linalg.solve_triangular(L[:r], rhs, lower=True, unit_diagonal=True))
    x_p = np.zeros(m)
    x_p[cols] = sol[:, 0] + 0.0  # no -0.0 entries
    N = np.zeros((m, m - r))
    N[~pivots] = np.eye(N.shape[1])
    N[cols] = 0.0 - sol[:, 1:]  # 0.0 - X: no -0.0 entries
    return x_p, N, pivots, float(np.linalg.norm(E @ x_p - h))


def _max_step(L, dS, frac):
    """Largest alpha <= 1 with S + alpha*dS still positive definite (fraction-to-boundary).

    L is the lower Cholesky factor of S (`_chol`).  LAPACK sygst forms
    L^-1 dS L^-T in one call, and syevr finds its smallest eigenvalue only.
    Both read the lower triangle of symmetric dS.
    """
    _check_finite(dS)
    C, info = _sygst(dS, L, itype=1, lower=1)
    _check_info(info, "sygst", "sygst failed")
    if not np.isfinite(C).all():
        return 0.0  # L^-1 dS L^-T overflowed: no finite smallest eigenvalue
    lam, _, _, _, info = _syevr(C, compute_v=0, range="I", il=1, iu=1, lower=1)
    _check_info(info, "syevr", "syevr failed")
    lam_min = float(lam[0])
    if lam_min >= -1e-14:
        return 1.0
    return min(1.0, -frac / lam_min)


def _refine_primal(problem: SdpProblem, x: np.ndarray, Z: list, feas_tol: float, gap: float):
    """Project the primal iterate onto the optimal face identified by the dual.

    At optimality every primal block annihilates the range of its dual block:
    A_j(x) V_j = 0, V_j the eigenvectors of Z_j with non-vanishing eigenvalue,
    cuts out the optimal face E x = h.  The projection x - E^+ (E x - h)
    removes the O(sqrt(gap)) normal error but keeps the face position; it is
    returned only if it stays feasible and does not move the objective.
    """
    rows, rhs = [], []
    for blk, Zj in zip(problem.blocks, Z):
        w, V = psd_split(Zj, 1e-4)
        if not w.size or w[-1] <= 1e-7:
            continue
        # filled into zeros, not copied: products with E round differently in the
        # transposed layout, and np.empty's copy raised n=4, d=6 peak RSS by 1.5 MB
        E = np.zeros((V.size, problem.n_vars))
        E[:] = (blk.mats @ V).reshape(problem.n_vars, V.size).T
        rows.append(E)
        rhs.append(-(blk.F0 @ V).ravel())
    if not rows:
        return x
    E = np.vstack(rows)
    x_ref = x - np.linalg.lstsq(E, E @ x - np.concatenate(rhs), rcond=_rank_cutoff(E))[0]

    # accept only if every block stays PSD to feas_tol and the objective survives
    for blk in problem.blocks:
        if np.min(np.linalg.eigvalsh(_sym(blk.assemble(x_ref)))) < -feas_tol:
            return x
    # projecting a feasible iterate onto the optimal face can only lower the
    # objective (up to residual noise); a rise means the face was misread
    obj_shift = float(problem.c @ (x_ref - x))
    if obj_shift > 10.0 * max(gap, 0.0) + 1e-9 * (1.0 + abs(float(problem.c @ x))):
        return x
    return x_ref


@dataclass(frozen=True)
class _Iterate:
    """An iterate (x, S, Z) of `solve`, measured once by `_Iterate.measure`."""

    x: np.ndarray
    S: list
    Z: list
    Rp: list  # A_j(x) - S_j per block
    rd: np.ndarray  # c - A*(Z)
    pobj: float
    dobj: float
    pres: float  # max over blocks of ||Rp_j|| / (1 + ||F_j0||)
    dres: float  # ||rd|| / (1 + ||c||)
    gap: float  # sum over blocks of <S_j, Z_j>

    @classmethod
    def measure(cls, problem: SdpProblem, x, S, Z) -> "_Iterate":
        Rp = [blk.assemble(x) - Sj for blk, Sj in zip(problem.blocks, S)]
        rd = problem.c - problem.adjoint(Z)
        pres = max(np.linalg.norm(R) / (1.0 + np.linalg.norm(blk.F0))
                   for R, blk in zip(Rp, problem.blocks))
        return cls(x, S, Z, Rp, rd, float(problem.c @ x),
                   -sum(_inner(blk.F0, Zj) for blk, Zj in zip(problem.blocks, Z)), pres,
                   np.linalg.norm(rd) / (1.0 + np.linalg.norm(problem.c)),
                   sum(_inner(Sj, Zj) for Sj, Zj in zip(S, Z)))

    @property
    def mu(self) -> float:
        return self.gap / sum(len(Sj) for Sj in self.S)

    @property
    def relgap(self) -> float:
        return self.gap / (1.0 + abs(self.pobj) + abs(self.dobj))

    def within(self, tol: float) -> bool:
        return self.pres <= tol and self.dres <= tol and self.relgap <= tol


def _schur_factor(M: np.ndarray) -> np.ndarray:
    """Cholesky factor of the Schur matrix M, jittered on near-singularity.

    After a failure the jitter starts at 1e-14 * scale and grows 100-fold,
    scale the mean diagonal of M (at least 1).  LinAlgError past 1e-6 * scale.
    """
    scale = max(1.0, float(np.trace(M)) / max(len(M), 1))
    jitter = 0.0
    while jitter <= 1e-6 * scale:
        try:
            return _chol(M if jitter == 0.0 else M + jitter * np.eye(len(M)))
        except np.linalg.LinAlgError:
            jitter = 1e-14 * scale if jitter == 0.0 else jitter * 100.0
    raise np.linalg.LinAlgError(f"Schur matrix not positive definite at jitter 1e-6 * {scale:.2e}")


def _direction(problem: SdpProblem, pt: _Iterate, W_inv, Lm, AA_pinv, Rc, K):
    """Search direction (dx, dS, dZ) whose complementarity reads W^-1 Rc W^-1 - K per block.

    Lm is the Schur factor; dZ is corrected to A*(dZ) = rd (module docstring).
    """
    g = problem.adjoint([_sym(Wj_inv @ (Rcj - Rpj) @ Wj_inv) - Kj
                         for Wj_inv, Rcj, Rpj, Kj in zip(W_inv, Rc, pt.Rp, K)])
    dx = _chol_solve(Lm, g - pt.rd)
    dS, dZ = [], []
    for blk, Wj_inv, Rcj, Rpj, Kj in zip(problem.blocks, W_inv, Rc, pt.Rp, K):
        dSj = Rpj + blk.apply(dx)
        dZ.append(_sym(Wj_inv @ (Rcj - dSj) @ Wj_inv) - Kj)
        dS.append(_sym(dSj))
    w = AA_pinv @ (pt.rd - problem.adjoint(dZ))
    return dx, dS, [dZj + blk.apply(w) for blk, dZj in zip(problem.blocks, dZ)]


def _step(L: list, dX: list) -> float:
    """Largest fraction-to-boundary step keeping every block of X + a*dX PSD; L factors X."""
    return min(_max_step(Lj, dXj, STEP_FRAC) for Lj, dXj in zip(L, dX))


def _threshold_status(pt: _Iterate, zeta: float, stall_count: int):
    """(status, the test that fired) if a threshold test ends the run at pt, else None."""
    if not (np.isfinite(pt.mu) and np.isfinite(pt.pres) and np.isfinite(pt.dres)):
        return "IllConditioned", f"non-finite mu, pres or dres: {pt.mu}, {pt.pres}, {pt.dres}"
    znorm = max(np.linalg.norm(Zj) for Zj in pt.Z)  # a diverging dual ray: no feasible point
    if znorm > 1e10 * zeta and pt.pres > 1e2 * TOL:
        return "Infeasible", f"dual ray: max ||Z_j|| {znorm:.2e} > 1e10 zeta, pres {pt.pres:.2e}"
    if pt.mu < 1e-14 and pt.pres > 1e2 * TOL:
        return "Infeasible", f"mu floor: mu {pt.mu:.2e} < 1e-14, pres {pt.pres:.2e}"
    if stall_count >= 3:
        return ("Infeasible" if pt.pres > 1e2 * TOL else "IllConditioned",
                f"stall counter: 3 steps with max(ap, ad) < 1e-8, pres {pt.pres:.2e}")
    return None


def solve(problem: SdpProblem) -> SdpSolution:
    """Run the interior-point iteration; see module docstring for the method."""
    blocks = problem.blocks
    for j, blk in enumerate(blocks):
        log.debug("block %d: s %d, m %d, %d nonzeros, %s apply and adjoint",
                  j, blk.size, problem.n_vars, len(blk.nonzeros[0]), blk.product)
    zeta = 1.0 + float(np.max(np.abs(problem.c))) if problem.c.size else 1.0
    pt = _Iterate.measure(problem, np.zeros(problem.n_vars),
                          [np.eye(blk.size) * (1.0 + np.linalg.norm(blk.F0)) for blk in blocks],
                          [np.eye(blk.size) * zeta for blk in blocks])
    # the dual projection of every search direction
    AA = problem.schur([np.eye(blk.size) for blk in blocks])
    w, U = psd_split(AA, _rank_cutoff(AA))
    AA_pinv = (U / w) @ U.T
    del AA, w, U  # n_vars^2 each, not held through the iteration

    trace, loose, stall_count, it = [], None, 0, 0  # loose: first iterate within LOOSE_TOL
    status, reason = "MaxIter", f"MAX_ITER = {MAX_ITER} iterations"
    last_step = "starting point"  # the step that produced the iterate, for the log
    for it in range(1, MAX_ITER + 1):
        trace.append((pt.pobj, pt.dobj, pt.pres, pt.dres, pt.mu))
        log.debug("iter %3d  pobj %+.6e  dobj %+.6e  pres %.2e  dres %.2e  gap %.2e  %s",
                  it, pt.pobj, pt.dobj, pt.pres, pt.dres, pt.relgap, last_step)
        if pt.within(TOL):
            status = "Optimal"
            break
        if loose is None and pt.within(LOOSE_TOL):
            loose = pt
        ended = _threshold_status(pt, zeta, stall_count)
        if ended:
            status, reason = ended
            break
        # the factors of S and Z are a block's only ones per iterate (the NT scaling,
        # step lengths and Z^-1 read them); any failed factorization ends the run
        try:
            LS = [_chol(Sj, f"S_{j}: ") for j, Sj in enumerate(pt.S)]
            LZ = [_chol(Zj, f"Z_{j}: ") for j, Zj in enumerate(pt.Z)]
            nt = [_nt_scaling(LSj, LZj) for LSj, LZj in zip(LS, LZ)]
            W_inv = [ntj[0] for ntj in nt]
            Lm = _schur_factor(problem.schur(W_inv))
            # predictor: pure Newton step toward the boundary fixes the centering weight
            dx, dS, dZ = _direction(problem, pt, W_inv, Lm, AA_pinv,
                                    [-Sj for Sj in pt.S], [0.0] * len(blocks))
            ap, ad = _step(LS, dS), _step(LZ, dZ)
            gap_aff = sum(_inner(Sj + ap * dSj, Zj + ad * dZj)
                          for Sj, dSj, Zj, dZj in zip(pt.S, dS, pt.Z, dZ))
            sigma = min(1.0, max(1e-8, (max(gap_aff, 0.0) / pt.gap) ** 3))
            if pt.relgap < 0.1 * max(pt.pres, pt.dres):
                # gap has outrun feasibility: recenter fully so the next
                # iterations can take feasibility-restoring steps
                sigma = 1.0
            # corrector: recentered step with the predictor's second-order term,
            # Schur factorization reused
            Rc = [sigma * pt.mu * _chol_inv(LZj) - Sj for Sj, LZj in zip(pt.S, LZ)]
            second_order = min(ap, ad) >= SECOND_ORDER_MIN_STEP
            K = ([_second_order(G, G_inv_T, d, dSj, dZj)
                  for (_, G, G_inv_T, d), dSj, dZj in zip(nt, dS, dZ)]
                 if second_order else [0.0] * len(blocks))
            dx, dS, dZ = _direction(problem, pt, W_inv, Lm, AA_pinv, Rc, K)
            ap, ad = _step(LS, dS), _step(LZ, dZ)
        except np.linalg.LinAlgError as exc:
            status, reason = "IllConditioned", f"LinAlgError in the Newton step: {exc}"
            break
        last_step = (f"sigma {sigma:.1e}  ap {ap:.3f}  ad {ad:.3f}  "
                     f"second-order {'on' if second_order else 'off'}")
        stall_count = stall_count + 1 if max(ap, ad) < 1e-8 else 0
        pt = _Iterate.measure(problem, pt.x + ap * dx,
                              [_sym(Sj + ap * dSj) for Sj, dSj in zip(pt.S, dS)],
                              [_sym(Zj + ad * dZj) for Zj, dZj in zip(pt.Z, dZ)])

    accepted_loose = status != "Optimal" and loose is not None
    if status != "Optimal":
        log.debug("run ended %s after %d iterations: %s%s", status, it, reason,
                  "; accepted its first iterate within LOOSE_TOL" if accepted_loose else "")
    if accepted_loose:
        pt, status = loose, "Optimal"
    final = pt
    if status == "Optimal":
        # dual identifies the optimal face; project the primal iterate onto it
        x = _refine_primal(problem, pt.x, pt.Z, LOOSE_TOL if accepted_loose else TOL, pt.gap)
        final = _Iterate.measure(problem, x, [_sym(blk.assemble(x)) for blk in blocks], pt.Z)
    return SdpSolution(x=final.x, block_duals=final.Z, value=final.pobj, dual_value=final.dobj,
                       status=status, iterations=it,
                       gap=pt.gap / (1.0 + abs(final.pobj) + abs(final.dobj)),  # before refinement
                       primal_residual=float(final.pres), dual_residual=float(final.dres),
                       trace=trace, loose=accepted_loose)


def extract_dual_gram(sol: SdpSolution, block: int) -> np.ndarray:
    """Dual matrix of a block, eigenvalue-floored to the PSD cone.

    Only meaningful at optimality; any other status raises.
    """
    if sol.status != "Optimal":
        raise ValueError(f"dual Gram requested from a non-optimal solve (status {sol.status})")
    return psd_floor(sol.block_duals[block])


def psd_floor(A: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix to symmetric A (Frobenius): negative eigenvalues set to 0."""
    w, U = psd_split(A, 0.0)
    return _sym((U * w) @ U.T)


def export_sdpa(problem: SdpProblem, path) -> None:
    """Write the problem in SDPA sparse format (.dat-s).

    SDPA's convention is min c'x s.t. sum_i x_i F_i - F_0 PSD, so our block
    constants are written negated.
    """
    struct = [blk.size for blk in problem.blocks]
    lines = []
    lines.append(f"{problem.n_vars} = mDIM")
    lines.append(f"{len(struct)} = nBLOCK")
    lines.append(" ".join(str(s) for s in struct) + " = bLOCKsTRUCT")
    lines.append(" ".join(repr(float(v)) for v in problem.c))

    def emit(k, blk_no, mat):
        for i, j in zip(*np.nonzero(np.triu(mat))):
            lines.append(f"{k} {blk_no} {i+1} {j+1} {float(mat[i, j])!r}")

    for jb, blk in enumerate(problem.blocks, start=1):
        emit(0, jb, -blk.F0)
        for k, mat in enumerate(blk.mats, start=1):
            emit(k, jb, mat)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
