"""Dense primal-dual interior-point solver for small block-diagonal SDPs.

Problem form (minimization convention used throughout the package):

    minimize    c' x
    subject to  A_j(x) = F_j0 + sum_i x_i F_ji  PSD   for each block j

There are no linear equality constraints: callers eliminate them before the
solve by affine substitution x = x_p + N z, which keeps the blocks strictly
feasible.  Every such elimination, and every null space in the package, comes
from the one helper `affine_solutions` (one SVD gives x_p and N) with the one
rank rule `sv_rank`.

How the coefficient matrices F_ji are stored is known only to `SdpBlock`:
its `apply` (sum_i x_i F_ji), `adjoint` (<F_ji, Z>) and `schur`
(<F_ji, W^-1 F_jk W^-1>) are the only code in the iteration that reads
`mats`.  `apply` and `adjoint` are one matrix-vector product each and
`schur` one GEMM over the flattened (m, s*s) `mats`.

The solver is an infeasible-start path-following method with Nesterov-Todd
scaling and a Mehrotra-style adaptive centering step (predictor solve fixes
sigma, corrector solve reuses the same Schur factorization).  Everything is
dense; blocks at desk scale are at most a few hundred rows.  The iteration is
fully deterministic: fixed order, no randomized pivoting.  Each iterate's
S_j and Z_j are Cholesky-factored once, and the predictor's and the
corrector's step lengths both reuse those factors.  A block whose
factorization fails has left the positive definite cone: no step can move it
again, so the run ends there `IllConditioned`.  The blocks are small, so the
loop's cost is per-call overhead more than arithmetic: every triangular solve
is one direct LAPACK `trtrs` call (`_tri_solve`) that keeps scipy's checks (a
non-finite operand raises ValueError, a zero pivot LinAlgError), and every
Frobenius inner product one dot product (`_inner`).

Stopping rule: `Optimal` at the first iterate with relative residuals and
gap <= TOL (1e-8).  A run that ends any other way returns its first iterate
within LOOSE_TOL (1e-7), if it had one, as `Optimal` with `loose=True`; no
second solve runs, and `iterations` and `trace` cover the whole run.  A run
that ends MaxIter or IllConditioned with no such iterate gets a dual snap:
its best iterate's Z is moved by the minimum-norm correction that makes
A*(Z) = c exactly, and if every block stays positive definite and the
residuals and gap are then within LOOSE_TOL, that dual-feasible (up to
round-off) iterate is returned as `Optimal` with `loose=True`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

__all__ = [
    "SdpBlock",
    "SdpProblem",
    "SdpSolution",
    "solve",
    "extract_dual_gram",
    "psd_floor",
    "affine_solutions",
    "sv_rank",
    "export_sdpa",
]

log = logging.getLogger("momlab.sdp")


@dataclass
class SdpBlock:
    """One affine PSD block: F0 + sum over k of x[var_idx[k]] * mats[k].

    A block with no variables (empty `var_idx`, `mats` of shape (0, s, s)) is
    a constant PSD constraint.
    """

    F0: np.ndarray
    var_idx: np.ndarray  # (m_act,) indices into the decision vector
    mats: np.ndarray  # (m_act, s, s) symmetric coefficient matrices

    def __post_init__(self):
        self.F0 = np.asarray(self.F0, dtype=float)
        self.var_idx = np.asarray(self.var_idx, dtype=int)
        # C order once, so the flattened (m_act, s*s) view below never copies
        self.mats = np.ascontiguousarray(self.mats, dtype=float)
        if self.mats.ndim == 2:
            self.mats = self.mats.reshape((0,) + self.F0.shape)

    @property
    def size(self) -> int:
        return self.F0.shape[0]

    @property
    def flat_mats(self) -> np.ndarray:
        """mats as an (m_act, s*s) matrix; explicit sizes, since m_act may be 0."""
        return self.mats.reshape(self.mats.shape[0], self.size * self.size)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """sum over k of x[var_idx[k]] * mats[k]."""
        return (x[self.var_idx] @ self.flat_mats).reshape(self.size, self.size)

    def adjoint(self, Z: np.ndarray) -> np.ndarray:
        """<mats[k], Z> for every k: the block's share of A*(Z) on var_idx."""
        return self.flat_mats @ Z.ravel()

    def schur(self, W_inv: np.ndarray) -> np.ndarray:
        """<mats[i], W_inv mats[j] W_inv>: the block's Schur complement on var_idx.

        One batched product and one GEMM (Fujisawa, Kojima & Nakata 1997).
        """
        U = (W_inv @ self.mats @ W_inv).reshape(self.flat_mats.shape)
        return self.flat_mats @ U.T

    def assemble(self, x: np.ndarray) -> np.ndarray:
        return self.F0 + self.apply(x)


@dataclass
class SdpProblem:
    n_vars: int
    c: np.ndarray
    blocks: list

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)


MAX_ITER = 200
STEP_FRAC = 0.99  # fraction of the distance to the PSD boundary a step may cover
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


def _eigh_sqrt(A):
    """(U, r) with A^(1/2) = U diag(r) U', eigenvalues floored at 1e-14 of the largest."""
    w, U = np.linalg.eigh(A)
    floor = max(w[-1], 1e-300) * 1e-14
    return U, np.sqrt(np.clip(w, floor, None))


def _nt_scaling_inv(S, Z):
    """Inverse of the Nesterov-Todd scaling point W with W Z W = S."""
    U, r = _eigh_sqrt(S)
    Sh, Sh_inv = (U * r) @ U.T, (U / r) @ U.T
    V, t = _eigh_sqrt(_sym(Sh @ Z @ Sh))
    return _sym(Sh_inv @ ((V * t) @ V.T) @ Sh_inv)


def _inner(A, B):
    """Frobenius inner product <A, B> as one (1, n) by (n, 1) dot product."""
    return float(np.dot(A.reshape(1, -1), B.reshape(-1, 1))[0, 0])


_trtrs, = get_lapack_funcs(("trtrs",), (np.empty((1, 1)),))


def _tri_solve(L, B, trans=0):
    """L^-1 B (trans=0) or L^-T B (trans=1) for lower-triangular L, by LAPACK trtrs.

    The same LAPACK call scipy.linalg's triangular solver makes for L (lower)
    or L.T (upper), without its per-call wrapper, and with its checks: a
    non-finite operand raises ValueError, a zero on the diagonal LinAlgError.
    LAPACK reads Fortran order, so a matrix that is not Fortran-contiguous
    goes in as its transpose, with the triangle and `trans` flipped.
    """
    if not (np.isfinite(L).all() and np.isfinite(B).all()):
        raise ValueError("array must not contain infs or NaNs")
    if B.size == 0:
        return np.empty_like(B)
    A, lower = (L.T, 0) if trans else (L, 1)
    if A.flags.f_contiguous:
        X, info = _trtrs(A, B, lower=lower, trans=0)
    else:
        X, info = _trtrs(A.T, B, lower=1 - lower, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return X


def sv_rank(s: np.ndarray, tol: float) -> int:
    """Number of singular values s (descending) above tol * s[0]; 0 for a zero matrix."""
    return int(np.sum(s > tol * s[0])) if s.size and s[0] > 0 else 0


def affine_solutions(E: np.ndarray, h: np.ndarray):
    """Solutions of E x = h as x_p + N z: returns (x_p, N, ||E x_p - h||).

    One SVD of E gives both parts.  With r the numerical rank (singular
    values above max(max(E.shape) * eps, 1e-12) times the largest),
    x_p = V_r S_r^-1 U_r' h is the minimum-norm least-squares solution and the
    orthonormal columns of N = V[:, r:] span the null space of E.  A residual
    above round-off means E x = h has no solution.
    """
    u, s, vt = np.linalg.svd(E, full_matrices=E.shape[0] < E.shape[1])
    r = sv_rank(s, max(max(E.shape) * np.finfo(float).eps, 1e-12))
    x_p = vt[:r].T @ ((u[:, :r].T @ h) / s[:r])
    return x_p, vt[r:].T, float(np.linalg.norm(E @ x_p - h))


def _max_step(L, dS, frac):
    """Largest alpha <= 1 with S + alpha*dS still positive definite (fraction-to-boundary).

    L is the lower Cholesky factor of S.
    """
    A = _tri_solve(L, dS)
    A = _tri_solve(L, A.T)
    lam_min = float(np.min(np.linalg.eigvalsh(_sym(A))))
    if not np.isfinite(lam_min):
        return 0.0
    if lam_min >= -1e-14:
        return 1.0
    return min(1.0, -frac / lam_min)


def _refine_primal(problem: SdpProblem, x: np.ndarray, Z: list, feas_tol: float, gap: float):
    """Project the primal iterate onto the optimal face identified by the dual.

    At optimality every primal block annihilates the range of its dual block,
    so the equations A_j(x) v = 0 (v an eigenvector of Z_j with non-vanishing
    eigenvalue) cut out the optimal face.  Projecting the iterate onto that
    affine set removes the O(sqrt(gap)) normal error while keeping the
    tangential (face) position.  The refined point is returned only if it
    stays feasible and does not move the objective.
    """
    nv = problem.n_vars
    rows, rhs = [], []
    for blk, Zj in zip(problem.blocks, Z):
        w, U = np.linalg.eigh(_sym(Zj))
        lam_max = w[-1]
        if lam_max <= 1e-7:
            continue
        V = U[:, w > 1e-4 * lam_max]
        # rows: for each active eigenvector v, (F_ji v) coefficients, rhs -F_j0 v
        for k in range(V.shape[1]):
            v = V[:, k]
            E = np.zeros((blk.size, nv))
            E[:, blk.var_idx] = (blk.mats @ v).T
            rows.append(E)
            rhs.append(-blk.F0 @ v)
    if not rows:
        return x
    x_p, null, _ = affine_solutions(np.vstack(rows), np.concatenate(rhs))
    # move back toward the iterate within the null space of the face equations
    x_ref = x_p + null @ (null.T @ (x - x_p))

    # accept only if feasibility and objective survive
    for blk in problem.blocks:
        if np.min(np.linalg.eigvalsh(_sym(blk.assemble(x_ref)))) < -10 * feas_tol * (
            1.0 + np.linalg.norm(blk.F0)
        ):
            return x
    # projecting a feasible iterate onto the optimal face can only lower the
    # objective (up to residual noise); a rise means the face was misread
    obj_shift = float(problem.c @ (x_ref - x))
    if obj_shift > 10.0 * max(gap, 0.0) + 1e-9 * (1.0 + abs(float(problem.c @ x))):
        return x
    return x_ref


def solve(problem: SdpProblem) -> SdpSolution:
    """Run the interior-point iteration; see module docstring for the method."""
    nv = problem.n_vars
    c = problem.c
    blocks = problem.blocks

    dim_total = sum(blk.size for blk in blocks)
    x = np.zeros(nv)
    S = [np.eye(blk.size) * (1.0 + np.linalg.norm(blk.F0)) for blk in blocks]
    zeta = 1.0 + float(np.max(np.abs(c))) if c.size else 1.0
    Z = [np.eye(blk.size) * zeta for blk in blocks]

    c_scale = 1.0 + np.linalg.norm(c)
    f0_scale = [1.0 + np.linalg.norm(blk.F0) for blk in blocks]

    trace = []
    status = "MaxIter"
    stall_count = 0
    it = 0
    # the loop rebinds x, S and Z each step, so best and loose hold references
    best = None  # (score, x, S, Z) of the most feasible/converged iterate seen
    loose = None  # (x, S, Z) of the first iterate within LOOSE_TOL

    def adjoint(Zs):
        out = np.zeros(nv)
        for blk, Zj in zip(blocks, Zs):
            out[blk.var_idx] += blk.adjoint(Zj)
        return out

    def measure(x, S, Z):
        """Residuals and objectives of an iterate: (Rp, rd, pobj, dobj, pres, dres)."""
        Rp = [blk.assemble(x) - Sj for blk, Sj in zip(blocks, S)]
        rd = c - adjoint(Z)
        pobj = float(c @ x)
        dobj = -sum(_inner(blk.F0, Zj) for blk, Zj in zip(blocks, Z))
        pres = max(np.linalg.norm(R) / fs for R, fs in zip(Rp, f0_scale))
        dres = np.linalg.norm(rd) / c_scale
        return Rp, rd, pobj, dobj, pres, dres

    def step(Ls, dXs):
        """Largest fraction-to-boundary step keeping every block of Xs + a*dXs PSD.

        Ls are the Cholesky factors of the blocks of Xs.
        """
        return min(_max_step(Lj, dXj, STEP_FRAC) for Lj, dXj in zip(Ls, dXs))

    schur_idx = [np.ix_(blk.var_idx, blk.var_idx) for blk in blocks]

    def schur(W_inv):
        """M[i, k] = sum over blocks of <F_ji, W_j^-1 F_jk W_j^-1>."""
        M = np.zeros((nv, nv))
        for blk, idx, Wj_inv in zip(blocks, schur_idx, W_inv):
            M[idx] += blk.schur(Wj_inv)
        return _sym(M)

    for it in range(1, MAX_ITER + 1):
        Rp, rd, pobj, dobj, pres, dres = measure(x, S, Z)
        gap = sum(_inner(Sj, Zj) for Sj, Zj in zip(S, Z))
        mu = gap / dim_total
        relgap = gap / (1.0 + abs(pobj) + abs(dobj))
        trace.append((pobj, dobj, pres, dres, mu))
        log.debug("iter %3d  pobj %+.6e  dobj %+.6e  pres %.2e  dres %.2e  gap %.2e",
                  it, pobj, dobj, pres, dres, relgap)

        score = max(pres, dres, relgap)
        if np.isfinite(score) and (best is None or score < best[0]):
            best = (score, x, S, Z)

        if pres <= TOL and dres <= TOL and relgap <= TOL:
            status = "Optimal"
            break
        if loose is None and pres <= LOOSE_TOL and dres <= LOOSE_TOL and relgap <= LOOSE_TOL:
            loose = (x, S, Z)
        if not (np.isfinite(mu) and np.isfinite(pres) and np.isfinite(dres)):
            status = "IllConditioned"
            break
        znorm = max(np.linalg.norm(Zj) for Zj in Z)
        if znorm > 1e10 * zeta and pres > 1e2 * TOL:
            # dual ray diverging while primal residual is stuck: no feasible point
            status = "Infeasible"
            break
        if mu < 1e-14 and pres > 1e2 * TOL:
            status = "Infeasible"
            break
        if stall_count >= 3:
            status = "Infeasible" if pres > 1e2 * TOL else "IllConditioned"
            break
        # one factorization per block and iterate, shared by both step lengths;
        # a block that has left the PD cone would take step 0 from here on
        try:
            LS = [np.linalg.cholesky(Sj) for Sj in S]
            LZ = [np.linalg.cholesky(Zj) for Zj in Z]
        except np.linalg.LinAlgError:
            status = "IllConditioned"
            break

        # Nesterov-Todd scalings and Schur complement
        W_inv = [_nt_scaling_inv(Sj, Zj) for Sj, Zj in zip(S, Z)]
        M = schur(W_inv)

        # dense Cholesky with escalating jitter on near-singularity
        scale = max(1.0, float(np.trace(M)) / max(nv, 1))
        Lm = None
        jitter = 0.0
        for attempt in range(8):
            try:
                Lm = np.linalg.cholesky(M + jitter * np.eye(nv))
                break
            except np.linalg.LinAlgError:
                jitter = 1e-14 * scale if jitter == 0.0 else jitter * 100.0
        if Lm is None or jitter > 1e-6 * scale:
            status = "IllConditioned"
            break

        def m_solve(rhs):
            return _tri_solve(Lm, _tri_solve(Lm, rhs), trans=1)

        def direction(Rc):
            g = adjoint([_sym(Wj_inv @ (Rcj - Rpj) @ Wj_inv)
                         for Wj_inv, Rcj, Rpj in zip(W_inv, Rc, Rp)])
            dx = m_solve(g - rd)
            dS, dZ = [], []
            for blk, Wj_inv, Rcj, Rpj in zip(blocks, W_inv, Rc, Rp):
                dSj = Rpj + blk.apply(dx)
                dZ.append(_sym(Wj_inv @ (Rcj - dSj) @ Wj_inv))
                dS.append(_sym(dSj))
            return dx, dS, dZ

        # predictor: pure Newton step toward the boundary fixes the centering weight
        dx_a, dS_a, dZ_a = direction([-Sj for Sj in S])
        ap, ad = step(LS, dS_a), step(LZ, dZ_a)
        gap_aff = sum(
            _inner(Sj + ap * dSj, Zj + ad * dZj)
            for Sj, dSj, Zj, dZj in zip(S, dS_a, Z, dZ_a)
        )
        sigma = min(1.0, max(1e-8, (max(gap_aff, 0.0) / gap) ** 3))
        if relgap < 0.1 * max(pres, dres):
            # gap has outrun feasibility: recenter fully so the next
            # iterations can take feasibility-restoring steps
            sigma = 1.0

        # corrector: recentered step, Schur factorization reused
        try:
            Rc = [_sym(sigma * mu * np.linalg.inv(Zj) - Sj) for Sj, Zj in zip(S, Z)]
        except np.linalg.LinAlgError:
            status = "IllConditioned"
            break
        dx, dS, dZ = direction(Rc)
        ap, ad = step(LS, dS), step(LZ, dZ)

        if max(ap, ad) < 1e-8:
            stall_count += 1
        else:
            stall_count = 0

        x = x + ap * dx
        S = [_sym(Sj + ap * dSj) for Sj, dSj in zip(S, dS)]
        Z = [_sym(Zj + ad * dZj) for Zj, dZj in zip(Z, dZ)]

    accepted_loose = status != "Optimal" and loose is not None
    if accepted_loose:
        x, S, Z = loose
        status = "Optimal"
    elif status != "Optimal" and status != "Infeasible" and best is not None:
        _, x, S, Z = best
        # Stalls end with pres and gap tiny but A*(Z) drifted from c.  Snap Z
        # back with the minimum-norm correction sum_i w_i F_i, (A A*) w = rd;
        # if every block stays positive definite, Z is dual feasible.
        w, _, _ = affine_solutions(schur([np.eye(blk.size) for blk in blocks]), c - adjoint(Z))
        Z_snap = [_sym(Zj + blk.apply(w)) for blk, Zj in zip(blocks, Z)]
        _, _, pobj, dobj, pres, dres = measure(x, S, Z_snap)
        gap = sum(_inner(Sj, Zj) for Sj, Zj in zip(S, Z_snap))
        if (max(pres, dres, gap / (1.0 + abs(pobj) + abs(dobj))) <= LOOSE_TOL
                and all(np.linalg.eigvalsh(Zj)[0] > 0.0 for Zj in Z_snap)):
            Z, status, accepted_loose = Z_snap, "Optimal", True
    gap = sum(_inner(Sj, Zj) for Sj, Zj in zip(S, Z))
    if status == "Optimal":
        # dual identifies the optimal face; snap the primal iterate onto it
        x = _refine_primal(problem, x, Z, LOOSE_TOL if accepted_loose else TOL, gap)
        S = [_sym(blk.assemble(x)) for blk in blocks]
    _, _, pobj, dobj, pres, dres = measure(x, S, Z)
    return SdpSolution(
        x=x,
        block_duals=Z,
        value=pobj,
        dual_value=dobj,
        status=status,
        iterations=it,
        gap=gap / (1.0 + abs(pobj) + abs(dobj)),
        primal_residual=float(pres),
        dual_residual=float(dres),
        trace=trace,
        loose=accepted_loose,
    )


def extract_dual_gram(sol: SdpSolution, block: int) -> np.ndarray:
    """Dual matrix of a block, eigenvalue-floored to the PSD cone.

    Only meaningful at optimality; any other status raises.
    """
    if sol.status != "Optimal":
        raise ValueError(f"dual Gram requested from a non-optimal solve (status {sol.status})")
    return psd_floor(sol.block_duals[block])


def psd_floor(A: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix to symmetric A (Frobenius): negative eigenvalues set to 0."""
    w, U = np.linalg.eigh(_sym(A))
    return _sym((U * np.clip(w, 0.0, None)) @ U.T)


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
        for i in range(mat.shape[0]):
            for j in range(i, mat.shape[1]):
                v = mat[i, j]
                if v != 0.0:
                    lines.append(f"{k} {blk_no} {i+1} {j+1} {float(v)!r}")

    for jb, blk in enumerate(problem.blocks, start=1):
        emit(0, jb, -blk.F0)
        for kk, vi in enumerate(blk.var_idx):
            emit(int(vi) + 1, jb, blk.mats[kk])
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
