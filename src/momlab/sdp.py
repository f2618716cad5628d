"""Dense primal-dual interior-point solver for small block-diagonal SDPs.

Problem form (minimization convention used throughout the package):

    minimize    c' x
    subject to  A_j(x) = F_j0 + sum_i x_i F_ji  PSD   for each block j

There are no linear equality constraints: callers eliminate them before the
solve by affine substitution x = x_p + N z, which keeps the blocks strictly
feasible.

How the coefficient matrices F_ji are stored is known only to `SdpBlock`:
its `apply` (sum_i x_i F_ji), `adjoint` (<F_ji, Z>) and `schur`
(<F_ji, W^-1 F_jk W^-1>) are the only code in the iteration that reads
`mats`.

The solver is an infeasible-start path-following method with Nesterov-Todd
scaling and a Mehrotra-style adaptive centering step (predictor solve fixes
sigma, corrector solve reuses the same Schur factorization).  Everything is
dense; blocks at desk scale are at most a few hundred rows.  The iteration is
fully deterministic: fixed order, no randomized pivoting.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

__all__ = [
    "SdpBlock",
    "SdpProblem",
    "SdpOptions",
    "SdpSolution",
    "solve",
    "extract_dual_gram",
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
        self.mats = np.asarray(self.mats, dtype=float)
        if self.mats.ndim == 2:
            self.mats = self.mats.reshape((0,) + self.F0.shape)

    @property
    def size(self) -> int:
        return self.F0.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """sum over k of x[var_idx[k]] * mats[k]."""
        return np.tensordot(x[self.var_idx], self.mats, axes=1)

    def adjoint(self, Z: np.ndarray) -> np.ndarray:
        """<mats[k], Z> for every k: the block's share of A*(Z) on var_idx."""
        return np.einsum("kab,ab->k", self.mats, Z)

    def schur(self, W_inv: np.ndarray) -> np.ndarray:
        """<mats[i], W_inv mats[j] W_inv>: the block's Schur complement on var_idx."""
        U = np.einsum("ab,kbc,cd->kad", W_inv, self.mats, W_inv)
        return np.einsum("iab,jab->ij", self.mats, U)

    def assemble(self, x: np.ndarray) -> np.ndarray:
        return self.F0 + self.apply(x)


@dataclass
class SdpProblem:
    n_vars: int
    c: np.ndarray
    blocks: list

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)

    @property
    def block_sizes(self):
        return [blk.size for blk in self.blocks]


@dataclass
class SdpOptions:
    gap_tol: float = 1e-8
    feas_tol: float = 1e-8


MAX_ITER = 200
STEP_FRAC = 0.99  # fraction of the distance to the PSD boundary a step may cover


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


def _sym(A):
    return 0.5 * (A + A.T)


def _eigh_sqrt(A):
    w, U = np.linalg.eigh(A)
    floor = max(w[-1], 1e-300) * 1e-14
    w = np.clip(w, floor, None)
    return (U * np.sqrt(w)) @ U.T, (U / np.sqrt(w)) @ U.T


def _nt_scaling_inv(S, Z):
    """Inverse of the Nesterov-Todd scaling point W with W Z W = S."""
    Sh, Sh_inv = _eigh_sqrt(S)
    T = _sym(Sh @ Z @ Sh)
    Th, _ = _eigh_sqrt(T)
    return _sym(Sh_inv @ Th @ Sh_inv)


def svd_rank(A: np.ndarray, rtol: float = 0.0):
    """Full SVD of A and its numerical rank: (U, Vt, rank).

    Singular values count toward the rank above max(max(A.shape) * eps, rtol)
    times the largest one, so U[:, :rank] spans the range of A, U[:, rank:]
    its left null space and Vt[rank:].T its null space.
    """
    u, s, vt = np.linalg.svd(A, full_matrices=True)
    s_max = s[0] if s.size else 0.0
    tol = max(max(A.shape) * np.finfo(float).eps * s_max, rtol * s_max)
    return u, vt, int(np.sum(s > tol))


def _max_step(S, dS, frac):
    """Largest alpha <= 1 with S + alpha*dS still positive definite (fraction-to-boundary)."""
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return 0.0
    A = sla.solve_triangular(L, dS, lower=True)
    A = sla.solve_triangular(L, A.T, lower=True)
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
        if V.shape[1] == 0:
            continue
        # rows: for each active eigenvector v, (F_ji v) coefficients, rhs -F_j0 v
        for k in range(V.shape[1]):
            v = V[:, k]
            E = np.zeros((blk.size, nv))
            E[:, blk.var_idx] = (blk.mats @ v).T
            rows.append(E)
            rhs.append(-blk.F0 @ v)
    if not rows:
        return x
    E = np.vstack(rows)
    h = np.concatenate(rhs)
    x_p, *_ = np.linalg.lstsq(E, h, rcond=None)
    # move back toward the iterate within the null space of the face equations
    _, vt, rank = svd_rank(E)
    null = vt[rank:].T
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


def solve(problem: SdpProblem, opts: SdpOptions | None = None) -> SdpSolution:
    """Run the interior-point iteration; see module docstring for the method."""
    opts = opts or SdpOptions()
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
    best = None  # (score, x, S, Z) of the most feasible/converged iterate seen

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
        dobj = -sum(float(np.tensordot(blk.F0, Zj)) for blk, Zj in zip(blocks, Z))
        pres = max(np.linalg.norm(R) / fs for R, fs in zip(Rp, f0_scale))
        dres = np.linalg.norm(rd) / c_scale
        return Rp, rd, pobj, dobj, pres, dres

    def step(Xs, dXs):
        """Largest fraction-to-boundary step keeping every block of Xs + a*dXs PSD."""
        return min(_max_step(Xj, dXj, STEP_FRAC) for Xj, dXj in zip(Xs, dXs))

    for it in range(1, MAX_ITER + 1):
        Rp, rd, pobj, dobj, pres, dres = measure(x, S, Z)
        gap = sum(float(np.tensordot(Sj, Zj)) for Sj, Zj in zip(S, Z))
        mu = gap / dim_total
        relgap = gap / (1.0 + abs(pobj) + abs(dobj))
        trace.append((pobj, dobj, pres, dres, mu))
        log.debug("iter %3d  pobj %+.6e  dobj %+.6e  pres %.2e  dres %.2e  gap %.2e",
                  it, pobj, dobj, pres, dres, relgap)

        score = max(pres, dres, relgap)
        if np.isfinite(score) and (best is None or score < best[0]):
            best = (score, x.copy(), [Sj.copy() for Sj in S], [Zj.copy() for Zj in Z])

        if pres <= opts.feas_tol and dres <= opts.feas_tol and relgap <= opts.gap_tol:
            status = "Optimal"
            break
        if not (np.isfinite(mu) and np.isfinite(pres) and np.isfinite(dres)):
            status = "IllConditioned"
            break
        znorm = max(np.linalg.norm(Zj) for Zj in Z)
        if znorm > 1e10 * zeta and pres > 1e2 * opts.feas_tol:
            # dual ray diverging while primal residual is stuck: no feasible point
            status = "Infeasible"
            break
        if mu < 1e-14 and pres > 1e2 * opts.feas_tol:
            status = "Infeasible"
            break
        if stall_count >= 3:
            status = "Infeasible" if pres > 1e2 * opts.feas_tol else "IllConditioned"
            break

        # Nesterov-Todd scalings and Schur complement
        W_inv = [_nt_scaling_inv(Sj, Zj) for Sj, Zj in zip(S, Z)]
        M = np.zeros((nv, nv))
        for blk, Wj_inv in zip(blocks, W_inv):
            M[np.ix_(blk.var_idx, blk.var_idx)] += blk.schur(Wj_inv)
        M = _sym(M)

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
            u = sla.solve_triangular(Lm, rhs, lower=True)
            return sla.solve_triangular(Lm.T, u, lower=False)

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
        ap, ad = step(S, dS_a), step(Z, dZ_a)
        gap_aff = sum(
            float(np.tensordot(Sj + ap * dSj, Zj + ad * dZj))
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
        ap, ad = step(S, dS), step(Z, dZ)

        if max(ap, ad) < 1e-8:
            stall_count += 1
        else:
            stall_count = 0

        x = x + ap * dx
        S = [_sym(Sj + ap * dSj) for Sj, dSj in zip(S, dS)]
        Z = [_sym(Zj + ad * dZj) for Zj, dZj in zip(Z, dZ)]

    if status != "Optimal" and status != "Infeasible" and best is not None:
        _, x, S, Z = best
    gap = sum(float(np.tensordot(Sj, Zj)) for Sj, Zj in zip(S, Z))
    if status == "Optimal":
        # dual identifies the optimal face; snap the primal iterate onto it
        x = _refine_primal(problem, x, Z, opts.feas_tol, gap)
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
    )


def extract_dual_gram(sol: SdpSolution, block: int) -> np.ndarray:
    """Dual matrix of a block, eigenvalue-floored to the PSD cone.

    Only meaningful at optimality; any other status raises.
    """
    if sol.status != "Optimal":
        raise ValueError(f"dual Gram requested from a non-optimal solve (status {sol.status})")
    Z = _sym(sol.block_duals[block])
    w, U = np.linalg.eigh(Z)
    w = np.clip(w, 0.0, None)
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
