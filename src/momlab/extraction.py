"""Flatness detection, atom extraction, atom polishing, candidate minimizers, pruning.

A flat pseudo-moment sequence is the moment sequence of an atomic measure;
the atoms are recovered through the eigenstructure of multiplication (shift)
matrices on the column space of the moment matrix, and the weights by solving
the resulting Vandermonde moment system.  Atoms read off an epsilon-optimal
relaxation are only as accurate as the solve; `polish_atoms` moves them onto
nearby KKT points of the problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .cone import PseudoMomentSequence, SemialgebraicProblem, moment_matrix
from .poly import MonomialBasis, r_dim
from .sdp import basic_solutions, psd_split, sv_rank

__all__ = [
    "AtomicMeasure",
    "FlatnessReport",
    "check_flatness",
    "extract_atoms",
    "polish_atoms",
    "candidate_minimizer",
    "tchakaloff_prune",
    "rank_profile",
]


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite measure sum_j weights[j] * delta_{atoms[j]}; weights positive."""

    atoms: np.ndarray   # (k, n)
    weights: np.ndarray  # (k,)

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        weights = np.asarray(self.weights, dtype=float).ravel()
        if atoms.shape[0] != weights.shape[0]:
            raise ValueError("atom/weight count mismatch")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return self.atoms.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @property
    def mass(self) -> float:
        return float(np.sum(self.weights))

    def is_probability(self, tol: float = 1e-8) -> bool:
        return abs(self.mass - 1.0) <= tol

    def moments(self, order: int) -> PseudoMomentSequence:
        return PseudoMomentSequence.from_atoms(self.atoms, self.weights, order)

    def integrate(self, f) -> float:
        return float(sum(w * f(x) for w, x in zip(self.weights, self.atoms)))


@dataclass(frozen=True)
class FlatnessReport:
    d: int
    r: int
    rank_full: int
    rank_truncated: int
    singular_values_full: np.ndarray
    singular_values_truncated: np.ndarray
    is_flat: bool
    tol: float


def _check_rank_tol(name: str, tol: float) -> None:
    """Raise ValueError naming `name` unless 0 < tol < 1 (a relative rank threshold)."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"{name}={tol} must lie in (0, 1)")


def check_flatness(y: PseudoMomentSequence, d: int, r: int, tol: float = 1e-6) -> FlatnessReport:
    """Compare rank of the order-d moment matrix against the (r-step) truncation.

    The truncated matrix drops ceil(r/2) orders, so its certified products lose
    total degree r; equal numerical ranks mean the sequence extends flatly and
    an atomic representing measure exists.  The truncated matrix is the
    leading r(n, d - ceil(r/2)) block of the order-d one, since graded-lex
    order puts the lower degrees first.  Singular values above tol times the
    largest count toward a rank.  Flatness also needs the order-d matrix's
    eigenvalues >= -tol times the largest (y = (1, 0, -1, 0, 1) has ranks 2, 2).

    Raises ValueError for a step r < 1 (the two matrices would be the same
    or the truncation larger) or r > d, and for a tol outside (0, 1), where
    both ranks would be 0.
    """
    if r < 1:
        raise ValueError(f"flatness step r={r} must be at least 1")
    _check_rank_tol("tol", tol)
    if r > d:
        raise ValueError(f"flatness step r={r} exceeds matrix order d={d}")
    if 2 * d > y.order:
        raise ValueError(f"flatness at order {d} needs moments to degree {2*d} > {y.order}")
    M = moment_matrix(y, d).M
    lam = np.linalg.eigvalsh(M)
    sf = np.sort(np.abs(lam))[::-1]
    m = r_dim(y.n, d - (r + 1) // 2)
    st = np.linalg.svd(M[:m, :m], compute_uv=False)
    rank_f, rank_t = sv_rank(sf, tol), sv_rank(st, tol)
    return FlatnessReport(
        d=d,
        r=r,
        rank_full=rank_f,
        rank_truncated=rank_t,
        singular_values_full=sf,
        singular_values_truncated=st,
        is_flat=bool(rank_f == rank_t and lam[0] >= -tol * sf[0]),
        tol=tol,
    )


def extract_atoms(y: PseudoMomentSequence, d: int, rank_tol: float = 1e-6) -> AtomicMeasure:
    """Recover an atomic measure from a flat order-d moment matrix.

    Factor M = P'P, pick a pivot set of low-degree monomial columns (pivoted
    QR), form per-coordinate shift matrices on that column space, and read the
    atoms off a joint diagonalization: the Schur vectors of one seeded random
    convex combination of the shifts.  Weights then solve the moment system.
    Retries with fresh combinations (deterministic seeds) up to 5 times.
    Eigenvalues of M above rank_tol times the largest span the column space;
    a rank_tol outside (0, 1) raises ValueError.
    """
    _check_rank_tol("rank_tol", rank_tol)
    n = y.n
    w, U = psd_split(moment_matrix(y, d).M, rank_tol)
    if not w.size:
        raise ValueError("zero moment matrix")
    rank = len(w)
    P = np.sqrt(w)[:, None] * U.T  # (rank, r(n, d)), M = P'P; columns lead y.basis

    low = r_dim(n, d - 1) if d > 0 else 0  # columns of degree <= d - 1 lead the rest
    if low < rank:
        raise ValueError("column space exceeds the shift-closed monomials; not flat")
    _, _, piv = sla.qr(P[:, :low], pivoting=True)
    pivots = piv[:rank]
    V = P[:, pivots]
    if np.linalg.cond(V) > 1e10:
        raise ValueError("ill-conditioned pivot basis (borderline flatness)")

    shifts = [
        np.linalg.solve(V, P[:, y.basis.indices(y.basis.exps[pivots] + unit)])
        for unit in np.eye(n, dtype=np.int64)
    ]

    comm = max(
        (np.linalg.norm(A @ B - B @ A) for A in shifts for B in shifts), default=0.0
    )
    scale = 1.0 + max(np.linalg.norm(A) for A in shifts)
    if comm > 1e-5 * scale * scale:
        raise ValueError("shift matrices do not commute; flatness precondition violated")

    y_full = y.y
    last_err = None
    for attempt in range(5):
        rng = np.random.default_rng(1234 + attempt)
        coeffs = rng.uniform(size=n)
        coeffs /= coeffs.sum()
        N = sum(c * Ni for c, Ni in zip(coeffs, shifts))
        T, Q = sla.schur(N, output="real")
        sub = np.abs(np.diag(T, -1)) if rank > 1 else np.zeros(0)
        if sub.size and np.max(sub) > 1e-7 * (1.0 + np.max(np.abs(T))):
            last_err = ValueError("complex eigenvalue cluster in shift combination")
            continue
        atoms = np.array(
            [[float(Q[:, j] @ Ni @ Q[:, j]) for Ni in shifts] for j in range(rank)]
        )
        Phi = y.basis.eval_matrix(atoms).T
        weights, *_ = np.linalg.lstsq(Phi, y_full, rcond=None)
        resid = float(np.linalg.norm(Phi @ weights - y_full))
        if resid > 1e-5 * (1.0 + np.linalg.norm(y_full)) or np.any(weights <= 1e-10):
            last_err = ValueError(
                f"moment system residual {resid:.2e} / nonpositive weight; retrying"
            )
            continue
        return AtomicMeasure(atoms=atoms, weights=weights)
    raise last_err or ValueError("atom extraction failed")


ACTIVE_TOL = 1e-3  # by default an inequality g with g(atom) <= ACTIVE_TOL is held at g = 0


def polish_atoms(prob: SemialgebraicProblem, atoms, active_tol: float = ACTIVE_TOL) -> np.ndarray:
    """Each row of `atoms` moved to a nearby KKT point of min f over K.

    The active set is read at the atom: every equality h, and every
    inequality g with g(atom) <= active_tol.  Newton's method then solves
    grad f = sum_a lam_a grad c_a, c_a = 0 over the active c_a for (x, lam),
    from the atom and the least-squares multipliers there.  Each step is a
    least-squares solve, so a singular KKT matrix (more active constraints
    than variables, a degenerate minimizer) does not stop it; it stops when
    the KKT residual no longer falls, or after 20 steps, and keeps the
    iterate of smallest residual.  From an atom that is epsilon-optimal, the
    iteration reaches round-off where a first-order method stops near
    sqrt(epsilon).

    The value, gradient and Hessian of f and of every constraint are
    coefficient rows over one monomial basis, formed once per call, so an
    iterate costs one basis evaluation and one matrix product.  Nothing here
    checks that a polished point lies in K or improves f; callers decide.
    """
    atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
    n = prob.n
    polys = [prob.objective, *prob.constraints, *prob.equalities]
    basis = MonomialBasis(n, max(p.degree for p in polys))
    rows = []  # per polynomial: itself, its n first and n*n second partials
    for p in polys:
        grad = [p.partial(i) for i in range(n)]
        rows.append([p, *grad, *(gi.partial(j) for gi in grad for j in range(n))])
    C = np.array([[q.coeff_vector(basis) for q in r] for r in rows])  # (P, 1 + n + n*n, len)
    n_ineq = len(prob.constraints)

    def derivs(x):
        T = C @ basis.eval_matrix(x[None])[0]
        return T[:, 0], T[:, 1:1 + n], T[:, 1 + n:].reshape(-1, n, n)

    out = atoms.copy()
    for k, x0 in enumerate(atoms):
        val, grad, _ = derivs(x0)
        # polynomial 0 is f; the active constraints are polynomials 1 + act
        act = 1 + np.flatnonzero((val[1:] <= active_tol) | (np.arange(len(polys) - 1) >= n_ineq))
        lam = np.linalg.lstsq(grad[act].T, grad[0], rcond=None)[0]
        x, best, best_res = x0, x0, np.inf
        for _ in range(20):  # from an atom the residual stops falling in 2-13 steps
            val, grad, hess = derivs(x)
            G = grad[act]
            F = np.concatenate([grad[0] - lam @ G, val[act]])
            res = float(np.linalg.norm(F))
            if not res < best_res:
                break
            best, best_res = x, res
            H = hess[0] - np.tensordot(lam, hess[act], axes=1)
            J = np.block([[H, -G.T], [G, np.zeros((len(act), len(act)))]])
            step = np.linalg.lstsq(J, -F, rcond=None)[0]
            x, lam = x + step[:n], lam + step[n:]
        out[k] = best
    return out


def candidate_minimizer(y: PseudoMomentSequence) -> np.ndarray:
    """First-order pseudo-moments (L(X_1),...,L(X_n)), in the coordinates of y.

    No feasibility is implied; low levels routinely place this point outside K.
    """
    if abs(y.value((0,) * y.n) - 1.0) > 1e-6:
        raise ValueError("candidate minimizer needs a normalized sequence (y_0 = 1)")
    return np.array([y.value(tuple(int(i == j) for j in range(y.n))) for i in range(y.n)])


def tchakaloff_prune(mu: AtomicMeasure, t: int) -> AtomicMeasure:
    """Reduce an atomic measure to at most r(n,t) atoms with identical moments <= t.

    Iterated Caratheodory steps: find a null vector of the atoms' moment-vector
    matrix, slide the weights along it until one hits zero, drop that atom.
    """
    basis = MonomialBasis(mu.n, t)
    l = len(basis)
    atoms = mu.atoms.copy()
    weights = mu.weights.copy()
    while atoms.shape[0] > l:
        # more atoms than monomials, so a null vector exists; any one gives a valid step
        _, null, _, _ = basic_solutions(basis.eval_matrix(atoms).T, np.zeros(l))
        c = null[:, -1]
        if np.max(c) < np.max(-c):
            c = -c
        mask = c > 1e-14
        ratios = weights[mask] / c[mask]
        tau = float(np.min(ratios))
        weights = weights - tau * c
        # the argmin ratio atom hits zero exactly; clear it and any round-off dust
        weights[np.where(mask)[0][int(np.argmin(ratios))]] = 0.0
        keep = weights > 1e-14 * max(1.0, float(np.max(weights)))
        atoms = atoms[keep]
        weights = weights[keep]
    return AtomicMeasure(atoms=atoms, weights=weights)


def rank_profile(mu: AtomicMeasure, d_max: int) -> list:
    """Numerical ranks of the measure's moment matrices for d = 0..d_max,
    each the leading r(n, d) block of the order-d_max matrix."""
    M = moment_matrix(mu.moments(2 * d_max), d_max).M
    return [sv_rank(np.linalg.svd(M[:m, :m], compute_uv=False), 1e-6)
            for m in (r_dim(mu.n, d) for d in range(d_max + 1))]
