"""Measure-based upper bounds: SOS densities against a fixed reference measure.

u_d* minimizes the expected objective over degree-d SOS densities normalized
against a reference measure mu supported on K; it reduces to the smallest
generalized eigenvalue of the pencil (M_k(f mu), M_k(mu)), k = floor(d/2): the
moment matrices of the measures f*mu and mu.  One g = 1 localizing map gathers
both; their moments, and every integral of the density, come from
`_integrals`, one `ReferenceMeasure.moments` gather over an exponent array.
The optimal density is the square of the corresponding eigenvector, and its
first moments give a candidate point in conv(K).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .cone import SemialgebraicProblem
from .hierarchy import _gram_certificate, solve_moment_relaxation
from .extraction import candidate_minimizer
from .poly import MonomialBasis, Polynomial, _exponent_row, exponent_array, monomials_upto, r_dim

__all__ = [
    "ReferenceMeasure",
    "UpperBoundResult",
    "lebesgue_box_moments",
    "unit_ball_moments",
    "solve_upper_bound",
    "estimator_from_density",
    "is_sos_convex",
    "convex_cost_bound",
]


def lebesgue_box_moments(n: int, degree: int) -> dict:
    """Exact moments of Lebesgue measure on [-1,1]^n up to total degree `degree`."""
    basis = MonomialBasis(n, degree)
    return dict(zip(basis.exponents, ReferenceMeasure.box(n).moments(basis.exps).tolist()))


def unit_ball_moments(n: int, degree: int) -> dict:
    """Exact moments of Lebesgue measure on the unit ball (Gamma-ratio closed form)."""
    basis = MonomialBasis(n, degree)
    return dict(zip(basis.exponents, ReferenceMeasure.ball(n).moments(basis.exps).tolist()))


class ReferenceMeasure:
    """Moments of the reference measure of the upper-bound hierarchy.

    Kinds: 'box' (Lebesgue on [-1,1]^n), 'ball' (Lebesgue on the unit ball),
    'table' (user-supplied finite moment table, searched by graded-lex rank:
    a dict {alpha: y_alpha} or (alpha, y_alpha) pairs, each exponent once).
    Box and ball moments multiply one per-degree factor table over the
    coordinates (the ball's then divide by a total-degree factor) in any degree;
    tables raise beyond their stated degree.  Every kind rejects an exponent
    that is not n nonnegative integers (`poly.exponent_array`), and a table
    rejects a NaN or infinite moment or a repeated exponent; each ValueError
    names the exponent.
    """

    def __init__(self, kind: str, n: int, table: dict | list | None = None):
        if kind not in ("box", "ball", "table"):
            raise ValueError(f"unknown reference measure kind {kind!r}")
        self.kind = kind
        self.n = n
        self.max_degree = math.inf
        if kind == "table":
            if not table:
                raise ValueError("table kind needs a nonempty moment table")
            pairs = list(table.items() if isinstance(table, dict) else table)
            exps = np.concatenate([exponent_array(_exponent_row(a), n) for a, _ in pairs])
            values = np.array([v for _, v in pairs], float)
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise ValueError(f"moment of exponent {tuple(exps[bad[0]].tolist())} "
                                 f"is not finite: {values[bad[0]]}")
            self.max_degree = int(exps.sum(-1).max())
            ranks = MonomialBasis.rank(exps)
            order = np.argsort(ranks)
            self._ranks, self._values = ranks[order], values[order]
            dup = np.flatnonzero(self._ranks[1:] == self._ranks[:-1])
            if dup.size:
                count = np.count_nonzero(ranks == self._ranks[dup[0]])
                raise ValueError(f"moment table has {count} entries for exponent "
                                 f"{tuple(exps[order[dup[0]]].tolist())}")

    @staticmethod
    def box(n: int) -> "ReferenceMeasure":
        return ReferenceMeasure("box", n)

    @staticmethod
    def ball(n: int) -> "ReferenceMeasure":
        return ReferenceMeasure("ball", n)

    @staticmethod
    def from_json(path_or_dict) -> "ReferenceMeasure":
        d = path_or_dict
        if not isinstance(d, dict):
            with open(path_or_dict) as fh:
                d = json.load(fh)
        pairs = [(t["alpha"], float(t["y"])) for t in d["values"]]
        return ReferenceMeasure("table", int(d["n"]), table=pairs)

    def moments(self, exps) -> np.ndarray:
        """Moments at every row of a nonnegative integer exponent array of shape (..., n)."""
        e = exponent_array(exps, self.n)
        degree = e.sum(-1)
        if self.kind == "table":
            if degree.max(initial=0) > self.max_degree:
                raise ValueError(f"moment table covers degree {self.max_degree}, "
                                 f"asked {degree.max()}")
            ranks = MonomialBasis.rank(e)
            pos = np.searchsorted(self._ranks, ranks)
            missing = self._ranks.take(pos, mode="clip") != ranks
            if missing.any():
                raise ValueError(f"moment table of degree {self.max_degree} has no entry "
                                 f"for exponent {tuple(e[missing][0].tolist())}")
            return self._values[pos]
        a = np.arange(e.max(initial=0) + 1)
        if self.kind == "box":
            factor = np.where(a % 2, 0.0, 2.0 / (a + 1))
        else:
            factor = np.array([0.0 if k % 2 else math.gamma((k + 1) / 2) for k in a.tolist()])
        values = factor[e[..., 0]]
        for i in range(1, self.n):
            values *= factor[e[..., i]]
        if self.kind == "ball":
            t = np.arange(self.n, self.n + degree.max(initial=0) + 1)
            values = 2.0 * values / (t * np.array([math.gamma(s / 2) for s in t.tolist()]))[degree]
        return values

    def moment(self, alpha) -> float:
        return float(self.moments(_exponent_row(alpha))[0])

    def integrate(self, p: Polynomial) -> float:
        return float(_integrals(self, np.zeros((1, self.n), dtype=np.int64), p)[0])

    def in_support_hull(self, x, tol: float = 1e-6):
        """Membership of x in conv(supp) for the closed-form kinds, None for tables."""
        x = np.asarray(x, dtype=float)
        if self.kind == "box":
            return bool(np.all(np.abs(x) <= 1.0 + tol))
        if self.kind == "ball":
            return bool(np.linalg.norm(x) <= 1.0 + tol)
        return None


@dataclass(frozen=True)
class UpperBoundResult:
    d: int
    u_d_star: float
    sigma: Polynomial        # optimal SOS density (a single square), integral 1
    x_check: np.ndarray      # density-weighted first moments
    feasible: bool | None    # x_check in conv(supp mu), None when unknowable
    cost: float              # expected objective under sigma (equals u_d_star)


def _integrals(mu: ReferenceMeasure, rows, p: Polynomial) -> np.ndarray:
    """Integral of x^row * p against mu for each row of an integer exponent array (m, n).

    One `mu.moments` gather over the (row, term) exponent sums, then one
    matrix-vector product with p's coefficients.
    """
    if p.n != mu.n:
        raise ValueError("dimension mismatch")
    exps, coeffs = p._arrays
    return mu.moments(rows[:, None, :] + exps[None]) @ coeffs


def solve_upper_bound(f: Polynomial, mu: ReferenceMeasure, d: int) -> UpperBoundResult:
    """Best degree-d SOS-density upper bound on min f over supp(mu).

    Smallest generalized eigenvalue of the pencil (M_k(f mu), M_k(mu)), k =
    floor(d/2): the g = 1 localizing map gathers both moment matrices from the
    moments of f*mu and of mu.  The eigenvector squared (B-normalized) is the
    density.
    """
    if f.n != mu.n:
        raise ValueError("dimension mismatch")
    if d < 0:
        raise ValueError(f"level {d} is negative")
    k, one = d // 2, Polynomial.constant(1.0, mu.n)
    pairs = MonomialBasis(mu.n, 2 * k)
    loc = pairs.localizing_map(pairs.exps[:r_dim(mu.n, k)], one)
    A = loc.gather(_integrals(mu, pairs.exps, f))
    B = loc.gather(_integrals(mu, pairs.exps, one))
    try:
        # eigh's own Cholesky of B is the positive-definiteness test; only the
        # smallest eigenpair is computed
        w, V = sla.eigh(A, B, subset_by_index=[0, 0])
    except np.linalg.LinAlgError:
        raise ValueError("reference moment matrix is not positive definite") from None
    u_star = float(w[0])
    q = V[:, 0]
    norm2 = float(q @ B @ q)
    q = q / math.sqrt(norm2)
    # sigma = q(x)^2 = v'(q q')v: the adjoint of the g = 1 localizing map
    sigma = Polynomial.from_coeffs(pairs, loc.adjoint(np.outer(q, q)))
    x_check, cost, in_hull = estimator_from_density(f, sigma, mu)
    return UpperBoundResult(
        d=d,
        u_d_star=u_star,
        sigma=sigma,
        x_check=x_check,
        feasible=in_hull,
        cost=cost,
    )


def estimator_from_density(f: Polynomial, sigma: Polynomial, mu: ReferenceMeasure):
    """Density-weighted barycenter x_check, its cost, and a conv(supp) flag."""
    if f.n != mu.n or sigma.n != mu.n:
        raise ValueError("dimension mismatch")
    n = mu.n
    # integrals[t] = integral of x^rows[t] * sigma: rows are 1, x_1..x_n, then f's terms
    f_exps, f_coeffs = f._arrays
    rows = np.concatenate([np.zeros((1, n), dtype=np.int64), np.eye(n, dtype=np.int64), f_exps])
    integrals = _integrals(mu, rows, sigma)
    mass = float(integrals[0])
    if abs(mass - 1.0) > 1e-8:
        raise ValueError(f"density is not normalized: integral {mass}")
    x_check = integrals[1:n + 1]
    cost = float(f_coeffs @ integrals[n + 1:])
    in_hull = mu.in_support_hull(x_check)
    return x_check, cost, in_hull


def is_sos_convex(f: Polynomial, d_cert: int | None = None):
    """Test whether the Hessian quadratic form y'D2f(x)y is SOS in (x,y).

    The certifying rows are {y_i x^beta}.  The test is the trace-normalized
    moment SDP of `hierarchy._gram_certificate` over the moments that the
    block's entries reach: SOS when min L(form) >= -MEMBERSHIP_TOL subject to
    L(sum of the squared rows) = 1, and the certificate's Gram is then the
    dual block plus the dual optimum times I.  (False, None) otherwise, also
    when the form has a monomial that no product of two rows reaches.  An
    affine f has a zero Hessian form: (True, None), with no SDP.
    """
    n = f.n
    if d_cert is None:
        d_cert = f.degree
    # scalarized Hessian over doubled variables (x_1..x_n, y_1..y_n), summed in one term map
    grads = [f.partial(i) for i in range(n)]
    terms = {}
    for i in range(n):
        for j in range(n):
            for alpha, c in grads[i].partial(j).terms.items():
                key = list(alpha) + [0] * n
                key[n + i] += 1
                key[n + j] += 1
                t = tuple(key)
                terms[t] = terms.get(t, 0.0) + c
    target = Polynomial._result(2 * n, terms.items())
    if target.is_zero():
        return True, None
    kx = max(0, (d_cert - 2 + 1) // 2)
    rows = []
    for i in range(n):
        for beta in monomials_upto(n, kx):
            rows.append(tuple(beta) + tuple(int(i == j) for j in range(n)))
    basis = MonomialBasis(2 * n, max(2 * max(sum(a) for a in rows), target.degree))
    # the Hessian form has no equality constraints, so no multipliers enter
    hess = SemialgebraicProblem(n=2 * n, objective=target)
    one = Polynomial.constant(1.0, 2 * n)
    return _gram_certificate(hess, target, basis, [(np.array(rows), one)], "SOS test SDP")


def convex_cost_bound(prob: SemialgebraicProblem, d: int, f_star: float | None = None) -> dict:
    """Candidate-minimizer quality report for SOS-convex objectives.

    For convex problems the first-order pseudo-moments of the level-d
    relaxation are already a near-minimizer; the report carries the candidate,
    its objective value, the lower bound, and the gap to a known optimum, all
    in the problem's own coordinates.
    """
    convex, cert = is_sos_convex(prob.objective)
    if not convex:
        raise ValueError("objective is not SOS-convex")
    res = solve_moment_relaxation(prob, d)
    x_cand = candidate_minimizer(res.pseudo_moments)
    f_at = prob.objective(x_cand)
    if not f_at <= res.m_d_star + 1e-6:
        raise RuntimeError("convex candidate exceeded the lower bound")
    return {
        "d": d,
        "m_d_star": res.m_d_star,
        "x_candidate": x_cand,
        "f_at_candidate": f_at,
        "gap_to_optimum": (None if f_star is None else f_star - f_at),
        "sos_convex_certificate": cert,
        "assumed_bounded_degree_representation": True,
    }
