"""Measure-based upper bounds: SOS densities against a fixed reference measure.

u_d* minimizes the expected objective over degree-d SOS densities normalized
against a reference measure supported on K; it reduces to the smallest
generalized eigenvalue of the pair (A, B) of f-weighted and plain moment
matrices.  The optimal density is the square of the corresponding
eigenvector, and its first moments give a candidate point in conv(K).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .cone import SemialgebraicProblem
from .hierarchy import _certificate, phase1_gram, solve_moment_relaxation
from .extraction import candidate_minimizer
from .poly import MonomialBasis, Polynomial, monomials_upto

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


def _box_moment(alpha) -> float:
    val = 1.0
    for a in alpha:
        val *= (1.0 + (-1.0) ** a) / (a + 1)
    return val


def _ball_moment(alpha) -> float:
    if any(a % 2 for a in alpha):
        return 0.0
    beta = [(a + 1) / 2 for a in alpha]
    num = 2.0 * math.prod(math.gamma(bi) for bi in beta)
    return num / ((sum(alpha) + len(alpha)) * math.gamma(sum(beta)))


_CLOSED_FORM = {"box": _box_moment, "ball": _ball_moment}


def lebesgue_box_moments(n: int, degree: int) -> dict:
    """Exact moments of Lebesgue measure on [-1,1]^n up to total degree `degree`."""
    return {alpha: _box_moment(alpha) for alpha in monomials_upto(n, degree)}


def unit_ball_moments(n: int, degree: int) -> dict:
    """Exact moments of Lebesgue measure on the unit ball (Gamma-ratio closed form)."""
    return {alpha: _ball_moment(alpha) for alpha in monomials_upto(n, degree)}


class ReferenceMeasure:
    """Moment oracle for the reference measure of the upper-bound hierarchy.

    Kinds: 'box' (Lebesgue on [-1,1]^n), 'ball' (Lebesgue on the unit ball),
    'table' (user-supplied finite moment table).  Closed-form kinds answer any
    degree; tables raise beyond their stated degree.
    """

    def __init__(self, kind: str, n: int, table: dict | None = None, max_degree: int | None = None):
        if kind not in ("box", "ball", "table"):
            raise ValueError(f"unknown reference measure kind {kind!r}")
        if kind == "table":
            if table is None:
                raise ValueError("table kind needs a moment table")
            for a in table:
                if len(a) != n or any(x < 0 or x != int(x) for x in a):
                    raise ValueError(f"moment table exponent {tuple(a)} needs {n} "
                                     f"nonnegative integer entries")
            self.table = {tuple(int(x) for x in a): float(v) for a, v in table.items()}
            self.max_degree = max_degree if max_degree is not None else max(
                sum(a) for a in self.table
            )
        else:
            self.table = None
            self.max_degree = math.inf
        self.kind = kind
        self.n = n
        self._cache = {}

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
        table = {tuple(t["alpha"]): float(t["y"]) for t in d["values"]}
        return ReferenceMeasure("table", int(d["n"]), table=table)

    def moment(self, alpha) -> float:
        alpha = tuple(int(a) for a in alpha)
        if sum(alpha) > self.max_degree:
            raise ValueError(f"moment table covers degree {self.max_degree}, asked {sum(alpha)}")
        if alpha not in self._cache:
            closed_form = _CLOSED_FORM.get(self.kind)
            if closed_form is None and alpha not in self.table:
                raise ValueError(f"moment table of degree {self.max_degree} has no entry "
                                 f"for exponent {alpha}")
            self._cache[alpha] = closed_form(alpha) if closed_form else self.table[alpha]
        return self._cache[alpha]

    def integrate(self, p: Polynomial) -> float:
        return float(sum(c * self.moment(a) for a, c in p.terms.items()))

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


def _moments(mu: ReferenceMeasure, exps) -> np.ndarray:
    """mu's moment at each exponent of an integer array (..., n), asked once per distinct one."""
    exps = np.asarray(exps, dtype=np.int64)
    ranks = MonomialBasis.rank(exps).ravel()
    _, first, inverse = np.unique(ranks, return_index=True, return_inverse=True)
    distinct = np.array([mu.moment(a) for a in exps.reshape(-1, mu.n)[first].tolist()])
    return distinct[inverse].reshape(exps.shape[:-1])


def _moment_pencil(f: Polynomial, mu: ReferenceMeasure, k: int):
    basis = MonomialBasis(mu.n, k)
    full = MonomialBasis(mu.n, 2 * k + f.degree)
    loc_A = full.localizing_map(basis.exps, f)
    loc_B = full.localizing_map(basis.exps, Polynomial.constant(1.0, mu.n))
    # ask the measure only for the moments the pencil uses
    used = np.zeros(len(full), dtype=bool)
    used[loc_A.idx] = used[loc_B.idx] = True
    moments = np.zeros(len(full))
    moments[used] = _moments(mu, full.exps[used])
    return loc_A.gather(moments), loc_B.gather(moments), loc_B, full


def solve_upper_bound(f: Polynomial, mu: ReferenceMeasure, d: int) -> UpperBoundResult:
    """Best degree-d SOS-density upper bound on min f over supp(mu).

    Smallest generalized eigenvalue of (A, B) over the monomial basis of
    degree floor(d/2); the eigenvector squared (B-normalized) is the density.
    """
    if f.n != mu.n:
        raise ValueError("dimension mismatch")
    A, B, loc_B, full = _moment_pencil(f, mu, d // 2)
    try:
        np.linalg.cholesky(B + 1e-12 * np.eye(len(B)))
    except np.linalg.LinAlgError:
        raise ValueError("reference moment matrix is not positive definite") from None
    w, V = sla.eigh(A, B)
    u_star = float(w[0])
    q = V[:, 0]
    norm2 = float(q @ B @ q)
    q = q / math.sqrt(norm2)
    # sigma = q(x)^2 = v'(q q')v: the adjoint of the g = 1 localizing map
    sigma = Polynomial.from_coeffs(full, loc_B.adjoint(np.outer(q, q)))
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
    """Density-weighted barycenter x_check, its cost, and a conv(supp) flag.

    Every integral of g * sigma (g = 1, x_1..x_n and the terms of f) is a sum
    over term pairs of coefficient products times the moment at the exponent sum.
    """
    if f.n != mu.n or sigma.n != mu.n:
        raise ValueError("dimension mismatch")
    n = mu.n
    exps = np.array(list(sigma.terms), dtype=np.int64).reshape(-1, n)
    coeffs = np.array(list(sigma.terms.values()), dtype=float)
    # integrals[t] = integral of x^rows[t] * sigma: rows are 1, x_1..x_n, then f's terms
    rows = np.concatenate([np.zeros((1, n), dtype=np.int64), np.eye(n, dtype=np.int64),
                           np.array(list(f.terms), dtype=np.int64).reshape(-1, n)])
    integrals = _moments(mu, rows[:, None, :] + exps[None, :, :]) @ coeffs
    mass = float(integrals[0])
    if abs(mass - 1.0) > 1e-8:
        raise ValueError(f"density is not normalized: integral {mass}")
    x_check = integrals[1:n + 1]
    cost = float(np.array(list(f.terms.values()), dtype=float) @ integrals[n + 1:])
    in_hull = mu.in_support_hull(x_check)
    return x_check, cost, in_hull


def is_sos_convex(f: Polynomial, d_cert: int | None = None):
    """Test whether the Hessian quadratic form y'D2f(x)y is SOS in (x,y).

    The certifying basis is {y_i x^beta}; the Gram is returned on success.
    Degree <= 1 objectives are trivially convex.
    """
    n = f.n
    if f.degree <= 1:
        return True, None
    if d_cert is None:
        d_cert = f.degree
    # scalarized Hessian over doubled variables (x_1..x_n, y_1..y_n)
    target = Polynomial.zero(2 * n)
    for i in range(n):
        for j in range(n):
            hij = f.partial(i).partial(j)
            for alpha, c in hij.terms.items():
                key = list(alpha) + [0] * n
                key[n + i] += 1
                key[n + j] += 1
                t = tuple(key)
                target = target + Polynomial(2 * n, {t: c})
    if target.is_zero():
        return True, None
    kx = max(0, (d_cert - 2 + 1) // 2)
    rows = []
    for i in range(n):
        for beta in monomials_upto(n, kx):
            rows.append(tuple(beta) + tuple(int(i == j) for j in range(n)))
    basis = MonomialBasis(2 * n, max(2 * max(sum(a) for a in rows), target.degree))
    one = Polynomial.constant(1.0, 2 * n)
    grams = phase1_gram(basis, [(rows, one)], target.coeff_vector(basis), what="SOS test SDP")
    if grams is None:
        return False, None
    # the Hessian form has no equality constraints, so no multipliers enter
    hess = SemialgebraicProblem(n=2 * n, objective=target)
    return True, _certificate(hess, target, 0.0, basis, (tuple(rows),), (one,), grams)


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
