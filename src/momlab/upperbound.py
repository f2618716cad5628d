"""Measure-based upper bounds: SOS densities against a fixed reference measure.

u_d* minimizes the expected objective over degree-d SOS densities normalized
against a reference measure mu supported on K; it reduces to the smallest
generalized eigenvalue of the pencil (M_k(f mu), M_k(mu)), k = floor(d/2): the
moment matrices of the measures f*mu and mu.  One g = 1 localizing map gathers
both; their moments, and every integral of the density, come from
`_integrals`.  The optimal density is the square of the corresponding
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
    degree; tables raise beyond their stated degree.  Every kind rejects an
    exponent that is not n nonnegative integers.
    """

    def __init__(self, kind: str, n: int, table: dict | None = None):
        if kind not in ("box", "ball", "table"):
            raise ValueError(f"unknown reference measure kind {kind!r}")
        self.kind = kind
        self.n = n
        if kind == "table":
            if table is None:
                raise ValueError("table kind needs a moment table")
            self.table = {self._exponent(a, "moment table exponent"): float(v)
                          for a, v in table.items()}
            self.max_degree = max(sum(a) for a in self.table)
        else:
            self.table = None
            self.max_degree = math.inf
        self._cache = {}

    def _exponent(self, alpha, what: str) -> tuple:
        """alpha as a tuple of ints; ValueError unless it is n nonnegative integers."""
        key = tuple(map(int, alpha))
        if len(key) != self.n or key != tuple(alpha) or min(key, default=0) < 0:
            raise ValueError(f"{what} {tuple(alpha)} needs {self.n} nonnegative integer entries")
        return key

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
        key = tuple(alpha)
        if key not in self._cache:
            alpha = self._exponent(key, "moment exponent")
            if sum(alpha) > self.max_degree:
                raise ValueError(f"moment table covers degree {self.max_degree}, "
                                 f"asked {sum(alpha)}")
            closed_form = _CLOSED_FORM.get(self.kind)
            if closed_form is None and alpha not in self.table:
                raise ValueError(f"moment table of degree {self.max_degree} has no entry "
                                 f"for exponent {alpha}")
            self._cache[key] = closed_form(alpha) if closed_form else self.table[alpha]
        return self._cache[key]

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


def _integrals(mu: ReferenceMeasure, rows, p: Polynomial) -> np.ndarray:
    """Integral of x^row * p against mu for each row of an integer exponent array (m, n).

    mu is asked once per distinct exponent sum row + term; one matrix-vector
    product with p's coefficients sums the terms.
    """
    exps = rows[:, None, :] + np.array(list(p.terms), dtype=np.int64).reshape(1, -1, mu.n)
    ranks = MonomialBasis.rank(exps).ravel()
    _, first, inverse = np.unique(ranks, return_index=True, return_inverse=True)
    distinct = np.array([mu.moment(a) for a in exps.reshape(-1, mu.n)[first].tolist()])
    moments = distinct[inverse].reshape(exps.shape[:-1])
    return moments @ np.array(list(p.terms.values()), dtype=float)


def solve_upper_bound(f: Polynomial, mu: ReferenceMeasure, d: int) -> UpperBoundResult:
    """Best degree-d SOS-density upper bound on min f over supp(mu).

    Smallest generalized eigenvalue of the pencil (M_k(f mu), M_k(mu)), k =
    floor(d/2): the g = 1 localizing map gathers both moment matrices from the
    moments of f*mu and of mu.  The eigenvector squared (B-normalized) is the
    density.
    """
    if f.n != mu.n:
        raise ValueError("dimension mismatch")
    k, one = d // 2, Polynomial.constant(1.0, mu.n)
    pairs = MonomialBasis(mu.n, 2 * k)
    loc = pairs.localizing_map(MonomialBasis(mu.n, k).exps, one)
    A = loc.gather(_integrals(mu, pairs.exps, f))
    B = loc.gather(_integrals(mu, pairs.exps, one))
    try:
        # eigh's own Cholesky of B is the positive-definiteness test
        w, V = sla.eigh(A, B)
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
    rows = np.concatenate([np.zeros((1, n), dtype=np.int64), np.eye(n, dtype=np.int64),
                           np.array(list(f.terms), dtype=np.int64).reshape(-1, n)])
    integrals = _integrals(mu, rows, sigma)
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
