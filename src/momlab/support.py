"""Support estimation from (pseudo-)moments.

Two routes: sublevel sets of the Christoffel-Darboux kernel diagonal
K(x,x) = v(x)' M^{-1} v(x), which blows up polynomially fast off the support,
and an outer approximation from even-power moment growth ("power method"):
x can only be in the support if |q(x)| <= sup_n L(q^{2n})^{1/(2n)} for every
test polynomial q.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cone import PseudoMomentSequence, moment_matrix
from .poly import (EVAL_BLOCK, MonomialBasis, Polynomial, box_grid, eval_monomials,
                   monomials_upto, r_dim)
from .sdp import psd_split

__all__ = [
    "CdKernel",
    "SupportGrid",
    "cd_kernel",
    "cd_threshold",
    "cd_support_grid",
    "power_method_margin",
    "default_power_family",
]


@dataclass(frozen=True)
class CdKernel:
    """Diagonal-evaluable Christoffel-Darboux kernel K(x,y) = v(x)'M^+ v(y).

    `factor` is F with M^+ = F'F, so K(x,x) = ||F v(x)||^2 >= 0.  `singular`
    flags the pseudo-inverse branch (rank-deficient moment matrix, e.g.
    moments of an atomic measure), where sublevel-set guarantees degrade.
    """

    d: int
    factor: np.ndarray
    basis: MonomialBasis
    rank: int
    singular: bool

    def __call__(self, x, z=None) -> float:
        vx = self.factor @ self.basis.eval_vector(x)
        if z is None:
            return float(vx @ vx)
        return float(vx @ (self.factor @ self.basis.eval_vector(z)))

    def diag(self, points: np.ndarray) -> np.ndarray:
        """K(x, x) at each row of `points`, in blocks of `EVAL_BLOCK` points."""
        points = np.atleast_2d(points)
        out = np.empty(points.shape[0])
        for start in range(0, points.shape[0], EVAL_BLOCK):
            vx = self.basis.eval_matrix(points[start:start + EVAL_BLOCK]) @ self.factor.T
            out[start:start + EVAL_BLOCK] = np.sum(vx * vx, axis=1)
        return out


def cd_kernel(y: PseudoMomentSequence, d: int, pinv_tol: float = 1e-8) -> CdKernel:
    """Kernel of the order-d moment matrix, pseudo-inverted below pinv_tol (relative)."""
    M = moment_matrix(y, d)
    w, U, _ = psd_split(M.M, pinv_tol)
    if not w.size:
        raise ValueError("moment matrix is zero; kernel undefined")
    F = np.ascontiguousarray((1.0 / np.sqrt(w)[:, None]) * U.T)  # row-major, as __call__ reads
    return CdKernel(d=d, factor=F, basis=M.basis, rank=len(w), singular=len(w) < M.size)


def cd_threshold(d: int, alpha: float, r: int) -> float:
    """Sublevel threshold s_d = (1-alpha)/16 * e^{2r} d^r / (3r)^{2r}.

    The side condition r > d is part of the formula and enforced verbatim,
    even though it reverses the usual role of the two degrees.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    if r <= d:
        raise ValueError("threshold formula requires r > d")
    return (1.0 - alpha) / 16.0 * math.exp(2 * r) * d**r / (3 * r) ** (2 * r)


@dataclass(frozen=True)
class SupportGrid:
    box: tuple               # ((lo, hi), ...) per axis
    resolution: int
    points: np.ndarray       # (m, n)
    values: np.ndarray       # K(x,x) or margins
    included: np.ndarray     # boolean inclusion flags
    threshold: float
    volume_fraction: float
    hausdorff_to_reference: float | None = None


def cd_support_grid(
    kernel: CdKernel,
    box,
    resolution: int,
    threshold: float,
    reference_points: np.ndarray | None = None,
) -> SupportGrid:
    """Evaluate the kernel diagonal on a grid and flag the sublevel set K(x,x) < threshold."""
    n = kernel.basis.n
    box = tuple(tuple(map(float, b)) for b in (box if hasattr(box[0], "__len__") else [box] * n))
    pts = box_grid(box, resolution)
    vals = kernel.diag(pts)
    inc = vals < threshold
    haus = None
    if reference_points is not None and np.any(inc):
        ref = np.atleast_2d(np.asarray(reference_points, dtype=float))
        dmat = np.linalg.norm(pts[inc][:, None, :] - ref[None, :, :], axis=-1)
        haus = float(np.max(np.min(dmat, axis=1)))
    return SupportGrid(
        box=box,
        resolution=resolution,
        points=pts,
        values=vals,
        included=inc,
        threshold=threshold,
        volume_fraction=float(np.mean(inc)),
        hausdorff_to_reference=haus,
    )


def default_power_family(n: int) -> list:
    """All monomials of degree <= 2 (the default test family for the power method)."""
    return [Polynomial(n, {tuple(a): 1.0}) for a in monomials_upto(n, 2)]


def _even_power_bound(y: PseudoMomentSequence, d: int, q: Polynomial, tol: float) -> float:
    """sup over admissible n of L(q^{2n})^{1/2n} for one family member."""
    dq = q.degree
    if dq == 0:
        return abs(q(np.zeros(y.n)))
    n_max = d // (2 * dq)
    if n_max < 1:
        raise ValueError(f"family member of degree {dq} exceeds budget {d}")
    bound = 0.0
    q2 = q * q
    for k in range(1, n_max + 1):
        power = q2 if k == 1 else power * q2
        val = y.apply(power)
        if val < -tol * (1.0 + abs(val)):
            raise ValueError(
                f"negative even pseudo-moment L(q^{2*k}) = {val}; invalid input"
            )
        bound = max(bound, max(val, 0.0) ** (1.0 / (2 * k)))
    return bound


def _power_plan(y: PseudoMomentSequence, d: int, family: list, tol: float) -> tuple:
    """What a margin needs of the family: bounds, exponents and coefficients.

    `bounds[j]` is member j's even-power bound and `exps` the union of the
    members' exponents, in order of first appearance.  `steps` holds the
    family's coefficient matrix in coordinate form, grouped by position:
    step k is (members, rows of `exps`, coefficients as a column) for the
    k-th term of every member that has one, so adding the steps in order adds
    each member's terms in its own term order.
    """
    bounds = np.array([_even_power_bound(y, d, q, tol) for q in family])
    rows = {}
    terms = [[(j, rows.setdefault(alpha, len(rows)), c) for alpha, c in q.terms.items()]
             for j, q in enumerate(family)]
    steps = []
    for step in itertools.zip_longest(*terms):
        members, idx, coeffs = zip(*(term for term in step if term is not None))
        steps.append((np.array(members), np.array(idx), np.array(coeffs)[:, None]))
    return bounds, np.array(list(rows), dtype=np.int64).reshape(-1, y.n), steps


def power_method_margin(
    y: PseudoMomentSequence,
    d: int,
    family: list,
    x,
    tol: float = 1e-9,
) -> float | np.ndarray:
    """min over the family of [sup over admissible n of L(q^{2n})^{1/2n}] - |q(x)|.

    Nonnegative margin means x survives every even-power moment-growth test
    the degree budget d allows; the set of such x contains the support of any
    representing measure.  `x` is one point (n,), for which the margin is a
    float, or m points (m, n), for which it is an array of m margins; a NaN
    or infinite coordinate raises ValueError naming the first such point.
    The bounds L(q^{2n})^{1/2n} do not depend on x: they are computed once
    per sequence and family, keyed on d, tol and the terms of every member,
    and kept on `y` as one plan (`_power_plan`) with the members' exponents
    and coefficients.  A call then evaluates every monomial of the family at
    every point with one `eval_monomials` call, adds the members' terms one
    position at a time, and takes one minimum, so no point's margin depends
    on the others.  A call that raises keeps no plan.
    """
    if d > y.order:
        raise ValueError(f"degree budget {d} needs moments to degree {d} > {y.order}")
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != y.n:
        raise ValueError(f"x must have shape ({y.n},) or (m, {y.n}), got {x.shape}")
    pts = x.reshape(-1, y.n)
    if not np.isfinite(pts).all():
        bad = pts[~np.isfinite(pts).all(axis=1)][0]
        raise ValueError(f"point {tuple(bad.tolist())} is not finite")
    key = (d, tol, tuple(frozenset(q.terms.items()) for q in family))
    plan = y._power_bounds.get(key)
    if plan is None:
        plan = y._power_bounds[key] = _power_plan(y, d, family, tol)
    bounds, exps, steps = plan
    V = eval_monomials(exps, pts)
    Q = np.zeros((len(family), pts.shape[0]))
    for members, rows, coeffs in steps:
        Q[members] += coeffs * V[rows]
    margin = np.minimum.reduce(bounds[:, None] - np.abs(Q), axis=0, initial=math.inf)
    return float(margin[0]) if x.ndim == 1 else margin
