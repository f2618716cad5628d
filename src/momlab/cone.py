"""Semialgebraic problems, pseudo-moment sequences, moment/localizing matrices.

A pseudo-moment sequence stores the values y_alpha = L(X^alpha) of a linear
form on polynomials up to some even degree.  L lies in the dual of the
truncated quadratic module exactly when its moment matrix and all localizing
matrices are positive semidefinite; those matrices are assembled here.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .poly import MonomialBasis, Polynomial, _exponent_row, exponent_array

__all__ = [
    "ScaleRecord",
    "SemialgebraicProblem",
    "PseudoMomentSequence",
    "MomentMatrix",
    "normalize",
    "moment_matrix",
    "localizing_matrix",
]


@dataclass(frozen=True)
class ScaleRecord:
    """Affine change of variables x = center + radius * u (componentwise).

    `u` lives in normalized coordinates (unit box / unit ball); `x` in the
    original ones.  Minimizers and moments computed after normalization are
    mapped back through this record.
    """

    center: tuple
    radius: tuple

    @staticmethod
    def identity(n: int) -> "ScaleRecord":
        return ScaleRecord((0.0,) * n, (1.0,) * n)

    def to_original(self, u) -> np.ndarray:
        return np.asarray(self.center) + np.asarray(self.radius) * np.asarray(u, dtype=float)

    def to_normalized(self, x) -> np.ndarray:
        return (np.asarray(x, dtype=float) - np.asarray(self.center)) / np.asarray(self.radius)

    def is_identity(self) -> bool:
        return all(c == 0.0 for c in self.center) and all(r == 1.0 for r in self.radius)


@dataclass(frozen=True)
class SemialgebraicProblem:
    """Minimize `objective` over K = {x : p_i(x) >= 0, h_j(x) = 0}.

    `ball_radius` (optional) states a known bound K subset of the R-ball and
    enables the Archimedean augmentation during normalization; it must be
    None or a finite value > 0 (ValueError otherwise).  Equality
    constraints are kept in their own list; where quadratic-module semantics
    require inequality pairs, (h, -h) is formed on the fly.
    """

    n: int
    objective: Polynomial
    constraints: tuple = ()
    equalities: tuple = ()
    ball_radius: float | None = None
    scale: ScaleRecord | None = None

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "equalities", tuple(self.equalities))
        for p in (self.objective, *self.constraints, *self.equalities):
            if p.n != self.n:
                raise ValueError("constraint dimension mismatch")
        r = self.ball_radius
        if r is not None and not (math.isfinite(r) and r > 0):
            raise ValueError(f"ball_radius must be None or a finite value > 0, got {r!r}")
        if self.scale is not None and not len(self.scale.center) == len(self.scale.radius) == self.n:
            raise ValueError("scale record dimension mismatch")

    @property
    def max_constraint_degree(self) -> int:
        degs = [p.degree for p in self.constraints + self.equalities]
        return max(degs) if degs else 0

    def constraint_pairs(self) -> list:
        """All inequality constraints, with equalities expanded to (h, -h)."""
        out = list(self.constraints)
        for h in self.equalities:
            out.append(h)
            out.append(-h)
        return out

    def membership_residual(self, x) -> float:
        """min over constraints of the signed residual at x (>= 0 means in K)."""
        res = math.inf
        for p in self.constraints:
            res = min(res, p(x))
        for h in self.equalities:
            res = min(res, -abs(h(x)))
        return 0.0 if res is math.inf else float(res)

    def contains(self, x, tol: float = 1e-8) -> bool:
        return self.membership_residual(x) >= -tol

    # ----------------------------------------------------------------- JSON I/O

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "objective": self.objective.to_json_dict(),
            "constraints": [p.to_json_dict() for p in self.constraints],
            "equalities": [h.to_json_dict() for h in self.equalities],
            "ball_radius": self.ball_radius,
            "scale": None if self.scale is None else asdict(self.scale),
        }

    @staticmethod
    def from_json_dict(d: dict) -> "SemialgebraicProblem":
        scale = d.get("scale")
        if scale is not None:
            scale = ScaleRecord(tuple(scale["center"]), tuple(scale["radius"]))
        return SemialgebraicProblem(
            n=int(d["n"]),
            objective=Polynomial.from_json_dict(d["objective"]),
            constraints=tuple(Polynomial.from_json_dict(p) for p in d.get("constraints", [])),
            equalities=tuple(Polynomial.from_json_dict(p) for p in d.get("equalities", [])),
            ball_radius=d.get("ball_radius"),
            scale=scale,
        )

    @staticmethod
    def load(path) -> "SemialgebraicProblem":
        with open(path) as fh:
            return SemialgebraicProblem.from_json_dict(json.load(fh))

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)


def normalize(prob: SemialgebraicProblem) -> SemialgebraicProblem:
    """Rescale a problem so the effective-degree-bound hypotheses hold.

    Applies the affine map x = R*u (taking the R-ball into the unit box),
    rescales every constraint so the l1 norm of its coefficients is at most
    0.45, and appends the unit-ball constraint 1 - ||u||^2.  Since |u^alpha| <= 1
    on [-1,1]^n, the l1 norm bounds the sup there, so sup |g| <= 1/2 holds with
    a 0.9 margin.  Positive rescaling leaves K invariant; the returned scale
    record maps answers back.
    """
    if prob.ball_radius is None:
        raise ValueError("normalization needs ball_radius (a known bound K within the R-ball)")
    n = prob.n
    R = float(prob.ball_radius)
    scale = ScaleRecord((0.0,) * n, (R,) * n)

    def rescale(p: Polynomial) -> Polynomial:
        q = p.compose_affine(scale.center, scale.radius)
        l1 = sum(abs(c) for c in q.terms.values())
        if l1 > 0.45:
            q = q * (0.45 / l1)
        return q

    constraints = [rescale(p) for p in prob.constraints]
    equalities = [rescale(h) for h in prob.equalities]
    # Archimedean augmentation: the unit ball constraint in normalized coords.
    ball = Polynomial.constant(1.0, n)
    for i in range(n):
        ball = ball - Polynomial.variable(i, n) * Polynomial.variable(i, n)
    constraints.append(ball)
    objective = prob.objective.compose_affine(scale.center, scale.radius)
    return SemialgebraicProblem(
        n=n,
        objective=objective,
        constraints=tuple(constraints),
        equalities=tuple(equalities),
        ball_radius=None,
        scale=scale,
    )


@dataclass(frozen=True, eq=False)
class PseudoMomentSequence:
    """Values y_alpha for |alpha| <= order, indexed by the graded-lex basis.

    `order` is the total-degree cap (even for hierarchy output).  y need not
    be moments of any measure; sequences produced by the moment relaxation
    satisfy y_0 = L(1) = 1.

    A sequence is an immutable value: the constructor copies y into a
    read-only array, so neither the caller's array nor a write through `y`
    can change it; a NaN or infinite value raises ValueError naming its
    exponent.  Two sequences are equal when n, order and every value
    agree; sequences are not hashable.  Quantities derived from the values
    alone, such as the power method's even-power bounds, may therefore be
    kept on the sequence (`_power_bounds`, filled by `support.py`).
    """

    n: int
    order: int
    y: np.ndarray
    basis: MonomialBasis = field(compare=False, default=None)
    _power_bounds: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        basis = self.basis or MonomialBasis(self.n, self.order)
        object.__setattr__(self, "basis", basis)
        y = np.array(self.y, dtype=float)
        if y.shape != (len(basis),):
            raise ValueError(f"expected {len(basis)} values for degree {self.order}, got {y.shape}")
        bad = np.flatnonzero(~np.isfinite(y))
        if bad.size:
            raise ValueError(f"pseudo-moment of exponent {basis[bad[0]]} "
                             f"is not finite: {y[bad[0]]}")
        y.flags.writeable = False
        object.__setattr__(self, "y", y)

    def __eq__(self, other):
        if not isinstance(other, PseudoMomentSequence):
            return NotImplemented
        return self.n == other.n and self.order == other.order and np.array_equal(self.y, other.y)

    @staticmethod
    def from_atoms(atoms, weights, order: int) -> "PseudoMomentSequence":
        """Moments of the atomic measure sum_i w_i * delta_{x_i} up to `order`."""
        atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
        weights = np.asarray(weights, dtype=float)
        n = atoms.shape[1]
        basis = MonomialBasis(n, order)
        return PseudoMomentSequence(n, order, weights @ basis.eval_matrix(atoms), basis)

    @staticmethod
    def from_table(n: int, order: int, table) -> "PseudoMomentSequence":
        """The sequence of a moment table: a dict {alpha: y_alpha} or (alpha, y_alpha) pairs.

        Each key must be an exponent of the degree-`order` basis in n variables
        (one `poly.exponent_array` check) and appear once, and every exponent
        of that basis needs an entry.  A ValueError names the first key or
        exponent that breaks this.
        """
        pairs = list(table.items() if isinstance(table, dict) else table)
        basis = MonomialBasis(n, order)
        exps = [exponent_array(_exponent_row(alpha), n, order) for alpha, _ in pairs]
        ranks = MonomialBasis.rank(np.concatenate(exps)) if exps else np.zeros(0, np.int64)
        counts = np.bincount(ranks, minlength=len(basis))
        if np.any(counts > 1):
            raise ValueError(f"moment table has {counts.max()} entries for exponent "
                             f"{basis[int(np.argmax(counts))]}")
        if not np.all(counts):
            raise ValueError(f"moment table of degree {order} has no entry "
                             f"for exponent {basis[int(np.argmin(counts))]}")
        y = np.empty(len(basis))
        y[ranks] = [float(v) for _, v in pairs]
        return PseudoMomentSequence(n, order, y, basis)

    def value(self, alpha) -> float:
        return float(self.y[self.basis.index_of(alpha)])

    def apply(self, p: Polynomial) -> float:
        """L(p) for a polynomial of degree <= order."""
        exps, coeffs = p._arrays
        terms = coeffs * self.y[self.basis.indices(exps)]
        return float(np.cumsum(np.append(0.0, terms))[-1])  # a running sum in term order

    def truncate(self, order: int) -> "PseudoMomentSequence":
        if order > self.order:
            raise ValueError("cannot truncate upward")
        basis = MonomialBasis(self.n, order)
        return PseudoMomentSequence(self.n, order, self.y[: len(basis)], basis)

    def map_affine(self, scale: ScaleRecord) -> "PseudoMomentSequence":
        """Moments of the pushforward under u -> center + radius*u."""
        basis = self.basis
        y = np.zeros(len(basis))
        for k, alpha in enumerate(basis):
            mono = Polynomial(self.n, {tuple(alpha): 1.0}).compose_affine(
                scale.center, scale.radius
            )
            y[k] = self.apply(mono)
        return PseudoMomentSequence(self.n, self.order, y, basis)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "order": self.order,
            "values": [
                {"alpha": list(a), "y": float(v)} for a, v in zip(self.basis, self.y)
            ],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "PseudoMomentSequence":
        pairs = [(t["alpha"], t["y"]) for t in d["values"]]
        return PseudoMomentSequence.from_table(int(d["n"]), int(d["order"]), pairs)


@dataclass(frozen=True)
class MomentMatrix:
    """Hankel-structured matrix M[alpha, beta] = y_{alpha+beta}."""

    d: int
    M: np.ndarray
    basis: MonomialBasis = field(compare=False, default=None)

    @property
    def size(self) -> int:
        return self.M.shape[0]

    def eigvals(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.M)


def moment_matrix(y: PseudoMomentSequence, d: int) -> MomentMatrix:
    """Moment matrix of order d: M[alpha,beta] = y_{alpha+beta}, size r(n,d)."""
    if 2 * d > y.order:
        raise ValueError(f"moment matrix of order {d} needs moments to degree {2*d} > {y.order}")
    return localizing_matrix(y, Polynomial.constant(1.0, y.n), 2 * d)


def localizing_matrix(y: PseudoMomentSequence, g: Polynomial, d: int) -> MomentMatrix:
    """Localizing matrix of g at truncation level d (total degree budget).

    Size r(n, floor((d - deg g)/2)), entries sum_gamma g_gamma y_{alpha+beta+gamma},
    so that every certified product sigma*g stays within degree d.
    """
    k = (d - g.degree) // 2
    if k < 0:
        raise ValueError(f"level {d} below constraint degree {g.degree}")
    if 2 * k + g.degree > y.order:
        raise ValueError("pseudo-moment sequence too short for localizing matrix")
    basis = MonomialBasis(y.n, k)
    return MomentMatrix(k, y.basis.localizing_map(basis.exps, g).gather(y.y), basis)
