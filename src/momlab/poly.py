"""Sparse multivariate polynomials over a graded-lexicographic monomial index.

Exponent vectors (multi-indices) are plain tuples of nonnegative ints.  The
single global monomial order is graded-lex: lower total degree first, ties
broken lexicographically with x1 before x2 before x3...  Every matrix in the
package indexes rows/columns by this order, so "row k" always means the k-th
monomial of the ambient basis.  `MonomialBasis.rank` is the only map from
exponents to rows; it needs no basis, and a basis of degree k is the first
r(n, k) rows of any larger one.  A basis builds its exponent table by putting
every exponent at its rank, and every lookup (`index_of`, `in`, `indices`,
`Polynomial.coeff_vector`, pseudo-moment and reference-measure moments) first
passes `exponent_array`, the one check: n nonnegative integers, plus total
degree <= d for a basis; a bad exponent raises one ValueError that names it.
`eval_monomials` is the one monomial evaluator: x^alpha for every row of an
exponent array at every point, gathered from per-variable power tables that
are built by repeated multiplication.  `MonomialBasis.eval_matrix` is its
transpose over the basis, `Polynomial.eval_grid` sums it against the
polynomial's coefficients in blocks of `EVAL_BLOCK` points, and the power
method (`support.py`) evaluates its whole test family with one call.

`MonomialBasis.localizing_map` is the one localizing map: entry (i, j) of the
localizing matrix of g is sum_gamma c_gamma y[alpha_i + alpha_j + gamma],
applied to y or to every column of a matrix (`gather`) and transposed into the
coefficients of (v'Gv)*g (`adjoint`).  The relaxation SDP, its certificates,
`moment_matrix`, `localizing_matrix` and the upper-bound pencil all use it.

A product of polynomials is one dict loop that adds c1*c2 into a term map
pair by pair.  The upper-bound density and its integrals form no products:
they come from the localizing map and moment gathers (`upperbound.py`).
Arithmetic results are built by `Polynomial._result`, which only drops zero
coefficients; `Polynomial(n, terms)` validates.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MonomialBasis",
    "Polynomial",
    "box_grid",
    "eval_monomials",
    "grlex_key",
    "monomials_upto",
    "r_dim",
]

# Points per block of `eval_monomials` and `Polynomial.eval_grid`: a block's
# power tables and gathered rows stay in cache, and `eval_grid` holds one
# block's monomial rows however large the grid.
EVAL_BLOCK = 4096


def grlex_key(alpha):
    """Sort key realizing graded-lex order: the exponent's rank (`MonomialBasis.rank`)."""
    return int(MonomialBasis.rank(np.asarray(alpha, dtype=np.int64)))


def r_dim(n: int, d: int) -> int:
    """Dimension r(n,d) = C(n+d,d) of polynomials of degree <= d in n variables.

    Raises ValueError naming d when the degree d is negative.
    """
    if d < 0:
        raise ValueError(f"polynomial degree d = {d} is negative")
    return math.comb(n + d, d)


def box_grid(box, resolution: int) -> np.ndarray:
    """(m, n) grid on the box ((lo, hi), ...): `resolution` points per axis, first slowest.

    Raises ValueError for a resolution below 1, which would give an empty grid.
    """
    if resolution < 1:
        raise ValueError(f"grid resolution {resolution} must be at least 1")
    axes = [np.linspace(lo, hi, resolution) for lo, hi in box]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)


def monomials_upto(n: int, d: int):
    """All exponent tuples with |alpha| <= d in graded-lex order."""
    return MonomialBasis(n, d).exponents


def exponent_array(exps, n: int, d: int | None = None) -> np.ndarray:
    """`exps` as an int64 array of shape (..., n), after the one exponent check.

    Each row must be n nonnegative integers (an integer array) and, when d is
    given, of total degree <= d; a ValueError names the first row that is not.
    """
    e = np.asarray(exps)
    if e.dtype.kind in "iu" and e.shape[-1:] == (n,):
        e = e.astype(np.int64, copy=False)
        if e.min(initial=0) >= 0 and (d is None or e.sum(-1).max(initial=0) <= d):
            return e
        e = e[(e < 0).any(-1) | (e.sum(-1) > (math.inf if d is None else d))]
        if d is not None:
            raise ValueError(f"exponent {tuple(e[0].tolist())} outside the degree-{d} basis "
                             f"in {n} variables")
    first = tuple(e.reshape(-1, e.shape[-1])[0].tolist()) if e.ndim and e.size else e.tolist()
    raise ValueError(f"exponent {first} needs {n} nonnegative integer entries "
                     f"(exponents form a nonnegative integer array of shape (..., {n}))")


def _exponent_row(alpha) -> np.ndarray:
    """One exponent as a (1, len) array; integral floats such as 2.0 read as integers."""
    e = np.reshape(alpha, (1, -1))
    if e.dtype.kind == "f" and np.isfinite(e).all() and (e == np.round(e)).all():
        e = e.astype(np.int64)
    return e


def eval_monomials(exps: np.ndarray, points) -> np.ndarray:
    """x^alpha for every row alpha of `exps` at every point: shape (len(exps), m).

    `exps` is a checked (k, n) int64 exponent array and `points` has shape
    (m, n).  The points go in blocks of `EVAL_BLOCK`, so the tables and
    gathers of a block stay in cache.  Row a of variable i's power table is
    x_i^a = x_i^(a-1) * x_i, built row by row (a `np.multiply.accumulate`
    down the rows gives the same bits but runs its inner loop down each short
    column: 8x slower on a block of degree 6 in 2 variables); each monomial
    row is a product of table rows gathered over the variables.  Every point
    is computed on its own, so a point's values do not depend on the others.
    """
    x = np.asarray(points, dtype=float)
    k, n = exps.shape
    if x.ndim != 2 or x.shape[1] != n:
        raise ValueError(f"points must have shape (m, {n}), got {x.shape}")
    depth = int(exps.max(initial=0)) + 1
    V = np.empty((k, x.shape[0]))
    for start in range(0, x.shape[0], EVAL_BLOCK):
        block = x[start:start + EVAL_BLOCK]
        table = np.empty((depth, n, block.shape[0]))
        table[0] = 1.0
        table[1:2] = block.T  # a slice: there is no row 1 when every exponent is 0
        for a in range(2, depth):
            np.multiply(table[a - 1], table[1], out=table[a])
        out = V[:, start:start + EVAL_BLOCK]
        out[...] = table[exps[:, 0], 0]
        for i in range(1, n):
            out *= table[exps[:, i], i]
    return V


class MonomialBasis:
    """Ordered basis of all monomials of degree <= d in n variables.

    Row k holds the exponent of rank k (`rank`); the ordering is stable
    across the whole program (graded-lex), so indices can be exchanged between
    modules.  `exps` holds the exponents as an (len, n) integer array.
    """

    def __init__(self, n: int, d: int):
        self.n = n
        self.d = d
        # stars and bars: n bars among n + d slots; the stars between bars are the exponents
        size = r_dim(n, d)
        bars = np.fromiter(itertools.chain.from_iterable(
            itertools.combinations(range(n + d), n)), np.int64, size * n).reshape(size, n)
        exps = np.diff(bars, axis=1, prepend=-1) - 1
        self.exps = np.empty_like(exps)
        self.exps[MonomialBasis.rank(exps)] = exps

    @functools.cached_property
    def exponents(self) -> list:
        """The rows of `exps` as tuples, built on first use."""
        return list(map(tuple, self.exps.tolist()))

    def __len__(self):
        return len(self.exps)

    def __getitem__(self, k):
        return self.exponents[k]

    def __iter__(self):
        return iter(self.exponents)

    def index_of(self, alpha) -> int:
        """Row of the exponent alpha; ValueError naming it unless it lies in the basis."""
        return int(self.indices(_exponent_row(alpha))[0])

    def __contains__(self, alpha):
        try:
            self.index_of(alpha)
        except ValueError:
            return False
        return True

    def indices(self, exps) -> np.ndarray:
        """Basis indices of an integer exponent array of shape (..., n).

        Raises ValueError naming the first exponent that lies outside the basis.
        """
        return MonomialBasis.rank(exponent_array(exps, self.n, self.d))

    @staticmethod
    def rank(exps) -> np.ndarray:
        """Graded-lex ranks of a nonnegative integer exponent array of shape (..., n).

        A monomial's rank is its index in every basis that holds it, so no
        basis is built.  The rank of alpha is the number of monomials of lower
        degree plus, for each variable i < n-1, the number of monomials of the
        same degree that agree with alpha before i and have a larger exponent
        at i.
        """
        e = np.asarray(exps)
        if e.size == 0:
            return np.zeros(e.shape[:-1], dtype=np.int64)
        # tail[..., j] = degree carried by variables j..n-1
        tail = np.cumsum(e[..., ::-1], axis=-1)[..., ::-1]
        below = _below_table(e.shape[-1], int(tail[..., 0].max()))
        idx = below[0, tail[..., 0]]
        for j in range(1, e.shape[-1]):
            idx = idx + below[j, tail[..., j]]
        return idx

    def localizing_map(self, rows, g: "Polynomial") -> "LocalizingMap":
        """y -> localizing matrix of g over `rows`, one term of g at a time to bound peak memory."""
        E = np.asarray(rows, dtype=np.int64).reshape(-1, self.n)
        idx = np.empty((len(g.terms), len(E), len(E)), dtype=np.int64)
        for t, gamma in enumerate(g.terms):
            idx[t] = self.indices(E[:, None] + E[None, :] + gamma)
        return LocalizingMap(len(self), np.array(list(g.terms.values())), idx)

    def eval_matrix(self, points) -> np.ndarray:
        """Every basis monomial (columns) at every point (rows): shape (m, len(self)).

        The transpose of `eval_monomials` over the basis exponents.
        """
        return eval_monomials(self.exps, points).T

    def eval_vector(self, x) -> np.ndarray:
        """Vector v(x) of all basis monomials evaluated at the point x."""
        return self.eval_matrix(np.reshape(x, (1, -1)))[0]


@functools.lru_cache(maxsize=64)
def _below_table(n: int, d: int) -> np.ndarray:
    """below[j, t] = r(n - j, t - 1), t <= d: monomials of degree < t in variables j..n-1."""
    below = np.array(
        [[math.comb(n - j + t - 1, n - j) for t in range(d + 1)] for j in range(n)],
        dtype=np.int64,
    ).reshape(n, d + 1)
    below.flags.writeable = False
    return below


@dataclass(frozen=True)
class LocalizingMap:
    """Entry (i, j) is sum_t coeffs[t] y[idx[t, i, j]], idx[t] indexing a_i + a_j + gamma_t."""

    size: int  # length of y
    coeffs: np.ndarray  # (T,) coefficients of g
    idx: np.ndarray  # (T, s, s) basis indices

    def gather(self, vals) -> np.ndarray:
        """The map along the first axis of `vals` (y, or N: one (s, s) matrix per column)."""
        out = np.zeros(self.idx.shape[1:] + vals.shape[1:])
        for c, idx in zip(self.coeffs, self.idx):
            out += vals[idx] * c  # the temporary on the left: NumPy reuses it for the product
        return out

    def adjoint(self, G) -> np.ndarray:
        """Coefficients of (v' G v) * g over the basis, v the row monomials."""
        return np.bincount(self.idx.ravel(), np.outer(self.coeffs, G).ravel(), self.size)


@dataclass(frozen=True)
class Polynomial:
    """Sparse real polynomial: map from exponent tuple to coefficient.

    Zero coefficients are never stored; the zero polynomial has an empty term
    map and degree 0 by convention.  Instances are immutable, so they can be
    shared freely, but not hashable: `terms` is a dict.  Exponents must be
    integral (2.0 is read as 2, 1.5 raises ValueError) and coefficients
    finite (NaN or inf raises ValueError).
    """

    n: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for alpha, c in self.terms.items():
            key = tuple(int(a) for a in alpha)
            if key != tuple(alpha):
                raise ValueError(f"exponent {tuple(alpha)} has a non-integer entry")
            alpha = key
            if len(alpha) != self.n:
                raise ValueError(f"exponent {alpha} has length {len(alpha)}, expected {self.n}")
            if any(a < 0 for a in alpha):
                raise ValueError(f"negative exponent in {alpha}")
            c = float(c)
            if not math.isfinite(c):
                raise ValueError(f"coefficient {c} of {alpha} is not finite")
            if c != 0.0:
                clean[alpha] = c
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def _result(n: int, items) -> "Polynomial":
        """Polynomial from (exponent, coefficient) pairs of an arithmetic result.

        Only zero coefficients are dropped: the exponents come from terms that
        were already validated or from a basis, so the checks of
        `Polynomial(n, terms)` are skipped.
        """
        p = object.__new__(Polynomial)
        object.__setattr__(p, "n", n)
        object.__setattr__(p, "terms", {a: c for a, c in items if c != 0.0})
        return p

    # ------------------------------------------------------------------ basics

    @staticmethod
    def zero(n: int) -> "Polynomial":
        return Polynomial(n, {})

    @staticmethod
    def constant(c: float, n: int) -> "Polynomial":
        return Polynomial(n, {(0,) * n: c})

    @staticmethod
    def variable(i: int, n: int) -> "Polynomial":
        alpha = [0] * n
        alpha[i] = 1
        return Polynomial(n, {tuple(alpha): 1.0})

    @staticmethod
    def from_coeffs(basis: MonomialBasis, vec) -> "Polynomial":
        coeffs = np.asarray(vec, dtype=float).tolist()
        return Polynomial._result(basis.n, zip(basis.exponents, coeffs))

    @property
    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(a) for a in self.terms)

    @functools.cached_property
    def _arrays(self) -> tuple:
        """The exponents as a (T, n) int64 array and the coefficients (T,), in term order."""
        exps = np.array(list(self.terms), dtype=np.int64).reshape(-1, self.n)
        coeffs = np.array(list(self.terms.values()), dtype=float)
        exps.flags.writeable = coeffs.flags.writeable = False
        return exps, coeffs

    def coeff(self, alpha) -> float:
        return self.terms.get(tuple(alpha), 0.0)

    def coeff_vector(self, basis: MonomialBasis) -> np.ndarray:
        v = np.zeros(len(basis))
        exps, coeffs = self._arrays
        v[basis.indices(exps)] = coeffs
        return v

    def is_zero(self) -> bool:
        return not self.terms

    # -------------------------------------------------------------- arithmetic

    def _check_dim(self, other: "Polynomial"):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other, self.n)
        self._check_dim(other)
        terms = dict(self.terms)
        for alpha, c in other.terms.items():
            terms[alpha] = terms.get(alpha, 0.0) + c
        return Polynomial._result(self.n, terms.items())

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._result(self.n, ((a, -c) for a, c in self.terms.items()))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other, self.n)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            # scalar scale
            s = float(other)
            return Polynomial._result(self.n, ((a, c * s) for a, c in self.terms.items()))
        self._check_dim(other)
        # term pair by term pair: self's terms outer, other's inner
        terms = {}
        get = terms.get
        for a1, c1 in self.terms.items():
            for a2, c2 in other.terms.items():
                key = tuple(map(operator.add, a1, a2))
                terms[key] = get(key, 0.0) + c1 * c2
        return Polynomial._result(self.n, terms.items())

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        if k == 0:
            return Polynomial.constant(1.0, self.n)
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    # -------------------------------------------------------------- evaluation

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.size != self.n:
            raise ValueError(f"point has {x.size} coordinates, expected {self.n}")
        return float(self.eval_grid(x.reshape(1, -1))[0])

    def eval_grid(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at many points at once; `points` has shape (m, n).

        Blocks of `EVAL_BLOCK` points go through `eval_monomials`, and the
        terms are added into the values one at a time, in term order.
        """
        points = np.asarray(points, dtype=float)
        exps, coeffs = self._arrays
        vals = np.zeros(points.shape[0])
        for start in range(0, points.shape[0], EVAL_BLOCK):
            block = vals[start:start + EVAL_BLOCK]
            for c, mono in zip(coeffs, eval_monomials(exps, points[start:start + EVAL_BLOCK])):
                block += c * mono
        return vals

    # ------------------------------------------------------------------- norms

    def coeff_norm(self) -> float:
        """Euclidean norm of the coefficient vector in the monomial basis."""
        return math.sqrt(sum(c * c for c in self.terms.values()))

    # --------------------------------------------------------------------- I/O

    def to_json_dict(self) -> dict:
        terms = sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))
        return {"n": self.n, "terms": [{"alpha": list(a), "c": c} for a, c in terms]}

    @staticmethod
    def from_json_dict(d: dict) -> "Polynomial":
        return Polynomial(int(d["n"]), {tuple(t["alpha"]): float(t["c"]) for t in d["terms"]})

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json(s: str) -> "Polynomial":
        return Polynomial.from_json_dict(json.loads(s))

    # ------------------------------------------------------------------ pretty

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for alpha, c in sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0])):
            mono = "*".join(
                f"x{i+1}" + (f"^{a}" if a > 1 else "")
                for i, a in enumerate(alpha)
                if a > 0
            )
            parts.append(f"{c:+g}" + (f"*{mono}" if mono else ""))
        return " ".join(parts)

    # helpers used by other modules -------------------------------------------

    def partial(self, i: int) -> "Polynomial":
        """Partial derivative with respect to variable i."""
        terms = {}
        for alpha, c in self.terms.items():
            if alpha[i] == 0:
                continue
            beta = list(alpha)
            beta[i] -= 1
            terms[tuple(beta)] = terms.get(tuple(beta), 0.0) + c * alpha[i]
        return Polynomial._result(self.n, terms.items())

    def compose_affine(self, center, radius) -> "Polynomial":
        """Substitute x_i -> center_i + radius_i * u_i and expand."""
        center = np.asarray(center, dtype=float)
        radius = np.asarray(radius, dtype=float)
        out = Polynomial.zero(self.n)
        subs = [
            Polynomial.constant(center[i], self.n) + radius[i] * Polynomial.variable(i, self.n)
            for i in range(self.n)
        ]
        for alpha, c in self.terms.items():
            term = Polynomial.constant(c, self.n)
            for i, a in enumerate(alpha):
                term = term * (subs[i] ** a)
            out = out + term
        return out
