"""Benchmark corpus, brute-force oracles, rate fitting and reporting.

Every derived reference value in the test-suite comes from the grid oracle
here: dense feasibility-filtered minimization over a box containing K, its
near-optimal samples polished onto KKT points of the problem.
The suite runs the lower (moment) and upper (density) hierarchies side by
side, measures candidate-minimizer and moment-space convergence, and fits
log-log rates where the gaps stay bounded away from zero.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .cone import PseudoMomentSequence, SemialgebraicProblem
from .extraction import candidate_minimizer, polish_atoms
# check_flatness, extract_atoms and solve_moment_relaxation are not called here (flatness is
# read from RelaxationResult.rounded); perfbench/tracing.py wraps them under these names
from .extraction import check_flatness, extract_atoms  # noqa: F401
from .hierarchy import _solve_levels, relaxation_order, solve_moment_relaxation  # noqa: F401
from .poly import MonomialBasis, Polynomial, box_grid
from .upperbound import ReferenceMeasure, solve_upper_bound

__all__ = [
    "BenchProblem",
    "LevelRecord",
    "RateFit",
    "RateReport",
    "builtin_corpus",
    "brute_force_oracle",
    "fit_rate",
    "moment_distance_to_optimal",
    "run_suite",
    "load_corpus",
]


@dataclass(frozen=True)
class BenchProblem:
    id: str
    problem: SemialgebraicProblem
    d_min: int
    d_max: int
    upper_levels: tuple
    measure: ReferenceMeasure
    unique_minimizer: bool
    box: tuple = ((-1.0, 1.0),)


@dataclass(frozen=True)
class RateFit:
    slope: float | None
    intercept: float | None
    r_squared: float | None
    finite_convergence_level: int | None
    n_points: int

    def describe(self) -> str:
        if self.finite_convergence_level is not None:
            return f"finite convergence at level {self.finite_convergence_level}"
        if self.slope is None:
            return "not enough usable points"
        return f"slope {self.slope:+.3f} (R^2 {self.r_squared:.3f})"


@dataclass(frozen=True)
class LevelRecord:
    """One solved or failed level of one hierarchy in `run_suite`; NaN where a side has none."""

    side: str                     # "lower" or "upper"
    d: int
    status: str                   # solver status ("Optimal" on the upper side) or "Failed: ..."
    value: float = math.nan       # m_d or u_d
    dual_value: float = math.nan  # f_d
    gap: float = math.nan         # f* - m_d or u_d - f*
    est_err: float = math.nan     # ||x^(d) - x*||, or ||x_check - x*|| on the upper side
    mom_dist: float = math.nan
    rounded: bool = False


@dataclass
class RateReport:
    """Per-problem record of `run_suite`: one `LevelRecord` per level, in run order.

    Every field after `problem_id` defaults to empty; a problem that raised
    sets only its id and `failure` ("Failed: ...").  The per-level lists are
    read-only views of the records: the lower side's levels, and the upper
    side's solved levels only.
    """

    problem_id: str
    records: list = field(default_factory=list)
    failure: str | None = None
    lower_fit: RateFit | None = None
    upper_fit: RateFit | None = None
    f_star: float = math.nan
    x_star: np.ndarray = field(default_factory=lambda: np.array([]))
    s_star: np.ndarray = field(default_factory=lambda: np.array([]))
    grid_resolution: int = 0

    def _column(self, side: str, name: str) -> list:
        """`name` over the records of `side`, skipping failed upper levels."""
        return [getattr(r, name) for r in self.records if r.side == side
                and (side == "lower" or not r.status.startswith("Failed"))]

    levels = property(lambda self: self._column("lower", "d"))
    m_values = property(lambda self: self._column("lower", "value"))
    f_values = property(lambda self: self._column("lower", "dual_value"))
    est_errors = property(lambda self: self._column("lower", "est_err"))
    mom_dists = property(lambda self: self._column("lower", "mom_dist"))
    upper_levels = property(lambda self: self._column("upper", "d"))
    u_values = property(lambda self: self._column("upper", "value"))
    flat_levels = property(lambda self: [r.d for r in self.records if r.rounded])

    @property
    def statuses(self) -> list:
        return [self.failure] if self.failure else self._column("lower", "status")


def _default_resolution(n: int) -> int:
    return 201 if n <= 2 else 61


def brute_force_oracle(prob: SemialgebraicProblem, resolution: int | None = None, box=None):
    """Polished dense-grid minimum of the objective over K (the oracle for derived values).

    Returns (f_star, x_star, near-optimal sample set).  Grid points are kept
    when every inequality exceeds -1e-9 and every equality vanishes to 1e-9;
    those within 1e-6 of the grid minimum are the samples.  Each sample is
    polished onto a nearby KKT point (`polish_atoms`), which replaces it when
    it lies in K to 1e-12 and costs no more than the sample: a grid places a
    minimizer off its nodes only to its spacing, and f* to about its square.
    f_star, x_star and the sample set (within 1e-6 of f_star) then come from
    these points.  The polish holds an inequality g active where g(sample) is
    at most the grid step times max |grad g| over the samples; with the 1e-3 of
    `extraction.ACTIVE_TOL`, f* read 0.017-0.042 high on 4 of 6 n=3 ball quartics.
    """
    n = prob.n
    if n > 3:
        raise ValueError("brute force oracle is limited to n <= 3")
    if resolution is None:
        resolution = _default_resolution(n)
    if box is None:
        box = ((-1.0, 1.0),) * n
    pts = box_grid(box, resolution)
    feas = np.ones(pts.shape[0], dtype=bool)
    for p in prob.constraints:
        feas &= p.eval_grid(pts) >= -1e-9
    for h in prob.equalities:
        feas &= np.abs(h.eval_grid(pts)) <= 1e-9
    pts = pts[feas]
    if pts.shape[0] == 0:
        raise ValueError("no feasible grid point; raise the resolution")
    vals = prob.objective.eval_grid(pts)
    near = vals <= np.min(vals) + 1e-6
    pts, vals = pts[near], vals[near]
    step = max(hi - lo for lo, hi in box) / max(resolution - 1, 1)
    slope = max((np.max(np.linalg.norm([g.partial(i).eval_grid(pts) for i in range(n)], axis=0))
                 for g in prob.constraints), default=0.0)
    polished = polish_atoms(prob, pts, active_tol=step * slope)
    p_vals = prob.objective.eval_grid(polished)
    better = (p_vals <= vals) & np.array([prob.contains(x, tol=1e-12) for x in polished])
    pts[better], vals[better] = polished[better], p_vals[better]
    j = int(np.argmin(vals))
    f_star = float(vals[j])
    return f_star, pts[j], pts[vals <= f_star + 1e-6]


def fit_rate(levels, gaps, floor: float = 1e-9) -> RateFit:
    """Least-squares slope of log(gap) against log(level).

    Levels whose gap has hit the solver floor are treated as finite
    convergence and excluded from the fit.
    """
    levels = list(levels)
    gaps = [float(g) for g in gaps]
    finite_level = None
    for d, g in zip(levels, gaps):
        if g <= floor:
            finite_level = d
            break
    usable = [(d, g) for d, g in zip(levels, gaps) if g > floor and d >= 1]
    if len(usable) < 3:
        if finite_level is not None:
            return RateFit(None, None, None, finite_level, len(usable))
        raise ValueError(f"need at least 3 positive gaps, got {len(usable)}")
    lx = np.log([d for d, _ in usable])
    ly = np.log([g for _, g in usable])
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, res, *_ = np.linalg.lstsq(A, ly, rcond=None)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    ss_res = float(np.sum((A @ coef - ly) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return RateFit(float(coef[0]), float(coef[1]), r2, finite_level, len(usable))


# Pivots the moment-distance simplex may take.  Bland's rule cannot cycle, so
# reaching the cap means round-off has broken the tableau.
LP_MAX_PIVOTS = 10_000


def _sup_norm_weights(Phi: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Probability weights w minimizing max_i |y_i - (Phi w)_i|: a dense simplex.

    The tableau holds min t subject to Phi w - t + u = y, -Phi w - t + v = -y
    and sum(w) = 1, with w, t, u, v >= 0.  Phase one is two pivots to a vertex:
    w = e_j for the column j of Phi nearest y, then t into the row of its
    largest residual, which leaves every right-hand side >= 0.  Phase two
    follows Bland's rule: the first column with a negative reduced cost enters,
    and of the rows that tie for the least ratio the one with the smallest basic
    index leaves, so it cannot cycle.  A tableau that stops on neither an
    optimum nor a step (round-off) raises RuntimeError.
    """
    l, k = Phi.shape
    m = 2 * l + 1
    T = np.zeros((m + 1, k + 2 * l + 2))  # rows: constraints, then the reduced costs
    T[:l, :k], T[l:2 * l, :k], T[:2 * l, k] = Phi, -Phi, -1.0
    T[:2 * l, k + 1:-1] = np.eye(2 * l)
    T[:l, -1], T[l:2 * l, -1] = y, -y
    T[2 * l, :k] = T[2 * l, -1] = 1.0
    T[m, k] = 1.0  # the cost of t
    basis = np.arange(k + 1, k + m + 1)  # the slacks; row 2l gets w_j by the first pivot
    tol = 1e-12 * max(1.0, float(np.max(np.abs(T))))

    def pivot(row, col):
        T[row] /= T[row, col]
        factors = T[:, col].copy()
        factors[row] = 0.0
        T[:] -= np.outer(factors, T[row])
        basis[row] = col

    pivot(2 * l, int(np.argmin(np.max(np.abs(y[:, None] - Phi), axis=0))))
    pivot(int(np.argmin(T[:2 * l, -1])), k)
    for _ in range(LP_MAX_PIVOTS):
        entering = np.flatnonzero(T[m, :-1] < -tol)
        if entering.size == 0:
            w = np.zeros(k)
            is_w = basis < k
            w[basis[is_w]] = np.maximum(T[:m, -1][is_w], 0.0)
            return w / w.sum()
        col = T[:m, entering[0]]
        rows = np.flatnonzero(col > tol)
        if rows.size == 0:
            raise RuntimeError("moment-distance simplex found no pivot row (round-off)")
        ratios = T[rows, -1] / col[rows]
        ties = rows[ratios <= ratios.min() + tol]
        pivot(ties[np.argmin(basis[ties])], entering[0])
    raise RuntimeError(f"moment-distance simplex reached no optimum in {LP_MAX_PIVOTS} pivots")


def moment_distance_to_optimal(y: PseudoMomentSequence, s_star_samples, r: int = 2) -> float:
    """Sup-norm distance (over degrees <= r) from y to moments of measures on S*.

    The linear program min t over probability weights w on the sample points,
    with |y_alpha - sum_j w_j x_j^alpha| <= t for every |alpha| <= r, solved by
    an exact dense simplex (`_sup_norm_weights`).  The value returned is
    max_alpha |y_alpha - sum_j w_j x_j^alpha| evaluated at the optimal weights,
    clipped to >= 0 and normalized to sum 1: the distance an explicit
    probability measure on the samples attains, with no solver tolerance
    floor, so it reads 0.0 only where that measure's moments equal y's.
    A sample set that is empty or not of shape (k, n), a non-finite sample and
    one whose moments overflow raise ValueError, the last two naming the point.
    """
    samples = np.atleast_2d(np.asarray(s_star_samples, dtype=float))
    if samples.shape[0] == 0:
        raise ValueError("empty optimal sample set")
    if samples.ndim != 2 or samples.shape[1] != y.n:
        raise ValueError(f"samples must have shape (k, {y.n}), got {samples.shape}")
    y_r = y.truncate(r)
    with np.errstate(over="ignore", invalid="ignore"):
        Phi = y_r.basis.eval_matrix(samples).T  # (l, k)
    bad = ~np.isfinite(Phi).all(axis=0)
    if bad.any():
        point = tuple(samples[np.argmax(bad)].tolist())
        if np.isfinite(point).all():
            raise ValueError(f"moments of sample {point} overflow to degree {r}")
        raise ValueError(f"sample {point} is not finite")
    w = _sup_norm_weights(Phi, y_r.y)
    return float(np.max(np.abs(y_r.y - Phi @ w)))


def builtin_corpus() -> list:
    """The five shipped problems (n <= 2, oracle-checkable)."""
    x = Polynomial.variable(0, 1)
    x1 = Polynomial.variable(0, 2)
    x2 = Polynomial.variable(1, 2)
    box2 = (1 - x1 * x1, 1 - x2 * x2)

    corner_atoms = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    corner_table = {
        a: float(v)
        for a, v in zip(
            MonomialBasis(2, 8),
            PseudoMomentSequence.from_atoms(corner_atoms, [0.25] * 4, 8).y,
        )
    }

    return [
        BenchProblem(
            id="binary-corner",
            problem=SemialgebraicProblem(
                n=2,
                objective=-x1 - x2 + x1 * x2,
                equalities=(x1 - x1 * x1, x2 - x2 * x2),
            ),
            d_min=2,
            d_max=4,
            upper_levels=(0, 2),
            measure=ReferenceMeasure("table", 2, table=corner_table),
            unique_minimizer=False,
            box=((-1.0, 1.0), (-1.0, 1.0)),
        ),
        BenchProblem(
            id="line-min",
            problem=SemialgebraicProblem(n=1, objective=x, constraints=(1 - x * x,)),
            d_min=2,
            d_max=6,
            upper_levels=(0, 2, 4, 6, 8),
            measure=ReferenceMeasure.box(1),
            unique_minimizer=True,
            box=((-1.0, 1.0),),
        ),
        BenchProblem(
            id="shifted-paraboloid",
            problem=SemialgebraicProblem(
                n=2,
                objective=(x1 - 0.3) * (x1 - 0.3) + (x2 + 0.2) * (x2 + 0.2),
                constraints=box2,
            ),
            d_min=2,
            d_max=6,
            upper_levels=(0, 2, 4, 6),
            measure=ReferenceMeasure.box(2),
            unique_minimizer=True,
            box=((-1.0, 1.0), (-1.0, 1.0)),
        ),
        BenchProblem(
            id="two-well",
            problem=SemialgebraicProblem(
                n=1, objective=x**4 - x * x, constraints=(1 - x * x,)
            ),
            d_min=4,
            d_max=8,
            upper_levels=(0, 2, 4, 6, 8),
            measure=ReferenceMeasure.box(1),
            unique_minimizer=False,
            box=((-1.0, 1.0),),
        ),
        BenchProblem(
            id="motzkin-box",
            problem=SemialgebraicProblem(
                n=2,
                objective=(
                    x1**4 * x2**2 + x1**2 * x2**4 - 3.0 * (x1 * x2) ** 2 + 1.0
                ),
                constraints=box2,
            ),
            d_min=6,
            d_max=8,
            upper_levels=(0, 2, 4, 6),
            measure=ReferenceMeasure.box(2),
            unique_minimizer=False,
            box=((-1.0, 1.0), (-1.0, 1.0)),
        ),
    ]


def load_corpus(data) -> list:
    """Corpus from JSON: list of entries with a problem and run parameters."""
    out = []
    for e in data:
        prob = SemialgebraicProblem.from_json_dict(e["problem"])
        mkind = e.get("measure", "box")
        if isinstance(mkind, dict):
            measure = ReferenceMeasure.from_json(mkind)
            if measure.n != prob.n:
                raise ValueError(f"corpus entry {e['id']!r}: moment table has n = {measure.n}, "
                                 f"problem has n = {prob.n}")
        else:
            measure = ReferenceMeasure(mkind, prob.n)
        box = tuple(tuple(b) for b in e.get("box", [[-1.0, 1.0]] * prob.n))
        out.append(
            BenchProblem(
                id=e["id"],
                problem=prob,
                d_min=int(e.get("d_min", 2)),
                d_max=int(e.get("d_max", 6)),
                upper_levels=tuple(e.get("upper_levels", (0, 2, 4))),
                measure=measure,
                unique_minimizer=bool(e.get("unique_minimizer", False)),
                box=box,
            )
        )
    return out


def _run_problem(bp: BenchProblem, r_dist: int = 2) -> RateReport:
    f_star, x_star, s_star = brute_force_oracle(bp.problem, box=bp.box)
    rep = RateReport(problem_id=bp.id, f_star=f_star, x_star=np.asarray(x_star), s_star=s_star,
                     grid_resolution=_default_resolution(bp.problem.n))
    analysed = {}  # relaxation order -> (est_err, mom_dist)
    for res in _solve_levels(bp.problem, range(bp.d_min, bp.d_max + 1)):
        y, k = res.pseudo_moments, relaxation_order(res.d)
        if y is not None and k not in analysed:
            est_err = float(np.linalg.norm(candidate_minimizer(y) - x_star))
            analysed[k] = (est_err, moment_distance_to_optimal(y, s_star, r=r_dist))
        est_err, mom_dist = analysed[k] if y is not None else (math.nan, math.nan)
        rep.records.append(LevelRecord("lower", res.d, res.status, res.m_d_star, res.f_d_star,
                                       f_star - res.m_d_star, est_err, mom_dist,
                                       res.rounded is not None))

    for d in bp.upper_levels:
        try:
            ub = solve_upper_bound(bp.problem.objective, bp.measure, d)
        except ValueError as exc:
            rep.records.append(LevelRecord("upper", d, f"Failed: {exc}"))
            continue
        rep.records.append(LevelRecord("upper", d, "Optimal", ub.u_d_star, gap=ub.u_d_star - f_star,
                                       est_err=float(np.linalg.norm(ub.x_check - x_star))))

    def safe_fit(side):
        pairs = [(r.d, r.gap) for r in rep.records if r.side == side and np.isfinite(r.gap)]
        try:
            return fit_rate([d for d, _ in pairs], [g for _, g in pairs])
        except ValueError:
            return None

    rep.lower_fit = safe_fit("lower")
    rep.upper_fit = safe_fit("upper")
    return rep


def run_suite(corpus: list, out_dir: str | None = None, r_dist: int = 2):
    """Run the full pipeline per problem; returns reports and the CSV text.

    Levels 2k-1 and 2k share the order-k moment SDP, which is solved and
    analysed once: their relaxation results share one pseudo-moment object
    and one certificate object, and report the same bounds and distances.
    """
    reports = []
    for bp in corpus:
        try:
            reports.append(_run_problem(bp, r_dist=r_dist))
        except Exception as exc:  # noqa: BLE001 - isolate per-problem failures
            reports.append(RateReport(problem_id=bp.id, failure=f"Failed: {exc}"))

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["problem", "d", "m_d", "f_d", "u_d", "est_err", "mom_dist", "status"])
    for rep in reports:
        levels, u_by_level = rep.levels, dict(zip(rep.upper_levels, rep.u_values))
        for r in rep.records:  # lower levels first, then upper ones
            if r.side == "lower":
                writer.writerow([rep.problem_id, r.d, f"{r.value:.10g}", f"{r.dual_value:.10g}",
                                 f"{u_by_level[r.d]:.10g}" if r.d in u_by_level else "",
                                 f"{r.est_err:.6g}", f"{r.mom_dist:.6g}", r.status])
            elif r.status.startswith("Failed"):
                writer.writerow([rep.problem_id, r.d, "", "", "", "", "", f"upper {r.status}"])
            elif r.d not in levels:
                writer.writerow([rep.problem_id, r.d, "", "", f"{r.value:.10g}", "", "",
                                 "upper-only"])
    csv_text = buf.getvalue()

    lines = ["# Benchmark summary", ""]
    for rep in reports:
        lines.append(f"## {rep.problem_id}")
        if rep.failure:
            lines += [f"- {rep.failure}", ""]
            continue
        lines.append(f"- oracle: f* = {rep.f_star:.10g} at {np.round(rep.x_star, 6).tolist()}"
                     f" (grid {rep.grid_resolution}/axis, {rep.s_star.shape[0]} optimal samples)")
        lines.append(f"- lower bounds m_d: {[round(v, 8) for v in rep.m_values]}")
        if rep.u_values:
            lines.append(f"- upper bounds u_d: {[round(v, 8) for v in rep.u_values]}")
        lines += [f"- upper level {r.d}: {r.status}" for r in rep.records
                  if r.side == "upper" and r.status.startswith("Failed")]
        if rep.flat_levels:
            lines.append(f"- flatness + extraction succeeded at levels {rep.flat_levels}")
        if rep.lower_fit is not None:
            lines.append(f"- lower-gap rate: {rep.lower_fit.describe()}")
        if rep.upper_fit is not None:
            lines.append(f"- upper-gap rate: {rep.upper_fit.describe()}")
        lines.append("")
    summary_text = "\n".join(lines)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.csv"), "w") as fh:
            fh.write(csv_text)
        with open(os.path.join(out_dir, "summary.md"), "w") as fh:
            fh.write(summary_text)
    return reports, csv_text
