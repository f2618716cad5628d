"""The benchmark's workloads: inputs, reference values, task lists and checks.

Every workload is built by `setup(seed)`, which generates the inputs, computes
the reference values the checks compare against, and runs one warm-up call.
It returns a `Workload` whose tasks are single calls into momlab's public API.
The tasks call the package through module attributes (`hierarchy.…`,
`support.…`), so the spans that `tracing` installs there see them.

Reference values never come from the code under test: grid minima and the
uniform-box and ball moments are evaluated here with plain NumPy, and the
builtin corpus optima are known in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from momlab import bench, hierarchy, support, upperbound
from momlab.cone import PseudoMomentSequence, SemialgebraicProblem
from momlab.poly import MonomialBasis, Polynomial
from momlab.upperbound import ReferenceMeasure

# Problem ladders of the two SDP workloads are pinned, not drawn from --seed.
# Interior-point iteration counts on this problem family range from 61 to 124
# over seeds 0-5 at n=3, d=6 (65 to 86 over seeds 0-3 at n=4, d=6), so a
# seeded draw of a few problems would move wall time by far more than any
# bound.  The pinned n=2, d=8 sweep also keeps the ten problems that fail
# today (ROADMAP open item 4).  --seed draws the task order, the n=4 feasible
# samples and all measure-eval inputs.
RELAX_N4_SEED = 0  # IllConditioned, then Optimal on the retry: 51 + 16 iterations
RELAX_N3_SEEDS = (0, 2)  # both need the loosened-tolerance retry today
SWEEP_SEEDS = tuple(range(12))  # on both the ball and the box: 24 problems

# Optima of the builtin corpus, known in closed form:
#   binary-corner  -x1 - x2 + x1 x2 on {0,1}^2: -1 at (1,0), (0,1), (1,1)
#   line-min       x on [-1,1]: -1 at x = -1
#   shifted-paraboloid  squared distance to (0.3,-0.2), inside the box: 0
#   two-well       x^4 - x^2 on [-1,1]: -1/4 at x = +-1/sqrt(2)
#   motzkin-box    Motzkin polynomial, >= 0 by AM-GM, 0 at |x1| = |x2| = 1
BUILTIN_OPTIMA = {
    "binary-corner": -1.0,
    "line-min": -1.0,
    "shifted-paraboloid": 0.0,
    "two-well": -0.25,
    "motzkin-box": 0.0,
}
# Every builtin constraint p has 1 - p a square (x_i^2) or 1 -+ h a member
# at degree 2, and a degree-2 target is never in a module of lower level.
BUILTIN_D0 = 2

CD_DEGREE = 6
CD_RES = 201
POWER_BUDGET = 12
POWER_RES = 51
UPPER_N = 3
UPPER_LEVEL = 16
ORACLE_RES = {2: 201, 3: 61}
N4_SAMPLES = 100_000


@dataclass
class Outcome:
    """How one task ended: failed (raised or non-Optimal) and/or produced wrong output."""

    failure: str | None = None
    wrong: list = field(default_factory=list)
    relax: tuple = (0, 0)  # relaxations attempted, relaxations failed


@dataclass
class Task:
    name: str
    kind: str  # relax | suite | d0 | upper | cd_grid | power_grid
    run: Callable[[], object]
    judge: Callable[[object], Outcome]


@dataclass
class Workload:
    tasks: list
    rng: np.random.Generator

    def order(self) -> list:
        """The tasks of one pass, in a seeded order."""
        return [self.tasks[i] for i in self.rng.permutation(len(self.tasks))]


# ------------------------------------------------------------------ inputs


def dense_quartic(n: int, seed: int) -> Polynomial:
    """Dense degree-4 polynomial with standard normal coefficients."""
    rng = np.random.default_rng(seed)
    return Polynomial(n, {a: rng.standard_normal() for a in MonomialBasis(n, 4)})


def ball_constraint(n: int) -> Polynomial:
    g = Polynomial.constant(1.0, n)
    for i in range(n):
        g = g - Polynomial.variable(i, n) * Polynomial.variable(i, n)
    return g


def random_problem(n: int, seed: int, domain: str) -> SemialgebraicProblem:
    if domain == "ball":
        cons = (ball_constraint(n),)
    else:
        cons = tuple(1 - Polynomial.variable(i, n) * Polynomial.variable(i, n) for i in range(n))
    return SemialgebraicProblem(n=n, objective=dense_quartic(n, seed), constraints=cons)


# -------------------------------------------------------- reference values


def _powers(pts: np.ndarray, deg: int) -> list:
    """powers[i][e] = pts[:, i] ** e for e <= deg."""
    out = []
    for i in range(pts.shape[1]):
        col = [np.ones(pts.shape[0])]
        for _ in range(deg):
            col.append(col[-1] * pts[:, i])
        out.append(col)
    return out


def _monomial(powers, alpha) -> np.ndarray:
    mono = powers[0][alpha[0]]
    for i in range(1, len(alpha)):
        mono = mono * powers[i][alpha[i]]
    return mono


def eval_poly(p: Polynomial, pts: np.ndarray, chunk: int = 16384) -> np.ndarray:
    """p at each row of pts, in chunks so set-up does not raise the peak RSS."""
    vals = np.zeros(pts.shape[0])
    for lo in range(0, pts.shape[0], chunk):
        powers = _powers(pts[lo:lo + chunk], p.degree)
        for alpha, c in p.terms.items():
            vals[lo:lo + chunk] += c * _monomial(powers, alpha)
    return vals


def grid(n: int, res: int) -> np.ndarray:
    axes = [np.linspace(-1.0, 1.0, res)] * n
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)


def grid_min(prob: SemialgebraicProblem, res: int) -> float:
    """Minimum over the feasible points of a grid on [-1,1]^n (an upper bound on f*)."""
    pts = grid(prob.n, res)
    feas = np.ones(pts.shape[0], dtype=bool)
    for g in prob.constraints:
        feas &= eval_poly(g, pts) >= -1e-12
    return float(np.min(eval_poly(prob.objective, pts[feas])))


def grid_slack(f: Polynomial, res: int) -> float:
    """Bound on grid_min - f* for the box or the ball.

    Rounding each coordinate of a feasible point toward 0 onto the grid stays
    feasible and moves each coordinate by less than the spacing h, and
    |df/dx_i| <= sum |c_a| a_i on [-1,1]^n.
    """
    h = 2.0 / (res - 1)
    return h * sum(abs(c) * sum(a) for a, c in f.terms.items())


def ball_sample_min(f: Polynomial, rng: np.random.Generator, count: int) -> float:
    """Smallest value of f over uniform samples of the unit ball (an upper bound on f*)."""
    n = f.n
    x = rng.standard_normal((count, n))
    x *= (rng.uniform(size=count) ** (1.0 / n) / np.linalg.norm(x, axis=1))[:, None]
    return float(np.min(eval_poly(f, x)))


def lebesgue_moment(kind: str, alpha) -> float:
    """Moment of Lebesgue measure on [-1,1]^n ('box') or the unit ball ('ball')."""
    if any(a % 2 for a in alpha):
        return 0.0
    if kind == "box":
        return math.prod(2.0 / (a + 1) for a in alpha)
    beta = [(a + 1) / 2 for a in alpha]
    return 2.0 * math.prod(math.gamma(b) for b in beta) / (
        (sum(alpha) + len(alpha)) * math.gamma(sum(beta))
    )


def uniform_box_moments(lo, hi, order: int) -> np.ndarray:
    """Moments of the uniform probability measure on the box prod [lo_i, hi_i]."""
    out = []
    for alpha in MonomialBasis(len(lo), order):
        out.append(math.prod(
            (b ** (a + 1) - l ** (a + 1)) / ((a + 1) * (b - l)) for a, l, b in zip(alpha, lo, hi)
        ))
    return np.array(out)


def christoffel_reference(y: np.ndarray, n: int, d: int, pts: np.ndarray, pinv_tol=1e-8):
    """K(x,x) = v(x)' M^+ v(x) on the points, from a Hankel matrix built here."""
    rows = MonomialBasis(n, d)
    full = MonomialBasis(n, 2 * d)
    idx = np.array([[full.index_of(tuple(p + q for p, q in zip(a, b))) for b in rows] for a in rows])
    w, U = np.linalg.eigh(y[idx])
    keep = w > pinv_tol * w[-1]
    F = U[:, keep].T / np.sqrt(w[keep])[:, None]
    powers = _powers(pts, d)
    V = np.stack([_monomial(powers, a) for a in rows])
    return np.sum((F @ V) ** 2, axis=0)


def power_margin_reference(y: np.ndarray, n: int, budget: int, pts: np.ndarray):
    """power_method_margin over the monomials of degree <= 2, computed here.

    For q = x^b, L(q^(2k)) is the moment of 2kb; the constant member adds
    |1| - |1| = 0, so every margin is at most 0.
    """
    full = MonomialBasis(n, budget)
    powers = _powers(np.abs(pts), 2)
    margin = np.zeros(pts.shape[0])
    for b in list(MonomialBasis(n, 2))[1:]:
        bound = max(
            max(y[full.index_of(tuple(2 * k * e for e in b))], 0.0) ** (1.0 / (2 * k))
            for k in range(1, budget // (2 * sum(b)) + 1)
        )
        margin = np.minimum(margin, bound - _monomial(powers, b))
    return margin


# ---------------------------------------------------------------- judges


def judge_relaxation(f: Polynomial, ref: float, what: str):
    """Lower bounds at or below the reference, certificate residual small."""
    cert_tol = 1e-5 * (1.0 + f.coeff_norm())

    def judge(res) -> Outcome:
        if res.status != "Optimal":
            return Outcome(failure=f"status {res.status}", relax=(1, 1))
        wrong = []
        tol = 1e-6 * (1.0 + abs(ref))
        for label, val in (("m_d", res.m_d_star), ("f_d", res.f_d_star)):
            if not val <= ref + tol:
                wrong.append(f"lower bound {label} = {val:.9g} above {what} {ref:.9g}")
        resid = math.inf if res.certificate is None else res.certificate.residual_norm
        if not resid <= cert_tol:
            wrong.append(f"certificate residual {resid:.3g} above {cert_tol:.3g}")
        return Outcome(wrong=wrong, relax=(1, 0))

    return judge


def judge_suite(corpus):
    expected = {bp.id: list(range(bp.d_min, bp.d_max + 1)) for bp in corpus}

    def judge(result) -> Outcome:
        reports, _csv = result
        wrong, levels, failed = [], 0, 0
        for rep in reports:
            f_star = BUILTIN_OPTIMA.get(rep.problem_id)
            if f_star is None:
                wrong.append(f"{rep.problem_id}: no known optimum")
                continue
            if rep.levels != expected[rep.problem_id]:
                levels += len(expected[rep.problem_id])
                failed += len(expected[rep.problem_id])
                continue
            if not abs(rep.f_star - f_star) <= 1e-3:
                wrong.append(f"{rep.problem_id}: oracle f* {rep.f_star:.9g}, known {f_star}")
            tol = 1e-6 * (1.0 + abs(f_star))
            for d, st, m in zip(rep.levels, rep.statuses, rep.m_values):
                levels += 1
                if st != "Optimal":
                    failed += 1
                elif not m <= f_star + tol:
                    wrong.append(f"{rep.problem_id} d={d}: lower bound {m:.9g} above f* {f_star}")
            for d, u in zip(rep.upper_levels, rep.u_values):
                if not u >= f_star - tol:
                    wrong.append(f"{rep.problem_id} d={d}: upper bound {u:.9g} below f* {f_star}")
        if len(reports) != len(expected):
            wrong.append(f"{len(reports)} reports for {len(expected)} problems")
        failure = f"{failed} of {levels} levels not Optimal" if failed else None
        return Outcome(failure=failure, wrong=wrong, relax=(levels, failed))

    return judge


def judge_d0(k) -> Outcome:
    return Outcome(wrong=[] if k == BUILTIN_D0 else [f"d0 = {k}, expected {BUILTIN_D0}"])


def judge_upper(f: Polynomial, kind: str, f_lo: float):
    """u_d is the cost of a unit-mass density and lies above f* (>= f_lo)."""
    moments = {}

    def integral(p_terms, q_terms=None):
        total = 0.0
        for a, c in p_terms.items():
            for b, e in (q_terms or {(0,) * f.n: 1.0}).items():
                key = tuple(x + z for x, z in zip(a, b))
                if key not in moments:
                    moments[key] = lebesgue_moment(kind, key)
                total += c * e * moments[key]
        return total

    def judge(res) -> Outcome:
        wrong = []
        mass = integral(res.sigma.terms)
        cost = integral(f.terms, res.sigma.terms)
        if not abs(mass - 1.0) <= 1e-8:
            wrong.append(f"{kind}: density mass {mass:.12g}")
        if not abs(cost - res.u_d_star) <= 1e-6 * (1.0 + abs(cost)):
            wrong.append(f"{kind}: u_d {res.u_d_star:.9g} but density cost {cost:.9g}")
        if not res.u_d_star >= f_lo:
            wrong.append(f"{kind}: upper bound {res.u_d_star:.9g} below f* >= {f_lo:.9g}")
        return Outcome(wrong=wrong)

    return judge


def judge_cd(lo, hi, threshold, ref_pts, ref_vals):
    def judge(g) -> Outcome:
        wrong = []
        if g.points.shape != ref_pts.shape or not np.allclose(g.points, ref_pts, atol=1e-12):
            return Outcome(wrong=["CD grid points differ from the requested grid"])
        inside = np.all((g.points > lo) & (g.points < hi), axis=1)
        missed = int(np.sum(inside & ~g.included))
        if missed:
            wrong.append(f"CD sublevel set (threshold {threshold}) leaves out {missed} support points")
        err = np.abs(g.values - ref_vals) / np.maximum(1.0, np.abs(ref_vals))
        if not float(np.max(err)) <= 1e-6:
            wrong.append(f"CD kernel values differ from the reference by {float(np.max(err)):.3g}")
        return Outcome(wrong=wrong)

    return judge


def judge_power(ref):
    def judge(margins) -> Outcome:
        err = float(np.max(np.abs(margins - ref) / (1.0 + np.abs(ref))))
        return Outcome(wrong=[] if err <= 1e-9 else [f"power margins differ from the reference by {err:.3g}"])

    return judge


# ------------------------------------------------------------- workloads


def relax_task(prob, d, ref, what, name) -> Task:
    return Task(
        name=name,
        kind="relax",
        run=lambda: hierarchy.solve_moment_relaxation(prob, d),
        judge=judge_relaxation(prob.objective, ref, what),
    )


def warm_up_relaxation():
    hierarchy.solve_moment_relaxation(random_problem(2, 0, "ball"), 4)


def setup_relax_large(seed: int) -> Workload:
    """One n=4, d=6 relaxation (209 variables) and two at n=3, d=6 (83 variables)."""
    rng = np.random.default_rng(seed)
    tasks = []
    p4 = random_problem(4, RELAX_N4_SEED, "ball")
    ref4 = ball_sample_min(p4.objective, rng, N4_SAMPLES)
    tasks.append(relax_task(p4, 6, ref4, "sampled feasible value",
                            f"relax n=4 d=6 ball seed={RELAX_N4_SEED}"))
    for s in RELAX_N3_SEEDS:
        p3 = random_problem(3, s, "ball")
        tasks.append(relax_task(p3, 6, grid_min(p3, ORACLE_RES[3]), "grid oracle",
                                f"relax n=3 d=6 ball seed={s}"))
    warm_up_relaxation()
    return Workload(tasks, rng)


def setup_suite_builtin(seed: int) -> Workload:
    """run_suite on the builtin corpus, compute_d0 on it, and the n=2, d=8 sweep."""
    rng = np.random.default_rng(seed)
    corpus = bench.builtin_corpus()
    tasks = [Task("run_suite builtin", "suite", lambda: bench.run_suite(corpus), judge_suite(corpus))]
    for bp in corpus:
        tasks.append(Task(f"compute_d0 {bp.id}", "d0",
                          lambda bp=bp: hierarchy.compute_d0(bp.problem, bp.d_max), judge_d0))
    for domain in ("ball", "box"):
        for s in SWEEP_SEEDS:
            p = random_problem(2, s, domain)
            tasks.append(relax_task(p, 8, grid_min(p, ORACLE_RES[2]), "grid oracle",
                                    f"relax n=2 d=8 {domain} seed={s}"))
    warm_up_relaxation()
    return Workload(tasks, rng)


def setup_measure_eval(seed: int) -> Workload:
    """CD kernel and power-method grids from a uniform box measure; upper bounds at n=3."""
    rng = np.random.default_rng(seed)
    width = rng.uniform(1.5, 2.0, size=2)
    center = rng.uniform(-1.0 + width / 2, 1.0 - width / 2)
    lo, hi = center - width / 2, center + width / 2
    y = PseudoMomentSequence(2, 2 * CD_DEGREE, uniform_box_moments(lo, hi, 2 * CD_DEGREE))
    # K(x,x) <= (d+1)^(2n) on the support of a uniform product measure: the
    # total-degree space sits inside the tensor space, whose kernel is the
    # product of 1-D Legendre kernels, each at most (d+1)^2.
    threshold = float((CD_DEGREE + 1) ** 4)
    cd_pts = grid(2, CD_RES)
    cd_ref = christoffel_reference(y.y, 2, CD_DEGREE, cd_pts)
    power_pts = grid(2, POWER_RES)

    def cd_grid():
        kernel = support.cd_kernel(y, CD_DEGREE)
        return support.cd_support_grid(kernel, (-1.0, 1.0), CD_RES, threshold)

    def power_grid():
        family = support.default_power_family(2)
        return np.array([support.power_method_margin(y, POWER_BUDGET, family, x) for x in power_pts])

    tasks = [
        Task(f"cd grid d={CD_DEGREE} {CD_RES}^2", "cd_grid", cd_grid,
             judge_cd(lo, hi, threshold, cd_pts, cd_ref)),
        Task(f"power grid {POWER_RES}^2", "power_grid", power_grid,
             judge_power(power_margin_reference(y.y, 2, POWER_BUDGET, power_pts))),
    ]
    f = dense_quartic(UPPER_N, int(rng.integers(2**31)))
    for kind in ("box", "ball"):
        cons = (ball_constraint(UPPER_N),) if kind == "ball" else ()
        f_lo = grid_min(SemialgebraicProblem(UPPER_N, f, cons), ORACLE_RES[3]) - grid_slack(
            f, ORACLE_RES[3])
        mu = ReferenceMeasure(kind, UPPER_N)
        tasks.append(Task(f"upper n={UPPER_N} d={UPPER_LEVEL} {kind}", "upper",
                          lambda mu=mu: upperbound.solve_upper_bound(f, mu, UPPER_LEVEL),
                          judge_upper(f, kind, f_lo)))

    warm = support.cd_kernel(y, 2)
    support.cd_support_grid(warm, (-1.0, 1.0), 21, threshold)
    upperbound.solve_upper_bound(dense_quartic(2, 0), ReferenceMeasure.box(2), 4)
    return Workload(tasks, rng)


SETUP = {
    "relax-large": setup_relax_large,
    "suite-builtin": setup_suite_builtin,
    "measure-eval": setup_measure_eval,
}


def judge(task: Task, output) -> Outcome:
    """Outcome of a task from its return value, or from the exception it raised."""
    if isinstance(output, BaseException):
        return Outcome(failure=f"raised {type(output).__name__}: {output}",
                       relax=(1, 1) if task.kind == "relax" else (0, 0))
    return task.judge(output)
