import time

import numpy as np
import pytest

from momlab.bench import builtin_corpus, run_suite
from momlab.cone import SemialgebraicProblem
from momlab.hierarchy import solve_moment_relaxation
from momlab.poly import MonomialBasis, Polynomial


@pytest.fixture(scope="session")
def corner_problem():
    """Bilinear objective on the binary square {0,1}^2 (via idempotent relations)."""
    x1 = Polynomial.variable(0, 2)
    x2 = Polynomial.variable(1, 2)
    return SemialgebraicProblem(
        n=2,
        objective=-x1 - x2 + x1 * x2,
        equalities=(x1 - x1 * x1, x2 - x2 * x2),
    )


@pytest.fixture(scope="session")
def corner_results(corner_problem):
    """Levels 2 and 3 solved once; reused across test modules."""
    return {d: solve_moment_relaxation(corner_problem, d) for d in (2, 3)}


@pytest.fixture(scope="session")
def line_problem():
    x = Polynomial.variable(0, 1)
    return SemialgebraicProblem(n=1, objective=x, constraints=(1 - x * x,))


@pytest.fixture(scope="session")
def suite_run():
    """Full benchmark suite, run once: (reports, csv_text, elapsed_seconds)."""
    t0 = time.monotonic()
    reports, csv_text = run_suite(builtin_corpus())
    return reports, csv_text, time.monotonic() - t0


def sweep_problem(n, seed, domain):
    """Seeded dense quartic on the unit ball or on the box [-1, 1]^n."""
    rng = np.random.default_rng(seed)
    f = Polynomial(n, {a: rng.standard_normal() for a in MonomialBasis(n, 4)})
    xs = [Polynomial.variable(i, n) for i in range(n)]
    if domain == "ball":
        cons = (Polynomial.constant(1.0, n) - sum((x * x for x in xs), Polynomial.zero(n)),)
    else:
        cons = tuple(1 - x * x for x in xs)
    return SemialgebraicProblem(n=n, objective=f, constraints=cons)


def random_atomic(rng, n, k_max=4, min_sep=0.35, weight_range=(0.2, 1.0)):
    """Well-separated random atoms in [-1,1]^n with positive weights."""
    k = int(rng.integers(1, k_max + 1))
    atoms = []
    while len(atoms) < k:
        cand = rng.uniform(-1, 1, n)
        if all(np.linalg.norm(cand - a) >= min_sep for a in atoms):
            atoms.append(cand)
    weights = rng.uniform(*weight_range, size=k)
    return np.array(atoms), weights
