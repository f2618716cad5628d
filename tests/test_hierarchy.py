import dataclasses
import math

import numpy as np
import pytest

from momlab.cone import SemialgebraicProblem, normalize
from momlab import hierarchy
from momlab.extraction import candidate_minimizer
from momlab.hierarchy import (
    MEMBERSHIP_TOL,
    RelaxationResult,
    build_moment_sdp,
    compute_d0,
    qmodule_membership,
    relaxation_order,
    run_hierarchy,
    solve_moment_relaxation,
    solve_sos_tightening,
)
from momlab.poly import Polynomial


def test_relaxation_order():
    assert [relaxation_order(d) for d in range(1, 7)] == [1, 1, 2, 2, 3, 3]


def test_level_below_problem_degree_raises(line_problem):
    with pytest.raises(ValueError, match="below problem degree"):
        build_moment_sdp(line_problem, 1)


def test_constant_objective():
    prob = SemialgebraicProblem(
        n=1,
        objective=Polynomial.constant(3.5, 1),
        constraints=(Polynomial(1, {(0,): 1.0, (2,): -1.0}),),
    )
    res = solve_moment_relaxation(prob, 2)
    assert res.m_d_star == pytest.approx(3.5, abs=1e-7)
    assert res.pseudo_moments.value((0,)) == pytest.approx(1.0, abs=1e-9)


def test_interval_linear_all_levels(line_problem):
    for d in (2, 3, 4):
        res = solve_moment_relaxation(line_problem, d)
        assert res.status == "Optimal"
        assert res.m_d_star == pytest.approx(-1.0, abs=1e-6)
        assert res.f_d_star <= res.m_d_star + 1e-7
        assert res.certificate.residual_norm <= 1e-6
        for G in res.certificate.grams:
            if G.size:
                assert np.min(np.linalg.eigvalsh(G)) >= -1e-8


def test_corner_levels_and_pseudo_moments(corner_results):
    r2, r3 = corner_results[2], corner_results[3]
    assert r2.m_d_star == pytest.approx(-1.125, abs=1e-6)
    assert r3.m_d_star == pytest.approx(-1.0, abs=1e-6)
    y2 = r2.pseudo_moments
    assert y2.value((0, 0)) == pytest.approx(1.0, abs=1e-9)
    # idempotent relations hold exactly on the eliminated subspace
    assert y2.value((1, 0)) == pytest.approx(y2.value((2, 0)), abs=1e-12)
    # certificates re-expand at both levels
    assert r2.certificate.residual_norm <= 1e-8
    assert r3.certificate.residual_norm <= 1e-8
    assert any(not m.is_zero() for m in r3.certificate.multipliers)


def test_certificate_expansion_identity(line_problem):
    f_d, cert = solve_sos_tightening(line_problem, 2)
    assert f_d == pytest.approx(-1.0, abs=1e-6)
    combo = Polynomial.constant(cert.s, 1)
    weights = [Polynomial.constant(1.0, 1)] + list(line_problem.constraints)
    for sigma, g in zip(cert.sos_terms(1), weights):
        combo = combo + sigma * g
    diff = line_problem.objective - combo - cert.residual
    assert diff.coeff_norm() <= 1e-8


def test_membership_trivial_and_negative():
    x = Polynomial.variable(0, 1)
    prob = SemialgebraicProblem(n=1, objective=x, constraints=(x**3,))
    ok, cert = qmodule_membership(Polynomial.constant(1.0, 1), prob, 2)
    assert ok and cert.residual_norm <= 1e-7
    # x is not sigma_0 + sigma_1 * x^3 with products of degree <= 2
    ok, cert = qmodule_membership(x, prob, 2)
    assert not ok and cert is None
    # a generator is always a member once the level admits it
    prob2 = SemialgebraicProblem(n=1, objective=x, constraints=(1 - x * x,))
    ok, cert = qmodule_membership(1 - x * x, prob2, 2)
    assert ok
    assert cert.residual_norm <= 1e-7


def test_membership_below_degree():
    x = Polynomial.variable(0, 1)
    prob = SemialgebraicProblem(n=1, objective=x, constraints=(1 - x * x,))
    ok, cert = qmodule_membership(x**4, prob, 2)
    assert not ok and cert is None


def test_membership_uses_equalities():
    # on {0,1}: x = x^2 means x itself is in the module at level 2
    x = Polynomial.variable(0, 1)
    prob = SemialgebraicProblem(n=1, objective=x, equalities=(x - x * x,))
    ok, cert = qmodule_membership(x, prob, 2)
    assert ok
    assert any(not m.is_zero() for m in cert.multipliers)
    assert cert.residual_norm <= 1e-6


def test_compute_d0_examples():
    x = Polynomial.variable(0, 1)
    half_ring = SemialgebraicProblem(
        n=1, objective=x, constraints=(0.5 * (1 - x * x),)
    )
    # 1 - p = 0.5 + 0.5 x^2 is already a sum of squares at level 2
    assert compute_d0(half_ring, 4) == 2
    ones = SemialgebraicProblem(
        n=1, objective=x, constraints=(Polynomial.constant(1.0, 1),)
    )
    assert compute_d0(ones, 4) == 0
    tight = SemialgebraicProblem(n=1, objective=x, constraints=(2 * (1 - x * x),))
    # 1 - 2(1-x^2) = -1 + 2x^2 is negative at 0: never a module member
    assert compute_d0(tight, 3) is None


def test_run_hierarchy_records_failures_and_monotone():
    x = Polynomial.variable(0, 1)
    prob = SemialgebraicProblem(
        n=1, objective=x**4 - x * x, constraints=(1 - x * x,)
    )
    results = run_hierarchy(prob, 2, 5)
    assert [r.d for r in results] == [2, 3, 4, 5]
    # levels below the objective degree fail but are still reported
    assert results[0].status.startswith("Failed")
    assert math.isnan(results[0].m_d_star)
    assert results[2].status == "Optimal"
    assert results[2].m_d_star == pytest.approx(-0.25, abs=1e-6)


def test_run_hierarchy_raises_when_bounds_decrease(monkeypatch, line_problem):
    bounds = {2: -0.5, 3: -1.0}

    def fake(prob, d, opts=None):
        return RelaxationResult(d, bounds[d], None, bounds[d], None, "Optimal")

    monkeypatch.setattr(hierarchy, "solve_moment_relaxation", fake)
    with pytest.raises(RuntimeError, match="lower bounds decreased"):
        run_hierarchy(line_problem, 2, 3)


def test_retry_is_reported(monkeypatch, line_problem):
    # the first solve reports MaxIter, so the loosened-tolerance re-solve is accepted
    real, seen = hierarchy.solve, []

    def first_fails(problem, opts=None):
        seen.append(opts)
        sol = real(problem, opts)
        return dataclasses.replace(sol, status="MaxIter") if len(seen) == 1 else sol

    monkeypatch.setattr(hierarchy, "solve", first_fails)
    res = solve_moment_relaxation(line_problem, 2)
    assert res.status == "Optimal"
    assert res.retried is True
    assert len(seen) == 2
    assert seen[0] is None
    assert (seen[1].gap_tol, seen[1].feas_tol) == (1e-7, 1e-7)


def test_first_time_solve_is_not_retried(monkeypatch, line_problem):
    calls = []
    real = hierarchy.solve
    monkeypatch.setattr(hierarchy, "solve", lambda p, o=None: calls.append(o) or real(p, o))
    res = solve_moment_relaxation(line_problem, 2)
    assert res.status == "Optimal"
    assert res.retried is False
    assert calls == [None]


def test_scale_invariance_through_normalize():
    x = Polynomial.variable(0, 1)
    prob = SemialgebraicProblem(
        n=1, objective=x, constraints=(4 - x * x,), ball_radius=2.0
    )
    norm = normalize(prob)
    res = solve_moment_relaxation(norm, 2)
    # minimum of x over [-2, 2] seen through the normalized coordinates
    assert res.m_d_star == pytest.approx(-2.0, abs=1e-6)
    cand = candidate_minimizer(res.pseudo_moments, norm.scale)
    assert cand[0] == pytest.approx(-2.0, abs=1e-4)


def test_membership_tol_exposed():
    assert 0 < MEMBERSHIP_TOL <= 1e-6
