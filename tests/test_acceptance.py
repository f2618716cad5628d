"""End-to-end acceptance checks over the shipped problems and random inputs."""

import math
import time

import numpy as np
import pytest
import scipy.linalg as sla

from momlab.bench import builtin_corpus
from momlab.cone import PseudoMomentSequence
from momlab.extraction import (
    AtomicMeasure,
    candidate_minimizer,
    check_flatness,
    extract_atoms,
    rank_profile,
    tchakaloff_prune,
)
from momlab.hierarchy import solve_moment_relaxation
from momlab.poly import r_dim
from momlab.support import cd_kernel, default_power_family, power_method_margin
from momlab.upperbound import (
    ReferenceMeasure,
    lebesgue_box_moments,
    solve_upper_bound,
)

from conftest import random_atomic


def _match_atoms(found, expected):
    found = np.atleast_2d(found).tolist()
    worst = 0.0
    matched_weights = []
    for e in np.atleast_2d(expected):
        dists = [np.linalg.norm(np.array(f) - e) for f in found]
        j = int(np.argmin(dists))
        worst = max(worst, dists[j])
        matched_weights.append(j)
        found.pop(j)
    return worst


# 1 ---------------------------------------------------------------------------


def test_worked_example_reproduction(corner_problem):
    t0 = time.monotonic()
    r2 = solve_moment_relaxation(corner_problem, 2)
    # the optimum of the level-2 SDP at the pseudo-moments
    # (0.75, 0.75, 0.375) is -0.75 - 0.75 + 0.375 = -1.125 (= -9/8): with
    # a = y10 = y01 the PSD face is y11 = 2a^2 - a, and 2a^2 - 3a is
    # minimized at a = 3/4
    assert r2.m_d_star == pytest.approx(-1.125, abs=1e-5)
    y2 = r2.pseudo_moments
    assert y2.value((1, 0)) == pytest.approx(0.75, abs=1e-4)
    assert y2.value((0, 1)) == pytest.approx(0.75, abs=1e-4)
    assert y2.value((1, 1)) == pytest.approx(0.375, abs=1e-4)
    cand = candidate_minimizer(y2)
    np.testing.assert_allclose(cand, [0.75, 0.75], atol=1e-4)
    assert not corner_problem.contains(cand, tol=1e-6)

    r3 = solve_moment_relaxation(corner_problem, 3)
    assert r3.m_d_star == pytest.approx(-1.0, abs=1e-5)
    y3 = r3.pseudo_moments
    # level-3 pseudo-moments reach degree 4, i.e. moment-matrix order 2
    rep = check_flatness(y3, 2, 2)
    assert rep.is_flat
    mu = extract_atoms(y3, 2)
    expected = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert mu.n_atoms == 3
    assert _match_atoms(mu.atoms, expected) <= 1e-4
    for atom in mu.atoms:
        assert corner_problem.objective(atom) == pytest.approx(-1.0, abs=1e-5)
    assert time.monotonic() - t0 < 5.0


# 2 ---------------------------------------------------------------------------


def test_rank_profile_facts():
    collinear = AtomicMeasure(
        np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]), [1 / 3] * 3
    )
    profile = rank_profile(collinear, 4)
    assert profile[1] == 2
    assert all(r == 3 for r in profile[2:])
    dirac = AtomicMeasure(np.array([[0.2, -0.4]]), [1.0])
    assert rank_profile(dirac, 4) == [1, 1, 1, 1, 1]


# 3 ---------------------------------------------------------------------------


def test_hierarchy_sandwich_full_corpus(suite_run):
    reports, _, elapsed = suite_run
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    assert len(reports) == 5
    for rep in reports:
        assert all(s == "Optimal" for s in rep.statuses), (rep.problem_id, rep.statuses)
        for m, f in zip(rep.m_values, rep.f_values):
            assert f <= m + 1e-5, rep.problem_id
            assert m <= rep.f_star + 1e-5, rep.problem_id
        for u in rep.u_values:
            assert rep.f_star <= u + 1e-5, rep.problem_id
        for lo, hi in zip(rep.m_values, rep.m_values[1:]):
            assert hi >= lo - 1e-6, rep.problem_id
        for lo, hi in zip(rep.u_values, rep.u_values[1:]):
            assert hi <= lo + 1e-6, rep.problem_id


# 4 ---------------------------------------------------------------------------


def test_certificate_soundness_across_corpus():
    for bp in builtin_corpus():
        for d in range(bp.d_min, bp.d_max + 1):
            res = solve_moment_relaxation(bp.problem, d)
            cert = res.certificate
            assert cert is not None, (bp.id, d)
            assert cert.residual_norm <= 1e-6, (bp.id, d, cert.residual_norm)
            for G in cert.grams:
                if G.size:
                    assert np.min(np.linalg.eigvalsh(G)) >= -1e-8, (bp.id, d)


# 5 ---------------------------------------------------------------------------


def test_upper_bound_matches_closed_form_oracle():
    # independent oracle: the 2x2 generalized eigenproblem for f = x on [-1,1]
    A = np.array([[0.0, 2.0 / 3.0], [2.0 / 3.0, 0.0]])
    B = np.array([[2.0, 0.0], [0.0, 2.0 / 3.0]])
    oracle = float(sla.eigh(A, B, eigvals_only=True)[0])
    assert oracle == pytest.approx(-1.0 / math.sqrt(3.0), abs=1e-12)
    from momlab.poly import Polynomial

    res = solve_upper_bound(Polynomial.variable(0, 1), ReferenceMeasure.box(1), 2)
    assert res.u_d_star == pytest.approx(oracle, abs=1e-8)


def test_estimator_cost_and_feasibility_on_corpus():
    convex_f = {"line-min", "shifted-paraboloid"}
    convex_k = {"line-min", "shifted-paraboloid", "two-well", "motzkin-box"}
    for bp in builtin_corpus():
        for d in bp.upper_levels:
            try:
                res = solve_upper_bound(bp.problem.objective, bp.measure, d)
            except ValueError:
                continue  # reference moment matrix singular at this order
            if bp.id in convex_f:
                f_at = bp.problem.objective(res.x_check)
                assert f_at <= res.cost + 1e-8, (bp.id, d)
            if bp.id in convex_k:
                assert bp.problem.membership_residual(res.x_check) >= -1e-6, (bp.id, d)


# 6 ---------------------------------------------------------------------------


def test_extraction_roundtrip_100_measures():
    rng = np.random.default_rng(2024)
    for trial in range(100):
        n = int(rng.integers(1, 4))
        atoms, weights = random_atomic(rng, n)
        # the pivot columns live in degree <= d-1, so 4 atoms on a line need
        # order 4; two or more variables already have room at order 3
        d = 4 if n == 1 else 3
        y = PseudoMomentSequence.from_atoms(atoms, weights, 2 * d)
        mu = extract_atoms(y, d)
        assert mu.n_atoms == atoms.shape[0], f"trial {trial}"
        # greedy atom matching with the weight carried along
        found = [(a, w) for a, w in zip(mu.atoms.tolist(), mu.weights)]
        for a_true, w_true in zip(atoms, weights):
            dists = [np.linalg.norm(np.array(a) - a_true) for a, _ in found]
            j = int(np.argmin(dists))
            assert dists[j] <= 1e-6, f"trial {trial}"
            assert abs(found[j][1] - w_true) <= 1e-6, f"trial {trial}"
            found.pop(j)


def test_tchakaloff_prune_100_inputs():
    rng = np.random.default_rng(7)
    for trial in range(100):
        n = int(rng.integers(1, 4))
        t = int(rng.integers(1, 4))
        k = int(rng.integers(2, 13))
        atoms = rng.uniform(-1, 1, (k, n))
        weights = rng.uniform(0.05, 1.0, k)
        mu = AtomicMeasure(atoms, weights)
        pruned = tchakaloff_prune(mu, t)
        assert pruned.n_atoms <= r_dim(n, t), f"trial {trial}"
        y0 = mu.moments(t).y
        y1 = pruned.moments(t).y
        assert np.max(np.abs(y0 - y1)) <= 1e-10, f"trial {trial}"


# 7 ---------------------------------------------------------------------------


def test_moment_distance_monotone_on_unique_minimizer_problems(suite_run):
    reports, _, _ = suite_run
    by_id = {r.problem_id: r for r in reports}
    for pid in ("line-min", "shifted-paraboloid"):
        rep = by_id[pid]
        assert rep.mom_dists[-1] <= rep.mom_dists[0] + 1e-7, pid
        assert rep.est_errors[-1] <= rep.est_errors[0] + 1e-7, pid
    parab = by_id["shifted-paraboloid"]
    assert parab.levels[-1] == 6
    assert parab.est_errors[-1] <= 1e-3


def test_rounded_levels_reach_the_minimizer(suite_run):
    # from level 3 on, both moment matrices are flat and the relaxation is
    # rounded to its polished atom: the pseudo-moments are those of the minimizer
    reports, _, _ = suite_run
    by_id = {r.problem_id: r for r in reports}
    for pid in ("line-min", "shifted-paraboloid"):
        rep = by_id[pid]
        assert rep.flat_levels == [3, 4, 5, 6], pid
        for d, est, dist in zip(rep.levels, rep.est_errors, rep.mom_dists):
            if d >= 3:
                assert est <= 1e-12 and dist == 0.0, (pid, d, est, dist)


# 8 ---------------------------------------------------------------------------


def test_cd_trace_identity_box():
    for n in (1, 2):
        for d in range(1, 7):
            table = lebesgue_box_moments(n, 2 * d)
            y = PseudoMomentSequence.from_table(n, 2 * d, table)
            k = cd_kernel(y, d)
            Q = k.factor.T @ k.factor
            trace = 0.0
            for i, a in enumerate(k.basis):
                for j, b in enumerate(k.basis):
                    trace += Q[i, j] * table[tuple(x + z for x, z in zip(a, b))]
            assert trace == pytest.approx(r_dim(n, d), abs=1e-6), (n, d)


def test_power_method_soundness_50_measures():
    rng = np.random.default_rng(88)
    for trial in range(50):
        n = int(rng.integers(1, 3))
        atoms, _ = random_atomic(rng, n)
        # weights >= 1 keep the finite-exponent bound valid at every atom
        weights = rng.uniform(1.0, 2.0, atoms.shape[0])
        y = PseudoMomentSequence.from_atoms(atoms, weights, 8)
        family = default_power_family(n)
        for a in atoms:
            margin = power_method_margin(y, 8, family, a)
            assert margin >= -1e-8, f"trial {trial}: margin {margin}"
