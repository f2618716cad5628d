import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import momlab
import momlab.bench
from momlab.bench import (
    BenchProblem,
    LevelRecord,
    RateReport,
    brute_force_oracle,
    builtin_corpus,
    fit_rate,
    load_corpus,
    moment_distance_to_optimal,
    run_suite,
)
from momlab.cone import PseudoMomentSequence, SemialgebraicProblem, normalize
from momlab.poly import Polynomial
from momlab.upperbound import ReferenceMeasure

from conftest import sweep_problem


def test_oracle_interval_linear(line_problem):
    f_star, x_star, s_star = brute_force_oracle(line_problem)
    assert f_star == pytest.approx(-1.0, abs=1e-12)
    assert x_star[0] == pytest.approx(-1.0)
    assert s_star.shape[0] == 1


def test_oracle_corner_problem(corner_problem):
    # {0,1}^2 grid points survive the equality filter; three corners are optimal
    f_star, x_star, s_star = brute_force_oracle(corner_problem)
    assert f_star == pytest.approx(-1.0, abs=1e-12)
    assert s_star.shape[0] == 3
    rows = {tuple(np.round(p, 6)) for p in s_star}
    assert rows == {(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)}


def test_oracle_polishes_two_well_minimizers():
    # the grid's nearest nodes are +-0.71; polishing reaches +-1/sqrt(2) and f* = -1/4
    x = Polynomial.variable(0, 1)
    prob = SemialgebraicProblem(n=1, objective=x**4 - x * x, constraints=(1 - x * x,))
    f_star, x_star, s_star = brute_force_oracle(prob)
    assert abs(f_star + 0.25) <= 1e-12
    assert abs(abs(x_star[0]) - math.sqrt(0.5)) <= 1e-9
    assert sorted(s_star[:, 0]) == pytest.approx([-math.sqrt(0.5), math.sqrt(0.5)], abs=1e-9)


@pytest.mark.parametrize("n, seed, f_star", [(2, 5, -2.6926761), (3, 0, -2.5092113)])
def test_oracle_polishes_onto_the_sphere(n, seed, f_star):
    # no grid node lies within 1e-3 of these boundary minimizers (the best n=3 sample
    # has g = 3.3e-3); the polish holds g = 0 within one grid step and reaches the
    # level-8 (n=2) and level-6 (n=3) relaxations' rounded atoms, where the grid
    # value read 0.0121 and 0.022 high
    got, x_star, _ = brute_force_oracle(sweep_problem(n, seed, "ball"))
    assert got == pytest.approx(f_star, abs=1e-7)
    assert abs(np.sum(x_star ** 2) - 1.0) <= 1e-12


@pytest.mark.parametrize("shift", [-1e-9, 1e-3])
def test_oracle_keeps_grid_sample_when_polished_point_leaves_k_or_costs_more(
        monkeypatch, line_problem, shift):
    # min x on [-1, 1]: x - 1e-9 costs less but leaves K, x + 1e-3 stays in K but costs more
    monkeypatch.setattr(momlab.bench, "polish_atoms", lambda prob, pts, active_tol: pts + shift)
    f_star, x_star, s_star = brute_force_oracle(line_problem)
    assert f_star == -1.0 and x_star.tolist() == [-1.0] and s_star.tolist() == [[-1.0]]


def test_oracle_guards():
    p = Polynomial.variable(0, 4)
    prob = SemialgebraicProblem(n=4, objective=p)
    with pytest.raises(ValueError, match="n <= 3"):
        brute_force_oracle(prob)
    x = Polynomial.variable(0, 1)
    empty = SemialgebraicProblem(
        n=1, objective=x, constraints=(Polynomial.constant(-1.0, 1),)
    )
    with pytest.raises(ValueError, match="no feasible"):
        brute_force_oracle(empty)


def test_fit_rate_recovers_synthetic_slope():
    levels = [1, 2, 3, 4, 5]
    gaps = [2.0 * d ** (-2.0) for d in levels]
    fit = fit_rate(levels, gaps)
    assert fit.slope == pytest.approx(-2.0, abs=1e-9)
    assert fit.intercept == pytest.approx(math.log(2.0), abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.finite_convergence_level is None
    assert "slope" in fit.describe()


def test_fit_rate_finite_convergence():
    fit = fit_rate([1, 2, 3], [1e-2, 1e-12, 1e-13])
    assert fit.finite_convergence_level == 2
    assert fit.slope is None
    assert "finite convergence" in fit.describe()


def test_fit_rate_too_few_points():
    with pytest.raises(ValueError, match="at least 3"):
        fit_rate([1, 2], [0.5, 0.25])


def test_moment_distance_zero_for_optimal_measure():
    # moments of a point mass at an optimal sample have distance zero
    s_star = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    y = PseudoMomentSequence.from_atoms(s_star[:1], [1.0], 4)
    assert moment_distance_to_optimal(y, s_star, r=2) <= 1e-10
    # a mixture over the samples is also representable exactly
    y_mix = PseudoMomentSequence.from_atoms(s_star, [0.2, 0.3, 0.5], 4)
    assert moment_distance_to_optimal(y_mix, s_star, r=2) <= 1e-10


def test_moment_distance_hand_value():
    # single sample at 0, sequence of a point mass at 1/2: the degree-1
    # moment mismatch of 1/2 dominates, so the sup-norm distance is 1/2
    y = PseudoMomentSequence.from_atoms([[0.5]], [1.0], 2)
    d = moment_distance_to_optimal(y, np.array([[0.0]]), r=1)
    assert d == pytest.approx(0.5, abs=1e-9)


def test_moment_distance_empty_samples():
    y = PseudoMomentSequence.from_atoms([[0.0]], [1.0], 2)
    with pytest.raises(ValueError, match="empty"):
        moment_distance_to_optimal(y, np.zeros((0, 1)), r=1)


@pytest.mark.parametrize("samples, match", [
    ([[0.5, np.nan]], r"sample \(0\.5, nan\) is not finite"),
    ([[0.0, 0.0], [-np.inf, 1.0]], r"sample \(-inf, 1\.0\) is not finite"),
    ([[0.0, 0.0], [1e200, 0.0]], r"moments of sample \(1e\+200, 0\.0\) overflow"),
    ([[0.0, 0.0, 0.0]], r"shape \(k, 2\), got \(1, 3\)"),
    (np.zeros((2, 2, 1)), r"shape \(k, 2\), got \(2, 2, 1\)"),
])
def test_moment_distance_rejects_bad_samples(samples, match):
    y = PseudoMomentSequence.from_atoms([[0.5, -0.5]], [1.0], 4)
    with pytest.raises(ValueError, match=match):
        moment_distance_to_optimal(y, samples, r=2)


def _highs_distance(y, samples, r):
    """The moment-distance LP through scipy's HiGHS: the reference for the package's simplex."""
    from scipy.optimize import linprog

    y_r = y.truncate(r)
    Phi = y_r.basis.eval_matrix(samples).T
    k, ones = len(samples), np.ones((len(Phi), 1))
    res = linprog(np.r_[np.zeros(k), 1.0],
                  A_ub=np.vstack([np.hstack([Phi, -ones]), np.hstack([-Phi, -ones])]),
                  b_ub=np.r_[y_r.y, -y_r.y], A_eq=np.r_[np.ones(k), 0.0][None], b_eq=[1.0],
                  bounds=[(0, None)] * (k + 1), method="highs")
    assert res.success, res.message
    return res.fun


def _check_against_highs(y, samples, r):
    ours, ref = moment_distance_to_optimal(y, samples, r=r), _highs_distance(y, samples, r)
    # HiGHS reads 0 below its 1e-7 feasibility tolerance; the simplex's value is attained
    assert ours >= 0.0 and (abs(ours - ref) <= 1e-12 if ref > 1e-7 else ours <= 1e-7), (ours, ref)
    return ours


@pytest.mark.parametrize("n", [1, 2, 3])
def test_moment_distance_matches_highs(n):
    rng = np.random.default_rng(n)
    for r in (1, 2):
        for k in (1, 2, 3, 5, 8, 13, 21, 30):
            for draw in range(4):
                samples = rng.uniform(-1.0, 1.0, (k, n))
                if draw % 2:  # duplicate samples
                    samples = samples[rng.integers(0, k, k)]
                atoms = samples if draw == 0 else rng.uniform(-1.0, 1.0, (3, n))
                y = PseudoMomentSequence.from_atoms(atoms, rng.dirichlet(np.ones(len(atoms))), 2)
                dist = _check_against_highs(y, samples, r)
                if draw == 0:  # a mixture over the samples is representable
                    assert dist <= 1e-12, (r, k, dist)
                point = PseudoMomentSequence.from_atoms(samples[-1:], [1.0], 2)
                assert moment_distance_to_optimal(point, samples, r=r) == 0.0


@pytest.mark.parametrize("atom, samples, r, dist", [
    ([0.5, 0.5], [[0.0, 0.0]], 1, 0.5),              # both degree-1 residuals tie
    ([0.5, 0.5], [[0.0, 0.0]], 2, 0.5),
    ([0.0], [[-1.0], [1.0]], 1, 0.0),                # the midpoint of two samples
    ([0.0], [[-1.0], [1.0]], 2, 1.0),                # ... whose second moment is off by 1
    ([0.5, 0.5], [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], 2, None),
    ([0.0, 0.0], [[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]], 2, 1.0),
])
def test_moment_distance_with_tied_residuals(atom, samples, r, dist):
    y = PseudoMomentSequence.from_atoms([atom], [1.0], 2)
    value = _check_against_highs(y, np.array(samples), r)
    if dist is not None:
        assert value == pytest.approx(dist, abs=1e-15)


def test_moment_distance_names_its_pivot_cap(monkeypatch):
    monkeypatch.setattr(momlab.bench, "LP_MAX_PIVOTS", 0)
    y = PseudoMomentSequence.from_atoms([[0.0]], [1.0], 2)
    with pytest.raises(RuntimeError, match="no optimum in 0 pivots"):
        moment_distance_to_optimal(y, [[-1.0], [1.0]], r=1)


def test_builtin_corpus_shape():
    corpus = builtin_corpus()
    assert len(corpus) == 5
    assert [bp.id for bp in corpus] == [
        "binary-corner",
        "line-min",
        "shifted-paraboloid",
        "two-well",
        "motzkin-box",
    ]
    assert all(bp.problem.n <= 2 for bp in corpus)
    uniques = {bp.id for bp in corpus if bp.unique_minimizer}
    assert uniques == {"line-min", "shifted-paraboloid"}


def test_load_corpus_roundtrip():
    x = Polynomial.variable(0, 1)
    prob = SemialgebraicProblem(n=1, objective=x, constraints=(1 - x * x,))
    data = [
        {
            "id": "custom",
            "problem": prob.to_json_dict(),
            "d_min": 2,
            "d_max": 4,
            "upper_levels": [0, 2],
            "measure": "box",
            "unique_minimizer": True,
        }
    ]
    corpus = load_corpus(data)
    assert len(corpus) == 1
    assert corpus[0].id == "custom"
    assert corpus[0].measure.kind == "box"
    assert corpus[0].d_max == 4


def test_load_corpus_inline_moment_table():
    x = Polynomial.variable(0, 1)
    prob = SemialgebraicProblem(n=1, objective=x, constraints=(1 - x * x,))
    table = {"n": 1, "order": 2, "values": [{"alpha": [0], "y": 2.0}, {"alpha": [1], "y": 0.0},
                                            {"alpha": [2], "y": 2 / 3}]}
    entry = {"id": "tab", "problem": prob.to_json_dict(), "measure": table}
    (bp,) = load_corpus([entry])
    assert bp.measure.kind == "table"
    assert bp.measure.moment((2,)) == pytest.approx(2 / 3)
    with pytest.raises(ValueError, match="'tab': moment table has n = 2, problem has n = 1"):
        load_corpus([dict(entry, measure={"n": 2, "values": [{"alpha": [0, 0], "y": 4.0}]})])
    bad = dict(table, values=[{"alpha": [0, 0], "y": 1.0}])
    with pytest.raises(ValueError, match=r"exponent \(0, 0\) needs 1"):
        load_corpus([dict(entry, measure=bad)])


def test_run_suite_empty_corpus(tmp_path):
    reports, csv_text = run_suite([], out_dir=str(tmp_path))
    assert reports == []
    assert csv_text.splitlines()[0].startswith("problem,")
    assert (tmp_path / "report.csv").exists()
    assert (tmp_path / "summary.md").exists()


def test_run_suite_isolates_bad_problem():
    x = Polynomial.variable(0, 1)
    from momlab.bench import BenchProblem
    from momlab.upperbound import ReferenceMeasure

    bad = BenchProblem(
        id="infeasible",
        problem=SemialgebraicProblem(
            n=1, objective=x, constraints=(Polynomial.constant(-1.0, 1),)
        ),
        d_min=2,
        d_max=2,
        upper_levels=(),
        measure=ReferenceMeasure.box(1),
        unique_minimizer=False,
        box=((-1.0, 1.0),),
    )
    good = BenchProblem(
        id="ok",
        problem=SemialgebraicProblem(n=1, objective=x, constraints=(1 - x * x,)),
        d_min=2,
        d_max=4,
        upper_levels=(0, 2),
        measure=ReferenceMeasure.box(1),
        unique_minimizer=True,
        box=((-1.0, 1.0),),
    )
    reports, csv_text = run_suite([bad, good])
    assert reports[0].statuses[0].startswith("Failed")
    assert reports[1].m_values[0] == pytest.approx(-1.0, abs=1e-6)
    assert "ok,2," in csv_text


def test_run_suite_on_normalized_problem_compares_in_its_coordinates():
    # min (x - 1)^2 on [-2, 2], normalized by R = 2: oracle and candidate both see u* = 1/2
    x = Polynomial.variable(0, 1)
    prob = normalize(SemialgebraicProblem(n=1, objective=(x - 1) ** 2,
                                          constraints=(4 - x * x,), ball_radius=2.0))
    bp = BenchProblem(id="normalized", problem=prob, d_min=2, d_max=4, upper_levels=(),
                      measure=ReferenceMeasure.box(1), unique_minimizer=True)
    (rep,), _ = run_suite([bp])
    assert rep.statuses == ["Optimal"] * 3
    assert rep.x_star == pytest.approx([0.5])
    assert all(err <= 1e-4 for err in rep.est_errors), rep.est_errors


def test_full_suite_reports(suite_run):
    reports, csv_text, _ = suite_run
    assert len(reports) == 5
    for rep in reports:
        assert rep.levels, f"{rep.problem_id} produced no levels"
        assert all(s == "Optimal" for s in rep.statuses), rep.statuses
        assert len(rep.m_values) == len(rep.levels)
        assert len(rep.u_values) == len(rep.upper_levels)
    # the CSV has one row per solved level plus upper-only rows
    n_rows = len(csv_text.strip().splitlines()) - 1
    assert n_rows >= sum(len(r.levels) for r in reports)
    by_id = {r.problem_id: r for r in reports}
    assert by_id["line-min"].flat_levels  # exact already at low levels
    # rate fits exist wherever enough positive gaps survive
    assert by_id["shifted-paraboloid"].upper_fit is not None


def test_suite_reads_flatness_from_rounded_results(monkeypatch, suite_run):
    # run_suite reports a level flat when the library rounded it, and checks nothing itself
    def refuse(*args, **kwargs):
        raise AssertionError("run_suite must read flatness from RelaxationResult.rounded")

    monkeypatch.setattr(momlab.bench, "check_flatness", refuse)
    monkeypatch.setattr(momlab.bench, "extract_atoms", refuse)
    real, solved = momlab.bench._solve_levels, []
    monkeypatch.setattr(momlab.bench, "_solve_levels",
                        lambda prob, levels: solved.append(real(prob, levels)) or solved[-1])
    reports, _ = run_suite(builtin_corpus())
    assert {r.problem_id: r.flat_levels for r in reports} == {
        "binary-corner": [3, 4],
        "line-min": [3, 4, 5, 6],
        "shifted-paraboloid": [3, 4, 5, 6],
        "two-well": [4, 5, 6, 7, 8],
        "motzkin-box": [6, 7, 8],
    }
    assert [r.flat_levels for r in reports] == [r.flat_levels for r in suite_run[0]]
    for rep, results in zip(reports, solved, strict=True):
        assert rep.flat_levels == [r.d for r in results if r.rounded is not None], rep.problem_id


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is about a third of the import time, and no module of momlab uses it
    src = str(Path(momlab.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import sys, momlab; print('scipy.optimize' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_suite_runs_without_scipy_optimize():
    # the moment-distance LP is the package's own simplex, so the suite runs with
    # scipy.optimize unimportable
    src = str(Path(momlab.__file__).resolve().parents[1])
    code = ("import sys; sys.modules['scipy.optimize'] = None\n"
            "from momlab.bench import builtin_corpus, run_suite\n"
            "print([rep.failure for rep in run_suite(builtin_corpus())[0]])")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == str([None] * 5)


def _same_value(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.shape == b.shape and np.array_equal(a, b)
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return type(a) is type(b) and a == b


def test_rate_report_defaults_are_empty():
    rep = RateReport(problem_id="p")
    assert rep.records == [] and rep.failure is None
    for name in ("levels", "statuses", "m_values", "f_values", "est_errors", "mom_dists",
                 "flat_levels", "upper_levels", "u_values"):
        assert getattr(rep, name) == [], name
    assert rep.lower_fit is None and rep.upper_fit is None
    assert math.isnan(rep.f_star)
    assert rep.x_star.shape == (0,) and rep.s_star.shape == (0,)
    assert rep.grid_resolution == 0


def test_rate_reports_never_share_a_list():
    a, b = RateReport(problem_id="a"), RateReport(problem_id="b")
    a.records.append(LevelRecord("lower", 2, "Optimal", -1.0))
    assert a.levels == [2] and a.statuses == ["Optimal"]
    assert b.records == [] and b.levels == [] and b.statuses == []
    lists = [getattr(r, f.name) for r in (a, b) for f in dataclasses.fields(RateReport)
             if f.type == "list"]
    assert len({id(v) for v in lists}) == len(lists) == 2
    # the per-level lists are views: writing to one leaves the records alone
    a.levels.append(3)
    assert a.levels == [2] and len(a.records) == 1


def test_run_suite_records_failed_problem_as_bare_report():
    x = Polynomial.variable(0, 1)
    bad = BenchProblem(
        id="infeasible",
        problem=SemialgebraicProblem(
            n=1, objective=x, constraints=(Polynomial.constant(-1.0, 1),)
        ),
        d_min=2,
        d_max=2,
        upper_levels=(),
        measure=ReferenceMeasure.box(1),
        unique_minimizer=False,
        box=((-1.0, 1.0),),
    )
    (got,), _ = run_suite([bad])
    want = RateReport(
        problem_id="infeasible",
        failure="Failed: no feasible grid point; raise the resolution",
    )
    for f in dataclasses.fields(RateReport):
        assert _same_value(getattr(got, f.name), getattr(want, f.name)), f.name
    assert got.statuses == [want.failure] and got.levels == []


def test_run_suite_records_failed_upper_levels(tmp_path):
    # min x on [-1, 1]: level 40 loses the density's normalization and level 64 the
    # reference moment matrix's definiteness; both used to vanish from the report
    x = Polynomial.variable(0, 1)
    bp = BenchProblem(id="line", problem=SemialgebraicProblem(n=1, objective=x,
                                                              constraints=(1 - x * x,)),
                      d_min=2, d_max=2, upper_levels=(8, 40, 64),
                      measure=ReferenceMeasure.box(1), unique_minimizer=True)
    (rep,), csv_text = run_suite([bp], out_dir=str(tmp_path))
    assert rep.upper_levels == [8] and len(rep.u_values) == 1
    rows = csv_text.strip().splitlines()
    assert rows[2] == "line,8,,,-0.9061798459,,,upper-only"
    assert rows[3].startswith("line,40,,,,,,upper Failed: density is not normalized")
    assert rows[4] == "line,64,,,,,,upper Failed: reference moment matrix is not positive definite"
    summary = (tmp_path / "summary.md").read_text()
    assert "- upper level 40: Failed: density is not normalized" in summary
    assert "- upper level 64: Failed: reference moment matrix is not positive definite" in summary
    failed = [r for r in rep.records if r.side == "upper" and r.status.startswith("Failed")]
    assert [r.d for r in failed] == [40, 64]
    assert all(math.isnan(r.value) and math.isnan(r.gap) for r in failed)
    assert rep.upper_fit is None


def test_load_corpus_rejects_repeated_table_exponent():
    x = Polynomial.variable(0, 1)
    prob = SemialgebraicProblem(n=1, objective=x, constraints=(1 - x * x,))
    table = {"n": 1, "values": [{"alpha": [0], "y": 2.0}, {"alpha": [2], "y": 2 / 3},
                                {"alpha": [2.0], "y": 0.5}]}
    with pytest.raises(ValueError, match=r"moment table has 2 entries for exponent \(2,\)"):
        load_corpus([{"id": "tab", "problem": prob.to_json_dict(), "measure": table}])
