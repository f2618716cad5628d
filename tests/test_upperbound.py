import json
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from momlab import upperbound
from momlab.cone import SemialgebraicProblem
from momlab.poly import MonomialBasis, Polynomial, r_dim
from momlab.upperbound import (
    ReferenceMeasure,
    convex_cost_bound,
    estimator_from_density,
    is_sos_convex,
    lebesgue_box_moments,
    solve_upper_bound,
    unit_ball_moments,
)


def test_box_moments_closed_form():
    t = lebesgue_box_moments(2, 4)
    assert t[(0, 0)] == pytest.approx(4.0)  # area of [-1,1]^2
    assert t[(1, 0)] == 0.0
    assert t[(2, 0)] == pytest.approx(2.0 / 3 * 2)
    assert t[(2, 2)] == pytest.approx((2.0 / 3) ** 2)


def test_ball_moments_closed_form():
    t = unit_ball_moments(2, 4)
    assert t[(0, 0)] == pytest.approx(math.pi)
    assert t[(1, 0)] == 0.0
    assert t[(2, 0)] == pytest.approx(math.pi / 4)
    assert t[(2, 2)] == pytest.approx(math.pi / 24)
    # 1D ball is the interval [-1, 1]
    t1 = unit_ball_moments(1, 2)
    assert t1[(0,)] == pytest.approx(2.0)
    assert t1[(2,)] == pytest.approx(2.0 / 3)


def test_reference_measure_kinds_and_table_guard():
    box = ReferenceMeasure.box(2)
    assert box.moment((2, 0)) == pytest.approx(4.0 / 3)
    assert box.in_support_hull([0.5, -0.5]) is True
    assert box.in_support_hull([1.5, 0.0]) is False
    tab = ReferenceMeasure("table", 1, table={(0,): 1.0, (1,): 0.0, (2,): 1.0})
    assert tab.in_support_hull([0.0]) is None
    with pytest.raises(ValueError, match="covers degree"):
        tab.moment((3,))
    with pytest.raises(ValueError, match="unknown"):
        ReferenceMeasure("gaussian", 1)


def test_upper_bound_matches_2x2_eigen_oracle():
    # f = x on [-1,1], degree-2 density: generalized eigenvalue of
    # A = [[0, 2/3], [2/3, 0]], B = [[2, 0], [0, 2/3]] -> -1/sqrt(3)
    f = Polynomial.variable(0, 1)
    res = solve_upper_bound(f, ReferenceMeasure.box(1), 2)
    oracle = -1.0 / math.sqrt(3.0)
    assert res.u_d_star == pytest.approx(oracle, abs=1e-12)
    assert res.cost == pytest.approx(res.u_d_star, abs=1e-10)
    # the density integrates to one and its barycenter stays in [-1,1]
    assert ReferenceMeasure.box(1).integrate(res.sigma) == pytest.approx(1.0, abs=1e-10)
    assert res.feasible


def test_upper_bounds_nonincreasing_and_above_minimum():
    f = Polynomial.variable(0, 1)
    mu = ReferenceMeasure.box(1)
    vals = [solve_upper_bound(f, mu, d).u_d_star for d in (0, 2, 4, 6, 8)]
    for lo, hi in zip(vals, vals[1:]):
        assert hi <= lo + 1e-10
    assert all(v >= -1.0 for v in vals)
    # level 0 density is the constant 1/mass
    assert vals[0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["box", "ball", "table"])
def test_upper_bound_matches_term_by_term_pencil(n, kind):
    # A_ij = integral of x^(a_i + a_j) f, B_ij = integral of x^(a_i + a_j), term by term
    rng = np.random.default_rng(7 * n + len(kind))
    mu = (ReferenceMeasure("table", n, table=lebesgue_box_moments(n, 8))
          if kind == "table" else ReferenceMeasure(kind, n))
    quartic = Polynomial(n, {a: rng.normal() for a in MonomialBasis(n, 4)})
    corner = [1] + [0] * (n - 1)
    corner[-1] += 3
    monomial = Polynomial(n, {tuple(corner): 1.0})  # x_1 x_n^3
    for f in (quartic, monomial, Polynomial.zero(n), Polynomial.constant(-2.5, n)):
        for d in (2, 4):
            rows = MonomialBasis(n, d // 2)
            mono = [[Polynomial(n, {tuple(np.add(a, b)): 1.0}) for b in rows] for a in rows]
            A = np.array([[mu.integrate(m * f) for m in row] for row in mono])
            B = np.array([[mu.integrate(m) for m in row] for row in mono])
            u_ref = sla.eigh(A, B, eigvals_only=True)[0]
            u = solve_upper_bound(f, mu, d).u_d_star
            assert abs(u - u_ref) <= 1e-10 * (1 + abs(u_ref))


@pytest.mark.parametrize("kind", ["box", "ball"])
def test_smallest_eigenpair_matches_the_full_pencil(kind, monkeypatch):
    rng = np.random.default_rng(11)
    f = Polynomial(3, {a: rng.normal() for a in MonomialBasis(3, 4)})
    mu = ReferenceMeasure(kind, 3)
    res = solve_upper_bound(f, mu, 16)
    full = sla.eigh
    monkeypatch.setattr(sla, "eigh", lambda A, B, **kwargs: full(A, B))
    ref = solve_upper_bound(f, mu, 16)
    assert abs(res.u_d_star - ref.u_d_star) <= 1e-12
    assert np.abs(res.x_check - ref.x_check).max() <= 1e-12


def test_upper_bound_singular_reference_raises():
    # a Dirac moment table yields a singular order-1 moment matrix
    tab = {(k,): 0.5**k for k in range(5)}
    mu = ReferenceMeasure("table", 1, table=tab)
    with pytest.raises(ValueError) as exc:
        solve_upper_bound(Polynomial.variable(0, 1), mu, 2)
    assert type(exc.value) is ValueError
    assert str(exc.value) == "reference moment matrix is not positive definite"


def test_estimator_from_density():
    f = Polynomial.variable(0, 1)
    mu = ReferenceMeasure.box(1)
    res = solve_upper_bound(f, mu, 4)
    x_check, cost, in_hull = estimator_from_density(f, res.sigma, mu)
    np.testing.assert_allclose(x_check, res.x_check, atol=1e-12)
    assert cost == pytest.approx(res.cost, abs=1e-12)
    assert in_hull
    with pytest.raises(ValueError, match="not normalized"):
        estimator_from_density(f, 2.0 * res.sigma, mu)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["box", "ball", "table"])
def test_estimator_matches_per_term_integrals(n, kind):
    rng = np.random.default_rng(10 * n + len(kind))
    k = 3 if n < 3 else 2
    mu = (ReferenceMeasure("table", n, table=lebesgue_box_moments(n, 2 * k + 5))
          if kind == "table" else ReferenceMeasure(kind, n))
    q = Polynomial.from_coeffs(MonomialBasis(n, k), rng.normal(size=r_dim(n, k)))
    sigma = (1.0 / mu.integrate(q * q)) * (q * q)
    quartic = Polynomial(n, {a: rng.normal() for a in MonomialBasis(n, 4)})
    for f in (quartic, Polynomial.zero(n), Polynomial.constant(-2.5, n)):
        x_check, cost, _ = estimator_from_density(f, sigma, mu)
        x_ref = [mu.integrate(Polynomial.variable(i, n) * sigma) for i in range(n)]
        np.testing.assert_allclose(x_check, x_ref, rtol=0, atol=1e-12)
        assert cost == pytest.approx(mu.integrate(f * sigma), rel=1e-12, abs=1e-12)
    assert estimator_from_density(Polynomial.zero(n), sigma, mu)[1] == 0.0
    with pytest.raises(ValueError, match="dimension mismatch"):
        estimator_from_density(Polynomial.zero(n + 1), sigma, mu)


def test_table_measure_rejects_malformed_exponents():
    with pytest.raises(ValueError, match=r"exponent \(0,\) needs 2 nonnegative integer"):
        ReferenceMeasure("table", 2, table={(0,): 1.0})
    with pytest.raises(ValueError, match=r"exponent \(1, -1\) needs 2"):
        ReferenceMeasure("table", 2, table={(0, 0): 1.0, (1, -1): 0.5})
    with pytest.raises(ValueError, match=r"exponent \(1.5,\) needs 1"):
        ReferenceMeasure.from_json({"n": 1, "values": [{"alpha": [1.5], "y": 0.5}]})
    mu = ReferenceMeasure.from_json({"n": 1, "values": [{"alpha": [0], "y": 2.0},
                                                        {"alpha": [2.0], "y": 0.5}]})
    assert mu.moment((2,)) == 0.5 and mu.max_degree == 2


@pytest.mark.parametrize("kind, n, alpha", [
    ("box", 2, (2,)), ("ball", 2, (2, 0, 0)), ("box", 1, (-2,)), ("box", 1, (1.5,)),
    ("box", 1, (-1,)), ("table", 1, (0.5,)),
])
def test_measure_rejects_malformed_exponents(kind, n, alpha):
    mu = ReferenceMeasure(kind, n, table={(0,): 1.0} if kind == "table" else None)
    with pytest.raises(ValueError, match=rf"exponent {re.escape(str(alpha))} needs {n} nonneg"):
        mu.moment(alpha)
    assert mu.moment((0,) * n) > 0 and mu.moment(np.zeros(n)) > 0


def test_affine_objectives_are_sos_convex_with_no_sdp(monkeypatch):
    # the Hessian form of a constant or linear f is zero: convex, no Gram, no SDP
    def no_sdp(*args, **kwargs):
        raise AssertionError("Gram SDP built for an affine objective")

    monkeypatch.setattr(upperbound, "_gram_certificate", no_sdp)
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    for f in (Polynomial.zero(2), Polynomial.constant(-3.0, 2), x1 - 2 * x2 + 1, 0.5 * x2):
        assert is_sos_convex(f) == (True, None)
        assert is_sos_convex(f, d_cert=4) == (True, None)


def test_reference_measure_from_json_reads_a_path(tmp_path):
    # the CLI passes a parsed dict; a file path, as str or Path, reads the same table
    table = {"n": 2, "order": 2, "values": [
        {"alpha": list(a), "y": y} for a, y in lebesgue_box_moments(2, 2).items()]}
    path = tmp_path / "moments.json"
    path.write_text(json.dumps(table))
    exps = np.array(MonomialBasis(2, 2).exponents)
    want = ReferenceMeasure.from_json(table).moments(exps)
    for source in (str(path), path):
        mu = ReferenceMeasure.from_json(source)
        assert (mu.kind, mu.n, mu.max_degree) == ("table", 2, 2)
        np.testing.assert_array_equal(mu.moments(exps), want)


def test_is_sos_convex_verdicts():
    x1 = Polynomial.variable(0, 2)
    x2 = Polynomial.variable(1, 2)
    convex, cert = is_sos_convex(x1 * x1 + x2 * x2)
    assert convex and cert is not None
    assert cert.residual_norm <= 1e-7
    convex, cert = is_sos_convex(x1**4 + x2**4)
    assert convex
    # a saddle is not convex anywhere near the origin
    convex, cert = is_sos_convex(x1 * x1 - x2 * x2)
    assert not convex and cert is None
    # affine objectives have a zero Hessian form
    assert is_sos_convex(x1 - 2 * x2 + 1)[0]
    # SOS-convex inputs on which the phase-I Gram SDP once stalled at MaxIter
    z1, z2, z3 = (Polynomial.variable(i, 3) for i in range(3))
    for f in [(z1 + z2 + z3) ** 4, (x1 - 0.5 * x2) ** 4 + x1 * x1]:
        convex, cert = is_sos_convex(f)
        assert convex and cert.residual_norm <= 1e-6


def test_sos_convex_phase1_primal_is_feasible(monkeypatch):
    # the refined primal point of each SOS-convexity SDP is accepted only if
    # every block stays PSD to the solver's tolerance, not to 10x that scaled by |F0|
    from momlab import hierarchy

    real, solved = hierarchy.solve, []
    monkeypatch.setattr(hierarchy, "solve",
                        lambda problem: solved.append((problem, real(problem))) or solved[-1][1])
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    z1, z2, z3 = (Polynomial.variable(i, 3) for i in range(3))
    for f in [(z1 + z2 + z3) ** 4, (x1 - 0.5 * x2) ** 4 + x1 * x1]:
        solved.clear()
        assert is_sos_convex(f)[0]
        ((problem, sol),) = solved
        assert sol.status == "Optimal"
        for blk in problem.blocks:
            assert np.linalg.eigvalsh(blk.assemble(sol.x))[0] >= -1e-8


def test_convex_cost_bound_report():
    x = Polynomial.variable(0, 1)
    prob = SemialgebraicProblem(
        n=1, objective=(x - 0.3) * (x - 0.3), constraints=(1 - x * x,)
    )
    rep = convex_cost_bound(prob, 4, f_star=0.0)
    assert rep["f_at_candidate"] <= rep["m_d_star"] + 1e-6
    assert rep["x_candidate"][0] == pytest.approx(0.3, abs=1e-4)
    assert abs(rep["gap_to_optimum"]) <= 1e-6
    assert rep["sos_convex_certificate"] is not None
    assert rep["assumed_bounded_degree_representation"]


def test_convex_cost_bound_rejects_nonconvex():
    x = Polynomial.variable(0, 1)
    prob = SemialgebraicProblem(
        n=1, objective=x**4 - x * x, constraints=(1 - x * x,)
    )
    with pytest.raises(ValueError, match="not SOS-convex"):
        convex_cost_bound(prob, 4)


def test_table_measure_missing_moment_raises_value_error():
    x = Polynomial.variable(0, 1)
    mu = ReferenceMeasure("table", 1, table={(0,): 1.0, (2,): 1 / 3, (4,): 0.2})
    with pytest.raises(ValueError, match=r"degree 4 has no entry for exponent \(1,\)"):
        solve_upper_bound(x, mu, 2)


def _closed_form_moment(kind, alpha):
    """One box or ball moment, term by term in Python floats."""
    if kind == "box":
        val = 1.0
        for a in alpha:
            val *= (1.0 + (-1.0) ** a) / (a + 1)
        return val
    if any(a % 2 for a in alpha):
        return 0.0
    num = 2.0 * math.prod(math.gamma((a + 1) / 2) for a in alpha)
    half = (sum(alpha) + len(alpha)) / 2
    return num / ((sum(alpha) + len(alpha)) * math.gamma(half))


@st.composite
def _exponent_arrays(draw, max_degree=24):
    """(m, 1, n) nonnegative integer arrays, n = 1..4, each row of total degree <= max_degree."""
    n = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        row = []
        for _ in range(n):
            row.append(draw(st.integers(0, max_degree - sum(row))))
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(-1, 1, n)


@settings(max_examples=80, deadline=None)
@given(exps=_exponent_arrays(), kind=st.sampled_from(["box", "ball"]))
def test_moments_match_closed_form_bit_for_bit(exps, kind):
    got = ReferenceMeasure(kind, exps.shape[-1]).moments(exps)
    assert got.shape == exps.shape[:-1]
    rows = exps.reshape(-1, exps.shape[-1]).tolist()
    want = np.array([_closed_form_moment(kind, tuple(r)) for r in rows])
    assert got.ravel().tobytes() == want.tobytes()


def test_table_moments_answer_arrays_as_the_dict_does():
    rng = np.random.default_rng(3)
    table = {a: float(rng.normal()) for a in MonomialBasis(3, 5)}
    mu = ReferenceMeasure("table", 3, table=table)
    exps = np.array(list(table), dtype=np.int64)[rng.permutation(len(table))].reshape(4, -1, 3)
    got = mu.moments(exps)
    assert got.shape == exps.shape[:-1]
    assert got.ravel().tolist() == [table[tuple(a)] for a in exps.reshape(-1, 3).tolist()]
    assert mu.moments(np.zeros((0, 3), dtype=np.int64)).shape == (0,)


def test_table_moments_raise_the_lookup_errors():
    mu = ReferenceMeasure("table", 1, table={(0,): 1.0, (2,): 1 / 3, (4,): 0.2})
    with pytest.raises(ValueError, match="moment table covers degree 4, asked 5"):
        mu.moments(np.array([[0], [5]]))
    with pytest.raises(ValueError, match=r"degree 4 has no entry for exponent \(3,\)"):
        mu.moments(np.array([[2], [3], [4]]))
    with pytest.raises(ValueError, match=r"degree 4 has no entry for exponent \(1,\)"):
        mu.moment((1,))


def test_sparse_high_degree_table_stays_small():
    # a dense vector over the degree-60 basis in 6 variables would hold about 90 M floats
    tracemalloc.start()
    try:
        mu = ReferenceMeasure("table", 6, table={(0,) * 6: 1.0, (0, 0, 0, 0, 0, 60): 0.5})
        assert mu.moments(np.array([[0, 0, 0, 0, 0, 60], [0] * 6])).tolist() == [0.5, 1.0]
        with pytest.raises(ValueError, match="has no entry"):
            mu.moment((60, 0, 0, 0, 0, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("kind", ["box", "ball", "table"])
@pytest.mark.parametrize("exps", [
    np.array([[1, -1]]), np.array([[0.5, 0.0]]), np.array([[1.0, 0.0]]), np.array([[0, 0, 0]]),
    np.array([0]), np.array(0),
])
def test_moments_reject_malformed_arrays(kind, exps):
    mu = ReferenceMeasure(kind, 2, table={(0, 0): 1.0} if kind == "table" else None)
    with pytest.raises(ValueError, match=r"nonnegative integer array of shape \(\.\.\., 2\)"):
        mu.moments(exps)
    with pytest.raises(ValueError, match="dimension mismatch"):
        mu.integrate(Polynomial.variable(0, 3))


def test_upper_bound_input_errors_name_the_input():
    with pytest.raises(ValueError, match="nonempty moment table"):
        ReferenceMeasure("table", 2, table={})
    with pytest.raises(ValueError, match="level -2 is negative"):
        solve_upper_bound(Polynomial.variable(0, 1), ReferenceMeasure.box(1), -2)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_table_measure_rejects_non_finite_moments(bad):
    with pytest.raises(ValueError, match=r"moment of exponent \(0, 2\) is not finite"):
        ReferenceMeasure("table", 2, table={(0, 0): 1.0, (0, 2): bad, (2, 0): 0.5})
    with pytest.raises(ValueError, match=r"moment of exponent \(2,\) is not finite"):
        ReferenceMeasure.from_json({"n": 1, "values": [{"alpha": [0], "y": 1.0},
                                                       {"alpha": [2], "y": bad}]})


@pytest.mark.parametrize("repeat", [[2], [2.0]])
def test_table_measure_rejects_repeated_exponent(repeat):
    # the last entry used to win silently, as a dict keyed by exponent keeps it
    values = [{"alpha": [0], "y": 1.0}, {"alpha": [2], "y": 0.3}, {"alpha": repeat, "y": 0.9}]
    with pytest.raises(ValueError, match=r"moment table has 2 entries for exponent \(2,\)"):
        ReferenceMeasure.from_json({"n": 1, "values": values})
    with pytest.raises(ValueError, match=r"3 entries for exponent \(1, 0\)"):
        ReferenceMeasure("table", 2, table=[((0, 0), 1.0), ((1, 0), 0.0), ((0, 1), 0.0),
                                            ((1, 0), 0.1), ((1.0, 0), 0.2)])
