import math

import numpy as np
import pytest

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


def test_upper_bound_singular_reference_raises():
    # a Dirac moment table yields a singular order-1 moment matrix
    tab = {(k,): 0.5**k for k in range(5)}
    mu = ReferenceMeasure("table", 1, table=tab)
    with pytest.raises(ValueError, match="positive definite"):
        solve_upper_bound(Polynomial.variable(0, 1), mu, 2)


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
    # affine objectives short-circuit
    assert is_sos_convex(x1 - 2 * x2 + 1)[0]
    # SOS-convex inputs on which the phase-I Gram SDP once stalled at MaxIter
    z1, z2, z3 = (Polynomial.variable(i, 3) for i in range(3))
    for f in [(z1 + z2 + z3) ** 4, (x1 - 0.5 * x2) ** 4 + x1 * x1]:
        convex, cert = is_sos_convex(f)
        assert convex and cert.residual_norm <= 1e-6


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
