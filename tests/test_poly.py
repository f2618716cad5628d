import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momlab.cone import PseudoMomentSequence
from momlab.extraction import candidate_minimizer
from momlab.poly import (
    EVAL_BLOCK,
    MonomialBasis,
    Polynomial,
    box_grid,
    grlex_key,
    monomials_upto,
    r_dim,
)
from momlab.support import cd_kernel, cd_support_grid


def test_r_dim_matches_binomial():
    assert r_dim(1, 3) == 4
    assert r_dim(2, 2) == 6
    assert r_dim(3, 4) == math.comb(7, 4)


def test_monomials_graded_lex_order():
    mons = monomials_upto(2, 2)
    assert mons == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert mons == sorted(mons, key=grlex_key)
    assert len(mons) == r_dim(2, 2)


def test_basis_index_lookup_roundtrip():
    basis = MonomialBasis(3, 3)
    for k, alpha in enumerate(basis):
        assert basis.index_of(alpha) == k
    assert (1, 1, 1) in basis
    assert (4, 0, 0) not in basis
    for n in range(1, 5):
        exps = MonomialBasis(n, 5).exps
        assert MonomialBasis.rank(exps).tolist() == list(range(r_dim(n, 5)))


def test_eval_vector_at_point():
    basis = MonomialBasis(2, 2)
    v = basis.eval_vector([2.0, 3.0])
    np.testing.assert_allclose(v, [1, 2, 3, 4, 6, 9])


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(0, 6))
def test_indices_and_eval_matrix_match_definitions(data, n, d):
    basis = MonomialBasis(n, d)
    exps = data.draw(st.lists(st.sampled_from(basis.exponents), min_size=1, max_size=12))
    assert basis.indices(np.array(exps)).tolist() == [basis.index_of(a) for a in exps]

    coords = st.floats(-2, 2, allow_nan=False)
    pts = data.draw(st.lists(st.lists(coords, min_size=n, max_size=n), min_size=1, max_size=5))
    expected = [[math.prod(x**a for x, a in zip(p, alpha)) for alpha in basis] for p in pts]
    np.testing.assert_allclose(basis.eval_matrix(np.array(pts)), expected, rtol=1e-12)

    i = data.draw(st.integers(0, n - 1))
    too_high = list(exps[0])
    too_high[i] += d + 1 - sum(too_high)
    negative = [0] * n
    negative[i] = -1
    for bad in (too_high, negative):
        with pytest.raises(ValueError, match="outside"):
            basis.indices(np.array([bad]))


def test_indices_outside_basis_raises_value_error_in_many_variables():
    # ranking exponent 4 in each of 20 variables would need C(99, 20) > 2**63
    basis = MonomialBasis(20, 4)
    with pytest.raises(ValueError, match="outside"):
        basis.indices(np.full((1, 20), 4))
    assert basis.indices(np.eye(20, dtype=np.int64)).tolist() == list(range(1, 21))


def test_index_of_outside_basis_raises_value_error():
    basis = MonomialBasis(1, 2)
    x = Polynomial.variable(0, 1)
    y = PseudoMomentSequence.from_atoms([[0.5]], [1.0], 2)
    for call in (lambda: basis.index_of((3,)), lambda: y.apply(x**3), lambda: y.value((3,)),
                 lambda: (x**3).coeff_vector(basis),
                 lambda: candidate_minimizer(PseudoMomentSequence(1, 0, [1.0]))):
        with pytest.raises(ValueError, match=r"exponent \((3|1),\) outside the degree-(2|0) basis"):
            call()


def _random_localizing_problem(n, seed):
    """A multi-term g, monomial rows of degree <= 2 and a random y over a basis wide enough."""
    rng = np.random.default_rng(seed)
    g = Polynomial(n, {tuple(a): rng.normal() for a in monomials_upto(n, 2) if rng.random() < 0.7})
    g = g + Polynomial.constant(1.0, n) + 0.5 * Polynomial.variable(n - 1, n) ** 2
    rows = monomials_upto(n, 2)
    basis = MonomialBasis(n, 4 + g.degree)
    return g, rows, basis, rng.normal(size=len(basis)), rng


@pytest.mark.parametrize("n", [1, 2, 3])
def test_localizing_map_gather_matches_definition(n):
    g, rows, basis, y, rng = _random_localizing_problem(n, n)
    loc = basis.localizing_map(rows, g)
    expected = np.zeros((len(rows), len(rows)))
    for i, a in enumerate(rows):
        for j, b in enumerate(rows):
            for gamma, c in g.terms.items():
                expected[i, j] += c * y[basis.index_of(tuple(np.add(a, b) + gamma))]
    np.testing.assert_array_equal(loc.gather(y), expected)
    N = rng.normal(size=(len(basis), 3))
    stacked = np.stack([loc.gather(N[:, k]) for k in range(3)], axis=-1)
    np.testing.assert_array_equal(loc.gather(N), stacked)
    zero = basis.localizing_map(rows, Polynomial.zero(n))
    np.testing.assert_array_equal(zero.gather(y), np.zeros((len(rows), len(rows))))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_localizing_map_adjoint(n):
    g, rows, basis, y, rng = _random_localizing_problem(n, 10 + n)
    loc = basis.localizing_map(rows, g)
    G = rng.normal(size=(len(rows), len(rows)))
    # <L(y), G> = <y, L'(G)>
    assert np.sum(loc.gather(y) * G) == pytest.approx(y @ loc.adjoint(G), rel=1e-12)
    # L'(G) is the coefficient vector of (v' G v) * g
    vGv = Polynomial.zero(n)
    for i, a in enumerate(rows):
        for j, b in enumerate(rows):
            vGv = vGv + G[i, j] * Polynomial(n, {tuple(np.add(a, b)): 1.0})
    np.testing.assert_allclose(loc.adjoint(G), (vGv * g).coeff_vector(basis),
                               rtol=1e-12, atol=1e-12)


def test_zero_polynomial_conventions():
    z = Polynomial.zero(2)
    assert z.is_zero()
    assert z.degree == 0
    assert z([0.3, 0.4]) == 0.0
    assert (z + z).is_zero()
    x1 = Polynomial.variable(0, 2)
    assert (z * (x1 + 1)).is_zero() and ((x1 + 1) * z).is_zero()


def test_arithmetic_small_example():
    x = Polynomial.variable(0, 1)
    p = (1 + x) * (1 - x)
    assert p.coeff((0,)) == 1.0
    assert p.coeff((2,)) == -1.0
    assert p.coeff((1,)) == 0.0
    assert ((1 + x) ** 2).coeff((1,)) == 2.0
    # the cancelled x term is dropped, not stored as 0.0
    assert ((x + 1) * (x - 1)).terms == {(2,): 1.0, (0,): -1.0}
    one = Polynomial.constant(1.0, 1)
    assert (Polynomial.constant(2.5, 1) * (x - 3)).terms == {(1,): 2.5, (0,): -7.5}
    assert (one * one).terms == {(0,): 1.0}
    assert (Polynomial.constant(2.0, 0) * Polynomial.constant(3.0, 0)).terms == {(): 6.0}


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=0, max_size=4),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=0, max_size=4),
    st.floats(-1, 1),
    st.floats(-1, 1),
)
def test_product_evaluates_pointwise(t1, t2, a, b):
    p = Polynomial(2, {alpha: 1.0 for alpha in t1})
    q = Polynomial(2, {alpha: 1.0 for alpha in t2})
    x = np.array([a, b])
    assert (p * q)(x) == pytest.approx(p(x) * q(x), abs=1e-9)


def test_eval_grid_matches_scalar_eval():
    rng = np.random.default_rng(0)
    p = Polynomial(2, {(2, 0): 1.5, (1, 1): -0.5, (0, 0): 2.0})
    pts = rng.uniform(-1, 1, (20, 2))
    np.testing.assert_allclose(p.eval_grid(pts), [p(x) for x in pts])


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(1, 3))
def test_eval_grid_matches_product_reference(data, n):
    alpha = st.tuples(*[st.integers(0, 6)] * n)
    terms = data.draw(st.dictionaries(alpha, st.floats(-10, 10), max_size=8))
    p = Polynomial(n, terms)
    coords = st.lists(st.floats(-2, 2, allow_nan=False), min_size=n, max_size=n)
    pts = data.draw(st.lists(coords, min_size=1, max_size=8))
    parts = [[c * math.prod(x**a for x, a in zip(pt, alpha)) for alpha, c in p.terms.items()]
             for pt in pts]
    # relative to the terms' magnitudes, which bounds the round-off of any summation
    # order; values below the smallest normal float carry absolute error only
    scale = np.array([math.fsum(map(abs, row)) for row in parts])
    err = np.abs(p.eval_grid(np.array(pts)) - [math.fsum(row) for row in parts])
    assert (err <= 1e-12 * scale + np.finfo(float).tiny).all()


def test_eval_grid_across_a_block_boundary_equals_each_point_bit_for_bit():
    rng = np.random.default_rng(3)
    p = Polynomial(2, {a: rng.normal() for a in MonomialBasis(2, 6)})
    pts = rng.uniform(-1.5, 1.5, (EVAL_BLOCK + 5, 2))
    grid = p.eval_grid(pts)
    assert grid.tobytes() == np.array([p(x) for x in pts]).tobytes()


def test_eval_matrix_row_at_one_point_equals_the_batch_row_bit_for_bit():
    rng = np.random.default_rng(4)
    basis = MonomialBasis(3, 5)
    pts = rng.uniform(-1.5, 1.5, (EVAL_BLOCK + 5, 3))
    batch = basis.eval_matrix(pts)
    assert batch.shape == (len(pts), len(basis))
    for i in (0, 1, EVAL_BLOCK - 1, EVAL_BLOCK, len(pts) - 1):
        assert basis.eval_matrix(pts[i:i + 1])[0].tobytes() == batch[i].tobytes()
        assert basis.eval_vector(pts[i]).tobytes() == batch[i].tobytes()


def test_basis_builds_exponent_tuples_on_first_use():
    basis = MonomialBasis(3, 4)
    assert len(basis) == r_dim(3, 4)
    assert "exponents" not in vars(basis)
    assert basis.exponents == [tuple(e) for e in basis.exps.tolist()]
    assert basis[5] == basis.exponents[5] and list(basis) == basis.exponents


def test_call_checks_point_size():
    x = Polynomial.variable(0, 1)
    p = x * x + 3 * x
    assert p(2.0) == 10.0
    assert p([2.0]) == p(np.array(2.0)) == 10.0
    with pytest.raises(ValueError, match="3 coordinates, expected 1"):
        p([2.0, 5.0, 7.0])
    q = Polynomial.variable(1, 2)
    with pytest.raises(ValueError, match="1 coordinates, expected 2"):
        q(2.0)
    with pytest.raises(ValueError, match="3 coordinates, expected 2"):
        q([1.0, 2.0, 3.0])


def test_partial_derivative():
    x1 = Polynomial.variable(0, 2)
    x2 = Polynomial.variable(1, 2)
    p = x1 ** 3 * x2 + 2 * x2
    dp = p.partial(0)
    assert dp.terms == {(2, 1): 3.0}
    assert p.partial(1).terms == {(3, 0): 1.0, (0, 0): 2.0}


def test_compose_affine_shifts_argument():
    x = Polynomial.variable(0, 1)
    p = x * x
    q = p.compose_affine([1.0], [2.0])  # x -> 1 + 2u
    for u in (-0.5, 0.0, 0.7):
        assert q([u]) == pytest.approx((1 + 2 * u) ** 2)


def test_json_roundtrip():
    p = Polynomial(2, {(2, 1): -0.25, (0, 0): 3.0})
    q = Polynomial.from_json(p.to_json())
    assert q.terms == p.terms
    # serialized form is stable / sorted
    d = json.loads(p.to_json())
    assert d["terms"][0]["alpha"] == [0, 0]


def test_coeff_norm():
    p = Polynomial(1, {(0,): 3.0, (1,): 4.0})
    assert p.coeff_norm() == pytest.approx(5.0)


def test_degree_and_coeff_vector():
    basis = MonomialBasis(2, 2)
    p = Polynomial(2, {(1, 1): 2.0})
    v = p.coeff_vector(basis)
    assert v[basis.index_of((1, 1))] == 2.0
    assert np.count_nonzero(v) == 1
    assert Polynomial.from_coeffs(basis, v).terms == p.terms


def _term_bits(p):
    """Exponents in term order and the coefficients' bytes: equal only if bit for bit equal."""
    return list(p.terms), np.array(list(p.terms.values()), dtype=float).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_adjoint_of_outer_product_is_the_square_bit_for_bit(n):
    # sigma = q^2 of the upper bounds: the g = 1 map's adjoint at q q' against the product
    q = np.random.default_rng(40 + n).normal(size=r_dim(n, 3))
    basis, full = MonomialBasis(n, 3), MonomialBasis(n, 6)
    loc = full.localizing_map(basis.exps, Polynomial.constant(1.0, n))
    q_poly = Polynomial.from_coeffs(basis, q)
    square = Polynomial.from_coeffs(full, loc.adjoint(np.outer(q, q)))
    assert _term_bits(square) == _term_bits(q_poly * q_poly)


def test_polynomial_is_not_hashable():
    with pytest.raises(TypeError):
        hash(Polynomial.variable(0, 1))


def test_non_integer_exponent_raises():
    with pytest.raises(ValueError, match=r"exponent \(1\.5,\)"):
        Polynomial(1, {(1.5,): 1.0})
    with pytest.raises(ValueError, match=r"exponent \(0\.7, 2\)"):
        Polynomial.from_json_dict({"n": 2, "terms": [{"alpha": [0.7, 2], "c": 1.0}]})
    p = Polynomial.from_json_dict({"n": 2, "terms": [{"alpha": [1.0, 2], "c": 1.0}]})
    assert p.terms == {(1, 2): 1.0}
    assert all(type(a) is int for a in next(iter(p.terms)))


def _negative_degree_entry_points():
    from momlab.bench import moment_distance_to_optimal
    from momlab.extraction import AtomicMeasure, tchakaloff_prune

    y = PseudoMomentSequence.from_atoms([[0.5, -0.5]], [1.0], 4)
    mu = AtomicMeasure(atoms=np.array([[0.5, -0.5]]), weights=np.array([1.0]))
    return [
        lambda: r_dim(2, -1),
        lambda: MonomialBasis(2, -1),
        lambda: y.truncate(-1),
        lambda: tchakaloff_prune(mu, -1),
        lambda: moment_distance_to_optimal(y, [[0.5, -0.5]], r=-1),
    ]


@pytest.mark.parametrize("k", range(5))
def test_negative_degree_is_named(k):
    with pytest.raises(ValueError, match="polynomial degree d = -1 is negative"):
        _negative_degree_entry_points()[k]()


@pytest.mark.parametrize("c", [float("nan"), float("inf"), -float("inf")])
def test_polynomial_rejects_non_finite_coefficient(c):
    with pytest.raises(ValueError, match=r"coefficient .* of \(1, 0\) is not finite"):
        Polynomial(2, {(0, 0): 1.0, (1, 0): c})
    with pytest.raises(ValueError, match="not finite"):
        Polynomial.from_json_dict({"n": 1, "terms": [{"alpha": [2], "c": c}]})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_smaller_basis_is_a_prefix_of_every_larger_one(n):
    tables = [MonomialBasis(n, d).exps for d in range(9)]
    for d, table in enumerate(tables):
        for k in range(d + 1):
            np.testing.assert_array_equal(tables[k], table[: r_dim(n, k)])


@pytest.mark.parametrize("alpha, named", [
    ((1, 2), None), ((2.0, 0), None), (np.array([0, 3]), None),
    ((3, 1), "(3, 1) outside"), ((-1, 0), "(-1, 0) outside"), ((1,), "(1,) needs 2"),
    ((1, 0, 0), "(1, 0, 0) needs 2"), ((0.5, 1), "(0.5, 1.0) needs 2"), ("ab", "('ab',) needs 2"),
])
def test_membership_index_of_and_indices_agree(alpha, named):
    basis = MonomialBasis(2, 3)
    assert (alpha in basis) is (named is None)
    if named is None:
        k = basis.index_of(alpha)
        assert basis.exponents[k] == tuple(int(a) for a in alpha)
        assert basis.indices(np.array([alpha], dtype=np.int64)).tolist() == [k]
        return
    with pytest.raises(ValueError, match=re.escape(f"exponent {named}")):
        basis.index_of(alpha)
    with pytest.raises(ValueError, match=re.escape(f"exponent {named}")):
        basis.indices(np.array([(0, 0), alpha]) if named.endswith("outside") else np.array([alpha]))


def test_indices_names_the_first_bad_exponent():
    basis = MonomialBasis(2, 3)
    with pytest.raises(ValueError, match=r"exponent \(2, 2\) outside the degree-3 basis in 2"):
        basis.indices(np.array([[[0, 1], [2, 2]], [[0, -1], [1, 1]]]))
    with pytest.raises(ValueError, match=r"exponent \(0, -1\) outside the degree-3 basis"):
        basis.indices(np.array([[0, 1], [0, -1], [2, 2]]))
    with pytest.raises(ValueError, match=r"exponent \(0\.5, 1\.0\) needs 2 nonnegative integer"):
        basis.indices(np.array([[0.5, 1.0]]))
    with pytest.raises(ValueError, match=r"exponent \(0, 1, 0\) needs 2 nonnegative integer"):
        basis.indices(np.zeros((4, 3), dtype=np.int64) + [0, 1, 0])
    assert basis.indices(np.zeros((0, 2), dtype=np.int64)).shape == (0,)


@pytest.mark.parametrize("resolution", [0, -2])
def test_box_grid_rejects_resolution_below_one(resolution):
    with pytest.raises(ValueError, match=f"grid resolution {resolution} must be at least 1"):
        box_grid([(-1.0, 1.0)], resolution)
    kernel = cd_kernel(PseudoMomentSequence.from_atoms([[0.0], [0.5]], [0.5, 0.5], 4), 1)
    with pytest.raises(ValueError, match="grid resolution"):
        cd_support_grid(kernel, (-1.0, 1.0), resolution, 1.0)


def test_str_lists_signed_terms_in_graded_lex_order():
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    p = x2 ** 3 + x2 * x2 - 2 * x1 * x2 + 0.25 * x1 * x1 - x2 - 0.5 * x1 + 2.5
    assert str(p) == "+2.5 -0.5*x1 -1*x2 +0.25*x1^2 -2*x1*x2 +1*x2^2 +1*x2^3"
    assert str(3 * x1 * x1 * x2) == "+3*x1^2*x2"
    assert str(Polynomial.constant(-1.0, 2)) == "-1"
    assert str(Polynomial.zero(2)) == "0"
    assert str(x1 - x1) == "0"
