import json
import time

import numpy as np
import pytest

from momlab.cone import (
    PseudoMomentSequence,
    ScaleRecord,
    SemialgebraicProblem,
    localizing_matrix,
    moment_matrix,
    normalize,
)
from momlab.poly import Polynomial, monomials_upto


def test_scale_record_roundtrip():
    sc = ScaleRecord((1.0, -2.0), (0.5, 3.0))
    x = np.array([0.7, 1.4])
    np.testing.assert_allclose(sc.to_original(sc.to_normalized(x)), x)
    assert not sc.is_identity()
    assert ScaleRecord.identity(2).is_identity()


def test_problem_json_roundtrip(tmp_path, corner_problem):
    path = tmp_path / "prob.json"
    corner_problem.save(path)
    back = SemialgebraicProblem.load(path)
    assert back.n == 2
    assert back.objective.terms == corner_problem.objective.terms
    assert len(back.equalities) == 2
    assert back.equalities[0].terms == corner_problem.equalities[0].terms


def test_normalized_problem_json_roundtrip(tmp_path):
    x = Polynomial.variable(0, 2)
    prob = SemialgebraicProblem(n=2, objective=x * x, constraints=(3 - x,), ball_radius=2.5)
    q = normalize(prob)
    path = tmp_path / "normalized.json"
    q.save(path)
    back = SemialgebraicProblem.load(path)
    assert back.scale == ScaleRecord((0.0, 0.0), (2.5, 2.5))
    assert back == q
    bad = q.to_json_dict()
    bad["scale"]["radius"] = [2.5]
    with pytest.raises(ValueError, match="scale record dimension mismatch"):
        SemialgebraicProblem.from_json_dict(bad)


def test_membership_and_contains(line_problem):
    assert line_problem.contains([0.5])
    assert line_problem.contains([1.0])
    assert not line_problem.contains([1.1])
    assert line_problem.membership_residual([2.0]) == pytest.approx(-3.0)


def test_constraint_pairs_expand_equalities(corner_problem):
    pairs = corner_problem.constraint_pairs()
    assert len(pairs) == 4  # (h, -h) for each of the two equalities
    assert pairs[0].terms == {(1, 0): 1.0, (2, 0): -1.0}
    assert pairs[1].terms == {(1, 0): -1.0, (2, 0): 1.0}


def test_normalize_requires_ball_radius(line_problem):
    with pytest.raises(ValueError, match="ball_radius"):
        normalize(line_problem)


def test_normalize_rescales_and_appends_ball():
    x = Polynomial.variable(0, 1)
    prob = SemialgebraicProblem(
        n=1, objective=x, constraints=(4 - x * x,), ball_radius=2.0
    )
    norm = normalize(prob)
    # the ball constraint 1 - u^2 is appended last
    assert len(norm.constraints) == 2
    ball = norm.constraints[-1]
    assert ball.terms == {(0,): 1.0, (2,): -1.0}
    # all rescaled constraints have coefficient l1 norm, a bound on the sup over the box,
    # <= 0.45 (+ tiny numerical slack)
    assert sum(abs(c) for c in norm.constraints[0].terms.values()) <= 0.45 + 1e-12
    # K is preserved: u = 1 is the boundary point corresponding to x = 2
    assert norm.constraints[0]([1.0]) == pytest.approx(0.0, abs=1e-12)
    assert norm.scale.to_original([1.0])[0] == pytest.approx(2.0)
    # objective is only recoordinatized, never rescaled
    assert norm.objective([0.5]) == pytest.approx(prob.objective([1.0]))


def test_normalize_dense_n5_quartic_is_fast_and_certified():
    # the time bound rules out a grid estimate: 64 points per axis of [-1,1]^5 take about 43 GB
    rng = np.random.default_rng(0)
    n = 5

    def dense():
        return Polynomial(n, {a: rng.standard_normal() for a in monomials_upto(n, 4)})

    ball = Polynomial.constant(4.0, n)
    for i in range(n):
        ball = ball - Polynomial.variable(i, n) ** 2
    prob = SemialgebraicProblem(n=n, objective=dense(), constraints=(dense(), ball),
                                equalities=(dense(),), ball_radius=2.0)
    start = time.perf_counter()
    norm = normalize(prob)
    assert time.perf_counter() - start < 1.0
    pts = rng.uniform(-1.0, 1.0, size=(2000, n))
    for g in norm.constraints[:-1] + norm.equalities:
        l1 = sum(abs(c) for c in g.terms.values())
        assert l1 <= 0.45 + 1e-12
        # the l1 norm bounds |g| everywhere on the box
        assert np.max(np.abs(g.eval_grid(pts))) <= l1


def test_moment_sequence_from_atoms_and_apply():
    y = PseudoMomentSequence.from_atoms([[1.0], [-1.0]], [0.5, 0.5], 4)
    assert y.value((0,)) == 1.0
    assert y.value((1,)) == 0.0
    assert y.value((2,)) == 1.0
    p = Polynomial(1, {(2,): 3.0, (0,): 1.0})
    assert y.apply(p) == pytest.approx(4.0)


def test_moment_matrix_psd_for_real_measures():
    rng = np.random.default_rng(3)
    atoms = rng.uniform(-1, 1, (4, 2))
    weights = rng.uniform(0.1, 1.0, 4)
    y = PseudoMomentSequence.from_atoms(atoms, weights, 4)
    M = moment_matrix(y, 2)
    assert np.min(M.eigvals()) >= -1e-10
    # localizing matrix of a constraint nonnegative on the atoms is PSD too
    g = Polynomial(2, {(0, 0): 2.0, (2, 0): -1.0, (0, 2): -1.0})
    L = localizing_matrix(y, g, 4)
    assert np.min(L.eigvals()) >= -1e-10


def test_moment_matrix_order_guard():
    y = PseudoMomentSequence.from_atoms([[0.0]], [1.0], 2)
    with pytest.raises(ValueError):
        moment_matrix(y, 2)


def test_localizing_matrix_hand_value():
    # uniform on {-1, 1}: localizing matrix of g = 1 - x^2 vanishes
    y = PseudoMomentSequence.from_atoms([[1.0], [-1.0]], [0.5, 0.5], 4)
    g = Polynomial(1, {(0,): 1.0, (2,): -1.0})
    L = localizing_matrix(y, g, 4)
    np.testing.assert_allclose(L.M, 0.0, atol=1e-14)
    assert L.M.shape == (2, 2)


def test_truncate_keeps_the_leading_moments():
    y1 = PseudoMomentSequence.from_atoms([[0.5]], [1.0], 6)
    y4 = y1.truncate(4)
    assert y4.order == 4
    assert np.array_equal(y4.y, y1.y[: len(y4.y)])


def test_map_affine_matches_pushforward():
    rng = np.random.default_rng(7)
    atoms = rng.uniform(-1, 1, (3, 2))
    weights = rng.uniform(0.2, 1.0, 3)
    sc = ScaleRecord((0.3, -0.1), (2.0, 0.5))
    y = PseudoMomentSequence.from_atoms(atoms, weights, 4)
    pushed = y.map_affine(sc)
    direct = PseudoMomentSequence.from_atoms(
        np.array([sc.to_original(a) for a in atoms]), weights, 4
    )
    np.testing.assert_allclose(pushed.y, direct.y, atol=1e-12)


def test_moment_sequence_json_roundtrip():
    y = PseudoMomentSequence.from_atoms([[0.25, -0.5]], [2.0], 3)
    back = PseudoMomentSequence.from_json_dict(json.loads(json.dumps(y.to_json_dict())))
    np.testing.assert_allclose(back.y, y.y)
    assert back.order == 3


def test_moment_table_missing_exponent_raises_value_error():
    d = {"n": 1, "order": 2, "values": [{"alpha": [0], "y": 1.0}, {"alpha": [2], "y": 0.5}]}
    with pytest.raises(ValueError, match=r"degree 2 has no entry for exponent \(1,\)"):
        PseudoMomentSequence.from_json_dict(d)


_TABLE = [{"alpha": [0], "y": 1.0}, {"alpha": [1], "y": 0.5}, {"alpha": [2], "y": 0.5}]


@pytest.mark.parametrize("extra, says", [
    ({"alpha": [1, -1], "y": 7.0}, r"exponent \(1, -1\) needs 1 nonnegative integer entries"),
    ({"alpha": [-1], "y": 7.0}, r"exponent \(-1,\) outside the degree-2 basis"),
    ({"alpha": [9], "y": float("nan")}, r"exponent \(9,\) outside the degree-2 basis"),
    ({"alpha": [1], "y": 3.0}, r"moment table has 2 entries for exponent \(1,\)"),
])
def test_moment_table_checks_its_own_keys(extra, says):
    # each bad entry used to be dropped, or to overwrite a valid one, in silence
    with pytest.raises(ValueError, match=says):
        PseudoMomentSequence.from_json_dict({"n": 1, "order": 2, "values": _TABLE + [extra]})
    pairs = [(t["alpha"], t["y"]) for t in _TABLE + [extra]]
    with pytest.raises(ValueError, match=says):
        PseudoMomentSequence.from_table(1, 2, pairs)


def test_moment_table_entries_may_come_in_any_order():
    y = PseudoMomentSequence.from_json_dict({"n": 1, "order": 2, "values": _TABLE[::-1]})
    assert y.y.tolist() == [1.0, 0.5, 0.5]
    assert PseudoMomentSequence.from_table(1, 2, {(2,): 0.5, (0,): 1.0, (1,): 0.5}) == y


def test_moment_sequence_is_immutable_and_unaliased():
    arr = np.array([1.0, 0.5, 0.25])
    y = PseudoMomentSequence(1, 2, arr)
    arr[1] = 9.0
    assert arr.flags.writeable
    assert y.value((1,)) == 0.5
    with pytest.raises(ValueError, match="read-only"):
        y.y[1] = 9.0
    assert y.truncate(1).y.tolist() == [1.0, 0.5]


def test_moment_sequence_equality_is_by_value():
    y = PseudoMomentSequence(1, 2, [1.0, 0.5, 0.25])
    same = PseudoMomentSequence(1, 2, np.array([1.0, 0.5, 0.25]))
    assert (y == same) is True
    assert (y != same) is False
    assert y != PseudoMomentSequence(1, 2, [1.0, 0.5, 0.3])
    assert y != PseudoMomentSequence(1, 1, [1.0, 0.5])
    assert y != PseudoMomentSequence(2, 1, [1.0, 0.5, 0.25])
    assert y != [1.0, 0.5, 0.25]
    with pytest.raises(TypeError, match="PseudoMomentSequence"):
        hash(y)


@pytest.mark.parametrize("radius", [0, 0.0, -2.0, float("nan"), float("inf")])
def test_problem_rejects_ball_radius_that_is_not_finite_positive(radius):
    x = Polynomial.variable(0, 1)
    with pytest.raises(ValueError, match="ball_radius must be None or a finite value > 0"):
        SemialgebraicProblem(n=1, objective=x, constraints=(1 - x * x,), ball_radius=radius)
    d = SemialgebraicProblem(n=1, objective=x, constraints=(1 - x * x,)).to_json_dict()
    d["ball_radius"] = radius
    with pytest.raises(ValueError, match="ball_radius"):
        SemialgebraicProblem.from_json_dict(d)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_pseudo_moment_sequence_rejects_non_finite_values(bad):
    y = PseudoMomentSequence.from_atoms([[0.5, -0.25], [-0.5, 0.5]], [0.5, 0.5], 4).y.copy()
    y[3] = bad  # the moment of x1^2
    with pytest.raises(ValueError, match=r"pseudo-moment of exponent \(2, 0\) is not finite"):
        PseudoMomentSequence(2, 4, y)
    table = {"n": 1, "order": 2, "values": [{"alpha": [0], "y": 1.0}, {"alpha": [1], "y": bad},
                                            {"alpha": [2], "y": 0.5}]}
    with pytest.raises(ValueError, match=r"pseudo-moment of exponent \(1,\) is not finite"):
        PseudoMomentSequence.from_json_dict(table)
