import re

import numpy as np
import pytest

from momlab.cone import PseudoMomentSequence
from momlab.poly import EVAL_BLOCK, Polynomial, r_dim
from momlab.support import (
    cd_kernel,
    cd_support_grid,
    cd_threshold,
    default_power_family,
    power_method_margin,
)
from momlab.upperbound import lebesgue_box_moments


def _box_moments(n, order):
    table = lebesgue_box_moments(n, order)
    return PseudoMomentSequence.from_table(n, order, table)


def test_kernel_closed_form_1d():
    y = _box_moments(1, 2)
    k0 = cd_kernel(y, 0)
    # constant density against mass-2 Lebesgue: K(x,x) = 1/2 everywhere
    assert k0(np.array([0.3])) == pytest.approx(0.5)
    k1 = cd_kernel(y, 1)
    # M = diag(2, 2/3): K(x,x) = 1/2 + (3/2) x^2
    for x in (-1.0, 0.0, 0.5):
        assert k1(np.array([x])) == pytest.approx(0.5 + 1.5 * x * x)
    assert not k1.singular
    assert k1.rank == 2


def test_kernel_off_diagonal_symmetry():
    y = _box_moments(1, 4)
    k = cd_kernel(y, 2)
    a, b = np.array([0.2]), np.array([-0.7])
    assert k(a, b) == pytest.approx(k(b, a), abs=1e-12)
    assert k(a, a) == pytest.approx(k(a), abs=1e-12)


def test_kernel_diag_in_blocks_matches_per_chunk_calls():
    # 3 full blocks of EVAL_BLOCK points and a partial one, at the measure-eval degree
    k = cd_kernel(_box_moments(2, 12), 6)
    pts = np.random.default_rng(4).uniform(-1.5, 1.5, (3 * EVAL_BLOCK + 17, 2))
    vals = k.diag(pts)
    chunks = [k.diag(pts[i:i + EVAL_BLOCK]) for i in range(0, len(pts), EVAL_BLOCK)]
    assert vals.shape == (len(pts),) and np.array_equal(vals, np.concatenate(chunks))
    for i in (0, EVAL_BLOCK, len(pts) - 1):
        assert vals[i] == pytest.approx(k(pts[i]), rel=1e-12)
    assert k.diag(pts[0]).shape == (1,)


def test_trace_identity_box_measures():
    # integral of K(x,x) against the defining measure equals r(n, d)
    for n in (1, 2):
        for d in (1, 2, 3):
            y = _box_moments(n, 2 * d)
            k = cd_kernel(y, d)
            Q = k.factor.T @ k.factor
            trace = sum(
                Q[i, j]
                * lebesgue_box_moments(n, 2 * d)[
                    tuple(x + z for x, z in zip(a, b))
                ]
                for i, a in enumerate(k.basis)
                for j, b in enumerate(k.basis)
            )
            assert trace == pytest.approx(r_dim(n, d), abs=1e-9)


def test_kernel_singular_branch_dirac():
    y = PseudoMomentSequence.from_atoms([[0.5]], [1.0], 4)
    k = cd_kernel(y, 2)
    assert k.singular
    assert k.rank == 1
    # on the pseudo-inverse branch the atom evaluates to 1/weight
    assert k(np.array([0.5])) == pytest.approx(1.0, abs=1e-9)


def test_kernel_rejects_zero_matrix():
    y = PseudoMomentSequence(1, 2, np.zeros(3))
    with pytest.raises(ValueError, match="zero"):
        cd_kernel(y, 1)


def test_cd_threshold_golden_and_guards():
    assert cd_threshold(4, 0.0, 5) == pytest.approx(2.4446247393325086e-06, rel=1e-12)
    # threshold shrinks with alpha and is positive
    assert 0 < cd_threshold(4, 0.5, 5) < cd_threshold(4, 0.0, 5)
    with pytest.raises(ValueError, match="alpha"):
        cd_threshold(4, 1.0, 5)
    with pytest.raises(ValueError, match="r > d"):
        cd_threshold(4, 0.0, 4)


def test_support_grid_threshold_extremes():
    y = _box_moments(1, 4)
    k = cd_kernel(y, 2)
    all_in = cd_support_grid(k, (-1.0, 1.0), 51, float("inf"))
    assert all_in.volume_fraction == 1.0
    none_in = cd_support_grid(k, (-1.0, 1.0), 51, 0.0)
    assert none_in.volume_fraction == 0.0
    assert all_in.points.shape == (51, 1)


def test_support_grid_localizes_sub_box():
    # measure supported on [-1/2, 1/2]; kernel diagonal must blow up outside
    atoms = np.linspace(-0.5, 0.5, 41).reshape(-1, 1)
    y = PseudoMomentSequence.from_atoms(atoms, np.full(41, 1 / 41), 8)
    k = cd_kernel(y, 4)
    inside_max = max(k(np.array([x])) for x in np.linspace(-0.5, 0.5, 101))
    grid = cd_support_grid(
        k, (-1.0, 1.0), 201, 2.0 * inside_max, reference_points=atoms
    )
    flagged = grid.points[grid.included][:, 0]
    assert np.all(np.abs(flagged) <= 0.62)
    assert np.all(np.abs(flagged) >= 0.0)
    assert 0.0 < grid.volume_fraction < 1.0
    assert grid.hausdorff_to_reference <= 0.15
    # values increase monotonically with distance from the support
    outs = sorted(abs(x) for x in (0.7, 0.8, 0.9, 1.0))
    vals = [k(np.array([x])) for x in outs]
    assert all(hi > lo for lo, hi in zip(vals, vals[1:]))


def test_default_power_family():
    fam = default_power_family(2)
    assert len(fam) == r_dim(2, 2)
    assert any(q.degree == 0 for q in fam)
    assert all(q.degree <= 2 for q in fam)


def test_power_margin_two_point_measure():
    # uniform on {-1, 1}: L(x^{2k}) = 1, so the family member q = x gives
    # bound 1 and margin 1 - |x|
    y = PseudoMomentSequence.from_atoms([[-1.0], [1.0]], [0.5, 0.5], 4)
    family = [Polynomial.variable(0, 1)]
    assert power_method_margin(y, 4, family, [0.5]) == pytest.approx(0.5)
    assert power_method_margin(y, 4, family, [1.0]) == pytest.approx(0.0)
    assert power_method_margin(y, 4, family, [2.0]) == pytest.approx(-1.0)


def test_power_margin_guards():
    y = PseudoMomentSequence.from_atoms([[0.0]], [1.0], 2)
    family = [Polynomial.variable(0, 1)]
    with pytest.raises(ValueError, match="needs moments"):
        power_method_margin(y, 4, family, [0.0])
    with pytest.raises(ValueError, match="exceeds budget"):
        power_method_margin(y, 2, [Polynomial(1, {(2,): 1.0})], [0.0])
    bad = PseudoMomentSequence.from_table(1, 2, {(0,): 1.0, (1,): 0.0, (2,): -1.0})
    with pytest.raises(ValueError, match="negative even"):
        power_method_margin(bad, 2, family, [0.0])


def test_power_margin_default_family_soundness():
    rng = np.random.default_rng(17)
    atoms = rng.uniform(-1, 1, (3, 2))
    weights = rng.uniform(1.0, 2.0, 3)
    y = PseudoMomentSequence.from_atoms(atoms, weights, 8)
    family = default_power_family(2)
    for a in atoms:
        assert power_method_margin(y, 8, family, a) >= -1e-10


def _batch_family():
    return default_power_family(2) + [Polynomial(2, {(3, 0): 1.0, (1, 2): -0.5, (0, 0): 0.25})]


def _batch_case():
    rng = np.random.default_rng(5)
    y = PseudoMomentSequence.from_atoms(rng.uniform(-1, 1, (4, 2)), rng.uniform(1.0, 2.0, 4), 12)
    pts = np.vstack([rng.uniform(-1.5, 1.5, (200, 2)), np.zeros((1, 2))])
    return y, pts


def test_power_margin_batch_equals_per_point():
    y, pts = _batch_case()
    family = _batch_family()
    loop = [power_method_margin(y, 12, family, p) for p in pts]
    assert all(type(m) is float for m in loop)
    batch = power_method_margin(y, 12, family, pts)
    assert batch.shape == (len(pts),)
    assert batch.tobytes() == np.array(loop).tobytes()
    with pytest.raises(ValueError, match="shape"):
        power_method_margin(y, 12, family, np.zeros((4, 3)))


def test_power_margin_warm_sequence_equals_fresh(monkeypatch):
    y, pts = _batch_case()
    # a fresh family per call: bounds are found by the content of q, not its identity
    warm = [power_method_margin(y, 12, _batch_family(), p) for p in pts]
    fresh = [power_method_margin(PseudoMomentSequence(2, 12, y.y), 12, _batch_family(), p)
             for p in pts]
    assert np.array(warm).tobytes() == np.array(fresh).tobytes()
    # once warm, a call only evaluates |q(x)|; another budget is another bound
    applied = []
    apply = PseudoMomentSequence.apply
    monkeypatch.setattr(PseudoMomentSequence, "apply",
                        lambda self, p: applied.append(p) or apply(self, p))
    again = power_method_margin(y, 12, _batch_family(), pts)
    assert again.tobytes() == np.array(fresh).tobytes()
    assert applied == []
    power_method_margin(y, 8, _batch_family(), pts)
    assert applied


def test_power_margin_tolerance_is_part_of_the_bound():
    # L(x^2) = -1e-8 passes a loose tolerance and fails a strict one, in either order
    y = PseudoMomentSequence.from_table(1, 2, {(0,): 1.0, (1,): 0.0, (2,): -1e-8})
    family = [Polynomial.variable(0, 1)]
    assert power_method_margin(y, 2, family, [0.0], tol=1e-6) == 0.0
    with pytest.raises(ValueError, match="negative even"):
        power_method_margin(y, 2, family, [0.0], tol=1e-9)
    assert power_method_margin(y, 2, family, [0.0], tol=1e-6) == 0.0


def test_power_margin_errors_repeat_and_keep_nothing():
    y = PseudoMomentSequence.from_atoms([[0.5]], [1.0], 2)
    x = Polynomial.variable(0, 1)
    bad = PseudoMomentSequence.from_table(1, 2, {(0,): 1.0, (1,): 0.0, (2,): -1.0})
    for _ in range(2):
        with pytest.raises(ValueError, match="exceeds budget"):
            power_method_margin(y, 2, [x, Polynomial(1, {(2,): 1.0})], [0.0])
        with pytest.raises(ValueError, match="negative even"):
            power_method_margin(bad, 2, [x], [0.0])
    assert y._power_bounds == {} and bad._power_bounds == {}
    assert power_method_margin(y, 2, [x], [0.0]) == 0.5


def test_power_margin_reuses_the_plan_of_an_equal_family(monkeypatch):
    y, pts = _batch_case()
    first = power_method_margin(y, 12, _batch_family(), pts)
    # equal members, built anew with their terms in reverse order
    equal = [Polynomial(2, dict(reversed(q.terms.items()))) for q in _batch_family()]
    applied = []
    apply = PseudoMomentSequence.apply
    monkeypatch.setattr(PseudoMomentSequence, "apply",
                        lambda self, p: applied.append(p) or apply(self, p))
    assert power_method_margin(y, 12, equal, pts).tobytes() == first.tobytes()
    assert applied == [] and len(y._power_bounds) == 1
    # fewer members is another family: a new plan, and no margin below the full family's
    fewer = power_method_margin(y, 12, _batch_family()[:-1], pts)
    assert applied and len(y._power_bounds) == 2
    assert (fewer >= first).all()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_power_margin_names_the_first_non_finite_point(bad):
    y = PseudoMomentSequence.from_atoms([[0.5, -0.25], [-0.5, 0.5]], [0.5, 0.5], 4)
    family = default_power_family(2)
    with pytest.raises(ValueError, match=re.escape(f"point ({bad}, 0.0) is not finite")):
        power_method_margin(y, 4, family, [bad, 0.0])
    pts = np.array([[0.1, 0.2], [0.3, bad], [bad, bad]])
    with pytest.raises(ValueError, match=re.escape(f"point (0.3, {bad}) is not finite")):
        power_method_margin(y, 4, family, pts)
    assert y._power_bounds == {}
