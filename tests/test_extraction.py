import numpy as np
import pytest

from momlab import extraction
from momlab.cone import PseudoMomentSequence, ScaleRecord, SemialgebraicProblem
from momlab.extraction import (
    AtomicMeasure,
    candidate_minimizer,
    check_flatness,
    extract_atoms,
    polish_atoms,
    rank_profile,
    tchakaloff_prune,
)
from momlab.poly import Polynomial, r_dim

from conftest import random_atomic


def _match_atoms(found, expected, tol=1e-6):
    """Greedy one-to-one matching; returns max distance or inf on failure."""
    found = np.atleast_2d(found).tolist()
    worst = 0.0
    for e in np.atleast_2d(expected):
        dists = [np.linalg.norm(np.array(f) - e) for f in found]
        j = int(np.argmin(dists))
        worst = max(worst, dists[j])
        found.pop(j)
    return worst


def test_flatness_dirac_flat():
    y = PseudoMomentSequence.from_atoms([[0.3, -0.7]], [1.0], 4)
    rep = check_flatness(y, 2, 1)
    assert rep.rank_full == 1 and rep.rank_truncated == 1
    assert rep.is_flat


def test_flatness_lebesgue_not_flat():
    # uniform on [-1,1]: moments 0, 1/3, 0, 1/5 -> ranks (3, 2)
    table = {(k,): (0.0 if k % 2 else 1.0 / (k + 1)) for k in range(5)}
    y = PseudoMomentSequence.from_table(1, 4, table)
    rep = check_flatness(y, 2, 1)
    assert rep.rank_full == 3 and rep.rank_truncated == 2
    assert not rep.is_flat


def test_flatness_rejects_equal_ranks_of_a_non_psd_sequence():
    # y = (1, 0, -1, 0, 1): both moment matrices have rank 2, but L(x^2) = -1 has no
    # representing measure, and extraction fails on the moment system
    y = PseudoMomentSequence.from_table(1, 4, {(k,): [1.0, 0.0, -1.0, 0.0, 1.0][k] for k in range(5)})
    rep = check_flatness(y, 2, 1)
    assert rep.rank_full == rep.rank_truncated == 2
    assert rep.is_flat is False
    with pytest.raises(ValueError, match="moment system residual"):
        extract_atoms(y, 2)
    assert check_flatness(PseudoMomentSequence.from_atoms([[0.5]], [1.0], 4), 2, 1).is_flat is True


def test_flatness_argument_guards():
    y = PseudoMomentSequence.from_atoms([[0.0]], [1.0], 4)
    with pytest.raises(ValueError, match="exceeds"):
        check_flatness(y, 1, 2)
    with pytest.raises(ValueError, match="needs moments"):
        check_flatness(y, 3, 1)


def test_extract_three_collinear_atoms():
    atoms = np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    # order 3 is needed: the rank-3 column space contains x1^2, which only
    # becomes shift-closed once degree-2 pivot columns are allowed
    y = PseudoMomentSequence.from_atoms(atoms, [1 / 3] * 3, 6)
    mu = extract_atoms(y, 3)
    assert mu.n_atoms == 3
    assert _match_atoms(mu.atoms, atoms) <= 1e-8
    np.testing.assert_allclose(np.sort(mu.weights), [1 / 3] * 3, atol=1e-8)


def test_extract_single_dirac():
    y = PseudoMomentSequence.from_atoms([[0.6, -0.2, 0.9]], [2.0], 4)
    mu = extract_atoms(y, 2)
    assert mu.n_atoms == 1
    np.testing.assert_allclose(mu.atoms[0], [0.6, -0.2, 0.9], atol=1e-9)
    assert mu.weights[0] == pytest.approx(2.0, abs=1e-9)
    assert not mu.is_probability()


def test_extract_rejects_non_flat_input():
    table = {(k,): (0.0 if k % 2 else 1.0 / (k + 1)) for k in range(5)}
    y = PseudoMomentSequence.from_table(1, 4, table)
    with pytest.raises(ValueError):
        extract_atoms(y, 2)


def test_extracted_atoms_reproduce_objective_moment(corner_results, corner_problem):
    y = corner_results[3].pseudo_moments
    mu = extract_atoms(y, 2)
    # L(f) equals the measure average of f once the sequence is atomic
    avg = mu.integrate(corner_problem.objective) / mu.mass
    assert avg == pytest.approx(corner_results[3].m_d_star, abs=1e-6)


def test_candidate_minimizer_and_scale():
    atoms = np.array([[0.2, -0.4], [0.6, 0.8]])
    y = PseudoMomentSequence.from_atoms(atoms, [0.5, 0.5], 2)
    cand = candidate_minimizer(y)
    np.testing.assert_allclose(cand, [0.4, 0.2], atol=1e-12)
    # candidate stays in the convex hull of the atoms
    assert atoms[:, 0].min() <= cand[0] <= atoms[:, 0].max()
    sc = ScaleRecord((1.0, 0.0), (2.0, 1.0))
    np.testing.assert_allclose(sc.to_original(candidate_minimizer(y)), [1.8, 0.2], atol=1e-12)


def test_candidate_minimizer_requires_normalization():
    y = PseudoMomentSequence.from_atoms([[0.0]], [2.0], 2)
    with pytest.raises(ValueError, match="normalized"):
        candidate_minimizer(y)


def test_rank_profile_collinear_and_dirac():
    collinear = AtomicMeasure(
        np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]), [1 / 3] * 3
    )
    assert rank_profile(collinear, 4) == [1, 2, 3, 3, 3]
    dirac = AtomicMeasure(np.array([[0.3, 0.4]]), [1.0])
    assert rank_profile(dirac, 4) == [1, 1, 1, 1, 1]


def test_tchakaloff_prune_preserves_low_moments():
    rng = np.random.default_rng(5)
    atoms = rng.uniform(-1, 1, (10, 1))
    weights = rng.uniform(0.1, 1.0, 10)
    mu = AtomicMeasure(atoms, weights)
    pruned = tchakaloff_prune(mu, 2)
    assert pruned.n_atoms <= r_dim(1, 2)
    y0 = mu.moments(2)
    y1 = pruned.moments(2)
    np.testing.assert_allclose(y1.y, y0.y, atol=1e-12)
    # mass and mean are degree <= 1 moments, hence preserved exactly
    assert pruned.mass == pytest.approx(mu.mass, abs=1e-12)


def test_tchakaloff_prune_noop_when_small():
    mu = AtomicMeasure(np.array([[0.1], [0.9]]), [0.5, 0.5])
    pruned = tchakaloff_prune(mu, 2)
    assert pruned.n_atoms == 2


def test_atomic_measure_validation():
    with pytest.raises(ValueError, match="positive"):
        AtomicMeasure(np.array([[0.0]]), [0.0])
    with pytest.raises(ValueError, match="mismatch"):
        AtomicMeasure(np.array([[0.0], [1.0]]), [1.0])


def test_roundtrip_random_measures_2d():
    rng = np.random.default_rng(99)
    for _ in range(10):
        atoms, weights = random_atomic(rng, 2)
        y = PseudoMomentSequence.from_atoms(atoms, weights, 6)
        mu = extract_atoms(y, 3)
        assert mu.n_atoms == atoms.shape[0]
        assert _match_atoms(mu.atoms, atoms) <= 1e-7


def test_extracted_atoms_equal_the_inline_eigh_reference_bit_for_bit(monkeypatch):
    # the column space from the rule extract_atoms applied inline before psd_split
    def inline_split(A, tol):
        w, U = np.linalg.eigh((A + A.T) / 2)
        keep = w > tol * w[-1]
        return w[keep], U[:, keep]

    rng = np.random.default_rng(31)
    cases = [PseudoMomentSequence.from_atoms(*random_atomic(rng, n), 6) for n in (1, 2, 3)]
    got = [extract_atoms(y, 3) for y in cases]
    monkeypatch.setattr(extraction, "psd_split", inline_split)
    for y, mu in zip(cases, got):
        ref = extract_atoms(y, 3)
        assert np.array_equal(mu.atoms, ref.atoms) and np.array_equal(mu.weights, ref.weights)


def test_extraction_rejects_a_zero_moment_matrix():
    with pytest.raises(ValueError, match="zero moment matrix"):
        extract_atoms(PseudoMomentSequence(1, 4, np.zeros(5)), 2)


@pytest.mark.parametrize("r", [0, -2])
def test_flatness_rejects_step_below_one(r):
    # r = 0 compared M_3 with itself, r = -2 compared M_2 with the larger M_3
    y = PseudoMomentSequence.from_atoms([[0.3, -0.7]], [1.0], 6)
    with pytest.raises(ValueError, match=f"flatness step r={r} must be at least 1"):
        check_flatness(y, 3 if r == 0 else 2, r)


@pytest.mark.parametrize("tol", [0.0, -1e-6, 1.0, 2.0, float("nan")])
def test_flatness_and_extraction_reject_rank_tol_outside_unit_interval(tol):
    # a tol >= 1 made both ranks 0, so the sequence was reported flat
    y = PseudoMomentSequence.from_atoms([[0.3, -0.7], [-0.5, 0.2]], [0.5, 0.5], 6)
    with pytest.raises(ValueError, match=r"tol=.* must lie in \(0, 1\)"):
        check_flatness(y, 2, 1, tol=tol)
    with pytest.raises(ValueError, match=r"rank_tol=.* must lie in \(0, 1\)"):
        extract_atoms(y, 2, rank_tol=tol)


def test_polish_atoms_reaches_kkt_points():
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    box = (1 - x1 * x1, 1 - x2 * x2)
    # interior minimizer: no constraint active, Newton on grad f = 0
    parab = SemialgebraicProblem(n=2, objective=(x1 - 0.3) ** 2 + (x2 + 0.2) ** 2,
                                 constraints=box)
    np.testing.assert_allclose(polish_atoms(parab, [[0.3001, -0.2002]]), [[0.3, -0.2]],
                               rtol=0, atol=1e-15)
    # boundary minimizer: the nearly active constraint is held at 0
    line = SemialgebraicProblem(n=1, objective=Polynomial.variable(0, 1),
                                constraints=(1 - Polynomial.variable(0, 1) ** 2,))
    np.testing.assert_allclose(polish_atoms(line, [[-0.99999]]), [[-1.0]], rtol=0, atol=1e-15)
    # equalities are always active; one atom per row
    corner = SemialgebraicProblem(n=2, objective=-x1 - x2 + x1 * x2,
                                  equalities=(x1 - x1 * x1, x2 - x2 * x2))
    got = polish_atoms(corner, [[1e-6, 0.99999], [1.00001, 1e-5]])
    np.testing.assert_allclose(got, [[0.0, 1.0], [1.0, 0.0]], rtol=0, atol=1e-15)
