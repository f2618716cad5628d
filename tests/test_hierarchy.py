import math
from dataclasses import fields

import numpy as np
import pytest

from momlab.bench import builtin_corpus, run_suite
from momlab.cone import PseudoMomentSequence, SemialgebraicProblem, localizing_matrix, normalize
from momlab import hierarchy, sdp
from momlab.extraction import candidate_minimizer
from momlab.hierarchy import (
    MEMBERSHIP_TOL,
    MomentSdpError,
    RelaxationResult,
    build_moment_sdp,
    compute_d0,
    qmodule_membership,
    relaxation_order,
    run_hierarchy,
    solve_moment_relaxation,
    solve_sos_tightening,
)
from momlab.poly import LocalizingMap, MonomialBasis, Polynomial, r_dim

from conftest import sweep_problem


def test_relaxation_order():
    assert [relaxation_order(d) for d in range(1, 7)] == [1, 1, 2, 2, 3, 3]


def test_level_below_problem_degree_raises(line_problem):
    with pytest.raises(ValueError, match="below problem degree"):
        build_moment_sdp(line_problem, 1)


def _moment_sdp_arrays(ms):
    arrays = [ms.problem.c, ms.y_particular, ms.nullbasis]
    for blk in ms.problem.blocks:
        arrays += [blk.F0, blk.var_idx, blk.mats]
    return arrays


def test_levels_of_one_order_build_the_same_sdp():
    # levels 2k-1 and 2k share relaxation_order k, which is why a sweep solves them once
    probs = [(bp.problem, range(bp.d_min, bp.d_max + 1)) for bp in builtin_corpus()]
    probs += [(sweep_problem(2, 0, domain), range(4, 9)) for domain in ("ball", "box")]
    pairs = 0
    for prob, levels in probs:
        for d in levels:
            if d % 2 == 0 and d - 1 in levels:
                odd, even = build_moment_sdp(prob, d - 1), build_moment_sdp(prob, d)
                assert odd.order == even.order == relaxation_order(d)
                assert odd.offset == even.offset
                a, b = _moment_sdp_arrays(odd), _moment_sdp_arrays(even)
                assert len(a) == len(b)
                assert all(np.array_equal(u, v) for u, v in zip(a, b)), (prob, d)
                pairs += 1
    assert pairs == 12
    # two-well: level 4 builds, level 3 of the same order is below the degree
    two_well = builtin_corpus()[3].problem
    build_moment_sdp(two_well, 4)
    with pytest.raises(ValueError, match="level 3 below problem degree 4"):
        build_moment_sdp(two_well, 3)


def _dedup_rows_reference(F0, FN):
    """The rows a pair loop keeps: the first of each set of exactly equal rows."""
    s = F0.shape[0]
    sigs = np.concatenate([F0, FN.reshape(s, -1)], axis=1)
    scale = 1.0 + float(np.max(np.abs(sigs)))
    keep = []
    for i in range(s):
        dup = any(np.max(np.abs(sigs[i] - sigs[j])) <= 1e-12 * scale for j in keep)
        if not dup:
            keep.append(i)
    return keep


def _independent_rows_reference(F0, FN):
    """The rows of F0 + FN.z that no earlier rows span: |R_ii| of one QR of the signatures."""
    s = F0.shape[0]
    sigs = np.concatenate([F0, FN.reshape(s, -1)], axis=1)
    tol = 1e-12 * (1.0 + float(np.max(np.abs(sigs))))
    r = np.abs(np.diag(np.linalg.qr(sigs.T, mode="r")))
    return np.flatnonzero(r > tol).tolist() or [0]


def _full_block_signatures(ms):
    """(F0, FN) of every block over all its monomial rows, none dropped, at y = y_p + N z."""
    n, out = ms.basis.n, []
    for g in ms.block_weights:
        rows = ms.basis.exps[:r_dim(n, (2 * ms.order - g.degree) // 2)]
        loc = ms.basis.localizing_map(rows, g)
        out.append((loc.gather(ms.y_particular), loc.gather(ms.nullbasis)))
    return out


def _check_kept_rows(ms):
    """Each block keeps the rows the QR reference keeps on its full signatures; returns them."""
    kept = []
    for (F0, FN), rows, blk in zip(_full_block_signatures(ms), ms.block_bases,
                                   ms.problem.blocks):
        keep = _independent_rows_reference(F0, FN)
        assert rows == tuple(ms.basis.exponents[i] for i in keep)
        assert blk.size == len(keep)
        kept.append(keep)
    return kept


def test_independent_rows_match_pair_loop_on_binary_corner(corner_problem):
    # the idempotent relations x_i = x_i^2 of binary-corner make equal rows and no
    # other dependence, so each block keeps exactly the rows the pair loop keeps
    dropped = 0
    for d in range(2, 9):
        ms = build_moment_sdp(corner_problem, d)
        for (F0, FN), keep in zip(_full_block_signatures(ms), _check_kept_rows(ms)):
            assert keep == _dedup_rows_reference(F0, FN)
            dropped += F0.shape[0] - len(keep)
    assert dropped > 0


def test_independent_rows_drop_a_sum_of_rows_on_the_circle():
    # on x1^2 + x2^2 = 1 the row of x2^2 is the row of 1 minus the row of x1^2, and no
    # two rows are equal: the pair loop keeps all six rows, the moment block five
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    prob = SemialgebraicProblem(n=2, objective=x1 * x2, equalities=(x1 * x1 + x2 * x2 - 1,))
    ms = build_moment_sdp(prob, 4)
    _check_kept_rows(ms)
    assert _dedup_rows_reference(*_full_block_signatures(ms)[0]) == list(range(6))
    assert ms.block_bases[0] == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1))
    assert ms.problem.blocks[0].size == 5


def test_row_reduction_runs_only_with_equality_relations():
    # without equalities the rows of a block are distinct monomials' rows, which no
    # pseudo-moment kernel relates: every block keeps them all, the QR reference
    # agrees, and the SDP variables are the moments after y_0 = 1
    prob = sweep_problem(2, 0, "box")
    assert not prob.equalities
    ms = build_moment_sdp(prob, 6)
    m = len(ms.basis)
    np.testing.assert_array_equal(ms.y_particular, np.eye(m)[0])
    np.testing.assert_array_equal(ms.nullbasis, np.eye(m)[:, 1:])
    for blk, rows, keep in zip(ms.problem.blocks, ms.block_bases, _check_kept_rows(ms)):
        assert keep == list(range(blk.size))
        assert rows == tuple(ms.basis.exponents[:blk.size])


def _on_sphere(n, objective):
    """min objective(x_1, ..., x_n) subject to |x|^2 = 1."""
    xs = [Polynomial.variable(i, n) for i in range(n)]
    sphere = sum((x * x for x in xs), Polynomial.zero(n)) - 1
    return SemialgebraicProblem(n=n, objective=objective(*xs), equalities=(sphere,))


@pytest.mark.parametrize("n, objective, f_star, levels", [
    (2, lambda x1, x2: x1 * x2, -0.5, (2, 6)),
    (2, lambda x1, x2: x1 + x2, -math.sqrt(2.0), (3, 8)),
    (3, lambda x1, x2, x3: x1 * x2 * x3, -1.0 / (3.0 * math.sqrt(3.0)), (5, 8)),
], ids=["x1x2-circle", "x1+x2-circle", "x1x2x3-sphere"])
def test_sphere_equality_problems_reach_closed_form_optima(n, objective, f_star, levels):
    # the sphere makes the row of 1 a sum of rows of squares in every moment block;
    # with only equal rows dropped, every level here from 3 on ended IllConditioned
    for res in run_hierarchy(_on_sphere(n, objective), *levels):
        assert res.status == "Optimal" and not res.retried, res.d
        assert abs(res.m_d_star - f_star) <= 1e-6, res.d
        assert res.f_d_star <= f_star + 1e-7, res.d
        assert res.certificate.residual_norm <= 1e-8, res.d


def test_sphere_blocks_are_sparse_in_basic_coordinates():
    # min x1 + ... + x4 on the unit sphere at d = 8: through the dense SVD null basis
    # the moment block had 3024 nonzeros per variable and took the dense products
    prob = _on_sphere(4, lambda *xs: sum(xs[1:], xs[0]))
    ms = build_moment_sdp(prob, 8)
    _check_kept_rows(ms)
    (blk,) = ms.problem.blocks
    assert blk.product == "nonzero"
    assert blk._sparse.nnz <= 20 * ms.problem.n_vars
    res = hierarchy.solve_moment_sdp(prob, ms)
    assert res.status == "Optimal" and not res.retried
    assert abs(res.m_d_star + 2.0) <= 1e-7
    assert res.certificate.residual_norm <= 1e-8


@pytest.mark.parametrize("d, extra_row", [(4, (0, 2)), (6, (0, 3))])
def test_pivot_rows_their_normal_forms_miss_stay_in_the_block(d, extra_row):
    # x1^2 + x2 = 0 and x1 x2 = 0 give x2^2 = x2 (x1^2 + x2) - x1 (x1 x2) only through
    # relation rows of degree 3, so x2^2 is a pivot with normal form 0 while its
    # moment row still holds the basic moment of x2^4: dropping that row left
    # z_{x2^4} in no block and min x2^4 unbounded
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    prob = SemialgebraicProblem(n=2, objective=x2 * x2 * x2 * x2,
                                equalities=(x1 * x1 + x2, x1 * x2))
    ms = build_moment_sdp(prob, d)
    _check_kept_rows(ms)
    assert ms.block_bases == (((0, 0), (1, 0), (0, 1), extra_row),)
    (blk,) = ms.problem.blocks
    assert np.all(np.any(blk.mats != 0.0, axis=(1, 2)))  # every variable enters the block
    res = hierarchy.solve_moment_sdp(prob, ms)
    assert res.status == "Optimal" and not res.retried
    assert abs(res.m_d_star) <= 1e-7
    assert res.certificate.residual_norm <= 1e-8


@pytest.mark.parametrize("d, rows", [(4, ((0, 0), (1, 0), (0, 1), (0, 2))),
                                     (6, ((0, 0), (1, 0), (0, 2), (0, 3)))])
def test_dependent_pivot_rows_their_normal_forms_miss_keep_a_spanning_set(d, rows):
    # x2 + x1 x2 = 0 and x1^2 = 0: three pivot rows miss their normal forms, but
    # their differences from them span only two dimensions, so two of them are kept
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    prob = SemialgebraicProblem(n=2, objective=x1, equalities=(x2 + x1 * x2, x1 * x1))
    ms = build_moment_sdp(prob, d)
    _check_kept_rows(ms)
    assert ms.block_bases == (rows,)
    assert np.all(np.any(ms.problem.blocks[0].mats != 0.0, axis=(1, 2)))


def test_build_logs_the_elimination(caplog):
    # one DEBUG line per build: pivot count, largest entry of N before its columns
    # are scaled, and the rows each block keeps
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    prob = SemialgebraicProblem(n=2, objective=x1 * x2, constraints=(1 - x1,),
                                equalities=(x1 * x1 + x2 * x2 - 1,))
    with caplog.at_level("DEBUG", logger="momlab.hierarchy"):
        build_moment_sdp(prob, 4)
    assert [r.getMessage() for r in caplog.records if r.name == "momlab.hierarchy"] == [
        "level 4 moment SDP: 7 pivots of 15 moments, max|N| 2, rows kept per block [5, 3]"]


def test_constant_objective():
    prob = SemialgebraicProblem(
        n=1,
        objective=Polynomial.constant(3.5, 1),
        constraints=(Polynomial(1, {(0,): 1.0, (2,): -1.0}),),
    )
    res = solve_moment_relaxation(prob, 2)
    assert res.m_d_star == pytest.approx(3.5, abs=1e-7)
    assert res.pseudo_moments.value((0,)) == pytest.approx(1.0, abs=1e-9)


def _pinned_problem(constraints=()):
    """min x^2 with x = 0.5: the equality pins every pseudo-moment."""
    x = Polynomial.variable(0, 1)
    return SemialgebraicProblem(n=1, objective=x * x, constraints=constraints,
                                equalities=(x - 0.5,))


def test_pinned_moments_are_solved_certified_and_rounded():
    # the SDP has no variables; its constant blocks go through the solver
    prob = _pinned_problem()
    assert build_moment_sdp(prob, 4).problem.n_vars == 0
    res = solve_moment_relaxation(prob, 4)
    assert res.status == "Optimal" and not res.retried
    assert res.m_d_star == pytest.approx(0.25, abs=1e-12)
    assert res.f_d_star <= res.m_d_star
    assert res.certificate.residual_norm <= 1e-12
    np.testing.assert_allclose(res.rounded.atoms, [[0.5]], rtol=0, atol=1e-12)


def test_pinned_moments_on_the_boundary_of_the_constraints():
    # x = 0.5 and x >= 0.5: the localizing matrix is identically zero and is left
    # out, so the SDP has no variables and one constant block, the moment block [[1]]
    prob = _pinned_problem((Polynomial.variable(0, 1) - 0.5,))
    assert build_moment_sdp(prob, 4).problem.n_vars == 0
    res = solve_moment_relaxation(prob, 4)
    assert res.status == "Optimal" and not res.retried
    assert res.m_d_star == pytest.approx(0.25, abs=1e-12)
    assert res.f_d_star <= res.m_d_star


def test_pinned_moments_outside_the_constraints_are_infeasible():
    # x = 0.5 and x >= 1: K is empty and the constant localizing block [[-0.5]] is not PSD
    prob = _pinned_problem((Polynomial.variable(0, 1) - 1,))
    assert build_moment_sdp(prob, 4).problem.n_vars == 0
    with pytest.raises(MomentSdpError, match="Infeasible"):
        solve_moment_relaxation(prob, 4)
    (res,) = run_hierarchy(prob, 4, 4)
    assert res.status.startswith("Failed: level 4: ") and "Infeasible" in res.status


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


def _ball_problem():
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    return SemialgebraicProblem(
        n=2, objective=x1**4 - 0.7 * x1 * x2**2 + 0.3 * x2 + x1 * x2,
        constraints=(1 - x1 * x1 - x2 * x2, 0.5 + x1 - 0.2 * x2**3),
    )


@pytest.mark.parametrize("which", ["binary-corner", "ball"])
def test_moment_sdp_blocks_are_the_localizing_matrices(which, corner_problem):
    # corner_problem is the builtin binary-corner problem (equalities, dense null basis)
    prob = corner_problem if which == "binary-corner" else _ball_problem()
    rng = np.random.default_rng(0)
    for d in (4, 5):
        ms = build_moment_sdp(prob, d)
        z = rng.normal(size=ms.problem.n_vars)
        y = PseudoMomentSequence(prob.n, 2 * ms.order, ms.y_particular + ms.nullbasis @ z, ms.basis)
        for blk, g, rows in zip(ms.problem.blocks, ms.block_weights, ms.block_bases):
            L = localizing_matrix(y, g, 2 * ms.order)
            keep = L.basis.indices(np.array(rows))
            np.testing.assert_allclose(blk.assemble(z), L.M[np.ix_(keep, keep)],
                                       rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("which", ["circle", "binary-corner"])
def test_build_gathers_each_block_once(which, corner_problem, monkeypatch):
    # one localizing map and one gather per block: the kept rows, F0 and the F_i
    # are slices of that gather
    prob = _on_sphere(2, lambda x1, x2: x1 * x2) if which == "circle" else corner_problem
    calls = {"localizing_map": 0, "gather": 0}

    def counted(cls, name):
        method = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counted(MonomialBasis, "localizing_map")
    counted(LocalizingMap, "gather")
    ms = build_moment_sdp(prob, 4)
    assert calls == {"localizing_map": len(ms.block_bases), "gather": len(ms.block_bases)}


def _kept_row_problems():
    """Relaxations whose blocks keep some rows, have several terms, or keep them all."""
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    y1, y2, y3 = (Polynomial.variable(i, 3) for i in range(3))
    sphere = _on_sphere(3, lambda *xs: sum(xs[1:], xs[0]))
    corner = builtin_corpus()[0].problem
    out = [(bp.problem, bp.d_max) for bp in builtin_corpus()]
    out += [(_on_sphere(2, lambda x1, x2: x1 * x2), d) for d in (4, 6)]
    out += [(sphere, d) for d in (4, 6)]
    out.append((SemialgebraicProblem(n=3, objective=sphere.objective, equalities=sphere.equalities,
                                     constraints=(1 - y1 - 0.5 * y2 * y2, 0.3 + y3 - y1 * y2)), 6))
    out.append((SemialgebraicProblem(n=2, objective=corner.objective, equalities=corner.equalities,
                                     constraints=(1.5 - x1 - x2 + 0.2 * x1 * x2,)), 6))
    return out


def test_moment_sdp_blocks_are_the_maps_of_y_p_and_n_bit_for_bit():
    # the columns of N are scaled before the one gather, so each block's F0 and
    # mats are its kept rows' localizing map applied to y_p and N, to the last bit
    for prob, d in _kept_row_problems():
        ms = build_moment_sdp(prob, d)
        live = [(g, rows) for g, rows in zip(ms.block_weights, ms.block_bases) if rows]
        assert len(live) == len(ms.problem.blocks)
        for blk, (g, rows) in zip(ms.problem.blocks, live):
            lmap = ms.basis.localizing_map(np.array(rows), g)
            assert np.array_equal(blk.F0, lmap.gather(ms.y_particular)), (prob, d)
            assert np.array_equal(blk.mats, np.moveaxis(lmap.gather(ms.nullbasis), 2, 0)), (prob, d)


def test_pivot_row_check_keeps_the_same_rows_in_any_column_slices(monkeypatch):
    # `_block_rows` reads G in column slices of at most CHUNK_ENTRIES entries; one
    # column per slice keeps the same rows and builds the same SDP, to the last bit
    problems = [(prob, d) for prob, d in _kept_row_problems() if prob.equalities]
    whole = [build_moment_sdp(prob, d) for prob, d in problems]
    monkeypatch.setattr(hierarchy, "CHUNK_ENTRIES", 1)
    for ms, (prob, d) in zip(whole, problems):
        sliced = build_moment_sdp(prob, d)
        assert sliced.block_bases == ms.block_bases, (prob, d)
        for a, b in zip(sliced.problem.blocks, ms.problem.blocks):
            assert np.array_equal(a.F0, b.F0) and np.array_equal(a.mats, b.mats), (prob, d)


def test_membership_cost_on_a_moment_no_block_reaches(monkeypatch):
    # at level 1 only L(1) is in a block, so L(x) is free and min L(x) unbounded;
    # at level 3 on the circle the relations enter, and the moment block reaches
    # degree 2 only: the answer is False before any SDP is solved
    def no_solve(problem):
        raise AssertionError("no SDP should be solved")

    monkeypatch.setattr(hierarchy, "solve", no_solve)
    x = Polynomial.variable(0, 1)
    interval = SemialgebraicProblem(n=1, objective=x, constraints=(1 - x * x,))
    assert qmodule_membership(x, interval, 1) == (False, None)
    circle, x1 = _on_sphere(2, lambda x1, x2: x1 * x2), Polynomial.variable(0, 2)
    assert qmodule_membership(x1, circle, 1) == (False, None)
    assert qmodule_membership(x1 ** 3, circle, 3) == (False, None)


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


def test_membership_grams_pair_with_constraints():
    # 1 - x^4 has degree above 2: it keeps its slot with an empty basis and a 0 x 0 Gram
    x = Polynomial.variable(0, 1)
    prob = SemialgebraicProblem(n=1, objective=x, constraints=(1 - x**4, 1 - x * x))
    ok, cert = qmodule_membership(1 - x * x, prob, 2)
    assert ok
    assert [G.shape for G in cert.grams] == [(2, 2), (0, 0), (1, 1)]
    assert cert.gram_bases[1] == ()
    assert cert.residual_norm <= 1e-8
    assert [compute_d0(bp.problem, bp.d_max) for bp in builtin_corpus()] == [2] * 5


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


def test_membership_with_dependent_relation_rows():
    # the circle given once, twice, and with x1 times itself: the relation rows of
    # a redundant equality are rows of the first one, and the projection onto the
    # null space of the dependent rows gives the verdicts of the single equality
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    h = x1 * x1 + x2 * x2 - 1
    single, twice, shifted = (
        SemialgebraicProblem(n=2, objective=x1, constraints=(0.5 * (1 - x1),), equalities=eqs)
        for eqs in ((h,), (h, h), (h, x1 * h)))
    for prob in (twice, shifted):
        rows = np.array(hierarchy._relation_rows(prob, MonomialBasis(2, 4))[0])
        assert np.linalg.matrix_rank(rows) < len(rows)
    cases = [(1 - x1 * x1, 2, True), (2 + x1, 2, True), (1 - x1 ** 4, 4, True),
             (1 - x1 * x1 * x2, 4, True), (x1, 2, False), (Polynomial.constant(-1.0, 2), 3, False),
             (x1 * x2 + 0.4, 3, False), (x1 * x1 - 0.5, 4, False), (x2, 4, False)]
    for q, d, member in cases:
        assert qmodule_membership(q, single, d)[0] == member
        for prob in (twice, shifted):
            ok, cert = qmodule_membership(q, prob, d)
            assert ok == member
            if member:
                assert cert.residual_norm <= 1e-7
    # 1 - h and 1 + h are the targets either way (x1 h would add targets of degree 3)
    assert compute_d0(twice, 4) == compute_d0(single, 4) == 2


def _circles():
    """The circle h = x1^2 + x2^2 - 1 given once, twice and as (h, x1 h), with 0.5 (1 - x1) >= 0."""
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    h = x1 * x1 + x2 * x2 - 1
    return [SemialgebraicProblem(n=2, objective=x1, constraints=(0.5 * (1 - x1),), equalities=eqs)
            for eqs in ((h,), (h, h), (h, x1 * h))]


@pytest.mark.parametrize("which", ["single", "twice", "shifted"])
def test_membership_answers_non_members_at_level_4(which):
    # min t with G_j + t*I PSD ended IllConditioned on these and raised; the
    # trace-normalized moment SDP ends Optimal with min L(q) < 0
    prob = _circles()[["single", "twice", "shifted"].index(which)]
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    for q in (Polynomial.constant(-1.0, 2), x1 - 0.5, x1 * x2 + 0.4):
        assert qmodule_membership(q, prob, 4) == (False, None)


def test_membership_under_inconsistent_equalities():
    # x = 0.5 and x = 0.7 put 1 in the span of the relations: every block is 0 on
    # them and is left out, and every q of degree <= d is a member through the
    # equality multipliers alone; the relaxation itself is rejected
    x = Polynomial.variable(0, 1)
    prob = SemialgebraicProblem(n=1, objective=x, constraints=(1 - x * x,),
                                equalities=(x - 0.5, x - 0.7))
    for q in (x, x * x, Polynomial.constant(-1.0, 1)):
        ok, cert = qmodule_membership(q, prob, 2)
        assert ok and [G.shape for G in cert.grams] == [(0, 0), (0, 0)]
        assert cert.residual_norm <= 1e-12
    assert compute_d0(prob, 4) == 2
    with pytest.raises(ValueError, match="inconsistent with L\\(1\\) = 1"):
        build_moment_sdp(prob, 2)


@pytest.mark.parametrize("d", [4, 6, 8])
def test_identically_zero_localizing_block_is_dropped(d):
    # 1 - x1^2 - x2^2 >= 0 is implied by x1^2 + x2^2 = 1: its localizing matrix is
    # zero on every pseudo-moment sequence.  Kept as a 3x3, 5x5, 7x7 block, no point
    # was strictly feasible and d = 8 ended loose; dropped, the constraint keeps its
    # slot with an empty basis and a 0 x 0 Gram
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    prob = SemialgebraicProblem(n=2, objective=x1 * x2, constraints=(1 - x1 * x1 - x2 * x2,),
                                equalities=(x1 * x1 + x2 * x2 - 1,))
    ms = build_moment_sdp(prob, d)
    assert [blk.size for blk in ms.problem.blocks] == [d // 2 * 2 + 1]
    assert ms.block_bases[1] == ()
    res = solve_moment_relaxation(prob, d)
    assert res.status == "Optimal" and not res.retried and res.rounded is not None
    assert abs(res.m_d_star + 0.5) <= 1e-8
    assert [G.shape for G in res.certificate.grams][1] == (0, 0)
    assert res.certificate.residual_norm <= 1e-8


def test_multipliers_are_the_sum_of_their_terms():
    # each multiplier holds its (gamma, lam) terms in relation-row order, as adding
    # one monomial per relation row gave
    prob = _circles()[2]
    basis = MonomialBasis(2, 4)
    vec = np.random.default_rng(0).standard_normal(len(basis))
    multipliers, res = hierarchy._recover_multipliers(prob, vec, basis)
    rel_rows, owners = hierarchy._relation_rows(prob, basis)
    lam, *_ = np.linalg.lstsq(np.array(rel_rows).T, vec, rcond=None)
    want = [Polynomial.zero(2) for _ in prob.equalities]
    for (j, gamma), lv in zip(owners, lam):
        want[j] = want[j] + Polynomial(2, {gamma: float(lv)})
    assert multipliers == tuple(want)
    assert [list(m.terms) for m in multipliers] == [list(m.terms) for m in want]
    np.testing.assert_array_equal(res, vec - np.array(rel_rows).T @ lam)


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


def test_run_hierarchy_records_failures_and_monotone(monkeypatch):
    x = Polynomial.variable(0, 1)
    prob = SemialgebraicProblem(
        n=1, objective=x**4 - x * x, constraints=(1 - x * x,)
    )
    sols = _record_solves(monkeypatch)
    results = run_hierarchy(prob, 2, 7)
    assert [r.d for r in results] == [2, 3, 4, 5, 6, 7]
    # levels below the objective degree fail but are still reported; level 3
    # fails alone although level 4 of its order solves
    assert results[0].status.startswith("Failed")
    assert results[1].status == "Failed: level 3 below problem degree 4"
    assert math.isnan(results[0].m_d_star)
    assert results[2].status == "Optimal"
    assert results[2].m_d_star == pytest.approx(-0.25, abs=1e-6)
    # one solve per order at or above the degree: orders 2, 3 and 4
    assert len(sols) == 3
    r5, r6 = results[3], results[4]
    assert r6.d == 6 and r5.status == "Optimal"
    assert all(getattr(r5, f.name) is getattr(r6, f.name) for f in fields(RelaxationResult)
               if f.name != "d")


def test_failed_order_fails_each_level_with_its_own_status(monkeypatch, line_problem):
    monkeypatch.setattr(sdp, "MAX_ITER", 2)
    own = []
    for d in (3, 4):
        with pytest.raises(RuntimeError, match=f"level {d}: moment SDP ended with") as err:
            solve_moment_relaxation(line_problem, d)
        own.append(f"Failed: {err.value}")
    sols = _record_solves(monkeypatch)
    results = run_hierarchy(line_problem, 3, 4)
    assert len(sols) == 1
    assert [r.status for r in results] == own


def test_run_suite_solves_each_order_once(monkeypatch):
    # 21 builtin levels over 13 distinct relaxation orders
    sols = _record_solves(monkeypatch)
    reports, _ = run_suite(builtin_corpus())
    assert sum(len(rep.levels) for rep in reports) == 21
    assert len(sols) == 13


def test_run_hierarchy_raises_when_bounds_decrease(monkeypatch, line_problem):
    bounds = {2: -0.5, 3: -1.0}

    def fake(prob, d, opts=None):
        return RelaxationResult(d, bounds[d], None, bounds[d], None, "Optimal")

    monkeypatch.setattr(hierarchy, "solve_moment_relaxation", fake)
    with pytest.raises(RuntimeError, match="lower bounds decreased"):
        run_hierarchy(line_problem, 2, 3)


def _record_solves(monkeypatch):
    """Route hierarchy.solve through a recorder; returns the list of its solutions."""
    real, sols = hierarchy.solve, []
    monkeypatch.setattr(hierarchy, "solve", lambda problem: sols.append(real(problem)) or sols[-1])
    return sols


def test_retry_is_reported(monkeypatch, line_problem):
    # an interior iterate has a positive gap, so the 1e-8 tier is unreachable
    # and the first iterate within 1e-7 is accepted from the same run
    monkeypatch.setattr(sdp, "TOL", 0.0)
    sols = _record_solves(monkeypatch)
    res = solve_moment_relaxation(line_problem, 2)
    assert res.status == "Optimal"
    assert res.retried is True
    assert len(sols) == 1 and sols[0].loose
    sol = sols[0]
    assert max(sol.primal_residual, sol.dual_residual, sol.gap) <= 1e-7
    assert res.m_d_star == pytest.approx(-1.0, abs=1e-6)


def test_first_time_solve_is_not_retried(monkeypatch, line_problem):
    sols = _record_solves(monkeypatch)
    res = solve_moment_relaxation(line_problem, 2)
    assert res.status == "Optimal"
    assert res.retried is False
    assert len(sols) == 1 and not sols[0].loose


def test_stalled_solve_accepted_in_one_run(monkeypatch):
    # dense quartic (seed 1) on the unit disc at level 8; with TOL = 0 no
    # iterate meets the 1e-8 tier, so the run goes on to its end and returns
    # its first iterate within 1e-7 from that one solve
    monkeypatch.setattr(sdp, "TOL", 0.0)
    rng = np.random.default_rng(1)
    f = Polynomial(2, {a: rng.standard_normal() for a in MonomialBasis(2, 4)})
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    prob = SemialgebraicProblem(
        n=2, objective=f, constraints=(Polynomial.constant(1.0, 2) - x1 * x1 - x2 * x2,)
    )
    sols = _record_solves(monkeypatch)
    res = solve_moment_relaxation(prob, 8)
    assert len(sols) == 1
    assert res.status == "Optimal" and res.retried is True
    assert res.iterations == sols[0].iterations == len(sols[0].trace)
    assert max(sols[0].primal_residual, sols[0].dual_residual, sols[0].gap) <= 1e-7


def test_block_off_the_cone_ends_the_solve():
    # the dual moment block of this wide-sweep problem stops being
    # Cholesky-factorable (at iteration 22 here); with its step pinned at 0 the
    # run used to iterate on to MaxIter (200) and return the same iterate
    sol = sdp.solve(build_moment_sdp(sweep_problem(2, 17, "box"), 8).problem)
    assert sol.status != "MaxIter"
    assert sol.iterations < sdp.MAX_ITER


def test_failed_solve_says_how_it_ended(monkeypatch, line_problem):
    monkeypatch.setattr(sdp, "MAX_ITER", 2)
    with pytest.raises(RuntimeError, match=r"level 2: moment SDP ended with status MaxIter "
                                           r"after 2 iterations \(pres .*; dres .*; gap .*\)"):
        solve_moment_relaxation(line_problem, 2)


def test_wide_seeded_sweep():
    # 72 seeded problems (seeds 12-23, disjoint from the benchmark's pinned
    # 0-11): 16 failed before the GEMM Schur kernel, 6 before the dual
    # projection of every search direction, none after; the bound leaves room
    # for round-off on other CPUs.  Keep seeds and size.
    failed = []
    for n, d in ((1, 8), (2, 8), (3, 6)):
        for domain in ("ball", "box"):
            for seed in range(12, 24):
                prob = sweep_problem(n, seed, domain)
                try:
                    res = solve_moment_relaxation(prob, d, want_certificate=False)
                except RuntimeError:
                    failed.append((n, d, domain, seed))
                    continue
                # every bound sits below f at seeded feasible points
                pts = np.random.default_rng(seed).uniform(-1.0, 1.0, (256, n))
                if domain == "ball":
                    pts = pts[np.sum(pts * pts, axis=1) <= 1.0]
                f_min = min(prob.objective(p) for p in pts)
                assert res.m_d_star <= f_min + 1e-6, (n, d, domain, seed)
                assert res.f_d_star <= f_min + 1e-6, (n, d, domain, seed)
    assert len(failed) <= 2, failed


def test_dual_residual_stays_at_round_off():
    # once an iterate's dual residual reaches 1e-12, the dual projection keeps
    # every later one there (checked on the wide sweep's n = 1, 2 problems)
    reached = 0
    for n in (1, 2):
        for domain in ("ball", "box"):
            for seed in range(12, 24):
                sol = sdp.solve(build_moment_sdp(sweep_problem(n, seed, domain), 8).problem)
                dres = [dr for _, _, _, dr, _ in sol.trace]
                first = next((k for k, dr in enumerate(dres) if dr <= 1e-12), None)
                if first is not None:
                    reached += 1
                    assert max(dres[first:]) <= 1e-11, (n, domain, seed)
    assert reached >= 40


@pytest.mark.parametrize("n, d", [(3, 10), (2, 16)])
def test_reach_problems_solve_and_round(n, d):
    # two of the reach set's problems (seeds 0-2 of (n, d) = (2, 12), (2, 16),
    # (3, 10), (4, 8), (5, 6) on the ball); n = 2, d = 16 may end loose
    prob = sweep_problem(n, 0, "ball")
    res = solve_moment_relaxation(prob, d, want_certificate=False)
    assert res.status == "Optimal" and res.rounded is not None
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, (256, n))
    pts = pts[np.sum(pts * pts, axis=1) <= 1.0]
    assert res.m_d_star <= min(prob.objective(p) for p in pts) + 1e-6


@pytest.mark.parametrize("domain, seed", [("ball", 0), ("ball", 4), ("ball", 10),
                                          ("box", 4), ("box", 8), ("box", 10)])
def test_pinned_sweep_problems_that_used_to_fail(domain, seed):
    # the benchmark's n=2, d=8 sweep problems that ended non-Optimal before
    # the dual projection
    res = solve_moment_relaxation(sweep_problem(2, seed, domain), 8, want_certificate=False)
    assert res.status == "Optimal"


def test_sos_convex_gram_sdp_stays_short(monkeypatch):
    # 8 iterations as a trace-normalized moment SDP, as many as the phase-I SDP took;
    # with the phase-I bound t >= -1e6 instead of -1 that one took 22
    from momlab.upperbound import is_sos_convex

    sols = _record_solves(monkeypatch)
    z = [Polynomial.variable(i, 3) for i in range(3)]
    convex, _ = is_sos_convex((z[0] + z[1] + z[2]) ** 4)
    assert convex
    assert len(sols) == 1 and sols[0].status == "Optimal"
    assert sols[0].iterations <= 20


@pytest.mark.parametrize("seed", [0, 2])
def test_n3_ball_relaxation_iterations(monkeypatch, seed):
    # the n=3 problems of the relax-large benchmark: without the corrector's
    # second-order term they took 19 and 17 iterations
    sols = _record_solves(monkeypatch)
    res = solve_moment_relaxation(sweep_problem(3, seed, "ball"), 6, want_certificate=False)
    assert res.status == "Optimal" and not res.retried
    assert len(sols) == 1 and sols[0].iterations <= 15


def test_flat_solution_is_rounded_to_polished_atoms(monkeypatch, line_problem):
    sols = _record_solves(monkeypatch)
    ms = build_moment_sdp(line_problem, 4)
    res = hierarchy.solve_moment_sdp(line_problem, ms)
    # the SDP's own atom sits within its tolerance of -1; the polished one at -1
    np.testing.assert_allclose(res.rounded.atoms, [[-1.0]], rtol=0, atol=1e-15)
    assert res.rounded.weights.tolist() == [1.0]
    assert res.pseudo_moments == PseudoMomentSequence(
        1, 4, ms.basis.eval_matrix(res.rounded.atoms)[0], ms.basis)
    # the bounds stay the SDP's
    assert res.m_d_star == sols[0].value + ms.offset
    assert res.f_d_star == sols[0].dual_value + ms.offset


@pytest.mark.parametrize("moved_to", [-1.0 - 1e-6, -0.5], ids=["outside-K", "costlier"])
def test_rounding_refused(monkeypatch, line_problem, moved_to):
    # a polished atom outside K, or one that costs more than m_d, keeps the SDP's moments
    monkeypatch.setattr(hierarchy, "polish_atoms", lambda prob, atoms: np.full_like(atoms, moved_to))
    sols = _record_solves(monkeypatch)
    ms = build_moment_sdp(line_problem, 4)
    res = hierarchy.solve_moment_sdp(line_problem, ms)
    assert res.rounded is None
    np.testing.assert_array_equal(res.pseudo_moments.y, ms.y_particular + ms.nullbasis @ sols[0].x)


def test_scale_invariance_through_normalize():
    x = Polynomial.variable(0, 1)
    prob = SemialgebraicProblem(
        n=1, objective=x, constraints=(4 - x * x,), ball_radius=2.0
    )
    norm = normalize(prob)
    res = solve_moment_relaxation(norm, 2)
    # minimum of x over [-2, 2] seen through the normalized coordinates
    assert res.m_d_star == pytest.approx(-2.0, abs=1e-6)
    cand = norm.scale.to_original(candidate_minimizer(res.pseudo_moments))
    assert cand[0] == pytest.approx(-2.0, abs=1e-4)


def test_membership_tol_exposed():
    assert 0 < MEMBERSHIP_TOL <= 1e-6
