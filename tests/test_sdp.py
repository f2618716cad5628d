import dataclasses
import functools
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_solve, solve_sylvester, solve_triangular
from scipy.optimize import linprog

import momlab
from momlab import hierarchy, sdp
from momlab.bench import builtin_corpus
from momlab.cone import SemialgebraicProblem
from momlab.hierarchy import build_moment_sdp, compute_d0
from momlab.poly import MonomialBasis, Polynomial
from momlab.sdp import (
    SdpBlock,
    SdpProblem,
    basic_solutions,
    export_sdpa,
    extract_dual_gram,
    solve,
)
from momlab.upperbound import is_sos_convex


def _lp_as_sdp(c, A_ub, b_ub):
    """Encode an LP (A_ub x <= b_ub) as diagonal 1x1 blocks."""
    blocks = []
    for row, bi in zip(A_ub, b_ub):
        blocks.append(SdpBlock(F0=np.array([[bi]]), mats=-np.asarray(row)[:, None, None]))
    return SdpProblem(n_vars=len(c), c=np.asarray(c, float), blocks=blocks)


def _spd(rng, size, cond=None):
    """Random symmetric positive definite matrix, with condition number `cond` if given."""
    Q, _ = np.linalg.qr(rng.standard_normal((size, size)))
    lam = np.geomspace(1.0, cond, size) if cond else rng.uniform(0.5, 2.0, size) * size
    return (Q * lam) @ Q.T


@pytest.mark.parametrize("size", [1, 10, 35])
def test_chol_solve_matches_scipy_bitwise(size):
    rng = np.random.default_rng(size)
    A = _spd(rng, size)
    L = sdp._chol(A)
    assert not np.triu(L, 1).any()
    np.testing.assert_allclose(L @ L.T, A, rtol=0, atol=1e-13 * np.abs(A).max())
    D = rng.standard_normal((size, size))
    # the operand the solver passes (a vector), and matrices in both memory orders
    for B in (D[:, 0].copy(), D, D.T):
        assert (sdp._chol_solve(L, B).tobytes()
                == cho_solve((L, True), B).tobytes())


def test_chol_checks():
    A = np.array([[4.0, 1.0], [1.0, 3.0]])
    L = sdp._chol(A)
    for bad in (np.nan, np.inf):
        A_bad = A.copy()
        A_bad[1, 0] = A_bad[0, 1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            sdp._chol(A_bad)
        with pytest.raises(ValueError, match="infs or NaNs"):
            sdp._chol_solve(L, np.array([1.0, bad]))
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        sdp._chol(np.array([[1.0, 2.0], [2.0, 1.0]]))
    L_sing = L.copy()
    L_sing[1, 1] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        sdp._chol_inv(L_sing)


def _nt_pairs():
    """(S, Z) pairs for the kernel tests: well conditioned, and S with cond 1e8."""
    rng = np.random.default_rng(11)
    for size in (1, 4, 15, 35):
        yield _spd(rng, size), _spd(rng, size)
        yield _spd(rng, size, cond=1e8), _spd(rng, size)


def test_nt_scaling_from_factors():
    for S, Z in _nt_pairs():
        W = np.linalg.inv(sdp._nt_scaling(sdp._chol(S), sdp._chol(Z))[0])
        assert np.linalg.norm(W @ Z @ W - S) <= 1e-12 * np.linalg.norm(S)


def test_nt_scaled_basis():
    # G' S G = G^-1 Z G^-T = D and G G' = W^-1, and the second-order term G C G'
    # has C solving D C + C D = dS~ dZ~ + dZ~ dS~
    rng = np.random.default_rng(13)
    for S, Z in _nt_pairs():
        W_inv, G, G_inv_T, d = sdp._nt_scaling(sdp._chol(S), sdp._chol(Z))
        D = np.diag(d)
        for scaled in (G.T @ S @ G, G_inv_T.T @ Z @ G_inv_T):
            assert np.linalg.norm(scaled - D) <= 1e-12 * np.linalg.norm(D)
        assert np.linalg.norm(G @ G.T - W_inv) <= 1e-12 * np.linalg.norm(W_inv)
        np.testing.assert_allclose(G_inv_T.T @ G, np.eye(len(S)), rtol=0, atol=1e-12)
        dS, dZ = _random_sym(rng, len(S), len(S)), _random_sym(rng, len(S), len(S))
        K = sdp._second_order(G, G_inv_T, d, dS, dZ)
        np.testing.assert_array_equal(K, K.T)
        # C from a Bartels-Stewart solve of D C + C D = dS~ dZ~ + dZ~ dS~
        dS_t, dZ_t = G.T @ dS @ G, G_inv_T.T @ dZ @ G_inv_T
        C = solve_sylvester(D, D, dS_t @ dZ_t + dZ_t @ dS_t)
        assert np.linalg.norm(K - G @ C @ G.T) <= 1e-12 * np.linalg.norm(K)


def _eigvalsh_step(S, dS, frac):
    """The fraction-to-boundary rule by a full eigvalsh of L^-1 dS L^-T (two triangular solves)."""
    L = np.linalg.cholesky(S)
    A = solve_triangular(L, solve_triangular(L, dS, lower=True).T, lower=True)
    lam = np.linalg.eigvalsh(0.5 * (A + A.T))[0]
    return 1.0 if lam >= -1e-14 else min(1.0, -frac / lam)


def test_max_step_matches_eigvalsh():
    # both forms round at about eps * cond(L) relative: at cond(S) = 1e8 the
    # reference itself is up to 6e-10 off the step computed to 50 digits
    rng = np.random.default_rng(12)
    for S, _ in _nt_pairs():
        rel = 1e-12 * max(1.0, np.sqrt(np.linalg.cond(S) / len(S)))
        for scale in (1e-3, 1.0, 1e3):
            dS = scale * _random_sym(rng, len(S), len(S))
            got = sdp._max_step(sdp._chol(S), dS, 0.99)
            assert got == pytest.approx(_eigvalsh_step(S, dS, 0.99), rel=rel)
        # a PSD direction never hits the boundary
        assert sdp._max_step(sdp._chol(S), np.eye(len(S)), 0.99) == 1.0
        bad = np.eye(len(S))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            sdp._max_step(sdp._chol(S), bad, 0.99)


def test_chol_inv_inverts():
    for _, Z in _nt_pairs():
        Zi = sdp._chol_inv(sdp._chol(Z))
        np.testing.assert_array_equal(Zi, Zi.T)
        np.testing.assert_allclose(Zi @ Z, np.eye(len(Z)), atol=1e-12 * np.linalg.cond(Z))


def test_inner_matches_tensordot_bitwise():
    rng = np.random.default_rng(3)
    for size in (1, 10, 35):
        A, B = rng.standard_normal((2, size, size))
        for X, Y in ((A, B), (A.T, B), (A, A)):
            assert sdp._inner(X, Y).hex() == float(np.tensordot(X, Y)).hex()


def test_simple_2x2_bound():
    # min x s.t. [[1, x], [x, 1]] >= 0  ->  x* = -1
    blk = SdpBlock(
        F0=np.eye(2),
        mats=np.array([[[0.0, 1.0], [1.0, 0.0]]]),
    )
    sol = solve(SdpProblem(n_vars=1, c=np.array([1.0]), blocks=[blk]))
    assert sol.status == "Optimal"
    assert sol.value == pytest.approx(-1.0, abs=1e-7)
    assert sol.dual_value == pytest.approx(-1.0, abs=1e-7)


def test_constant_block_leaves_value():
    # a block whose coefficient matrices are all zero is a constant PSD constraint;
    # here it is slack
    blk = SdpBlock(
        F0=np.eye(2),
        mats=np.array([[[0.0, 1.0], [1.0, 0.0]]]),
    )
    const = SdpBlock(F0=np.eye(3), mats=np.zeros((1, 3, 3)))
    sol = solve(SdpProblem(n_vars=1, c=np.array([1.0]), blocks=[blk, const]))
    assert sol.status == "Optimal"
    assert sol.value == pytest.approx(-1.0, abs=1e-7)


def _random_sym(rng, *shape):
    A = rng.standard_normal(shape)
    return A + np.swapaxes(A, -1, -2)


def _check_apply_adjoint(blk, rng, exact):
    """apply and adjoint against the dense products, and <apply(x), Z> = x[var_idx] . adjoint(Z).

    With `exact`, apply(x) and adjoint(Z) must equal x[var_idx] @ flat_mats and
    flat_mats @ Z.ravel() bit for bit, else to 1e-12 relative.
    """
    x = rng.standard_normal(int(blk.var_idx.max(initial=-1)) + 1)
    Z = _random_sym(rng, blk.size, blk.size)
    dense = ((x[blk.var_idx] @ blk.flat_mats).reshape(blk.size, blk.size),
             blk.flat_mats @ Z.ravel())
    for got, want in zip((blk.apply(x), blk.adjoint(Z)), dense):
        if exact:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max(initial=0.0))
    assert np.tensordot(blk.apply(x), Z) == pytest.approx(x[blk.var_idx] @ blk.adjoint(Z),
                                                          rel=1e-12, abs=1e-12)


def test_block_operator_identities():
    rng = np.random.default_rng(7)
    nv, s = 6, 4
    for m in (0, 1, 3, nv):
        # m of the nv variables enter the block; the others have zero matrices
        active = np.sort(rng.choice(nv, size=m, replace=False))
        mats = np.zeros((nv, s, s))
        mats[active] = _random_sym(rng, m, s, s)
        blk = SdpBlock(F0=_random_sym(rng, s, s), mats=mats)
        x = rng.standard_normal(nv)
        Z = _random_sym(rng, s, s)
        # <apply(x), Z> = x . adjoint(Z), and the absent variables get nothing
        assert np.tensordot(blk.apply(x), Z) == pytest.approx(x @ blk.adjoint(Z), abs=1e-12)
        assert not np.delete(blk.adjoint(Z), active).any()
        assert blk.product == "dense"
        _check_apply_adjoint(blk, rng, exact=True)
        # schur(W_inv)[i, j] = <F_i, W_inv F_j W_inv>
        B = rng.standard_normal((s, s))
        W_inv = B @ B.T + s * np.eye(s)
        expected = np.array(
            [[np.tensordot(Fi, W_inv @ Fj @ W_inv) for Fj in blk.mats] for Fi in blk.mats]
        ).reshape(nv, nv)
        np.testing.assert_allclose(blk.schur(W_inv), expected, rtol=1e-12, atol=1e-10)
    # the n=4, d=6 ball blocks (1 224 and 1 124 nonzeros), and a sparse block on
    # every other variable, go over their nonzeros
    for blk in _ball_blocks(4, 6) + (SdpBlock(*_sparse_test_block(rng)),):
        assert blk.product == "nonzero"
        _check_apply_adjoint(blk, rng, exact=False)


def _check_schur_against_reference(blk, seed=0):
    """blk.schur(W_inv) against <F_i, W_inv F_j W_inv> by np.tensordot, for a random SPD W_inv."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((blk.size, blk.size))
    W_inv = B @ B.T + blk.size * np.eye(blk.size)
    expected = np.tensordot(blk.mats, W_inv @ blk.mats @ W_inv, axes=([1, 2], [1, 2]))
    got = blk.schur(W_inv)
    assert got.shape == expected.shape == (len(blk.var_idx),) * 2
    np.testing.assert_allclose(got, expected, rtol=1e-12,
                               atol=1e-12 * np.abs(expected).max(initial=0.0))


def _ball_quartic(n, seed):
    rng = np.random.default_rng(seed)
    f = Polynomial(n, {a: rng.standard_normal() for a in MonomialBasis(n, 4)})
    ball = 1 - sum((Polynomial.variable(i, n) ** 2 for i in range(n)), Polynomial.constant(0.0, n))
    return SemialgebraicProblem(n=n, objective=f, constraints=(ball,))


@functools.cache
def _ball_blocks(n, d):
    """The moment and localizing blocks of the level-d relaxation of `_ball_quartic(n, 0)`."""
    return tuple(build_moment_sdp(_ball_quartic(n, 0), d).problem.blocks)


def test_schur_on_sparse_moment_blocks():
    # Hankel and localizing blocks: each F_i has a handful of nonzeros; apply and
    # adjoint go over them on all but the n=3 localizing block (8 300 entries, 399 nonzeros)
    for n, products in ((3, ("nonzero", "dense")), (4, ("nonzero", "nonzero"))):
        blocks = _ball_blocks(n, 6)
        assert tuple(blk.product for blk in blocks) == products
        for seed, blk in enumerate(blocks):
            assert np.count_nonzero(blk.mats) < 0.1 * blk.mats.size
            assert len(blk.nonzeros[0]) == np.count_nonzero(blk.mats)
            _check_schur_against_reference(blk, seed)
            _check_apply_adjoint(blk, np.random.default_rng(seed), exact=False)


def test_schur_on_dense_equality_eliminated_blocks(corner_problem):
    # binary-corner's equalities are eliminated in basic moment coordinates, so its
    # block is sparse (15 of 48 entries nonzero); through the dense SVD null basis
    # more than half of them were
    (blk,) = build_moment_sdp(corner_problem, 4).problem.blocks
    assert np.count_nonzero(blk.mats) < blk.mats.size / 3
    _check_schur_against_reference(blk)


def test_schur_on_phase1_gram_blocks(monkeypatch):
    problems = []

    def capture(problem):
        problems.append(problem)
        return sdp.solve(problem)

    monkeypatch.setattr(hierarchy, "solve", capture)
    x = Polynomial.variable(0, 1)
    half_ring = SemialgebraicProblem(n=1, objective=x, constraints=(0.5 * (1 - x * x),))
    assert compute_d0(half_ring, 4) == 2
    assert problems
    for seed, blk in enumerate(problems[-1].blocks):
        _check_schur_against_reference(blk, seed)
        _check_apply_adjoint(blk, np.random.default_rng(seed), exact=True)


def test_dense_products_on_small_and_dense_blocks():
    # the builtin n=2 problems at d=8 keep the dense products bit for bit
    blocks = [blk for bp in builtin_corpus() if bp.problem.n == 2
              for blk in build_moment_sdp(bp.problem, 8).problem.blocks]
    assert blocks
    rng = np.random.default_rng(3)
    for blk in blocks:
        assert blk.product == "dense"
        _check_apply_adjoint(blk, rng, exact=True)


def test_nonzero_products_on_the_phase1_gram_block(monkeypatch):
    # the phase-I Gram block of is_sos_convex(x1^6 + x2^6 + x3^2) (230 400 entries)
    # is eliminated in basic Gram entries: 1 032 nonzeros here, 36 742 through the
    # dense SVD null basis, so apply and adjoint go over its nonzeros
    blocks = []

    class Captured(Exception):
        pass

    def capture(problem):
        blocks.extend(problem.blocks)
        raise Captured

    monkeypatch.setattr(hierarchy, "solve", capture)
    x1, x2, x3 = (Polynomial.variable(i, 3) for i in range(3))
    with pytest.raises(Captured):
        is_sos_convex(x1 ** 6 + x2 ** 6 + x3 ** 2)
    gram = max(blocks, key=lambda blk: blk.mats.size)
    assert gram.mats.size == 256 * 30 * 30
    assert len(gram.nonzeros[0]) <= 1100
    assert gram.product == "nonzero"
    _check_apply_adjoint(gram, np.random.default_rng(3), exact=False)


def test_schur_with_an_all_zero_coefficient_matrix():
    # mats[1] = 0 is an empty row of the block's sparse form
    rng = np.random.default_rng(5)
    mats = _random_sym(rng, 3, 4, 4)
    mats[1] = 0.0
    blk = SdpBlock(F0=np.eye(4), mats=mats)
    _check_schur_against_reference(blk)
    B = rng.standard_normal((4, 4))
    M = blk.schur(B @ B.T + np.eye(4))
    assert not M[1].any() and not M[:, 1].any()


def test_schur_of_a_constant_block_is_empty():
    blk = SdpBlock(F0=np.eye(3), mats=np.zeros((0, 3, 3)))
    _check_schur_against_reference(blk)


_NOT_SYM = [[1.0, 2.0], [0.0, 1.0]]


@pytest.mark.parametrize("kwargs, match", [
    pytest.param({"F0": np.eye(2), "mats": np.zeros((2, 2, 2))},
                 "block 0 has 2 coefficient matrices, but n_vars is 1",
                 id="more-mats-than-variables"),
    pytest.param({"F0": np.eye(2), "mats": np.zeros((1, 3, 3))},
                 "mats has shape", id="mats-larger-than-F0"),
    pytest.param({"F0": np.eye(2), "mats": np.zeros(0)},
                 "mats has shape", id="empty-mats-not-3-D"),
    pytest.param({"F0": np.ones(2), "mats": np.zeros((1, 2, 2))},
                 "square matrix", id="F0-not-square"),
    pytest.param({"F0": np.array(_NOT_SYM), "mats": np.eye(2)[None]},
                 "F0 is not symmetric", id="F0-not-symmetric"),
    pytest.param({"F0": np.eye(2), "mats": np.array([np.eye(2), _NOT_SYM])},
                 r"mats\[1\] \(variable 1\) is not symmetric", id="mat-not-symmetric"),
    pytest.param({"F0": np.eye(2), "mats": np.full((1, 2, 2), np.nan)},
                 "non-finite", id="non-finite-mats"),
])
def test_block_rejects_malformed_input(kwargs, match):
    # a block does not know n_vars, so its matrix count is checked when it enters
    # a (here one-variable) problem; every other case fails in SdpBlock itself
    with pytest.raises(ValueError, match=match):
        SdpProblem(n_vars=1, c=np.ones(1), blocks=[SdpBlock(**kwargs)])


def test_problem_rejects_variable_beyond_n_vars():
    # six coefficient matrices: the block refers to variables 0..5
    blk = SdpBlock(F0=np.eye(2), mats=np.zeros((6, 2, 2)))
    with pytest.raises(ValueError, match="block 0 has 6 coefficient matrices, but n_vars is 1"):
        SdpProblem(n_vars=1, c=np.array([1.0]), blocks=[blk])
    SdpProblem(n_vars=6, c=np.ones(6), blocks=[blk])


def test_problem_rejects_wrong_number_of_coefficient_matrices():
    # every block has one coefficient matrix per variable, so too few raise as well
    blk = SdpBlock(F0=np.eye(2), mats=np.zeros((6, 2, 2)))
    with pytest.raises(ValueError, match="block 0 has 6 coefficient matrices, but n_vars is 7"):
        SdpProblem(n_vars=7, c=np.ones(7), blocks=[blk])


def test_problem_rejects_cost_of_wrong_length():
    with pytest.raises(ValueError, match=r"c has shape \(2,\), expected \(3,\)"):
        SdpProblem(n_vars=3, c=np.ones(2), blocks=[])


@pytest.mark.parametrize("c", [0.0, 1.0])
def test_problem_rejects_an_empty_block_list(c):
    # solve used to fail inside its residual measure with "max() arg is an empty sequence"
    with pytest.raises(ValueError, match="SdpProblem blocks is empty"):
        SdpProblem(n_vars=1, c=np.array([c]), blocks=[])


@pytest.mark.parametrize("A", [np.zeros((0, 0)), np.zeros((3, 3)), -np.eye(3),
                               -np.diag([1.0, 2.0, 3.0]) + 1e-3],
                         ids=["0x0", "zero", "minus-identity", "negative-definite"])
def test_psd_split_keeps_nothing_without_a_positive_eigenvalue(A):
    w, U = sdp.psd_split(A, 1e-8)
    assert w.shape == (0,) and U.shape == (len(A), 0)


def test_psd_split_keeps_the_eigenvalues_above_tol_times_the_largest():
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    lam = np.array([-0.5, 0.0, 1e-4, 3e-4, 0.5, 2.0])
    # 1e-4 is below and 3e-4 above the cutoff 1e-4 * 2.0
    w, U = sdp.psd_split((Q * lam) @ Q.T, 1e-4)
    np.testing.assert_allclose(w, lam[3:], rtol=1e-10, atol=1e-14)
    assert U.shape == (6, 3)
    np.testing.assert_allclose(np.abs(U.T @ Q[:, 3:]), np.eye(3), atol=1e-10)
    # the PSD part at tol = 0, the pseudo-inverse of the PSD part
    w0, U0 = sdp.psd_split((Q * lam) @ Q.T, 0.0)
    assert len(w0) == 4
    np.testing.assert_allclose((U0 * w0) @ U0.T, (Q[:, 2:] * lam[2:]) @ Q[:, 2:].T, atol=1e-14)


def test_psd_split_is_the_inline_eigenvalue_rule_bit_for_bit():
    # the rule every consumer applied inline: eigh of the symmetrized matrix,
    # eigenpairs with w > tol * w[-1]
    rng = np.random.default_rng(8)
    for size in (1, 2, 5, 17, 40):
        for rank in sorted({1, size // 2, size}):
            B = rng.standard_normal((size, rank))
            for A in (B @ B.T, rng.standard_normal((size, size)), B @ B.T - 0.1 * np.eye(size)):
                for tol in (0.0, 1e-12, sdp._rank_cutoff(A), 1e-8, 1e-6, 1e-4, 0.5):
                    w_all, U_all = np.linalg.eigh((A + A.T) / 2)
                    keep = w_all > tol * w_all[-1]
                    w, U = sdp.psd_split(A, tol)
                    assert np.array_equal(w, w_all[keep]) and np.array_equal(U, U_all[:, keep])


def _sparse_test_block(rng):
    """(F0, mats) of a 30 x 30 block of 80 variables, with one symmetric pair of
    nonzeros in the coefficient matrix of each odd variable 1, 3, ..., 79."""
    s, m = 30, 40
    mats = np.zeros((2 * m, s, s))
    for k in range(m):
        i, j = rng.choice(s, size=2, replace=False)
        mats[2 * k + 1, i, j] = mats[2 * k + 1, j, i] = rng.standard_normal()
    return np.eye(s), mats


def test_block_arrays_are_read_only_copies():
    rng = np.random.default_rng(11)
    for F0, mats in [(np.eye(2), np.array([[[0.0, 1.0], [1.0, 0.0]]])), _sparse_test_block(rng)]:
        blk = SdpBlock(F0=F0, mats=mats)
        for arr in (blk.F0, blk.var_idx, blk.mats, blk.flat_mats) + blk.nonzeros:
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 7
        # flat_mats is stored once, as a view of mats
        assert blk.flat_mats is blk.flat_mats and np.shares_memory(blk.flat_mats, blk.mats)
        with pytest.raises(dataclasses.FrozenInstanceError):
            blk.mats = np.zeros((1, 2, 2))
        x, Z = rng.standard_normal(len(mats)), _random_sym(rng, blk.size, blk.size)

        def outputs():
            return (blk.F0, blk.var_idx, blk.mats, blk.apply(x), blk.adjoint(Z),
                    blk.schur(Z @ Z + np.eye(blk.size)))

        before = [out.copy() for out in outputs()]
        # the caller's arrays stay writable and are not shared with the block
        mats[0, 0, 0] = mats[0, 0, 1] = mats[0, 1, 0] = 3.0
        F0[1, 1] = 3.0
        for got, want in zip(outputs(), before):
            assert np.array_equal(got, want)
    assert blk.product == "nonzero"


def test_import_leaves_scipy_sparse_unloaded():
    # only building an SdpBlock needs scipy.sparse (the Schur product's CSR form)
    src = str(Path(momlab.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import sys, momlab; print('scipy.sparse' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def _arrow_sdp():
    # min -a - b + c over PSD [[1, a, b], [a, a, c], [b, c, b]];
    # optimum -1.125 at (0.75, 0.75, 0.375) (det = 0 face, see test derivation:
    # with a = b the binding face is c = 2a^2 - a, objective 2a^2 - 3a)
    F0 = np.zeros((3, 3))
    F0[0, 0] = 1.0
    Ea = np.zeros((3, 3)); Ea[0, 1] = Ea[1, 0] = Ea[1, 1] = 1.0
    Eb = np.zeros((3, 3)); Eb[0, 2] = Eb[2, 0] = Eb[2, 2] = 1.0
    Ec = np.zeros((3, 3)); Ec[1, 2] = Ec[2, 1] = 1.0
    blk = SdpBlock(F0=F0, mats=np.array([Ea, Eb, Ec]))
    return SdpProblem(n_vars=3, c=np.array([-1.0, -1.0, 1.0]), blocks=[blk])


def test_3x3_arrow_sdp_exact_face():
    sol = solve(_arrow_sdp())
    assert sol.status == "Optimal"
    assert sol.value == pytest.approx(-1.125, abs=1e-8)
    # face projection should push the iterate well past sqrt(gap) accuracy
    np.testing.assert_allclose(sol.x, [0.75, 0.75, 0.375], atol=1e-6)


def test_singular_dual_ends_ill_conditioned(monkeypatch):
    # a singular dual block in the corrector ends the solve, it does not raise
    def singular(_):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(sdp, "_chol_inv", singular)
    blk = SdpBlock(
        F0=np.eye(2),
        mats=np.array([[[0.0, 1.0], [1.0, 0.0]]]),
    )
    sol = solve(SdpProblem(n_vars=1, c=np.array([1.0]), blocks=[blk]))
    assert sol.status == "IllConditioned"
    assert sol.iterations == 1


def _offdiag_sdp():
    """min x over PSD [[1, x], [x, 1]] (optimum -1)."""
    blk = SdpBlock(F0=np.eye(2), mats=np.array([[[0.0, 1.0], [1.0, 0.0]]]))
    return SdpProblem(n_vars=1, c=np.array([1.0]), blocks=[blk])


def _end_line(caplog):
    """The last momlab.sdp log line, and how many lines the run logged."""
    lines = [r.getMessage() for r in caplog.records if r.name == "momlab.sdp"]
    return lines[-1], len(lines)


def test_schur_past_its_jitter_cap_ends_ill_conditioned(monkeypatch):
    # a Schur matrix that no jitter up to 1e-6 of its scale makes positive definite
    monkeypatch.setattr(SdpBlock, "schur", lambda self, W_inv: -np.eye(len(self.mats)))
    sol = solve(_offdiag_sdp())
    assert sol.status == "IllConditioned"
    assert sol.iterations == 1


def test_schur_factor_jitters_up_to_its_cap():
    # a singular PSD matrix factors with the first jitter, 1e-14 times its mean diagonal
    M = np.full((3, 3), 2.0)
    with pytest.raises(np.linalg.LinAlgError):
        sdp._chol(M)
    np.testing.assert_array_equal(sdp._schur_factor(M), sdp._chol(M + 2e-14 * np.eye(3)))
    with pytest.raises(np.linalg.LinAlgError, match="Schur matrix not positive definite"):
        sdp._schur_factor(-np.eye(3))


def test_failed_nt_scaling_ends_ill_conditioned(monkeypatch, caplog):
    # a LAPACK failure anywhere in the Newton step ends the run; it does not raise
    def no_svd(LS, LZ):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(sdp, "_nt_scaling", no_svd)
    with caplog.at_level(logging.DEBUG, logger="momlab.sdp"):
        sol = solve(_offdiag_sdp())
    assert sol.status == "IllConditioned"
    assert sol.iterations == 1
    assert sol.describe().startswith("status IllConditioned after 1 iterations")
    assert _end_line(caplog)[0] == ("run ended IllConditioned after 1 iterations: "
                                    "LinAlgError in the Newton step: SVD did not converge")


def test_failed_block_cholesky_names_the_block(caplog):
    # min x unbounded below: after 18 iterations (OpenBLAS on a 2-core Xeon, one and
    # two threads) a dual block leaves the positive definite cone in the Newton step
    x = Polynomial.variable(0, 1)
    prob = build_moment_sdp(SemialgebraicProblem(n=1, objective=x), 2).problem
    with caplog.at_level(logging.DEBUG, logger="momlab.sdp"):
        sol = solve(prob)
    assert sol.status == "IllConditioned" and not sol.loose
    assert re.fullmatch(rf"run ended IllConditioned after {sol.iterations} iterations: "
                        r"LinAlgError in the Newton step: [SZ]_\d+: matrix not positive "
                        r"definite: leading minor \d+ fails", _end_line(caplog)[0])
    with pytest.raises(np.linalg.LinAlgError, match=r"^Z_3: matrix not positive definite"):
        sdp._chol(-np.eye(2), "Z_3: ")


def _empty_k_problem():
    """min x on {-1 - x^2 >= 0}: K is empty."""
    x = Polynomial.variable(0, 1)
    return SemialgebraicProblem(n=1, objective=x, constraints=(-1 - x * x,))


@pytest.mark.parametrize("d", [2, 4])
def test_empty_k_ends_infeasible_through_the_stall_counter(caplog, d):
    # three steps in a row shorter than 1e-8 with the primal residual stuck
    # (12 iterations at d = 2 and 23 at d = 4, OpenBLAS on a 2-core Xeon, one and two threads)
    with caplog.at_level(logging.DEBUG, logger="momlab.sdp"):
        sol = solve(build_moment_sdp(_empty_k_problem(), d).problem)
    assert sol.status == "Infeasible" and not sol.loose
    assert sol.iterations < sdp.MAX_ITER
    assert sol.primal_residual > 1e2 * sdp.TOL
    assert "stall counter" in _end_line(caplog)[0]
    with pytest.raises(hierarchy.MomentSdpError, match=f"level {d}: .*status Infeasible"):
        hierarchy.solve_moment_relaxation(_empty_k_problem(), d)


def test_non_optimal_end_logs_the_test_that_fired(caplog, monkeypatch):
    # one DEBUG line after the iteration lines, only when the run does not end
    # Optimal at TOL; test_iterations_logged_at_debug covers an Optimal run
    prob = build_moment_sdp(_empty_k_problem(), 2).problem
    with caplog.at_level(logging.DEBUG, logger="momlab.sdp"):
        sol = solve(prob)
    line, count = _end_line(caplog)
    assert count == len(prob.blocks) + sol.iterations + 1
    assert line == (f"run ended Infeasible after {sol.iterations} iterations: stall counter: "
                    f"3 steps with max(ap, ad) < 1e-8, pres {sol.primal_residual:.2e}")
    # a run that accepts its first iterate within LOOSE_TOL says so
    monkeypatch.setattr(sdp, "TOL", 0.0)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="momlab.sdp"):
        sol = solve(_line_sdp())
    line, count = _end_line(caplog)
    assert sol.loose and count == 2 + sol.iterations + 1
    assert line.startswith("run ended ") and line.endswith(
        "; accepted its first iterate within LOOSE_TOL")


def test_direction_solves_the_newton_system():
    # a random SDP at an interior, infeasible point: dS = sym(Rp + A(dx)),
    # A*(dZ) = rd, and dZ = sym(W^-1 (Rc - dS) W^-1) - K up to the dual correction
    rng = np.random.default_rng(3)
    nv, sizes = 5, (4, 3)
    blocks = [SdpBlock(F0=_random_sym(rng, s, s), mats=_random_sym(rng, nv, s, s)) for s in sizes]
    prob = SdpProblem(n_vars=nv, c=rng.standard_normal(nv), blocks=blocks)
    pt = sdp._Iterate.measure(prob, rng.standard_normal(nv), [_spd(rng, s) for s in sizes],
                              [_spd(rng, s) for s in sizes])
    LS = [sdp._chol(Sj) for Sj in pt.S]
    LZ = [sdp._chol(Zj) for Zj in pt.Z]
    nt = [sdp._nt_scaling(a, b) for a, b in zip(LS, LZ)]
    W_inv = [ntj[0] for ntj in nt]
    Lm = sdp._schur_factor(prob.schur(W_inv))
    AA = prob.schur([np.eye(s) for s in sizes])
    w, U = sdp.psd_split(AA, sdp._rank_cutoff(AA))
    AA_pinv = (U / w) @ U.T
    dx, dS, dZ = sdp._direction(prob, pt, W_inv, Lm, AA_pinv, [-Sj for Sj in pt.S], [0.0, 0.0])
    K = [sdp._second_order(G, G_inv_T, d, a, b) for (_, G, G_inv_T, d), a, b in zip(nt, dS, dZ)]
    Rc = [0.3 * pt.mu * np.linalg.inv(Zj) - Sj for Zj, Sj in zip(pt.Z, pt.S)]
    for Rc, K in (([-Sj for Sj in pt.S], [0.0, 0.0]), (Rc, K)):
        dx, dS, dZ = sdp._direction(prob, pt, W_inv, Lm, AA_pinv, Rc, K)
        for blk, Rpj, dSj in zip(blocks, pt.Rp, dS):
            np.testing.assert_allclose(dSj, 0.5 * (Rpj + Rpj.T) + blk.apply(dx),
                                       rtol=0, atol=1e-14 * np.abs(dSj).max())
        A_dZ = sum(np.tensordot(blk.mats, dZj) for blk, dZj in zip(blocks, dZ))
        assert np.linalg.norm(A_dZ - pt.rd) <= 1e-12 * np.linalg.norm(pt.rd)
        for Wj_inv, Rcj, dSj, Kj, dZj in zip(W_inv, Rc, dS, K, dZ):
            newton = Wj_inv @ (Rcj - dSj) @ Wj_inv
            np.testing.assert_allclose(dZj, 0.5 * (newton + newton.T) - Kj,
                                       rtol=0, atol=1e-10 * np.abs(dZj).max())


def test_infeasible_detection():
    # x >= 1 and -x >= 0 simultaneously
    blocks = [
        SdpBlock(F0=np.array([[-1.0]]), mats=np.array([[[1.0]]])),
        SdpBlock(F0=np.array([[0.0]]), mats=np.array([[[-1.0]]])),
    ]
    sol = solve(SdpProblem(n_vars=1, c=np.array([1.0]), blocks=blocks))
    assert sol.status == "Infeasible"


def test_lp_cross_check_against_highs():
    rng = np.random.default_rng(42)
    for trial in range(15):
        m, n = 6, 3
        A = rng.uniform(-1, 1, (m, n))
        # keep the LP bounded: add box rows x_i <= 2, -x_i <= 2
        A = np.vstack([A, np.eye(n), -np.eye(n)])
        b = np.concatenate([rng.uniform(0.5, 2.0, m), np.full(2 * n, 2.0)])
        c = rng.uniform(-1, 1, n)
        ref = linprog(c, A_ub=A, b_ub=b, bounds=[(None, None)] * n, method="highs")
        assert ref.success
        sol = solve(_lp_as_sdp(c, A, b))
        assert sol.status == "Optimal", f"trial {trial}"
        assert sol.value == pytest.approx(ref.fun, abs=1e-6)


def test_weak_duality_along_solution():
    blk = SdpBlock(
        F0=np.eye(2),
        mats=np.array([[[0.0, 1.0], [1.0, 0.0]]]),
    )
    sol = solve(SdpProblem(n_vars=1, c=np.array([1.0]), blocks=[blk]))
    assert sol.value >= sol.dual_value - 1e-7
    assert len(sol.trace) == sol.iterations


def test_iterations_logged_at_debug(caplog):
    blk = SdpBlock(
        F0=np.eye(2),
        mats=np.array([[[0.0, 1.0], [1.0, 0.0]]]),
    )
    with caplog.at_level(logging.DEBUG, logger="momlab.sdp"):
        sol = solve(SdpProblem(n_vars=1, c=np.array([1.0]), blocks=[blk]))
    lines = [r.getMessage() for r in caplog.records if r.name == "momlab.sdp"]
    # one line per block, once per solve, then one per iteration
    assert lines[0] == "block 0: s 2, m 1, 2 nonzeros, dense apply and adjoint"
    assert len(lines) == 1 + sol.iterations
    assert lines[1].startswith("iter   1  pobj")


def test_row_scaling_invariance():
    # scaling a PSD block by a positive constant must not move the optimum
    def problem(scale):
        blk = SdpBlock(
            F0=scale * np.eye(2),
                mats=scale * np.array([[[0.0, 1.0], [1.0, 0.0]]]),
        )
        return SdpProblem(n_vars=1, c=np.array([1.0]), blocks=[blk])

    v1 = solve(problem(1.0)).value
    v2 = solve(problem(250.0)).value
    assert v1 == pytest.approx(v2, abs=1e-7)


def test_extract_dual_gram_psd_and_status_guard():
    blk = SdpBlock(
        F0=np.eye(2),
        mats=np.array([[[0.0, 1.0], [1.0, 0.0]]]),
    )
    sol = solve(SdpProblem(n_vars=1, c=np.array([1.0]), blocks=[blk]))
    G = extract_dual_gram(sol, 0)
    assert np.min(np.linalg.eigvalsh(G)) >= 0.0
    np.testing.assert_allclose(G, G.T)
    bad = solve(
        SdpProblem(
            n_vars=1,
            c=np.array([1.0]),
            blocks=[
                SdpBlock(F0=np.array([[-1.0]]), mats=np.array([[[1.0]]])),
                SdpBlock(F0=np.array([[0.0]]), mats=np.array([[[-1.0]]])),
            ],
        )
    )
    with pytest.raises(ValueError, match="non-optimal"):
        extract_dual_gram(bad, 0)


def _line_sdp():
    """Level-2 moment SDP of min x on [-1, 1] (optimum -1)."""
    x = Polynomial.variable(0, 1)
    return build_moment_sdp(SemialgebraicProblem(n=1, objective=x, constraints=(1 - x * x,)),
                            2).problem


def test_loose_acceptance_keeps_first_iterate_within_loose_tol(monkeypatch):
    # an interior iterate of this SDP has a positive gap, so TOL = 0 is never met
    monkeypatch.setattr(sdp, "TOL", 0.0)
    prob = _line_sdp()
    dim = sum(blk.size for blk in prob.blocks)
    sol = solve(prob)
    assert sol.status == "Optimal" and sol.loose
    assert len(sol.trace) == sol.iterations
    within = [k for k, (pobj, dobj, pres, dres, mu) in enumerate(sol.trace)
              if max(pres, dres, dim * mu / (1 + abs(pobj) + abs(dobj))) <= sdp.LOOSE_TOL]
    # the run went on past the accepted iterate, whose dual is returned as is
    assert within and within[0] < sol.iterations - 1
    assert sol.dual_value == sol.trace[within[0]][1]
    assert max(sol.primal_residual, sol.dual_residual, sol.gap) <= sdp.LOOSE_TOL
    assert sol.value == pytest.approx(-1.0, abs=1e-6)


def _disc_sdp():
    """Level-8 moment SDP of a dense quartic (seed 1) on the unit disc."""
    rng = np.random.default_rng(1)
    f = Polynomial(2, {a: rng.standard_normal() for a in MonomialBasis(2, 4)})
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    disc = SemialgebraicProblem(n=2, objective=f, constraints=(1 - x1 * x1 - x2 * x2,))
    return build_moment_sdp(disc, 8).problem


def test_disc_solve_ends_optimal_with_exact_dual_feasibility():
    # this solve used to stall with the dual residual stuck near 1e-7; every
    # search direction now keeps A*(Z) = c - rd, so the run meets TOL outright
    prob = _disc_sdp()
    sol = solve(prob)
    assert sol.status == "Optimal" and not sol.loose
    A_Z = np.zeros(prob.n_vars)
    for blk, Zj in zip(prob.blocks, sol.block_duals):
        for k, Fk in zip(blk.var_idx, blk.mats):
            A_Z[k] += np.tensordot(Fk, Zj)
    assert np.linalg.norm(prob.c - A_Z) / (1.0 + np.linalg.norm(prob.c)) <= 1e-12
    assert max(sol.primal_residual, sol.dual_residual, sol.gap) <= sdp.TOL


def test_variable_in_no_block():
    # variable 1 appears in no block, so AA* is singular; its pseudo-inverse
    # leaves that variable out of the dual correction
    blk = SdpBlock(F0=np.eye(2), mats=np.array([[[0.0, 1.0], [1.0, 0.0]], np.zeros((2, 2))]))
    sol = solve(SdpProblem(n_vars=2, c=np.array([1.0, 0.0]), blocks=[blk]))
    assert sol.status == "Optimal"
    assert sol.value == pytest.approx(-1.0, abs=1e-7)
    # a cost on the free variable makes the SDP unbounded: no Optimal, no exception
    sol = solve(SdpProblem(n_vars=2, c=np.array([1.0, 1.0]), blocks=[blk]))
    assert sol.status != "Optimal"


def test_export_sdpa_format(tmp_path):
    blk = SdpBlock(
        F0=np.eye(2),
        mats=np.array([[[0.0, 1.0], [1.0, 0.0]]]),
    )
    prob = SdpProblem(n_vars=1, c=np.array([1.0]), blocks=[blk])
    path = tmp_path / "prob.dat-s"
    export_sdpa(prob, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "1 = mDIM"
    assert lines[1] == "1 = nBLOCK"
    assert lines[2] == "2 = bLOCKsTRUCT"
    assert lines[3] == "1.0"
    # entry lines are "<var> <block> <i> <j> <value>" with parseable floats
    for ln in lines[4:]:
        parts = ln.split()
        assert len(parts) == 5
        int(parts[0]); int(parts[1]); int(parts[2]); int(parts[3])
        float(parts[4])
    # F0 is written negated under the SDPA sign convention
    assert "0 1 1 1 -1.0" in lines


def test_export_sdpa_round_trips_a_moment_sdp(tmp_path):
    # the binary corner with an inequality added: dense equality-eliminated
    # coefficient matrices in a moment block and a localizing block
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    prob = SemialgebraicProblem(n=2, objective=-x1 - x2 + x1 * x2,
                                constraints=(2 - x1 * x1 - x2 * x2,),
                                equalities=(x1 - x1 * x1, x2 - x2 * x2))
    sp = build_moment_sdp(prob, 4).problem
    assert len(sp.blocks) == 2
    path = tmp_path / "moment.dat-s"
    export_sdpa(sp, path)
    lines = path.read_text().splitlines()
    m, nblock = int(lines[0].split()[0]), int(lines[1].split()[0])
    sizes = [int(t) for t in lines[2].split()[:-2]]
    assert (m, nblock, sizes) == (sp.n_vars, len(sp.blocks), [b.size for b in sp.blocks])
    assert [float(t) for t in lines[3].split()] == list(sp.c)
    # F[k][b]: SDPA's F_k of block b (k = 0 the negated constant), upper triangle mirrored
    F = np.zeros((m + 1, nblock) + (max(sizes),) * 2)
    for ln in lines[4:]:
        k, b, i, j, v = ln.split()
        k, b, i, j = int(k), int(b) - 1, int(i) - 1, int(j) - 1
        assert i <= j and F[k, b, i, j] == 0.0
        F[k, b, i, j] = F[k, b, j, i] = float(v)
    for b, blk in enumerate(sp.blocks):
        s_b = blk.size
        assert np.array_equal(F[0, b, :s_b, :s_b], -blk.F0)
        want = np.zeros((m, s_b, s_b))
        want[blk.var_idx] = blk.mats
        assert np.array_equal(F[1:, b, :s_b, :s_b], want)
        assert not F[:, b, s_b:].any() and not F[:, b, :, s_b:].any()


def _face_projection_reference(problem, x, Z):
    """x_p + N N'(x - x_p), N an orthonormal null basis of the face equations from one SVD.

    The face equations are taken one eigenvector at a time, and x_p is their
    minimum-norm solution.
    """
    rows, rhs = [], []
    for blk, Zj in zip(problem.blocks, Z):
        w, U = np.linalg.eigh((Zj + Zj.T) / 2)
        if w[-1] <= 1e-7:
            continue
        for v in U[:, w > 1e-4 * w[-1]].T:
            E = np.zeros((blk.size, problem.n_vars))
            E[:, blk.var_idx] = (blk.mats @ v).T
            rows.append(E)
            rhs.append(-blk.F0 @ v)
    E, h = np.vstack(rows), np.concatenate(rhs)
    u, s, vt = np.linalg.svd(E, full_matrices=E.shape[0] < E.shape[1])
    r = sdp.sv_rank(s, sdp._rank_cutoff(E))
    x_p = vt[:r].T @ ((u[:, :r].T @ h) / s[:r])
    N = vt[r:].T
    return x_p + N @ (N.T @ (x - x_p))


def _refinements(monkeypatch, run):
    """(problem, x, Z, refined) of every `_refine_primal` call that `run()` makes."""
    calls, refine = [], sdp._refine_primal

    def wrapped(problem, x, Z, *args):
        out = refine(problem, x, Z, *args)
        calls.append((problem, x, Z, out))
        return out

    monkeypatch.setattr(sdp, "_refine_primal", wrapped)
    run()
    return calls


def _corpus_problem(name):
    return next(bp.problem for bp in momlab.builtin_corpus() if bp.id == name)


def _solve_moment_sdp(name, d):
    return solve(build_moment_sdp(_corpus_problem(name), d).problem)


# runs whose one `_refine_primal` call is on a face the projection is accepted on
_ACCEPTED_FACES = {
    "arrow": lambda: solve(_arrow_sdp()),
    "binary-corner level 2": lambda: _solve_moment_sdp("binary-corner", 2),
    "two-well level 4": lambda: _solve_moment_sdp("two-well", 4),
    "line-min phase-I Gram": lambda: compute_d0(_corpus_problem("line-min"), 2),
}


@pytest.mark.parametrize("case", list(_ACCEPTED_FACES))
def test_face_projection_matches_svd_reference(monkeypatch, case):
    # the least-squares step lands on the point the SVD null basis gives
    calls = _refinements(monkeypatch, _ACCEPTED_FACES[case])
    assert len(calls) == 1
    problem, x, Z, out = calls[0]
    assert out is not x
    np.testing.assert_allclose(out, _face_projection_reference(problem, x, Z), rtol=0, atol=1e-12)


def test_face_projection_rejected_returns_the_iterate(monkeypatch):
    # the line-min level-4 face fails the acceptance checks: the iterate comes back
    calls = _refinements(monkeypatch, lambda: _solve_moment_sdp("line-min", 4))
    assert len(calls) == 1
    _, x, _, out = calls[0]
    assert out is x


def _affine_cases():
    """Tall, wide, rank-deficient (rank 2), zero and no-row matrices."""
    rng = np.random.default_rng(3)
    return {
        "tall": rng.standard_normal((7, 3)),
        "wide": rng.standard_normal((3, 7)),
        "rank-deficient": rng.standard_normal((4, 2)) @ rng.standard_normal((2, 6)),
        "zero": np.zeros((4, 3)),
        "no-rows": np.zeros((0, 4)),
    }


def _pivots_reference(E):
    """Columns, scanned from the last, that raise the rank of the columns after them."""
    pivots, rank = np.zeros(E.shape[1], dtype=bool), 0
    for j in range(E.shape[1] - 1, -1, -1):
        r = np.linalg.matrix_rank(E[:, j:], tol=1e-9) if E.size else 0
        pivots[j], rank = r > rank, r
    return pivots


def _basic_cases():
    """`_affine_cases`, duplicate columns, and the relation rows of the circle at degree 6."""
    cases = _affine_cases()
    rng = np.random.default_rng(5)
    cases["repeated-columns"] = rng.standard_normal((3, 4))[:, [0, 1, 1, 2, 0, 3, 3]]
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    circle = SemialgebraicProblem(n=2, objective=x1, equalities=(x1 * x1 + x2 * x2 - 1,))
    cases["circle"] = np.array(hierarchy._relation_rows(circle, MonomialBasis(2, 6))[0])
    return cases


@pytest.mark.parametrize("case", list(_basic_cases()))
def test_basic_solutions_parametrize_the_solution_set(case):
    E = _basic_cases()[case]
    rows, cols = E.shape
    rng = np.random.default_rng(6)
    h = E @ rng.standard_normal(cols)
    x_p, N, pivots, residual = basic_solutions(E, h)
    np.testing.assert_array_equal(pivots, _pivots_reference(E))
    basic = ~pivots
    assert N.shape == (cols, np.count_nonzero(basic))
    np.testing.assert_array_equal(N[basic], np.eye(N.shape[1]))
    np.testing.assert_array_equal(x_p[basic], 0.0)
    np.testing.assert_allclose(E @ N, 0.0, atol=1e-12)
    z = rng.standard_normal(N.shape[1])
    np.testing.assert_allclose(E @ (x_p + N @ z), h, atol=1e-12)
    assert residual <= 1e-12
    if case == "circle":
        # integer relations, unit pivots: the elimination is exact
        np.testing.assert_array_equal(N, np.round(N))

    rank = np.count_nonzero(pivots)
    if rows == rank:
        return
    # an h at distance 1 from the range of E: no x comes closer
    u, _, _ = np.linalg.svd(E)
    w = u[:, rank:] @ rng.standard_normal(rows - rank)
    assert basic_solutions(E, h + w / np.linalg.norm(w))[3] >= 1.0 - 1e-12


def test_basic_solutions_keep_small_pinned_values():
    # x_1 = 1e-13 x_0 beside x_0 = 1: a real entry twelve orders below the
    # largest one is part of x_p, not round-off
    E = np.array([[1.0, 0.0], [-1e-13, 1.0]])
    x_p, N, pivots, residual = basic_solutions(E, np.array([1.0, 0.0]))
    np.testing.assert_array_equal(x_p, [1.0, 1e-13])
    assert N.shape == (2, 0) and pivots.all() and residual == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_problem_rejects_non_finite_cost(bad):
    blk = SdpBlock(F0=np.eye(2), mats=np.array([np.eye(2), np.eye(2)]))
    with pytest.raises(ValueError, match="c has non-finite entries"):
        SdpProblem(n_vars=2, c=np.array([1.0, bad]), blocks=[blk])
