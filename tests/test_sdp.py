import logging

import numpy as np
import pytest
from scipy.optimize import linprog

from momlab.sdp import (
    SdpBlock,
    SdpOptions,
    SdpProblem,
    export_sdpa,
    extract_dual_gram,
    solve,
)


def _lp_as_sdp(c, A_ub, b_ub):
    """Encode an LP (A_ub x <= b_ub) as diagonal 1x1 blocks."""
    blocks = []
    for row, bi in zip(A_ub, b_ub):
        idx = np.nonzero(row)[0]
        mats = np.array([[[-row[i]]] for i in idx])
        blocks.append(SdpBlock(F0=np.array([[bi]]), var_idx=idx, mats=mats))
    return SdpProblem(n_vars=len(c), c=np.asarray(c, float), blocks=blocks)


def test_simple_2x2_bound():
    # min x s.t. [[1, x], [x, 1]] >= 0  ->  x* = -1
    blk = SdpBlock(
        F0=np.eye(2),
        var_idx=np.array([0]),
        mats=np.array([[[0.0, 1.0], [1.0, 0.0]]]),
    )
    sol = solve(SdpProblem(n_vars=1, c=np.array([1.0]), blocks=[blk]))
    assert sol.status == "Optimal"
    assert sol.value == pytest.approx(-1.0, abs=1e-7)
    assert sol.dual_value == pytest.approx(-1.0, abs=1e-7)


def test_constant_block_leaves_value():
    # a block with no variables is a constant PSD constraint; here it is slack
    blk = SdpBlock(
        F0=np.eye(2),
        var_idx=np.array([0]),
        mats=np.array([[[0.0, 1.0], [1.0, 0.0]]]),
    )
    const = SdpBlock(F0=np.eye(3), var_idx=np.array([], dtype=int), mats=np.zeros((0, 3, 3)))
    sol = solve(SdpProblem(n_vars=1, c=np.array([1.0]), blocks=[blk, const]))
    assert sol.status == "Optimal"
    assert sol.value == pytest.approx(-1.0, abs=1e-7)


def _random_sym(rng, *shape):
    A = rng.standard_normal(shape)
    return A + np.swapaxes(A, -1, -2)


def test_block_operator_identities():
    rng = np.random.default_rng(7)
    nv, s = 6, 4
    for m in (0, 1, 3, nv):
        var_idx = np.sort(rng.choice(nv, size=m, replace=False))
        blk = SdpBlock(F0=_random_sym(rng, s, s), var_idx=var_idx, mats=_random_sym(rng, m, s, s))
        x = rng.standard_normal(nv)
        Z = _random_sym(rng, s, s)
        # <apply(x), Z> = x[var_idx] . adjoint(Z)
        assert np.tensordot(blk.apply(x), Z) == pytest.approx(x[var_idx] @ blk.adjoint(Z), abs=1e-12)
        # schur(W_inv)[i, j] = <F_i, W_inv F_j W_inv>
        B = rng.standard_normal((s, s))
        W_inv = B @ B.T + s * np.eye(s)
        expected = np.array(
            [[np.tensordot(Fi, W_inv @ Fj @ W_inv) for Fj in blk.mats] for Fi in blk.mats]
        ).reshape(m, m)
        np.testing.assert_allclose(blk.schur(W_inv), expected, rtol=1e-12, atol=1e-10)


def test_3x3_arrow_sdp_exact_face():
    # min -a - b + c over PSD [[1, a, b], [a, a, c], [b, c, b]];
    # optimum -1.125 at (0.75, 0.75, 0.375) (det = 0 face, see test derivation:
    # with a = b the binding face is c = 2a^2 - a, objective 2a^2 - 3a)
    F0 = np.zeros((3, 3))
    F0[0, 0] = 1.0
    Ea = np.zeros((3, 3)); Ea[0, 1] = Ea[1, 0] = Ea[1, 1] = 1.0
    Eb = np.zeros((3, 3)); Eb[0, 2] = Eb[2, 0] = Eb[2, 2] = 1.0
    Ec = np.zeros((3, 3)); Ec[1, 2] = Ec[2, 1] = 1.0
    blk = SdpBlock(F0=F0, var_idx=np.arange(3), mats=np.array([Ea, Eb, Ec]))
    sol = solve(SdpProblem(n_vars=3, c=np.array([-1.0, -1.0, 1.0]), blocks=[blk]))
    assert sol.status == "Optimal"
    assert sol.value == pytest.approx(-1.125, abs=1e-8)
    # face projection should push the iterate well past sqrt(gap) accuracy
    np.testing.assert_allclose(sol.x, [0.75, 0.75, 0.375], atol=1e-6)


def test_singular_dual_ends_ill_conditioned(monkeypatch):
    # a singular dual block in the corrector ends the solve, it does not raise
    def singular(_):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    blk = SdpBlock(
        F0=np.eye(2),
        var_idx=np.array([0]),
        mats=np.array([[[0.0, 1.0], [1.0, 0.0]]]),
    )
    sol = solve(SdpProblem(n_vars=1, c=np.array([1.0]), blocks=[blk]))
    assert sol.status == "IllConditioned"
    assert sol.iterations == 1


def test_infeasible_detection():
    # x >= 1 and -x >= 0 simultaneously
    blocks = [
        SdpBlock(F0=np.array([[-1.0]]), var_idx=np.array([0]), mats=np.array([[[1.0]]])),
        SdpBlock(F0=np.array([[0.0]]), var_idx=np.array([0]), mats=np.array([[[-1.0]]])),
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
        var_idx=np.array([0]),
        mats=np.array([[[0.0, 1.0], [1.0, 0.0]]]),
    )
    sol = solve(SdpProblem(n_vars=1, c=np.array([1.0]), blocks=[blk]))
    assert sol.value >= sol.dual_value - 1e-7
    assert len(sol.trace) == sol.iterations


def test_iterations_logged_at_debug(caplog):
    blk = SdpBlock(
        F0=np.eye(2),
        var_idx=np.array([0]),
        mats=np.array([[[0.0, 1.0], [1.0, 0.0]]]),
    )
    with caplog.at_level(logging.DEBUG, logger="momlab.sdp"):
        sol = solve(SdpProblem(n_vars=1, c=np.array([1.0]), blocks=[blk]))
    lines = [r.getMessage() for r in caplog.records if r.name == "momlab.sdp"]
    assert len(lines) == sol.iterations
    assert lines[0].startswith("iter   1  pobj")


def test_row_scaling_invariance():
    # scaling a PSD block by a positive constant must not move the optimum
    def problem(scale):
        blk = SdpBlock(
            F0=scale * np.eye(2),
            var_idx=np.array([0]),
            mats=scale * np.array([[[0.0, 1.0], [1.0, 0.0]]]),
        )
        return SdpProblem(n_vars=1, c=np.array([1.0]), blocks=[blk])

    v1 = solve(problem(1.0)).value
    v2 = solve(problem(250.0)).value
    assert v1 == pytest.approx(v2, abs=1e-7)


def test_extract_dual_gram_psd_and_status_guard():
    blk = SdpBlock(
        F0=np.eye(2),
        var_idx=np.array([0]),
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
                SdpBlock(F0=np.array([[-1.0]]), var_idx=np.array([0]), mats=np.array([[[1.0]]])),
                SdpBlock(F0=np.array([[0.0]]), var_idx=np.array([0]), mats=np.array([[[-1.0]]])),
            ],
        )
    )
    with pytest.raises(ValueError, match="non-optimal"):
        extract_dual_gram(bad, 0)


def test_tight_options_still_converge():
    blk = SdpBlock(
        F0=np.eye(2),
        var_idx=np.array([0]),
        mats=np.array([[[0.0, 1.0], [1.0, 0.0]]]),
    )
    sol = solve(
        SdpProblem(n_vars=1, c=np.array([1.0]), blocks=[blk]),
        SdpOptions(gap_tol=1e-10, feas_tol=1e-10),
    )
    assert sol.status == "Optimal"
    assert sol.gap <= 1e-10


def test_export_sdpa_format(tmp_path):
    blk = SdpBlock(
        F0=np.eye(2),
        var_idx=np.array([0]),
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
