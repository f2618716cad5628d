import json

import numpy as np
import pytest

import momlab.cli
import momlab.hierarchy
import momlab.sdp
from momlab.cli import main
from momlab.cone import PseudoMomentSequence, SemialgebraicProblem, normalize
from momlab.poly import Polynomial
from momlab.upperbound import ReferenceMeasure, solve_upper_bound


@pytest.fixture()
def line_json(tmp_path, line_problem):
    path = tmp_path / "line.json"
    line_problem.save(path)
    return str(path)


@pytest.fixture()
def corner_json(tmp_path, corner_problem):
    path = tmp_path / "corner.json"
    corner_problem.save(path)
    return str(path)


def test_solve_reports_bounds(capsys, line_json):
    assert main(["solve", "--problem", line_json, "--level", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["level"] == 2
    assert out["m_d_star"] == pytest.approx(-1.0, abs=1e-6)
    assert out["f_d_star"] <= out["m_d_star"] + 1e-7
    assert out["status"] == "Optimal"
    assert out["certificate_residual"] <= 1e-6
    assert "certificate" not in out


def test_solve_reports_retry(capsys, line_json, monkeypatch):
    real, calls = momlab.hierarchy.solve, []
    monkeypatch.setattr(momlab.hierarchy, "solve", lambda p: calls.append(1) or real(p))
    assert main(["solve", "--problem", line_json, "--level", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["retried"] is False
    # with the 1e-8 tier out of reach the run's first iterate within 1e-7 is accepted
    monkeypatch.setattr(momlab.sdp, "TOL", 0.0)
    assert main(["solve", "--problem", line_json, "--level", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "Optimal"
    assert out["retried"] is True
    assert len(calls) == 2


def test_solve_reports_iterations(capsys, line_json, monkeypatch):
    real, sols = momlab.hierarchy.solve, []
    monkeypatch.setattr(momlab.hierarchy, "solve", lambda p: sols.append(real(p)) or sols[-1])
    assert main(["solve", "--problem", line_json, "--level", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(sols) == 1
    assert out["iterations"] == sols[0].iterations > 0


def test_solve_with_certificate_and_sdpa(capsys, tmp_path, line_json, monkeypatch):
    sdpa = tmp_path / "line.dat-s"
    builds = []
    build = momlab.hierarchy.build_moment_sdp

    def counting_build(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(momlab.cli, "build_moment_sdp", counting_build)
    monkeypatch.setattr(momlab.hierarchy, "build_moment_sdp", counting_build)
    assert (
        main(
            [
                "solve",
                "--problem",
                line_json,
                "--level",
                "2",
                "--sos",
                "--export-sdpa",
                str(sdpa),
            ]
        )
        == 0
    )
    out = json.loads(capsys.readouterr().out)
    assert "grams" in out["certificate"]
    G0 = np.array(out["certificate"]["grams"][0])
    assert np.min(np.linalg.eigvalsh(G0)) >= -1e-8
    text = sdpa.read_text()
    assert "= mDIM" in text and "= bLOCKsTRUCT" in text
    assert len(builds) == 1


def test_extract_subcommand(capsys, corner_json):
    assert main(["extract", "--problem", corner_json, "--level", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["flatness"]["is_flat"]
    atoms = {tuple(np.round(a, 4)) for a in out["atoms"]}
    assert atoms == {(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)}
    assert all(abs(v + 1.0) <= 1e-5 for v in out["atom_f_values"])
    assert all(out["atom_in_K"])


def test_extract_reports_original_coordinates(capsys, tmp_path):
    # min (x - 1)^2 on [-2, 2]: x* = 1, which is u* = 1/2 after normalization by R = 2
    x = Polynomial.variable(0, 1)
    prob = SemialgebraicProblem(n=1, objective=(x - 1) ** 2, constraints=(4 - x * x,),
                                ball_radius=2.0)
    path = tmp_path / "normalized.json"
    normalize(prob).save(path)
    assert main(["extract", "--problem", str(path), "--level", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["candidate_minimizer"] == pytest.approx([1.0], abs=1e-4)
    assert out["candidate_in_K"]
    assert out["flatness"]["is_flat"]
    assert np.array(out["atoms"]) == pytest.approx(np.array([[1.0]]), abs=1e-4)
    assert out["atom_f_values"] == pytest.approx([0.0], abs=1e-6)


def test_solve_reports_pseudo_moments_in_original_coordinates(capsys, tmp_path):
    # min (x - 1)^2 on [-2, 2]: L(x) -> x* = 1, not the normalized u* = 1/2
    x = Polynomial.variable(0, 1)
    prob = SemialgebraicProblem(n=1, objective=(x - 1) ** 2, constraints=(4 - x * x,),
                                ball_radius=2.0)
    path = tmp_path / "normalized.json"
    normalize(prob).save(path)
    assert main(["solve", "--problem", str(path), "--level", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    y = PseudoMomentSequence.from_json_dict(out["pseudo_moments"])
    assert y.value((1,)) == pytest.approx(1.0, abs=1e-3)
    assert y.value((2,)) == pytest.approx(1.0, abs=1e-3)
    assert out["scale"] == {"center": [0.0], "radius": [2.0]}


def test_upper_subcommand(capsys, line_json):
    assert (
        main(["upper", "--problem", line_json, "--measure", "box", "--levels", "0:2:4"])
        == 0
    )
    out = json.loads(capsys.readouterr().out)
    assert [e["level"] for e in out] == [0, 2, 4]
    assert out[1]["u_d_star"] == pytest.approx(-1 / np.sqrt(3), abs=1e-8)
    vals = [e["u_d_star"] for e in out]
    assert all(hi <= lo + 1e-10 for lo, hi in zip(vals, vals[1:]))
    assert out[0]["feasible"]


def test_upper_reports_x_check_in_original_coordinates(capsys, tmp_path):
    # min (x - 1)^2 on [-2, 2]: x_check approaches x* = 1, not the normalized u* = 1/2
    x = Polynomial.variable(0, 1)
    prob = normalize(SemialgebraicProblem(n=1, objective=(x - 1) ** 2,
                                          constraints=(4 - x * x,), ball_radius=2.0))
    path = tmp_path / "normalized.json"
    prob.save(path)
    assert main(["upper", "--problem", str(path), "--measure", "box", "--levels", "8"]) == 0
    (out,) = json.loads(capsys.readouterr().out)
    u_check = solve_upper_bound(prob.objective, ReferenceMeasure.box(1), 8).x_check
    assert out["x_check"] == pytest.approx(2.0 * u_check, rel=1e-12)
    assert out["x_check"] == pytest.approx([1.0], abs=0.1)
    assert out["scale"] == {"center": [0.0], "radius": [2.0]}


@pytest.mark.parametrize("spec", ["8:2", "0:0:4", "0:-2:4", "-2:4", "a:b", "1.5", "", "1:2:3:4"])
def test_upper_rejects_bad_levels(capsys, line_json, spec):
    with pytest.raises(SystemExit) as exc:
        main(["upper", "--problem", line_json, f"--levels={spec}"])
    assert exc.value.code == 2
    assert "argument --levels" in capsys.readouterr().err


def test_upper_level_forms(capsys, line_json):
    for spec, levels in [("2", [2]), ("1:3", [1, 2, 3]), ("0:4:10", [0, 4, 8])]:
        assert main(["upper", "--problem", line_json, "--levels", spec]) == 0
        assert [e["level"] for e in json.loads(capsys.readouterr().out)] == levels


@pytest.fixture()
def moments_json(tmp_path):
    y = PseudoMomentSequence.from_atoms([[-1.0], [1.0]], [0.5, 0.5], 8)
    path = tmp_path / "moments.json"
    path.write_text(json.dumps(y.to_json_dict()))
    return str(path)


def test_support_cd_csv(capsys, moments_json):
    assert (
        main(
            [
                "support",
                "--moments",
                moments_json,
                "--method",
                "cd",
                "--degree",
                "2",
                "--res",
                "5",
                "--threshold",
                "10",
            ]
        )
        == 0
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x1,value,included"
    assert len(lines) == 6
    rows = [ln.split(",") for ln in lines[1:]]
    included = {float(r[0]) for r in rows if r[2] == "1"}
    assert {-1.0, 1.0} <= included  # the atoms always survive


def test_support_power_csv(capsys, moments_json):
    assert (
        main(
            [
                "support",
                "--moments",
                moments_json,
                "--method",
                "power",
                "--degree",
                "2",
                "--res",
                "5",
            ]
        )
        == 0
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x1,value,included"
    margins = {float(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}
    assert margins[1.0] >= -1e-9
    assert margins[0.0] >= -1e-9  # 0 is inside the outer approximation


@pytest.mark.parametrize("flag, spec", [
    ("--box", "abc"), ("--box", "1:-1"), ("--box", "1:1"), ("--box", "0:nan"), ("--box", "0:1:2"),
    ("--res", "-3"), ("--res", "0"), ("--res", "2.5"), ("--degree", "-1"), ("--degree", "two"),
])
def test_support_rejects_bad_arguments(capsys, moments_json, flag, spec):
    with pytest.raises(SystemExit) as exc:
        main(["support", "--moments", moments_json, "--degree", "2", f"{flag}={spec}"])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


def test_support_box_bounds_the_grid(capsys, moments_json):
    assert main(["support", "--moments", moments_json, "--degree", "2", "--res", "3",
                 "--box=-2:0.5"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [-2.0, -0.75, 0.5]


def test_bench_subcommand(capsys, tmp_path, line_json):
    x = Polynomial.variable(0, 1)
    corpus = [
        {
            "id": "tiny",
            "problem": SemialgebraicProblem(
                n=1, objective=x, constraints=(1 - x * x,)
            ).to_json_dict(),
            "d_min": 2,
            "d_max": 3,
            "upper_levels": [0, 2],
            "measure": "box",
            "unique_minimizer": True,
        }
    ]
    corpus_path = tmp_path / "corpus.json"
    corpus_path.write_text(json.dumps(corpus))
    out_dir = tmp_path / "report"
    assert (
        main(["bench", "--corpus", str(corpus_path), "--out", str(out_dir)]) == 0
    )
    assert "1 problems" in capsys.readouterr().out
    csv_text = (out_dir / "report.csv").read_text()
    assert "tiny,2," in csv_text
    assert (out_dir / "summary.md").read_text().startswith("# Benchmark summary")


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
