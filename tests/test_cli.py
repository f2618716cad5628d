import dataclasses
import json

import numpy as np
import pytest

import momlab.cli
import momlab.hierarchy
from momlab.cli import main
from momlab.cone import PseudoMomentSequence, SemialgebraicProblem
from momlab.poly import Polynomial


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

    def first_fails(problem, opts=None):
        calls.append(opts)
        sol = real(problem, opts)
        return dataclasses.replace(sol, status="MaxIter") if len(calls) == 1 else sol

    assert main(["solve", "--problem", line_json, "--level", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["retried"] is False
    monkeypatch.setattr(momlab.hierarchy, "solve", first_fails)
    assert main(["solve", "--problem", line_json, "--level", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "Optimal"
    assert out["retried"] is True


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
