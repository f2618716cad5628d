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


def test_solve_reports_rounded_atoms(capsys, tmp_path):
    # min (x - 1)^2 over [-2, 2], saved normalized: the atom is reported at x* = 1
    x = Polynomial.variable(0, 1)
    path = tmp_path / "normalized.json"
    normalize(SemialgebraicProblem(n=1, objective=(x - 1) ** 2, constraints=(4 - x * x,),
                                   ball_radius=2.0)).save(path)
    assert main(["solve", "--problem", str(path), "--level", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rounded"]["weights"] == [1.0]
    assert out["rounded"]["atoms"][0][0] == pytest.approx(1.0, abs=1e-14)
    assert out["pseudo_moments"]["values"][1] == {"alpha": [1], "y": out["rounded"]["atoms"][0][0]}
    assert main(["solve", "--problem", str(path), "--level", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["rounded"] is None


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


def test_extract_reports_the_atoms_solve_rounds(capsys, tmp_path, line_json):
    # one flatness verdict: extract's atoms and weights are solve's `rounded`, bit for bit
    x = Polynomial.variable(0, 1)
    normalized = tmp_path / "normalized.json"
    normalize(SemialgebraicProblem(n=1, objective=(x - 1) ** 2, constraints=(4 - x * x,),
                                   ball_radius=2.0)).save(normalized)
    runs = [(line_json, d) for d in range(2, 7)] + [(str(normalized), d) for d in (2, 4)]
    for path, level in runs:
        outs = []
        for command in ("solve", "extract"):
            assert main([command, "--problem", path, "--level", str(level)]) == 0
            outs.append(json.loads(capsys.readouterr().out))
        rounded, extracted = outs[0]["rounded"], outs[1]
        if level == 2:
            # order 1 lies below the flatness step 2: no check, no rounding, no atoms
            assert rounded is None and extracted["flatness"] is None, path
            assert "atoms" not in extracted and "weights" not in extracted, path
        else:
            assert extracted["atoms"] == rounded["atoms"], (path, level)
            assert extracted["weights"] == rounded["weights"], (path, level)
            assert extracted["flatness"]["is_flat"], (path, level)


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


@pytest.mark.parametrize("command", [
    "support --method power --degree 0", "support --method power --degree 1",
    "support --method power --degree 5", "support --method cd --degree 5",
    "solve --level -1", "extract --level -3", "solve --level 1", "extract --level 1",
])
def test_rejects_level_or_degree_the_input_cannot_take(capsys, line_json, moments_json, command):
    # moments_json has order 8, so --degree 5 needs moments it lacks; line_json has degree 2
    name, *rest = command.split()
    source = ["--moments", moments_json] if name == "support" else ["--problem", line_json]
    with pytest.raises(SystemExit) as exc:
        main([name, *source, *rest])
    assert exc.value.code == 2
    assert f"argument {rest[-2]}" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    ("bench --r -1", "--r"),
    ("extract --level 2 --rank-tol 1", "--rank-tol"),
    ("extract --level 2 --rank-tol 0", "--rank-tol"),
    ("extract --level 2 --rank-tol abc", "--rank-tol"),
    ("upper --measure MOMENTS", "--measure"),
    ("upper --measure cube", "--measure"),
])
def test_rejects_bad_numeric_or_measure_argument(capsys, tmp_path, corner_json, line_json,
                                                 moments_json, command, flag):
    # MOMENTS is an n=1 moment table against the n=2 corner problem
    name, *rest = command.split()
    rest = [moments_json if a == "MOMENTS" else a for a in rest]
    if name == "bench":
        rest += ["--out", str(tmp_path / "report")]
    else:
        rest += ["--problem", corner_json if name == "upper" else line_json]
    with pytest.raises(SystemExit) as exc:
        main([name, *rest])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err
    if "MOMENTS" in command:
        assert "moment table has n = 1, problem has n = 2" in err
    assert not (tmp_path / "report").exists()


_NAN_MOMENTS = json.dumps({"n": 1, "order": 2, "values": [
    {"alpha": [0], "y": 1.0}, {"alpha": [1], "y": 0.0}, {"alpha": [2], "y": float("nan")}]})


@pytest.mark.parametrize("command, flag, content, says", [
    ("support --moments FILE --degree 1", "--moments", None, "No such file"),
    ("support --moments FILE --degree 1", "--moments", "{not json", "Expecting property name"),
    ("support --moments FILE --degree 1", "--moments", '{"n": 2}', "has no entry 'values'"),
    ("support --moments FILE --degree 1", "--moments", "[1, 2]", "has the wrong JSON shape"),
    ("support --moments FILE --degree 1 --method power", "--moments", _NAN_MOMENTS, "not finite"),
    ("support --moments FILE --degree 1 --method cd", "--moments", _NAN_MOMENTS, "not finite"),
    ("solve --problem FILE --level 2", "--problem", None, "No such file"),
    ("extract --problem FILE --level 2", "--problem", '{"n": 1}', "has no entry 'objective'"),
    ("upper --problem LINE --measure FILE", "--measure",
     '{"n": 1, "values": [{"alpha": [0], "y": 1.0}, {"alpha": [2], "y": Infinity}]}', "not finite"),
    ("bench --corpus FILE", "--corpus", "[{}]", "has no entry 'problem'"),
])
def test_unreadable_or_malformed_input_file_is_a_usage_error(capsys, tmp_path, line_json,
                                                             command, flag, content, says):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    name, *rest = command.split()
    rest = [str(path) if a == "FILE" else line_json if a == "LINE" else a for a in rest]
    if name == "bench":
        rest += ["--out", str(tmp_path / "report")]
    with pytest.raises(SystemExit) as exc:
        main([name, *rest])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and says in err


def test_upper_rejects_measure_table_with_repeated_exponent(capsys, tmp_path, line_json):
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps({"n": 1, "values": [
        {"alpha": [0], "y": 1.0}, {"alpha": [2], "y": 0.3}, {"alpha": [2], "y": 0.9}]}))
    with pytest.raises(SystemExit) as exc:
        main(["upper", "--problem", line_json, "--measure", str(dup), "--levels", "0:2:4"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --measure" in err and "moment table has 2 entries for exponent (2,)" in err
