"""Command-line front end: solve, extract, upper, support, bench."""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict

from .bench import builtin_corpus, load_corpus, run_suite
from .cone import PseudoMomentSequence, SemialgebraicProblem
from .extraction import candidate_minimizer, check_flatness, extract_atoms
from .hierarchy import build_moment_sdp, solve_moment_relaxation, solve_moment_sdp
from .poly import box_grid
from .sdp import export_sdpa
from .support import cd_kernel, cd_support_grid, default_power_family, power_method_margin
from .upperbound import ReferenceMeasure, solve_upper_bound

__all__ = ["main"]


def _parse_levels(spec: str):
    """Levels of `start`, `start:stop` or `start:step:stop` (stop inclusive), an argparse type."""
    try:
        parts = [int(p) for p in spec.split(":")]
    except ValueError:
        parts = []
    if not 1 <= len(parts) <= 3:
        raise argparse.ArgumentTypeError(f"expected start[:step]:stop integers, got {spec!r}")
    start, step, stop = parts if len(parts) == 3 else (parts[0], 1, parts[-1])
    if step <= 0 or start < 0:
        raise argparse.ArgumentTypeError(f"{spec!r}: levels must be >= 0 and the step > 0")
    levels = list(range(start, stop + 1, step))
    if not levels:
        raise argparse.ArgumentTypeError(f"{spec!r} gives no levels")
    return levels


def _parse_box(spec: str):
    """Finite interval `lo:hi` with lo < hi, an argparse type."""
    try:
        lo, hi = (float(v) for v in spec.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi numbers, got {spec!r}") from None
    if not -math.inf < lo < hi < math.inf:
        raise argparse.ArgumentTypeError(f"{spec!r}: needs finite lo < hi")
    return lo, hi


def _int_at_least(low: int):
    """argparse type of the integers >= low."""
    def parse(spec: str) -> int:
        try:
            value = int(spec)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {spec!r}")
        return value
    return parse


def _to_original(prob, value):
    """Points or a PseudoMomentSequence of `prob`, in original coordinates.

    The library answers in the problem's own coordinates; a normalized problem
    carries the ScaleRecord that maps those answers back for the reports.
    """
    if prob.scale is None:
        return value
    if isinstance(value, PseudoMomentSequence):
        return value.map_affine(prob.scale)
    return prob.scale.to_original(value)


def _cmd_solve(args):
    prob = SemialgebraicProblem.load(args.problem)
    ms = build_moment_sdp(prob, args.level)
    if args.export_sdpa:
        export_sdpa(ms.problem, args.export_sdpa)
    res = solve_moment_sdp(prob, ms)
    report = {
        "level": res.d,
        "m_d_star": res.m_d_star,
        "f_d_star": res.f_d_star,
        "status": res.status,
        "retried": res.retried,
        "iterations": res.iterations,
        "pseudo_moments": _to_original(prob, res.pseudo_moments).to_json_dict(),
        # the certificate stays in the saved problem's normalized coordinates
        "scale": None if prob.scale is None else asdict(prob.scale),
        "certificate_residual": (
            None if res.certificate is None else res.certificate.residual_norm
        ),
    }
    if args.sos and res.certificate is not None:
        report["certificate"] = {
            "s": res.certificate.s,
            "grams": [G.tolist() for G in res.certificate.grams],
            "gram_bases": [
                [list(a) for a in rows] for rows in res.certificate.gram_bases
            ],
            "multipliers": [m.to_json_dict() for m in res.certificate.multipliers],
        }
    json.dump(report, sys.stdout, indent=2)
    print()


def _cmd_extract(args):
    prob = SemialgebraicProblem.load(args.problem)
    res = solve_moment_relaxation(prob, args.level, want_certificate=False)
    y = res.pseudo_moments
    k = y.order // 2
    r = max(1, prob.max_constraint_degree)
    rep = check_flatness(y, k, min(r, k), tol=args.rank_tol)
    x = candidate_minimizer(y)
    report = {
        "level": args.level,
        "m_d_star": res.m_d_star,
        "flatness": {
            "d": rep.d,
            "r": rep.r,
            "rank_full": rep.rank_full,
            "rank_truncated": rep.rank_truncated,
            "is_flat": rep.is_flat,
            "singular_values_full": rep.singular_values_full.tolist(),
            "singular_values_truncated": rep.singular_values_truncated.tolist(),
            "tol": rep.tol,
        },
        "candidate_minimizer": _to_original(prob, x).tolist(),
        "candidate_in_K": bool(prob.contains(x, tol=1e-6)),
    }
    if rep.is_flat:
        try:
            mu = extract_atoms(y, k, rank_tol=args.rank_tol)
            report["atoms"] = _to_original(prob, mu.atoms).tolist()
            report["weights"] = mu.weights.tolist()
            report["atom_f_values"] = [float(prob.objective(a)) for a in mu.atoms]
            report["atom_in_K"] = [bool(prob.contains(a, tol=1e-6)) for a in mu.atoms]
        except ValueError as exc:
            report["extraction_error"] = str(exc)
    json.dump(report, sys.stdout, indent=2)
    print()


def _cmd_upper(args):
    prob = SemialgebraicProblem.load(args.problem)
    if args.measure in ("box", "ball"):
        mu = ReferenceMeasure(args.measure, prob.n)
    else:
        mu = ReferenceMeasure.from_json(args.measure)
    out = []
    for d in args.levels:
        r = solve_upper_bound(prob.objective, mu, d)
        out.append(
            {
                "level": d,
                "u_d_star": r.u_d_star,
                "sigma": r.sigma.to_json_dict()["terms"],
                "x_check": _to_original(prob, r.x_check).tolist(),
                # sigma stays in the saved problem's normalized coordinates
                "scale": None if prob.scale is None else asdict(prob.scale),
                "feasible": r.feasible,
                "cost": r.cost,
            }
        )
    json.dump(out, sys.stdout, indent=2)
    print()


def _cmd_support(args):
    with open(args.moments) as fh:
        y = PseudoMomentSequence.from_json_dict(json.load(fh))
    box = [args.box] * y.n
    writer = csv.writer(sys.stdout)
    header = [f"x{i+1}" for i in range(y.n)] + ["value", "included"]
    writer.writerow(header)
    if args.method == "cd":
        kernel = cd_kernel(y, args.degree)
        thr = args.threshold if args.threshold is not None else float("inf")
        grid = cd_support_grid(kernel, box, args.res, thr)
        for pt, val, inc in zip(grid.points, grid.values, grid.included):
            writer.writerow(list(pt) + [f"{val:.10g}", int(inc)])
    else:
        family = default_power_family(y.n)
        budget = 2 * args.degree
        pts = box_grid(box, args.res)
        for pt, margin in zip(pts, power_method_margin(y, budget, family, pts)):
            writer.writerow(list(pt) + [f"{margin:.10g}", int(margin >= 0)])


def _cmd_bench(args):
    if args.corpus == "builtin":
        corpus = builtin_corpus()
    else:
        with open(args.corpus) as fh:
            corpus = load_corpus(json.load(fh))
    reports, _ = run_suite(corpus, out_dir=args.out, r_dist=args.r)
    print(f"wrote {args.out}/report.csv and {args.out}/summary.md "
          f"({len(reports)} problems)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="momlab",
        description="Moment-SOS hierarchy toolkit: relaxations, extraction, "
        "upper bounds, support estimation, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a moment relaxation at one level")
    p.add_argument("--problem", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--sos", action="store_true", help="include the SOS certificate")
    p.add_argument("--export-sdpa", default=None, help="write the SDP in sparse SDPA format")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("extract", help="flatness check and atom extraction")
    p.add_argument("--problem", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--rank-tol", type=float, default=1e-6)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("upper", help="measure-based upper bounds")
    p.add_argument("--problem", required=True)
    p.add_argument("--measure", default="box", help="box | ball | moment-table JSON path")
    p.add_argument("--levels", type=_parse_levels, default="0:2:8",
                   help="start:step:stop (inclusive)")
    p.set_defaults(func=_cmd_upper)

    p = sub.add_parser("support", help="support estimation grid from moments")
    p.add_argument("--moments", required=True)
    p.add_argument("--method", choices=("cd", "power"), default="cd")
    p.add_argument("--box", type=_parse_box, default="-1:1", help="lo:hi per axis, lo < hi")
    p.add_argument("--res", type=_int_at_least(1), default=201, help="grid points per axis")
    p.add_argument("--degree", type=_int_at_least(0), required=True)
    p.add_argument("--threshold", type=float, default=None)
    p.set_defaults(func=_cmd_support)

    p = sub.add_parser("bench", help="run the benchmark suite")
    p.add_argument("--corpus", default="builtin", help="corpus JSON path or 'builtin'")
    p.add_argument("--out", default="report")
    p.add_argument("--r", type=int, default=2, help="moment-distance truncation degree")
    p.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
