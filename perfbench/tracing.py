"""Spans around momlab's public functions, recorded from outside the package.

Each wrapped function is replaced, in the namespace of the module that calls
it, by a wrapper that records one span: name, start, end, parent span and a
small dict of counts read off the call's arguments and result.  Spans stay in
memory while the workload runs and are written out when the run ends.  The
wrappers are installed only for traced passes and removed afterwards, so an
untraced pass runs the package exactly as shipped.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

import momlab.bench
import momlab.extraction
import momlab.hierarchy
import momlab.poly
import momlab.support
import momlab.upperbound

SDP_STATUSES = ("IllConditioned", "MaxIter", "Infeasible")


def _sdp_counts(args, kwargs, result):
    """Counts for one sdp.solve call, computed from its problem and solution.

    dense_mats_bytes is 8 * sum over blocks of nv * s^2 (the dense constraint
    matrices); schur_flop counts, for every iteration and block,
    2 * nv^2 * s^2 (the Schur contraction) + 4 * nv * s^3 (W^-1 F W^-1).
    Both are computed from sizes, not measured.
    """
    problem = args[0] if args else kwargs["problem"]
    sizes = [(len(blk.var_idx), blk.size) for blk in problem.blocks]
    info = {"dense_mats_bytes": 8 * sum(nv * s * s for nv, s in sizes)}
    if result is not None:
        per_iter = sum(2 * nv * nv * s * s + 4 * nv * s**3 for nv, s in sizes)
        info.update(
            status=result.status,
            iterations=result.iterations,
            schur_flop=per_iter * result.iterations,
        )
    return info


# (module or class, attribute, span name, counts hook).  A function is wrapped
# in every namespace it is called through, so both the benchmark's own calls
# and the package's internal calls are seen.
TARGETS = (
    (momlab.hierarchy, "solve", "sdp.solve", _sdp_counts),
    (momlab.hierarchy, "build_moment_sdp", "hierarchy.build_moment_sdp", None),
    (momlab.hierarchy, "solve_moment_relaxation", "hierarchy.solve_moment_relaxation", None),
    (momlab.bench, "solve_moment_relaxation", "hierarchy.solve_moment_relaxation", None),
    (momlab.hierarchy, "qmodule_membership", "hierarchy.qmodule_membership", None),
    (momlab.hierarchy, "compute_d0", "hierarchy.compute_d0", None),
    (momlab.bench, "run_suite", "bench.run_suite", None),
    (momlab.bench, "brute_force_oracle", "bench.oracle", None),
    (momlab.bench, "moment_distance_to_optimal", "bench.moment_distance", None),
    (momlab.bench, "check_flatness", "extraction.check_flatness", None),
    (momlab.bench, "extract_atoms", "extraction.extract_atoms", None),
    (momlab.bench, "solve_upper_bound", "upperbound.solve_upper_bound", None),
    (momlab.upperbound, "solve_upper_bound", "upperbound.solve_upper_bound", None),
    (momlab.support, "cd_kernel", "support.cd_kernel", None),
    (momlab.support, "cd_support_grid", "support.cd_support_grid", None),
    (momlab.support, "power_method_margin", "support.power_margin", None),
    (momlab.support, "moment_matrix", "cone.moment_matrix", None),
    (momlab.extraction, "moment_matrix", "cone.moment_matrix", None),
    (momlab.poly.MonomialBasis, "eval_vector", "poly.eval_vector", None),
)


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, info]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter(), None, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(idx)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                span[4] = {"raised": type(exc).__name__}
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if hook is not None:
                    span[4] = {**(span[4] or {}), **hook(args, kwargs, result)}

        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name, hook in TARGETS:
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, hook))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def sdp_calls_since(self, first: int) -> int:
        """sdp.solve calls made directly by relaxations recorded from span `first` on."""
        relax = {i for i in range(first, len(self.spans))
                 if self.spans[i][0] == "hierarchy.solve_moment_relaxation"}
        return sum(1 for s in self.spans[first:] if s[0] == "sdp.solve" and s[3] in relax)

    def write(self, path):
        """Write the spans as JSON: a name table and one row per span."""
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        rows = [[code[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "info"],
                       "names": names, "spans": rows}, fh)


def _dur(span):
    return span[2] - span[1]


def layer_metrics(spans, passes: int) -> dict:
    """Per-layer metrics, name -> (value, unit), per traced pass of `passes`."""
    by_name = {}
    children = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)
        if s[3] is not None:
            children.setdefault(s[3], []).append(i)

    def total(name):
        return sum(_dur(spans[i]) for i in by_name.get(name, ())) / passes

    def count(name):
        return len(by_name.get(name, ())) / passes

    def p50(name):
        durs = [_dur(spans[i]) for i in by_name.get(name, ())]
        return statistics.median(durs) if durs else 0.0

    sdp = [spans[i][4] or {} for i in by_name.get("sdp.solve", ())]
    iterations = sum(info.get("iterations", 0) for info in sdp)
    statuses = [info.get("status") for info in sdp]
    relax = by_name.get("hierarchy.solve_moment_relaxation", ())
    relax_self = 0.0
    retries = 0
    for i in relax:
        kids = children.get(i, ())
        relax_self += _dur(spans[i]) - sum(_dur(spans[k]) for k in kids)
        solves = sum(1 for k in kids if spans[k][0] == "sdp.solve")
        retries += max(solves - 1, 0)
    extract_ok = sum(
        1 for i in by_name.get("extraction.extract_atoms", ()) if not spans[i][4]
    )
    flat_checks = len(by_name.get("extraction.check_flatness", ()))
    solve_s = total("sdp.solve")

    out = {
        "sdp.solve_s": (solve_s, "s"),
        "sdp.calls": (count("sdp.solve"), "count"),
        "sdp.iterations": (iterations / passes, "count"),
        "sdp.s_per_iter": (solve_s * passes / iterations if iterations else 0.0, "s"),
        "sdp.nonoptimal": (sum(1 for st in statuses if st != "Optimal") / passes, "count"),
    }
    for st in SDP_STATUSES:
        out[f"sdp.nonoptimal.{st}"] = (statuses.count(st) / passes, "count")
    out["sdp.nonoptimal.raised"] = (statuses.count(None) / passes, "count")
    out["sdp.dense_mats_mb"] = (
        max((info["dense_mats_bytes"] for info in sdp), default=0) / 2**20, "MB")
    out["sdp.schur_gflop_dense"] = (
        sum(info.get("schur_flop", 0) for info in sdp) / passes / 1e9, "GFLOP")
    for key, name in (
        ("hierarchy.build_moment_sdp_s", "hierarchy.build_moment_sdp"),
        ("extraction.check_flatness_s", "extraction.check_flatness"),
        ("extraction.extract_atoms_s", "extraction.extract_atoms"),
        ("bench.oracle_s", "bench.oracle"),
        ("bench.moment_distance_s", "bench.moment_distance"),
        ("upperbound.solve_upper_bound_s", "upperbound.solve_upper_bound"),
        ("support.cd_kernel_s", "support.cd_kernel"),
        ("support.cd_support_grid_s", "support.cd_support_grid"),
        ("support.power_margin_s", "support.power_margin"),
        ("poly.eval_vector_s", "poly.eval_vector"),
        ("cone.moment_matrix_s", "cone.moment_matrix"),
    ):
        out[key] = (total(name), "s")
    out["poly.eval_vector_calls"] = (count("poly.eval_vector"), "count")
    out["cone.moment_matrix_calls"] = (count("cone.moment_matrix"), "count")
    out["hierarchy.relax_self_s"] = (relax_self / passes, "s")
    out["hierarchy.retries"] = (retries / passes, "count")
    out["extraction.flat_ratio"] = (extract_ok / flat_checks if flat_checks else 0.0, "ratio")
    out["relax_p50_s"] = (p50("hierarchy.solve_moment_relaxation"), "s")
    out["upper_s"] = (p50("upperbound.solve_upper_bound"), "s")
    out["trace.spans"] = (len(spans) / passes, "count")
    return out
