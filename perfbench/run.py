"""momlab benchmark runner.

    python3 perfbench/run.py --workload relax-large --seed 1 --seconds 25 --trace 0

Runs one workload (see workloads.py) in this process against the package
source in ../src, as one client with one call in flight (closed loop).  After
set-up it repeats the workload's fixed task list ("a pass") while one more
pass fits in --seconds, at least once, and checks every output.  Between
tasks it times a fixed piece of reference work (ReferenceWork), and reports
each pass's time in units of it as well as in seconds.  The last line of
standard output is a JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  A traced run wraps every pass in spans and writes them to
perfbench/out/ when it ends; its wall time is reported as trace.wall_s, so
the tracing overhead is trace.wall_s minus the untraced wall_s.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("relax-large", "suite-builtin", "measure-eval"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def limit_blas_threads():
    """One BLAS thread: on a shared 2-core host a second one made times noisier and slower."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def blas_threads_in_use():
    """Thread count reported by the loaded OpenBLAS, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads_in_use(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


class ReferenceWork:
    """Fixed NumPy work, independent of momlab, timed between tasks.

    The host this benchmark was tuned on changes speed by up to 50 % for
    minutes at a time, and every kind of code slows alike.  Timing this fixed
    work next to the tasks measures the host's speed of the moment, so a
    pass time divided by it (`wall_rel`) cancels that drift.  It mixes the
    workloads' three kinds of cost: short interpreted calls on tiny arrays,
    an einsum contraction and small LAPACK eigensolves, about 20 ms each.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.x = rng.uniform(-1.0, 1.0, 2)
        self.exps = [np.array((i, j)) for i in range(7) for j in range(7 - i)]
        self.W = rng.standard_normal((20, 20))
        self.F = rng.standard_normal((40, 20, 20))
        A = rng.standard_normal((120, 120))
        self.A = A @ A.T

    def seconds(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        for _ in range(150):
            for e in self.exps:
                float(np.prod(self.x ** e))
        for _ in range(2):
            np.einsum("ab,kbc,cd->kad", self.W, self.F, self.W)
        for _ in range(12):
            np.linalg.eigh(self.A)
        return time.perf_counter() - t0


PROBE_GAP_S = 1.0  # task time between two timings of the reference work


def run_pass(workload, tracer, judge, ref):
    """One pass over the task list.

    Returns (wall seconds, mean reference-work seconds, [(task, seconds,
    outcome, note)]).  The reference work is timed before the first task,
    before any task that starts at least PROBE_GAP_S of task time after the
    last timing, and after the last task.
    """
    done = []
    wall = 0.0
    probes = []
    since_probe = PROBE_GAP_S
    for task in workload.order():
        if since_probe >= PROBE_GAP_S:
            probes.append(ref.seconds())
            since_probe = 0.0
        first_span = len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        try:
            out = task.run()
        except Exception as exc:  # a failed operation is a measured outcome
            out = exc
        dt = time.perf_counter() - t0
        wall += dt
        since_probe += dt
        note = ""
        if tracer and task.kind == "relax":
            calls = tracer.sdp_calls_since(first_span)
            note = f", sdp.solve calls {calls}" + (" (retry fired)" if calls > 1 else "")
        done.append((task, dt, judge(task, out), note))
    probes.append(ref.seconds())
    return wall, statistics.fmean(probes), done


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "momlab" / "__init__.py").is_file():
        print(f"momlab source not found under {SRC}", file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import momlab  # noqa: F401  (import time is part of set-up)
    import_s = time.perf_counter() - t0

    import tracing
    import workloads

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = workloads.SETUP[args.workload](args.seed)
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)
    print("machine " + json.dumps(machine_record()), flush=True)

    tracer = tracing.Tracer() if args.trace else None
    ref = ReferenceWork()
    ref.seconds()  # warm-up
    passes = []  # (wall, reference seconds, [(task, seconds, outcome, note)])
    start = time.perf_counter()
    while True:
        if tracer:
            with tracer.installed():
                wall, ref_s, done = run_pass(workload, tracer, workloads.judge, ref)
        else:
            wall, ref_s, done = run_pass(workload, None, workloads.judge, ref)
        passes.append((wall, ref_s, done))
        print(f"pass {len(passes)}: {wall:.4f} s, reference work {ref_s:.5f} s")
        for task, dt, oc, note in done:
            print(f"pass {len(passes)}: {task.name}: {dt:.4f} s, {oc.failure or 'ok'}{note}")
            for msg in oc.wrong:
                print(f"  WRONG {task.name}: {msg}")
        # start another pass only if one more of median length still fits
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(w for w, _, _ in passes) > args.seconds:
            break

    outcomes = [oc for _, _, done in passes for _, _, oc, _ in done]
    attempted = len(outcomes)
    failed = sum(1 for oc in outcomes if oc.failure)
    wrong = sum(len(oc.wrong) for oc in outcomes)

    if not args.trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_rel": (statistics.median(w / r for w, r, _ in passes), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_frac": (1.0 - failed / attempted, "ratio"),
        }
    else:
        layer = tracing.layer_metrics(tracer.spans, len(passes))

        def task_p50(kind):
            durs = [dt for _, _, done in passes for t, dt, _, _ in done if t.kind == kind]
            return statistics.median(durs) if durs else 0.0

        relax_tried = sum(oc.relax[0] for oc in outcomes)
        relax_failed = sum(oc.relax[1] for oc in outcomes)
        metrics = {
            **layer,
            "cd_grid_s": (task_p50("cd_grid"), "s"),
            "power_grid_s": (task_p50("power_grid"), "s"),
            "fail_frac": (relax_failed / relax_tried if relax_tried else 0.0, "ratio"),
            "check_failures": (wrong, "count"),
            "trace.wall_s": (statistics.median(w for w, _, _ in passes), "s"),
        }
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json")

    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
