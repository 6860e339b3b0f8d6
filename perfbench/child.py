"""One workload in its own process: set-up, timed passes, optional trace.

Started by ``run.py``; prints one JSON object as its last line of output.

    python3 perfbench/child.py --workload NAME --inputs FILE --workdir DIR \
        --seconds S --trace 0|1 [--setup-only]
"""
import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def run_pass(workload, state, workdir, index, previous, tracer=None):
    """All ops of one pass; an op fails on an exception, a nonzero exit, a
    failed check or digests that differ from the previous pass."""
    root = Path(workdir) / f"pass{index}"
    ctx = {}
    ops = []
    for op in workload.ops:
        out = root / op.name
        rec = {"op": op.name, "s": 0.0, "ok": False, "exit_code": None,
               "checks": [], "digests": {}}
        span = tracer.span(op.span) if tracer is not None and op.span else nullcontext()
        start = time.perf_counter()
        try:
            with span:
                raw = op.call(state, out, ctx)
            rec["s"] = time.perf_counter() - start
            rec["exit_code"], rec["checks"], rec["digests"] = op.verify(state, out, ctx, raw)
        except Exception as err:  # a failed op is counted, the pass goes on
            rec["s"] = rec["s"] or time.perf_counter() - start
            rec["error"] = f"{type(err).__name__}: {err}"
            traceback.print_exc(file=sys.stderr)
        else:
            prev = previous.get(op.name)
            rec["digests_match_previous"] = prev is None or prev == rec["digests"]
            rec["ok"] = (rec["exit_code"] == 0 and all(c["passed"] for c in rec["checks"])
                         and rec["digests_match_previous"])
        ops.append(rec)
    shutil.rmtree(root, ignore_errors=True)
    ratios = [_ratio(c) for rec in ops for c in rec["checks"]]
    return {"run_s": sum(rec["s"] for rec in ops), "ops": ops,
            "worst_check_ratio": max(ratios) if ratios else None}


def _ratio(check):
    if check["tolerance"] > 0:
        return check["measured"] / check["tolerance"]
    return 0.0 if check["measured"] <= 0 else float("inf")


def environment():
    import numpy
    import scipy

    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "numba_loaded_by_bihj": "numba" in sys.modules,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None):
    args = parse_args(argv)
    inputs = json.loads(Path(args.inputs).read_text())

    # set-up: from just before ``import bihj`` until the first op is ready
    modules_before = len(sys.modules)
    t_setup = time.perf_counter()
    import bihj  # noqa: F401
    import_s = time.perf_counter() - t_setup
    import_modules = len(sys.modules) - modules_before

    import workloads
    workload = workloads.WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    state = workload.prepare(inputs)
    setup_s = time.perf_counter() - t_setup
    result = {"setup_s": setup_s, "import_s": import_s, "import_modules": import_modules}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    passes = []
    previous = {}

    def one_pass(traced):
        if tracer is not None:
            (tracer.install if traced else tracer.uninstall)()
        rec = run_pass(workload, state, args.workdir, len(passes), previous,
                       tracer if traced else None)
        previous.update({op["op"]: op["digests"] for op in rec["ops"] if op["digests"]})
        passes.append(rec)
        return rec

    if tracer is None:
        start = time.perf_counter()
        while True:
            one_pass(False)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) > args.seconds:
                break
    else:
        import micro
        untraced = one_pass(False)
        covered_before = tracer.covered_self_s("cli.")
        traced = one_pass(True)
        tracer.uninstall()
        result["trace"] = trace_report(tracer, untraced, traced, covered_before)
        result["trace"]["micro"] = micro.run()
        result["trace"]["acceptance"] = _acceptance(args.workdir)

    result["passes"] = passes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    print(json.dumps(result))
    return 0


def trace_report(tracer, untraced, traced, covered_before):
    covered = tracer.covered_self_s("cli.") - covered_before
    stats = {name: vars(st) for name, st in tracer.stats.items()}
    return {
        "stats": stats,
        "absent": tracer.absent,
        "patched": tracer.patched,
        "traced_run_s": traced["run_s"],
        "untraced_run_s": untraced["run_s"],
        "overhead_s": traced["run_s"] - untraced["run_s"],
        "uncovered_s": traced["run_s"] - covered,
    }


def _acceptance(workdir):
    """One run_all, untraced; per-group wall times and the pass count."""
    from bihj.acceptance import run_all
    results, timings = run_all(workdir=Path(workdir) / "acceptance", echo=None)
    shutil.rmtree(Path(workdir) / "acceptance", ignore_errors=True)
    return {"timings": timings, "n_checks": len(results),
            "failed": [r.name for r in results if not r.passed]}


if __name__ == "__main__":
    raise SystemExit(main())
