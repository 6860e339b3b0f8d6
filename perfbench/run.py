#!/usr/bin/env python3
"""Benchmark of the bihj package: three workloads, end-to-end and per-layer.

Run from the root of a checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own child process, one at a time, after
``SETUP_REPEATS`` set-up-only children that time the set-up again.  The
harness makes the workload inputs from ``--seed``, writes them into a work
directory inside the checkout and passes the scenario to the program with
``--config``.  With ``--trace 0`` the last line of output is a JSON object
with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of one traced pass.  See NOTES.md for the workloads and metrics.
"""
import argparse
import copy
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import per_layer_metrics, worst_check_ratio

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

WORKLOAD_NAMES = ("cli-analytic", "autonomous-pair", "grid-sampled")
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0

# The bundled scenario (src/bihj/data/gaussian.json), kept here so that the
# benchmark inputs do not change when the package's defaults do.  Seed 0
# reproduces it exactly.
BUNDLED_SCENARIO = {
    "hbar": 1.0,
    "mass": 1.0,
    "potential": {"kind": "free"},
    "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 2048},
    "initial_state": {"kind": "gaussian", "sigma0": 0.7071067811865476,
                      "center": 0.0, "momentum": 0.0},
    "time": {"dt_solver": 0.001, "dt_fields": 0.01, "t_final": 1.0},
    "labels": {"count": 201, "span": {"kind": "explicit", "lo": -4.0, "hi": 4.0}},
    "mode": "reference_driven",
    "solver": "analytic",
    "composition_case": "i",
    "thresholds": {"rho_min_factor": 1e-12, "rho_ref": 1.0},
    "output_dir": "out",
}

# autonomous-pair: the settings of the acceptance checks check_autonomous and
# check_time_reversal, with 41 probe points at every stored time
AUTONOMOUS = {"dt": 2e-4, "steps": 2500, "store_every": 25, "exchange_steps": 1250}
N_PROBES = 41
PROBE_SPAN = 0.9  # probes lie in the inner 90% of the overlap of the two hulls

# Minus-flow paths grow by sqrt(1+t^2) exp(atan t): labels beyond |q0| ~ 2.4
# leave the rho >= 1e-12 peak region before t = 1 on the sampled grid.
GRID_LABEL_SPAN = (-1.6, 1.6)

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def make_inputs(workload, seed):
    """Workload inputs from the seed: seed 0 is the bundled scenario; other
    seeds scale sigma0 by a factor in [0.95, 1.05] and redraw the probes."""
    rng = random.Random(seed)
    doc = copy.deepcopy(BUNDLED_SCENARIO)
    if seed != 0:
        doc["initial_state"]["sigma0"] *= rng.uniform(0.95, 1.05)
    inputs = {"scenario": doc}
    if workload == "grid-sampled":
        doc["solver"] = "crank_nicolson"
        lo, hi = GRID_LABEL_SPAN
        doc["labels"]["span"] = {"kind": "explicit", "lo": lo, "hi": hi}
    elif workload == "autonomous-pair":
        # one probe per equal stratum of [-PROBE_SPAN, PROBE_SPAN], so that every
        # seed covers the span evenly; seed 0 puts each at its stratum's centre
        offsets = [rng.random() if seed != 0 else 0.5 for _ in range(N_PROBES)]
        width = 2.0 * PROBE_SPAN / N_PROBES
        inputs["autonomous"] = dict(AUTONOMOUS)
        inputs["probe_fractions"] = [-PROBE_SPAN + (i + u) * width
                                     for i, u in enumerate(offsets)]
    return inputs


def child_env():
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"))
    return env


def run_child(args, deadline):
    """Run child.py; return its JSON result or raise RuntimeError."""
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as err:
        raise RuntimeError(f"child timed out: {' '.join(cmd)}") from err
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}: {' '.join(cmd)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"child printed no result: {' '.join(cmd)}")
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace):
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = WORK / f"{name}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = make_inputs(name, seed)
        scenario_path = workdir / "scenario.json"
        scenario_path.write_text(json.dumps(inputs.pop("scenario"), indent=2, sort_keys=True))
        inputs["scenario_path"] = str(scenario_path)
        inputs_path = workdir / "inputs.json"
        inputs_path.write_text(json.dumps(inputs, indent=2, sort_keys=True))
        base = ["--workload", name, "--inputs", str(inputs_path), "--workdir", str(workdir),
                "--seconds", str(seconds), "--trace", str(trace)]
        setups = []
        if not trace:
            setups = [run_child(base + ["--setup-only"], deadline)["setup_s"]
                      for _ in range(SETUP_REPEATS)]
        result = run_child(base, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    result["setup_samples"] = setups + [result["setup_s"]]
    return result


# ---------- metrics ----------

def op_counts(result):
    ops = [op for p in result["passes"] for op in p["ops"]]
    attempted = len(ops)
    failed = sum(not op["ok"] for op in ops)
    trace = result.get("trace")
    if trace:
        attempted += 2
        failed += bool(trace["acceptance"]["failed"])
        failed += not all(m["passed"] for m in trace["micro"].values())
    return attempted, failed


def tail_percentile(samples):
    """(percentile, value) of the highest percentile with >= 10 samples
    beyond it, or None when there are too few samples for one above p50."""
    n = len(samples)
    if n < 20:
        return None
    ordered = sorted(samples)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(result):
    return {
        "run_s": statistics.median(p["run_s"] for p in result["passes"]),
        "setup_s": statistics.median(result["setup_samples"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def describe(name, seed, result, metrics, attempted, failed):
    runs = [p["run_s"] for p in result["passes"]]
    print(f"workload {name}  seed {seed}")
    tail = tail_percentile(runs)
    tail_text = (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else
                 "no percentile above p50 has >= 10 samples beyond it")
    if "run_s" in metrics:
        print(f"  run_s              {metrics['run_s']['value']:.4f} s   median of "
              f"{len(runs)} passes; {tail_text}")
        print(f"  setup_s            {metrics['setup_s']['value']:.4f} s   median of "
              f"{len(result['setup_samples'])} set-ups")
        print(f"  peak_rss_mb        {metrics['peak_rss_mb']['value']:.1f} MB")
    print(f"  worst_check_ratio  {worst_check_ratio(result):.4g} ratio")
    print(f"  ops_failed_ratio   {failed / attempted:.4g} ratio   ({failed} of {attempted} ops)")
    for p in result["passes"]:
        for op in p["ops"]:
            if not op["ok"]:
                print(f"  FAILED {op['op']}: {op.get('error') or 'exit/check/digest'}")
    if "trace" in result:
        for check in result["trace"]["acceptance"]["failed"]:
            print(f"  FAILED acceptance check {check}")
        for kernel, m in result["trace"]["micro"].items():
            if not m["passed"]:
                print(f"  FAILED micro-benchmark check {kernel}: residual {m['check']:.3g}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per workload; passes stop when the next "
                             "would overrun it (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bihj" / "__init__.py").is_file():
        print(f"error: no bihj sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    details = {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except RuntimeError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        attempted, failed = op_counts(result)
        if args.trace:
            values = per_layer_metrics(result)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        else:
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in end_to_end(result).items()}
        describe(name, args.seed, result, metrics, attempted, failed)
        details[name] = {"env": result["env"], "passes": result["passes"],
                         "setup_samples": result["setup_samples"],
                         "ops_failed_ratio": failed / attempted,
                         **({"trace_absent": result["trace"]["absent"],
                             "trace_patched": result["trace"]["patched"]} if args.trace else {})}
        combined["attempted"] += attempted
        combined["failed"] += failed
        prefix = "" if len(names) == 1 else f"{name}."
        combined["metrics"].update({prefix + k: v for k, v in metrics.items()})
    combined["correct"] = combined["failed"] == 0
    print(json.dumps({"detail": details}, sort_keys=True))
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
