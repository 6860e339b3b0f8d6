"""The benchmark's library calls against the package: the autonomous-pair
workload of ``perfbench/``, loaded by path, runs each of its operations once
on seed 0, so that a change of the signatures it calls fails here first."""
import importlib.util
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_autonomous_pair_ops_run_and_pass_their_checks(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its sibling modules
    run, workloads = _load("run"), _load("workloads")
    inputs = run.make_inputs("autonomous-pair", 0)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(inputs.pop("scenario")))
    inputs["scenario_path"] = str(scenario)
    workload = workloads.WORKLOADS["autonomous-pair"]
    state = workload.prepare(inputs)
    ctx = {}
    for op in workload.ops:
        out = tmp_path / op.name
        exit_code, checks, digests = op.verify(state, out, ctx, op.call(state, out, ctx))
        assert exit_code == 0, op.name
        assert checks and all(c["passed"] for c in checks), (op.name, checks)
        assert digests, op.name
