import ast
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bihj
from bihj.cli import main

SIGMA0 = np.sqrt(0.5)


@pytest.fixture
def config_path(tmp_path):
    doc = {
        "hbar": 1.0, "mass": 1.0,
        "potential": {"kind": "free"},
        "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 256},
        "initial_state": {"kind": "gaussian", "sigma0": SIGMA0},
        "time": {"dt_solver": 0.002, "dt_fields": 0.01, "t_final": 0.1},
        "labels": {"count": 41, "span": {"kind": "explicit", "lo": -2.0, "hi": 2.0}},
        "mode": "reference_driven",
        "solver": "analytic",
        "composition_case": "i",
        "thresholds": {"rho_min_factor": 1e-12, "rho_ref": 1.0},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def test_oracle_prints_table(capsys):
    assert main(["oracle"]) == 0
    out = capsys.readouterr().out
    assert "free gaussian at rest" in out


# run in a fresh process: free chunks that an earlier test left in the heap
# would serve the small array whatever the threshold
MAPPED_AFTER_A_LARGE_FREE = """
import contextlib, ctypes, io
import numpy as np
from bihj.cli import main

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]

libc = ctypes.CDLL(None)
libc.mallinfo2.argtypes, libc.mallinfo2.restype = (), MallInfo2
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["oracle"]) == 0
big = np.ones(3 << 20)  # 24 MiB: left alone, glibc would raise its threshold to this
del big
mapped = libc.mallinfo2().hblkhd
array = np.ones(1 << 20)  # 8 MiB: more than the heap may keep free at its top
print(libc.mallinfo2().hblkhd - mapped >= array.nbytes)
"""


def test_commands_map_arrays_after_a_large_one_is_freed():
    if not hasattr(ctypes.CDLL(None), "mallinfo2"):
        pytest.skip("needs glibc's mallinfo2")
    src = str(Path(bihj.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", MAPPED_AFTER_A_LARGE_FREE], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "True"


# run in a fresh process, whose heap holds only what the script leaves there
TRIMMED_BEFORE_A_COMMAND = """
import contextlib, io
import numpy as np
from bihj.cli import main

def resident():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * 4096

# 48 heap arrays of 96 KiB, every other one freed: the freed chunks lie
# between kept ones, so that no trim of the heap's top returns them
arrays = [np.ones(12 << 10) for _ in range(48)]
kept = arrays[1::2]
del arrays
before = resident()
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["oracle"]) == 0
print(before - resident() >= 1 << 20)
"""


def test_commands_give_back_the_free_heap_pages_left_before_them():
    if not hasattr(ctypes.CDLL(None), "malloc_trim") or not Path("/proc/self/statm").exists():
        pytest.skip("needs glibc's malloc_trim and /proc")
    src = str(Path(bihj.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", TRIMMED_BEFORE_A_COMMAND], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "True"


def test_simulate_writes_outputs(tmp_path, config_path, capsys):
    code = main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "run")])
    assert code == 0
    assert (tmp_path / "run" / "manifest.json").exists()
    assert (tmp_path / "run" / "fields.csv").exists()


def test_compose_case_flag(tmp_path, config_path):
    code = main(["compose", "--config", str(config_path), "--case", "converse",
                 "--out", str(tmp_path / "run")])
    assert code == 0
    first = (tmp_path / "run" / "composition.csv").read_text().splitlines()[1]
    assert first.startswith("converse,")


def test_figure_requires_id(config_path):
    with pytest.raises(SystemExit):
        main(["figure", "--config", str(config_path)])


def test_invalid_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"grid": {"x_min": 0.0, "x_max": 1.0, "n_points": 8},
                               "initial_state": {"kind": "gaussian", "sigma0": SIGMA0},
                               "time": {"dt_solver": 1e-3, "dt_fields": 1e-3,
                                        "t_final": 0.01}}))
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("text, message", [
    ('{"hbar": 1,', "is not valid JSON"),
    ("[1, 2]", "must be a JSON object"),
    (None, "cannot read scenario"),
])
def test_unreadable_config_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "scenario.json"
    if text is not None:
        path.write_text(text)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert message in err and "missing field" not in err
    if text is None:
        assert str(path) in err


def test_wrong_type_config_exits_2(tmp_path, config_path, capsys):
    doc = json.loads(config_path.read_text())
    doc["hbar"] = "1"
    doc["labels"]["count"] = "5"
    config_path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "hbar" in err and "labels.count" in err


@pytest.mark.parametrize("key, value", [
    ("time", {"dt_solver": 1e-300, "dt_fields": 1e10, "t_final": 1e10}),
    ("thresholds", 5),
    ("thresholds", {"rho_min_factr": 1e-3}),
    # too few labels for the five-point label derivatives
    ("labels", {"count": 2, "span": {"kind": "explicit", "lo": -2.0, "hi": 2.0}}),
    ("labels", {"count": 3, "span": {"kind": "explicit", "lo": -2.0, "hi": 2.0}}),
    ("labels", {"count": 4, "span": {"kind": "explicit", "lo": -2.0, "hi": 2.0}}),
    # sizes beyond the documented upper bounds
    ("grid", {"x_min": -10.0, "x_max": 10.0, "n_points": 10**400}),
    ("labels", {"count": 10**6, "span": {"kind": "explicit", "lo": -2.0, "hi": 2.0}}),
    ("time", {"dt_solver": 1e-7, "dt_fields": 0.01, "t_final": 0.1}),
    # sizes within their own bounds whose products hold more than MAX_HELD_BYTES:
    # labels x solver steps, and grid points x stored field times
    (("labels", "time"), ({"count": 4096, "span": {"kind": "explicit", "lo": -2.0, "hi": 2.0}},
                          {"dt_solver": 1e-4, "dt_fields": 0.01, "t_final": 1.0})),
    (("grid", "time"), ({"x_min": -10.0, "x_max": 10.0, "n_points": 65536},
                        {"dt_solver": 1e-3, "dt_fields": 1e-3, "t_final": 1.0})),
])
def test_edge_inputs_exit_2(tmp_path, config_path, capsys, key, value):
    doc = json.loads(config_path.read_text())
    doc.update(zip(key, value) if isinstance(key, tuple) else [(key, value)])
    config_path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
    assert "invalid scenario configuration" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [[], ["--mode", "autonomous"]])
def test_autonomous_sampled_potential_exits_2_before_writing(tmp_path, config_path, capsys,
                                                            argv):
    doc = json.loads(config_path.read_text())
    doc.update(potential={"kind": "sampled", "values": [0.0] * 256}, solver="crank_nicolson",
               mode="autonomous" if not argv else "reference_driven")
    config_path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(config_path), "--out", str(out)] + argv) == 2
    assert "mode=autonomous needs a free or harmonic potential" in capsys.readouterr().err
    assert not out.exists()


def test_compose_of_three_stored_times_exits_2_naming_the_stage(tmp_path, config_path, capsys):
    # its residual takes centred differences over three composed times,
    # which need four stored times of the host
    doc = json.loads(config_path.read_text())
    doc["time"] = {"dt_solver": 0.01, "dt_fields": 0.01, "t_final": 0.02}
    config_path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["compose", "--config", str(config_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: [composition] composition needs at least four stored times\n")
    doc["time"]["t_final"] = 0.03
    config_path.write_text(json.dumps(doc))
    assert main(["compose", "--config", str(config_path), "--out", str(out)]) in (0, 1)


def test_negative_initial_density_at_a_label_exits_2_naming_the_label(tmp_path, capsys):
    # on 64 grid points the spline of a narrow density dips below zero in its
    # far tail, where the polar reconstruction would take its square root
    doc = {"grid": {"x_min": -10.0, "x_max": 10.0, "n_points": 64},
           "initial_state": {"kind": "gaussian", "sigma0": 0.4093056387751579,
                             "center": 0.29959236685923574},
           "time": {"dt_solver": 0.001, "dt_fields": 0.001, "t_final": 0.001},
           "labels": {"count": 5, "span": {"kind": "explicit", "lo": -2.5714051955949206,
                                           "hi": 0.4093056387751579}},
           "solver": "crank_nicolson"}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["reconstruct", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: [probes] the initial density is -1.64e-07 < 0 at label -2.21812\n")
    assert sorted(p.name for p in out.iterdir()) == []


def test_cli_and_acceptance_load_no_numba_nor_scipy():
    src = str(Path(bihj.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, bihj.cli, bihj.acceptance; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numba', 'scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_package_imports_no_scipy():
    # every import statement, also one inside a function body
    imported = []
    for path in sorted(Path(bihj.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported += [(path.name, f"{node.module}.{alias.name}")
                             for alias in node.names]
    assert imported, "found no imports to check"
    scipy = [(name, module) for name, module in imported if module.split(".")[0] == "scipy"]
    assert scipy == [], scipy


def test_mode_override(tmp_path, config_path):
    code = main(["simulate", "--config", str(config_path), "--mode", "autonomous",
                 "--out", str(tmp_path / "run")])
    assert code == 0
    assert (tmp_path / "run" / "crossmap.csv").exists()


@pytest.mark.parametrize("argv", [["--config", "scenario.json"], ["--mode", "autonomous"]])
def test_verify_takes_no_scenario_and_names_the_argument(tmp_path, capsys, argv):
    # verify runs fixed scenarios, so a scenario or mode is refused, not ignored
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv, "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv", [["compose"], ["reconstruct"], ["figure", "--id", "fig2"],
                                  ["oracle"]])
def test_only_simulate_takes_a_mode(tmp_path, capsys, argv):
    # the other commands run the reference-driven congruences in either
    # mode, so a mode is refused, not ignored
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--mode", "autonomous", "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mode autonomous" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_failed_stage_is_named_and_leaves_no_data_file(tmp_path, capsys):
    # the bundled scenario with 401 labels is unstable in autonomous mode
    doc = json.loads((Path(bihj.__file__).parent / "data" / "gaussian.json").read_text())
    doc["labels"]["count"] = 401
    doc["mode"] = "autonomous"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: [autonomous] plus paths of labels -3.9 and -3.88 crossed at t=0.042\n")
    assert sorted(p.name for p in out.iterdir()) == []


def test_reference_driven_failure_leaves_no_data_file(tmp_path, capsys):
    # on the sampled grid the outer labels of the bundled scenario leave the
    # region where the density is above its floor
    doc = json.loads((Path(bihj.__file__).parent / "data" / "gaussian.json").read_text())
    doc["solver"] = "crank_nicolson"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: [congruences] minus trajectory with label -4 left the valid region at t=0.277\n")
    assert sorted(p.name for p in out.iterdir()) == []


@pytest.mark.parametrize("argv", [["reconstruct"], ["compose"], ["compose", "--case", "converse"],
                                  ["figure", "--id", "fig2"]])
def test_reference_driven_failure_names_the_flow(tmp_path, capsys, argv):
    # the scenario of the test above: every command that marches the minus
    # flow with others reports it, at the time it leaves the valid region
    doc = json.loads((Path(bihj.__file__).parent / "data" / "gaussian.json").read_text())
    doc["solver"] = "crank_nicolson"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(argv + ["--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: [congruences] minus trajectory with label -4 left the valid region at t=0.277\n")
    assert sorted(p.name for p in out.iterdir()) == []


def test_march_past_the_sampled_span_exits_2_naming_the_span(tmp_path, config_path, capsys,
                                                             monkeypatch):
    # the trajectory stages marched half again as long as the stored fields
    import bihj.scenario as scenario
    doc = json.loads(config_path.read_text())
    doc["solver"] = "crank_nicolson"
    config_path.write_text(json.dumps(doc))
    monkeypatch.setattr(scenario.RunBundle, "times",
                        property(lambda self: np.arange(76) * self.config.dt_solver))
    assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "error: [congruences] t=0.101 is outside the sampled span [0, 0.1] "
        "of the field series\n")


@pytest.mark.parametrize("argv", [["simulate"], ["reconstruct"], ["compose"]])
def test_march_reaching_a_failing_snapshot_exits_2_naming_the_fields(tmp_path, config_path,
                                                                     capsys, argv):
    # with a density floor of 0.9 of the initial peak, the region of the
    # spreading gaussian above it shrinks below the five points of a valid
    # run at t = 0.4; the march derives that snapshot when it reaches it
    doc = json.loads(config_path.read_text())
    doc.update(solver="crank_nicolson",
               time={"dt_solver": 0.002, "dt_fields": 0.01, "t_final": 0.6},
               labels={"count": 5, "span": {"kind": "explicit", "lo": -0.02, "hi": 0.02}},
               thresholds={"rho_min_factor": 0.9, "rho_ref": 1.0})
    config_path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(argv + ["--config", str(config_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: [fields] every grid point is below the density threshold at t=0.4\n")
    assert sorted(p.name for p in out.iterdir()) == []
