"""Property test of the command line: every small valid scenario runs, fails
a check or fails with one stage-named error; no other exception escapes."""
import io
import json
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bihj.cli import main  # noqa: E402

COMMANDS = (["simulate"], ["compose"], ["reconstruct"], ["figure", "--id", "fig2"],
            ["figure", "--id", "fig3"])


@st.composite
def small_scenarios(draw):
    """Crank-Nicolson scenarios on 64-512 grid points, one or two Gaussians,
    free or harmonic, 5-41 labels over either span kind, either mode, and a
    few stored field times."""
    if draw(st.booleans()):
        potential = {"kind": "free"}
    else:
        potential = {"kind": "harmonic", "omega": draw(st.floats(0.0, 2.0))}
    sigma0 = draw(st.floats(0.4, 1.2))
    if draw(st.booleans()):
        state = {"kind": "gaussian", "sigma0": sigma0, "center": draw(st.floats(-1.0, 1.0)),
                 "momentum": draw(st.floats(-1.0, 1.0))}
    else:
        state = {"kind": "two_gaussian", "sigma0": sigma0,
                 "separation": draw(st.floats(0.0, 4.0)),
                 "relative_phase": draw(st.floats(0.0, 6.3)),
                 "relative_weight": draw(st.floats(0.2, 0.8))}
    if draw(st.booleans()):
        span = {"kind": "explicit", "lo": -draw(st.floats(0.2, 3.0)),
                "hi": draw(st.floats(0.2, 3.0))}
    else:
        span = {"kind": "density_floor", "floor": draw(st.floats(1e-6, 1e-2))}
    dt = draw(st.sampled_from([1e-3, 2e-3, 5e-3]))
    every, stored = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    return {"potential": potential,
            "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": draw(st.integers(64, 512))},
            "initial_state": state,
            "time": {"dt_solver": dt, "dt_fields": every * dt, "t_final": stored * every * dt},
            "labels": {"count": draw(st.integers(5, 41)), "span": span},
            "mode": draw(st.sampled_from(["reference_driven", "autonomous"])),
            "solver": "crank_nicolson"}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(small_scenarios())
def test_every_small_scenario_exits_0_1_or_2_with_a_named_stage(doc):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "scenario.json"
        config.write_text(json.dumps(doc))
        for i, command in enumerate(COMMANDS):
            with redirect_stderr(io.StringIO()) as err:
                code = main(command + ["--config", str(config), "--out", f"{tmp}/{i}"])
            assert code in (0, 1, 2), (command, code)
            if code == 2:
                assert err.getvalue().startswith("error: ["), (command, err.getvalue())

