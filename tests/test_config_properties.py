"""Property tests of the scenario schema: every document is either a
configuration or one ConfigurationError, and the echo parses to itself."""
import copy
import json
from importlib import resources

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bihj.errors import ConfigurationError  # noqa: E402
from bihj.scenario import (  # noqa: E402
    BYTES_PER_GRID_POINT,
    BYTES_PER_LABEL_STEP,
    MAX_GRID_POINTS,
    MAX_HELD_BYTES,
    MAX_LABELS,
    MAX_SOLVER_STEPS,
    SCHEMA,
    ScenarioConfig,
    parse_config,
)

BUNDLED = json.loads(resources.files("bihj").joinpath("data/gaussian.json").read_text())
# schema field and section names, so that generated objects reach the checks
NAMES = sorted({part for row in SCHEMA for part in row[0].split(".")})

scalars = (st.none() | st.booleans() | st.floats()
           | st.integers(-10**400, 10**400) | st.text(max_size=8) | st.sampled_from(NAMES))
json_values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(NAMES) | st.text(max_size=8), inner,
                                     max_size=6)),
    max_leaves=20)


def leaf_paths(node, prefix=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaf_paths(value, prefix + (key,))
    else:
        yield prefix


LEAVES = sorted(leaf_paths(BUNDLED))


def parse_or_reject(doc):
    """parse_config's result, or None for a ConfigurationError; any other
    exception fails the test."""
    try:
        cfg = parse_config(doc)
    except ConfigurationError:
        return None
    assert isinstance(cfg, ScenarioConfig)
    return cfg


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_any_json_value_is_a_config_or_a_configuration_error(doc):
    parse_or_reject(doc)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(LEAVES), st.none() | json_values, st.booleans())
def test_one_leaf_mutation_of_the_bundled_scenario(path, value, delete):
    doc = copy.deepcopy(BUNDLED)
    *parents, leaf = path
    node = doc
    for part in parents:
        node = node[part]
    if delete:
        del node[leaf]
    else:
        node[leaf] = value
    cfg = parse_or_reject(doc)
    if cfg is not None:
        assert parse_config(cfg.echo).echo == cfg.echo


finite = st.floats(-5.0, 5.0)
positive = st.floats(0.05, 2.0)


@st.composite
def valid_documents(draw):
    """Valid scenarios over every potential, initial state and label span kind."""
    n_points = draw(st.integers(16, 64))
    potential = draw(st.sampled_from([
        {"kind": "free"},
        {"kind": "harmonic", "omega": draw(st.floats(0.0, 3.0))},
        {"kind": "sampled", "values": draw(st.lists(finite, min_size=n_points,
                                                    max_size=n_points))}]))
    state = draw(st.sampled_from([
        {"kind": "gaussian", "sigma0": draw(positive), "center": draw(finite),
         "momentum": draw(finite)},
        {"kind": "two_gaussian", "sigma0": draw(positive), "separation": draw(finite),
         "relative_phase": draw(finite), "relative_weight": draw(st.floats(0.0, 1.0))}]))
    lo = draw(finite)
    span = draw(st.sampled_from([{"kind": "density_floor", "floor": draw(st.floats(1e-9, 0.5))},
                                 {"kind": "explicit", "lo": lo,
                                  "hi": lo + draw(positive)}]))
    dt = draw(st.sampled_from([1e-3, 2e-3, 5e-3]))
    every, fields = draw(st.integers(1, 10)), draw(st.integers(1, 20))
    doc = {"hbar": draw(positive), "mass": draw(positive), "potential": potential,
           "grid": {"x_min": -10.0, "x_max": 10.0, "n_points": n_points},
           "initial_state": state,
           "time": {"dt_solver": dt, "dt_fields": every * dt, "t_final": fields * every * dt},
           "labels": {"count": draw(st.integers(5, 300)), "span": span},
           # the autonomous stepper needs the potential off the grid
           "mode": draw(st.sampled_from(["reference_driven"] if potential["kind"] == "sampled"
                                        else ["reference_driven", "autonomous"])),
           "solver": "crank_nicolson",
           "composition_case": draw(st.sampled_from(["i", "ii", "converse"])),
           "thresholds": {"rho_min_factor": draw(st.floats(1e-15, 0.5)),
                          "rho_ref": draw(positive)}}
    # drop optional fields at random, so that the defaults are echoed too
    for section, key in (("potential", "omega"), ("initial_state", "center"),
                         ("initial_state", "relative_weight"), ("labels", "count"),
                         ("labels", "span"), ("thresholds", "rho_ref")):
        if draw(st.booleans()):
            doc[section].pop(key, None)
    for key in ("hbar", "mode", "composition_case"):
        if draw(st.booleans()):
            del doc[key]
    return doc


@settings(max_examples=200, deadline=None)
@given(valid_documents())
def test_echo_parses_to_itself(doc):
    cfg = parse_config(doc)
    again = parse_config(json.loads(json.dumps(cfg.echo)))
    assert again.echo == cfg.echo
    assert repr(again) == repr(cfg)
    assert np.array_equal(np.asarray(cfg.echo["potential"].get("values", [])),
                          np.asarray(doc["potential"].get("values", [])))


def near(bound):
    """Integers around a bound and far beyond it on either side."""
    return (st.integers(bound - 3, bound + 3) | st.integers(-10**400, 10**400)
            | st.integers(0, 4 * bound))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([("grid", "n_points", 16, MAX_GRID_POINTS),
                        ("labels", "count", 5, MAX_LABELS)]), st.data())
def test_size_fields_accept_exactly_their_documented_range(field, data):
    section, key, lo, hi = field
    value = data.draw(near(lo) | near(hi))
    doc = copy.deepcopy(BUNDLED)
    doc[section][key] = value
    cfg = parse_or_reject(doc)
    assert (cfg is not None) == (lo <= value <= hi)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4 * MAX_SOLVER_STEPS // 100), st.sampled_from([0.5, 1.0, 3.0]))
def test_solver_step_count_is_bounded(substeps, t_final):
    # the bundled dt_fields is 0.01, so t_final / dt_solver = 100 t_final substeps
    doc = copy.deepcopy(BUNDLED)
    doc["time"] = {"dt_solver": 0.01 / substeps, "dt_fields": 0.01, "t_final": t_final}
    cfg = parse_or_reject(doc)
    assert (cfg is not None) == (round(100 * t_final) * substeps <= MAX_SOLVER_STEPS)


@settings(max_examples=200, deadline=None)
@given(st.integers(5, MAX_LABELS), st.integers(16, MAX_GRID_POINTS), st.integers(1, 20000),
       st.sampled_from([1, 10, 100]))
def test_held_bytes_are_bounded(count, n_points, steps, every):
    # solver steps of 1e-4, a stored field time every few of them
    doc = copy.deepcopy(BUNDLED)
    doc["labels"]["count"] = count
    doc["grid"]["n_points"] = n_points
    doc["time"] = {"dt_solver": 1e-4, "dt_fields": every * 1e-4, "t_final": steps * 1e-4}
    held = (BYTES_PER_LABEL_STEP * (steps + 1) * count
            + BYTES_PER_GRID_POINT * (steps // every + 1) * n_points)
    cfg = parse_or_reject(doc)
    assert (cfg is not None) == (steps % every == 0 and held <= MAX_HELD_BYTES)
