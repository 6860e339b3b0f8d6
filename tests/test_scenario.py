import filecmp
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

import bihj.scenario as scenario
from bihj.errors import ConfigurationError
from bihj.scenario import (
    CSV_CHUNK_ROWS,
    load_config,
    parse_config,
    run_compose,
    run_figure,
    run_oracle_table,
    run_reconstruct,
    run_simulate,
    write_csv,
)

SIGMA0 = np.sqrt(0.5)


def small_doc(**overrides):
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
    doc.update(overrides)
    return doc


class TestConfig:
    def test_all_violations_reported_at_once(self):
        doc = small_doc(
            hbar=-1.0,
            grid={"x_min": 5.0, "x_max": -5.0, "n_points": 8},
            mode="sideways",
        )
        with pytest.raises(ConfigurationError) as err:
            parse_config(doc)
        text = str(err.value)
        for fragment in ("hbar", "x_min < x_max", "n_points", "mode"):
            assert fragment in text

    def test_n_points_floor(self):
        with pytest.raises(ConfigurationError, match="n_points"):
            parse_config(small_doc(grid={"x_min": -10.0, "x_max": 10.0, "n_points": 8}))

    def test_dt_relationship_enforced(self):
        with pytest.raises(ConfigurationError, match="dt_fields"):
            parse_config(small_doc(time={"dt_solver": 0.01, "dt_fields": 0.005,
                                         "t_final": 0.1}))
        with pytest.raises(ConfigurationError, match="integer multiple"):
            parse_config(small_doc(time={"dt_solver": 0.003, "dt_fields": 0.01,
                                         "t_final": 0.1}))
        # the step ratio overflows to infinity
        with pytest.raises(ConfigurationError, match="integer multiple"):
            parse_config(small_doc(time={"dt_solver": 1e-300, "dt_fields": 1e10,
                                         "t_final": 1e10}))

    def test_analytic_solver_needs_gaussian_at_rest(self):
        doc = small_doc(initial_state={"kind": "two_gaussian", "sigma0": SIGMA0,
                                       "separation": 2.0})
        with pytest.raises(ConfigurationError, match="analytic"):
            parse_config(doc)

    def test_round_trip_idempotent(self):
        potentials = [{"kind": "free"}, {"kind": "harmonic", "omega": 0.5},
                      {"kind": "sampled", "values": [0.01 * k for k in range(256)]}]
        states = [{"kind": "gaussian", "sigma0": SIGMA0, "center": 0.5, "momentum": 1.0},
                  {"kind": "two_gaussian", "sigma0": SIGMA0, "separation": 2.0,
                   "relative_phase": 0.3, "relative_weight": 0.25}]
        docs = [small_doc()] + [small_doc(potential=p, initial_state=st, solver="crank_nicolson")
                                for p in potentials for st in states]
        for doc in docs:
            cfg = parse_config(doc)
            echoed = parse_config(cfg.echo)
            assert echoed.echo == cfg.echo

    @pytest.mark.parametrize("path, value", [
        ("hbar", "1"), ("mass", True), ("potential.omega", "0.5"),
        ("grid.x_min", None), ("grid.n_points", 256.0), ("grid.n_points", "256"),
        ("initial_state.sigma0", [0.7]), ("initial_state.center", "0"),
        ("initial_state.momentum", False), ("time.dt_solver", "0.002"),
        ("time.t_final", {}), ("labels.count", "5"), ("labels.count", True),
        ("labels.span.lo", "-2"), ("thresholds.rho_ref", "1"),
        ("hbar", float("nan")), ("time.t_final", float("inf")), ("output_dir", 5),
        ("hbar", 10**400), ("thresholds", 5), ("labels.span", "explicit"),
        ("output_dir", None),
    ])
    def test_wrong_type_is_a_configuration_error(self, path, value):
        doc = json.loads(json.dumps(small_doc(potential={"kind": "harmonic", "omega": 0.5},
                                              solver="crank_nicolson")))
        *parents, leaf = path.split(".")
        node = doc
        for part in parents:
            node = node[part]
        node[leaf] = value
        with pytest.raises(ConfigurationError, match=f"field {path} must be"):
            parse_config(doc)

    def test_unknown_field_is_reported(self):
        doc = small_doc(thresholds={"rho_min_factr": 1e-3, "rho_ref": 1.0}, extra=1)
        doc["grid"]["x_min"] = "low"
        with pytest.raises(ConfigurationError) as err:
            parse_config(doc)
        text = str(err.value)
        for fragment in ("unknown field thresholds.rho_min_factr", "unknown field extra",
                         "field grid.x_min must be"):
            assert fragment in text

    def test_analytic_solver_needs_centre_zero(self):
        # the closed-form fields of the analytic solver describe a gaussian at x = 0
        doc = small_doc(initial_state={"kind": "gaussian", "sigma0": SIGMA0, "center": 1.0})
        with pytest.raises(ConfigurationError, match="analytic"):
            parse_config(doc)
        parse_config(dict(doc, solver="crank_nicolson"))

    def test_sampled_potential_values_validated(self):
        with pytest.raises(ConfigurationError, match="missing field potential.values"):
            parse_config(small_doc(potential={"kind": "sampled"}, solver="crank_nicolson"))
        with pytest.raises(ConfigurationError, match="256 entries, got 3"):
            parse_config(small_doc(potential={"kind": "sampled", "values": [0.0, 1.0, 2.0]},
                                   solver="crank_nicolson"))
        with pytest.raises(ConfigurationError, match="numbers only"):
            parse_config(small_doc(potential={"kind": "sampled", "values": ["0"] * 256},
                                   solver="crank_nicolson"))

    def test_autonomous_mode_needs_a_potential_off_the_grid(self):
        sampled = {"kind": "sampled", "values": [0.0] * 256}
        with pytest.raises(ConfigurationError) as err:
            parse_config(small_doc(potential=sampled, solver="crank_nicolson", mode="autonomous"))
        assert str(err.value).count("\n  - ") == 1
        assert "mode=autonomous needs a free or harmonic potential" in str(err.value)
        for potential in ({"kind": "free"}, {"kind": "harmonic", "omega": 1.0}):
            assert parse_config(small_doc(potential=potential, solver="crank_nicolson",
                                          mode="autonomous")).mode == "autonomous"

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(small_doc()))
        cfg = load_config(path)
        assert cfg.grid.n_points == 256
        for text, message in (('{"hbar": 1,', "is not valid JSON"),
                              ("[1, 2]", "must be a JSON object")):
            path.write_text(text)
            with pytest.raises(ConfigurationError, match=message):
                load_config(path)
        with pytest.raises(ConfigurationError, match="cannot read scenario .*missing.json"):
            load_config(tmp_path / "missing.json")


def assert_stages_cover_total(out_dir):
    """The named stages of timings.json account for at least 95% of the run."""
    timings = json.loads((out_dir / "timings.json").read_text())
    total = timings.pop("total")
    assert sum(timings.values()) >= 0.95 * total, timings


def per_value_csv(header, columns):
    """The value-by-value CSV formatting the row-format writer replaced."""
    def fmt(value):
        if isinstance(value, (float, np.floating)):
            return "%.17g" % value
        if isinstance(value, (int, np.integer, np.bool_)):
            return str(int(value))
        return str(value)
    lines = [",".join(header)] + [",".join(fmt(v) for v in row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


def block_columns(blocks):
    """The columns of row blocks, a scalar entry repeated value by value."""
    columns = [[] for _ in blocks[0]]
    for block in blocks:
        n = min(len(e) for e in block if np.ndim(e))
        for column, e in zip(columns, block):
            column += list(e[:n]) if np.ndim(e) else [e] * n
    return columns


def assert_writes_per_value(path, header, blocks):
    """write_csv gives the per-value bytes of the blocks and returns their SHA-256."""
    digest = write_csv(path, header, blocks)
    data = path.read_bytes()
    assert data.decode("utf-8") == per_value_csv(header, block_columns(blocks))
    assert digest == hashlib.sha256(data).hexdigest()


class TestOutputs:
    def test_simulate_emits_declared_schemas(self, tmp_path):
        cfg = parse_config(small_doc())
        manifest, bundle = run_simulate(cfg, tmp_path)
        assert_stages_cover_total(tmp_path)
        assert set(manifest["files"]) == {"reference_fields.csv", "fields.csv",
                                          "trajectories.csv", "timings.json"}
        heads = {
            "reference_fields.csv": "time,x,re_psi,im_psi",
            "fields.csv": "time,x,rho,S,S_plus,S_minus,v_plus,v_minus,Q_plus,Q_minus,valid",
            "trajectories.csv": "congruence_id,label_index,q0,time,q,qdot,J,chi",
        }
        for name, head in heads.items():
            assert (tmp_path / name).read_text().splitlines()[0] == head
        listed = json.loads((tmp_path / "manifest.json").read_text())
        assert set(listed["files"]) == set(manifest["files"])

    def test_autonomous_simulate_emits_crossmap(self, tmp_path):
        cfg = parse_config(small_doc(
            mode="autonomous",
            time={"dt_solver": 0.001, "dt_fields": 0.01, "t_final": 0.05}))
        manifest, bundle = run_simulate(cfg, tmp_path)
        assert_stages_cover_total(tmp_path)
        assert "crossmap.csv" in manifest["files"]
        head = (tmp_path / "crossmap.csv").read_text().splitlines()[0]
        assert head == "time,q_plus0,q_minus0"
        # the health diagnostics reach the manifest and repeat exactly
        diagnostics = bundle.autonomous.diagnostics
        extrap = diagnostics["max_partner_extrapolation"]
        spacing = diagnostics["min_path_spacing"]
        assert extrap > 0.0 and spacing > 0.0
        listed = json.loads((tmp_path / "manifest.json").read_text())
        assert listed["diagnostics"] == {
            "max_partner_extrapolation": extrap,
            "min_path_spacing": spacing,
            "max_dt_hbar_over_m_h2": cfg.dt_solver * cfg.params.hbar
            / (cfg.params.mass * spacing**2),
        }
        again, _ = run_simulate(cfg, tmp_path / "again")
        assert again["diagnostics"] == listed["diagnostics"]
        assert again["files"] == manifest["files"]

    def test_compose_emits_composition_and_sources(self, tmp_path):
        cfg = parse_config(small_doc())
        manifest, bundle = run_compose(cfg, tmp_path)
        assert_stages_cover_total(tmp_path)
        assert (tmp_path / "composition.csv").read_text().splitlines()[0] == \
            "case_id,q_C0,time,Q_B,q_C,J_B,J_C,residual"
        assert (tmp_path / "sources.csv").read_text().splitlines()[0] == \
            "congruence_id,q0,time,c,rho_ratio"
        assert bundle.all_passed

    def test_reconstruct_schema_and_check(self, tmp_path):
        cfg = parse_config(small_doc())
        manifest, bundle = run_reconstruct(cfg, tmp_path)
        assert_stages_cover_total(tmp_path)
        head = (tmp_path / "reconstruction.csv").read_text().splitlines()[0]
        assert head == ("x,t,re_psi_bihj,im_psi_bihj,re_psi_polar,im_psi_polar,"
                        "re_psi_ref,im_psi_ref,abs_err_bihj,abs_err_polar")
        assert bundle.all_passed

    def test_figures(self, tmp_path):
        cfg = parse_config(small_doc())
        run_figure(cfg, tmp_path / "f2", "fig2")
        assert (tmp_path / "f2" / "fig2.csv").read_text().splitlines()[0] == \
            "series,q0,time,value"
        run_figure(cfg, tmp_path / "f3", "fig3")
        for fig in ("f2", "f3"):
            assert_stages_cover_total(tmp_path / fig)
        lines = (tmp_path / "f3" / "fig3.csv").read_text().splitlines()
        assert lines[0] == "case_id,series,q0,time,value"
        kinds = {line.split(",")[1] for line in lines[1:]}
        assert kinds == {"qA_family", "QB", "qC"}

    def test_oracle_table_mentions_values(self):
        cfg = parse_config(small_doc())
        text = run_oracle_table(cfg)
        assert "0.644794" in text  # plus path at (1, 1)
        assert "2.193280" in text  # label generator, first case

    def test_oracle_table_needs_free_potential(self):
        cfg = parse_config(small_doc(potential={"kind": "harmonic", "omega": 0.5},
                                     solver="crank_nicolson"))
        with pytest.raises(ConfigurationError, match="free gaussian"):
            run_oracle_table(cfg)

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        cfg = parse_config(small_doc(solver="crank_nicolson"))
        m1, _ = run_simulate(cfg, tmp_path / "a")
        m2, _ = run_simulate(cfg, tmp_path / "b")
        for name, digest in m1["files"].items():
            if name == "timings.json":
                continue
            assert digest == m2["files"][name]
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)

    def test_csv_floats_carry_17_significant_digits(self, tmp_path):
        write_csv(tmp_path / "t.csv", ["a"], [(np.array([1.0 / 3.0]),)])
        assert tmp_path.joinpath("t.csv").read_text() == "a\n0.33333333333333331\n"

    def test_csv_rows_match_per_value_format(self, tmp_path):
        n = 2 * CSV_CHUNK_ROWS + 3  # two chunk boundaries
        rng = np.random.default_rng(3)
        floats = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
        floats[:6] = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324]
        ints = rng.integers(-2**62, 2**62, size=n)
        ints[0] = np.iinfo(np.int64).min
        names = np.full(n, "plus", dtype=object)
        names[CSV_CHUNK_ROWS] = "minus"
        columns = [floats, ints, names, names.astype(str), rng.normal(size=n)]
        assert_writes_per_value(tmp_path / "t.csv", ["f", "i", "s", "u", "g"], [columns])

    @pytest.mark.parametrize("scalar", [
        -0.0, np.float64(-0.0), np.nan, np.inf, -np.inf, 5e-324, np.float64(5e-324),
        np.iinfo(np.int64).min, np.int64(np.iinfo(np.int64).min), 7, np.bool_(True),
        np.bool_(False), True, "a%d %s %% ünï ∂x", np.str_("100%"),
    ], ids=repr)
    def test_csv_scalar_entries_match_per_value_format(self, tmp_path, scalar):
        rows = np.array([0.1, -2.5, 1e300])
        blocks = [(scalar, rows, "%"), (1.5, rows[:2], scalar)]
        assert_writes_per_value(tmp_path / "t.csv", ["s", "v", "t"], blocks)

    def test_csv_recurring_array_is_written_per_block(self, tmp_path):
        x = np.linspace(-1.0, 1.0, 7)
        same = x.copy()  # equal values, another object
        counts = np.arange(7) * 10**17
        whole = counts.astype(float)  # equal values, written in another format
        blocks = [(t, x, same, counts, whole, x) for t in (0.0, 0.5, 1.0)]
        blocks.append((2.0, same, x, whole, counts, same))
        assert_writes_per_value(tmp_path / "t.csv", ["t", "a", "b", "c", "d", "e"], blocks)
        lines = tmp_path.joinpath("t.csv").read_text().splitlines()
        third = "-0.66666666666666674"
        assert lines[2] == f"0,{third},{third},100000000000000000,1e+17,{third}"

    def test_csv_blocks_longer_than_a_chunk(self, tmp_path):
        n = 2 * CSV_CHUNK_ROWS + 3
        rng = np.random.default_rng(5)
        x = rng.normal(size=n)
        blocks = [(k, x, rng.normal(size=n), "plus" if k % 2 else "minus") for k in range(3)]
        blocks.append((3, x[:CSV_CHUNK_ROWS + 1], rng.normal(size=n), "dbb"))
        assert_writes_per_value(tmp_path / "t.csv", ["k", "x", "y", "id"], blocks)

    def test_csv_write_memory_stays_within_a_few_chunks(self, tmp_path):
        # a fields.csv-shaped file: 101 snapshots of 2048 rows and 11 columns,
        # with the grid recurring in every block
        from bihj.scenario import RunBundle
        rng = np.random.default_rng(7)
        x = np.linspace(-10.0, 10.0, 2048)
        blocks = [(0.01 * k, x) + tuple(rng.normal(size=2048) for _ in range(8))
                  + (rng.random(2048) < 0.9,) for k in range(101)]
        run = RunBundle("simulate", parse_config(small_doc()), tmp_path)
        tracemalloc.start()
        try:
            run.emit_csv("fields.csv", scenario.FIELD_COLUMNS, blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "fields.csv").stat().st_size > 30 * 2**20
        assert peak < 8 * 2**20, peak

    def test_analytic_runs_skip_field_extraction(self, tmp_path, monkeypatch):
        calls = []
        original = scenario.derive_series

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(scenario, "derive_series", counted)
        cfg = parse_config(small_doc())
        run_compose(cfg, tmp_path / "a")
        run_reconstruct(cfg, tmp_path / "b")
        assert calls == []
        run_compose(parse_config(small_doc(solver="crank_nicolson")), tmp_path / "c")
        assert calls == [1]

    def test_commands_build_only_the_congruences_they_use(self, tmp_path, monkeypatch):
        calls = []
        original = scenario.integrate_congruence

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(scenario, "integrate_congruence", counted)
        cfg = parse_config(small_doc())
        for name, run, expected in (
                ("fig3", lambda out: run_figure(cfg, out, "fig3"), 1),
                ("compose", lambda out: run_compose(cfg, out, "i"), 2),
                ("reconstruct", lambda out: run_reconstruct(cfg, out), 3),
                ("simulate", lambda out: run_simulate(cfg, out), 3)):
            calls.clear()
            run(tmp_path / name)
            assert len(calls) == expected, name
            assert_stages_cover_total(tmp_path / name)

    def test_empty_bundle_emits_manifest_only(self, tmp_path):
        from bihj.scenario import RunBundle
        cfg = parse_config(small_doc())
        bundle = RunBundle("simulate", cfg, tmp_path)
        manifest = bundle.finish()
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"manifest.json", "timings.json"}
        assert manifest["checks"] == []
        assert manifest["diagnostics"] == {}
