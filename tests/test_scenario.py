import filecmp
import hashlib
import json
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from oracles import eager_field_snapshots, reference_write_csv

import bihj.fields as fields
import bihj.scenario as scenario
from bihj.errors import ConfigurationError, UnwrapError
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
    named = sum(timings.values())
    assert named >= 0.95 * total, f"{total - named:.6f} s of {total:.6f} s unnamed: {timings}"


def count_derivations(monkeypatch):
    """Counts of derived field snapshots by time, from here on."""
    derived = Counter()
    original = fields.derive_fields

    def counted(wave, *args, **kwargs):
        derived[wave.time] += 1
        return original(wave, *args, **kwargs)

    monkeypatch.setattr(fields, "derive_fields", counted)
    return derived


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
            **bundle.wave.health(),
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

    @staticmethod
    def recurring_blocks():
        """Block lists whose arrays recur in consecutive blocks, in blocks
        apart and within one block, with scalars and arrays of float, int,
        bool and str."""
        x = np.linspace(-1.0, 1.0, 5)
        y = np.r_[np.nan, -0.0, 5e-324, np.inf, 1.0 / 3.0]
        counts = np.arange(5) * 10**17
        flags = np.array([True, False, True, True, False])
        names = np.array(["plus", "minus", "a%d", "100%", "ünï"])
        return {
            "consecutive": [(0.0, x, counts), (1, x, counts), (True, x, flags), ("s", y, flags)],
            "apart": [(0.5, x, names), (np.int64(7), y, flags), (np.bool_(False), x, names),
                      ("%", y, counts), (-0.0, x, names)],
            "within": [(x, 1.5, x, counts, counts), (y, "t", y, flags, y[:3])],
            "every kind": [(x, y, counts, flags, names), (x, x, counts, names, names),
                           (y, x, flags, flags, counts), (y, y, names, counts, flags)],
        }

    @pytest.mark.parametrize("case", ["consecutive", "apart", "within", "every kind"])
    def test_csv_bytes_are_those_of_the_reference_writer(self, tmp_path, case):
        blocks = self.recurring_blocks()[case]
        header = [f"c{i}" for i in range(len(blocks[0]))]
        want = reference_write_csv(tmp_path / "want.csv", header, blocks)
        for name, given in (("list.csv", blocks), ("generator.csv", (b for b in blocks))):
            assert write_csv(tmp_path / name, header, given) == want
            assert (tmp_path / name).read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_csv_releases_a_generator_block_before_the_file_ends(self, tmp_path):
        # the grid recurs in every block, as in fields.csv; each block's own
        # array must be gone two blocks later
        x = np.linspace(-1.0, 1.0, 7)
        refs, alive = [], []

        def blocks():
            for k in range(5):
                if k >= 2:
                    alive.append(refs[k - 2]() is not None)
                values = np.full(7, 0.25 * k)
                refs.append(weakref.ref(values))
                yield k, x, values
                del values

        write_csv(tmp_path / "t.csv", ["k", "x", "v"], blocks())
        assert alive == [False, False, False]
        want = reference_write_csv(tmp_path / "want.csv", ["k", "x", "v"],
                                   [(k, x, np.full(7, 0.25 * k)) for k in range(5)])
        assert hashlib.sha256((tmp_path / "t.csv").read_bytes()).hexdigest() == want

    def fields_csv_digest(self, path, run):
        """The bytes of fields.csv from every snapshot derived at once."""
        cfg = run.config
        snaps = eager_field_snapshots(run.wave, rho_min=cfg.rho_min_factor
                                      * run.wave.snapshots[0].density().max(),
                                      rho_ref=cfg.rho_ref)
        return reference_write_csv(
            path, scenario.FIELD_COLUMNS,
            [(s.time, cfg.grid.x) + tuple(getattr(s, k) for k in scenario.FIELD_COLUMNS[2:])
             for s in snaps])

    def test_analytic_simulate_derives_fields_while_writing_them(self, tmp_path, monkeypatch):
        derived = count_derivations(monkeypatch)
        manifest, run = run_simulate(parse_config(small_doc()), tmp_path)
        timings = json.loads((tmp_path / "timings.json").read_text())
        assert "fields" not in timings and "write:fields.csv" in timings
        # each stored snapshot once, as fields.csv takes it
        assert list(derived) == list(run.wave.times)
        assert manifest["files"]["fields.csv"] == self.fields_csv_digest(tmp_path / "want.csv",
                                                                          run)

    def test_sampled_simulate_writes_the_fields_stage(self, tmp_path):
        # the series the congruences sampled, derived again as it is written
        manifest, run = run_simulate(parse_config(small_doc(solver="crank_nicolson")), tmp_path)
        assert "fields" not in json.loads((tmp_path / "timings.json").read_text())
        assert manifest["files"]["fields.csv"] == self.fields_csv_digest(tmp_path / "want.csv",
                                                                          run)

    def test_derivation_error_while_writing_names_the_fields_stage(self, tmp_path,
                                                                   monkeypatch):
        original = fields.derive_fields

        def failing(wave, *args, **kwargs):
            if wave.time > 0.0:
                raise UnwrapError("phase jump")
            return original(wave, *args, **kwargs)

        monkeypatch.setattr(fields, "derive_fields", failing)
        with pytest.raises(UnwrapError) as err:
            run_simulate(parse_config(small_doc()), tmp_path)
        assert err.value.stage == "fields"
        # the first snapshot was written: 256 grid rows and the header
        assert len((tmp_path / "fields.csv").read_text().splitlines()) == 257

    @staticmethod
    def traced_peak(command, dt_fields, out, solver="analytic"):
        cfg = parse_config(small_doc(
            solver=solver, grid={"x_min": -10.0, "x_max": 10.0, "n_points": 512},
            time={"dt_solver": 0.005, "dt_fields": dt_fields, "t_final": 0.4}))
        tracemalloc.start()
        try:
            command(cfg, out)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # 40 more snapshots of 11 float fields and the valid mask on 512 points
    EXTRA_FIELDS = 40 * 512 * (11 * 8 + 1)

    def test_simulate_memory_does_not_grow_with_the_stored_field_times(self, tmp_path):
        # halving dt_fields doubles the stored field times and keeps the
        # solver steps; the fields of the extra snapshots must not be held
        base = self.traced_peak(run_simulate, 0.01, tmp_path / "a")
        doubled = self.traced_peak(run_simulate, 0.005, tmp_path / "b")
        assert doubled - base < 0.5 * self.EXTRA_FIELDS, (base, doubled, self.EXTRA_FIELDS)

    @pytest.mark.parametrize("command", [run_reconstruct, run_compose])
    def test_sampled_memory_does_not_grow_with_the_stored_field_times(self, tmp_path, command):
        # Crank-Nicolson runs hold the stored wave (16 bytes per point per
        # time), and of the fields only the snapshots that are being read
        base = self.traced_peak(command, 0.01, tmp_path / "a", "crank_nicolson")
        doubled = self.traced_peak(command, 0.005, tmp_path / "b", "crank_nicolson")
        assert doubled - base < 0.5 * self.EXTRA_FIELDS, (base, doubled, self.EXTRA_FIELDS)

    def test_sampled_commands_derive_each_snapshot_a_few_times(self, tmp_path, monkeypatch):
        # the time side of deriving snapshots when they are read: reconstruct
        # walks the stored times once, and derives the first again for the
        # initial profiles of its pair; compose walks them at most five times
        derived = count_derivations(monkeypatch)
        cfg = parse_config(small_doc(solver="crank_nicolson"))
        n = cfg.field_steps + 1
        for name, command, walks in (("reconstruct", run_reconstruct, 1),
                                     ("compose", run_compose, 5)):
            derived.clear()
            _, run = command(cfg, tmp_path / name)
            assert set(derived) == set(run.wave.times) and len(derived) == n, name
            assert max(derived.values()) <= walks + (name == "reconstruct"), (name, derived)
            assert sum(derived.values()) <= walks * n + 1, (name, derived)
            assert_stages_cover_total(tmp_path / name)

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
        # each command marches the congruences it uses in one call
        marches = []
        original = scenario.integrate_congruence

        def counted(source, *args, **kwargs):
            marches.append(source.flows)
            return original(source, *args, **kwargs)

        monkeypatch.setattr(scenario, "integrate_congruence", counted)
        cfg = parse_config(small_doc())
        for name, run, expected in (
                ("fig3", lambda out: run_figure(cfg, out, "fig3"), ("plus",)),
                ("fig2", lambda out: run_figure(cfg, out, "fig2"), ("dbb", "plus", "minus")),
                ("compose", lambda out: run_compose(cfg, out, "i"), ("plus", "minus")),
                ("compose ii", lambda out: run_compose(cfg, out, "ii"),
                 ("half_plus", "plus", "minus")),
                ("compose converse", lambda out: run_compose(cfg, out, "converse"),
                 ("dbb", "plus", "minus")),
                ("reconstruct", lambda out: run_reconstruct(cfg, out), ("plus", "minus", "dbb")),
                ("simulate", lambda out: run_simulate(cfg, out), ("plus", "minus", "dbb"))):
            marches.clear()
            run(tmp_path / name)
            assert marches == [expected], name
            assert_stages_cover_total(tmp_path / name)

    def test_congruence_health_is_the_closed_form(self, tmp_path):
        # the bundled scenario: q = q0 scale(t), so the smallest gap between
        # paths is h0 min_t scale(t), and the smallest J is min_t scale(t)
        from bihj import gaussian
        cfg = load_config(Path(scenario.__file__).parent / "data" / "gaussian.json")
        g = gaussian.GaussianParams(cfg.initial_state.sigma0, cfg.hbar, cfg.mass)
        times = np.arange(cfg.solver_steps + 1) * cfg.dt_solver
        span = cfg.label_span
        h0 = (span["hi"] - span["lo"]) / (cfg.label_count - 1)
        manifest, _ = run_reconstruct(cfg, tmp_path / "a")
        health = manifest["diagnostics"]
        assert set(health) == {"plus", "minus", "dbb"}
        for kind, numbers in health.items():
            scale = gaussian.path_scale(g, kind, times).min()
            assert numbers["min_path_spacing"] == pytest.approx(h0 * scale, rel=1e-9)
            assert numbers["min_expansion_factor"] == pytest.approx(scale, rel=1e-9)
        again, _ = run_reconstruct(cfg, tmp_path / "b")
        assert again["diagnostics"] == health
        assert json.loads((tmp_path / "a" / "manifest.json").read_text())["diagnostics"] == health

    def test_wave_health_is_the_closed_form(self, tmp_path):
        # the bundled scenario stores the closed form at every field time: its
        # norm is 1 to roundoff, and its density peaks at the grid points
        # +-dx/2 nearest x = 0 and is largest at the edges x = +-10 at t = 1,
        # where sigma(t) is largest
        from bihj import gaussian
        cfg = parse_config(scenario.bundled_scenario())
        g = gaussian.GaussianParams(cfg.initial_state.sigma0, cfg.hbar, cfg.mass)
        bundle = scenario.RunBundle("simulate", cfg, tmp_path / "a")
        bundle.wave
        health = bundle.diagnostics
        assert set(health) == {"norm_drift", "boundary_density_ratio"}
        assert health["norm_drift"] <= 1e-14
        edge, peak = cfg.grid.x_max, cfg.grid.dx / 2
        assert health["boundary_density_ratio"] == pytest.approx(
            np.exp(-(edge**2 - peak**2) / (2.0 * g.sigma(cfg.t_final) ** 2)), rel=1e-9)
        again = scenario.RunBundle("simulate", cfg, tmp_path / "b")
        again.wave
        assert again.diagnostics == health

    def test_empty_bundle_emits_manifest_only(self, tmp_path):
        from bihj.scenario import RunBundle
        cfg = parse_config(small_doc())
        bundle = RunBundle("simulate", cfg, tmp_path)
        manifest = bundle.finish()
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"manifest.json", "timings.json"}
        assert manifest["checks"] == []
        assert manifest["diagnostics"] == {}
