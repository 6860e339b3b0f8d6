"""Scenario configuration, run orchestration and deterministic output files.

A scenario is a JSON document with snake_case fields mirroring
``ScenarioConfig``.  All floating point output is serialised with 17
significant digits, CSV files use comma separators with LF endings, and JSON
files are written with sorted keys, so identical configurations yield
byte-identical data files.  Wall-clock timings are isolated in
``timings.json``, the one intentionally non-deterministic output.
"""
import hashlib
import json
import math
import numbers
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline

from . import gaussian
from .autonomous import BiCongruence, cross_map, propagate_autonomous
from .compose import (
    CompositionSetup,
    compose_trajectories,
    conservation_check,
    source_term,
)
from .congruence import (
    CallableSource,
    FieldActionRate,
    FieldSource,
    LabelSet,
    ScaledSource,
    integrate_congruence,
)
from .errors import ConfigurationError
from .fields import derive_series
from .reconstruct import reconstruction_probe
from .reference import (
    InitialStateSpec,
    PhysicalParams,
    Potential,
    SpatialGrid,
    analytic_series,
    build_initial_state,
    evolve_crank_nicolson,
)

MODES = ("reference_driven", "autonomous")
SOLVERS = ("analytic", "crank_nicolson")
CASES = ("i", "ii", "converse")


# ---------- configuration ----------

@dataclass(frozen=True)
class ScenarioConfig:
    hbar: float
    mass: float
    potential: Potential
    grid: SpatialGrid
    initial_state: InitialStateSpec
    dt_solver: float
    dt_fields: float
    t_final: float
    label_count: int
    label_span: dict
    mode: str
    solver: str
    composition_case: str
    rho_min_factor: float
    rho_ref: float
    output_dir: str | None
    echo: dict = field(repr=False, default_factory=dict)

    @property
    def params(self):
        return PhysicalParams(self.hbar, self.mass, self.potential)

    @property
    def store_every(self):
        return int(round(self.dt_fields / self.dt_solver))

    @property
    def solver_steps(self):
        return int(round(self.t_final / self.dt_solver))

    @property
    def field_steps(self):
        return int(round(self.t_final / self.dt_fields))


def _near_integer(x, tol=1e-9):
    return abs(x - round(x)) <= tol * max(1.0, abs(x))


_KIND_NAMES = {numbers.Real: "a number", numbers.Integral: "an integer", list: "a list"}


def parse_config(doc):
    """Validate a scenario document, reporting every violated constraint."""
    problems = []
    real, integer = numbers.Real, numbers.Integral

    def need(path, default=None, kind=None):
        node = doc
        for part in path.split("."):
            if not isinstance(node, dict) or part not in node:
                if default is not None:
                    return default
                problems.append(f"missing field {path}")
                return None
            node = node[part]
        if kind is not None and (isinstance(node, bool) or not isinstance(node, kind)):
            problems.append(f"field {path} must be {_KIND_NAMES[kind]}, got {node!r}")
            return default
        if kind is real and not math.isfinite(node):
            problems.append(f"field {path} must be finite, got {node!r}")
            return default
        return node

    hbar = need("hbar", 1.0, real)
    mass = need("mass", 1.0, real)
    if hbar is not None and hbar <= 0:
        problems.append(f"hbar must be positive, got {hbar}")
    if mass is not None and mass <= 0:
        problems.append(f"mass must be positive, got {mass}")

    pot_kind = need("potential.kind", "free")
    omega = need("potential.omega", 0.0, real)
    if pot_kind not in ("free", "harmonic", "sampled"):
        problems.append(f"potential.kind must be free|harmonic|sampled, got {pot_kind!r}")
    elif pot_kind == "harmonic" and omega < 0:
        problems.append(f"potential.omega must be nonnegative, got {omega}")

    x_min = need("grid.x_min", kind=real)
    x_max = need("grid.x_max", kind=real)
    n_points = need("grid.n_points", kind=integer)
    if x_min is not None and x_max is not None and not x_min < x_max:
        problems.append(f"grid needs x_min < x_max, got [{x_min}, {x_max}]")
    if n_points is not None and n_points < 16:
        problems.append(f"grid.n_points must be at least 16, got {n_points}")

    values = need("potential.values", kind=list) if pot_kind == "sampled" else None
    if values is not None:
        if not all(isinstance(v, real) and not isinstance(v, bool) for v in values):
            problems.append("potential.values must hold numbers only")
        elif n_points is not None and len(values) != n_points:
            problems.append(f"potential.values needs grid.n_points = {n_points} entries, "
                            f"got {len(values)}")

    st_kind = need("initial_state.kind", "gaussian")
    sigma0 = need("initial_state.sigma0", kind=real)
    weight = need("initial_state.relative_weight", 0.5, real)
    momentum = need("initial_state.momentum", 0.0, real)
    center = need("initial_state.center", 0.0, real)
    separation = need("initial_state.separation", 0.0, real)
    relative_phase = need("initial_state.relative_phase", 0.0, real)
    if st_kind not in ("gaussian", "two_gaussian"):
        problems.append(f"initial_state.kind must be gaussian|two_gaussian, got {st_kind!r}")
    if sigma0 is not None and sigma0 <= 0:
        problems.append(f"initial_state.sigma0 must be positive, got {sigma0}")
    if not 0.0 <= weight <= 1.0:
        problems.append(f"initial_state.relative_weight must be in [0, 1], got {weight}")

    dt_solver = need("time.dt_solver", kind=real)
    dt_fields = need("time.dt_fields", kind=real)
    t_final = need("time.t_final", kind=real)
    if dt_solver is not None and dt_solver <= 0:
        problems.append(f"time.dt_solver must be positive, got {dt_solver}")
    if dt_fields is not None and dt_solver is not None and dt_solver > 0:
        if dt_fields < dt_solver:
            problems.append("time.dt_fields must be at least dt_solver")
        elif not _near_integer(dt_fields / dt_solver):
            problems.append("time.dt_fields must be an integer multiple of dt_solver")
    if t_final is not None:
        if t_final <= 0:
            problems.append(f"time.t_final must be positive, got {t_final}")
        elif dt_fields and dt_fields > 0 and not _near_integer(t_final / dt_fields):
            problems.append("time.t_final must be an integer multiple of dt_fields")

    label_count = need("labels.count", 101, integer)
    if label_count < 2:
        problems.append(f"labels.count must be at least 2, got {label_count}")
    span_kind = need("labels.span.kind", "density_floor")
    span = {"kind": span_kind}
    if span_kind == "density_floor":
        floor = need("labels.span.floor", 1e-6, real)
        if not 0.0 < floor < 1.0:
            problems.append(f"labels.span.floor must be in (0, 1), got {floor}")
        span["floor"] = floor
    elif span_kind == "explicit":
        lo = need("labels.span.lo", kind=real)
        hi = need("labels.span.hi", kind=real)
        if lo is not None and hi is not None and not lo < hi:
            problems.append(f"labels.span needs lo < hi, got [{lo}, {hi}]")
        span["lo"] = lo
        span["hi"] = hi
    else:
        problems.append(f"labels.span.kind must be density_floor|explicit, got {span_kind!r}")

    mode = need("mode", "reference_driven")
    if mode not in MODES:
        problems.append(f"mode must be one of {MODES}, got {mode!r}")
    solver = need("solver", "crank_nicolson")
    if solver not in SOLVERS:
        problems.append(f"solver must be one of {SOLVERS}, got {solver!r}")
    if solver == "analytic" and (st_kind != "gaussian" or momentum != 0.0 or pot_kind != "free"):
        problems.append("solver=analytic needs a free gaussian at rest")
    case = need("composition_case", "i")
    if case not in CASES:
        problems.append(f"composition_case must be one of {CASES}, got {case!r}")

    rho_min_factor = need("thresholds.rho_min_factor", 1e-12, real)
    rho_ref = need("thresholds.rho_ref", 1.0, real)
    output_dir = need("output_dir", "")
    if output_dir is not None and not isinstance(output_dir, str):
        problems.append(f"field output_dir must be a string, got {output_dir!r}")
    if not 0.0 < rho_min_factor < 1.0:
        problems.append(f"thresholds.rho_min_factor must be in (0, 1), got {rho_min_factor}")
    if rho_ref <= 0:
        problems.append(f"thresholds.rho_ref must be positive, got {rho_ref}")

    if problems:
        raise ConfigurationError("invalid scenario configuration:\n  - " + "\n  - ".join(problems))

    potential = {"free": Potential.free, "harmonic": lambda: Potential.harmonic(omega),
                 "sampled": lambda: Potential.sampled(values)}[pot_kind]()
    grid = SpatialGrid(float(x_min), float(x_max), int(n_points))
    if st_kind == "gaussian":
        state = InitialStateSpec.gaussian(float(sigma0), center=float(center),
                                          momentum=float(momentum))
    else:
        state = InitialStateSpec.two_gaussian(float(sigma0),
                                              separation=float(separation),
                                              relative_phase=float(relative_phase),
                                              relative_weight=float(weight))
    cfg = ScenarioConfig(
        hbar=float(hbar), mass=float(mass), potential=potential, grid=grid,
        initial_state=state, dt_solver=float(dt_solver), dt_fields=float(dt_fields),
        t_final=float(t_final), label_count=int(label_count), label_span=span,
        mode=mode, solver=solver, composition_case=case,
        rho_min_factor=float(rho_min_factor), rho_ref=float(rho_ref),
        output_dir=output_dir or None, echo=config_echo_dict(
            hbar, mass, potential, grid, state, dt_solver, dt_fields, t_final,
            label_count, span, mode, solver, case, rho_min_factor, rho_ref, output_dir),
    )
    return cfg


def config_echo_dict(hbar, mass, potential, grid, state, dt_solver, dt_fields,
                     t_final, label_count, span, mode, solver, case,
                     rho_min_factor, rho_ref, output_dir):
    echo = {
        "hbar": hbar, "mass": mass,
        "potential": {"kind": potential.kind},
        "grid": {"x_min": grid.x_min, "x_max": grid.x_max, "n_points": grid.n_points},
        "initial_state": {"kind": state.kind, "sigma0": state.sigma0},
        "time": {"dt_solver": dt_solver, "dt_fields": dt_fields, "t_final": t_final},
        "labels": {"count": label_count, "span": span},
        "mode": mode, "solver": solver, "composition_case": case,
        "thresholds": {"rho_min_factor": rho_min_factor, "rho_ref": rho_ref},
        "output_dir": output_dir,
    }
    if potential.kind == "harmonic":
        echo["potential"]["omega"] = potential.omega
    elif potential.kind == "sampled":
        echo["potential"]["values"] = potential.values.tolist()
    if state.kind == "gaussian":
        echo["initial_state"].update(center=state.center, momentum=state.momentum)
    else:
        echo["initial_state"].update(separation=state.separation,
                                     relative_phase=state.relative_phase,
                                     relative_weight=state.relative_weight)
    return echo


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(json.load(fh))


# ---------- field access, analytic or sampled ----------

class FieldLibrary:
    """Uniform access to velocity fields, density and action rates."""

    def __init__(self, config, fseries=None):
        self.config = config
        self.fseries = fseries
        self.analytic = config.solver == "analytic"
        if self.analytic:
            self.g = gaussian.GaussianParams(config.initial_state.sigma0,
                                             config.hbar, config.mass)
        elif fseries is None:
            raise ConfigurationError("a sampled field library needs a field series")

    def source(self, name, factor=1.0):
        if self.analytic:
            key = {"v": "dbb", "v_plus": "plus", "v_minus": "minus", "u": "u"}[name]
            src = CallableSource(*gaussian.velocity_field(self.g, key))
        else:
            src = FieldSource(self.fseries, name)
        return src if factor == 1.0 else ScaledSource(src, factor)

    def rho(self):
        if self.analytic:
            return lambda x, t: gaussian.rho(self.g, x, t)
        return FieldSource(self.fseries, "rho").velocity

    def rho0(self):
        if self.analytic:
            return lambda q: gaussian.rho(self.g, q, 0.0)
        snap = self.fseries.snapshots[0]
        a, b = max(snap.runs(), key=lambda r: r[1] - r[0])
        sp = CubicSpline(snap.grid.x[a:b], snap.rho[a:b])
        return sp

    def action_rate(self, which):
        if self.analytic:
            return gaussian.action_rate(self.g, which)
        return FieldActionRate(self.fseries, which)

    def initial_action(self, which):
        rho_ref = self.config.rho_ref
        if self.analytic:
            table = {"plus": lambda q: gaussian.action_plus(self.g, q, 0.0, rho_ref),
                     "minus": lambda q: gaussian.action_minus(self.g, q, 0.0, rho_ref),
                     "polar": lambda q: gaussian.phase_action(self.g, q, 0.0)}
            return table[which]
        snap = self.fseries.snapshots[0]
        a, b = max(snap.runs(), key=lambda r: r[1] - r[0])
        arr = {"plus": snap.S_plus, "minus": snap.S_minus, "polar": snap.S}[which]
        return CubicSpline(snap.grid.x[a:b], arr[a:b])

    def psi(self):
        if self.analytic:
            return lambda x, t: gaussian.psi(self.g, x, t)
        return None


# ---------- run pipeline pieces ----------

def build_reference(config):
    params = config.params
    if config.solver == "analytic":
        times = np.arange(config.field_steps + 1) * config.dt_fields
        return analytic_series(config.initial_state, config.grid, params, times)
    snap = build_initial_state(config.initial_state, config.grid, params)
    return evolve_crank_nicolson(snap, params, config.dt_solver,
                                 config.solver_steps, store_every=config.store_every)


def build_fields(config, wave):
    rho_min = config.rho_min_factor * wave.snapshots[0].density().max()
    return derive_series(wave, rho_min=rho_min, rho_ref=config.rho_ref)


def build_labels(config, library):
    span = config.label_span
    if span["kind"] == "explicit":
        return LabelSet.uniform(span["lo"], span["hi"], config.label_count)
    rho0 = library.rho0()
    return LabelSet.from_density(rho0, config.grid.x_min, config.grid.x_max,
                                 count=config.label_count, floor=span["floor"])


def solver_times(config):
    return np.arange(config.solver_steps + 1) * config.dt_solver


def build_congruences(config, library, labels):
    """Reference-driven plus/minus/mean-flow congruences and the coupled pair."""
    times = solver_times(config)
    plus = integrate_congruence(library.source("v_plus"), labels, times,
                                action_rate=library.action_rate("plus"),
                                initial_actions=library.initial_action("plus"))
    minus = integrate_congruence(library.source("v_minus"), labels, times,
                                 action_rate=library.action_rate("minus"),
                                 initial_actions=library.initial_action("minus"))
    dbb = integrate_congruence(library.source("v"), labels, times,
                               action_rate=library.action_rate("polar"),
                               initial_actions=library.initial_action("polar"))
    bi = BiCongruence.from_congruences(config.params, plus, minus,
                                       library.initial_action("plus"),
                                       library.initial_action("minus"),
                                       rho_ref=config.rho_ref)
    return {"plus": plus, "minus": minus, "dbb": dbb, "bi": bi}


def build_autonomous(config, library, labels):
    steps = config.solver_steps
    return propagate_autonomous(library.initial_action("plus"),
                                library.initial_action("minus"),
                                labels, config.params, config.dt_solver, steps,
                                rho_ref=config.rho_ref)


def composition_setup(config, library, bundle, case=None):
    """Host congruence, complement field and generator labels for one case."""
    case = case or config.composition_case
    labels = bundle["plus"].labels
    lo, hi = labels.values[0], labels.values[-1]
    probe = LabelSet.uniform(0.4 * lo, 0.4 * hi, max(2 * (config.label_count // 4) + 1, 21))
    if case == "i":
        host = bundle["plus"]
        comp = library.source("u", -0.5)
    elif case == "converse":
        host = bundle["dbb"]
        comp = library.source("u", +0.5)
    else:
        times = solver_times(config)
        host = integrate_congruence(library.source("v_plus", 0.5), labels, times)
        comp = library.source("v_minus", 0.5)
    return CompositionSetup(host, comp, probe)


# ---------- deterministic serialisation ----------

def _fmt(value):
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, header, columns):
    rows = zip(*columns)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sha256(path):
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()


class RunBundle:
    """Collects emitted files, checks and timings; writes the manifest last."""

    def __init__(self, command, config, out_dir):
        self.command = command
        self.config = config
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.files = {}
        self.checks = []
        self.timings = {}
        self._t0 = time.perf_counter()

    def timed(self, name):
        bundle = self

        class _Timer:
            def __enter__(self):
                self.start = time.perf_counter()

            def __exit__(self, *exc):
                bundle.timings[name] = time.perf_counter() - self.start

        return _Timer()

    def emit_csv(self, name, header, columns):
        path = self.out_dir / name
        write_csv(path, header, columns)
        self.files[name] = _sha256(path)

    def emit_json(self, name, payload):
        path = self.out_dir / name
        write_json(path, payload)
        self.files[name] = _sha256(path)

    def add_check(self, result):
        self.checks.append(result)

    @property
    def all_passed(self):
        return all(c["passed"] for c in self.checks)

    def finish(self):
        self.timings["total"] = time.perf_counter() - self._t0
        write_json(self.out_dir / "timings.json", self.timings)
        self.files["timings.json"] = None  # excluded from the determinism contract
        manifest = {
            "command": self.command,
            "version": _package_version(),
            "config": self.config.echo,
            "files": self.files,
            "checks": self.checks,
        }
        write_json(self.out_dir / "manifest.json", manifest)
        return manifest


def _package_version():
    from . import __version__
    return __version__


# ---------- commands ----------

def _sampled_indices(n_times, target=101):
    """Evenly strided time indices, always keeping the first and last."""
    if n_times <= 1:
        return [0] if n_times else []
    stride = max(1, (n_times - 1) // (target - 1))
    idx = list(range(0, n_times, stride))
    if idx[-1] != n_times - 1:
        idx.append(n_times - 1)
    return idx


def run_simulate(config, out_dir):
    bundle = RunBundle("simulate", config, out_dir)
    with bundle.timed("reference"):
        wave = build_reference(config)
    xs = config.grid.x
    cols_t, cols_x, cols_re, cols_im = [], [], [], []
    for snap in wave.snapshots:
        cols_t.append(np.full_like(xs, snap.time))
        cols_x.append(xs)
        cols_re.append(snap.values.real)
        cols_im.append(snap.values.imag)
    bundle.emit_csv("reference_fields.csv", ["time", "x", "re_psi", "im_psi"],
                    [np.concatenate(cols_t), np.concatenate(cols_x),
                     np.concatenate(cols_re), np.concatenate(cols_im)])

    with bundle.timed("fields"):
        fs = build_fields(config, wave)
    cols = {k: [] for k in ("time", "x", "rho", "S", "S_plus", "S_minus",
                            "v_plus", "v_minus", "Q_plus", "Q_minus", "valid")}
    for snap in fs.snapshots:
        cols["time"].append(np.full_like(xs, snap.time))
        cols["x"].append(xs)
        cols["rho"].append(snap.rho)
        cols["S"].append(snap.S)
        cols["S_plus"].append(snap.S_plus)
        cols["S_minus"].append(snap.S_minus)
        cols["v_plus"].append(snap.v_plus)
        cols["v_minus"].append(snap.v_minus)
        cols["Q_plus"].append(snap.Q_plus)
        cols["Q_minus"].append(snap.Q_minus)
        cols["valid"].append(snap.valid.astype(int))
    bundle.emit_csv("fields.csv", list(cols.keys()),
                    [np.concatenate(v) for v in cols.values()])

    library = FieldLibrary(config, None if config.solver == "analytic" else fs)
    labels = build_labels(config, library)
    with bundle.timed("trajectories"):
        if config.mode == "autonomous":
            bi = build_autonomous(config, library, labels)
            named = {"plus": bi.plus, "minus": bi.minus}
        else:
            bundle_c = build_congruences(config, library, labels)
            named = {"plus": bundle_c["plus"], "minus": bundle_c["minus"],
                     "dbb": bundle_c["dbb"]}
            bi = bundle_c["bi"]

    keep_times = _sampled_indices(named["plus"].times.shape[0])
    rows = {k: [] for k in ("congruence_id", "label_index", "q0", "time", "q", "qdot", "J", "chi")}
    for cid, c in named.items():
        for k in keep_times:
            nl = len(c.labels)
            rows["congruence_id"].append(np.full(nl, cid, dtype=object))
            rows["label_index"].append(np.arange(nl))
            rows["q0"].append(c.labels.values)
            rows["time"].append(np.full(nl, c.times[k]))
            rows["q"].append(c.q[k])
            rows["qdot"].append(c.qdot[k])
            rows["J"].append(c.J[k])
            rows["chi"].append(c.chi[k])
    bundle.emit_csv("trajectories.csv", list(rows.keys()),
                    [np.concatenate(v) for v in rows.values()])

    if config.mode == "autonomous":
        cm_rows = {k: [] for k in ("time", "q_plus0", "q_minus0")}
        for k in keep_times:
            cm = cross_map(bi, bi.times[k])
            cm_rows["time"].append(np.full_like(cm.q_plus0, cm.time))
            cm_rows["q_plus0"].append(cm.q_plus0)
            cm_rows["q_minus0"].append(cm.q_minus0)
        bundle.emit_csv("crossmap.csv", list(cm_rows.keys()),
                        [np.concatenate(v) for v in cm_rows.values()])
    return bundle.finish(), bundle


def run_compose(config, out_dir, case=None):
    case = case or config.composition_case
    bundle = RunBundle("compose", config, out_dir)
    with bundle.timed("reference"):
        wave = build_reference(config)
        fs = build_fields(config, wave)
    library = FieldLibrary(config, None if config.solver == "analytic" else fs)
    labels = build_labels(config, library)
    with bundle.timed("congruences"):
        cbundle = build_congruences(config, library, labels)
    with bundle.timed("composition"):
        setup = composition_setup(config, library, cbundle, case)
        result = compose_trajectories(setup)

    keep_times = _sampled_indices(result.times.shape[0])
    rows = {k: [] for k in ("case_id", "q_C0", "time", "Q_B", "q_C", "J_B", "J_C", "residual")}
    nl = len(result.labels_C)
    for j in keep_times:
        rows["case_id"].append(np.full(nl, case, dtype=object))
        rows["q_C0"].append(result.labels_C.values)
        rows["time"].append(np.full(nl, result.times[j]))
        rows["Q_B"].append(result.Q_B[j])
        rows["q_C"].append(result.q_C[j])
        rows["J_B"].append(result.J_B[j])
        rows["J_C"].append(result.J_C[j])
        rows["residual"].append(result.residual[j])
    bundle.emit_csv("composition.csv", list(rows.keys()),
                    [np.concatenate(v) for v in rows.values()])

    with bundle.timed("sources"):
        rho = library.rho()
        rho0 = library.rho0()
        tables = {
            "plus": source_term(cbundle["plus"], rho, library.source("u", -0.5), rho0=rho0),
            "minus": source_term(cbundle["minus"], rho, library.source("u", +0.5), rho0=rho0),
        }
    srows = {k: [] for k in ("congruence_id", "q0", "time", "c", "rho_ratio")}
    for cid, tab in tables.items():
        for k in _sampled_indices(tab.times.shape[0]):
            n = tab.labels.shape[0]
            srows["congruence_id"].append(np.full(n, cid, dtype=object))
            srows["q0"].append(tab.labels)
            srows["time"].append(np.full(n, tab.times[k]))
            srows["c"].append(tab.c_A[k])
            srows["rho_ratio"].append(tab.rho_ratio[k])
    bundle.emit_csv("sources.csv", list(srows.keys()),
                    [np.concatenate(v) for v in srows.values()])

    report = conservation_check(result, library.rho())
    bundle.add_check({
        "name": f"composition_{case}_residual",
        "passed": bool(result.residual_max <= 1e-4 * max(result.velocity_scale, 1e-300)),
        "measured": result.residual_max,
        "tolerance": 1e-4 * result.velocity_scale,
    })
    bundle.add_check({
        "name": f"composition_{case}_jacobian_factorisation",
        "passed": bool(result.jacobian_factorisation_gap() <= 1e-4),
        "measured": result.jacobian_factorisation_gap(),
        "tolerance": 1e-4,
    })
    if case in ("i", "ii"):
        bundle.add_check({
            "name": f"composition_{case}_conservation",
            "passed": bool(report.max_drift <= 1e-3),
            "measured": report.max_drift,
            "tolerance": 1e-3,
        })
    return bundle.finish(), bundle


def run_reconstruct(config, out_dir):
    bundle = RunBundle("reconstruct", config, out_dir)
    with bundle.timed("reference"):
        wave = build_reference(config)
        fs = build_fields(config, wave)
    library = FieldLibrary(config, None if config.solver == "analytic" else fs)
    labels = build_labels(config, library)
    with bundle.timed("congruences"):
        cbundle = build_congruences(config, library, labels)
    bi, dbb = cbundle["bi"], cbundle["dbb"]
    rho0 = library.rho0()
    psi_ref = library.psi()
    if psi_ref is None:
        wave_by_time = {round(s.time, 12): s for s in wave.snapshots}

        def psi_ref(x, t):
            snap = wave_by_time[round(float(t), 12)]
            re = CubicSpline(snap.grid.x, snap.values.real)(x)
            im = CubicSpline(snap.grid.x, snap.values.imag)(x)
            return re + 1j * im

    with bundle.timed("probes"):
        probe_times = wave.times[wave.times > 0]
        keep = max(1, len(probe_times) // 4)
        probe_times = probe_times[::keep]
        out = {k: [] for k in ("x", "t", "re_psi_bihj", "im_psi_bihj", "re_psi_polar",
                               "im_psi_polar", "re_psi_ref", "im_psi_ref",
                               "abs_err_bihj", "abs_err_polar")}
        worst = 0.0
        scale = 0.0
        for t in probe_times:
            k = bi.plus.time_index(t)
            lo = max(bi.plus.q[k][0], bi.minus.q[k][0], dbb.q[k][0])
            hi = min(bi.plus.q[k][-1], bi.minus.q[k][-1], dbb.q[k][-1])
            pad = 0.02 * (hi - lo)
            xs = np.linspace(lo + pad, hi - pad, 21)
            tab = reconstruction_probe(bi, dbb, rho0, psi_ref, xs, float(t))
            for key in out:
                out[key].append(tab[key])
            worst = max(worst, tab["abs_err_bihj"].max(), tab["abs_err_polar"].max())
            scale = max(scale, np.abs(tab["re_psi_ref"] + 1j * tab["im_psi_ref"]).max())
    bundle.emit_csv("reconstruction.csv", list(out.keys()),
                    [np.concatenate(v) for v in out.values()])
    bundle.add_check({
        "name": "reconstruction_against_reference",
        "passed": bool(worst <= 1e-3 * scale),
        "measured": worst,
        "tolerance": 1e-3 * scale,
    })
    return bundle.finish(), bundle


def run_oracle_table(config):
    """Closed-form table for the configured gaussian (stdout payload)."""
    if config.initial_state.kind != "gaussian" or config.initial_state.momentum != 0.0:
        raise ConfigurationError("the oracle table needs a gaussian at rest")
    g = gaussian.GaussianParams(config.initial_state.sigma0, config.hbar, config.mass)
    lines = [f"free gaussian at rest: sigma0={g.sigma0:.6g} kappa={g.kappa:.6g}"]
    lines.append("fields (x, t): rho, S, S_plus, S_minus, v_plus, v_minus")
    for t in (0.0, 0.5, 1.0):
        for x in (0.0, 0.5, 1.0, 2.0):
            vals = gaussian.oracle_fields(g, x, t, config.rho_ref)
            lines.append("  x=%4.1f t=%3.1f  " % (x, t)
                         + "  ".join("%12.6f" % v for v in vals))
    lines.append("paths q(q0=1, t) and label generators Q_B(q0=1, t):")
    for t in (0.0, 0.5, 1.0):
        row = ["  t=%3.1f" % t]
        for kind in gaussian.PATH_KINDS:
            row.append("%s=%.6f" % (kind, gaussian.oracle_path(g, kind, 1.0, t)))
        for case in gaussian.GENERATOR_CASES:
            row.append("Q_B[%s]=%.6f" % (case, gaussian.oracle_label_generator(g, case, 1.0, t)))
        lines.append("  ".join(row))
    return "\n".join(lines)


def run_figure(config, out_dir, figure_id):
    bundle = RunBundle("figure", config, out_dir)
    with bundle.timed("reference"):
        wave = build_reference(config)
        fs = None if config.solver == "analytic" else build_fields(config, wave)
    library = FieldLibrary(config, fs)
    labels = build_labels(config, library)
    cbundle = build_congruences(config, library, labels)
    stride_l = max(1, (len(labels) - 1) // 14)
    keep_labels = np.arange(0, len(labels), stride_l)

    if figure_id == "fig2":
        rows = {k: [] for k in ("series", "q0", "time", "value")}
        for cid in ("dbb", "plus", "minus"):
            c = cbundle[cid]
            keep = _sampled_indices(c.times.shape[0], 81)
            for i in keep_labels:
                for k in keep:
                    rows["series"].append(cid)
                    rows["q0"].append(c.labels.values[i])
                    rows["time"].append(c.times[k])
                    rows["value"].append(c.q[k, i])
        bundle.emit_csv("fig2.csv", list(rows.keys()), [rows[k] for k in rows])
    elif figure_id == "fig3":
        setup = composition_setup(config, library, cbundle, "i")
        result = compose_trajectories(setup)
        track = int(np.argmin(np.abs(result.labels_C.values - 1.0)))
        rows = {k: [] for k in ("case_id", "series", "q0", "time", "value")}
        keep = _sampled_indices(result.times.shape[0], 81)
        host = setup.congruence_A
        keep_host = _sampled_indices(host.times.shape[0], 81)
        for i in keep_labels:
            for k in keep_host:
                rows["case_id"].append("i")
                rows["series"].append("qA_family")
                rows["q0"].append(host.labels.values[i])
                rows["time"].append(host.times[k])
                rows["value"].append(host.q[k, i])
        for j in keep:
            q0 = result.labels_C.values[track]
            rows["case_id"].append("i")
            rows["series"].append("QB")
            rows["q0"].append(q0)
            rows["time"].append(result.times[j])
            rows["value"].append(result.Q_B[j, track])
            rows["case_id"].append("i")
            rows["series"].append("qC")
            rows["q0"].append(q0)
            rows["time"].append(result.times[j])
            rows["value"].append(result.q_C[j, track])
        bundle.emit_csv("fig3.csv", list(rows.keys()), [rows[k] for k in rows])
    else:
        raise ConfigurationError(f"unknown figure id {figure_id!r}; use fig2 or fig3")
    return bundle.finish(), bundle
