"""Scenario configuration, run orchestration and deterministic output files.

A scenario is a JSON document in the format of the field table ``SCHEMA``,
which drives parsing, validation and the manifest's config echo.  All
floating point output is serialised with 17 significant digits, CSV files
use comma separators with LF endings, and JSON files are written with sorted
keys, so identical configurations yield byte-identical data files.

Every command runs one pipeline, ``RunBundle``, whose stages are built once,
on first use.  Wall-clock timings are isolated in ``timings.json``, the one
intentionally non-deterministic output: one key per stage that ran, one
``write:<file>`` key per emitted file, and ``total``.
"""
import hashlib
import json
import math
import numbers
import reprlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from . import __version__, gaussian
from .autonomous import BiCongruence, cross_map, propagate_autonomous
from .compose import (
    CompositionSetup,
    compose_trajectories,
    conservation_check,
    pair_source_terms,
)
from .congruence import FieldStack, LabelSet, integrate_congruence
from .errors import BihjError, ConfigurationError
from .fields import derive_series
from .gaussian import GaussianStack
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
REFERENCE_FLOWS = ("plus", "minus", "dbb")
SOLVERS = ("analytic", "crank_nicolson")
# composition case -> (host congruence, complement field, factor): the curves
# of the host's field plus factor times the complement field
COMPOSITIONS = {"i": ("plus", "u", -0.5), "ii": ("half_plus", "v_minus", 0.5),
                "converse": ("dbb", "u", 0.5)}
CASES = tuple(COMPOSITIONS)
# (potential kind, state kind, momentum, center) of the scenarios the closed
# forms of bihj.gaussian describe: a free gaussian at rest at x = 0
CLOSED_FORM = ("free", "gaussian", 0.0, 0.0)


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


def _finite(value):
    """value is a finite real number; booleans are not numbers."""
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an integer beyond float range
        return False


# Field types, (name, test of a present value, normalisation for the echo).
NUMBER = ("a finite number", _finite, float)
INTEGER = ("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
           int)
STRING = ("a string", lambda v: isinstance(v, str), str)
NUMBERS = ("a list of finite numbers only", lambda v: isinstance(v, list) and all(map(_finite, v)),
           lambda v: [float(x) for x in v])


def one_of(words):
    return (f"one of {'|'.join(words)}", lambda v: isinstance(v, str) and v in words, str)


# Range rules, (name, test of the normalised value).
POSITIVE = ("positive", lambda v: v > 0)
NONNEGATIVE = ("nonnegative", lambda v: v >= 0)
OPEN_UNIT = ("in (0, 1)", lambda v: 0 < v < 1)
CLOSED_UNIT = ("in [0, 1]", lambda v: 0 <= v <= 1)


def between(lo, hi):
    return (f"in [{lo}, {hi}]", lambda v: lo <= v <= hi)


# Upper size bounds.  The stored wave keeps 16 bytes per grid point per
# stored time, and each of the three reference-driven congruences keeps
# 32 bytes per label per solver step; each bound keeps its size within a
# run that fits in memory when the other sizes are those of the bundled
# scenario.  The splines of the labels need at least 5 of them, like the
# five-point label derivatives.
MAX_GRID_POINTS = 2**16
MAX_LABELS = 2**12
MAX_SOLVER_STEPS = 10**5

# Bytes a run holds per label per solver time and per grid point per stored
# field time, rounded up from the growth of peak RSS when the bundled
# scenario's solver steps, grid points or stored times double, over every
# command and both solvers.  Analytic compose case ii holds the most per label
# step (272: four congruences, the composed tracks and the source tables).
# Per grid point the bound was set when Crank-Nicolson runs held every
# derived field snapshot (195); they hold the stored wave and derive the
# fields when they are read, and every command now grows by 15-18 bytes per
# grid point per stored time.  CSV files are streamed, so these stages are
# what a run holds.
BYTES_PER_LABEL_STEP = 280
BYTES_PER_GRID_POINT = 200
# The bound on their sum admits each size at its own bound with the other
# sizes of the bundled scenario; the largest of those runs, 10^5 solver steps
# of 201 labels with 301 stored times, holds 5.4 GiB.
MAX_HELD_BYTES = 6 * 2**30


# The scenario format: one row per field, (dotted path, type, default, kind,
# range rule).  A default of None makes the field required wherever it
# applies; a field with a kind applies only when its sibling "kind" field
# holds that kind.
SCHEMA = (
    ("hbar", NUMBER, 1.0, None, POSITIVE),
    ("mass", NUMBER, 1.0, None, POSITIVE),
    ("potential.kind", one_of(("free", "harmonic", "sampled")), "free", None, None),
    ("potential.omega", NUMBER, 0.0, "harmonic", NONNEGATIVE),
    ("potential.values", NUMBERS, None, "sampled", None),
    ("grid.x_min", NUMBER, None, None, None),
    ("grid.x_max", NUMBER, None, None, None),
    ("grid.n_points", INTEGER, None, None, between(16, MAX_GRID_POINTS)),
    ("initial_state.kind", one_of(("gaussian", "two_gaussian")), "gaussian", None, None),
    ("initial_state.sigma0", NUMBER, None, None, POSITIVE),
    ("initial_state.center", NUMBER, 0.0, "gaussian", None),
    ("initial_state.momentum", NUMBER, 0.0, "gaussian", None),
    ("initial_state.separation", NUMBER, 0.0, "two_gaussian", None),
    ("initial_state.relative_phase", NUMBER, 0.0, "two_gaussian", None),
    ("initial_state.relative_weight", NUMBER, 0.5, "two_gaussian", CLOSED_UNIT),
    ("time.dt_solver", NUMBER, None, None, POSITIVE),
    ("time.dt_fields", NUMBER, None, None, POSITIVE),
    ("time.t_final", NUMBER, None, None, POSITIVE),
    ("labels.count", INTEGER, 101, None, between(5, MAX_LABELS)),
    ("labels.span.kind", one_of(("density_floor", "explicit")), "density_floor", None, None),
    ("labels.span.floor", NUMBER, 1e-6, "density_floor", OPEN_UNIT),
    ("labels.span.lo", NUMBER, None, "explicit", None),
    ("labels.span.hi", NUMBER, None, "explicit", None),
    ("mode", one_of(MODES), "reference_driven", None, None),
    ("solver", one_of(SOLVERS), "crank_nicolson", None, None),
    ("composition_case", one_of(CASES), "i", None, None),
    ("thresholds.rho_min_factor", NUMBER, 1e-12, None, OPEN_UNIT),
    ("thresholds.rho_ref", NUMBER, 1.0, None, POSITIVE),
    ("output_dir", STRING, "", None, None),
)
_FIELDS = {tuple(row[0].split(".")) for row in SCHEMA}
_SECTIONS = {path[:k] for path in _FIELDS for k in range(1, len(path))}


def _lookup(doc, path):
    """(True, value) for a field present in the nested dict doc, else (False, None)."""
    for part in path:
        if not isinstance(doc, dict) or part not in doc:
            return False, None
        doc = doc[part]
    return True, doc


def _unknown_fields(node, prefix=()):
    for key, value in node.items():
        path = prefix + (key,)
        if path in _SECTIONS:
            if isinstance(value, dict):
                yield from _unknown_fields(value, path)
        elif path not in _FIELDS:
            yield ".".join(map(str, path))


def _whole_ratio(a, b, tol=1e-9):
    """a / b is finite and within tol (relative) of an integer."""
    r = a / b
    return math.isfinite(r) and abs(r - round(r)) <= tol * max(1.0, abs(r))


def parse_config(doc):
    """Validate a scenario document against SCHEMA, reporting every violation.

    The normalised document (numbers as floats, defaults filled in, fields of
    other kinds left out) is ``ScenarioConfig.echo``.
    """
    if not isinstance(doc, dict):
        raise ConfigurationError(f"a scenario must be a JSON object, got {type(doc).__name__}")
    problems = []
    for section in sorted(_SECTIONS):
        found, node = _lookup(doc, section)
        if found and not isinstance(node, dict):
            problems.append(f"field {'.'.join(section)} must be an object, "
                            f"got {reprlib.repr(node)}")
    problems += [f"unknown field {path}" for path in _unknown_fields(doc)]
    flat = {}  # dotted path -> normalised value of every valid field that applies
    for path, (name, valid, normal), default, kind, rule in SCHEMA:
        found, value = _lookup(doc, path.split("."))
        if found and not valid(value):
            problems.append(f"field {path} must be {name}, got {reprlib.repr(value)}")
        elif found and rule and not rule[1](normal(value)):
            problems.append(f"{path} must be {rule[0]}, got {reprlib.repr(normal(value))}")
        elif kind is not None and flat.get(path.rsplit(".", 1)[0] + ".kind") != kind:
            continue
        elif found or default is not None:
            flat[path] = normal(value) if found else default
        else:
            problems.append(f"missing field {path}")

    get = flat.get
    x_min, x_max = get("grid.x_min"), get("grid.x_max")
    lo, hi = get("labels.span.lo"), get("labels.span.hi")
    if None not in (x_min, x_max) and not x_min < x_max:
        problems.append(f"grid needs x_min < x_max, got [{x_min}, {x_max}]")
    if None not in (lo, hi) and not lo < hi:
        problems.append(f"labels.span needs lo < hi, got [{lo}, {hi}]")
    values, n_points = get("potential.values"), get("grid.n_points")
    if None not in (values, n_points) and len(values) != n_points:
        problems.append(f"potential.values needs grid.n_points = {n_points} entries, "
                        f"got {len(values)}")
    dt_solver, dt_fields, t_final = map(get, ("time.dt_solver", "time.dt_fields", "time.t_final"))
    if None not in (dt_solver, dt_fields):
        if dt_fields < dt_solver:
            problems.append("time.dt_fields must be at least dt_solver")
        elif not _whole_ratio(dt_fields, dt_solver):
            problems.append("time.dt_fields must be an integer multiple of dt_solver")
    if None not in (dt_fields, t_final) and not _whole_ratio(t_final, dt_fields):
        problems.append("time.t_final must be an integer multiple of dt_fields")
    if None not in (dt_solver, t_final) and not t_final / dt_solver < MAX_SOLVER_STEPS + 0.5:
        problems.append(f"time.t_final / dt_solver must be at most {MAX_SOLVER_STEPS} "
                        f"solver steps, got {t_final / dt_solver:.6g}")
    count = get("labels.count")
    if (None not in (dt_solver, dt_fields, t_final, count, n_points)
            and t_final / dt_solver < MAX_SOLVER_STEPS + 0.5):
        held = (BYTES_PER_LABEL_STEP * (t_final / dt_solver + 1) * count
                + BYTES_PER_GRID_POINT * (t_final / dt_fields + 1) * n_points)
        if not held <= MAX_HELD_BYTES:
            problems.append(
                f"(solver steps + 1) x labels.count and (stored field times + 1) x "
                f"grid.n_points would hold {held / 2**30:.3g} GiB, more than "
                f"{MAX_HELD_BYTES / 2**30:g} GiB")
    if get("solver") == "analytic" and tuple(map(get, (
            "potential.kind", "initial_state.kind", "initial_state.momentum",
            "initial_state.center"))) != CLOSED_FORM:
        problems.append("solver=analytic needs a free gaussian at rest at x = 0")
    if get("mode") == "autonomous" and get("potential.kind") == "sampled":
        problems.append("mode=autonomous needs a free or harmonic potential")
    if problems:
        raise ConfigurationError("invalid scenario configuration:\n  - " + "\n  - ".join(problems))

    echo = {}
    for path, value in flat.items():
        *parents, leaf = path.split(".")
        node = echo
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
    time_, labels, thresholds = echo["time"], echo["labels"], echo["thresholds"]
    return ScenarioConfig(
        hbar=echo["hbar"], mass=echo["mass"], potential=Potential(**echo["potential"]),
        grid=SpatialGrid(**echo["grid"]), initial_state=InitialStateSpec(**echo["initial_state"]),
        dt_solver=time_["dt_solver"], dt_fields=time_["dt_fields"], t_final=time_["t_final"],
        label_count=labels["count"], label_span=labels["span"], mode=echo["mode"],
        solver=echo["solver"], composition_case=echo["composition_case"],
        rho_min_factor=thresholds["rho_min_factor"], rho_ref=thresholds["rho_ref"],
        output_dir=echo["output_dir"] or None, echo=echo)


def load_config(path):
    """Parse a scenario file; an unreadable or malformed file is a ConfigurationError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ConfigurationError(f"cannot read scenario {path}: {err.strerror or err}") from err
    except ValueError as err:  # malformed JSON or text that is not UTF-8
        raise ConfigurationError(f"scenario {path} is not valid JSON: {err}") from err
    return parse_config(doc)


def bundled_scenario():
    """A fresh copy of the bundled free-gaussian scenario document."""
    return json.loads((Path(__file__).parent / "data" / "gaussian.json").read_text("utf-8"))


# ---------- field access, analytic or sampled ----------

class FieldLibrary:
    """Uniform access to velocity fields, density and action rates: stacks
    of the closed forms (``GaussianStack``) on analytic runs, and of the
    field series (``FieldStack``) on sampled ones."""

    # the reference-driven congruences: velocity field, action rate, factor,
    # and the action ("plus", "minus" or "polar") of the initial profile;
    # "half_plus", the host of case ii, has neither rate nor initial action
    FLOWS = {"plus": ("v_plus", "L_plus", 1.0, "plus"),
             "minus": ("v_minus", "L_minus", 1.0, "minus"),
             "dbb": ("v", "L", 1.0, "polar"),
             "half_plus": ("v_plus", None, 0.5, None)}

    def __init__(self, config, fseries=None):
        self.config = config
        self.fseries = fseries
        self.analytic = config.solver == "analytic"
        if self.analytic:
            self.g = gaussian.GaussianParams(config.initial_state.sigma0,
                                             config.hbar, config.mass)
            self._stack = partial(GaussianStack, self.g)
        else:
            self._stack = partial(FieldStack, fseries)

    def source(self, name, factor):
        """The velocity field ``name`` scaled by ``factor``, as a one-flow stack."""
        return self._stack([(name, None, factor)])

    def rho(self):
        return self._stack([("rho", None, 1.0)]).velocity

    def rho_u(self):
        """The density and the osmotic velocity u at the points x, stacked
        along a new first axis, as one callable of (x, t): the closed forms,
        or one two-column spline per snapshot with one interval search for
        both.  Each has the bits of its own one-flow stack."""
        if self.analytic:
            rho, u = (self.source(name, 1.0).velocity for name in ("rho", "u"))
            return lambda x, t: np.stack((rho(x, t), u(x, t)))
        return FieldStack(self.fseries, [("rho", None, 1.0), ("u", None, 1.0)]).fields

    def congruence_sources(self, cids):
        """The velocity fields and action rates of the congruences ``cids``,
        as one stack to march together."""
        return self._stack([self.FLOWS[cid][:3] for cid in cids], cids)

    def initial_actions(self, cids):
        """The t = 0 action profile of each of the congruences ``cids`` (None
        for zero)."""
        return [None if self.FLOWS[cid][3] is None else self.initial(self.FLOWS[cid][3])
                for cid in cids]

    def initial(self, which):
        """t = 0 profile of the density ("rho") or of the plus, minus or polar action."""
        rho_ref = self.config.rho_ref
        if self.analytic:
            table = {"rho": lambda q: gaussian.rho(self.g, q, 0.0),
                     "plus": lambda q: gaussian.action_plus(self.g, q, 0.0, rho_ref),
                     "minus": lambda q: gaussian.action_minus(self.g, q, 0.0, rho_ref),
                     "polar": lambda q: gaussian.phase_action(self.g, q, 0.0)}
            return table[which]
        snap = self.fseries.snapshots[0]
        return snap.spline({"rho": snap.rho, "plus": snap.S_plus, "minus": snap.S_minus,
                            "polar": snap.S}[which])


# ---------- deterministic serialisation ----------

CSV_CHUNK_ROWS = 2048  # rows turned into Python objects and formatted at a time
_CSV_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d", "b": "%d"}


def _csv_format(values):
    return _CSV_FORMATS.get(values.dtype.kind, "%s")


def write_csv(path, header, blocks):
    """Write CSV rows from blocks and return the SHA-256 of the bytes written.

    A block holds one entry per column: an array, or a scalar repeated over
    the block's rows, the common length of its arrays (it needs at least one).
    Floats are written with 17 significant digits, integers and booleans as
    integers, anything else as text.  Each block is written in chunks of
    CSV_CHUNK_ROWS rows through one row format, into which its scalars are
    formatted once.  ``blocks`` may be a generator: the blocks are taken one
    at a time, and only the previous block's arrays are kept, so an array
    object that appears in consecutive blocks (the grid of ``fields.csv``)
    is formatted to text once, when it recurs, and that text is kept while
    it keeps recurring.
    """
    digest = hashlib.sha256()
    prev = {}  # id -> (array, its values as text or None), of the previous block
    with open(path, "wb") as fh:
        def put(text):
            data = text.encode("utf-8")
            digest.update(data)
            fh.write(data)

        put(",".join(header) + "\n")
        for block in blocks:
            fmt, columns, held = [], [], {}
            for e in block:
                values = np.asarray(e)
                if not values.ndim:
                    fmt.append((_csv_format(values) % values.item()).replace("%", "%%"))
                    continue
                known = held.get(id(e)) or prev.get(id(e))
                if known is None:  # written as numbers, unless it recurs
                    held[id(e)] = e, None
                    fmt.append(_csv_format(values))
                    columns.append(values)
                    continue
                text = known[1]
                if text is None:
                    text = [_csv_format(values) % v for v in values.tolist()]
                held[id(e)] = e, text
                fmt.append("%s")
                columns.append(text)
            prev = held
            fmt = ",".join(fmt) + "\n"
            n_rows = min(len(c) for c in columns)
            for start in range(0, n_rows, CSV_CHUNK_ROWS):
                stop = start + CSV_CHUNK_ROWS
                chunk = [c[start:stop] if isinstance(c, list) else c[start:stop].tolist()
                         for c in columns]
                put("".join(fmt % row for row in zip(*chunk)))
    return digest.hexdigest()


def write_json(path, payload):
    """Write sorted, indented JSON and return the SHA-256 of the bytes written."""
    data = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
    Path(path).write_bytes(data)
    return hashlib.sha256(data).hexdigest()


# ---------- the staged run pipeline ----------

class RunBundle:
    """One run: cached, timed pipeline stages, emitted files, checks, numerical
    health diagnostics (deterministic, unlike the wall times) and the manifest.

    Each stage is built on first use and kept.  It builds the stages it needs
    first, then times its own work under its name in ``timings.json``, so the
    stage times add up instead of nesting; a name timed more than once sums
    its times.
    """

    def __init__(self, command, config, out_dir):
        self.command = command
        self.config = config
        self.analytic = config.solver == "analytic"
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.files = {}
        self.checks = []
        self.diagnostics = {}
        self.timings = {}
        self._congruences = {}
        self._compositions = {}
        self._t0 = time.perf_counter()

    @contextmanager
    def timed(self, name):
        """Time the block under ``name``; a package error raised in it
        records the innermost stage it came from."""
        start = time.perf_counter()
        try:
            yield
        except BihjError as err:
            if err.stage is None:
                err.stage = name
            raise
        finally:
            self.timings[name] = self.timings.get(name, 0.0) + time.perf_counter() - start

    # -- stages --

    @property
    def field_times(self):
        """Times of the stored reference snapshots; closed forms need no solve."""
        cfg = self.config
        if self.analytic:
            return np.arange(cfg.field_steps + 1) * cfg.dt_fields
        return self.wave.times

    @cached_property
    def times(self):
        """Solver time grid of the trajectory stages."""
        return np.arange(self.config.solver_steps + 1) * self.config.dt_solver

    @cached_property
    def wave(self):
        cfg = self.config
        with self.timed("reference"):
            if self.analytic:
                wave = analytic_series(cfg.initial_state, cfg.grid, cfg.params, self.field_times)
            else:
                snap = build_initial_state(cfg.initial_state, cfg.grid, cfg.params)
                wave = evolve_crank_nicolson(snap, cfg.params, cfg.dt_solver, cfg.solver_steps,
                                             store_every=cfg.store_every)
            self.diagnostics.update(wave.health())
        return wave

    @cached_property
    def fields(self):
        """The field series of the wave, whose snapshots are derived as a
        stage reads them, within that stage's time; a derivation error names
        the ``fields`` stage."""
        wave = self.wave
        return derive_series(wave, rho_min=self.config.rho_min_factor
                             * wave.snapshots[0].density().max(), rho_ref=self.config.rho_ref)

    @cached_property
    def library(self):
        fields = None if self.analytic else self.fields
        with self.timed("library"):
            return FieldLibrary(self.config, fields)

    @cached_property
    def labels(self):
        library, cfg = self.library, self.config
        with self.timed("labels"):
            span = cfg.label_span
            if span["kind"] == "explicit":
                return LabelSet.uniform(span["lo"], span["hi"], cfg.label_count)
            return LabelSet.from_density(library.initial("rho"), cfg.grid.x_min, cfg.grid.x_max,
                                         count=cfg.label_count, floor=span["floor"])

    def congruences(self, *cids):
        """Reference-driven congruences: "plus", "minus", the mean flow "dbb"
        and "half_plus", the host of composition case ii.  Those not built
        yet are marched together, in one call."""
        todo = [cid for cid in dict.fromkeys(cids) if cid not in self._congruences]
        if todo:
            library, labels, times = self.library, self.labels, self.times
            with self.timed("congruences"):
                built = integrate_congruence(library.congruence_sources(todo), labels, times,
                                             initial_actions=library.initial_actions(todo))
            for cid, c in zip(todo, built):
                self._congruences[cid] = c
                self.diagnostics[cid] = {"min_path_spacing": c.min_path_spacing,
                                         "min_expansion_factor": c.min_expansion_factor}
        return tuple(self._congruences[cid] for cid in cids)

    @cached_property
    def pair(self):
        """The coupled pair of the plus and minus congruences."""
        (plus, minus), library, cfg = self.congruences("plus", "minus"), self.library, self.config
        with self.timed("congruences"):
            return BiCongruence.from_congruences(cfg.params, plus, minus,
                                                 library.initial("plus"),
                                                 library.initial("minus"),
                                                 rho_ref=cfg.rho_ref)

    @cached_property
    def autonomous(self):
        library, labels, cfg = self.library, self.labels, self.config
        with self.timed("autonomous"):
            bi = propagate_autonomous(library.initial("plus"), library.initial("minus"),
                                      labels, cfg.params, cfg.dt_solver, cfg.solver_steps,
                                      store_every=cfg.store_every, rho_ref=cfg.rho_ref)
        self.diagnostics.update(bi.diagnostics)
        return bi

    def composition(self, case):
        """Setup (host congruence, complement field, generator labels) and
        result of one composition case; the host is a congruence stage."""
        if case not in self._compositions:
            host_flow, field, factor = COMPOSITIONS[case]
            host, = self.congruences(host_flow)
            library, labels = self.library, self.labels
            with self.timed("composition"):
                lo, hi = labels.values[0], labels.values[-1]
                probe = LabelSet.uniform(0.4 * lo, 0.4 * hi,
                                         max(2 * (self.config.label_count // 4) + 1, 21))
                setup = CompositionSetup(host, library.source(field, factor), probe)
                self._compositions[case] = setup, compose_trajectories(setup)
        return self._compositions[case]

    # -- outputs --

    def emit_csv(self, name, header, blocks):
        """Write ``name`` from row blocks holding one entry per column: an
        array, or a scalar repeated over the block's rows.  ``blocks`` may be
        a generator, so that building them is timed with the write."""
        with self.timed(f"write:{name}"):
            self.files[name] = write_csv(self.out_dir / name, header, blocks)

    def emit_json(self, name, payload):
        with self.timed(f"write:{name}"):
            self.files[name] = write_json(self.out_dir / name, payload)

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
            "version": __version__,
            "config": self.config.echo,
            "files": self.files,
            "checks": self.checks,
            "diagnostics": self.diagnostics,
        }
        write_json(self.out_dir / "manifest.json", manifest)
        return manifest


# ---------- commands ----------

FIELD_COLUMNS = ("time", "x", "rho", "S", "S_plus", "S_minus", "v_plus", "v_minus",
                 "Q_plus", "Q_minus", "valid")


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
    run = RunBundle("simulate", config, out_dir)
    autonomous = config.mode == "autonomous"
    # the trajectory stages can fail (paths cross or leave the valid region),
    # so they and the cross maps run before the first file is written
    if autonomous:
        bi = run.autonomous
        named = {"plus": bi.plus, "minus": bi.minus}
        keep = _sampled_indices(bi.times.shape[0])
        with run.timed("crossmap"):
            maps = [cross_map(bi, bi.times[k]) for k in keep]
    else:
        named = dict(zip(REFERENCE_FLOWS, run.congruences(*REFERENCE_FLOWS)))
        keep = _sampled_indices(named["plus"].times.shape[0])

    xs = config.grid.x
    run.emit_csv("reference_fields.csv", ("time", "x", "re_psi", "im_psi"),
                 ((s.time, xs, s.values.real, s.values.imag) for s in run.wave.snapshots))
    run.emit_csv("fields.csv", FIELD_COLUMNS,
                 ((s.time, xs) + tuple(getattr(s, k) for k in FIELD_COLUMNS[2:])
                  for s in run.fields.snapshots))
    label_index = np.arange(len(run.labels))
    run.emit_csv("trajectories.csv",
                 ("congruence_id", "label_index", "q0", "time", "q", "qdot", "J", "chi"),
                 ((cid, label_index, c.labels.values, c.times[k],
                   c.q[k], c.qdot[k], c.J[k], c.chi[k])
                  for cid, c in named.items() for k in keep))
    if autonomous:
        run.emit_csv("crossmap.csv", ("time", "q_plus0", "q_minus0"),
                     ((cm.time, cm.q_plus0, cm.q_minus0) for cm in maps))
    return run.finish(), run


def run_compose(config, out_dir, case=None):
    case = case or config.composition_case
    run = RunBundle("compose", config, out_dir)
    # the host and the two congruences of the source tables, in one march
    _, plus, minus = run.congruences(COMPOSITIONS[case][0], "plus", "minus")
    _, result = run.composition(case)
    run.emit_csv("composition.csv",
                 ("case_id", "q_C0", "time", "Q_B", "q_C", "J_B", "J_C", "residual"),
                 ((case, result.labels_C.values, result.times[j], result.Q_B[j],
                   result.q_C[j], result.J_B[j], result.J_C[j], result.residual[j])
                  for j in _sampled_indices(result.times.shape[0])))

    library = run.library
    with run.timed("sources"):
        tables = dict(zip(("plus", "minus"), pair_source_terms(
            plus, minus, library.rho_u(), library.initial("rho"),
            _sampled_indices(plus.times.shape[0]))))
    run.emit_csv("sources.csv", ("congruence_id", "q0", "time", "c", "rho_ratio"),
                 ((cid, tab.labels, t, c, ratio)
                  for cid, tab in tables.items()
                  for t, c, ratio in zip(tab.times, tab.c_A, tab.rho_ratio)))

    with run.timed("checks"):
        drift = conservation_check(result, library.rho()).max_drift
        gap = result.jacobian_factorisation_gap()
    residual, scale = result.residual_max, result.velocity_scale
    checks = [("residual", residual, 1e-4 * scale, residual <= 1e-4 * max(scale, 1e-300)),
              ("jacobian_factorisation", gap, 1e-4, gap <= 1e-4)]
    if case in ("i", "ii"):
        checks.append(("conservation", drift, 1e-3, drift <= 1e-3))
    for what, measured, tolerance, passed in checks:
        run.add_check({"name": f"composition_{case}_{what}", "passed": bool(passed),
                       "measured": measured, "tolerance": tolerance})
    return run.finish(), run


RECONSTRUCTION_COLUMNS = ("x", "t", "re_psi_bihj", "im_psi_bihj", "re_psi_polar",
                          "im_psi_polar", "re_psi_ref", "im_psi_ref",
                          "abs_err_bihj", "abs_err_polar")


def run_reconstruct(config, out_dir):
    run = RunBundle("reconstruct", config, out_dir)
    _, _, dbb = run.congruences(*REFERENCE_FLOWS)
    bi, library, field_times = run.pair, run.library, run.field_times
    with run.timed("probes"):
        rho0 = library.initial("rho")
        if run.analytic:
            psi_ref = partial(gaussian.psi, library.g)
        else:
            wave_by_time = {round(s.time, 12): s for s in run.wave.snapshots}

            def psi_ref(x, t):
                return wave_by_time[round(float(t), 12)].at(x)

        probe_times = field_times[field_times > 0]
        probe_times = probe_times[::max(1, len(probe_times) // 4)]
        tables = []
        worst = 0.0
        scale = 0.0
        for t in probe_times:
            k = bi.plus.time_index(t)
            lo = max(bi.plus.q[k][0], bi.minus.q[k][0], dbb.q[k][0])
            hi = min(bi.plus.q[k][-1], bi.minus.q[k][-1], dbb.q[k][-1])
            pad = 0.02 * (hi - lo)
            xs = np.linspace(lo + pad, hi - pad, 21)
            tab = reconstruction_probe(bi, dbb, rho0, psi_ref, xs, float(t))
            tables.append(tab)
            worst = max(worst, tab["abs_err_bihj"].max(), tab["abs_err_polar"].max())
            scale = max(scale, np.abs(tab["re_psi_ref"] + 1j * tab["im_psi_ref"]).max())
    run.emit_csv("reconstruction.csv", RECONSTRUCTION_COLUMNS,
                 (tuple(tab[key] for key in RECONSTRUCTION_COLUMNS) for tab in tables))
    run.add_check({
        "name": "reconstruction_against_reference",
        "passed": bool(worst <= 1e-3 * scale),
        "measured": worst,
        "tolerance": 1e-3 * scale,
    })
    return run.finish(), run


def run_oracle_table(config):
    """Closed-form table for the configured free gaussian (stdout payload)."""
    state = config.initial_state
    if (config.potential.kind, state.kind, state.momentum, state.center) != CLOSED_FORM:
        raise ConfigurationError("the oracle table needs a free gaussian at rest at x = 0")
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
    if figure_id not in ("fig2", "fig3"):
        raise ConfigurationError(f"unknown figure id {figure_id!r}; use fig2 or fig3")
    run = RunBundle("figure", config, out_dir)
    labels = run.labels
    keep_labels = np.arange(0, len(labels), max(1, (len(labels) - 1) // 14))
    # the blocks are built as the file is written, inside its write stage
    if figure_id == "fig2":
        named = zip(("dbb", "plus", "minus"), run.congruences("dbb", "plus", "minus"))

        def blocks():
            for cid, c in named:
                keep = _sampled_indices(c.times.shape[0], 81)
                times = c.times[keep]
                yield from ((cid, c.labels.values[i], times, c.q[keep, i]) for i in keep_labels)
        run.emit_csv("fig2.csv", ("series", "q0", "time", "value"), blocks())
    else:
        setup, result = run.composition("i")

        def blocks():
            host = setup.congruence_A
            keep_host = _sampled_indices(host.times.shape[0], 81)
            times = host.times[keep_host]
            yield from (("i", "qA_family", host.labels.values[i], times, host.q[keep_host, i])
                        for i in keep_labels)
            # the composed track's generator and path, interleaved row by row
            track = int(np.argmin(np.abs(result.labels_C.values - 1.0)))
            keep = _sampled_indices(result.times.shape[0], 81)
            yield ("i", np.tile(["QB", "qC"], len(keep)), result.labels_C.values[track],
                   np.repeat(result.times[keep], 2),
                   np.stack([result.Q_B[keep, track], result.q_C[keep, track]], 1).ravel())
        run.emit_csv("fig3.csv", ("case_id", "series", "q0", "time", "value"), blocks())
    return run.finish(), run
