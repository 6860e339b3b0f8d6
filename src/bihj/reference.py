"""Reference wavefunction series: Crank-Nicolson propagation and closed forms."""
from dataclasses import dataclass, field

import numpy as np

from . import gaussian
from .errors import (
    BoundaryBreachError,
    ConfigurationError,
    InstabilityError,
    PreconditionError,
    UnsupportedAnalyticError,
)
from .kernels import NotAKnotSpline, make_tridiag_solver

BOUNDARY_INIT_RATIO = 1e-12
BOUNDARY_RUN_RATIO = 1e-10


@dataclass(frozen=True)
class Potential:
    """External potential: free, harmonic(omega), or values sampled on the grid."""

    kind: str = "free"
    omega: float = 0.0
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("free", "harmonic", "sampled"):
            raise ConfigurationError(f"unknown potential kind {self.kind!r}")
        if self.kind == "harmonic" and self.omega < 0:
            raise ConfigurationError("harmonic potential needs omega >= 0")
        if self.kind == "sampled" and self.values is None:
            raise ConfigurationError("sampled potential needs values")
        if self.values is not None:
            object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    def at(self, x, mass=1.0):
        """Values at positions x of any shape; a sampled potential has values
        only on its grid."""
        if self.kind == "free":
            return np.zeros_like(x)
        if self.kind == "harmonic":
            return 0.5 * mass * self.omega**2 * x**2
        raise PreconditionError("a sampled potential has values only on its grid")

    def on_grid(self, grid, mass=1.0):
        if self.kind != "sampled":
            return self.at(grid.x, mass)
        if self.values.shape[0] != grid.n_points:
            raise ConfigurationError("sampled potential length does not match grid")
        return self.values


@dataclass(frozen=True)
class PhysicalParams:
    hbar: float = 1.0
    mass: float = 1.0
    potential: Potential = field(default_factory=Potential)

    def __post_init__(self):
        problems = []
        if self.hbar <= 0:
            problems.append(f"hbar must be positive, got {self.hbar}")
        if self.mass <= 0:
            problems.append(f"mass must be positive, got {self.mass}")
        if problems:
            raise ConfigurationError("; ".join(problems))


@dataclass(frozen=True)
class SpatialGrid:
    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        problems = []
        if not self.x_min < self.x_max:
            problems.append(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if self.n_points < 16:
            problems.append(f"n_points must be at least 16, got {self.n_points}")
        if problems:
            raise ConfigurationError("; ".join(problems))

    @property
    def dx(self):
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def x(self):
        return np.linspace(self.x_min, self.x_max, self.n_points)


@dataclass(frozen=True)
class WaveSnapshot:
    grid: SpatialGrid
    time: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape[0] != self.grid.n_points:
            raise PreconditionError("snapshot length does not match grid")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def norm(self):
        return float(np.sqrt(self.grid.dx * np.sum(np.abs(self.values) ** 2)))

    def density(self):
        return np.abs(self.values) ** 2

    def at(self, x):
        """psi at the points x: one not-a-knot spline whose two columns are
        the real and imaginary parts."""
        parts = np.stack((self.values.real, self.values.imag), 1)
        re, im = NotAKnotSpline(self.grid.x, parts)(x).T
        return re + 1j * im

    def conjugated(self, time=None):
        return WaveSnapshot(self.grid, self.time if time is None else time, np.conj(self.values))


@dataclass(frozen=True)
class WaveSeries:
    params: PhysicalParams
    snapshots: tuple

    def __post_init__(self):
        snaps = tuple(self.snapshots)
        if len(snaps) < 1:
            raise PreconditionError("series needs at least one snapshot")
        times = np.array([s.time for s in snaps])
        if len(snaps) > 1:
            steps = np.diff(times)
            if np.any(steps <= 0):
                raise PreconditionError("snapshot times must be strictly increasing")
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
                raise PreconditionError("snapshot times must be uniformly spaced")
        grid = snaps[0].grid
        for s in snaps:
            if s.grid != grid:
                raise PreconditionError("all snapshots must share one grid")
        object.__setattr__(self, "snapshots", snaps)

    @property
    def grid(self):
        return self.snapshots[0].grid

    @property
    def times(self):
        return np.array([s.time for s in self.snapshots])

    def health(self):
        """``norm_drift``, the largest |norm - 1|, and ``boundary_density_ratio``,
        the largest edge density over peak density, over the snapshots."""
        drift = ratio = 0.0
        for s in self.snapshots:
            dens = s.density()
            drift = max(drift, abs(s.norm() - 1.0))
            ratio = max(ratio, float(max(dens[0], dens[-1]) / dens.max()))
        return {"norm_drift": drift, "boundary_density_ratio": ratio}


@dataclass(frozen=True)
class InitialStateSpec:
    """Tagged initial state: a single Gaussian or a two-Gaussian superposition."""

    kind: str
    sigma0: float
    center: float = 0.0
    momentum: float = 0.0
    separation: float = 0.0
    relative_phase: float = 0.0
    relative_weight: float = 0.5

    def __post_init__(self):
        problems = []
        if self.kind not in ("gaussian", "two_gaussian"):
            problems.append(f"unknown initial state kind {self.kind!r}")
        if self.sigma0 <= 0:
            problems.append(f"sigma0 must be positive, got {self.sigma0}")
        if not 0.0 <= self.relative_weight <= 1.0:
            problems.append(f"relative_weight must be within [0, 1], got {self.relative_weight}")
        if problems:
            raise ConfigurationError("; ".join(problems))

    @staticmethod
    def two_gaussian(sigma0, separation, relative_phase=0.0, relative_weight=0.5):
        return InitialStateSpec(
            "two_gaussian",
            sigma0,
            separation=separation,
            relative_phase=relative_phase,
            relative_weight=relative_weight,
        )


def _gaussian_component(x, sigma0, center, momentum, hbar):
    amp = (2.0 * np.pi * sigma0**2) ** -0.25
    return amp * np.exp(-((x - center) ** 2) / (4.0 * sigma0**2) + 1j * momentum * (x - center) / hbar)


def build_initial_state(spec, grid, params):
    """Normalised t=0 snapshot; fails when the tails touch the box walls."""
    x = grid.x
    if spec.kind == "gaussian":
        vals = _gaussian_component(x, spec.sigma0, spec.center, spec.momentum, params.hbar)
        half_width = spec.sigma0 * np.sqrt(2.0 * np.log(1.0 / BOUNDARY_INIT_RATIO)) + abs(spec.center)
    else:
        w = spec.relative_weight
        c = spec.separation / 2.0
        g1 = _gaussian_component(x, spec.sigma0, -c, 0.0, params.hbar)
        g2 = _gaussian_component(x, spec.sigma0, +c, 0.0, params.hbar)
        vals = w * g1 + (1.0 - w) * np.exp(1j * spec.relative_phase) * g2
        half_width = spec.sigma0 * np.sqrt(2.0 * np.log(1.0 / BOUNDARY_INIT_RATIO)) + c

    dens = np.abs(vals) ** 2
    peak = dens.max()
    edge = max(dens[0], dens[-1])
    if edge > BOUNDARY_INIT_RATIO * peak:
        raise ConfigurationError(
            f"boundary density ratio {edge / peak:.3e} exceeds {BOUNDARY_INIT_RATIO:.0e}; "
            f"the domain must extend at least {half_width:.3g} beyond the packet centre"
        )
    vals = vals / np.sqrt(grid.dx * dens.sum())
    if spec.kind == "gaussian" and spec.momentum == 0.0:
        vals = np.abs(vals).astype(complex)  # gaussian at rest is real and positive
    return WaveSnapshot(grid, 0.0, vals)


def evolve_crank_nicolson(initial, params, dt, steps, store_every=1):
    """Propagate with the unconditionally stable implicit midpoint scheme.

    The Hamiltonian is the standard three-point discretisation with implicit
    zero boundary values; the per-step linear solve is tridiagonal.
    """
    if dt <= 0:
        raise PreconditionError(f"dt must be positive, got {dt}")
    if steps < 1:
        raise PreconditionError(f"steps must be at least 1, got {steps}")
    if store_every < 1:
        raise PreconditionError("store_every must be at least 1")

    grid = initial.grid
    dx = grid.dx
    hbar, mass = params.hbar, params.mass
    v_grid = params.potential.on_grid(grid, mass)

    kin = hbar**2 / (2.0 * mass * dx**2)
    h_diag = 2.0 * kin + v_grid
    h_off = np.full(grid.n_points - 1, -kin)
    lam = 1j * dt / (2.0 * hbar)

    a_diag = 1.0 + lam * h_diag.astype(complex)
    a_off = lam * h_off.astype(complex)
    b_diag = 1.0 - lam * h_diag
    b_off = -lam * h_off
    solve = make_tridiag_solver(a_off, a_diag, a_off)

    psi = initial.values.astype(complex)
    dens = np.abs(psi) ** 2
    if max(dens[0], dens[-1]) > BOUNDARY_RUN_RATIO * dens.max():
        raise BoundaryBreachError(initial.time, max(dens[0], dens[-1]) / dens.max())

    snapshots = [WaveSnapshot(grid, initial.time, psi.copy())]
    for n in range(1, steps + 1):
        rhs = b_diag * psi
        rhs[:-1] += b_off * psi[1:]
        rhs[1:] += b_off * psi[:-1]
        psi = solve(rhs)
        t = initial.time + n * dt
        if not np.all(np.isfinite(psi.view(float))):
            raise InstabilityError(f"non-finite amplitude at t={t:.6g}")
        dens0 = abs(psi[0]) ** 2
        dens1 = abs(psi[-1]) ** 2
        if max(dens0, dens1) > BOUNDARY_RUN_RATIO * np.abs(psi).max() ** 2:
            raise BoundaryBreachError(t, max(dens0, dens1) / np.abs(psi).max() ** 2)
        if n % store_every == 0:
            snapshots.append(WaveSnapshot(grid, t, psi.copy()))
    return WaveSeries(params, tuple(snapshots))


def analytic_series(spec, grid, params, times):
    """Closed-form series for the Gaussian at rest (optionally displaced)."""
    if spec.kind != "gaussian" or spec.momentum != 0.0:
        raise UnsupportedAnalyticError(
            "closed forms are available only for the gaussian at rest"
        )
    g = gaussian.GaussianParams(spec.sigma0, params.hbar, params.mass)
    if params.potential.kind != "free":
        raise UnsupportedAnalyticError("closed forms are available only for free evolution")
    x = grid.x - spec.center
    snaps = tuple(WaveSnapshot(grid, float(t), gaussian.psi(g, x, float(t))) for t in times)
    return WaveSeries(params, snaps)
