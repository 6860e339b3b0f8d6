"""Eulerian fields derived from wavefunction snapshots, and residual checks.

From each snapshot this module extracts the density, the unwrapped phase
action S, the coupled action pair S_plus / S_minus, the three velocity fields
and the quantum potentials.  The first term of the coupling potentials is
computed with the sign that closes the continuity / phase-action system,

    Q_plus  = +(hbar/2m) d2(S_minus) - (1/4m) [d(S_plus - S_minus)]^2
    Q_minus = -(hbar/2m) d2(S_plus)  - (1/4m) [d(S_plus - S_minus)]^2

and ``q_sign="flipped"`` exposes the opposite choice so the residual suite can
demonstrate that it does not converge (permanent sign regression).
"""
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateStateError, PreconditionError, UnwrapError
from .kernels import NotAKnotSpline

UNWRAP_JUMP_LIMIT = 3.0  # radians between adjacent valid points
MIN_RUN_LENGTH = 5  # shortest maskable run usable by the one-sided stencils


# ---------- finite differences on a contiguous run ----------

def _grad_run(f, dx):
    """Second-order gradient, one-sided second order at the run edges."""
    g = np.empty_like(f)
    g[1:-1] = (f[2:] - f[:-2]) * (0.5 / dx)
    g[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dx)
    g[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dx)
    return g


def _lap_run(f, dx):
    """Second-order second derivative, one-sided at the run edges."""
    inv = 1.0 / (dx * dx)
    L = np.empty_like(f)
    L[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) * inv
    L[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) * inv
    L[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) * inv
    return L


def _find_runs(mask):
    """Contiguous valid runs of usable length; short islands are dropped."""
    mask = mask.copy()
    edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False])).astype(int)))
    runs = []
    for a, b in zip(edges[::2], edges[1::2]):
        if b - a >= MIN_RUN_LENGTH:
            runs.append((int(a), int(b)))
        else:
            mask[a:b] = False
    return mask, runs


def _masked_grad(f, dx, runs, out=None):
    g = np.full_like(f, np.nan) if out is None else out
    for a, b in runs:
        g[a:b] = _grad_run(f[a:b], dx)
    return g


def _masked_lap(f, dx, runs):
    L = np.full_like(f, np.nan)
    for a, b in runs:
        L[a:b] = _lap_run(f[a:b], dx)
    return L


# ---------- snapshot and series containers ----------

@dataclass(frozen=True)
class FieldSnapshot:
    grid: object
    time: float
    rho: np.ndarray
    S: np.ndarray
    S_plus: np.ndarray
    S_minus: np.ndarray
    v: np.ndarray
    v_plus: np.ndarray
    v_minus: np.ndarray
    u: np.ndarray
    Q: np.ndarray
    Q_plus: np.ndarray
    Q_minus: np.ndarray
    valid: np.ndarray
    ref_index: int
    rho_ref: float

    def __post_init__(self):
        for name in ("rho", "S", "S_plus", "S_minus", "v", "v_plus", "v_minus",
                     "u", "Q", "Q_plus", "Q_minus", "valid"):
            arr = getattr(self, name)
            arr.flags.writeable = False

    @property
    def ref_action(self):
        return float(self.S[self.ref_index])

    def runs(self):
        _, runs = _find_runs(self.valid.copy())
        return runs

    def largest_run(self):
        """(start, stop) grid indices of the longest valid run."""
        return max(self.runs(), key=lambda r: r[1] - r[0])

    def spline(self, values):
        """Cubic spline of grid ``values`` over the longest valid run."""
        a, b = self.largest_run()
        return NotAKnotSpline(self.grid.x[a:b], values[a:b])


@dataclass(frozen=True)
class FieldSeries:
    params: object
    snapshots: tuple
    times: np.ndarray = field(init=False, repr=False, compare=False)
    dt: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        snaps = tuple(self.snapshots)
        if not snaps:
            raise PreconditionError("field series needs at least one snapshot")
        times = np.array([s.time for s in snaps])
        times.flags.writeable = False
        if len(snaps) > 1:
            steps = np.diff(times)
            if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
                raise PreconditionError("field snapshots must be uniformly spaced in time")
        grid = snaps[0].grid
        hbar = self.params.hbar
        for prev, cur in zip(snaps, snaps[1:]):
            if cur.grid != grid:
                raise PreconditionError("all field snapshots must share one grid")
            if abs(cur.ref_action - prev.ref_action) >= np.pi * hbar:
                raise PreconditionError("reference-point action jumps between snapshots")
        object.__setattr__(self, "snapshots", snaps)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "dt", float(times[1] - times[0]) if len(times) > 1 else 0.0)

    @property
    def grid(self):
        return self.snapshots[0].grid


# ---------- field extraction ----------

def _unwrapped_action(values, mask, runs, ref_index, hbar, prev_ref_action):
    """Unwrap the phase along x across valid runs and fix the global constant."""
    n = values.shape[0]
    S = np.full(n, np.nan)
    angles = np.angle(values)

    def unwrap_from(a, b, i0, anchor):
        seg = angles[a:b]
        d = np.diff(seg)
        w = (d + np.pi) % (2.0 * np.pi) - np.pi
        if np.any(np.abs(w) >= UNWRAP_JUMP_LIMIT):
            raise UnwrapError(
                "phase jump between adjacent valid points exceeds the unwrap limit; "
                "the grid is too coarse for this state"
            )
        acc = np.concatenate(([0.0], np.cumsum(w)))
        S[a:b] = hbar * (acc - acc[i0 - a]) + anchor

    ref_run = next(((a, b) for a, b in runs if a <= ref_index < b), None)
    if ref_run is None:
        ref_index = int(np.argmax(mask))
        ref_run = next((a, b) for a, b in runs if a <= ref_index < b)
    base = hbar * angles[ref_index]
    if prev_ref_action is None:
        anchor = base
    else:
        k = np.round((prev_ref_action - base) / (2.0 * np.pi * hbar))
        anchor = base + 2.0 * np.pi * hbar * k
    unwrap_from(*ref_run, ref_index, anchor)

    ordered = sorted(runs)
    pos = ordered.index(ref_run)
    # continue to the right, then to the left, bridging masked gaps by
    # choosing the branch closest to the nearest anchored value
    for (a0, b0), (a1, b1) in zip(ordered[pos:], ordered[pos + 1:]):
        target = hbar * angles[a1]
        k = np.round((S[b0 - 1] - target) / (2.0 * np.pi * hbar))
        unwrap_from(a1, b1, a1, target + 2.0 * np.pi * hbar * k)
    for (a0, b0), (a1, b1) in zip(ordered[pos::-1], ordered[pos - 1::-1] if pos else []):
        target = hbar * angles[b1 - 1]
        k = np.round((S[a0] - target) / (2.0 * np.pi * hbar))
        unwrap_from(a1, b1, b1 - 1, target + 2.0 * np.pi * hbar * k)
    return S, ref_index


def derive_fields(wave, params, rho_min=None, rho_ref=1.0, ref_index=None,
                  prev_ref_action=None, q_sign="derived"):
    """Extract every Eulerian field from one snapshot.

    Parameters
    ----------
    wave : WaveSnapshot
    params : PhysicalParams
    rho_min : density threshold below which points are masked
              (default 1e-12 of this snapshot's peak)
    rho_ref : reference density making the action-pair logarithm dimensionless
    ref_index : grid index anchoring the phase (default: the density peak)
    prev_ref_action : previous snapshot's anchor action, for time continuity
    q_sign : "derived" (default) or "flipped" first-term sign of the
             coupling potentials
    """
    if q_sign not in ("derived", "flipped"):
        raise PreconditionError(f"unknown q_sign {q_sign!r}")
    hbar, mass = params.hbar, params.mass
    dx = wave.grid.dx
    rho = wave.density()
    if rho_min is None:
        rho_min = 1e-12 * rho.max()
    mask = rho >= rho_min
    mask, runs = _find_runs(mask)
    if not runs:
        raise DegenerateStateError("every grid point is below the density threshold")
    if ref_index is None:
        ref_index = int(np.argmax(rho))

    S, ref_index = _unwrapped_action(wave.values, mask, runs, ref_index, hbar, prev_ref_action)
    log_rho = np.full_like(rho, np.nan)
    log_rho[mask] = np.log(rho[mask] / rho_ref)
    S_plus = S + 0.5 * hbar * log_rho
    S_minus = S - 0.5 * hbar * log_rho

    v_plus = _masked_grad(S_plus, dx, runs) / mass
    v_minus = _masked_grad(S_minus, dx, runs) / mass
    v = 0.5 * (v_plus + v_minus)
    u = v_plus - v_minus

    sign = 1.0 if q_sign == "derived" else -1.0
    lap_minus = _masked_lap(S_minus, dx, runs)
    lap_plus = _masked_lap(S_plus, dx, runs)
    coupling = (mass / 4.0) * u**2
    Q_plus = sign * (0.5 * hbar / mass) * lap_minus - coupling
    Q_minus = -sign * (0.5 * hbar / mass) * lap_plus - coupling

    sqrt_rho = np.sqrt(np.where(mask, rho, np.nan))
    Q = np.full_like(rho, np.nan)
    for a, b in runs:
        Q[a:b] = -(hbar**2 / (2.0 * mass)) * _lap_run(sqrt_rho[a:b], dx) / sqrt_rho[a:b]

    return FieldSnapshot(
        grid=wave.grid, time=wave.time, rho=rho, S=S, S_plus=S_plus, S_minus=S_minus,
        v=v, v_plus=v_plus, v_minus=v_minus, u=u, Q=Q, Q_plus=Q_plus, Q_minus=Q_minus,
        valid=mask, ref_index=ref_index, rho_ref=rho_ref,
    )


def derive_series(series, rho_min=None, rho_ref=1.0, q_sign="derived"):
    """Field series with the anchor fixed at t=0 and continued in time."""
    first = series.snapshots[0]
    if rho_min is None:
        rho_min = 1e-12 * first.density().max()
    ref_index = int(np.argmax(first.density()))
    out = []
    prev = None
    for snap in series.snapshots:
        fs = derive_fields(snap, series.params, rho_min=rho_min, rho_ref=rho_ref,
                           ref_index=ref_index, prev_ref_action=prev, q_sign=q_sign)
        prev = fs.ref_action
        out.append(fs)
    return FieldSeries(series.params, tuple(out))


# ---------- residual suites ----------

@dataclass(frozen=True)
class ResidualSeries:
    """Pair of residual fields on the interior snapshots of a series."""

    times: np.ndarray
    plus: np.ndarray
    minus: np.ndarray

    def max_abs(self):
        """Largest magnitude over both residual fields."""
        return float(np.nanmax(np.abs(np.concatenate([self.plus, self.minus]))))

    def rms(self):
        """Root mean square over both residual fields."""
        return float(np.sqrt(np.nanmean(np.concatenate([self.plus, self.minus]) ** 2)))


def _interior_indices(fseries):
    if len(fseries.snapshots) < 3:
        raise PreconditionError("residuals need at least 3 snapshots for time differencing")
    return range(1, len(fseries.snapshots) - 1)


def hj_residuals(fseries):
    """Residuals of the coupled phase-action evolution equations."""
    params = fseries.params
    v_grid = params.potential.on_grid(fseries.grid, params.mass)
    dt = fseries.dt
    mass = params.mass
    rows_p, rows_m, times = [], [], []
    snaps = fseries.snapshots
    for k in _interior_indices(fseries):
        prev_s, cur, next_s = snaps[k - 1], snaps[k], snaps[k + 1]
        ok = prev_s.valid & cur.valid & next_s.valid
        dSp = (next_s.S_plus - prev_s.S_plus) / (2.0 * dt)
        dSm = (next_s.S_minus - prev_s.S_minus) / (2.0 * dt)
        rp = dSp + 0.5 * mass * cur.v_plus**2 + cur.Q_plus + v_grid
        rm = dSm + 0.5 * mass * cur.v_minus**2 + cur.Q_minus + v_grid
        rows_p.append(np.where(ok, rp, np.nan))
        rows_m.append(np.where(ok, rm, np.nan))
        times.append(cur.time)
    return ResidualSeries(np.array(times), np.array(rows_p), np.array(rows_m))


def fokker_planck_residuals(fseries):
    """Residuals of the drift-diffusion identities obeyed by the density."""
    params = fseries.params
    dt = fseries.dt
    dx = fseries.grid.dx
    diff = params.hbar / (2.0 * params.mass)
    rows_p, rows_m, times = [], [], []
    snaps = fseries.snapshots
    for k in _interior_indices(fseries):
        prev_s, cur, next_s = snaps[k - 1], snaps[k], snaps[k + 1]
        ok = prev_s.valid & cur.valid & next_s.valid
        runs = cur.runs()
        drho = (next_s.rho - prev_s.rho) / (2.0 * dt)
        lap_rho = _masked_lap(cur.rho.astype(float), dx, runs)
        div_p = _masked_grad(np.where(cur.valid, cur.rho * cur.v_plus, np.nan), dx, runs)
        div_m = _masked_grad(np.where(cur.valid, cur.rho * cur.v_minus, np.nan), dx, runs)
        rows_p.append(np.where(ok, drho + div_p - diff * lap_rho, np.nan))
        rows_m.append(np.where(ok, drho + div_m + diff * lap_rho, np.nan))
        times.append(cur.time)
    return ResidualSeries(np.array(times), np.array(rows_p), np.array(rows_m))


def polar_residuals(fseries, q_form="sqrt"):
    """Continuity and single phase-action residuals of the polar pair.

    ``q_form`` selects the quantum-potential discretisation: "sqrt" uses the
    stored amplitude form, "log" rebuilds it from the log density with the
    same stencils as the coupled pair (the choice that makes the mean of the
    pair residuals reproduce the single-action residual to roundoff).
    """
    params = fseries.params
    v_grid = params.potential.on_grid(fseries.grid, params.mass)
    dt = fseries.dt
    dx = fseries.grid.dx
    mass, hbar = params.mass, params.hbar
    rows_c, rows_h, times = [], [], []
    snaps = fseries.snapshots
    for k in _interior_indices(fseries):
        prev_s, cur, next_s = snaps[k - 1], snaps[k], snaps[k + 1]
        ok = prev_s.valid & cur.valid & next_s.valid
        runs = cur.runs()
        drho = (next_s.rho - prev_s.rho) / (2.0 * dt)
        div_j = _masked_grad(np.where(cur.valid, cur.rho * cur.v, np.nan), dx, runs)
        dS = (next_s.S - prev_s.S) / (2.0 * dt)
        if q_form == "log":
            log_rho = (cur.S_plus - cur.S_minus) / hbar
            q_pot = (-(hbar**2 / (4.0 * mass)) * _masked_lap(log_rho, dx, runs)
                     - (hbar**2 / (8.0 * mass)) * _masked_grad(log_rho, dx, runs) ** 2)
        else:
            q_pot = cur.Q
        hj = dS + 0.5 * mass * cur.v**2 + q_pot + v_grid
        rows_c.append(np.where(ok, drho + div_j, np.nan))
        rows_h.append(np.where(ok, hj, np.nan))
        times.append(cur.time)
    return ResidualSeries(np.array(times), np.array(rows_c), np.array(rows_h))


# ---------- stationary points ----------

@dataclass(frozen=True)
class StationaryPoints:
    points: np.ndarray
    degenerate: bool


def stationary_points(snapshot):
    """Zeros of v_plus - v_minus, bracketing plus linear interpolation.

    These coincide with the density extrema.  When the relative velocity
    vanishes identically (plane wave) there is no isolated stationary point
    and the result is flagged degenerate: |u| <= 1e-6 of the larger of
    max |v_plus| and max |v_minus|.
    """
    if not snapshot.valid.any():
        raise PreconditionError("no valid points in snapshot")
    x = snapshot.grid.x
    w = snapshot.u
    scale = max(np.nanmax(np.abs(snapshot.v_plus)), np.nanmax(np.abs(snapshot.v_minus)))
    if not np.isfinite(scale) or np.nanmax(np.abs(w)) <= 1e-6 * max(scale, 1e-300):
        return StationaryPoints(np.array([]), True)
    pts = []
    for a, b in snapshot.runs():
        seg = w[a:b]
        for i in range(b - a - 1):
            w0, w1 = seg[i], seg[i + 1]
            if w0 == 0.0:
                pts.append(x[a + i])
            elif w0 * w1 < 0.0:
                pts.append(x[a + i] - w0 * (x[a + i + 1] - x[a + i]) / (w1 - w0))
        if seg[-1] == 0.0:
            pts.append(x[b - 1])
    return StationaryPoints(np.array(pts), False)


# ---------- time reversal ----------

@dataclass(frozen=True)
class TimeReversalReport:
    max_action_mismatch: float
    max_velocity_mismatch: float
    action_offset: float


def time_reversal_check(fseries, conj_fseries):
    """Exchange test against a conjugate run.

    ``conj_fseries`` must come from evolving the conjugated final snapshot of
    the original run over the same span, so its elapsed time tau corresponds
    to the original time T - tau.  The exchange property then requires

        S'_plus(x, tau) = -S_minus(x, T - tau)      (same for minus/plus)
        v'_plus(x, tau) = -v_minus(x, T - tau)

    up to one global multiple of 2 pi hbar in the actions (the unwrap anchors
    of the two runs are fixed independently).
    """
    if fseries.grid != conj_fseries.grid:
        raise PreconditionError("time reversal check needs matching grids")
    n = len(fseries.snapshots)
    if n != len(conj_fseries.snapshots) or abs(fseries.dt - conj_fseries.dt) > 1e-12 * max(fseries.dt, 1e-300):
        raise PreconditionError("time reversal check needs matching time bases")
    hbar = fseries.params.hbar
    period = 2.0 * np.pi * hbar

    first = conj_fseries.snapshots[0]
    last = fseries.snapshots[-1]
    both = first.valid & last.valid
    offset = period * np.round(np.median((first.S[both] + last.S[both])) / period)

    s_err = 0.0
    v_err = 0.0
    for k in range(n):
        prim = conj_fseries.snapshots[k]
        orig = fseries.snapshots[n - 1 - k]
        ok = prim.valid & orig.valid
        s_err = max(
            s_err,
            np.nanmax(np.abs(prim.S_plus[ok] + orig.S_minus[ok] - offset)),
            np.nanmax(np.abs(prim.S_minus[ok] + orig.S_plus[ok] - offset)),
        )
        v_err = max(
            v_err,
            np.nanmax(np.abs(prim.v_plus[ok] + orig.v_minus[ok])),
            np.nanmax(np.abs(prim.v_minus[ok] + orig.v_plus[ok])),
        )
    return TimeReversalReport(float(s_err), float(v_err), float(offset))
