"""Labelled trajectory ensembles driven by sampled or analytic velocity fields.

A congruence stores, per label and stored time, the position, velocity,
expansion factor J = dq/dq0 (integrated through its variational equation) and
the accumulated action.  Positions must stay strictly monotone in the label
and J strictly positive; violations abort with diagnostics.
"""
from dataclasses import dataclass

import numpy as np

from .errors import (
    CongruenceCrossingError,
    DomainError,
    ExtrapolationError,
    FocalPointError,
    InstabilityError,
    PreconditionError,
    TrajectoryExitError,
)
from .kernels import NotAKnotSpline, invert_monotone, pchip_slopes


@dataclass(frozen=True)
class LabelSet:
    """Strictly increasing initial positions identifying the trajectories."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.shape[0] < 2:
            raise PreconditionError("labels must be a 1d array with at least 2 entries")
        if np.any(np.diff(vals) <= 0):
            raise PreconditionError("labels must be strictly increasing")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return self.values.shape[0]

    @staticmethod
    def uniform(lo, hi, count):
        return LabelSet(np.linspace(lo, hi, count))

    @staticmethod
    def from_density(rho0, lo, hi, count=101, floor=1e-6, probe_points=4096):
        """Uniform labels spanning the region where rho0 >= floor * max."""
        x = np.linspace(lo, hi, probe_points)
        r = np.asarray(rho0(x), dtype=float)
        keep = r >= floor * r.max()
        if not keep.any():
            raise PreconditionError("density floor leaves no admissible labels")
        return LabelSet.uniform(x[keep].min(), x[keep].max(), count)


# ---------- velocity sources ----------

class CallableSource:
    """Analytic velocity field given by (value, slope) callables, and an
    optional action-rate callable L(x, t)."""

    def __init__(self, velocity, dvdx, rate=None, x_span=None, t_span=None):
        self._v = velocity
        self._g = dvdx
        self._rate = rate
        self.x_span = x_span
        self.t_span = t_span

    def _check(self, x, t):
        if self.t_span is not None and not (self.t_span[0] - 1e-12 <= t <= self.t_span[1] + 1e-12):
            raise DomainError(float(np.min(x)), t, "time outside the sampled span")
        if self.x_span is not None:
            x = np.asarray(x)
            bad = (x < self.x_span[0]) | (x > self.x_span[1])
            if np.any(bad):
                raise DomainError(float(x[bad][0]) if x.ndim else float(x), t)

    def velocity(self, x, t):
        self._check(x, t)
        return self._v(x, t)

    def sample(self, x, t):
        """(v, dv/dx, L) at the points x; L is 0.0 without a rate."""
        self._check(x, t)
        return self._v(x, t), self._g(x, t), 0.0 if self._rate is None else self._rate(x, t)


class ScaledSource:
    """A velocity source multiplied by a constant factor; its action rate is
    the wrapped source's."""

    def __init__(self, source, factor):
        self.source = source
        self.factor = factor

    def velocity(self, x, t):
        return self.factor * self.source.velocity(x, t)

    def sample(self, x, t):
        v, g, L = self.source.sample(x, t)
        return self.factor * v, self.factor * g, L


class FieldSource:
    """Sampler of one field of a field series, and optionally of an action rate.

    Cubic interpolation over the largest valid run in x, linear interpolation
    between snapshots in time.  Queries outside the valid region raise.
    Besides the stored fields, ``L_plus``, ``L_minus`` and ``L`` are the
    Lagrangian rates m v^2 / 2 - Q - V of the plus, minus and mean flows;
    calling a source samples its value, so it can serve as an action rate.
    A source built with one of them as ``rate`` splines the field and the
    rate as the two columns of one spline per snapshot (they share the
    valid run, so the knots), and ``sample`` gives v, dv/dx and L from one
    interval search per bracketing snapshot.
    """

    FIELD_NAMES = ("v", "v_plus", "v_minus", "u", "rho")
    RATE_TERMS = {"L_plus": ("v_plus", "Q_plus"), "L_minus": ("v_minus", "Q_minus"),
                  "L": ("v", "Q")}

    def __init__(self, fseries, field="v", rate=None):
        if field not in self.FIELD_NAMES and field not in self.RATE_TERMS:
            raise PreconditionError(f"unknown field {field!r}")
        if rate is not None and rate not in self.RATE_TERMS:
            raise PreconditionError(f"unknown action rate {rate!r}")
        self.fseries = fseries
        self.field = field
        self.rate = rate
        self._splines = [None] * len(fseries.snapshots)

    def _values(self, snap, name):
        if name not in self.RATE_TERMS:
            return getattr(snap, name)
        v, Q = (getattr(snap, term) for term in self.RATE_TERMS[name])
        params = self.fseries.params
        return 0.5 * params.mass * v**2 - Q - params.potential.on_grid(snap.grid, params.mass)

    def _spline(self, k):
        if self._splines[k] is None:
            snap = self.fseries.snapshots[k]
            values = self._values(snap, self.field)
            if self.rate is not None:
                values = np.stack((values, self._values(snap, self.rate)), axis=1)
            sp = snap.spline(values)
            self._splines[k] = sp, sp.x[0], sp.x[-1]
        return self._splines[k]

    def _bracket(self, t):
        times = self.fseries.times
        dt = self.fseries.dt
        if t < times[0] - 1e-9 or t > times[-1] + 1e-9:
            raise DomainError(0.0, t, "time outside the sampled span")
        if dt == 0.0:
            return 0, 0, 0.0
        k = int(np.floor((t - times[0]) / dt))
        k = min(max(k, 0), len(times) - 2)
        w = (t - times[k]) / dt
        return k, k + 1, min(max(w, 0.0), 1.0)

    def _blend(self, x, t, evaluate):
        """Time blend 0.0 + (1 - w) evaluate(sp_k, x) + w evaluate(sp_k+1, x)
        over the splines of the two bracketing snapshots."""
        x = np.asarray(x, dtype=float)
        k0, k1, w = self._bracket(t)
        x_lo, x_hi = x.min(initial=np.inf), x.max(initial=-np.inf)
        out = 0.0
        for k, wk in ((k0, 1.0 - w), (k1, w)):
            if wk == 0.0 and k != k0:
                continue
            sp, lo, hi = self._spline(k)
            if x_lo < lo or x_hi > hi:
                raise DomainError(float(np.atleast_1d(x[(x < lo) | (x > hi)])[0]), t)
            out = out + wk * evaluate(sp, x)
        return out

    def _eval(self, x, t, nu):
        out = self._blend(x, t, lambda sp, xq: sp(xq, nu))
        return out if self.rate is None else out[..., 0]

    def velocity(self, x, t):
        return self._eval(x, t, 0)

    def dvdx(self, x, t):
        return self._eval(x, t, 1)

    def __call__(self, x, t):
        return self.velocity(x, t)

    def sample(self, x, t):
        """(v, dv/dx, L) at the points x; L is 0.0 without a rate."""
        both = self._blend(x, t, NotAKnotSpline.value_and_slope)
        if self.rate is None:
            return both[0], both[1], 0.0
        return both[0, ..., 0], both[1, ..., 0], both[0, ..., 1]


# ---------- the congruence container ----------

@dataclass(frozen=True)
class Congruence:
    labels: LabelSet
    times: np.ndarray
    q: np.ndarray
    qdot: np.ndarray
    J: np.ndarray
    chi: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        steps = np.diff(times)
        if times.shape[0] < 1 or (times.shape[0] > 1 and (
                np.any(steps == 0.0) or not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-15))):
            raise PreconditionError("congruence times must be uniformly spaced")
        for name in ("q", "qdot", "J", "chi"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (times.shape[0], len(self.labels)):
                raise PreconditionError(f"{name} must have shape (n_times, n_labels)")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        times.flags.writeable = False
        object.__setattr__(self, "times", times)
        _check_paths(self.times, self.q, self.J, self.labels.values)

    @property
    def dt(self):
        return self.times[1] - self.times[0] if self.times.shape[0] > 1 else 0.0

    def time_index(self, t):
        if self.times.shape[0] == 1:
            k = 0
        else:
            k = int(np.round((t - self.times[0]) / self.dt))
        if not 0 <= k < self.times.shape[0] or abs(self.times[k] - t) > 1e-9 * max(1.0, abs(t)):
            raise PreconditionError(f"time {t} is not a stored congruence time")
        return k

    def label_index(self, q0):
        i = int(np.argmin(np.abs(self.labels.values - q0)))
        if abs(self.labels.values[i] - q0) > 1e-9 * max(1.0, abs(q0)):
            raise PreconditionError(f"label {q0} is not stored")
        return i

    def jacobian_fd_mismatch(self):
        """Max relative gap between stored J and a label finite difference."""
        q0 = self.labels.values
        worst = 0.0
        for k in range(self.times.shape[0]):
            fd = np.gradient(self.q[k], q0)[1:-1]
            worst = max(worst, float(np.max(np.abs(fd - self.J[k][1:-1]) / np.abs(self.J[k][1:-1]))))
        return worst


def _check_paths(times, q, J, labels):
    """Raise at the first of the stored times, rows of q and J, where a label's
    expansion factor is not positive or two neighbouring paths crossed."""
    focal = J <= 0.0
    if focal.any():
        k, i = np.argwhere(focal)[0]
        raise FocalPointError(
            f"non-positive expansion factor of label {labels[i]:.6g} at t={times[k]:.6g}")
    crossed = np.diff(q, axis=1) <= 0.0
    if crossed.any():
        k, i = np.argwhere(crossed)[0]
        raise CongruenceCrossingError(
            f"paths of labels {labels[i]:.6g} and {labels[i + 1]:.6g} crossed at t={times[k]:.6g}")


def integrate_congruence(source, labels, times, initial_actions=None):
    """March the labelled ensemble along a velocity field with classic RK4.

    The augmented state per label is (q, J, chi) with dq/dt = v(q, t),
    dJ/dt = dv/dx (q, t) J and dchi/dt = L(q, t), where
    ``source.sample(q, t)`` gives (v, dv/dx, L) in one call.
    """
    if isinstance(labels, LabelSet):
        label_set = labels
    else:
        label_set = LabelSet(np.asarray(labels, dtype=float))
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.shape[0] < 2:
        raise PreconditionError("need at least two time points")

    q0 = label_set.values
    nl = q0.shape[0]
    if initial_actions is None:
        chi = np.zeros(nl)
    elif callable(initial_actions):
        chi = np.asarray(initial_actions(q0), dtype=float)
    else:
        chi = np.asarray(initial_actions, dtype=float)

    zeros = np.zeros(nl)

    def rhs(qv, Jv, t):
        # adding zeros broadcasts scalars and turns -0.0 into +0.0
        v, g, L = (np.asarray(f, dtype=float) + zeros for f in source.sample(qv, t))
        return v, g * Jv, L

    n = times.shape[0]
    qs, qdots, Js, chis = (np.empty((n, nl)) for _ in range(4))
    qs[0], Js[0], chis[0] = q0, 1.0, chi
    q, J, chi = qs[0], Js[0], chis[0]

    for k in range(n - 1):
        t = times[k]
        h = times[k + 1] - t
        try:
            k1 = rhs(q, J, t)
            qdots[k] = k1[0]
            k2 = rhs(q + 0.5 * h * k1[0], J + 0.5 * h * k1[1], t + 0.5 * h)
            k3 = rhs(q + 0.5 * h * k2[0], J + 0.5 * h * k2[1], t + 0.5 * h)
            k4 = rhs(q + h * k3[0], J + h * k3[1], t + h)
        except DomainError as err:
            idx = int(np.argmin(np.abs(q - err.x)))
            raise TrajectoryExitError(q0[idx], err.t) from err
        q = qs[k + 1] = q + (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        J = Js[k + 1] = J + (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        chi = chis[k + 1] = chi + (h / 6.0) * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        tn = times[k + 1]
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(J)) and np.all(np.isfinite(chi))):
            raise InstabilityError(f"non-finite trajectory state at t={tn:.6g}")
        _check_paths((tn,), q[None], J[None], q0)
    try:
        qdots[-1] = np.asarray(source.sample(q, times[-1])[0], dtype=float) + zeros
    except DomainError:
        qdots[-1] = qdots[-2]

    return Congruence(label_set, times, qs, qdots, Js, chis)


# ---------- label inversion and trajectory density ----------

def invert_labels(congruence, x, t):
    """Label of the trajectory passing through x at a stored time.

    Monotone cubic (PCHIP) interpolation of the label-to-position map,
    inverted by safeguarded Newton steps inside the one interval holding each
    point; the residual tolerance is 1e-10 of the instantaneous hull width.
    """
    k = congruence.time_index(t)
    pos = congruence.q[k]
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr < pos[0]) or np.any(x_arr > pos[-1]):
        bad = x_arr[(x_arr < pos[0]) | (x_arr > pos[-1])][0]
        raise ExtrapolationError(
            f"x={bad:.6g} lies outside the congruence hull [{pos[0]:.6g}, {pos[-1]:.6g}] at t={t:.6g}"
        )
    slopes = pchip_slopes(congruence.labels.values, pos)
    tol = 1e-10 * (pos[-1] - pos[0])
    out = invert_monotone(congruence.labels.values, pos, slopes, x_arr, tol)
    return out if np.ndim(x) else float(out[0])


def trajectory_density(congruence, rho0, x, t):
    """rho0(q0(x, t)) / J(q0(x, t), t): the density carried by the flow alone."""
    k = congruence.time_index(t)
    q0 = np.atleast_1d(invert_labels(congruence, x, t))
    J = NotAKnotSpline(congruence.labels.values, congruence.J[k])(q0)
    out = np.asarray(rho0(q0), dtype=float) / J
    return out if np.ndim(x) else float(out[0])
