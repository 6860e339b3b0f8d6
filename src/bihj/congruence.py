"""Labelled trajectory ensembles driven by sampled or closed-form velocity fields.

A congruence stores, per label and stored time, the position, velocity,
expansion factor J = dq/dq0 (integrated through its variational equation) and
the accumulated action.  Positions must stay strictly monotone in the label
and J strictly positive; violations abort with diagnostics.
"""
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CongruenceCrossingError,
    DomainError,
    ExtrapolationError,
    FocalPointError,
    InstabilityError,
    PreconditionError,
    SampledSpanError,
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
    def from_density(rho0, lo, hi, count=101, floor=1e-6):
        """Uniform labels spanning the region where rho0 >= floor * max,
        probed at 4096 points."""
        x = np.linspace(lo, hi, 4096)
        r = np.asarray(rho0(x), dtype=float)
        keep = r >= floor * r.max()
        if not keep.any():
            raise PreconditionError("density floor leaves no admissible labels")
        return LabelSet.uniform(x[keep].min(), x[keep].max(), count)


# ---------- stacks: the flows of one march ----------

class FieldStack:
    """The velocity fields and action rates of k flows of one field series,
    marched together as one state of shape (k, n_labels).

    ``specs`` holds one (field, rate, factor) per flow: the flow's velocity
    is ``factor`` times ``field``, and its action rate is ``rate``, or 0.0
    when ``rate`` is None.  Fields and rates are named from the stored
    fields (``v``, ``v_plus``, ``v_minus``, ``u``, ``rho``) and the
    Lagrangian rates m v^2 / 2 - Q - V of the plus, minus and mean flows
    (``L_plus``, ``L_minus``, ``L``).

    Each snapshot is splined once over its largest valid run, with one
    column per distinct field and rate; the columns share the run, so the
    knots.  Between snapshots the splines are blended linearly in time.
    Only the splines of the two snapshots that bracket the latest query are
    kept: a march moves one way in time, so an older snapshot is not asked
    for again.  Queries outside the valid run raise a ``DomainError``, and
    times outside the sampled span a ``SampledSpanError``.

    ``sample(x, t)`` on x of shape (k, n) makes one interval search per
    bracketing snapshot over all k n points, then gathers for each point
    only its own flow's field and rate columns, and gives v, dv/dx and L,
    each of shape (k, n).  On a one-flow stack, ``velocity(x, t)`` gives
    ``factor`` times the field at points of any shape, with the bits of the
    v of ``sample``.
    """

    FIELD_NAMES = ("v", "v_plus", "v_minus", "u", "rho")
    RATE_TERMS = {"L_plus": ("v_plus", "Q_plus"), "L_minus": ("v_minus", "Q_minus"),
                  "L": ("v", "Q")}

    def __init__(self, fseries, specs, flows=None):
        self.fseries = fseries
        self.specs = tuple(specs)
        self.flows = tuple(flows) if flows is not None else (None,) * len(self.specs)
        self.columns = tuple(dict.fromkeys(
            name for field, rate, _ in self.specs for name in (field, rate) if name is not None))
        for name in self.columns:
            if name not in self.FIELD_NAMES and name not in self.RATE_TERMS:
                raise PreconditionError(f"unknown field {name!r}")
        self._splines = {}
        self._v_cols = np.array([self.columns.index(f) for f, _, _ in self.specs])
        # a flow without a rate gathers its field column, and sample sets its L to 0.0
        self._rate_cols = np.array([self.columns.index(r or f) for f, r, _ in self.specs])
        self._cols = np.empty((2, 0), dtype=int)  # each point's two columns, for the last size

    def _values(self, snap, name):
        if name not in self.RATE_TERMS:
            return getattr(snap, name)
        v, Q = (getattr(snap, term) for term in self.RATE_TERMS[name])
        params = self.fseries.params
        return 0.5 * params.mass * v**2 - Q - params.potential.on_grid(snap.grid, params.mass)

    def _bracket(self, t):
        times = self.fseries.times
        dt = self.fseries.dt
        if t < times[0] - 1e-9 or t > times[-1] + 1e-9:
            raise SampledSpanError(t, times[0], times[-1])
        if dt == 0.0:
            return 0, 0, 0.0
        k = int(np.floor((t - times[0]) / dt))
        k = min(max(k, 0), len(times) - 2)
        w = (t - times[k]) / dt
        return k, k + 1, min(max(w, 0.0), 1.0)

    def _blend(self, x, t, evaluate):
        """Time blend 0.0 + (1 - w) evaluate(sp_k, x) + w evaluate(sp_k+1, x)
        over the splines of the two snapshots bracketing t, without a term
        of weight 0; the splines of other snapshots are dropped.  The first
        point of x outside a valid run raises a DomainError that carries its
        flat index."""
        x = np.asarray(x, dtype=float)
        k0, k1, w = self._bracket(t)
        for k in [k for k in self._splines if k not in (k0, k1)]:
            del self._splines[k]
        x_lo, x_hi = x.min(initial=np.inf), x.max(initial=-np.inf)
        out = 0.0
        for k, wk in ((k0, 1.0 - w), (k1, w)):
            if wk == 0.0:
                continue
            if k not in self._splines:
                snap = self.fseries.snapshots[k]
                sp = snap.spline(np.stack([self._values(snap, name) for name in self.columns], 1))
                self._splines[k] = sp, sp.x[0], sp.x[-1]
            sp, lo, hi = self._splines[k]
            if x_lo < lo or x_hi > hi:
                i = int(np.flatnonzero((x < lo) | (x > hi))[0])
                raise DomainError(float(x.flat[i]), t, index=i)
            out = out + wk * evaluate(sp, x)
        return out

    def velocity(self, x, t):
        """``factor`` times the field of a one-flow stack at the points x."""
        (_, _, factor), = self.specs  # its field is column 0
        return factor * self._blend(x, t, lambda sp, x: sp(x)[..., 0])

    def sample(self, x, t):
        k, n = x.shape
        flat = x.ravel()
        if self._cols.shape[1] != k * n:
            self._cols = np.stack((self._v_cols.repeat(n), self._rate_cols.repeat(n)))
        out = self._blend(flat, t, lambda sp, x: sp.own_column(sp.locate(x), self._cols, slope=True))
        # [value, slope] x [field, rate] of every point
        v, g, L = (a.reshape(k, n) for a in (out[0, 0], out[1, 0], out[0, 1]))
        for j, (_, rate, factor) in enumerate(self.specs):
            if factor != 1.0:
                v[j], g[j] = factor * v[j], factor * g[j]
            if rate is None:
                L[j] = 0.0
        return v, g, L

    def part(self, j):
        """The stack of flow j alone."""
        return FieldStack(self.fseries, self.specs[j:j + 1], self.flows[j:j + 1])


# ---------- the congruence container ----------

@dataclass(frozen=True)
class Congruence:
    """Positions, velocities, expansion factors and actions of a labelled
    ensemble, one row per stored time.  ``min_path_spacing`` (the smallest
    gap between adjacent paths) and ``min_expansion_factor`` are taken over
    every stored time by the order and J checks of the container."""

    labels: LabelSet
    times: np.ndarray
    q: np.ndarray
    qdot: np.ndarray
    J: np.ndarray
    chi: np.ndarray
    min_path_spacing: float = field(init=False, repr=False, compare=False)
    min_expansion_factor: float = field(init=False, repr=False, compare=False)

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
        spacing, expansion = _check_paths(self.times, self.q, self.J, self.labels.values)
        object.__setattr__(self, "min_path_spacing", spacing)
        object.__setattr__(self, "min_expansion_factor", expansion)

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


def _check_paths(times, q, J, labels, flow=None):
    """Raise at the first of the stored times, rows of q and J, where a label's
    expansion factor is not positive or two neighbouring paths crossed; the
    message names ``flow`` if it is given.  Return the smallest gap between
    neighbouring paths and the smallest expansion factor."""
    focal = J <= 0.0
    if focal.any():
        k, i = np.argwhere(focal)[0]
        of = f"the {flow} path of label" if flow else "label"
        raise FocalPointError(
            f"non-positive expansion factor of {of} {labels[i]:.6g} at t={times[k]:.6g}")
    gaps = np.diff(q, axis=1)
    crossed = gaps <= 0.0
    if crossed.any():
        k, i = np.argwhere(crossed)[0]
        raise CongruenceCrossingError(
            f"{flow + ' ' if flow else ''}paths of labels {labels[i]:.6g} and "
            f"{labels[i + 1]:.6g} crossed at t={times[k]:.6g}")
    return float(gaps.min()), float(J.min())


def integrate_congruence(source, labels, times, initial_actions=None):
    """March the k flows of a stack as one labelled ensemble with classic RK4.

    The augmented state per flow and label is (q, J, chi) with
    dq/dt = v(q, t), dJ/dt = dv/dx (q, t) J and dchi/dt = L(q, t), one
    state of shape (k, n_labels).  ``source`` is any stack
    (``GaussianStack``, ``FieldStack``):

    - ``flows`` holds one name per flow (or None), for errors;
    - ``sample(x, t)`` on positions x of shape (k, n_labels) gives v, dv/dx
      and L, each of shape (k, n_labels); a point outside the field's
      domain raises a ``DomainError`` whose ``index`` is its flat index in
      x, or None for the point nearest its ``x``; a time outside the
      stack's sampled span raises a ``SampledSpanError``, which the march
      passes on as it is, since no label is at fault;
    - ``part(j)`` is the stack of flow j alone.

    ``sample`` is called once per RK4 stage for all k flows.
    ``initial_actions`` holds one entry per flow (or None for all zero).
    Returns a tuple of k congruences; errors name the flow, and the first
    failure in time is the one raised, whichever flow it is in.
    """
    if initial_actions is None:
        initial_actions = (None,) * len(source.flows)
    if isinstance(labels, LabelSet):
        label_set = labels
    else:
        label_set = LabelSet(np.asarray(labels, dtype=float))
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.shape[0] < 2:
        raise PreconditionError("need at least two time points")

    q0 = label_set.values
    flows = source.flows
    nf, nl, n = len(flows), q0.shape[0], times.shape[0]
    # one contiguous (n_times, n_labels) block per flow and quantity
    history = np.empty((4, nf, n, nl))
    qs, qdots, Js, chis = history
    for j, actions in enumerate(initial_actions):
        if actions is None:
            chis[j, 0] = 0.0
        elif callable(actions):
            chis[j, 0] = np.asarray(actions(q0), dtype=float)
        else:
            chis[j, 0] = np.asarray(actions, dtype=float)
    qs[:, 0], Js[:, 0] = q0, 1.0
    q, J, chi = qs[:, 0].copy(), Js[:, 0].copy(), chis[:, 0].copy()

    def rhs(qv, Jv, t):
        v, g, L = source.sample(qv, t)
        # adding 0.0 turns -0.0 into +0.0
        return v + 0.0, (g + 0.0) * Jv, L + 0.0

    for k in range(n - 1):
        t = times[k]
        h = times[k + 1] - t
        try:
            k1 = rhs(q, J, t)
            qdots[:, k] = k1[0]
            k2 = rhs(q + 0.5 * h * k1[0], J + 0.5 * h * k1[1], t + 0.5 * h)
            k3 = rhs(q + 0.5 * h * k2[0], J + 0.5 * h * k2[1], t + 0.5 * h)
            k4 = rhs(q + h * k3[0], J + h * k3[1], t + h)
        except SampledSpanError:
            raise
        except DomainError as err:
            at = err.index if err.index is not None else int(np.argmin(np.abs(q - err.x)))
            j, i = divmod(at, nl)
            raise TrajectoryExitError(q0[i], err.t, flows[j]) from err
        q = q + (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        J = J + (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        chi = chi + (h / 6.0) * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        qs[:, k + 1], Js[:, k + 1], chis[:, k + 1] = q, J, chi
        tn = times[k + 1]
        if not (np.isfinite(q).all() and np.isfinite(J).all() and np.isfinite(chi).all()):
            finite = np.isfinite(q).all(1) & np.isfinite(J).all(1) & np.isfinite(chi).all(1)
            flow = flows[int(np.argmin(finite))]
            raise InstabilityError(
                f"non-finite {flow + ' ' if flow else ''}trajectory state at t={tn:.6g}")
        if (J <= 0.0).any() or (np.diff(q, axis=1) <= 0.0).any():
            for j in range(nf):
                _check_paths((tn,), q[j:j + 1], J[j:j + 1], q0, flows[j])
    try:
        qdots[:, -1] = source.sample(q, times[-1])[0] + 0.0
    except DomainError:
        # a flow whose final positions left the valid region keeps its last velocities
        for j in range(nf):
            try:
                qdots[j, -1] = source.part(j).sample(q[j:j + 1], times[-1])[0][0] + 0.0
            except DomainError:
                qdots[j, -1] = qdots[j, -2]

    return tuple(Congruence(label_set, times, qs[j], qdots[j], Js[j], chis[j]) for j in range(nf))


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
