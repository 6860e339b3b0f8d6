"""Labelled trajectory ensembles driven by sampled or closed-form velocity fields.

A congruence stores, per label and stored time, the position, velocity,
expansion factor J = dq/dq0 (integrated through its variational equation) and
the accumulated action.  Positions must stay strictly monotone in the label
and J strictly positive; violations abort with diagnostics.
"""
import math
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
    knots.  The snapshots share the grid, so between the snapshots k and
    k + 1 around t each point lies on one interval of the knots their runs
    share: one interval search finds it, a gather from each spline's own
    coefficients gives the point's two cubics there, and one cubic of the
    coefficients blended in time, (1 - w) c_k + w c_k+1, is evaluated.  At
    a snapshot time the other snapshot has weight 0 and is left out, so the
    result has the bits of that snapshot's spline.  Only the splines of the
    two snapshots that bracket the latest query are kept, and no blended
    table: a march moves one way in time, so an older snapshot is not asked
    for again.  Queries outside the knots both runs share raise a
    ``DomainError``, and times outside the sampled span a
    ``SampledSpanError``.

    ``sample(x, t)`` on x of shape (k, n) makes one interval search over
    all k n points, then gathers for each point only its own flow's field
    and rate columns, and gives v, dv/dx and L, each of shape (k, n).
    ``fields(x, t)`` gives every flow's ``factor`` times its field at
    points of any shape, stacked along a new first axis, from one interval
    search.  On a one-flow stack, ``velocity(x, t)`` gives that one field,
    with the bits of the v of ``sample``.
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
        self._times = fseries.times.tolist()  # Python floats: cheaper scalar arithmetic
        self._n_cols = len(self.columns)
        self._splines = {}  # snapshot index -> its spline, for the two around the latest t
        self._ks, self._plan = (), None  # the snapshots sampled last, and what they share
        self._v_cols = np.array([self.columns.index(f) for f, _, _ in self.specs])
        self._field_cols = self._v_cols[:, None]  # every point's field column, per flow
        # a flow without a rate gathers its field column, and sample sets its L to 0.0
        self._rate_cols = np.array([self.columns.index(r or f) for f, r, _ in self.specs])
        self._factors = np.array([[factor] for _, _, factor in self.specs])
        self._cols = np.empty((2, 0), dtype=int)  # each point's two columns, for the last size

    def _values(self, snap, name):
        if name not in self.RATE_TERMS:
            return getattr(snap, name)
        v, Q = (getattr(snap, term) for term in self.RATE_TERMS[name])
        params = self.fseries.params
        return 0.5 * params.mass * v**2 - Q - params.potential.on_grid(snap.grid, params.mass)

    def _bracket(self, t):
        times = self._times
        dt = self.fseries.dt
        if t < times[0] - 1e-9 or t > times[-1] + 1e-9:
            raise SampledSpanError(t, times[0], times[-1])
        if dt == 0.0:
            return 0, 0, 0.0
        k = min(max(math.floor((t - times[0]) / dt), 0), len(times) - 2)
        w = (t - times[k]) / dt
        return k, k + 1, min(max(w, 0.0), 1.0)

    def _share(self, ks, bracket):
        """Drop the splines of the snapshots outside ``bracket``, and set
        out what the snapshots ``ks`` share: the bounds of the knots their
        runs share (empty without an interval), the inner and all of those
        knots, and each spline's coefficients from the first shared
        interval on, views of its own."""
        self._ks, self._plan = (), None  # so that no view keeps a dropped spline
        for k in [k for k in self._splines if k not in bracket]:
            del self._splines[k]
        for k in ks:
            if k not in self._splines:
                snap = self.fseries.snapshots[k]
                sp = snap.spline(np.stack([self._values(snap, name) for name in self.columns], 1))
                # its coefficients as the spline holds them reshaped to
                # (4, -1), its knots and its run's (start, stop) grid indices
                self._splines[k] = (sp._flat, sp.x, *snap.largest_run())
        splines = [self._splines[k] for k in ks]
        lo = max(a for _, _, a, _ in splines)
        hi = min(b for _, _, _, b in splines)
        # the shared knots start the run that starts last
        knots = next(x for _, x, a, _ in splines if a == lo)[:hi - lo]
        bounds = (knots[0], knots[-1]) if hi - lo > 1 else (np.inf, -np.inf)
        flats = tuple(flat[:, (lo - a) * self._n_cols:] for flat, _, a, _ in splines)
        self._ks, self._plan = ks, (bounds, knots[1:-1], knots, flats)

    def _local(self, x, t, cols):
        """Local coordinate s of each of the flat points x in its interval,
        and the coefficients c0 ... c3 of the cubics of its columns ``cols``
        there, blended in time, of shape (4,) + the shape of x + cols.

        The splines of the snapshots k and k + 1 bracketing t share the
        grid, so each point lies on one interval of the knots their runs
        share.  One interval search finds it, a gather from each spline's
        own coefficients gives its two cubics there, and they are blended
        as (1 - w) c_k + w c_k+1; a snapshot of weight 0 is left out.  The
        first point outside the shared knots raises a DomainError that
        carries its flat index."""
        k0, k1, w = self._bracket(t)
        ks = (k0, k1) if 0.0 < w < 1.0 else (k1,) if w else (k0,)
        if ks != self._ks:
            self._share(ks, (k0, k1))
        (x_min, x_max), inner, knots, flats = self._plan
        if x.min(initial=np.inf) < x_min or x.max(initial=-np.inf) > x_max:
            i = int(np.flatnonzero((x < x_min) | (x > x_max))[0])
            raise DomainError(float(x[i]), t, index=i)
        i = inner.searchsorted(x, side="right")
        s = x - knots.take(i)
        at = i * self._n_cols + cols
        coef = flats[0].take(at, axis=1)
        if len(flats) == 2:
            coef *= 1.0 - w
            later = flats[1].take(at, axis=1)
            later *= w
            coef += later
        return s, coef

    def fields(self, x, t):
        """Each flow's ``factor`` times its field at the points x of any
        shape, stacked along a new first axis: one interval search serves
        every flow."""
        x = np.asarray(x, dtype=float)
        s, coef = self._local(x.ravel(), t, self._field_cols)
        value = NotAKnotSpline._value(s, s * s, *coef)
        return (self._factors * value).reshape((-1,) + x.shape)

    def velocity(self, x, t):
        """``factor`` times the field of a one-flow stack at the points x."""
        value, = self.fields(x, t)
        return value

    def sample(self, x, t):
        k, n = x.shape
        flat = x.ravel()
        if self._cols.shape[1] != k * n:
            self._cols = np.stack((self._v_cols.repeat(n), self._rate_cols.repeat(n)))
        s, coef = self._local(flat, t, self._cols)
        s2 = s * s
        # the value of each point's field and rate, and the slope of its field
        v, L = NotAKnotSpline._value(s, s2, *coef).reshape(2, k, n)
        g = NotAKnotSpline._slope(s, s2, *coef[:, 0]).reshape(k, n)
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


CHECK_BLOCK_TIMES = 64


def _check_paths(times, q, J, labels, flow=None):
    """Raise at the first of the stored times, rows of q and J, where a label's
    expansion factor is not positive or two neighbouring paths crossed; the
    message names ``flow`` if it is given.  Return the smallest gap between
    neighbouring paths and the smallest expansion factor.  Both checks run
    over CHECK_BLOCK_TIMES stored times at a time, so that no temporary is
    as large as q."""
    blocks = range(0, q.shape[0], CHECK_BLOCK_TIMES)
    for start in blocks:
        focal = J[start:start + CHECK_BLOCK_TIMES] <= 0.0
        if focal.any():
            k, i = np.argwhere(focal)[0]
            of = f"the {flow} path of label" if flow else "label"
            raise FocalPointError(
                f"non-positive expansion factor of {of} {labels[i]:.6g} at t={times[start + k]:.6g}")
    spacings = []
    for start in blocks:
        gaps = np.diff(q[start:start + CHECK_BLOCK_TIMES], axis=1)
        crossed = gaps <= 0.0
        if crossed.any():
            k, i = np.argwhere(crossed)[0]
            raise CongruenceCrossingError(
                f"{flow + ' ' if flow else ''}paths of labels {labels[i]:.6g} and "
                f"{labels[i + 1]:.6g} crossed at t={times[start + k]:.6g}")
        spacings.append(gaps.min())
    return float(np.min(spacings)), float(J.min())


def integrate_congruence(source, labels, times, initial_actions=None):
    """March the k flows of a stack as one labelled ensemble with classic RK4.

    The augmented state per flow and label is (q, J, chi) with
    dq/dt = v(q, t), dJ/dt = dv/dx (q, t) J and dchi/dt = L(q, t), held as
    one array of shape (3, k, n_labels), so that each stage input, the step
    and the finiteness check are one array operation each.  ``source`` is any stack
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
    # one contiguous (n_times, n_labels) block per quantity and flow; q, J
    # and chi first, so that the state of a stored time is one slice
    history = np.empty((4, nf, n, nl))
    qs, Js, chis, qdots = history
    for j, actions in enumerate(initial_actions):
        if actions is None:
            chis[j, 0] = 0.0
        elif callable(actions):
            chis[j, 0] = np.asarray(actions(q0), dtype=float)
        else:
            chis[j, 0] = np.asarray(actions, dtype=float)
    qs[:, 0], Js[:, 0] = q0, 1.0
    # the state (q, J, chi) of every flow and label, one (3, nf, nl) array
    y = history[:3, :, 0].copy()

    def rhs(yv, t):
        v, g, L = source.sample(yv[0], t)
        dy = np.empty_like(yv)
        # adding 0.0 turns -0.0 into +0.0
        np.add(v, 0.0, out=dy[0])
        np.add(g, 0.0, out=dy[1])
        dy[1] *= yv[1]
        np.add(L, 0.0, out=dy[2])
        return dy

    for k in range(n - 1):
        t = times[k]
        h = times[k + 1] - t
        try:
            k1 = rhs(y, t)
            qdots[:, k] = k1[0]
            k2 = rhs(y + 0.5 * h * k1, t + 0.5 * h)
            k3 = rhs(y + 0.5 * h * k2, t + 0.5 * h)
            k4 = rhs(y + h * k3, t + h)
        except SampledSpanError:
            raise
        except DomainError as err:
            at = err.index if err.index is not None else int(np.argmin(np.abs(y[0] - err.x)))
            j, i = divmod(at, nl)
            raise TrajectoryExitError(q0[i], err.t, flows[j]) from err
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        history[:3, :, k + 1] = y
        tn = times[k + 1]
        q, J = y[0], y[1]
        if not np.isfinite(y).all():
            flow = flows[int(np.argmin(np.isfinite(y).all(axis=(0, 2))))]
            raise InstabilityError(
                f"non-finite {flow + ' ' if flow else ''}trajectory state at t={tn:.6g}")
        if (J <= 0.0).any() or (np.diff(q, axis=1) <= 0.0).any():
            for j in range(nf):
                _check_paths((tn,), q[j:j + 1], J[j:j + 1], q0, flows[j])
    q = y[0]
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
