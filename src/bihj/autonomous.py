"""Self-contained propagation of the coupled trajectory pair.

After t=0 no wavefunction enters: each congruence is accelerated by the
gradient of a potential built from the partner congruence's velocity
divergence plus the squared relative velocity,

    accel_plus  = -(1/m) d/dx [ +(hbar/2) div v_minus - (m/4) u^2 + V ]
    accel_minus = -(1/m) d/dx [ -(hbar/2) div v_plus  - (m/4) u^2 + V ]

with u the relative velocity of the two flows at the evaluation point.
The stepper holds both flows as the columns of (n, 2) arrays, plus then
minus; they obey one law and differ only in the sign of the partner term.
Partner quantities are differentiated in label space and interpolated over
the partner's positions with a natural cubic spline; beyond the partner
hull they are continued linearly from the edge (exact whenever the partner
velocity field is spatially linear, as for the free Gaussian).

Each step builds what depends on the positions alone once, after its drift
(``_CoupledStepper.positions``): dq/dq0, the potential, the partner-hull
extrapolation, and both flows' spline systems as one block-diagonal system,
factored once, with the interval and Hermite basis of every evaluation
point.  The step's two force evaluations (``evaluate``), at the half-kicked
and at the new velocities, then take one solve and one basis combination
each for both flows.
"""
from dataclasses import dataclass, field

import numpy as np

from .congruence import Congruence, LabelSet, invert_labels
from .errors import (
    CongruenceCrossingError,
    HullOverlapError,
    InstabilityError,
    PreconditionError,
)
from .kernels import NaturalSplines, NotAKnotSpline, fd_derivative


@dataclass(frozen=True)
class BiCongruence:
    """The coupled pair sharing one label set and one time base."""

    params: object
    plus: Congruence
    minus: Congruence
    S_plus0: np.ndarray
    S_minus0: np.ndarray
    rho_ref: float = 1.0
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.array_equal(self.plus.labels.values, self.minus.labels.values):
            raise PreconditionError("the pair must share one label set")
        if not np.allclose(self.plus.times, self.minus.times, rtol=0, atol=1e-12):
            raise PreconditionError("the pair must share one time base")
        for name in ("S_plus0", "S_minus0"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (len(self.plus.labels),):
                raise PreconditionError(f"{name} must be sampled on the labels")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def labels(self):
        return self.plus.labels

    @property
    def times(self):
        return self.plus.times

    def rho0(self, q):
        s = NotAKnotSpline(self.labels.values, np.stack((self.S_plus0, self.S_minus0), 1))(q)
        sp, sm = s[..., 0], s[..., 1]
        return self.rho_ref * np.exp((sp - sm) / self.params.hbar)

    @staticmethod
    def from_congruences(params, plus, minus, S_plus0, S_minus0, rho_ref=1.0):
        labels = plus.labels.values
        sp = S_plus0(labels) if callable(S_plus0) else np.asarray(S_plus0, dtype=float)
        sm = S_minus0(labels) if callable(S_minus0) else np.asarray(S_minus0, dtype=float)
        return BiCongruence(params, plus, minus, sp, sm, rho_ref)


# ---------- coupled force evaluation ----------

FLOWS = ("plus", "minus")  # the columns of the stepper's (n, 2) arrays
_PARTNER_SIGN = np.array([1.0, -1.0])  # sign of the partner term (hbar/2) div v, per flow


class _Positions:
    """What the forces need of the positions q, shape (n, 2), alone: dq/dq0,
    the potential, and both flows' natural splines, factored, with their
    intervals and Hermite bases at the partner's positions clipped to the
    hull.  A partner's positions beyond that hull continue the flow's
    velocity linearly from the edge, with slope div v."""

    def __init__(self, q, h, potential_values):
        self.dq = fd_derivative(q, h)
        self.pot = potential_values
        partner = q[:, ::-1]  # column f holds the positions that sample flow f
        clipped = np.minimum(np.maximum(partner, q[0]), q[-1])
        beyond = partner - clipped  # signed distance beyond the hull of flow f
        self.extrapolation = float(np.abs(beyond).max())
        self.splines = NaturalSplines(q, clipped)
        # each point beyond a hull, as an entry of the flattened (n, 2) arrays,
        # with the entry of the edge it continues from and its distance
        rows, flows = np.nonzero(beyond)
        self.dist = beyond[rows, flows]
        self.points = 2 * rows + flows
        self.edges = np.where(self.dist < 0.0, 0, 2 * (q.shape[0] - 1)) + flows


class _CoupledStepper:
    def __init__(self, params, labels, max_extrapolation):
        self.mass = params.mass
        self.potential = params.potential
        self.partner_coef = 0.5 * params.hbar * _PARTNER_SIGN
        self.labels = labels
        self.h = labels[1] - labels[0]
        if not np.allclose(np.diff(labels), self.h, rtol=1e-9, atol=1e-15):
            raise PreconditionError("autonomous propagation needs uniform labels")
        self.max_extrap = max_extrapolation
        self.max_seen_extrap = 0.0
        self.min_spacing = np.inf

    def positions(self, q, t):
        """Check the paths of q at time t and build their _Positions."""
        gaps = np.diff(q, axis=0)
        crossed = gaps <= 0
        if crossed.any():
            k, f = np.argwhere(crossed)[0]
            raise CongruenceCrossingError(
                f"{FLOWS[f]} paths of labels {self.labels[k]:.6g} and "
                f"{self.labels[k + 1]:.6g} crossed at t={t:.6g}")
        self.min_spacing = min(self.min_spacing, float(gaps.min()))
        pos = _Positions(q, self.h, self.potential.at(q, self.mass))
        self.max_seen_extrap = max(self.max_seen_extrap, pos.extrapolation)
        if self.max_extrap is not None and pos.extrapolation > self.max_extrap:
            raise HullOverlapError(
                f"partner-hull extrapolation {pos.extrapolation:.3g} exceeds the allowed "
                f"{self.max_extrap:.3g} at t={t:.6g}")
        return pos

    def evaluate(self, pos, v):
        """Accelerations, own divergences and action rates of both flows at
        the positions pos, each of shape (n, 2) like the velocities v."""
        div = fd_derivative(v, self.h) / pos.dq
        own = np.stack((v, div))  # (quantity, label, flow)
        sampled = pos.splines(own)  # column f: flow f at its partner's positions
        if pos.dist.size:
            edge = own.reshape(2, -1).take(pos.edges, axis=1)
            flat = sampled.reshape(2, -1)
            flat[0, pos.points] = edge[0] + edge[1] * pos.dist
            flat[1, pos.points] = edge[1]
        at = sampled[:, :, ::-1]  # the partner's quantities at the own positions

        # the relative velocity u enters squared, so its sign does not matter
        q_pot = self.partner_coef * at[1] - 0.25 * self.mass * (v - at[0])**2
        acc = -fd_derivative(q_pot + pos.pot, self.h) / pos.dq / self.mass
        rate = 0.5 * self.mass * v**2 - q_pot - pos.pot
        return acc, div, rate


NOISE_FILTER = 0.2  # strength of the velocity filter of propagate_autonomous


def _label_noise_filter(arr, alpha):
    """Compact fourth-difference filter damping grid-scale label noise.

    Fully damps the two-point sawtooth mode at strength 1; leaves data that
    is linear in the label exactly unchanged, and smooth data to O(h^4).
    The first and last two labels are left untouched.  arr of shape (n,) or
    (n, k) is filtered along its rows.
    """
    out = arr.copy()
    out[2:-2] = arr[2:-2] - (alpha / 16.0) * (
        arr[:-4] - 4.0 * arr[1:-3] + 6.0 * arr[2:-2] - 4.0 * arr[3:-1] + arr[4:])
    return out


def propagate_autonomous(S_plus0, S_minus0, labels, params, dt, steps,
                         store_every=1, max_extrapolation=None, rho_ref=1.0):
    """March the coupled pair from action profiles alone.

    Half-kick / drift / recompute / half-kick stepping on the coupled
    acceleration equations; actions accumulate by the trapezoid rule on the
    Lagrangian rate and expansion factors by the trapezoid rule on the own
    velocity divergence (in the log, preserving positivity).  Initial
    velocities are the label-space gradients of the action profiles.  Both
    flows step together as the columns of (n, 2) arrays.  Each step builds
    the positions' spline systems once, after the drift, and evaluates the
    forces twice on them: at the half-kicked and at the new velocities.

    ``diagnostics`` holds the largest partner-hull extrapolation, the
    smallest gap between adjacent paths of either flow after any drift
    (``min_path_spacing``), and |dt| hbar / (m min_path_spacing^2), the
    step measured against the dispersive time scale of that gap.

    The scheme supports parasitic grid-scale modes whose growth rate scales
    with the cross-coupling stiffness; a fourth-difference filter of strength
    ``NOISE_FILTER`` is applied to the velocities after each step.  The
    filter does not alter fields that are linear in the label.  Paths that
    leave label order after a drift abort before the forces divide by dq/dq0.

    dt may be negative to march the pair backwards in time.
    """
    if steps < 1:
        raise PreconditionError("steps must be at least 1")
    if dt == 0.0:
        raise PreconditionError("dt must be nonzero")
    if steps % store_every != 0:
        raise PreconditionError("store_every must divide steps")
    label_set = labels if isinstance(labels, LabelSet) else LabelSet(np.asarray(labels, float))
    q0 = label_set.values
    h = q0[1] - q0[0]

    sp0 = S_plus0(q0) if callable(S_plus0) else np.asarray(S_plus0, dtype=float).copy()
    sm0 = S_minus0(q0) if callable(S_minus0) else np.asarray(S_minus0, dtype=float).copy()

    stepper = _CoupledStepper(params, q0, max_extrapolation)

    chi = np.stack((sp0, sm0), axis=1)
    q = np.stack((q0, q0), axis=1)
    v = fd_derivative(chi, h) / params.mass
    J = np.ones_like(q)
    acc, div, rate = stepper.evaluate(stepper.positions(q, 0.0), v)
    # (quantity q, v, J, chi; flow; stored time; label): each [k, f] is one
    # congruence array, so the history is written in place and never copied
    times = np.zeros(steps // store_every + 1)
    hist = np.empty((4, 2, times.shape[0], q0.shape[0]))
    hist[:, :, 0] = np.stack((q, v, J, chi)).transpose(0, 2, 1)

    for n in range(1, steps + 1):
        t = n * dt
        v_half = v + 0.5 * dt * acc
        q = q + dt * v_half
        pos = stepper.positions(q, t)
        acc_mid = stepper.evaluate(pos, v_half)[0]
        v = _label_noise_filter(v_half + 0.5 * dt * acc_mid, NOISE_FILTER)
        acc, div_new, rate_new = stepper.evaluate(pos, v)
        chi = chi + 0.5 * dt * (rate + rate_new)
        J = J * np.exp(0.5 * dt * (div + div_new))
        div, rate = div_new, rate_new

        state = np.stack((q, v, J, chi))
        if not np.isfinite(state).all():
            raise InstabilityError(
                f"non-finite state at t={t:.6g}; reduce dt or use more labels")
        if n % store_every == 0:
            j = n // store_every
            times[j] = t
            hist[:, :, j] = state.transpose(0, 2, 1)

    plus, minus = (Congruence(label_set, times, *hist[:, f]) for f in (0, 1))
    spacing = stepper.min_spacing
    return BiCongruence(params, plus, minus, sp0, sm0, rho_ref, {
        "max_partner_extrapolation": stepper.max_seen_extrap,
        "min_path_spacing": spacing,
        "max_dt_hbar_over_m_h2": abs(dt) * params.hbar / (params.mass * spacing**2),
    })


# ---------- label intersection map ----------

@dataclass(frozen=True)
class CrossMap:
    """q_minus0 as a function of q_plus0 at a fixed time, with its inverse."""

    time: float
    q_plus0: np.ndarray
    q_minus0: np.ndarray
    inverse_q_minus0: np.ndarray
    inverse_q_plus0: np.ndarray


def cross_map(bi, t):
    """Label pairing of the two congruences sharing each spatial point: the
    forward map from the plus labels, then the inverse from the minus labels."""
    k = bi.plus.time_index(t)
    labels = bi.labels.values
    maps = []
    for own, partner in ((bi.plus, bi.minus), (bi.minus, bi.plus)):
        pos, hull = own.q[k], partner.q[k]
        ok = (pos >= hull[0]) & (pos <= hull[-1])
        if not ok.any():
            raise HullOverlapError(f"congruence hulls do not overlap at t={t:.6g}")
        maps += [labels[ok], np.asarray(invert_labels(partner, pos[ok], t))]
    return CrossMap(float(t), *maps)


# ---------- time reversal in the trajectory picture ----------

def exchange_pair(S_plus0, S_minus0, labels, params, dt, steps):
    """Conjugate-data forward run and original-data backward run.

    Conjugating the state at t=0 swaps and negates the action profiles.  The
    forward evolution of the conjugated pair retraces the original pair at
    negated times with the two flows exchanged, so

        q'_plus(q0, tau) = q_minus(q0, -tau)    (and with plus/minus swapped)

    which the returned pair of runs realises step by step.
    """
    sp0 = S_plus0 if callable(S_plus0) else (lambda q: np.asarray(S_plus0))
    sm0 = S_minus0 if callable(S_minus0) else (lambda q: np.asarray(S_minus0))
    conj_forward = propagate_autonomous(
        lambda q: -sm0(q), lambda q: -sp0(q), labels, params, abs(dt), steps)
    original_backward = propagate_autonomous(
        sp0, sm0, labels, params, -abs(dt), steps)
    return conj_forward, original_backward


def exchange_mismatch(conj_forward, original_backward):
    """Sup-norm position mismatch of the exchange relation."""
    return float(max(np.abs(conj_forward.plus.q - original_backward.minus.q).max(),
                     np.abs(conj_forward.minus.q - original_backward.plus.q).max()))
