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
from .kernels import (
    NotAKnotSpline,
    fd_derivative,
    hermite_eval,
    pchip_slopes,
    spline_slopes_natural,
)


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


def _sample_partner(q, vd, x, out):
    """Write into out, shape (m, 2), the partner (v, div v) at positions x
    from its stacked columns vd, shape (n, 2), on its positions q; return
    the largest distance of x beyond q's hull.

    One natural-spline solve and one interval search serve both columns;
    beyond the hull v continues linearly with slope div v from the edge.
    """
    lo, hi = q[0], q[-1]
    out[:] = hermite_eval(q, vd, spline_slopes_natural(q, vd), np.minimum(np.maximum(x, lo), hi))
    for beyond, k, edge in ((x < lo, 0, lo), (x > hi, -1, hi)):
        if beyond.any():
            out[beyond, 0] = vd[k, 0] + vd[k, 1] * (x[beyond] - edge)
            out[beyond, 1] = vd[k, 1]
    return float(np.maximum(lo - x, x - hi).max(initial=0.0))


class _CoupledStepper:
    def __init__(self, params, labels, max_extrapolation):
        self.mass = params.mass
        self.potential = params.potential
        self.partner_coef = 0.5 * params.hbar * _PARTNER_SIGN
        self.h = labels[1] - labels[0]
        if not np.allclose(np.diff(labels), self.h, rtol=1e-9, atol=1e-15):
            raise PreconditionError("autonomous propagation needs uniform labels")
        self.max_extrap = max_extrapolation
        self.max_seen_extrap = 0.0

    def evaluate(self, q, v, t):
        """Accelerations, own divergences and action rates of both flows,
        each of shape (n, 2) like the positions q and velocities v."""
        dq = fd_derivative(q, self.h)
        div = fd_derivative(v, self.h) / dq
        own = np.stack((v, div), axis=1)  # (label, quantity, flow)
        at = np.empty_like(own)  # the partner's quantities at the own positions
        extrap = max(_sample_partner(q[:, 1 - f], own[:, :, 1 - f], q[:, f], at[:, :, f])
                     for f in (0, 1))
        self.max_seen_extrap = max(self.max_seen_extrap, extrap)
        if self.max_extrap is not None and extrap > self.max_extrap:
            raise HullOverlapError(
                f"partner-hull extrapolation {extrap:.3g} exceeds the allowed "
                f"{self.max_extrap:.3g} at t={t:.6g}")

        # the relative velocity u enters squared, so its sign does not matter
        q_pot = self.partner_coef * at[:, 1] - 0.25 * self.mass * (v - at[:, 0])**2
        pot = self.potential.at(q, self.mass)
        acc = -fd_derivative(q_pot + pot, self.h) / dq / self.mass
        rate = 0.5 * self.mass * v**2 - q_pot - pot
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


def _check_order(q, labels, t):
    """Raise if the paths of a flow, columns of q, left label order."""
    crossed = np.diff(q, axis=0) <= 0
    if crossed.any():
        k, f = np.argwhere(crossed)[0]
        raise CongruenceCrossingError(
            f"{FLOWS[f]} paths of labels {labels[k]:.6g} and {labels[k + 1]:.6g} "
            f"crossed at t={t:.6g}")


def propagate_autonomous(S_plus0, S_minus0, labels, params, dt, steps,
                         store_every=1, max_extrapolation=None, rho_ref=1.0):
    """March the coupled pair from action profiles alone.

    Half-kick / drift / recompute / half-kick stepping on the coupled
    acceleration equations; actions accumulate by the trapezoid rule on the
    Lagrangian rate and expansion factors by the trapezoid rule on the own
    velocity divergence (in the log, preserving positivity).  Initial
    velocities are the label-space gradients of the action profiles.  Both
    flows step together as the columns of (n, 2) arrays.

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
    acc, div, rate = stepper.evaluate(q, v, 0.0)
    times = [0.0]
    hist = [np.stack((q, v, J, chi))]

    for n in range(1, steps + 1):
        t = n * dt
        v_half = v + 0.5 * dt * acc
        q = q + dt * v_half
        _check_order(q, q0, t)
        acc_mid = stepper.evaluate(q, v_half, t)[0]
        v = _label_noise_filter(v_half + 0.5 * dt * acc_mid, NOISE_FILTER)
        acc, div_new, rate_new = stepper.evaluate(q, v, t)
        chi = chi + 0.5 * dt * (rate + rate_new)
        J = J * np.exp(0.5 * dt * (div + div_new))
        div, rate = div_new, rate_new

        state = np.stack((q, v, J, chi))
        if not np.isfinite(state).all():
            raise InstabilityError(
                f"non-finite state at t={t:.6g}; reduce dt or use more labels")
        if n % store_every == 0:
            times.append(t)
            hist.append(state)

    times = np.array(times)
    hist = np.array(hist)  # (stored time, quantity, label, flow)
    plus, minus = (
        Congruence(label_set, times, *(np.ascontiguousarray(hist[:, k, :, f]) for k in range(4)))
        for f in (0, 1))
    return BiCongruence(params, plus, minus, sp0, sm0, rho_ref,
                        {"max_partner_extrapolation": stepper.max_seen_extrap})


# ---------- label intersection map ----------

def _pchip_lookup(x, y, xq):
    out = hermite_eval(x, y, pchip_slopes(x, y), np.atleast_1d(np.asarray(xq, float)))
    return out if np.ndim(xq) else float(out[0])


@dataclass(frozen=True)
class CrossMap:
    """q_minus0 as a function of q_plus0 at a fixed time, with its inverse."""

    time: float
    q_plus0: np.ndarray
    q_minus0: np.ndarray
    inverse_q_minus0: np.ndarray
    inverse_q_plus0: np.ndarray

    def minus_label_of(self, q_plus0):
        return _pchip_lookup(self.q_plus0, self.q_minus0, q_plus0)

    def plus_label_of(self, q_minus0):
        return _pchip_lookup(self.inverse_q_minus0, self.inverse_q_plus0, q_minus0)


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
