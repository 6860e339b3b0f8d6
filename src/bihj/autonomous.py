"""Self-contained propagation of the coupled trajectory pair.

After t=0 no wavefunction enters: each congruence is accelerated by the
gradient of a potential built from the partner congruence's velocity
divergence plus the squared relative velocity,

    accel_plus  = -(1/m) d/dx [ +(hbar/2) div v_minus - (m/4) u^2 + V ]
    accel_minus = -(1/m) d/dx [ -(hbar/2) div v_plus  - (m/4) u^2 + V ]

with u the relative velocity of the two flows at the evaluation point.
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

def _sample_partner(q, vd, x):
    """Partner (v, div v) at positions x from its stacked columns vd, shape
    (n, 2), on its positions q, and the largest distance of x beyond q's hull.

    One natural-spline solve and one interval search serve both columns;
    beyond the hull v continues linearly with slope div v from the edge.
    """
    lo, hi = q[0], q[-1]
    out = hermite_eval(q, vd, spline_slopes_natural(q, vd), np.minimum(np.maximum(x, lo), hi))
    for beyond, k, edge in ((x < lo, 0, lo), (x > hi, -1, hi)):
        if beyond.any():
            out[beyond, 0] = vd[k, 0] + vd[k, 1] * (x[beyond] - edge)
            out[beyond, 1] = vd[k, 1]
    return out[:, 0], out[:, 1], float(np.maximum(lo - x, x - hi).max(initial=0.0))


class _CoupledStepper:
    def __init__(self, params, labels, potential_fn, max_extrapolation):
        self.hbar = params.hbar
        self.mass = params.mass
        self.h = labels[1] - labels[0]
        if not np.allclose(np.diff(labels), self.h, rtol=1e-9, atol=1e-15):
            raise PreconditionError("autonomous propagation needs uniform labels")
        self.potential_fn = potential_fn
        self.max_extrap = max_extrapolation
        self.max_seen_extrap = 0.0

    def evaluate(self, qp, vp, qm, vm, t):
        """Accelerations, own divergences and action rates of both flows."""
        dq_p = fd_derivative(qp, self.h)
        dq_m = fd_derivative(qm, self.h)
        div_p = fd_derivative(vp, self.h) / dq_p
        div_m = fd_derivative(vm, self.h) / dq_m

        vm_at_p, divm_at_p, e1 = _sample_partner(qm, np.column_stack((vm, div_m)), qp)
        vp_at_m, divp_at_m, e2 = _sample_partner(qp, np.column_stack((vp, div_p)), qm)
        self.max_seen_extrap = max(self.max_seen_extrap, e1, e2)
        if self.max_extrap is not None and max(e1, e2) > self.max_extrap:
            raise HullOverlapError(
                f"partner-hull extrapolation {max(e1, e2):.3g} exceeds the allowed "
                f"{self.max_extrap:.3g} at t={t:.6g}"
            )

        u_at_p = vp - vm_at_p
        u_at_m = vp_at_m - vm
        q_pot_p = +0.5 * self.hbar * divm_at_p - 0.25 * self.mass * u_at_p**2
        q_pot_m = -0.5 * self.hbar * divp_at_m - 0.25 * self.mass * u_at_m**2
        pot_p = self.potential_fn(qp)
        pot_m = self.potential_fn(qm)
        acc_p = -fd_derivative(q_pot_p + pot_p, self.h) / dq_p / self.mass
        acc_m = -fd_derivative(q_pot_m + pot_m, self.h) / dq_m / self.mass
        rate_p = 0.5 * self.mass * vp**2 - q_pot_p - pot_p
        rate_m = 0.5 * self.mass * vm**2 - q_pot_m - pot_m
        return acc_p, acc_m, div_p, div_m, rate_p, rate_m


NOISE_FILTER = 0.2  # strength of the velocity filter of propagate_autonomous


def _label_noise_filter(arr, alpha):
    """Compact fourth-difference filter damping grid-scale label noise.

    Fully damps the two-point sawtooth mode at strength 1; leaves data that
    is linear in the label exactly unchanged, and smooth data to O(h^4).
    The first and last two labels are left untouched.
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
    velocities are the label-space gradients of the action profiles.

    The scheme supports parasitic grid-scale modes whose growth rate scales
    with the cross-coupling stiffness; a fourth-difference filter of strength
    ``NOISE_FILTER`` is applied to the velocities after each step.  The
    filter does not alter fields that are linear in the label.

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
    nl = q0.shape[0]
    h = q0[1] - q0[0]

    sp0 = S_plus0(q0) if callable(S_plus0) else np.asarray(S_plus0, dtype=float).copy()
    sm0 = S_minus0(q0) if callable(S_minus0) else np.asarray(S_minus0, dtype=float).copy()

    stepper = _CoupledStepper(params, q0, lambda x: _potential_eval(params, x),
                              max_extrapolation)

    qp = q0.copy()
    qm = q0.copy()
    vp = fd_derivative(sp0, h) / params.mass
    vm = fd_derivative(sm0, h) / params.mass
    chip = sp0.copy()
    chim = sm0.copy()
    Jp = np.ones(nl)
    Jm = np.ones(nl)

    ev = stepper.evaluate(qp, vp, qm, vm, 0.0)
    times = [0.0]
    hist = {
        "qp": [qp.copy()], "vp": [vp.copy()], "Jp": [Jp.copy()], "cp": [chip.copy()],
        "qm": [qm.copy()], "vm": [vm.copy()], "Jm": [Jm.copy()], "cm": [chim.copy()],
    }

    for n in range(1, steps + 1):
        t = n * dt
        acc_p, acc_m, div_p, div_m, rate_p, rate_m = ev
        vp_half = vp + 0.5 * dt * acc_p
        vm_half = vm + 0.5 * dt * acc_m
        qp_new = qp + dt * vp_half
        qm_new = qm + dt * vm_half
        mid = stepper.evaluate(qp_new, vp_half, qm_new, vm_half, t)
        vp_new = vp_half + 0.5 * dt * mid[0]
        vm_new = vm_half + 0.5 * dt * mid[1]
        vp_new = _label_noise_filter(vp_new, NOISE_FILTER)
        vm_new = _label_noise_filter(vm_new, NOISE_FILTER)
        ev_new = stepper.evaluate(qp_new, vp_new, qm_new, vm_new, t)

        chip = chip + 0.5 * dt * (rate_p + ev_new[4])
        chim = chim + 0.5 * dt * (rate_m + ev_new[5])
        Jp = Jp * np.exp(0.5 * dt * (div_p + ev_new[2]))
        Jm = Jm * np.exp(0.5 * dt * (div_m + ev_new[3]))
        qp, vp, qm, vm, ev = qp_new, vp_new, qm_new, vm_new, ev_new

        state = np.concatenate([qp, vp, qm, vm, chip, chim])
        if not np.all(np.isfinite(state)):
            raise InstabilityError(
                f"non-finite state at t={t:.6g}; reduce dt or use more labels"
            )
        if np.any(np.diff(qp) <= 0) or np.any(np.diff(qm) <= 0):
            raise CongruenceCrossingError(f"paths crossed at t={t:.6g}")
        if n % store_every == 0:
            times.append(t)
            for key, val in (("qp", qp), ("vp", vp), ("Jp", Jp), ("cp", chip),
                             ("qm", qm), ("vm", vm), ("Jm", Jm), ("cm", chim)):
                hist[key].append(val.copy())

    times = np.array(times)
    plus = Congruence(label_set, times, np.array(hist["qp"]), np.array(hist["vp"]),
                      np.array(hist["Jp"]), np.array(hist["cp"]))
    minus = Congruence(label_set, times, np.array(hist["qm"]), np.array(hist["vm"]),
                       np.array(hist["Jm"]), np.array(hist["cm"]))
    return BiCongruence(params, plus, minus, sp0, sm0, rho_ref,
                        {"max_partner_extrapolation": stepper.max_seen_extrap})


def _potential_eval(params, x):
    pot = params.potential
    if pot.kind == "free":
        return np.zeros_like(x)
    if pot.kind == "harmonic":
        return 0.5 * params.mass * pot.omega**2 * x**2
    raise PreconditionError("autonomous propagation supports free and harmonic potentials")


# ---------- label intersection map ----------

@dataclass(frozen=True)
class CrossMap:
    """q_minus0 as a function of q_plus0 at a fixed time, with its inverse."""

    time: float
    q_plus0: np.ndarray
    q_minus0: np.ndarray
    inverse_q_minus0: np.ndarray
    inverse_q_plus0: np.ndarray

    def minus_label_of(self, q_plus0):
        slopes = pchip_slopes(self.q_plus0, self.q_minus0)
        out = hermite_eval(self.q_plus0, self.q_minus0, slopes, np.atleast_1d(np.asarray(q_plus0, float)))
        return out if np.ndim(q_plus0) else float(out[0])

    def plus_label_of(self, q_minus0):
        slopes = pchip_slopes(self.inverse_q_minus0, self.inverse_q_plus0)
        out = hermite_eval(self.inverse_q_minus0, self.inverse_q_plus0, slopes,
                           np.atleast_1d(np.asarray(q_minus0, float)))
        return out if np.ndim(q_minus0) else float(out[0])


def cross_map(bi, t):
    """Label pairing of the two congruences sharing each spatial point."""
    k = bi.plus.time_index(t)
    pos_p = bi.plus.q[k]
    pos_m = bi.minus.q[k]
    lo, hi = pos_m[0], pos_m[-1]
    ok = (pos_p >= lo) & (pos_p <= hi)
    if not ok.any():
        raise HullOverlapError(f"congruence hulls do not overlap at t={t:.6g}")
    labels = bi.labels.values
    fwd_plus = labels[ok]
    fwd_minus = invert_labels(bi.minus, pos_p[ok], t)

    lo_p, hi_p = pos_p[0], pos_p[-1]
    ok_inv = (pos_m >= lo_p) & (pos_m <= hi_p)
    if not ok_inv.any():
        raise HullOverlapError(f"congruence hulls do not overlap at t={t:.6g}")
    inv_minus = labels[ok_inv]
    inv_plus = invert_labels(bi.plus, pos_m[ok_inv], t)
    return CrossMap(float(t), fwd_plus, np.asarray(fwd_minus), inv_minus, np.asarray(inv_plus))


# ---------- time reversal in the trajectory picture ----------

def exchange_pair(S_plus0, S_minus0, labels, params, dt, steps, **kwargs):
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
        lambda q: -sm0(q), lambda q: -sp0(q), labels, params, abs(dt), steps, **kwargs)
    original_backward = propagate_autonomous(
        sp0, sm0, labels, params, -abs(dt), steps, **kwargs)
    return conj_forward, original_backward


def exchange_mismatch(conj_forward, original_backward):
    """Sup-norm position mismatch of the exchange relation."""
    dp = np.abs(conj_forward.plus.q - original_backward.minus.q).max()
    dm = np.abs(conj_forward.minus.q - original_backward.plus.q).max()
    return max(float(dp), float(dm))
