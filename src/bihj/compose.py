"""Algebraic composition of integral curves, source terms and conservation.

Given a congruence of a field v_A and a second field v_B, the integral curve
of v_A + v_B through a point is obtained without integrating v_A + v_B:
push v_B into label space,

    V_B(q_A0, t) = v_B(q_A(q_A0, t), t) / J_A(q_A0, t)        (1D),

integrate the label-generator curves dQ_B/dt = V_B(Q_B, t), and read the
composed path off the host congruence, q_C = q_A(Q_B, t).  The same label
bookkeeping yields the source term that a non-conserved flow needs to carry
the true density, and the conservation statement for composed flows.
"""
from dataclasses import dataclass

import numpy as np

from .congruence import LabelSet, ScaledSource, invert_labels
from .errors import PreconditionError, SpanExhaustionError
from .kernels import (
    NotAKnotSpline,
    cumulative_trapezoid,
    fd_derivative,
    hermite_eval,
    pchip_slopes,
)


@dataclass(frozen=True)
class CompositionSetup:
    congruence_A: object
    field_B: object
    labels_C: LabelSet

    def __post_init__(self):
        A = self.congruence_A
        lo, hi = A.labels.values[0], A.labels.values[-1]
        vals = self.labels_C.values
        if vals[0] < lo or vals[-1] > hi:
            raise PreconditionError(
                "labels_C must start inside the host congruence label span")


def pushforward_vector(setup, q_A0, t):
    """v_B transformed into the host congruence's label space."""
    A = setup.congruence_A
    k = A.time_index(t)
    labels = A.labels.values
    q0 = np.atleast_1d(np.asarray(q_A0, dtype=float))
    pos = hermite_eval(labels, A.q[k], pchip_slopes(labels, A.q[k]), q0)
    JA = NotAKnotSpline(labels, A.J[k])(q0)
    out = np.asarray(setup.field_B.velocity(pos, float(t)), dtype=float) / JA
    return out if np.ndim(q_A0) else float(out[0])


@dataclass(frozen=True)
class CompositionResult:
    labels_C: LabelSet
    times: np.ndarray
    Q_B: np.ndarray
    q_C: np.ndarray
    J_A_at_QB: np.ndarray
    J_B: np.ndarray
    J_C: np.ndarray
    velocity: np.ndarray
    residual: np.ndarray
    velocity_scale: float

    @property
    def residual_max(self):
        return float(np.nanmax(np.abs(self.residual)))

    def jacobian_factorisation_gap(self):
        """Max relative gap between J_C and (J_A at Q_B) * J_B."""
        prod = self.J_A_at_QB * self.J_B
        return float(np.max(np.abs(self.J_C - prod) / np.abs(prod)))

    def as_congruence(self):
        """Package the composed paths as a congruence (actions left at zero).

        The expansion factors are the label finite differences J_C; this is
        what lets a composed family serve as the host of a further
        composition (the corollary round trip).
        """
        from .congruence import Congruence
        return Congruence(self.labels_C, self.times, self.q_C, self.velocity,
                          self.J_C, np.zeros_like(self.q_C))


def _rk4_pair(y, J, s0, s1, s2, h, span):
    """One RK4 step of size h; s0, s1 and s2 give the value and slope of the
    field at t, t+h/2 and t+h (a spline's ``value_and_slope``)."""
    def f(sp, yy):
        _check_span(yy, span)
        return sp(yy)

    k1, g1 = f(s0, y)
    k2, g2 = f(s1, y + 0.5 * h * k1)
    k3, g3 = f(s1, y + 0.5 * h * k2)
    k4, g4 = f(s2, y + h * k3)
    y_new = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    k1j = g1 * J
    k2j = g2 * (J + 0.5 * h * k1j)
    k3j = g3 * (J + 0.5 * h * k2j)
    k4j = g4 * (J + h * k3j)
    J_new = J + (h / 6.0) * (k1j + 2.0 * k2j + 2.0 * k3j + k4j)
    return y_new, J_new


def _check_span(y, span):
    if np.any(y < span[0]) or np.any(y > span[1]):
        bad = y[(y < span[0]) | (y > span[1])][0]
        raise SpanExhaustionError(
            f"label generator reached {bad:.6g}, outside the host span "
            f"[{span[0]:.6g}, {span[1]:.6g}]; widen the host congruence labels")


def compose_trajectories(setup):
    """Integrate the label generators and assemble the composed paths.

    The generator ODE is stepped with RK4 over pairs of stored host times so
    every stage lands on stored data (no interpolation in time); composed
    output is therefore sampled at every second stored time.  The residual
    column checks d(q_C)/dt against v_A + v_B along the composed path by
    centred time differences.
    """
    A = setup.congruence_A
    labels = A.labels.values
    span = (labels[0], labels[-1])
    nt = A.times.shape[0]
    if nt < 3:
        raise PreconditionError("composition needs at least three stored times")
    # V_B and its label derivative on the host label grid, per stored time
    V_B = []
    for k in range(nt):
        vb = np.asarray(setup.field_B.velocity(A.q[k], float(A.times[k])), dtype=float)
        vb = vb + np.zeros_like(A.q[k])
        V_B.append(NotAKnotSpline(labels, vb / A.J[k]).value_and_slope)

    y = setup.labels_C.values.copy()
    J = np.ones_like(y)
    out_idx = [0]
    QB = [y.copy()]
    JB = [J.copy()]
    k = 0
    while k + 2 <= nt - 1:
        h = A.times[k + 2] - A.times[k]
        y, J = _rk4_pair(y, J, *V_B[k:k + 3], h, span)
        k += 2
        out_idx.append(k)
        QB.append(y.copy())
        JB.append(J.copy())
    if k < nt - 1:
        # odd tail: single step with the midpoint spline averaged
        s0, s2 = V_B[k], V_B[k + 1]
        smid = lambda yy: 0.5 * (s0(yy) + s2(yy))
        h = A.times[k + 1] - A.times[k]
        y, J = _rk4_pair(y, J, s0, smid, s2, h, span)
        k += 1
        out_idx.append(k)
        QB.append(y.copy())
        JB.append(J.copy())

    out_idx = np.array(out_idx)
    times = A.times[out_idx]
    QB = np.array(QB)
    JB = np.array(JB)

    qC = np.empty_like(QB)
    JA_at = np.empty_like(QB)
    for j, k in enumerate(out_idx):
        pos = A.q[k]
        qC[j] = hermite_eval(labels, pos, pchip_slopes(labels, pos), QB[j])
        JA_at[j] = NotAKnotSpline(labels, A.J[k])(QB[j])

    lc = setup.labels_C.values
    h_lab = np.diff(lc)
    JC = np.empty_like(QB)
    uniform = np.allclose(h_lab, h_lab[0], rtol=1e-9, atol=1e-15)
    for j in range(QB.shape[0]):
        JC[j] = fd_derivative(qC[j], h_lab[0]) if uniform else np.gradient(qC[j], lc)

    # composed velocity v_A + v_B along the paths, and the theorem residual
    # by centred differences on the composed samples
    velocity = np.empty_like(QB)
    residual = np.full_like(QB, np.nan)
    vscale = 0.0
    for j in range(QB.shape[0]):
        k = out_idx[j]
        # q_C is the A path of label Q_B, so v_A is read at Q_B
        vA = NotAKnotSpline(labels, A.qdot[k])(QB[j])
        vB = np.asarray(setup.field_B.velocity(qC[j], float(A.times[k])), dtype=float)
        velocity[j] = vA + vB
        vscale = max(vscale, float(np.max(np.abs(velocity[j]))))
    for j in range(1, QB.shape[0] - 1):
        dqdt = (qC[j + 1] - qC[j - 1]) / (times[j + 1] - times[j - 1])
        residual[j] = dqdt - velocity[j]

    return CompositionResult(setup.labels_C, times, QB, qC, JA_at, JB, JC,
                             velocity, residual, vscale)


# ---------- source terms of non-conserved flows ----------

@dataclass(frozen=True)
class SourceTable:
    labels: np.ndarray
    times: np.ndarray
    P_A: np.ndarray
    integrand: np.ndarray
    c_A: np.ndarray
    rho_ratio: np.ndarray
    decomposition_gap: float

    def c_at(self, q0, t_index):
        out = NotAKnotSpline(self.labels, self.c_A[t_index])(np.atleast_1d(q0))
        return out if np.ndim(q0) else float(out[0])


def source_term(A, rho_sampler, field_B, rho0):
    """Accumulated source along a flow that does not conserve the density.

    c_A(q_A0, t) = -J_A^{-1} d/dq_A0  integral_0^t  P_A J_A V_B dt'
    with P_A the true density read along the congruence and V_B the
    label-space form of the complementary field.  The leading minus follows
    from time-integrating the label-space conservation law
    d(P_A J_A)/dt + d(P_A J_A V_B)/dq_A0 = 0; it is pinned down here by the
    decomposition identity P_A = rho0 J_A^{-1} + c_A, which the table
    verifies (a source-free flow must yield c_A = 0).
    """
    labels = A.labels.values
    h = labels[1] - labels[0]
    if not np.allclose(np.diff(labels), h, rtol=1e-9, atol=1e-15):
        raise PreconditionError("source_term needs uniform labels")
    nt = A.times.shape[0]
    P = np.empty((nt, labels.shape[0]))
    W = np.empty_like(P)
    for k in range(nt):
        t = float(A.times[k])
        P[k] = rho_sampler(A.q[k], t)
        vb = np.asarray(field_B.velocity(A.q[k], t), dtype=float) + np.zeros_like(labels)
        W[k] = P[k] * vb  # J_A V_B reduces to v_B along the path in 1D
    cum = cumulative_trapezoid(W, A.times)
    c = np.empty_like(P)
    for k in range(nt):
        c[k] = -fd_derivative(cum[k], h) / A.J[k]

    carried = np.asarray(rho0(labels), dtype=float)[None, :] / A.J
    gap = float(np.max(np.abs(carried + c - P) / P.max(axis=1, keepdims=True)))
    return SourceTable(labels, A.times, P, W, c, carried / P, gap)


# ---------- conservation along composed flows ----------

@dataclass(frozen=True)
class ConservationReport:
    times: np.ndarray
    carried: np.ndarray  # P_C J_C, one row per stored composed time
    max_drift: float

    def drift_factors(self):
        """P_C J_C relative to its initial value, per label."""
        return self.carried / self.carried[0]


def conservation_check(result, rho_sampler):
    """Per-label drift of P_C J_C along the composed flow."""
    PJ = np.empty_like(result.q_C)
    for j, t in enumerate(result.times):
        PJ[j] = rho_sampler(result.q_C[j], float(t)) * result.J_C[j]
    drift = np.abs(PJ / PJ[0] - 1.0)
    return ConservationReport(result.times, PJ, float(drift.max()))


# ---------- mixtures of the two congruence densities ----------

@dataclass(frozen=True)
class MixtureReport:
    weight: float
    probe_x: np.ndarray
    probe_t: float
    trajectory_ratio: np.ndarray  # weighted rho0/J mixture over the true density
    restored_ratio: np.ndarray    # after adding the weighted source terms
    max_restored_gap: float


def mixture_check(bi, rho_sampler, u_source, r, probe_xs, probe_t):
    """Weighted two-flow trajectory density against the true density.

    The weighted mixture r rho0/J_plus + (1-r) rho0/J_minus does not track
    the density; restoring the weighted source terms c must close the gap.
    The complementary fields are -u/2 for the plus flow and +u/2 for the
    minus flow, so that both source integrals refer to the conserved
    mean-flow current.
    """
    rho0 = bi.rho0
    table_p = source_term(bi.plus, rho_sampler, ScaledSource(u_source, -0.5), rho0=rho0)
    table_m = source_term(bi.minus, rho_sampler, ScaledSource(u_source, +0.5), rho0=rho0)
    k = bi.plus.time_index(probe_t)

    xs = np.atleast_1d(np.asarray(probe_xs, dtype=float))
    qp0 = np.atleast_1d(invert_labels(bi.plus, xs, probe_t))
    qm0 = np.atleast_1d(invert_labels(bi.minus, xs, probe_t))
    labels = bi.labels.values
    Jp = NotAKnotSpline(labels, bi.plus.J[k])(qp0)
    Jm = NotAKnotSpline(labels, bi.minus.J[k])(qm0)
    rho_true = np.asarray(rho_sampler(xs, probe_t), dtype=float)

    mix = r * rho0(qp0) / Jp + (1.0 - r) * rho0(qm0) / Jm
    restored = mix + r * table_p.c_at(qp0, k) + (1.0 - r) * table_m.c_at(qm0, k)
    ratio = mix / rho_true
    ratio_restored = restored / rho_true
    return MixtureReport(r, xs, float(probe_t), ratio, ratio_restored,
                         float(np.max(np.abs(ratio_restored - 1.0))))
