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

from .congruence import LabelSet, invert_labels
from .errors import PreconditionError, SpanExhaustionError
from .kernels import (
    NotAKnotSpline,
    cumulative_trapezoid,
    fd_derivative,
    hermite_eval,
    pchip_slopes,
)

# stored times whose label-space splines or source-table rows are built
# together: a block's tables are a few hundred kB at 201 labels
BLOCK_TIMES = 64


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
    field at t, t+h/2 and t+h, stacked along a first axis as a spline's
    ``own_column`` gives them with ``slope``."""
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


def _column(spline, k):
    """Value and slope of the spline's column k, as a function of the points."""
    return lambda y: spline.own_column(spline.locate(y), k, slope=True)


def _on_rows(spline, points):
    """Values at each row j of points, shape (c, m), of the spline's column j."""
    c, m = points.shape
    return spline.own_column(spline.locate(points.ravel()), np.arange(c).repeat(m)).reshape(c, m)


def _check_span(y, span):
    if np.any(y < span[0]) or np.any(y > span[1]):
        bad = y[(y < span[0]) | (y > span[1])][0]
        raise SpanExhaustionError(
            f"label generator reached {bad:.6g}, outside the host span "
            f"[{span[0]:.6g}, {span[1]:.6g}]; widen the host congruence labels")


class _SplineBlocks:
    """Value and slope of column k of the label-space spline of ``column(k)``,
    for k = 0 ... n-1 asked for in rising order.  The columns are splined
    BLOCK_TIMES at a time, and only the latest block is kept; each column
    has the bits it would have in one spline of all n."""

    def __init__(self, labels, column, n):
        self.labels, self.column, self.n = labels, column, n
        self.start, self.spline = None, None

    def __getitem__(self, k):
        start = k - k % BLOCK_TIMES
        if start != self.start:
            cols = range(start, min(start + BLOCK_TIMES, self.n))
            self.start = start
            self.spline = NotAKnotSpline(self.labels, np.stack([self.column(j) for j in cols], 1))
        return _column(self.spline, k - start)


def compose_trajectories(setup):
    """Integrate the label generators and assemble the composed paths.

    The generator ODE is stepped with RK4 over pairs of stored host times so
    every stage lands on stored data (no interpolation in time); composed
    output is therefore sampled at every second stored time.  The residual
    column checks d(q_C)/dt against v_A + v_B along the composed path by
    centred time differences.  V_B, and J_A and v_A at Q_B, are splined
    over the host labels in blocks of BLOCK_TIMES stored times, so that no
    table of every stored time is held beyond the composed output.
    """
    A = setup.congruence_A
    labels = A.labels.values
    span = (labels[0], labels[-1])
    nt = A.times.shape[0]
    if nt < 4:
        # the residual's centred differences need three composed times
        raise PreconditionError("composition needs at least four stored times")

    def pushforward(k):
        """V_B on the host label grid at stored time k."""
        vb = np.asarray(setup.field_B.velocity(A.q[k], float(A.times[k])), dtype=float)
        return (vb + np.zeros_like(A.q[k])) / A.J[k]

    V_B = _SplineBlocks(labels, pushforward, nt)

    y = setup.labels_C.values.copy()
    J = np.ones_like(y)
    out_idx = [0]
    QB = [y.copy()]
    JB = [J.copy()]
    k = 0
    while k + 2 <= nt - 1:
        h = A.times[k + 2] - A.times[k]
        y, J = _rk4_pair(y, J, V_B[k], V_B[k + 1], V_B[k + 2], h, span)
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
    for j, k in enumerate(out_idx):
        pos = A.q[k]
        qC[j] = hermite_eval(labels, pos, pchip_slopes(labels, pos), QB[j])
    # J_A and v_A at Q_B: splines with a column per output time, a block of
    # them at a time; row j of Q_B is evaluated on column j
    JA_at, vA = np.empty_like(QB), np.empty_like(QB)
    for j in range(0, out_idx.shape[0], BLOCK_TIMES):
        rows = slice(j, j + BLOCK_TIMES)
        for table, out in ((A.J, JA_at), (A.qdot, vA)):
            out[rows] = _on_rows(NotAKnotSpline(labels, table[out_idx[rows]].T), QB[rows])

    lc = setup.labels_C.values
    h_lab = np.diff(lc)
    if np.allclose(h_lab, h_lab[0], rtol=1e-9, atol=1e-15):
        JC = fd_derivative(qC.T, h_lab[0]).T
    else:
        JC = np.gradient(qC, lc, axis=1)

    # composed velocity v_A + v_B along the paths, and the theorem residual
    # by centred differences on the composed samples
    velocity = np.empty_like(QB)
    residual = np.full_like(QB, np.nan)
    vscale = 0.0
    for j in range(QB.shape[0]):
        k = out_idx[j]
        # q_C is the A path of label Q_B, so v_A is read at Q_B
        vB = np.asarray(setup.field_B.velocity(qC[j], float(A.times[k])), dtype=float)
        velocity[j] = vA[j] + vB
        vscale = max(vscale, float(np.max(np.abs(velocity[j]))))
    for j in range(1, QB.shape[0] - 1):
        dqdt = (qC[j + 1] - qC[j - 1]) / (times[j + 1] - times[j - 1])
        residual[j] = dqdt - velocity[j]

    return CompositionResult(setup.labels_C, times, QB, qC, JA_at, JB, JC,
                             velocity, residual, vscale)


# ---------- source terms of non-conserved flows ----------

@dataclass(frozen=True)
class SourceTable:
    """c_A and the carried-over-true density ratio at the kept stored times
    ``times``, one row each; ``decomposition_gap`` is taken over every
    stored time."""

    labels: np.ndarray
    times: np.ndarray
    c_A: np.ndarray
    rho_ratio: np.ndarray
    decomposition_gap: float

    def c_at(self, q0, row):
        out = NotAKnotSpline(self.labels, self.c_A[row])(np.atleast_1d(q0))
        return out if np.ndim(q0) else float(out[0])


class _SourceRows:
    """The source table of the congruence A, a flow that does not conserve
    the density, at its stored times ``rows`` (increasing indices):

        c_A(q_A0, t) = -J_A^{-1} d/dq_A0  integral_0^t  P_A J_A V_B dt'

    with P_A the true density along the congruence and V_B the label-space
    form of the complementary field.  The leading minus follows from
    time-integrating the label-space conservation law
    d(P_A J_A)/dt + d(P_A J_A V_B)/dq_A0 = 0; the decomposition identity
    P_A = rho0 J_A^{-1} + c_A pins it down, and ``decomposition_gap``
    measures it over every stored time (a source-free flow yields c_A = 0).
    ``add`` takes the density and complement rows of the next block of
    stored times, and ``table`` gives the SourceTable.  The cumulative
    trapezoid is carried across blocks, so the table has the bits of one
    pass over every row."""

    def __init__(self, A, rho0, rows):
        labels = A.labels.values
        self.h = labels[1] - labels[0]
        if not np.allclose(np.diff(labels), self.h, rtol=1e-9, atol=1e-15):
            raise PreconditionError("a source table needs uniform labels")
        self.A = A
        self.rows = np.asarray(rows, dtype=int)
        self.rho0 = np.asarray(rho0(labels), dtype=float)[None, :]
        self.c = np.empty((self.rows.shape[0], labels.shape[0]))
        self.rho_ratio = np.empty_like(self.c)
        self.gap = 0.0
        self.k = 0  # the first row of the next block
        self.last = None  # the integrand and the integral at the previous row

    def add(self, P, v_B):
        k0, k1 = self.k, self.k + P.shape[0]
        times, J = self.A.times, self.A.J[k0:k1]
        # J_A V_B reduces to v_B along the path in 1D; adding 0.0 turns -0.0 into +0.0
        W = v_B + 0.0
        W *= P
        if self.last is None:  # the integral is zero at the first stored time
            cum = cumulative_trapezoid(W, times[k0:k1])
        else:  # carried on from the previous row
            W_prev, cum_prev = self.last
            cum = cumulative_trapezoid(np.concatenate((W_prev, W)), times[k0 - 1:k1],
                                       cum_prev)[1:]
        self.last = W[-1:], cum[-1]
        c = -fd_derivative(cum.T, self.h).T / J
        carried = self.rho0 / J
        self.gap = np.maximum(self.gap, np.max(np.abs(carried + c - P)
                                               / P.max(axis=1, keepdims=True)))
        lo, hi = np.searchsorted(self.rows, (k0, k1))
        kept = self.rows[lo:hi] - k0
        self.c[lo:hi] = c[kept]
        self.rho_ratio[lo:hi] = carried[kept] / P[kept]
        self.k = k1

    def table(self):
        return SourceTable(self.A.labels.values, self.A.times[self.rows], self.c,
                           self.rho_ratio, float(self.gap))


def pair_source_terms(plus, minus, rho_u, rho0, rows):
    """Source tables of the plus and minus congruences at their stored times
    ``rows``, whose complementary fields are -u/2 and +u/2, so that both
    source integrals refer to the conserved mean-flow current.  ``rho_u``
    (a callable of (x, t)) gives the density and the osmotic velocity u at
    the points x, stacked along a new first axis; it is called once per
    stored time, at both congruences' positions stacked as (2, n_labels).
    Both tables are accumulated BLOCK_TIMES stored times at a time, so that
    the samples are held for one block only.
    """
    if not np.array_equal(plus.times, minus.times):
        raise PreconditionError("the plus and minus congruences need the same times")
    tables = _SourceRows(plus, rho0, rows), _SourceRows(minus, rho0, rows)
    factors = np.array([[-0.5], [0.5]])
    n = plus.times.shape[0]
    for k0 in range(0, n, BLOCK_TIMES):
        ks = range(k0, min(k0 + BLOCK_TIMES, n))
        # the density and the complement of each flow (first axis) per row
        P, V = np.empty((2, 2, len(ks), plus.q.shape[1]))
        for j, k in enumerate(ks):
            rho, u = rho_u(np.stack((plus.q[k], minus.q[k])), float(plus.times[k]))
            P[:, j] = rho
            V[:, j] = factors * u
        for f, table in enumerate(tables):
            table.add(P[f], V[f])
    return tuple(table.table() for table in tables)


# ---------- conservation along composed flows ----------

@dataclass(frozen=True)
class ConservationReport:
    times: np.ndarray
    carried: np.ndarray  # P_C J_C, one row per stored composed time
    max_drift: float


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
    trajectory_ratio: np.ndarray  # weighted rho0/J mixture over the true density
    max_restored_gap: float       # after adding the weighted source terms


def mixture_check(bi, rho_u, r, probe_xs, probe_t):
    """Weighted two-flow trajectory density against the true density.

    The weighted mixture r rho0/J_plus + (1-r) rho0/J_minus does not track
    the density; restoring the weighted source terms c of
    ``pair_source_terms``, with the density and osmotic velocity sampler
    ``rho_u``, must close the gap.
    """
    rho0 = bi.rho0
    k = bi.plus.time_index(probe_t)
    # the tables of the probe time alone
    table_p, table_m = pair_source_terms(bi.plus, bi.minus, rho_u, rho0, [k])

    xs = np.atleast_1d(np.asarray(probe_xs, dtype=float))
    qp0 = np.atleast_1d(invert_labels(bi.plus, xs, probe_t))
    qm0 = np.atleast_1d(invert_labels(bi.minus, xs, probe_t))
    labels = bi.labels.values
    Jp = NotAKnotSpline(labels, bi.plus.J[k])(qp0)
    Jm = NotAKnotSpline(labels, bi.minus.J[k])(qm0)
    rho_true = np.asarray(rho_u(xs, probe_t)[0], dtype=float)

    mix = r * rho0(qp0) / Jp + (1.0 - r) * rho0(qm0) / Jm
    restored = mix + r * table_p.c_at(qp0, 0) + (1.0 - r) * table_m.c_at(qm0, 0)
    return MixtureReport(mix / rho_true, float(np.max(np.abs(restored / rho_true - 1.0))))
