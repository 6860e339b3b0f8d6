"""Reference versions of program parts, for the tests to compare with.

- One-shot versions of the streamed and blocked algorithms: each holds its
  table for every block or stored time at once, as the program did before it
  streamed them.
- The acceptance suite's artefacts built without ``RunBundle``, as the suite
  built them before it ran them as scenario runs.
- Test-only measures: the polar residuals, the largest residual, the drift
  factors of a composed flow and the label lookups of a cross map.
- The closed forms of the free Gaussian that no command reads: the
  mean-flow and osmotic velocities, the three quantum potentials and the
  actions accumulated along the paths.

The tests compare the program with the first two bit for bit.
"""
import hashlib
from collections import Counter

import numpy as np

from bihj import compose, gaussian
from bihj.autonomous import BiCongruence, propagate_autonomous
from bihj.compose import _column, _on_rows, _rk4_pair
from bihj.congruence import FieldStack, LabelSet, integrate_congruence
from bihj.fields import (
    ResidualSeries,
    _check_action_jump,
    _interior_indices,
    _masked_grad,
    _masked_lap,
    derive_fields,
    derive_series,
)
from bihj.gaussian import GaussianStack
from bihj.kernels import (
    NotAKnotSpline,
    cumulative_trapezoid,
    fd_derivative,
    hermite_eval,
    pchip_slopes,
)
from bihj.reference import (
    InitialStateSpec,
    SpatialGrid,
    build_initial_state,
    evolve_crank_nicolson,
)
from bihj.scenario import CSV_CHUNK_ROWS, _csv_format


def reference_write_csv(path, header, blocks):
    """write_csv over every block at once: an array object that recurs
    anywhere in the file is formatted to text once."""
    blocks = list(blocks)
    seen = Counter(id(e) for block in blocks for e in block if np.ndim(e))
    texts = {}
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        def put(text):
            data = text.encode("utf-8")
            digest.update(data)
            fh.write(data)

        put(",".join(header) + "\n")
        for block in blocks:
            fmt, columns = [], []
            for e in block:
                values = np.asarray(e)
                if not values.ndim:
                    fmt.append((_csv_format(values) % values.item()).replace("%", "%%"))
                elif seen[id(e)] > 1:
                    if id(e) not in texts:
                        texts[id(e)] = [_csv_format(values) % v for v in values.tolist()]
                    fmt.append("%s")
                    columns.append(texts[id(e)])
                else:
                    fmt.append(_csv_format(values))
                    columns.append(values)
            fmt = ",".join(fmt) + "\n"
            n_rows = min(len(c) for c in columns)
            for start in range(0, n_rows, CSV_CHUNK_ROWS):
                stop = start + CSV_CHUNK_ROWS
                chunk = [c[start:stop] if isinstance(c, list) else c[start:stop].tolist()
                         for c in columns]
                put("".join(fmt % row for row in zip(*chunk)))
    return digest.hexdigest()


def eager_field_snapshots(wave, rho_min=None, rho_ref=1.0, q_sign="derived"):
    """Every derived snapshot of a wave series at once, in time order, with the
    anchor fixed at t=0 and continued in time; a jump of the anchor action
    between two snapshots raises at the later one."""
    first = wave.snapshots[0]
    if rho_min is None:
        rho_min = 1e-12 * first.density().max()
    ref_index = int(np.argmax(first.density()))
    out, prev = [], None
    for snap in wave.snapshots:
        fs = derive_fields(snap, wave.params, rho_min=rho_min, rho_ref=rho_ref,
                           ref_index=ref_index, prev_ref_action=prev, q_sign=q_sign)
        if prev is not None:
            _check_action_jump(prev, fs, wave.params.hbar)
        prev = fs.ref_action
        out.append(fs)
    return out


def reference_fd_derivative(y, h):
    """fd_derivative with each edge row made by its own formula."""
    y = np.asarray(y, dtype=float)
    g = np.empty_like(y)
    g[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)
    g[1] = (y[2] - y[0]) / (2.0 * h)
    g[-2] = (y[-1] - y[-3]) / (2.0 * h)
    g[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * h)
    g[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * h)
    return g


def one_spline_compose(setup):
    """Q_B, J_B, J_A at Q_B, v_A at Q_B and the output time indices of
    compose_trajectories, from one V_B spline with a column per stored time
    and one J_A and one v_A spline with a column per output time."""
    A = setup.congruence_A
    labels = A.labels.values
    span = (labels[0], labels[-1])
    nt = A.times.shape[0]
    V_B = np.empty((labels.shape[0], nt))
    for k in range(nt):
        vb = np.asarray(setup.field_B.velocity(A.q[k], float(A.times[k])), dtype=float)
        V_B[:, k] = (vb + np.zeros_like(A.q[k])) / A.J[k]
    spline = NotAKnotSpline(labels, V_B)
    V_B = [_column(spline, k) for k in range(nt)]

    y = setup.labels_C.values.copy()
    J = np.ones_like(y)
    out_idx, QB, JB = [0], [y.copy()], [J.copy()]
    k = 0
    while k + 2 <= nt - 1:
        y, J = _rk4_pair(y, J, *V_B[k:k + 3], A.times[k + 2] - A.times[k], span)
        k += 2
        out_idx.append(k)
        QB.append(y.copy())
        JB.append(J.copy())
    if k < nt - 1:
        s0, s2 = V_B[k], V_B[k + 1]
        y, J = _rk4_pair(y, J, s0, lambda yy: 0.5 * (s0(yy) + s2(yy)), s2,
                         A.times[k + 1] - A.times[k], span)
        out_idx.append(k + 1)
        QB.append(y.copy())
        JB.append(J.copy())
    out_idx, QB = np.array(out_idx), np.array(QB)
    JA_at, vA = (_on_rows(NotAKnotSpline(labels, table[out_idx].T), QB)
                 for table in (A.J, A.qdot))
    return out_idx, QB, np.array(JB), JA_at, vA


def composed_path(setup, out_idx, QB):
    """q_C: the host path of label Q_B at each output time."""
    A = setup.congruence_A
    labels = A.labels.values
    return np.array([hermite_eval(labels, A.q[k], pchip_slopes(labels, A.q[k]), QB[j])
                     for j, k in enumerate(out_idx)])


def source_term(A, P_A, v_B, rho0, rows):
    """The source table of the congruence A at its stored times ``rows``,
    from the density ``P_A`` and the complementary field ``v_B`` at its
    positions, one row per stored time, added to the table BLOCK_TIMES
    stored times at a time: the table of one flow alone."""
    table = compose._SourceRows(A, rho0, rows)
    for k in range(0, A.times.shape[0], compose.BLOCK_TIMES):
        table.add(P_A[k:k + compose.BLOCK_TIMES], v_B[k:k + compose.BLOCK_TIMES])
    return table.table()


def full_array_source_term(A, P_A, v_B, rho0):
    """c_A, rho_ratio and the decomposition gap of source_term, from the
    cumulative trapezoid over the full arrays, at every stored time."""
    labels = A.labels.values
    h = labels[1] - labels[0]
    W = v_B + 0.0
    W *= P_A
    cum = cumulative_trapezoid(W, A.times)
    c = np.empty_like(cum)
    for k in range(A.times.shape[0]):
        c[k] = -fd_derivative(cum[k], h) / A.J[k]
    carried = np.asarray(rho0(labels), dtype=float)[None, :] / A.J
    gap = float(np.max(np.abs(carried + c - P_A) / P_A.max(axis=1, keepdims=True)))
    return c, carried / P_A, gap


def full_array_pair_samples(plus, minus, rho, u):
    """The density and the complements -u/2 and +u/2 at both congruences'
    points, one full array per flow and quantity."""
    P_plus, P_minus, V_plus, V_minus = (np.empty(plus.q.shape) for _ in range(4))
    factors = np.array([[-0.5], [0.5]])
    for k, t in enumerate(plus.times):
        x = np.stack((plus.q[k], minus.q[k]))
        P_plus[k], P_minus[k] = rho(x, float(t))
        V_plus[k], V_minus[k] = factors * u(x, float(t))
    return (P_plus, V_plus), (P_minus, V_minus)


# ---------- the acceptance suite's artefacts ----------

def oracle_congruences(g):
    """The plus, minus, mean-flow ("dbb") and half_plus congruences on the
    closed-form fields, 201 labels on [-4, 4] to t = 1 at dt 1e-3, marched
    together."""
    labels = LabelSet.uniform(-4.0, 4.0, 201)
    q0 = labels.values
    flows = {
        "plus": (("v_plus", "L_plus", 1.0), gaussian.action_plus(g, q0, 0.0)),
        "minus": (("v_minus", "L_minus", 1.0), gaussian.action_minus(g, q0, 0.0)),
        "dbb": (("v", "L", 1.0), gaussian.phase_action(g, q0, 0.0)),
        "half_plus": (("v_plus", None, 0.5), None)}
    stack = GaussianStack(g, [spec for spec, _ in flows.values()], tuple(flows))
    return dict(zip(flows, integrate_congruence(
        stack, labels, np.linspace(0.0, 1.0, 1001),
        initial_actions=[act for _, act in flows.values()])))


def autonomous_pair(params, g):
    """The coupled pair from the closed-form actions, 201 labels on [-4, 4] to
    t = 0.5 at dt 2e-4, stored every 25 steps."""
    labels = LabelSet.uniform(-4.0, 4.0, 201)
    return propagate_autonomous(
        gaussian.action_plus(g, labels.values, 0.0), gaussian.action_minus(g, labels.values, 0.0),
        labels, params, 2e-4, 2500, store_every=25)


def superposition_run(params, sigma0):
    """Two gaussians 4 sigma0 apart on [-12, 12] x 2048, Crank-Nicolson to
    t = 0.5: the wave, its fields and the field-driven pair on 161 labels over
    rho >= 1e-4 max rho at t = 0."""
    spec = InitialStateSpec.two_gaussian(sigma0, separation=4 * sigma0)
    grid = SpatialGrid(-12.0, 12.0, 2048)
    snap = build_initial_state(spec, grid, params)
    wave = evolve_crank_nicolson(snap, params, 1e-3, 500, store_every=10)
    fs = derive_series(wave)
    first = fs.snapshots[0]
    keep = first.rho >= 1e-4 * first.rho.max()
    labels = LabelSet.uniform(grid.x[keep].min(), grid.x[keep].max(), 161)
    flows = ("plus", "minus")
    actions = [first.spline(getattr(first, "S_" + flow))(labels.values) for flow in flows]
    plus, minus = integrate_congruence(
        FieldStack(fs, [("v_" + flow, "L_" + flow, 1.0) for flow in flows], flows),
        labels, np.linspace(0.0, 0.5, 501), initial_actions=actions)
    return wave, fs, BiCongruence(params, plus, minus)


# ---------- test-only measures ----------

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
        runs = cur.runs
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


def max_abs(residuals):
    """Largest magnitude over both residual fields of a ResidualSeries."""
    return float(np.nanmax(np.abs(np.concatenate([residuals.plus, residuals.minus]))))


def drift_factors(report):
    """P_C J_C of a ConservationReport relative to its initial value, per label."""
    return report.carried / report.carried[0]


def _pchip_lookup(x, y, xq):
    out = hermite_eval(x, y, pchip_slopes(x, y), np.atleast_1d(np.asarray(xq, float)))
    return out if np.ndim(xq) else float(out[0])


def minus_label_of(cross_map, q_plus0):
    """The minus label paired with the plus label q_plus0 by a CrossMap."""
    return _pchip_lookup(cross_map.q_plus0, cross_map.q_minus0, q_plus0)


def plus_label_of(cross_map, q_minus0):
    """The plus label paired with the minus label q_minus0 by a CrossMap."""
    return _pchip_lookup(cross_map.inverse_q_minus0, cross_map.inverse_q_plus0, q_minus0)


# ---------- closed forms of the free Gaussian that no command reads ----------

def velocity(g, x, t):
    """Mean-flow (probability transport) velocity."""
    return g.hbar * g.kappa * t * np.asarray(x) / (2.0 * g.mass * g.sigma_sq(t))


def osmotic_velocity(g, x, t):
    return -g.hbar * np.asarray(x) / (g.mass * g.sigma_sq(t))


def q_potential(g, x, t):
    """Polar-model quantum potential."""
    s2 = g.sigma_sq(t)
    h2m = g.hbar**2 / g.mass
    return h2m / (4.0 * s2) - h2m * np.asarray(x) ** 2 / (8.0 * s2**2)


def q_potential_plus(g, x, t):
    s2 = g.sigma_sq(t)
    h2m = g.hbar**2 / g.mass
    return h2m / (4.0 * s2) * (g.kappa * t + 1.0) - h2m * np.asarray(x) ** 2 / (4.0 * s2**2)


def q_potential_minus(g, x, t):
    s2 = g.sigma_sq(t)
    h2m = g.hbar**2 / g.mass
    return -h2m / (4.0 * s2) * (g.kappa * t - 1.0) - h2m * np.asarray(x) ** 2 / (4.0 * s2**2)


def chi_plus(g, q0, t, rho_ref=1.0):
    """Accumulated action of the plus family, equal to S_plus along the path."""
    return gaussian.action_plus(g, gaussian.oracle_path(g, "plus", q0, t), t, rho_ref)


def chi_minus(g, q0, t, rho_ref=1.0):
    return gaussian.action_minus(g, gaussian.oracle_path(g, "minus", q0, t), t, rho_ref)


def chi_polar(g, q0, t, rho_ref=1.0):
    return gaussian.phase_action(g, gaussian.oracle_path(g, "dbb", q0, t), t)
