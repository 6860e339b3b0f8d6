"""One-shot reference versions of the streamed and blocked algorithms: each
holds its table for every block or stored time at once, as the program did
before it streamed them.  The tests compare the program with these bit for
bit."""
import hashlib
from collections import Counter

import numpy as np

from bihj.compose import _column, _on_rows, _rk4_pair
from bihj.kernels import (
    NotAKnotSpline,
    cumulative_trapezoid,
    fd_derivative,
    hermite_eval,
    pchip_slopes,
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


def full_array_source_term(A, P_A, v_B, rho0):
    """c_A, rho_ratio and the decomposition gap of source_term, from the
    cumulative trapezoid over the full arrays."""
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
