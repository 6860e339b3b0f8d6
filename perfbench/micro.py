"""Kernel micro-benchmarks at the canonical sizes, on the active public kernels.

Sizes: a 2048-point complex tridiagonal solve, Hermite evaluation of 201
knots at 201 points, inversion of 201 knots at 101 targets and natural
spline slopes on 201 knots.  Only the public names in ``bihj.kernels`` are
called, whatever implementation stands behind them.

``computed_flops`` and ``computed_bytes`` are computed from the array sizes
with the per-element models below; they are not counted from the hardware.
"""
import statistics
import time

import numpy as np

from bihj import kernels


def _tridiag_case():
    n = 2048
    rng = np.random.default_rng(0)
    dl = np.full(n - 1, -0.3 + 0.1j)
    du = np.full(n - 1, -0.3 + 0.1j)
    d = (2.0 + 0.2j) + 0.01 * rng.normal(size=n).astype(complex)
    rhs = rng.normal(size=n) + 1j * rng.normal(size=n)
    args = (dl, d, du, rhs)

    def check(x):
        ax = d * x
        ax[:-1] += du * x[1:]
        ax[1:] += dl * x[:-1]
        return float(np.abs(ax - rhs).max() / np.abs(rhs).max())

    # Thomas elimination per row: 3 complex mul (6 flops), 3 complex add (2),
    # 2 complex div (11); reads three diagonals and the rhs, writes x.
    return args, check, 46 * n, 16 * 5 * n


def _hermite_case():
    # a cubic with its exact slopes is reproduced exactly by the interpolant
    xk = np.linspace(-4.0, 4.0, 201)
    yk = 0.1 * xk**3 - 0.5 * xk + 1.0
    dk = 0.3 * xk**2 - 0.5
    xq = np.linspace(-3.9, 3.9, 201)

    def check(out):
        return float(np.abs(out - (0.1 * xq**3 - 0.5 * xq + 1.0)).max())

    # per point: 24 flops for the cubic; reads knots once, reads xq, writes out
    return (xk, yk, dk, xq), check, 24 * xq.size, 8 * (3 * xk.size + 2 * xq.size)


def _invert_case():
    xk = np.linspace(-4.0, 4.0, 201)
    yk = xk + 0.2 * np.sin(xk)
    dk = kernels.pchip_slopes(xk, yk)
    targets = np.linspace(yk[0] + 0.1, yk[-1] - 0.1, 101)
    tol = 1e-10 * (yk[-1] - yk[0])

    def check(roots):
        return float(np.abs(kernels.hermite_eval(xk, yk, dk, roots) - targets).max())

    # nominal per target: three Newton steps on one cubic, each a value (24)
    # plus a derivative (18) plus the update (3)
    return (xk, yk, dk, targets, tol), check, 135 * targets.size, \
        8 * (3 * xk.size + 2 * targets.size)


def _natural_case():
    x = np.linspace(-4.0, 4.0, 201)
    y = 0.5 * x - 1.0

    def check(slopes):
        return float(np.abs(slopes - 0.5).max())

    # ~12 flops per knot to assemble the system plus 8 for the real solve
    return (x, y), check, 20 * x.size, 8 * 3 * x.size


CASES = {
    "tridiag_solve": _tridiag_case,
    "hermite_eval": _hermite_case,
    "invert_monotone": _invert_case,
    "spline_slopes_natural": _natural_case,
}

CHECK_TOL = 1e-9    # residual bound of each correctness check
MIN_BATCH_S = 0.02  # calls per batch double until a batch lasts this long
BATCHES = 5


def run():
    """{kernel: {us, computed_flops, computed_bytes, check, passed}}; absent
    kernels are skipped."""
    out = {}
    for name, case in CASES.items():
        fn = getattr(kernels, name, None)
        if fn is None:
            continue
        args, check, flops, nbytes = case()
        residual = check(fn(*args))
        calls = 1
        while True:
            t0 = time.perf_counter()
            for _ in range(calls):
                fn(*args)
            if time.perf_counter() - t0 >= MIN_BATCH_S:
                break
            calls *= 2
        per_call = []
        for _ in range(BATCHES):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn(*args)
            per_call.append((time.perf_counter() - t0) / calls)
        out[name] = {"us": statistics.median(per_call) * 1e6, "computed_flops": flops,
                     "computed_bytes": nbytes, "check": residual,
                     "passed": residual <= CHECK_TOL}
    return out
