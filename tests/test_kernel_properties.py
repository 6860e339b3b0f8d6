"""Property tests of the tridiagonal solve and its LAPACK binding, the
natural-spline and PCHIP slopes, the block natural splines, the not-a-knot
spline, its own-column evaluation and the monotone inversion."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402
from scipy.interpolate import CubicSpline  # noqa: E402
from scipy.linalg import get_lapack_funcs  # noqa: E402

import bihj.kernels as K  # noqa: E402
from bihj import _lapack  # noqa: E402

EPS = np.finfo(float).eps
TINY = np.finfo(float).smallest_subnormal
unit = st.floats(-1.0, 1.0)


@st.composite
def dominant_tridiag(draw):
    """Strictly row-diagonally dominant (dl, d, du, rhs): |d_i| exceeds the
    off-diagonal row sum by at least 0.5."""
    n = draw(st.integers(2, 40))
    dl = draw(arrays(float, n - 1, elements=unit))
    du = draw(arrays(float, n - 1, elements=unit))
    excess = draw(arrays(float, n, elements=st.floats(0.5, 10.0)))
    sign = draw(arrays(float, n, elements=st.sampled_from([-1.0, 1.0])))
    d = sign * (np.abs(np.r_[0.0, dl]) + np.abs(np.r_[du, 0.0]) + excess)
    rhs = draw(arrays(float, n, elements=st.floats(-100.0, 100.0)))
    return dl, d, du, rhs


@settings(max_examples=60, deadline=None)
@given(dominant_tridiag())
def test_tridiag_solve_matches_dense_solve(system):
    dl, d, du, rhs = system
    dense = np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)
    x = K.tridiag_solve(dl, d, du, rhs)
    ref = np.linalg.solve(dense, rhs)
    # the dominance margin 0.5 bounds the inverse, ||A^-1||_inf <= 2, so the
    # condition number is at most 2 ||A||_inf
    cond = 2.0 * np.abs(dense).sum(axis=1).max()
    assert np.abs(x - ref).max() <= 8 * EPS * cond * np.abs(ref).max()


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 40), st.sampled_from([None, 3]), st.data())
def test_natural_spline_slopes_exact_on_linear_data(n, columns, data):
    gaps = data.draw(arrays(float, n - 1, elements=st.floats(0.01, 2.0)))
    x = np.r_[0.0, np.cumsum(gaps)] + data.draw(st.floats(-10.0, 10.0))
    k = 1 if columns is None else columns
    slope = data.draw(arrays(float, k, elements=st.floats(-100.0, 100.0)))
    offset = data.draw(arrays(float, k, elements=st.floats(-100.0, 100.0)))
    y = x[:, None] * slope + offset
    if columns is None:
        y, slope = y[:, 0], slope[0]
    s = K.spline_slopes_natural(x, y)
    assert s.shape == y.shape
    assert np.abs(s - slope).max() <= _linear_slope_bound(y, gaps)


def _linear_slope_bound(y, gaps):
    # round-off of the divided differences, y / h, sets the scale; the
    # absolute term is the underflow of the standard error model, which
    # rules once the data are subnormal
    return 64 * (EPS * np.abs(y).max() + TINY) / gaps.min()


def test_natural_spline_slopes_exact_on_subnormal_slope():
    x = np.array([0.0, 0.25, 0.5])
    y = 2.225073858507e-311 * x  # three subnormal ulps of error
    s = K.spline_slopes_natural(x, y)
    assert np.abs(s - 2.225073858507e-311).max() <= _linear_slope_bound(y, np.diff(x))


@st.composite
def knot_sets(draw):
    """k knot sets of n knots each, whose gaps span eight decades, with c
    sets of values of shape (c, n, k) and m points per knot set, some of
    them beyond the ends."""
    n = draw(st.integers(3, 30))
    k = draw(st.integers(1, 4))
    c = draw(st.integers(1, 3))
    gaps = draw(arrays(float, (n - 1, k), elements=st.floats(1e-4, 1e4)))
    start = draw(arrays(float, k, elements=st.floats(-100.0, 100.0)))
    x = start + np.r_[np.zeros((1, k)), np.cumsum(gaps, axis=0)]
    y = draw(arrays(float, (c, n, k), elements=st.floats(-1e6, 1e6)))
    where = draw(arrays(float, (draw(st.integers(1, 30)), k), elements=st.floats(-0.1, 1.1)))
    return x, y, x[0] + where * (x[-1] - x[0])


@settings(max_examples=100, deadline=None)
@given(knot_sets())
def test_block_natural_splines_are_the_separate_splines(data):
    # equal doubles other than zero have equal bits; at the seams a zero
    # slope may come out as -0.0 where the separate solve gives +0.0, so the
    # values are compared by equality, not by bits
    x, y, xq = data
    values = K.NaturalSplines(x, xq)(y)
    assert values.shape == (y.shape[0],) + xq.shape
    for j in range(x.shape[1]):
        own = y[:, :, j].T  # (n, c): the c value columns on knot set j
        want = K.spline_slopes_natural(x[:, j], own)
        assert np.array_equal(values[:, :, j].T, K.hermite_eval(x[:, j], own, want, xq[:, j]))


@settings(max_examples=100, deadline=None)
@given(st.integers(4, 40), st.sampled_from([None, 2]), st.data())
def test_not_a_knot_spline_reproduces_cubics(n, columns, data):
    # a cubic satisfies every not-a-knot condition, so the spline is the
    # cubic itself; what remains is round-off
    gaps = data.draw(arrays(float, n - 1, elements=st.floats(0.05, 1.0)))
    x = np.r_[0.0, np.cumsum(gaps)] + data.draw(st.floats(-5.0, 5.0))
    k = 1 if columns is None else columns
    # coefficients on a 0.01 grid: tiny ones would underflow to subnormals
    hundredths = st.integers(-1000, 1000).map(lambda c: c / 100)
    coef = data.draw(arrays(float, (4, k), elements=hundredths))
    u = np.r_[x, np.linspace(x[0], x[-1], 97)][:, None]
    value = lambda z: ((coef[3] * z + coef[2]) * z + coef[1]) * z + coef[0]
    slope = lambda z: (3.0 * coef[3] * z + 2.0 * coef[2]) * z + coef[1]
    y = value(x[:, None])
    if columns is None:
        y, value_at, slope_at = y[:, 0], value(u)[:, 0], slope(u)[:, 0]
    else:
        value_at, slope_at = value(u), slope(u)
    sp = K.NotAKnotSpline(x, y)
    scale = np.abs(y).max()
    # knot gap ratios up to 20 keep the slope system well conditioned;
    # random cases stay below 32 eps
    assert np.abs(sp(u[:, 0]) - value_at).max() <= 256 * EPS * scale
    at = sp.locate(u[:, 0])
    slopes = np.stack([sp.own_column(at, j, slope=True)[1] for j in range(k)], axis=-1)
    assert np.abs(slopes.reshape(slope_at.shape) - slope_at).max() <= 256 * EPS * scale / gaps.min()


@settings(max_examples=100, deadline=None)
@given(st.integers(4, 30), st.integers(1, 6), st.booleans(), st.data())
def test_own_column_is_the_one_column_spline(n, c, one_column, data):
    # gaps over eight decades, values with both zeros, points beyond the ends
    gaps = data.draw(arrays(float, n - 1, elements=st.floats(1e-4, 1e4)))
    x = np.r_[0.0, np.cumsum(gaps)] + data.draw(st.floats(-100.0, 100.0))
    y = data.draw(arrays(float, (n, c), elements=st.floats(-1e6, 1e6)))
    m = data.draw(st.integers(1, 30))
    xq = x[0] + data.draw(arrays(float, m, elements=st.floats(-0.1, 1.1))) * (x[-1] - x[0])
    if one_column:
        cols = data.draw(st.integers(0, c - 1))
        want_cols = np.full(m, cols)
    else:
        cols = want_cols = data.draw(arrays(np.intp, m, elements=st.integers(0, c - 1)))
    sp = K.NotAKnotSpline(x, y)
    at = sp.locate(xq)
    values = sp.own_column(at, cols)
    both = sp.own_column(at, cols, slope=True)
    assert values.shape == (m,) and both.shape == (2, m)
    for p, col in enumerate(want_cols):
        alone = CubicSpline(x, y[:, col])
        want = np.array([alone(xq[p]), alone(xq[p], 1)])
        assert both[:, p].tobytes() == want.tobytes()
        assert values[p:p + 1].tobytes() == want[:1].tobytes()


@st.composite
def monotone_data(draw, flats=True):
    """Knots with random gaps and non-decreasing values (strictly increasing
    unless flats), optionally mirrored to non-increasing."""
    n = draw(st.integers(2, 40))
    gaps = draw(arrays(float, n - 1, elements=st.floats(0.01, 2.0)))
    x = np.r_[0.0, np.cumsum(gaps)] + draw(st.floats(-10.0, 10.0))
    step = st.floats(1e-3, 10.0)
    rises = draw(arrays(float, n - 1, elements=st.one_of(st.just(0.0), step) if flats else step))
    y = np.r_[0.0, np.cumsum(rises)] + draw(st.floats(-100.0, 100.0))
    return x, y


@settings(max_examples=100, deadline=None)
@given(monotone_data(), st.sampled_from([1.0, -1.0]))
def test_pchip_keeps_monotone_data_monotone(data, sign):
    x, y = data
    y = sign * y
    m = K.pchip_slopes(x, y)
    delta = np.diff(y) / np.diff(x)
    # Fritsch-Carlson: slopes share the sign of each secant and are at most
    # three times it, which makes every interval cubic monotone
    for d in (m[:-1], m[1:]):
        assert np.all(d * sign >= 0.0)
        assert np.all(np.abs(d) <= 3.0 * np.abs(delta) * (1.0 + 4 * EPS))
    xq = np.sort(np.r_[x, np.linspace(x[0], x[-1], 500)])
    steps = np.diff(K.hermite_eval(x, y, m, xq)) * sign
    assert steps.min() >= -8 * EPS * np.abs(y).max()


@settings(max_examples=100, deadline=None)
@given(monotone_data(flats=False), st.floats(1e-10, 1e-3), st.data())
def test_invert_monotone_round_trips_within_tol(data, rel_tol, draw):
    x, y = data
    m = K.pchip_slopes(x, y)
    x_true = draw.draw(arrays(float, 20, elements=st.floats(0.0, 1.0))) * (x[-1] - x[0]) + x[0]
    targets = K.hermite_eval(x, y, m, x_true)
    tol = rel_tol * np.abs(y).max()
    inv = K.invert_monotone(x, y, m, targets, tol)
    assert np.all((inv >= x[0]) & (inv <= x[-1]))
    assert np.abs(K.hermite_eval(x, y, m, inv) - targets).max() <= tol


@st.composite
def lapack_systems(draw):
    """A tridiagonal system of order n in [3, 900], real or complex, with
    entries whose magnitudes span 1e-3 to 1e3 and random signs (so that
    gttrf pivots), some zero seams that split it into blocks, some zeros on
    the diagonal (a zero pivot where one falls in a block of its own), and
    1 to 4 right-hand side columns, or one of shape (n,), real or of the
    matrix's type."""
    n = draw(st.integers(3, 900))
    k = draw(st.integers(1, 4))
    one_d = k == 1 and draw(st.booleans())
    complex_ = draw(st.booleans())
    seams = draw(st.integers(0, 4))
    zeros = draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def entries(*shape):
        out = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)
        if complex_:
            out = out + 1j * rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)
        return out

    dl, d, du = entries(n - 1), entries(n), entries(n - 1)
    cut = rng.choice(n - 1, size=min(seams, n - 1), replace=False)
    dl[cut] = 0.0
    du[cut] = 0.0
    d[rng.choice(cut, size=min(zeros, cut.size), replace=False)] = 0.0
    b = entries(n) if one_d else np.asfortranarray(entries(n, k))
    if draw(st.booleans()):
        b = b.real  # on a complex matrix, solved as complex
    return dl, d, du, b


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(lapack_systems())
def test_lapack_binding_is_scipys_wrappers_bit_for_bit(system):
    # the routines of numpy's OpenBLAS give the bytes of scipy's f2py
    # wrappers, on copies: the arrays passed in stay unchanged
    dl, d, du, b = system
    before = [a.copy() for a in system]
    gtsv, gttrf, gttrs = get_lapack_funcs(("gtsv", "gttrf", "gttrs"), (dl, d, du, b))

    x, info = _lapack.gtsv(dl, d, du, b)
    want = gtsv(dl, d, du, b)
    assert info == want[4] and _same_bytes(x, want[3])
    assert x.flags.f_contiguous

    lu = _lapack.factor(dl, d, du)
    want = gttrf(dl, d, du)
    assert lu.info == want[5]
    for got, exp in zip((lu.dl, lu.d, lu.du, lu.du2), want[:4]):
        assert _same_bytes(got, exp)
    assert np.array_equal(lu.ipiv, want[4])

    x, info = lu.solve(b)
    want = gttrs(*want[:5], b)
    assert info == want[1] and _same_bytes(x, want[0])
    for a, copy in zip(system, before):
        assert _same_bytes(a, copy)
