"""Property tests of the tridiagonal solve, the natural-spline and PCHIP
slopes, the block natural splines, the not-a-knot spline and the monotone
inversion."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

import bihj.kernels as K  # noqa: E402

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
    # slope may come out as -0.0 where the separate solve gives +0.0
    x, y, xq = data
    splines = K.NaturalSplines(x, xq)
    slopes = splines.slopes(y)
    values = splines(y)
    assert slopes.shape == y.shape and values.shape == (y.shape[0],) + xq.shape
    for j in range(x.shape[1]):
        own = y[:, :, j].T  # (n, c): the c value columns on knot set j
        want = K.spline_slopes_natural(x[:, j], own)
        assert np.array_equal(slopes[:, :, j].T, want)
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
    assert np.abs(sp.value_and_slope(u[:, 0])[1] - slope_at).max() <= 256 * EPS * scale / gaps.min()


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
