import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline, PchipInterpolator
from scipy.linalg import solve_banded
from scipy.signal import argrelextrema

import bihj.kernels as K


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _tridiag(rng, n, dtype):
    """Diagonally dominant tridiagonal system (dl, d, du, dense) of one dtype."""
    def draw(size, scale, shift=0.0):
        out = shift + scale * rng.normal(size=size)
        return out + 1j * scale * rng.normal(size=size) if dtype is complex else out
    dl, d, du = draw(n - 1, 0.5), draw(n, 1.0, 5.0), draw(n - 1, 0.5)
    return dl, d, du, np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)


def test_tridiag_solve_matches_dense(rng):
    for dtype in (float, complex):
        dl, d, du, dense = _tridiag(rng, 64, dtype)
        rhs = rng.normal(size=64) + 1j * rng.normal(size=64)
        x = K.tridiag_solve(dl, d, du, rhs)
        assert np.abs(dense @ x - rhs).max() < 1e-12


def test_factored_solver_matches_direct(rng):
    n = 128
    for dtype in (float, complex):
        dl, d, du, dense = _tridiag(rng, n, dtype)
        solve = K.make_tridiag_solver(dl, d, du)
        for rhs in (rng.normal(size=n), rng.normal(size=n) + 1j * rng.normal(size=n)):
            x = solve(rhs)
            assert np.iscomplexobj(x) == (np.iscomplexobj(rhs) or dtype is complex)
            assert np.abs(dense @ x - rhs).max() < 1e-12
            assert np.abs(x - K.tridiag_solve(dl, d, du, rhs)).max() < 1e-12


def test_factored_solver_rejects_singular_matrix():
    d = np.array([1.0, 0.0, 1.0, 1.0])
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        K.make_tridiag_solver(np.zeros(3), d, np.zeros(3))


def test_tridiag_solve_is_lapack_banded_solve(rng):
    # the same gtsv elimination scipy's (1, 1) banded solve runs, bit for bit
    for dtype in (float, complex):
        dl, d, du, _ = _tridiag(rng, 33, dtype)
        ab = np.zeros((3, 33), dtype=dtype)
        ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
        for rhs in (rng.normal(size=33), rng.normal(size=(33, 3))):
            assert np.array_equal(K.tridiag_solve(dl, d, du, rhs), solve_banded((1, 1), ab, rhs))


def test_tridiag_solve_rejects_singular_matrix():
    d = np.array([1.0, 0.0, 1.0, 1.0])
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        K.tridiag_solve(np.zeros(3), d, np.zeros(3), np.ones(4))


def _nonuniform_columns(rng, n=25, k=3):
    x = np.cumsum(rng.uniform(0.05, 0.6, n))
    return x, np.column_stack([np.sin(1.3 * x), x**2 - x, np.exp(-x)])[:, :k]


def test_multi_column_kernels_equal_column_by_column(rng):
    x, y = _nonuniform_columns(rng)
    s = K.spline_slopes_natural(x, y)
    assert s.shape == y.shape
    for j in range(y.shape[1]):
        assert np.array_equal(s[:, j], K.spline_slopes_natural(x, y[:, j]))
    xq = np.r_[x[0] - 0.3, rng.uniform(x[0], x[-1], 60), x, x[-1] + 0.2]
    out = K.hermite_eval(x, y, s, xq)
    assert out.shape == (xq.shape[0], y.shape[1])
    for j in range(y.shape[1]):
        assert np.array_equal(out[:, j], K.hermite_eval(x, y[:, j], s[:, j], xq))
    d = K.fd_derivative(y, 0.1)
    assert d.shape == y.shape
    for j in range(y.shape[1]):
        assert np.array_equal(d[:, j], K.fd_derivative(y[:, j], 0.1))


def test_natural_spline_matches_scipy_on_nonuniform_knots(rng):
    x, y = _nonuniform_columns(rng)
    ref = CubicSpline(x, y, bc_type="natural").derivative()(x)
    assert np.abs(K.spline_slopes_natural(x, y) - ref).max() < 1e-12 * np.abs(ref).max()
    assert np.abs(K.spline_slopes_natural(x, y[:, 0]) - ref[:, 0]).max() < 1e-12


def test_hermite_matches_scipy_pchip(rng):
    x = np.sort(rng.uniform(-2.0, 2.0, 30))
    x += np.arange(30) * 1e-6
    y = np.cumsum(np.abs(rng.normal(size=30)))
    m = K.pchip_slopes(x, y)
    ref = PchipInterpolator(x, y)
    xq = np.linspace(x[0], x[-1], 400)
    assert np.abs(K.hermite_eval(x, y, m, xq) - ref(xq)).max() < 1e-12


def test_invert_monotone_residual_contract(rng):
    x = np.linspace(-1.0, 3.0, 50)
    y = x + 0.2 * np.sin(2.0 * x) + 0.05 * x**2
    m = K.pchip_slopes(x, y)
    targets = np.linspace(y[0], y[-1], 123)
    tol = 1e-10 * (y[-1] - y[0])
    inv = K.invert_monotone(x, y, m, targets, tol)
    back = K.hermite_eval(x, y, m, inv)
    assert np.abs(back - targets).max() <= 5.0 * tol


def test_invert_monotone_knots_and_ends_map_to_knots():
    # the last interval has x[-2] + (x[-1] - x[-2]) != x[-1] in floating point
    x = np.r_[np.linspace(-3.0, -1.0, 30), 1.0 / 3.0]
    y = x + 0.2 * np.sin(2.0 * x) + 0.05 * x**2
    m = K.pchip_slopes(x, y)
    inv = K.invert_monotone(x, y, m, y, 1e-10 * (y[-1] - y[0]))
    assert np.array_equal(inv, x)


def test_invert_monotone_zero_end_slope():
    # PCHIP puts slope 0 at the left end (edge formula) and at both ends of
    # the flat interval [2, 3]; the roots near those ends have dH/dx -> 0
    x = np.arange(6.0)
    y = np.array([0.0, 0.1, 5.0, 5.0, 6.0, 7.0])
    m = K.pchip_slopes(x, y)
    assert m[0] == 0.0 and m[2] == 0.0 and m[3] == 0.0
    targets = np.array([1e-9, 0.05, 4.9999999, 5.0, 5.0000001, 6.5])
    tol = 1e-12
    inv = K.invert_monotone(x, y, m, targets, tol)
    assert np.abs(K.hermite_eval(x, y, m, inv) - targets).max() <= tol
    assert np.all(np.diff(inv) >= 0.0)


@pytest.mark.parametrize("tol", [1e-3, 1e-7, 1e-12])
def test_invert_monotone_stops_at_tol(rng, tol):
    x = np.sort(rng.uniform(-2.0, 2.0, 40))
    y = np.cumsum(rng.uniform(0.01, 1.0, 40))
    m = K.pchip_slopes(x, y)
    targets = rng.uniform(y[0], y[-1], 200)
    inv = K.invert_monotone(x, y, m, targets, tol)
    worst = np.abs(K.hermite_eval(x, y, m, inv) - targets).max()
    # within tol, and stopped there rather than polished to round-off
    assert 0.01 * tol < worst <= tol


def _bits(a):
    """Shape and bytes: equal only for bit-identical arrays, signed zeros too."""
    a = np.asarray(a)
    return a.shape, a.tobytes()


@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("columns", [None, 1, 3])
def test_not_a_knot_spline_is_scipy_cubic_spline(rng, uniform, columns):
    for n in (4, 5, 9, 201):
        x = (np.linspace(-4.0, 4.0, n) if uniform
             else np.cumsum(rng.uniform(0.05, 1.0, n)) - 3.0)
        y = rng.normal(size=(n,) if columns is None else (n, columns))
        xq = np.r_[x, rng.uniform(x[0], x[-1], 100), x[0] - 0.7, x[-1] + 0.4, x[0] - 1e-9]
        sp = K.NotAKnotSpline(x, y)
        for nu in (0, 1):
            out = sp(xq) if nu == 0 else sp.value_and_slope(xq)[1]
            assert out.shape == xq.shape + y.shape[1:]
            # every column is the one-column scipy spline of that column
            for j in range(1 if columns is None else columns):
                yj, oj = (y, out) if columns is None else (y[:, j], out[:, j])
                assert _bits(oj) == _bits(CubicSpline(x, yj)(xq, nu))
        assert np.shape(sp(x[2])) == y.shape[1:]


def test_not_a_knot_spline_keeps_the_sign_of_zero():
    # y(0) = -0.0 with negative slope and curvature: each term at the knot
    # is -0.0, and scipy's sum, which starts from +0.0, gives +0.0
    x = np.linspace(-1.0, 1.0, 9)
    y = -x - x**2 - x**3
    sp = K.NotAKnotSpline(x, y)
    assert _bits(sp(x)) == _bits(CubicSpline(x, y)(x, 0))
    assert _bits(sp.value_and_slope(x)[1]) == _bits(CubicSpline(x, y)(x, 1))


@pytest.mark.parametrize("columns", [None, 3])
def test_value_and_slope_is_both_calls(rng, columns):
    # one interval search gives the bits of sp(x) and of scipy's first
    # derivative, sign of zero included; queries lie at the knots, inside and
    # beyond both ends
    for n, uniform in ((4, True), (9, False), (201, True), (201, False)):
        x = (np.linspace(-4.0, 4.0, n) if uniform
             else np.cumsum(rng.uniform(0.05, 1.0, n)) - 3.0)
        for y in (rng.normal(size=(n,) if columns is None else (n, columns)),
                  -x - x**2 - x**3 if columns is None else np.stack([-x - x**2 - x**3] * 3, 1)):
            sp = K.NotAKnotSpline(x, y)
            xq = np.r_[x, rng.uniform(x[0], x[-1], 50), x[0] - 0.7, x[-1] + 0.4, x[0] - 1e-9]
            value, slope = sp.value_and_slope(xq)
            slopes = [CubicSpline(x, yj)(xq, 1) for yj in np.atleast_2d(y.T)]
            scipy_slope = slopes[0] if columns is None else np.stack(slopes, 1)
            assert np.array_equal(value, sp(xq)) and np.array_equal(slope, scipy_slope)
            assert _bits(value) == _bits(sp(xq)) and _bits(slope) == _bits(scipy_slope)
            assert sp.value_and_slope(x[2]).shape == (2,) + y.shape[1:]


def test_not_a_knot_spline_needs_four_knots():
    for n in (2, 3):
        with pytest.raises(ValueError, match="at least 4 knots"):
            K.NotAKnotSpline(np.arange(float(n)), np.ones(n))


def test_sampled_data_helpers_are_scipy(rng):
    for shape in ((1,), (2,), (30,), (30, 4)):
        t = np.cumsum(rng.uniform(0.01, 0.1, shape[0]))
        y = rng.normal(size=shape)
        ref = cumulative_trapezoid(y, t, axis=0, initial=0.0)
        assert _bits(K.cumulative_trapezoid(y, t)) == _bits(ref)
    for y in (rng.normal(size=200), np.round(rng.normal(size=200)), np.ones(5), np.ones(2)):
        ref = np.concatenate([argrelextrema(y, np.greater)[0], argrelextrema(y, np.less)[0]])
        assert np.array_equal(K.strict_extrema(y), ref)


def test_natural_spline_exact_on_linear():
    x = np.linspace(0.0, 1.0, 17)
    y = 3.0 * x - 2.0
    s = K.spline_slopes_natural(x, y)
    assert np.abs(s - 3.0).max() < 1e-12
    xq = np.linspace(-0.2, 1.2, 50)  # edge-interval extension stays linear
    assert np.abs(K.hermite_eval(x, y, s, xq) - (3.0 * xq - 2.0)).max() < 1e-12


def test_natural_spline_interpolates_smooth_data():
    x = np.linspace(0.0, np.pi, 60)
    y = np.sin(x)
    s = K.spline_slopes_natural(x, y)
    xq = np.linspace(0.5, np.pi - 0.5, 200)
    assert np.abs(K.hermite_eval(x, y, s, xq) - np.sin(xq)).max() < 1e-6


def test_fd_derivative_orders():
    def worst(n):
        x = np.linspace(0.0, 1.0, n)
        g = K.fd_derivative(np.sin(3.0 * x), x[1] - x[0])
        return np.abs(g[2:-2] - 3.0 * np.cos(3.0 * x[2:-2])).max()

    # fourth order in the interior: 16x per refinement
    ratio = worst(101) / worst(201)
    assert 12.0 < ratio < 20.0


def test_fd_derivative_exact_on_quadratic():
    x = np.linspace(-1.0, 1.0, 41)
    y = 2.0 * x**2 - x + 0.5
    g = K.fd_derivative(y, x[1] - x[0])
    assert np.abs(g - (4.0 * x - 1.0)).max() < 1e-12
