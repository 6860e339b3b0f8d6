import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline, PchipInterpolator
from scipy.linalg import get_lapack_funcs, solve_banded
from scipy.signal import argrelextrema

from oracles import reference_fd_derivative

import bihj.kernels as K
from bihj import _lapack


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


def _singular_system():
    # the second row is zero; the row interchanges carry the zero pivot to
    # the last row
    return np.array([0.0, 1.0, 0.5]), np.array([2.0, 0.0, 3.0, 1.0]), np.array([1.0, 0.0, 2.0])


def test_singular_matrix_reports_lapacks_row(rng):
    dl, d, du = _singular_system()
    gtsv, gttrf = get_lapack_funcs(("gtsv", "gttrf"), (dl, d, du))
    rhs = rng.normal(size=4)
    row = gtsv(dl, d, du, rhs)[4]
    assert row == gttrf(dl, d, du)[5] == 4
    assert _lapack.gtsv(dl, d, du, rhs)[1] == _lapack.factor(dl, d, du).info == row
    message = f"^singular tridiagonal matrix: zero pivot in row {row}$"
    with pytest.raises(np.linalg.LinAlgError, match=message):
        K.tridiag_solve(dl, d, du, rhs)
    with pytest.raises(np.linalg.LinAlgError, match=message):
        K.make_tridiag_solver(dl, d, du)


def test_solves_leave_the_callers_arrays_unchanged(rng):
    for dtype in (float, complex):
        dl, d, du, _ = _tridiag(rng, 40, dtype)
        for rhs in (rng.normal(size=40), np.asfortranarray(rng.normal(size=(40, 3))),
                    rng.normal(size=(40, 2)), rng.normal(size=40) + 1j * rng.normal(size=40)):
            given = [dl, d, du, rhs]
            before = [a.copy() for a in given]
            K.tridiag_solve(dl, d, du, rhs)
            solve = K.make_tridiag_solver(dl, d, du)
            solve(rhs)
            solve(rhs)
            for a, copy in zip(given, before):
                assert a.tobytes() == copy.tobytes()


@pytest.fixture
def lapack_calls(monkeypatch):
    """The binding's routines replaced by one that records its calls."""
    calls = []
    stub = lambda *args: calls.append(args)  # noqa: E731
    monkeypatch.setattr(_lapack, "_ROUTINES", {dtype: (stub, stub, stub)
                                               for dtype in _lapack._ROUTINES})
    return calls


@pytest.mark.parametrize("dl, d, du", [
    (np.ones(3), np.ones(4), np.ones(2)),  # du one short
    (np.ones(4), np.ones(4), np.ones(3)),  # dl one long
    (np.ones(3), np.ones((4, 1)), np.ones(3)),  # d not 1-d
    (np.ones((3, 1)), np.ones(4), np.ones(3)),  # dl not 1-d
    (np.ones(0), np.ones(0), np.ones(0)),  # order 0
])
def test_binding_rejects_bad_diagonals_before_calling_lapack(lapack_calls, dl, d, du):
    with pytest.raises(ValueError):
        _lapack.gtsv(dl, d, du, np.ones(4))
    with pytest.raises(ValueError):
        _lapack.factor(dl, d, du)
    assert lapack_calls == []


@pytest.mark.parametrize("rhs", [np.ones(5), np.ones((3, 2)), np.ones((4, 2, 1)),
                                 np.ones(()), np.ones((4, 0))])
def test_binding_rejects_bad_rhs_before_calling_lapack(lapack_calls, rhs):
    diagonals = np.ones(3), np.full(4, 3.0), np.ones(3)
    with pytest.raises(ValueError):
        _lapack.gtsv(*diagonals, rhs)
    lu = _lapack.factor(*diagonals)
    with pytest.raises(ValueError):
        lu.solve(rhs)
    with pytest.raises(ValueError):
        lu.solve_in_place(np.asfortranarray(rhs, dtype=float))
    assert len(lapack_calls) == 1  # the factorisation


@pytest.mark.parametrize("x", [
    np.ones(4, dtype=complex),  # not the matrix's dtype
    np.ones((4, 2)),  # C-ordered
    np.ones(8)[::2],  # strided
    np.ones(4, dtype=">f8"),  # byte-swapped
    np.frombuffer(np.ones(4).tobytes()),  # read-only
    np.frombuffer(bytearray(33), offset=1, count=4),  # unaligned
])
def test_binding_rejects_a_bad_in_place_rhs_before_calling_lapack(lapack_calls, x):
    lu = _lapack.factor(np.ones(3), np.full(4, 3.0), np.ones(3))
    before = x.tobytes()
    with pytest.raises(ValueError, match="cannot solve in place"):
        lu.solve_in_place(x)
    assert len(lapack_calls) == 1 and x.tobytes() == before


def test_binding_solves_a_complex_rhs_on_a_real_matrix_by_parts(rng):
    dl, d, du, _ = _tridiag(rng, 30, float)
    lu = _lapack.factor(dl, d, du)
    rhs = rng.normal(size=(30, 2)) + 1j * rng.normal(size=(30, 2))
    x, info = lu.solve(rhs)
    re, im = lu.solve(rhs.real)[0], lu.solve(rhs.imag)[0]
    assert info == 0 and np.array_equal(x, re + 1j * im)


def test_binding_solves_in_place_as_on_a_copy(rng):
    dl, d, du, _ = _tridiag(rng, 30, complex)
    lu = _lapack.factor(dl, d, du)
    rhs = np.asfortranarray(rng.normal(size=(30, 3)) + 1j * rng.normal(size=(30, 3)))
    x, info = lu.solve(rhs)
    assert lu.solve_in_place(rhs) == info == 0
    assert x.tobytes() == rhs.tobytes()


def test_binding_factors_the_matrix_its_fill_writes(rng):
    # the zeroed bands a fill gets, and what gttrf makes of what it writes
    dl, d, du, _ = _tridiag(rng, 12, float)
    seen = []

    def fill(bands):
        seen.append(bands.copy())
        bands[0, :-1], bands[1], bands[2, :-1] = dl, d, du

    lu, want = _lapack.TridiagonalLU(12, float, fill), _lapack.factor(dl, d, du)
    assert seen[0].shape == (3, 12) and not seen[0].any()
    for name in ("dl", "d", "du", "du2", "ipiv"):
        assert getattr(lu, name).tobytes() == getattr(want, name).tobytes()
    with pytest.raises(ValueError):
        _lapack.TridiagonalLU(12, np.float32, fill)
    with pytest.raises(ValueError):
        _lapack.TridiagonalLU(0, float, fill)


def test_a_library_without_the_routines_gets_an_import_error():
    class NoRoutines:
        _name = "libother.so"

        def __getattr__(self, name):
            raise AttributeError(f"undefined symbol: {name}")

    with pytest.raises(ImportError, match="dgttrs of libother.so .*undefined symbol"):
        _lapack._routines(NoRoutines(), "d")


def test_other_numpy_builds_get_one_import_error(monkeypatch):
    config = {"Build Dependencies": {"lapack": {"name": "mkl", "version": "2024.0",
                                                "openblas configuration": None}}}
    monkeypatch.setattr(np, "show_config", lambda mode: config)
    with pytest.raises(ImportError, match="numpy .* has LAPACK mkl 2024.0"):
        _lapack._load_openblas()


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


def _own_columns(sp, xq, columns):
    """Values and slopes of each column j at xq from one own_column call,
    shape (2,) + xq.shape per column; the one column of y of shape (n,) is 0."""
    at = sp.locate(xq)
    return [sp.own_column(at, j, slope=True) for j in range(1 if columns is None else columns)]


@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("columns", [None, 1, 3])
def test_not_a_knot_spline_is_scipy_cubic_spline(rng, uniform, columns):
    for n in (4, 5, 9, 201):
        x = (np.linspace(-4.0, 4.0, n) if uniform
             else np.cumsum(rng.uniform(0.05, 1.0, n)) - 3.0)
        y = rng.normal(size=(n,) if columns is None else (n, columns))
        xq = np.r_[x, rng.uniform(x[0], x[-1], 100), x[0] - 0.7, x[-1] + 0.4, x[0] - 1e-9]
        sp = K.NotAKnotSpline(x, y)
        values = sp(xq)
        assert values.shape == xq.shape + y.shape[1:]
        # every column, called or gathered, is the one-column scipy spline
        for j, both in enumerate(_own_columns(sp, xq, columns)):
            yj, vj = (y, values) if columns is None else (y[:, j], values[:, j])
            assert _bits(vj) == _bits(CubicSpline(x, yj)(xq))
            for nu in (0, 1):
                assert _bits(both[nu]) == _bits(CubicSpline(x, yj)(xq, nu))
        assert np.shape(sp(x[2])) == y.shape[1:]


def test_not_a_knot_spline_keeps_the_sign_of_zero():
    # y(0) = -0.0 with negative slope and curvature: each term at the knot
    # is -0.0, and scipy's sum, which starts from +0.0, gives +0.0
    x = np.linspace(-1.0, 1.0, 9)
    y = -x - x**2 - x**3
    sp = K.NotAKnotSpline(x, y)
    assert _bits(sp(x)) == _bits(CubicSpline(x, y)(x, 0))
    both, = _own_columns(sp, x, None)
    assert _bits(both[0]) == _bits(CubicSpline(x, y)(x, 0))
    assert _bits(both[1]) == _bits(CubicSpline(x, y)(x, 1))


@pytest.mark.parametrize("columns", [None, 3])
def test_value_and_slope_is_both_calls(rng, columns):
    # one interval search and one gather give the bits of scipy's value and
    # first derivative of each column, sign of zero included, and the bits
    # of calling the spline; queries lie at the knots, inside and beyond
    # both ends, as (m,) arrays and as scalars
    for n, uniform in ((4, True), (9, False), (201, True), (201, False)):
        x = (np.linspace(-4.0, 4.0, n) if uniform
             else np.cumsum(rng.uniform(0.05, 1.0, n)) - 3.0)
        for y in (rng.normal(size=(n,) if columns is None else (n, columns)),
                  -x - x**2 - x**3 if columns is None else np.stack([-x - x**2 - x**3] * 3, 1)):
            sp = K.NotAKnotSpline(x, y)
            xq = np.r_[x, rng.uniform(x[0], x[-1], 50), x[0] - 0.7, x[-1] + 0.4, x[0] - 1e-9]
            values = sp(xq).reshape(xq.shape[0], -1)
            for j, both in enumerate(_own_columns(sp, xq, columns)):
                scipy = CubicSpline(x, y if columns is None else y[:, j])
                assert both.shape == (2,) + xq.shape
                assert _bits(both[0]) == _bits(scipy(xq)) == _bits(values[:, j])
                assert _bits(both[1]) == _bits(scipy(xq, 1))
                for p in (2, n + 3):
                    at = _own_columns(sp, xq[p], columns)[j]
                    assert _bits(at) == _bits(np.array([scipy(xq[p]), scipy(xq[p], 1)]))
                    assert _bits(np.reshape(sp(xq[p]), -1)[j]) == _bits(scipy(xq[p]))
            assert np.shape(sp(xq[2])) == y.shape[1:]


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
        # integrated in pieces, each starting at the last point of the one before
        at_once = K.cumulative_trapezoid(y, t)
        for cut in range(1, shape[0]):
            head = K.cumulative_trapezoid(y[:cut], t[:cut])
            tail = K.cumulative_trapezoid(y[cut - 1:], t[cut - 1:], head[-1])
            assert _bits(np.concatenate((head, tail[1:]))) == _bits(at_once)
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


def test_fd_derivative_edges_are_the_row_formulas(rng):
    # every element of the paired edge rows has the bits of its own formula,
    # with signed zeros, infinities and NaNs among the values, on 1d and 2d
    # arrays in either memory order and down to the 5 points of the stencil
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-308, -1e308, 1.0, -3.0])
    with np.errstate(all="ignore"):
        for trial in range(600):
            n = 5 + trial % 4
            shape = (n,) if trial % 3 == 0 else (n, 1 + trial % 3)
            y = rng.choice(special, size=shape) if trial % 2 else rng.normal(size=shape)
            if trial % 5 == 0:
                y = np.asfortranarray(y)
            h = (0.04, 1e-3, -0.5)[trial % 3]
            got, want = K.fd_derivative(y, h), reference_fd_derivative(y, h)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes() or (
                np.array_equal(got, want, equal_nan=True)
                and np.array_equal(np.signbit(got), np.signbit(want)))
