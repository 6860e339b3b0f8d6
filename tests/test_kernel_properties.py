"""Property tests of the tridiagonal solve and the natural-spline slopes."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

import bihj.kernels as K  # noqa: E402

EPS = np.finfo(float).eps
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
    # round-off of the divided differences, y / h, sets the scale
    assert np.abs(s - slope).max() <= 64 * EPS * np.abs(y).max() / gaps.min()
