"""Hot numeric kernels, one vectorised numpy implementation each.

Tridiagonal systems go straight to LAPACK (gtsv, or one gttrf reused by
gttrs solves); piecewise cubic Hermite evaluation and its monotone inversion
share one interval locator and one cubic formula.  The not-a-knot spline
solves its slopes through the same gtsv and evaluates from per-interval
polynomial coefficients.  Spline slopes, splines and Hermite evaluation take
several value columns on shared knots at once; ``NaturalSplines`` takes
several knot sets at once, as one block-diagonal system factored once.
"""
import numpy as np
from scipy.linalg import get_lapack_funcs

# Newton/bisection steps per target in invert_monotone: bisection alone halves
# the bracket each step, so this bound reaches double precision in s in [0, 1].
_MAX_INVERT_STEPS = 64


# ---------- tridiagonal solves ----------

def _check_info(info, routine):
    """Raise on a nonzero LAPACK info code."""
    if info > 0:
        raise np.linalg.LinAlgError(f"singular tridiagonal matrix: zero pivot in row {info}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")


def tridiag_solve(dl, d, du, rhs):
    """Solve the tridiagonal system for rhs of shape (n,) or (n, k); dl and du
    have length n-1.  LAPACK gtsv: elimination with partial pivoting."""
    gtsv, = get_lapack_funcs(("gtsv",), (dl, d, du, rhs))
    x, info = gtsv(dl, d, du, rhs)[3:]
    _check_info(info, "gtsv")
    return x


def make_tridiag_solver(dl, d, du):
    """Repeated solver for a fixed tridiagonal matrix: one LU factorisation
    with partial pivoting (LAPACK gttrf), then one gttrs solve per call."""
    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (dl, d, du))
    dl, d, du, du2, ipiv, info = gttrf(dl, d, du)
    _check_info(info, "gttrf")

    def solve(rhs):
        if np.iscomplexobj(rhs) and not np.iscomplexobj(d):
            return solve(rhs.real) + 1j * solve(rhs.imag)
        return gttrs(dl, d, du, du2, ipiv, rhs)[0]

    return solve


# ---------- piecewise cubic Hermite evaluation ----------

def _locate(knots, points):
    """Index i of the interval [knots[i], knots[i+1]] holding each point,
    clipped to [0, n-2] so points beyond the ends use the end intervals."""
    i = np.searchsorted(knots, points, side="right") - 1
    return np.minimum(np.maximum(i, 0), knots.shape[0] - 2)


def _basis(s):
    """The Hermite basis cubics h00, h10, h01, h11 at the local coordinate s
    in [0, 1] of an interval."""
    s2 = s * s
    s3 = s2 * s
    return (2.0 * s3 - 3.0 * s2 + 1.0, s3 - 2.0 * s2 + s, -2.0 * s3 + 3.0 * s2, s3 - s2)


def _cubic(basis, h, y0, y1, d0, d1):
    """Hermite cubic with end values y0, y1 and end slopes d0, d1 over an
    interval of width h, from its basis at the local coordinate."""
    h00, h10, h01, h11 = basis
    return h00 * y0 + h * (h10 * d0 + h11 * d1) + h01 * y1


def hermite_eval(xk, yk, dk, xq):
    """Evaluate the C1 piecewise cubic with knot values yk and slopes dk.

    yk and dk of shape (n,) or (n, k); the k columns share the knots and the
    one interval search, and the result has shape (m,) or (m, k).
    """
    i = _locate(xk, xq)
    h = xk[i + 1] - xk[i]
    basis = _basis((xq - xk[i]) / h)
    if np.ndim(yk) == 2:
        h, basis = h[:, None], tuple(b[:, None] for b in basis)
    return _cubic(basis, h, yk[i], yk[i + 1], dk[i], dk[i + 1])


# ---------- inversion of a monotone increasing piecewise cubic ----------

def invert_monotone(xk, yk, dk, targets, tol):
    """Solve H(x) = target per entry for the increasing piecewise cubic H.

    Each target is placed in the knot interval whose values enclose it.  With
    PCHIP slopes every interval cubic is monotone (Fritsch & Carlson, SIAM J.
    Numer. Anal. 17:238, 1980), so the root there is unique and no global
    search is needed.  Newton steps on that one cubic start from the linear
    guess; a step that leaves the bracket [lo, hi] known to hold the root is
    replaced by bisection.  A target stops once |H(x) - target| <= tol or its
    bracket has closed, which maps targets beyond the end values to the end
    knots.
    """
    targets = np.asarray(targets, dtype=float)
    i = _locate(yk, targets)
    h = xk[i + 1] - xk[i]
    y0, y1, d0, d1 = yk[i], yk[i + 1], dk[i], dk[i + 1]
    dy = y1 - y0
    s = np.minimum(np.maximum((targets - y0) / np.where(dy > 0.0, dy, 1.0), 0.0), 1.0)
    lo = np.zeros_like(s)
    hi = np.ones_like(s)
    for _ in range(_MAX_INVERT_STEPS):
        f = _cubic(_basis(s), h, y0, y1, d0, d1) - targets
        lo = np.where(f < 0.0, s, lo)
        hi = np.where(f > 0.0, s, hi)
        open_ = (np.abs(f) > tol) & (lo < hi)
        if not open_.any():
            break
        # dH/ds of the same cubic
        df = 6.0 * s * (1.0 - s) * dy + h * ((1.0 - s) * (1.0 - 3.0 * s) * d0
                                             + s * (3.0 * s - 2.0) * d1)
        newton = s - f / np.where(df > 0.0, df, 1.0)
        inside = (df > 0.0) & (newton >= lo) & (newton <= hi)
        s = np.where(open_, np.where(inside, newton, 0.5 * (lo + hi)), s)
    return (1.0 - s) * xk[i] + s * xk[i + 1]


# ---------- interpolation slope builders ----------

def pchip_slopes(x, y):
    """Monotonicity preserving slopes (weighted harmonic mean construction)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    h = np.diff(x)
    delta = np.diff(y) / h
    n = x.shape[0]
    m = np.zeros(n)
    if n == 2:
        m[:] = delta[0]
        return m
    d0, d1 = delta[:-1], delta[1:]
    keep = (np.sign(d0) * np.sign(d1)) > 0
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        hm = (w1 + w2) / (w1 / d0 + w2 / d1)
    m[1:-1] = np.where(keep, hm, 0.0)
    m[0] = _pchip_edge(h[0], h[1], delta[0], delta[1])
    m[-1] = _pchip_edge(h[-1], h[-2], delta[-1], delta[-2])
    return m


def _pchip_edge(h0, h1, d0, d1):
    d = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
    if np.sign(d) != np.sign(d0):
        return 0.0
    if np.sign(d0) != np.sign(d1) and abs(d) > 3.0 * abs(d0):
        return 3.0 * d0
    return d


class _NaturalSystem:
    """The natural-spline slope systems (zero end curvature) of k knot sets,
    the columns of x of shape (n, k), as one block-diagonal tridiagonal
    system of size k n: block j holds column j, and the coupling across each
    seam is zero."""

    def __init__(self, x):
        self.h = x[1:] - x[:-1]
        self.inv_lo = 1.0 / self.h[:-1]
        self.inv_hi = 1.0 / self.h[1:]

    def matrix(self):
        """The diagonals dl, d, du of the block-diagonal matrix."""
        k, n = self.h.shape[1], self.h.shape[0] + 1
        d = np.empty((k, n))
        dl = np.zeros((k, n))  # dl[j, i] is entry (i + 1, i) of block j; 0 at the seam
        du = np.zeros((k, n))  # du[j, i] is entry (i, i + 1) of block j; 0 at the seam
        d[:, 0] = 2.0
        du[:, 0] = 1.0
        d[:, -1] = 2.0
        dl[:, -2] = 1.0
        dl[:, :-2] = self.inv_lo.T
        du[:, 1:-1] = self.inv_hi.T
        d[:, 1:-1] = 2.0 * (self.inv_lo + self.inv_hi).T
        return dl.ravel()[:-1], d.ravel(), du.ravel()[:-1]

    def rhs(self, y):
        """Right-hand side of shape (k n, c), Fortran-ordered, for the c sets
        of knot values y of shape (c, n, k)."""
        c, n, k = y.shape
        out = np.empty((c, k, n))
        rhs = out.transpose(0, 2, 1)  # (c, n, k) view
        delta = (y[:, 1:] - y[:, :-1]) / self.h
        rhs[:, 0] = 3.0 * delta[:, 0]
        rhs[:, -1] = 3.0 * delta[:, -1]
        rhs[:, 1:-1] = 3.0 * (delta[:, :-1] * self.inv_lo + delta[:, 1:] * self.inv_hi)
        return out.reshape(c, k * n).T


def spline_slopes_natural(x, y):
    """Knot slopes of the natural cubic spline (zero end curvature).

    Exact for linear data.  y of shape (n,) or (n, k): the columns share the
    knots, so one tridiagonal solve gives the slopes of all of them.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[0] == 2:
        delta = (y[1] - y[0]) / (x[1] - x[0])
        return np.array([delta, delta])
    system = _NaturalSystem(x[:, None])
    columns = y.reshape(y.shape[0], -1).T[:, :, None]  # value sets on one knot set
    return tridiag_solve(*system.matrix(), system.rhs(columns)).reshape(y.shape)


class NaturalSplines:
    """Natural cubic splines on k knot sets, the columns of x of shape (n, k),
    each evaluated at the points in the same column of xq, shape (m, k).
    Points beyond the ends use the end intervals.

    What depends only on the knots and the points is made once: the k slope
    systems as one block-diagonal system of size k n, factored once
    (``make_tridiag_solver``), and each point's interval and Hermite basis.
    A call on c sets of knot values then takes one solve, one gather and one
    basis combination.  Every column has the bits of ``spline_slopes_natural``
    and ``hermite_eval`` on its own knots: the seam's zero entries keep the
    blocks apart, and gttrf with gttrs makes the operations of gtsv, row
    interchanges included.  The one exception is the sign of a zero: where
    the values hold -0.0, a zero slope may differ from gtsv's in sign.
    """

    def __init__(self, x, xq):
        x = np.ascontiguousarray(x, dtype=float)
        xq = np.asarray(xq, dtype=float)
        n, k = x.shape
        self._system = _NaturalSystem(x)
        self._solve = make_tridiag_solver(*self._system.matrix())
        i = np.stack([_locate(x[:, j], xq[:, j]) for j in range(k)], axis=1)
        # the knots i and i + 1 of column j: entries i k + j and (i + 1) k + j
        # of the flattened values, rows i + j n and i + 1 + j n of the system
        at = i * k + np.arange(k)
        row = i + np.arange(0, n * k, n)
        self._values_at = (at, at + k)
        self._rows_at = (row, row + 1)
        x_lo = x.take(at)
        self._h = x.take(at + k) - x_lo
        self._basis = _basis((xq - x_lo) / self._h)

    def slopes(self, y):
        """Knot slopes, shaped like the knot values y of shape (c, n, k)."""
        c, n, k = y.shape
        return self._solve(self._system.rhs(y)).T.reshape(c, k, n).transpose(0, 2, 1)

    def __call__(self, y):
        """Values of shape (c, m, k) at the points, for the c sets of knot
        values y of shape (c, n, k), each set shaped like the knots."""
        c, n, k = y.shape
        dk = self._solve(self._system.rhs(y)).T  # (c, k n)
        yk = y.reshape(c, n * k)
        (v0, v1), (r0, r1) = self._values_at, self._rows_at
        return _cubic(self._basis, self._h, yk.take(v0, axis=1), yk.take(v1, axis=1),
                      dk.take(r0, axis=1), dk.take(r1, axis=1))


# ---------- not-a-knot cubic spline ----------

class NotAKnotSpline:
    """C2 cubic spline through y on the increasing knots x, with not-a-knot
    ends: the third derivative is continuous across x[1] and x[-2] (de Boor,
    A Practical Guide to Splines, ch. IV).

    y of shape (n,) or (n, k): the k columns share the knots, the one slope
    solve and the one interval search per query point.  Calling the spline
    at points of shape (m,) gives values of shape (m,) or (m, k), and
    ``value_and_slope`` gives values and first derivatives from one search;
    points beyond the ends use the end intervals.
    The slope system, the coefficients and the order of every sum are those
    of SciPy's CubicSpline, so the results are bit-identical to it.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n = x.shape[0]
        if n < 4:
            raise ValueError("a not-a-knot spline needs at least 4 knots")
        h = np.diff(x)
        hr = h.reshape((-1,) + (1,) * (y.ndim - 1))  # broadcasts over columns
        delta = np.diff(y, axis=0) / hr
        d = np.empty(n)
        dl = np.empty(n - 1)
        du = np.empty(n - 1)
        rhs = np.empty(y.shape, order="F")
        d[1:-1] = 2 * (h[:-1] + h[1:])
        du[1:] = h[:-1]
        dl[:-1] = h[1:]
        rhs[1:-1] = 3 * (hr[1:] * delta[:-1] + hr[:-1] * delta[1:])
        # end rows: the not-a-knot condition with the second row eliminated.
        # The knot factors are scalars, so that each column gets the bits of
        # a one-column spline (a scalar's ** 2 may round unlike an array's).
        w = x[2] - x[0]
        d[0] = h[1]
        du[0] = w
        rhs[0] = ((h[0] + 2 * w) * h[1] * delta[0] + h[0] ** 2 * delta[1]) / w
        w = x[-1] - x[-3]
        d[-1] = h[-2]
        dl[-1] = w
        rhs[-1] = (h[-1] ** 2 * delta[-2] + (2 * w + h[-1]) * h[-2] * delta[-1]) / w
        m = tridiag_solve(dl, d, du, rhs)
        # y(x) = c3 + c2 s + c1 s^2 + c0 s^3 with s = x - x[i] on interval i.
        # SciPy's sums start from +0.0, so they never end at -0.0; adding
        # +0.0 to the leading terms c3 and c2 once here does the same.
        t = (m[:-1] + m[1:] - 2 * delta) / hr
        self.x = x
        self._inner = x[1:-1]
        self._c = np.stack((t / hr, (delta - m[:-1]) / hr - t, m[:-1] + 0.0, y[:-1] + 0.0))

    def _terms(self, xq):
        """Local coordinate, its square and the four coefficients at xq."""
        xq = np.asarray(xq, dtype=float)
        i = self._inner.searchsorted(xq, side="right")
        s = xq - self.x.take(i)
        if self._c.ndim == 3:
            # a full (m, k) array: numpy broadcasts a (m, 1) one more slowly
            s = s[..., None].repeat(self._c.shape[2], axis=-1)
        return (s, s * s) + tuple(self._c.take(i, axis=1))

    @staticmethod
    def _value(s, s2, c0, c1, c2, c3):
        return ((c3 + c2 * s) + c1 * s2) + c0 * (s2 * s)

    @staticmethod
    def _slope(s, s2, c0, c1, c2, c3):
        return (c2 + (c1 * s) * 2.0) + (c0 * s2) * 3.0

    def __call__(self, xq):
        return self._value(*self._terms(xq))

    def value_and_slope(self, xq):
        """Values and first derivatives at xq from one interval search,
        stacked along a new first axis; the values are the bits of self(xq)."""
        terms = self._terms(xq)
        out = np.empty((2,) + terms[2].shape)
        out[0] = self._value(*terms)
        out[1] = self._slope(*terms)
        return out


# ---------- sampled data: running integrals and local extrema ----------

def cumulative_trapezoid(y, t):
    """Trapezoid-rule integrals of y over t from t[0] to every t[i], zero in
    the first row; y of shape (n,) or (n, k) is integrated along its rows."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    dt = np.diff(t).reshape((-1,) + (1,) * (y.ndim - 1))
    np.cumsum(dt * (y[1:] + y[:-1]) / 2.0, axis=0, out=out[1:])
    return out


def strict_extrema(y):
    """Indices of the interior points of y above both neighbours, followed
    by those below both neighbours."""
    inner = y[1:-1]
    maxima = np.flatnonzero((inner > y[:-2]) & (inner > y[2:]))
    minima = np.flatnonzero((inner < y[:-2]) & (inner < y[2:]))
    return np.concatenate([maxima, minima]) + 1


# ---------- finite differences on a uniform grid ----------

def fd_derivative(y, h):
    """First derivative: fourth order inside, second order at the edges.

    y of shape (n,) or (n, k) is differentiated along its rows.
    """
    y = np.asarray(y, dtype=float)
    if y.shape[0] < 5:
        raise ValueError("fd_derivative needs at least 5 points")
    g = np.empty_like(y)
    g[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)
    g[1] = (y[2] - y[0]) / (2.0 * h)
    g[-2] = (y[-1] - y[-3]) / (2.0 * h)
    g[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * h)
    g[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * h)
    return g
