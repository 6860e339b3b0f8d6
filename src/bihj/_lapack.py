"""ctypes binding to the tridiagonal LAPACK routines of numpy's own OpenBLAS.

numpy's Linux wheels load ``libscipy_openblas64_`` from ``numpy.libs`` for
their own linear algebra; that library also exports LAPACK, under the symbol
names ``scipy_<routine>_64_`` with 64-bit integers (ILP64).  This module
calls ``dgtsv``/``zgtsv``, ``dgttrf``/``zgttrf`` and ``dgttrs``/``zgttrs``
there, so the tridiagonal solves cost no library beyond numpy.  Any other
numpy build raises one ``ImportError`` that names the LAPACK it has.

``gtsv`` solves a system once; ``factor`` makes a ``TridiagonalLU`` (gttrf),
which solves with the factors as often as asked (gttrs).  Real inputs use
the ``d`` routines and complex ones the ``z`` routines.  A matrix of order n
is held as ``bands``, an array of shape (3, n) whose rows are dl, d and du
(dl and du in their first n - 1 entries): a caller that builds a matrix for
one factorisation writes it there, and gttrf factors it where it lies.
LAPACK overwrites what it is given, so ``gtsv``, ``factor`` and
``TridiagonalLU.solve`` work on copies made here: the caller's arrays stay
unchanged.  Shapes, dtypes and layouts are checked before any pointer is
passed.  Pointers are passed as integer addresses, the cheapest argument
ctypes converts; so every call names each buffer it points into, and holds
it, until LAPACK returns.
The results are those of SciPy's f2py wrappers
(``scipy.linalg.get_lapack_funcs``): the same routines on the same data,
with right-hand sides of shape (n,) or (n, k) and solutions of that shape,
Fortran-ordered, and the same ``info`` codes.
"""
import ctypes
from ctypes import addressof, c_char, c_char_p, c_int64, c_size_t, c_void_p
from pathlib import Path

import numpy as np


def _load_openblas():
    """numpy's scipy-openblas64 library, or ImportError naming what was found."""
    lapack = np.show_config(mode="dicts").get("Build Dependencies", {}).get("lapack", {})
    config = str(lapack.get("openblas configuration"))
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    found = sorted(p.name for p in libs.glob("libscipy_openblas64_*.so"))
    if lapack.get("name") != "scipy-openblas" or "USE64BITINT" not in config or len(found) != 1:
        raise ImportError(
            f"bihj calls LAPACK through numpy's scipy-openblas build with 64-bit integers, "
            f"one libscipy_openblas64_*.so in {libs}; numpy {np.__version__} has LAPACK "
            f"{lapack.get('name')} {lapack.get('version')} ({config}) and {found} there")
    return ctypes.CDLL(str(libs / found[0]))


def _routines(lib, prefix):
    """gtsv, gttrf and gttrs of one type prefix, with their C signatures:
    every argument is an address, of a 64-bit integer or of an array, except
    gttrs' first, TRANS, and its last, gfortran's hidden length of TRANS.
    (The addresses of integers are declared c_void_p, like the arrays':
    given as Python ints, ctypes converts those fastest, and the stepper
    pays that conversion three times a step.)  A library without one of the
    symbols raises ImportError naming it."""
    try:
        gtsv = getattr(lib, f"scipy_{prefix}gtsv_64_")  # N NRHS DL D DU B LDB INFO
        gttrf = getattr(lib, f"scipy_{prefix}gttrf_64_")  # N DL D DU DU2 IPIV INFO
        gttrs = getattr(lib, f"scipy_{prefix}gttrs_64_")  # TRANS N NRHS DL D DU DU2 IPIV B LDB INFO
    except AttributeError as err:
        raise ImportError(f"bihj needs the LAPACK routines {prefix}gtsv, {prefix}gttrf and "
                          f"{prefix}gttrs of {lib._name} (numpy {np.__version__}): {err}") from err
    gtsv.argtypes = [c_void_p] * 8
    gttrf.argtypes = [c_void_p] * 7
    gttrs.argtypes = [c_char_p] + [c_void_p] * 10 + [c_size_t]
    for routine in (gtsv, gttrf, gttrs):
        routine.restype = None
    return gtsv, gttrf, gttrs


_LIB = _load_openblas()
_REAL, _COMPLEX = np.dtype(float), np.dtype(complex)
_ROUTINES = {_REAL: _routines(_LIB, "d"), _COMPLEX: _routines(_LIB, "z")}
_TRANS = b"N"  # solve A x = b, not the transpose
_CHAR_LEN = 1  # the hidden length of _TRANS


def _diagonals(dl, d, du):
    """The diagonals as arrays, n, and the dtype of the routines: d of shape
    (n,) with n >= 1, dl and du of shape (n - 1,)."""
    dl, d, du = np.asarray(dl), np.asarray(d), np.asarray(du)
    if d.ndim != 1 or dl.ndim != 1 or du.ndim != 1:
        raise ValueError(f"the diagonals must be 1-d, got ndim {dl.ndim}, {d.ndim}, {du.ndim}")
    n = d.shape[0]
    if n < 1 or dl.shape[0] != n - 1 or du.shape[0] != n - 1:
        raise ValueError(f"diagonal lengths {dl.shape[0]}, {n}, {du.shape[0]} do not make a "
                         f"tridiagonal matrix of order n >= 1")
    complex_ = "c" in (dl.dtype.kind, d.dtype.kind, du.dtype.kind)
    return dl, d, du, n, _COMPLEX if complex_ else _REAL


def _copy_into(dl, d, du):
    """A fill of bands (see TridiagonalLU) that copies in the diagonals."""
    def fill(bands):
        bands[0, :-1] = dl
        bands[1] = d
        bands[2, :-1] = du
    return fill


def _rhs(b, n, dtype):
    """A Fortran-ordered copy of b, of shape (n,) or (n, k), as dtype."""
    if b.ndim not in (1, 2) or b.shape[0] != n or not b.size:
        raise ValueError(f"right-hand side of shape {b.shape} for a matrix of order {n}")
    return b.astype(dtype, order="F")  # always a copy


def _address(x):
    """The address of x, a writable Fortran-contiguous array (x.T is then
    C-contiguous, as a buffer must be), valid while x is referenced."""
    return addressof(c_char.from_buffer(x.T))


def gtsv(dl, d, du, b):
    """Solve the tridiagonal system with diagonals dl, d, du for b of shape
    (n,) or (n, k) by Gaussian elimination with partial pivoting; returns
    (x, info), with info > 0 the row of a zero pivot.  Complex if the
    matrix or b is."""
    dl, d, du, n, dtype = _diagonals(dl, d, du)
    b = np.asarray(b)
    if b.dtype.kind == "c":
        dtype = _COMPLEX
    x = _rhs(b, n, dtype)
    bands = np.empty(3 * n, dtype)
    _copy_into(dl, d, du)(bands.reshape(3, n))
    # the buffers, each named here until LAPACK returns
    n_, nrhs, info = c_int64(n), c_int64(1 if x.ndim == 1 else x.shape[1]), c_int64()
    at, row = _address(bands), n * dtype.itemsize
    _ROUTINES[dtype][0](addressof(n_), addressof(nrhs), at, at + row, at + 2 * row,
                        _address(x), addressof(n_), addressof(info))
    return x, info.value


def factor(dl, d, du):
    """The TridiagonalLU of the matrix with diagonals dl, d, du, factored
    from a copy of them."""
    dl, d, du, n, dtype = _diagonals(dl, d, du)
    return TridiagonalLU(n, dtype, _copy_into(dl, d, du))


class TridiagonalLU:
    """The LU factorisation with partial pivoting (gttrf) of the tridiagonal
    matrix of order n >= 1 and dtype (float or complex) that ``fill(bands)``
    writes into ``bands``: an array of shape (3, n), zeroed, whose rows hold
    dl, d and du (dl and du in their first n - 1 entries).  It is held for
    repeated gttrs solves.  ``info`` is gttrf's code; ``dl``, ``d``,
    ``du``, ``du2`` and ``ipiv`` are the factors as gttrf writes them, views
    of the one buffer that holds them all."""

    def __init__(self, n, dtype, fill):
        dtype = np.dtype(dtype)
        if dtype not in _ROUTINES or n < 1:
            raise ValueError(f"no tridiagonal LU of order {n} and dtype {dtype}")
        self.n, self.dtype = n, dtype
        # dl | d | du | du2 | ipiv, n entries each; ipiv's n 8-byte integers
        # (LAPACK INTEGERs are 64-bit in this build) in n or n / 2 entries
        row = n * dtype.itemsize
        self._buf = np.zeros(4 * n + -(-8 * n // dtype.itemsize), dtype)
        fill(self._buf[:3 * n].reshape(3, n))
        # the addresses of N and of the factors dl, d, du, du2 and ipiv, for
        # gttrf and every gttrs, valid while self holds the buffers
        self._order = c_int64(n)
        self._n = addressof(self._order)
        at = _address(self._buf)
        self._factors = (at, at + row, at + 2 * row, at + 3 * row, at + 4 * row)
        _, gttrf, self._gttrs = _ROUTINES[dtype]
        info = c_int64()
        gttrf(self._n, *self._factors, addressof(info))
        self.info = info.value

    @property
    def dl(self):
        return self._buf[:self.n - 1]

    @property
    def d(self):
        return self._buf[self.n:2 * self.n]

    @property
    def du(self):
        return self._buf[2 * self.n:3 * self.n - 1]

    @property
    def du2(self):
        return self._buf[3 * self.n:4 * self.n - 2]

    @property
    def ipiv(self):
        return self._buf[4 * self.n:].view(np.int64)[:self.n]

    def solve(self, b):
        """gttrs on a copy of b of shape (n,) or (n, k): (x, info).  A real b
        on a complex matrix is solved as complex, and a complex b on a real
        matrix as its real and imaginary parts."""
        b = np.asarray(b)
        if b.dtype.kind == "c" and self.dtype.kind != "c":
            (re, info), (im, _) = self.solve(b.real), self.solve(b.imag)
            return re + 1j * im, info
        x = _rhs(b, self.n, self.dtype)
        return x, self.solve_in_place(x)

    def solve_in_place(self, x):
        """gttrs on x, which it overwrites with the solution: a writable,
        aligned, Fortran-contiguous array of shape (n,) or (n, k) and the
        matrix's dtype.  Returns info."""
        if (x.dtype != self.dtype or x.ndim not in (1, 2) or x.shape[0] != self.n
                or not x.size or not (x.flags.f_contiguous and x.flags.writeable
                                      and x.flags.aligned)):
            raise ValueError(f"cannot solve in place in a {x.dtype} array of shape {x.shape}: "
                             f"a {self.dtype} matrix of order {self.n} needs a writable, "
                             f"aligned, Fortran-contiguous one")
        nrhs, info = c_int64(1 if x.ndim == 1 else x.shape[1]), c_int64()
        self._gttrs(_TRANS, self._n, addressof(nrhs), *self._factors, _address(x), self._n,
                    addressof(info), _CHAR_LEN)
        return info.value
