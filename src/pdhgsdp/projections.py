"""Projection onto the PSD cone, exact and rank-truncated.

The exact projection keeps only the positive eigenpairs, so it asks LAPACK's
``dsyevx`` for those alone instead of for the full decomposition. The routine
is reached through the LAPACK that numpy itself links (scipy-openblas in the
numpy wheels), so no further dependency is loaded. Where numpy's build does
not export it (MKL, conda or Windows builds), the projection clips a full
``np.linalg.eigh``; that path is also the reference the tests compare against.

``proj_psd_packed`` is the one routine that calls the eigensolvers. It
projects, in place, a matrix packed by its diagonal blocks (the solver's
iterate) along the plan its :class:`Layout` made once: ``dsyevx`` on each
block's slice, in its run's own workspace, or one batched ``eigh`` per run
of equal small blocks. ``proj_psd_dense`` projects an n-by-n array as one
such block, on a copy.
"""

from __future__ import annotations

import ctypes
import math

import numpy as np

from .linalg import SymMat

# dsyevx's names in numpy's LAPACK: numpy >= 2 wheels prefix scipy-openblas's
# ILP64 symbols with ``scipy_``, numpy 1.x wheels export them bare.
_DSYEVX_SYMBOLS = ("scipy_dsyevx_64_", "dsyevx_64_")

# Bisection pins each eigenvalue to 2*DLAMCH('S'), the accuracy LAPACK
# recommends. At the default (0, which dsyevx widens to eps*||T||), tf stalls
# on max-cut instances with a degenerate dual: its stepsize grows past 1e15,
# so the projection input is mostly roundoff, and the coarser eigenvalues then
# keep it from reaching the stopping rule under permuted rows.
_ABSTOL = 2.0 * np.finfo(float).tiny


def _load_dsyevx():
    """The ILP64 ``dsyevx`` of numpy's LAPACK, or None where it exports none."""
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError, AttributeError):
        return None
    for name in _DSYEVX_SYMBOLS:
        fn = getattr(lib, name, None)
        if fn is not None:
            # 20 Fortran arguments, all by reference, then the hidden lengths
            # of the three character arguments
            fn.argtypes = [ctypes.c_void_p] * 20 + [ctypes.c_size_t] * 3
            fn.restype = None
            return fn
    return None


_DSYEVX = _load_dsyevx()

# A run of two or more equal blocks below this size is projected by one
# batched np.linalg.eigh; every other block by dsyevx. Measured on the
# projection inputs of bpdr solves of max-cut graphs made of 1-8 equal
# components (2-core Xeon, BLAS on one thread): for runs of 2, 4 and 8
# blocks the batched call is faster below k = 8, 10 and 11 (2-4x at k = 2),
# and for a single block dsyevx is faster at every size (1.2x at k = 2,
# 1.8x at k = 16).
_BATCH_BELOW = 10


class _Workspace:
    """dsyevx's buffers and arguments for one dimension n, except the address
    of the matrix, which each call passes. The arguments hold raw addresses,
    so the buffers must live as long as they do; dsyevx writes into them
    without the interpreter lock, so each belongs to one plan."""

    def __init__(self, n: int):
        self.w = np.empty(n)
        self.z = np.empty((n, n), order="F")
        self.m = np.zeros(1, dtype=np.int64)
        self.info = np.zeros(1, dtype=np.int64)
        # n, lda, il, iu, ldz, lwork (il and iu are not read for RANGE='V')
        ints = np.array([n, n, 1, n, n, 8 * n], dtype=np.int64)
        # vl, vu, abstol: the half-open range (0, +inf]
        reals = np.array([0.0, np.inf, _ABSTOL])
        chars = np.frombuffer(b"VVL", dtype=np.uint8).copy()  # jobz, range, uplo
        work = np.empty(8 * n)
        iwork = np.empty(5 * n, dtype=np.int64)
        ifail = np.empty(n, dtype=np.int64)
        self._keep = (ints, reals, chars, work, iwork, ifail)
        i, r, c = ints.ctypes.data, reals.ctypes.data, chars.ctypes.data
        # the arguments before and after the matrix's address
        self.head = (c, c + 1, c + 2, i)
        self.tail = (i + 8, r, r + 8, i + 16, i + 24, r + 16, self.m.ctypes.data,
                     self.w.ctypes.data, self.z.ctypes.data, i + 32, work.ctypes.data,
                     i + 40, iwork.ctypes.data, ifail.ctypes.data, self.info.ctypes.data,
                     1, 1, 1)


def _run(k: int, count: int) -> tuple:
    """(k, count, ws) for a run of ``count`` blocks of k indices: ws is its
    dsyevx workspace, or None where one batched eigh takes the whole run."""
    batched = _DSYEVX is None or (count > 1 and k < _BATCH_BELOW)
    return k, count, None if batched else _Workspace(k)


class Layout:
    """Where a packed vector keeps a symmetric n-by-n matrix that is zero off
    ``blocks``, which partition range(n). Each block of two or more indices
    is stored as its full square, row-major, the largest blocks first and
    blocks of equal size next to each other; the diagonal entries of the
    isolated indices come last. Entry p holds the row-major flat entry
    ``index[p]``, and ``runs``, the plan ``proj_psd_packed`` walks, holds
    one (size, count, workspace) per run of equal blocks."""

    def __init__(self, blocks: list[np.ndarray], n: int):
        self.n = n
        # sorted is stable, so blocks of equal size keep their order
        squares = sorted((b for b in blocks if b.size > 1), key=len, reverse=True)
        lone = np.array([b[0] for b in blocks if b.size == 1], dtype=np.intp)
        self.index = np.concatenate([np.add.outer(b * n, b).ravel() for b in squares]
                                    + [lone * (n + 1)])
        sizes = [b.size for b in squares]
        self.runs = [_run(k, sizes.count(k)) for k in dict.fromkeys(sizes)]

    def pack(self, mat: np.ndarray) -> np.ndarray:
        return mat.ravel()[self.index]

    def unpack(self, x: np.ndarray) -> np.ndarray:
        """The n-by-n matrix of a packed vector, as a new array."""
        out = np.zeros(self.n * self.n)
        out[self.index] = x
        return out.reshape(self.n, self.n)


def proj_psd(m: SymMat) -> SymMat:
    """Frobenius-nearest PSD matrix: clip negative eigenvalues to zero."""
    return SymMat(proj_psd_dense(m.dense))


def proj_psd_dense(mat: np.ndarray) -> np.ndarray:
    """Frobenius-nearest PSD matrix of a symmetric array, read from its lower
    triangle. Raises ``np.linalg.LinAlgError`` on a non-finite entry or an
    eigensolver failure."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise np.linalg.LinAlgError(f"expected a square matrix, got shape {mat.shape}")
    # the upper triangle of mat.T, row-major, is the block proj_psd_packed reads
    out = np.array(mat.T, dtype=float, order="C")
    proj_psd_packed(out.reshape(-1), [_run(mat.shape[0], 1)])
    return out


def proj_psd_packed(x: np.ndarray, runs) -> None:
    """Project, in place, a symmetric matrix held as its diagonal blocks.

    ``x`` holds runs of equal blocks, each block its full square row-major,
    one run per ``(k, count, ws)`` entry of ``runs`` (a :class:`Layout`'s
    plan), and then the diagonal entries of the isolated indices. Those
    entries are clipped at zero. A block is read from its upper triangle,
    the lower one in the column-major order LAPACK reads.

    A run whose ``ws`` is None goes through one batched eigendecomposition;
    every block of any other run goes through dsyevx in place, in ``ws``.
    Raises ``np.linalg.LinAlgError`` on a non-finite entry or an eigensolver
    failure.
    """
    if x.dtype != np.float64 or x.ndim != 1 or not x.flags.c_contiguous:
        raise ValueError("expected a contiguous 1-D float64 array")
    # x.x is finite when every entry is, unless it overflows: only then, or
    # on a non-finite entry, is the exact pass needed
    if not math.isfinite(x.dot(x)) and not np.isfinite(x).all():
        raise np.linalg.LinAlgError("matrix has non-finite entries")
    start = 0
    for k, count, ws in runs:
        stop = start + count * k * k
        stack = x[start:stop].reshape(count, k, k)
        if ws is None:
            stack[...] = _proj_psd_eigh(stack)
        else:
            for block in stack:
                vt = _positive_factor(ws, block)
                # np.dot forms a rank-1 product faster than np.matmul does, and
                # both give each entry as one rounded product
                (np.dot if len(vt) == 1 else np.matmul)(vt.T, vt, out=block)
        start = stop
    if start < x.size:
        np.maximum(x[start:], 0.0, out=x[start:])


def _positive_factor(ws: _Workspace, a: np.ndarray) -> np.ndarray:
    """V^T, C-contiguous, with V V^T the PSD projection of the matrix in the
    buffer ``a``, which dsyevx reads in column-major order and overwrites."""
    # the buffer's address; a.ctypes.data takes 4x as long to read
    _DSYEVX(*ws.head, ctypes.addressof(ctypes.c_char.from_buffer(a)), *ws.tail)
    if ws.info[0] != 0:
        raise np.linalg.LinAlgError(f"dsyevx failed with INFO={ws.info[0]}")
    k = int(ws.m[0])
    return ws.z[:, :k].T * np.sqrt(ws.w[:k])[:, np.newaxis]


def _proj_psd_eigh(stack: np.ndarray) -> np.ndarray:
    """PSD projections of a stack of symmetric matrices, each read from its
    upper triangle, by full eigendecompositions; exactly symmetric."""
    vals, vecs = np.linalg.eigh(stack, UPLO="U")
    out = (vecs * np.maximum(vals, 0.0)[:, np.newaxis, :]) @ vecs.transpose(0, 2, 1)
    return 0.5 * (out + out.transpose(0, 2, 1))


def approx_proj_psd(m: SymMat, r: int) -> SymMat:
    """Truncated projection sum_{i<=r} max(0, lam_i) u_i u_i^T over the r
    algebraically largest eigenpairs; output is PSD with rank <= r."""
    if not 1 <= r <= m.n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={m.n}")
    vals, vecs = np.linalg.eigh(m.dense)
    # eigh sorts ascending, so the r largest pairs are the last r columns
    top = vecs[:, m.n - r:]
    out = (top * np.maximum(vals[m.n - r:], 0.0)) @ top.T
    return SymMat(out)
