"""Projection onto the PSD cone, exact and rank-truncated.

The exact projection keeps only the positive eigenpairs. It runs the stages
of LAPACK's ``dsyevx`` one by one: ``dsytrd`` reduces the matrix to a
tridiagonal T, a count-only ``dstebz`` gives the number k of positive
eigenvalues and the split blocks of T, the eigenvalues come from bisection
(``dstebz``) when k is small and from ``dsterf`` (all eigenvalues of each
split block, by root-free QL/QR) when it is not, ``dstein`` finds their
vectors and ``dormtr`` takes those back to the matrix. The bisection branch
is ``dsyevx`` bit for bit. The routines are reached through the LAPACK that
numpy itself links (scipy-openblas in the numpy wheels), so no further
dependency is loaded. Where numpy's build does not export all five (MKL,
conda or Windows builds), the projection clips a full ``np.linalg.eigh``;
that path is also the reference the tests compare against.

``proj_psd_packed`` is the one routine that calls the eigensolvers. It
projects, in place, a matrix packed by its diagonal blocks (the solver's
iterate) along the plan its :class:`Layout` made once: the staged solve on
each block's slice, in its run's own workspace, or one batched ``eigh`` per
run of equal small blocks (a lone one included). ``proj_psd_dense``
projects an n-by-n array as one such block, on a copy.
"""

from __future__ import annotations

import ctypes
import math
from collections import namedtuple

import numpy as np

from .linalg import SymMat

# The stages of dsyevx, each with its number of character arguments (which
# come first, and whose hidden lengths come last) and of other arguments, all
# by reference.
_STAGES = {"dsytrd": (1, 9), "dstebz": (2, 16), "dsterf": (0, 4), "dstein": (0, 13),
           "dormtr": (3, 10)}
_Lapack = namedtuple("_Lapack", _STAGES)

# Bisection pins each eigenvalue to 2*DLAMCH('S'), the accuracy LAPACK
# recommends; it keeps the eigenvalues' relative accuracy wherever k is small
# enough for bisection. At the default (0, which dstebz widens to eps*||T||),
# tf stalls on max-cut instances with a degenerate dual: its stepsize grows
# past 1e15, so the projection input is mostly roundoff, and the coarser
# eigenvalues then keep it from reaching the stopping rule under permuted rows.
_ABSTOL = 2.0 * np.finfo(float).tiny

# dsyevx scales a matrix whose largest entry lies outside [RMIN, RMAX] into
# that range before it reduces it (DLAMCH('S') and DLAMCH('P') below).
_SMLNUM = np.finfo(float).tiny / np.finfo(float).eps
_RMIN = math.sqrt(_SMLNUM)
_RMAX = min(math.sqrt(1.0 / _SMLNUM), 1.0 / math.sqrt(math.sqrt(np.finfo(float).tiny)))


def _load_lapack():
    """The five stages in numpy's ILP64 LAPACK, or None where it lacks one.
    numpy >= 2 wheels prefix scipy-openblas's symbols with ``scipy_``, numpy
    1.x wheels export them bare."""
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError, AttributeError):
        return None
    for prefix in ("scipy_", ""):
        fns = [getattr(lib, f"{prefix}{name}_64_", None) for name in _STAGES]
        if all(fns):
            for fn, (chars, refs) in zip(fns, _STAGES.values()):
                fn.argtypes = ([ctypes.c_char_p] * chars + [ctypes.c_void_p] * refs
                               + [ctypes.c_size_t] * chars)
                fn.restype = None
            return _Lapack(*fns)
    return None


_LAPACK = _load_lapack()

# Each run of equal blocks below this size, a single block included, is
# projected by one batched np.linalg.eigh; every other block by the staged
# solve. Measured on 2-core Xeons, BLAS on one thread. On the projection
# inputs of bpdr solves of max-cut graphs made of 1-8 equal components, for
# runs of 2, 4 and 8 blocks the batched call beats dsyevx (which the staged
# solve's bisection branch is) below k = 8, 10 and 11, by 2-4x at k = 2. On
# a single block of random spectrum it takes 14-22 us at k = 2-9, the staged
# solve 18-27 us; with one positive eigenvalue they cross at k = 10-11.
_BATCH_BELOW = 10

# dsterf finds the eigenvalues of an n-by-n block with k positive ones when
# k > _DSTERF_ABOVE * n, bisection otherwise. Bisection costs each positive
# eigenvalue ~55 Sturm sweeps of T, dsterf all n eigenvalues O(n^2) flops.
# Measured on random spectra (2-core Xeon, BLAS on one thread), the staged
# solve is faster with dsterf from k = 4 at n = 30-50, 5 at n = 64-80, 6 at
# n = 100, 8 at n = 125-150, 10 at n = 200 and 14 at n = 300, so k/n at the
# break-even falls from 0.12 at n = 30 to 0.07 at n = 50 and 0.05 at
# n = 150-300. On the solver's own inputs (n = 50-52 and 118-125), k > 0.08 n
# is within 2% of the faster branch chosen per input. At n = 10-19 fixed
# costs dominate, and bisection is as fast up to k = 5 or so; smaller blocks
# take the batched eigh (_BATCH_BELOW).
_DSTERF_ABOVE = 0.08


# Where a workspace's integer array keeps the scalars LAPACK writes: the size
# of dsterf's block, the number of eigenvalues found, of split blocks, info.
_NB, _M, _NSPLIT, _INFO = 3, 4, 5, 6


class _Workspace:
    """The stages' buffers and arguments for one dimension n, except the
    address of the matrix, which each call passes. The buffers lie in one
    float and one integer array, and the arguments hold raw addresses into
    them, so the arrays must live as long as the arguments do; LAPACK writes
    into them without the interpreter lock, so each belongs to one plan."""

    def __init__(self, n: int):
        self.n = n
        # the eigenvectors, column-major (n*n); the eigenvalues; T's diagonal
        # and off-diagonal, then dsterf's copy of them; the reflectors'
        # scalars (n each); the work array (7n); vl, vu, abstol
        at = n * n  # where the n-long buffers start
        self.reals = reals = np.empty(at + 13 * n + 3)
        reals[-3] = 0.0  # the half-open range (0, +inf]
        reals[-2] = np.inf
        reals[-1] = _ABSTOL
        self.w, self.t = reals[at:at + n], reals[at + n:at + 3 * n]
        self.t_copy = reals[at + 3 * n:at + 5 * n]
        # n, dsytrd's and dormtr's lwork, the four scalars of _NB; the
        # split-block labels and the split points (n each), iwork (3n), ifail
        self.ints = ints = np.empty(6 * n + 7, dtype=np.int64)
        ints[:3] = n, 5 * n, 7 * n
        self.iblock, self.isplit = ints[7:7 + n], ints[7 + n:7 + 2 * n]

        # the addresses; a.ctypes.data takes 3x as long to read
        f = ctypes.addressof(ctypes.c_char.from_buffer(reals))
        i = ctypes.addressof(ctypes.c_char.from_buffer(ints))
        self.t_copy_at = f + 8 * (at + 3 * n)
        z, w, d, e = f, f + 8 * at, f + 8 * (at + n), f + 8 * (at + 2 * n)
        tau, work, vl = f + 8 * (at + 5 * n), f + 8 * (at + 6 * n), f + 8 * (at + 13 * n)
        vu, abstol = vl + 8, vl + 16
        n_, lwork5, lwork7, nb, m, nsplit, info, iblock = range(i, i + 64, 8)
        isplit, iwork, ifail = i + 8 * (7 + n), i + 8 * (7 + 2 * n), i + 8 * (7 + 5 * n)
        one = 1  # the length of a character argument
        # the arguments before and after the matrix's address; dstebz's il and
        # iu are n, as RANGE='V' reads neither
        self.sytrd = (b"L", n_), (n_, d, e, tau, work, lwork5, info, one)
        stebz = b"V", b"B", n_, vl, vu, n_, n_
        tail = d, e, m, nsplit, w, iblock, isplit, work, iwork, info, one, one
        self.count = stebz + (vu,) + tail  # abstol +inf: one Sturm count per block
        self.bisect = stebz + (abstol,) + tail
        self.sterf = nb, info  # around the addresses of a split block's copy
        self.stein = n_, d, e, m, w, iblock, isplit, z, n_, work, iwork, ifail, info
        self.ormtr = (b"L", b"L", b"N", n_, m), (n_, tau, z, n_, work, lwork7, info, one, one, one)


def _run(k: int, count: int) -> tuple:
    """(k, count, ws) for a run of ``count`` blocks of k indices: ws is its
    staged solve's workspace, or None where one batched eigh takes the whole
    run."""
    return k, count, None if _LAPACK is None or k < _BATCH_BELOW else _Workspace(k)


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
    every block of any other run goes through the staged solve in place, in
    ``ws``.
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
    buffer ``a``, which LAPACK reads in column-major order and overwrites.
    dsyevx's stages, each with the share of the workspace dsyevx gives it;
    the count of positive eigenvalues picks how they are found (see
    ``_DSTERF_ABOVE``)."""
    sytrd, stebz, _, stein, ormtr = _LAPACK
    n, ints = ws.n, ws.ints
    scale = _scale(a)
    if scale != 1.0:
        a *= scale
    # the buffer's address; a.ctypes.data takes 4x as long to read
    address = ctypes.addressof(ctypes.c_char.from_buffer(a))
    sytrd(*ws.sytrd[0], address, *ws.sytrd[1])
    stebz(*ws.count)
    k = int(ints[_M])
    if k == 0:
        return ws.reals[:0].reshape(0, n)
    if k > _DSTERF_ABOVE * n:
        _top_eigenvalues(ws, k)
    else:
        ws.reals[-1] = _ABSTOL * scale
        stebz(*ws.bisect)
    stein(*ws.stein)
    if ints[_INFO] != 0:
        raise np.linalg.LinAlgError(f"dstein failed with INFO={ints[_INFO]}")
    ormtr(*ws.ormtr[0], address, *ws.ormtr[1])
    # the first k eigenvectors, column-major, are the rows of V^T
    vt, w = ws.reals[:k * n].reshape(k, n), ws.w[:k]
    if scale != 1.0:
        w *= 1.0 / scale
    if ws.iblock[0] != ws.iblock[k - 1]:
        _sort_pairs(w, vt)
    return vt * np.sqrt(w)[:, np.newaxis]


def _scale(a: np.ndarray) -> float:
    """dsyevx's factor for a symmetric matrix whose largest entry lies outside
    [RMIN, RMAX], which takes that entry to the near end; 1 otherwise. The
    sum of squares settles most matrices without the largest entry (a factor
    4 spares it the sum's roundoff)."""
    squares = np.vdot(a, a)
    if 4.0 * _RMIN * _RMIN * a.size <= squares <= 0.25 * _RMAX * _RMAX:
        return 1.0
    largest = max(a.max(), -a.min())
    if 0.0 < largest < _RMIN:
        return _RMIN / largest
    return _RMAX / largest if largest > _RMAX else 1.0


def _top_eigenvalues(ws: _Workspace, k: int) -> None:
    """Fill ``ws.w[:k]`` as the count-only dstebz labelled it: for each split
    block of T, in order, that block's positive eigenvalues, ascending, which
    are the largest of all its eigenvalues by dsterf, clipped at 0."""
    labels = ws.iblock[:k].tolist()
    ends = ws.isplit[:ws.ints[_NSPLIT]].tolist()
    ws.t_copy[:] = ws.t  # dsterf overwrites what it reads
    diagonal = ws.t_copy[:ws.n]
    start = 0
    while start < k:
        block = labels[start]  # 1-based; each block's labels are contiguous
        stop = start + labels.count(block)
        low, high = ends[block - 2] if block > 1 else 0, ends[block - 1]
        ws.ints[_NB] = high - low
        at = ws.t_copy_at + 8 * low
        _LAPACK.dsterf(ws.sterf[0], at, at + 8 * ws.n, ws.sterf[1])
        if ws.ints[_INFO] != 0:
            raise np.linalg.LinAlgError(f"dsterf failed with INFO={ws.ints[_INFO]}")
        np.maximum(diagonal[high - stop + start:high], 0.0, out=ws.w[start:stop])
        start = stop


def _sort_pairs(w: np.ndarray, vt: np.ndarray) -> None:
    """dsyevx's selection sort: the eigenvalues ascending, their vectors (the
    rows of vt) along."""
    for j in range(len(w) - 1):
        i = j + 1 + int(np.argmin(w[j + 1:]))
        if w[i] < w[j]:
            w[[j, i]] = w[[i, j]]
            vt[[j, i]] = vt[[i, j]]


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
