"""The constraint map A, its adjoint, the Gram matrix AA^T, the spectral
bound lambda_max(A^T A), and the lifting operator T with T T^T = (1/R) I - AA^T.

A map is stored once, in the form its own density calls for: a sparse map
keeps COO triples over the row-major vec(X), so A(X) is a gather and A^T(y) a
scatter of its nonzeros; a dense map keeps the (m, n^2) matrix and applies it
as a matrix-vector product. :meth:`ConstraintMap.packed` re-indexes either
form onto a packed vector that holds only some entries of X, as the solver
keeps its iterate. Only :func:`forward_packed` and :func:`adjoint_packed`
apply a map, each to one packed vector; the n-by-n maps, the spectral bound
and a sparse map's Gram run them on the map packed over the entries it
stores. No other module reads a map's stored form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .linalg import SymMat

# Dense eigendecomposition of the m-by-m Gram is used up to this many
# constraints; beyond it the spectral bound comes from Lanczos. Per call
# (2-core Xeon, BLAS on one thread), on dense rg maps the exact route takes
# 0.26, 1.2-1.4 and 4.2 s at m = 1200, 2100 and 3000, Lanczos 0.37, 1.1-1.6
# and 3.8 s; on sparse snl maps at m = 2102 and 3413 the exact route takes
# 1.05 and 5.0 s, Lanczos 0.05 and 0.09 s.
_GRAM_EIG_LIMIT = 2000
# Lanczos from a random start on a PSD matrix of order m finds, after q
# steps, a top Ritz value theta_q with
#     P(theta_q < (1 - eps) lambda_max) <= 1.648 sqrt(m) exp(-sqrt(eps) (2q - 1))
# (Kuczynski & Wozniakowski, SIAM J. Matrix Anal. Appl. 13(4), 1992, Thm 4.2).
# q is the least step count that takes this below _LANCZOS_FAIL, and theta_q
# is inflated by 1/(1 - eps).
_LANCZOS_EPS = 1e-2
_LANCZOS_FAIL = 1e-12
# A map with nonzeros in more than this share of its upper-triangle slots is
# stored dense. Timing one A plus one A^T on random maps (BLAS on one thread),
# both forms cost the same at 2-3% density for n = m = 30-50 and at 7-9% for
# n = m = 100-150 and for n = 52, m = 257; fully dense, triples are 15-30x
# slower.
_DENSE_ABOVE = 0.05


class ConstraintMap:
    """Ordered symmetric constraint matrices A_1..A_m realizing
    X -> (<A_i, X>)_i, held in exactly one of two forms.

    ``coo`` is the triple (rows, cols, vals) of every nonzero A_r[i, j], with
    cols = i*n + j, both triangles present and sorted by (row, col); ``dense``
    is the (m, n^2) matrix whose row r is vec(A_r). The other one is None.

    ``ConstraintMap(mats)`` converts a sequence of :class:`SymMat`;
    :meth:`from_triples` builds from matrix entries without one.
    """

    def __init__(self, mats: Sequence[SymMat]):
        mats = tuple(mats)
        if len(mats) < 1:
            raise ValueError("a constraint map needs at least one matrix")
        n = mats[0].n
        for i, mat in enumerate(mats):
            if mat.n != n:
                raise ValueError(
                    f"constraint matrix {i} has dimension {mat.n}, expected {n}"
                )
        m = len(mats)
        stack = np.stack([mat.dense for mat in mats])
        # nonzeros on and above the diagonal: off-diagonal ones come in pairs
        nnz = np.count_nonzero(stack) + np.count_nonzero(np.diagonal(stack, 0, 1, 2))
        if _stored_dense(nnz // 2, m, n):
            self._hold(m, n, dense=stack.reshape(m, n * n))
            return
        upper = np.triu(stack)
        con, i, j = np.nonzero(upper)
        self._hold(m, n, coo=_mirrored_coo(n, con, i, j, upper[con, i, j]))

    @classmethod
    def from_triples(cls, m: int, n: int, con, i, j, vals) -> "ConstraintMap":
        """Map with A_con[i, j] = A_con[j, i] = val for every entry. An entry
        may name either triangle; repeated entries add up and zeros drop out."""
        if m < 1 or n < 1:
            raise ValueError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
        con, i, j = (np.asarray(a) for a in (con, i, j))
        for name, idx in (("con", con), ("i", i), ("j", j)):
            if idx.size and not np.issubdtype(idx.dtype, np.integer):
                raise ValueError(f"{name} must hold integer indices, got dtype {idx.dtype}")
        con, i, j = (a.astype(np.int64, copy=False) for a in (con, i, j))
        vals = np.asarray(vals, dtype=float)
        if not con.shape == i.shape == j.shape == vals.shape or con.ndim != 1:
            raise ValueError("con, i, j and vals must be 1-D and of equal length")
        if con.size and (con.min() < 0 or con.max() >= m or min(i.min(), j.min()) < 0
                         or max(i.max(), j.max()) >= n):
            raise ValueError(f"entry index outside {m} constraints of size {n}")
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        keys, inv = np.unique((con * n + lo) * n + hi, return_inverse=True)
        summed = np.bincount(inv, weights=vals, minlength=keys.size)
        keep = summed != 0.0
        con, rest = np.divmod(keys[keep], n * n)
        lo, hi = np.divmod(rest, n)
        vals = summed[keep]
        cmap = cls.__new__(cls)
        if _stored_dense(vals.size, m, n):
            dense = np.zeros((m, n * n))
            dense[con, lo * n + hi] = vals
            dense[con, hi * n + lo] = vals
            cmap._hold(m, n, dense=dense)
        else:
            cmap._hold(m, n, coo=_mirrored_coo(n, con, lo, hi, vals))
        return cmap

    def _hold(self, m: int, n: int, dense=None, coo=None) -> None:
        if not np.all(np.isfinite(dense if coo is None else coo[2])):
            raise ValueError("a constraint matrix has a non-finite entry")
        self.m, self.n, self.dense, self.coo = m, n, dense, coo

    def rms_row_norm(self) -> float:
        """sqrt(tr(AA^T)/m), the root mean square of the Frobenius norms of
        the A_i. Both triangles are stored, so the sum of squares of the
        stored entries is tr(AA^T)."""
        stored = self.dense if self.coo is None else self.coo[2]
        return float(np.sqrt(np.vdot(stored, stored) / self.m))

    def packed(self, index: np.ndarray, extra=()) -> "PackedMap":
        """This map over packed vectors x with x[p] = vec(X)[index[p]], for
        an ``index`` that covers every stored nonzero. A^T is formed only on
        the packed positions where it or an entry of ``extra`` can be
        nonzero; for a dense map that is everywhere."""
        if self.coo is None:
            same = np.array_equal(index, np.arange(self.n * self.n))
            return PackedMap(self.m, self.dense if same else self.dense[:, index],
                             None, slice(None))
        rows, cols, vals = self.coo
        where = np.full(self.n * self.n, -1, dtype=np.intp)
        where[index] = np.arange(index.size)
        pos = where[cols]
        if pos.size and pos.min() < 0:
            raise ValueError("the packed layout leaves out a nonzero of the map")
        on_support = np.zeros(index.size, dtype=bool)
        on_support[pos] = True
        on_support[np.asarray(extra, dtype=np.intp)] = True
        support = np.flatnonzero(on_support)
        slot = np.cumsum(on_support) - 1  # each position's place in the support
        return PackedMap(self.m, None, (rows, pos, slot[pos], vals), support)

    def pattern(self) -> np.ndarray:
        """The n-by-n boolean mask of the entries where some A_i is nonzero."""
        if self.coo is None:
            return np.any(self.dense, axis=0).reshape(self.n, self.n)
        mask = np.zeros((self.n, self.n), dtype=bool)
        mask.ravel()[self.coo[1]] = True
        return mask

    @cached_property
    def _own_packed(self) -> tuple[np.ndarray, "PackedMap"]:
        """(index, this map packed over it): every entry of vec(X) for a
        dense map, the entries of its pattern for a sparse one."""
        index = (np.arange(self.n * self.n) if self.coo is None
                 else np.flatnonzero(self.pattern()))
        return index, self.packed(index)

    @cached_property
    def _lambda_max(self) -> float:
        """The value :func:`lambda_max_AAt` returns, computed on first use."""
        if self.m <= _GRAM_EIG_LIMIT:
            return max(0.0, float(np.linalg.eigvalsh(gram(self))[-1]))
        pmap = self._own_packed[1]
        return _lanczos_bound(lambda v: forward_packed(pmap, adjoint_packed(pmap, v)), self.m)

    def upper_triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(con, i, j, vals) of every nonzero with i <= j, sorted by
        constraint and then row-major."""
        n = self.n
        if self.coo is None:
            iu, ju = np.triu_indices(n)
            upper = self.dense[:, iu * n + ju]
            con, slot = np.nonzero(upper)
            return con, iu[slot], ju[slot], upper[con, slot]
        rows, cols, vals = self.coo
        i, j = np.divmod(cols, n)
        keep = i <= j
        return rows[keep], i[keep], j[keep], vals[keep]


@dataclass(frozen=True)
class PackedMap:
    """A constraint map re-indexed onto packed vectors (see
    :meth:`ConstraintMap.packed`). ``support`` lists, ascending, the packed
    positions where A^T(y) is formed; a slice over everything for a dense
    map. ``dense`` is the (m, len(index)) matrix of a dense map; ``coo`` holds
    a sparse map's (rows, packed positions, slots in ``support``, vals), in
    the order of the map's own triples. The other one is None."""

    m: int
    dense: np.ndarray | None
    coo: tuple | None
    support: np.ndarray | slice


def _stored_dense(nnz: int, m: int, n: int) -> bool:
    """Whether a map with ``nnz`` nonzero upper-triangle entries is dense."""
    return nnz > _DENSE_ABOVE * m * n * (n + 1) / 2


def _mirrored_coo(n, con, lo, hi, vals):
    """COO triples over vec(X), sorted by (row, col), of upper-triangle
    entries without zeros or repeats, each off-diagonal one also placed at its
    mirror. The sort makes every column sum its terms in row order, so A^T(y)
    comes out bitwise symmetric."""
    off = lo != hi
    rows = np.concatenate([con, con[off]])
    cols = np.concatenate([lo * n + hi, hi[off] * n + lo[off]])
    order = np.argsort(rows * (n * n) + cols)
    return rows[order], cols[order], np.concatenate([vals, vals[off]])[order]


def forward(cmap: ConstraintMap, x: np.ndarray) -> np.ndarray:
    """A(X) for a dense n-by-n array X."""
    index, pmap = cmap._own_packed
    return forward_packed(pmap, x.reshape(cmap.n * cmap.n)[index])  # raises unless n^2 entries


def adjoint(cmap: ConstraintMap, y: np.ndarray) -> np.ndarray:
    """A^T(y) as a dense n-by-n array, bitwise symmetric."""
    index, pmap = cmap._own_packed
    out = np.zeros(cmap.n * cmap.n)
    out[index] = adjoint_packed(pmap, y)
    return out.reshape(cmap.n, cmap.n)


def forward_packed(pmap: PackedMap, x: np.ndarray) -> np.ndarray:
    """A(X) for X as a packed vector."""
    if pmap.coo is None:
        return pmap.dense @ x
    rows, pos, _, vals = pmap.coo
    return np.bincount(rows, weights=vals * x[pos], minlength=pmap.m)


def adjoint_packed(pmap: PackedMap, y: np.ndarray) -> np.ndarray:
    """A^T(y) at the packed positions ``pmap.support``. Each entry sums its
    terms in the order :func:`adjoint` does, so the values are its values."""
    if pmap.coo is None:
        return y @ pmap.dense
    rows, _, slots, vals = pmap.coo
    return np.bincount(slots, weights=vals * y[rows], minlength=pmap.support.size)


def apply_A(cmap: ConstraintMap, x: SymMat) -> np.ndarray:
    """A(X) = (<A_1, X>, ..., <A_m, X>)."""
    if x.n != cmap.n:
        raise ValueError(f"dimension mismatch: X has n={x.n}, map has n={cmap.n}")
    return forward(cmap, x.dense)


def apply_At(cmap: ConstraintMap, y: np.ndarray) -> SymMat:
    """Adjoint A^T(y) = sum_i y_i A_i."""
    y = np.asarray(y, dtype=float)
    if y.shape != (cmap.m,):
        raise ValueError(f"length mismatch: y has shape {y.shape}, map has m={cmap.m}")
    return SymMat(adjoint(cmap, y))


def gram(cmap: ConstraintMap) -> np.ndarray:
    """m-by-m Gram matrix G_ij = <A_i, A_j>; symmetric PSD."""
    pmap = cmap._own_packed[1]
    if pmap.coo is None:
        g = pmap.dense @ pmap.dense.T
    else:
        rows, _, slots, vals = pmap.coo
        packed_rows = np.zeros((cmap.m, pmap.support.size))
        packed_rows[rows, slots] = vals
        g = np.array([forward_packed(pmap, a_i) for a_i in packed_rows])  # row i is A(A_i)
    return 0.5 * (g + g.T)


def lambda_max_AAt(cmap: ConstraintMap) -> float:
    """lambda_max(AA^T), which equals lambda_max(A^T A), or a bound above it;
    nonnegative.

    Computed once per map and cached on it. For m <= _GRAM_EIG_LIMIT it is
    the top eigenvalue of the Gram matrix, exact up to roundoff. Beyond that
    it is Lanczos's top Ritz value on v -> A(A^T(v)) divided by
    1 - _LANCZOS_EPS: in exact arithmetic the result then lies in
    [lambda_max, lambda_max / (1 - eps)] for every start vector outside a set
    of probability at most _LANCZOS_FAIL = 1e-12. The start vector comes from
    a fixed seed, so each map always gets the same value.
    """
    return cmap._lambda_max


def _lanczos_bound(matvec: Callable[[np.ndarray], np.ndarray], size: int) -> float:
    """theta_q / (1 - eps) for the symmetric PSD operator ``matvec`` of order
    ``size``, with q and eps as ``_LANCZOS_EPS`` sets them (q at most
    ``size``, where the Krylov space is all of it). Each new Lanczos vector is
    orthogonalized against all earlier ones, twice, so the Ritz values are
    those of an orthonormal basis up to roundoff."""
    least = math.log(1.648 * math.sqrt(size) / _LANCZOS_FAIL) / math.sqrt(_LANCZOS_EPS)
    steps = min(size, math.ceil((least + 1.0) / 2.0))  # 2q - 1 >= least
    basis = np.empty((steps, size))
    v = np.random.default_rng(0).standard_normal(size)
    nrm = np.linalg.norm(v)
    diag, off = [], []
    for j in range(steps):
        basis[j] = v / nrm
        w = matvec(basis[j])
        diag.append(basis[j] @ w)
        for _ in range(2):
            w -= basis[:j + 1].T @ (basis[:j + 1] @ w)
        nrm = np.linalg.norm(w)
        if nrm == 0.0 or j + 1 == steps:  # an invariant subspace, or done
            break
        off.append(nrm)
        v = w
    t = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return max(0.0, float(np.linalg.eigvalsh(t)[-1])) / (1.0 - _LANCZOS_EPS)


@dataclass(frozen=True)
class LiftedOperator:
    """The lifting operator as an m-by-m matrix T with T T^T = S, where
    S = (1/R) I - AA^T."""

    T: np.ndarray
    R: float
    S: np.ndarray


def build_T(cmap: ConstraintMap, R: float) -> LiftedOperator:
    """Construct T with T T^T = (1/R) I - AA^T as the Cholesky factor of S.

    Requires R < 1/lambda_max(AA^T) strictly so S is positive definite; an R
    so close to the bound that S is not positive definite in floating point
    is rejected too.
    """
    if R <= 0:
        raise ValueError(f"R must be positive, got {R}")
    lam_max = lambda_max_AAt(cmap)
    if R * lam_max >= 1.0:
        raise ValueError(
            "stepsize product violates Lemma-style positivity: "
            f"R={R} is not strictly below 1/lambda_max={1.0 / lam_max}"
        )
    s = (1.0 / R) * np.eye(cmap.m) - gram(cmap)
    try:
        t = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        raise ValueError(
            "stepsize product violates Lemma-style positivity: "
            f"S = (1/R) I - AA^T is not positive definite at R={R}"
        ) from None
    return LiftedOperator(T=t, R=float(R), S=s)
