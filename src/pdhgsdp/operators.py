"""The constraint map A, its adjoint, the Gram matrix AA^T, the spectral
bound lambda_max(A^T A), and the lifting operator T with T T^T = (1/R) I - AA^T.

A map is stored once, in the form its own density calls for: a sparse map
keeps COO triples over the row-major vec(X), so A(X) is a gather and A^T(y) a
scatter of its nonzeros; a dense map keeps the (m, n^2) matrix and applies it
as a matrix-vector product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .linalg import SymMat

# Dense eigendecomposition of the m-by-m Gram is used up to this many
# constraints; beyond it the spectral bound falls back to power iteration.
_GRAM_EIG_LIMIT = 2000
_POWER_RTOL = 1e-8
_POWER_INFLATION = 1.0 + 1e-6
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
        con, i, j = (np.asarray(a, dtype=np.int64) for a in (con, i, j))
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
        self._lambda_max: float | None = None

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
    if cmap.coo is None:
        return cmap.dense @ x.ravel()
    rows, cols, vals = cmap.coo
    return np.bincount(rows, weights=vals * x.ravel()[cols], minlength=cmap.m)


def adjoint(cmap: ConstraintMap, y: np.ndarray) -> np.ndarray:
    """A^T(y) as a dense n-by-n array, bitwise symmetric."""
    n = cmap.n
    if cmap.coo is None:
        return (y @ cmap.dense).reshape(n, n)
    rows, cols, vals = cmap.coo
    return np.bincount(cols, weights=vals * y[rows], minlength=n * n).reshape(n, n)


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
    if cmap.coo is None:
        g = cmap.dense @ cmap.dense.T
    else:
        # row i of G is A(A_i) = A(A^T(e_i))
        g = np.array([forward(cmap, adjoint(cmap, e)) for e in np.eye(cmap.m)])
    return 0.5 * (g + g.T)


def lambda_max_AAt(cmap: ConstraintMap) -> float:
    """Largest eigenvalue of AA^T (equals lambda_max(A^T A)); nonnegative.

    Computed once per map and cached on it: exactly from the Gram matrix for
    m <= 2000, and beyond that by power iteration on v -> A(A^T(v)), whose
    estimate is inflated by a small safety factor so the value stays an upper
    bound when used in stepsize limits.
    """
    if cmap._lambda_max is None:
        if cmap.m <= _GRAM_EIG_LIMIT:
            lam = max(0.0, float(np.linalg.eigvalsh(gram(cmap))[-1]))
        else:
            lam = _power_iteration(lambda v: forward(cmap, adjoint(cmap, v)),
                                   cmap.m, _POWER_RTOL) * _POWER_INFLATION
        cmap._lambda_max = lam
    return cmap._lambda_max


def _power_iteration(matvec: Callable[[np.ndarray], np.ndarray], size: int,
                     rtol: float, max_iters: int = 10000) -> float:
    rng = np.random.default_rng(0)
    v = rng.standard_normal(size)
    v /= np.linalg.norm(v)
    w = matvec(v)
    lam = 0.0
    for _ in range(max_iters):
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        v = w / nrm
        w = matvec(v)
        lam_new = float(v @ w)
        if abs(lam_new - lam) <= rtol * max(1.0, abs(lam_new)):
            return lam_new
        lam = lam_new
    return lam


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
