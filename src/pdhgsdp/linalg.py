"""Dense symmetric-matrix primitives.

Canonical symmetric storage, the Frobenius pairing, and full symmetric
eigendecomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class EigenError(RuntimeError):
    """Eigensolver failure."""


# Per-dimension caches: (rows, cols) of the upper triangle and the weight
# vector used by packed Frobenius sums (2 for off-diagonal slots, 1 on the
# diagonal).
_TRIU_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_WEIGHT_CACHE: dict[int, np.ndarray] = {}


def _triu_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    idx = _TRIU_CACHE.get(n)
    if idx is None:
        idx = np.triu_indices(n)
        _TRIU_CACHE[n] = idx
    return idx


def _packed_weights(n: int) -> np.ndarray:
    w = _WEIGHT_CACHE.get(n)
    if w is None:
        rows, cols = _triu_indices(n)
        w = np.where(rows == cols, 1.0, 2.0)
        _WEIGHT_CACHE[n] = w
    return w


@dataclass(frozen=True)
class SymMat:
    """Real symmetric n-by-n matrix with one stored value per unordered pair.

    Entries live in the packed upper triangle (row-major), so ``access(i, j)``
    and ``access(j, i)`` read the same slot and agree bit-for-bit.
    """

    n: int
    packed: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        expected = self.n * (self.n + 1) // 2
        if self.packed.shape != (expected,):
            raise ValueError(
                f"packed storage for n={self.n} must have shape ({expected},), "
                f"got {self.packed.shape}"
            )

    @classmethod
    def from_dense(cls, mat: np.ndarray) -> "SymMat":
        """Pack a square array, symmetrizing it as (M + M^T)/2 first."""
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        n = mat.shape[0]
        sym = 0.5 * (mat + mat.T)
        return cls(n, sym[_triu_indices(n)].copy())

    @classmethod
    def zeros(cls, n: int) -> "SymMat":
        return cls(n, np.zeros(n * (n + 1) // 2))

    @classmethod
    def identity(cls, n: int) -> "SymMat":
        packed = np.zeros(n * (n + 1) // 2)
        rows, cols = _triu_indices(n)
        packed[rows == cols] = 1.0
        return cls(n, packed)

    @classmethod
    def diag(cls, values) -> "SymMat":
        values = np.asarray(values, dtype=float)
        return cls.from_dense(np.diag(values))

    def to_dense(self) -> np.ndarray:
        """Unpack to a full array; both triangles are filled from the same
        storage slots, so the result is bitwise symmetric."""
        out = np.empty((self.n, self.n))
        idx = _triu_indices(self.n)
        out[idx] = self.packed
        out.T[idx] = self.packed
        return out

    def access(self, i: int, j: int) -> float:
        if i > j:
            i, j = j, i
        # offset of row i's diagonal slot in row-major packed upper triangle
        base = i * self.n - i * (i - 1) // 2
        return float(self.packed[base + (j - i)])

    def norm(self) -> float:
        """Frobenius norm."""
        w = _packed_weights(self.n)
        return math.sqrt(float(np.dot(w, self.packed * self.packed)))

    def __add__(self, other: "SymMat") -> "SymMat":
        self._check_dim(other)
        return SymMat(self.n, self.packed + other.packed)

    def __sub__(self, other: "SymMat") -> "SymMat":
        self._check_dim(other)
        return SymMat(self.n, self.packed - other.packed)

    def __mul__(self, scalar: float) -> "SymMat":
        return SymMat(self.n, self.packed * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "SymMat":
        return SymMat(self.n, -self.packed)

    def _check_dim(self, other: "SymMat") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigenpairs sorted by non-increasing eigenvalue.

    ``eigvecs`` holds the unit eigenvectors as columns, ordered to match
    ``eigvals``.
    """

    eigvals: np.ndarray
    eigvecs: np.ndarray


def frobenius_inner(a: SymMat, b: SymMat) -> float:
    """<A, B> = sum_ij A_ij B_ij."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    w = _packed_weights(a.n)
    return float(np.dot(w, a.packed * b.packed))


def frobenius_inner_dense(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.einsum("ij,ij->", a, b))


def sym_eig(m: SymMat) -> SpectralDecomp:
    """Full eigendecomposition with eigenvalues in descending order."""
    dense = m.to_dense()
    if not np.all(np.isfinite(dense)):
        raise ValueError("matrix has non-finite entries")
    try:
        vals, vecs = np.linalg.eigh(dense)
    except np.linalg.LinAlgError as exc:
        raise EigenError(f"symmetric eigendecomposition failed: {exc}") from exc
    # eigh returns ascending order; flip to descending (stable reversal)
    return SpectralDecomp(vals[::-1].copy(), vecs[:, ::-1].copy())
