"""Dense symmetric-matrix primitives: the symmetric matrix type and the
Frobenius pairing."""

from __future__ import annotations

import numpy as np


class SymMat:
    """Real symmetric n-by-n matrix held as one read-only dense array.

    ``SymMat(M)`` stores (M + M^T)/2, whose entries (i, j) and (j, i) are the
    same floating-point sum, so the stored array is bitwise symmetric.
    """

    __slots__ = ("dense",)

    def __init__(self, mat):
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValueError(f"expected a square matrix with n >= 1, got shape {mat.shape}")
        dense = 0.5 * (mat + mat.T)
        dense.flags.writeable = False
        self.dense = dense

    @classmethod
    def from_dense(cls, mat) -> "SymMat":
        """Same as ``SymMat(mat)``."""
        return cls(mat)

    @classmethod
    def zeros(cls, n: int) -> "SymMat":
        return cls(np.zeros((n, n)))

    @classmethod
    def identity(cls, n: int) -> "SymMat":
        return cls(np.eye(n))

    @property
    def n(self) -> int:
        return self.dense.shape[0]

    def to_dense(self) -> np.ndarray:
        """A writable copy of the stored array."""
        return self.dense.copy()

    def norm(self) -> float:
        """Frobenius norm."""
        return float(np.linalg.norm(self.dense))

    def __sub__(self, other: "SymMat") -> "SymMat":
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        return SymMat(self.dense - other.dense)


def frobenius_inner_dense(a: np.ndarray, b: np.ndarray) -> float:
    """<A, B> = sum_ij A_ij B_ij, for two arrays of one shape: matrices, or
    packed vectors that hold every entry where either matrix is nonzero."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))
