"""Projection onto the PSD cone, exact and rank-truncated."""

from __future__ import annotations

import numpy as np

from .linalg import SymMat


def proj_psd(m: SymMat) -> SymMat:
    """Frobenius-nearest PSD matrix: clip negative eigenvalues to zero."""
    return SymMat.from_dense(proj_psd_dense(m.to_dense()))


def proj_psd_dense(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    clipped = np.maximum(vals, 0.0)
    out = (vecs * clipped) @ vecs.T
    return 0.5 * (out + out.T)


def approx_proj_psd(m: SymMat, r: int) -> SymMat:
    """Truncated projection sum_{i<=r} max(0, lam_i) u_i u_i^T over the r
    algebraically largest eigenpairs; output is PSD with rank <= r."""
    if not 1 <= r <= m.n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={m.n}")
    vals, vecs = np.linalg.eigh(m.to_dense())
    # eigh sorts ascending, so the r largest pairs are the last r columns
    top = vecs[:, m.n - r:]
    out = (top * np.maximum(vals[m.n - r:], 0.0)) @ top.T
    return SymMat.from_dense(out)
