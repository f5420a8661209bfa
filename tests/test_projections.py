import numpy as np
import pytest

from pdhgsdp.linalg import SymMat
from pdhgsdp.projections import approx_proj_psd, proj_psd


def clipping_oracle(dense: np.ndarray) -> np.ndarray:
    """Independent projection: validated eigensolve, explicit rank-one
    accumulation."""
    vals, vecs = np.linalg.eigh(dense)
    # the oracle only counts if its own decomposition is sound
    rec = sum(v * np.outer(u, u) for v, u in zip(vals, vecs.T))
    assert np.linalg.norm(rec - dense) < 1e-10 * max(1.0, np.linalg.norm(dense))
    out = np.zeros_like(dense)
    for v, u in zip(vals, vecs.T):
        if v > 0:
            out += v * np.outer(u, u)
    return out


def random_sym(rng, n):
    g = rng.standard_normal((n, n))
    return SymMat.from_dense(g + g.T)


class TestProjPsd:
    def test_psd_input_fixed_point(self):
        eye = SymMat.identity(3)
        assert (proj_psd(eye) - eye).norm() < 1e-12

    def test_diagonal_clipping(self):
        m = SymMat.diag([1.0, -1.0])
        np.testing.assert_allclose(proj_psd(m).to_dense(), np.diag([1.0, 0.0]),
                                   atol=1e-14)

    def test_matches_clipping_oracle(self):
        rng = np.random.default_rng(0)
        m = random_sym(rng, 7)
        out = proj_psd(m).to_dense()
        np.testing.assert_allclose(out, clipping_oracle(m.to_dense()), atol=1e-10)

    def test_nearest_among_random_psd_competitors(self):
        rng = np.random.default_rng(1)
        m = random_sym(rng, 5)
        dense = m.to_dense()
        best = np.linalg.norm(dense - proj_psd(m).to_dense())
        for _ in range(25):
            g = rng.standard_normal((5, 5))
            z = g @ g.T  # arbitrary PSD competitor
            assert np.linalg.norm(dense - z) >= best - 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = random_sym(rng, 6)
            once = proj_psd(m)
            twice = proj_psd(once)
            assert (twice - once).norm() < 1e-10

    def test_nonexpansive(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a, b = random_sym(rng, 5), random_sym(rng, 5)
            lhs = (proj_psd(a) - proj_psd(b)).norm()
            assert lhs <= (a - b).norm() + 1e-10

    def test_output_psd(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            out = proj_psd(random_sym(rng, 6))
            assert np.linalg.eigvalsh(out.to_dense())[0] >= -1e-10


class TestApproxProjPsd:
    def test_keeps_top_eigenpair(self):
        m = SymMat.diag([3.0, 2.0, 1.0])
        out = approx_proj_psd(m, 1)
        np.testing.assert_allclose(out.to_dense(), np.diag([3.0, 0.0, 0.0]),
                                   atol=1e-9)

    def test_full_rank_equals_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            m = random_sym(rng, 6)
            assert (approx_proj_psd(m, 6) - proj_psd(m)).norm() < 1e-8

    def test_few_positive_eigenvalues_equals_exact(self):
        # exactly k=2 positive eigenvalues, r=3 >= k
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        vals = np.array([4.0, 1.5, -0.5, -1.0, -2.0, -3.0])
        m = SymMat.from_dense((q * vals) @ q.T)
        assert (approx_proj_psd(m, 3) - proj_psd(m)).norm() < 1e-8

    def test_rank_bounded_by_r(self):
        rng = np.random.default_rng(7)
        for r in (1, 2, 3):
            m = random_sym(rng, 8)
            out = approx_proj_psd(m, r)
            vals = np.linalg.eigvalsh(out.to_dense())[::-1]
            top = max(vals[0], 0.0)
            rank = int(np.sum(vals > 1e-9 * max(top, 1e-300)))
            assert rank <= r

    def test_matches_top_r_oracle(self):
        rng = np.random.default_rng(8)
        for r in (1, 3, 5, 9):
            m = random_sym(rng, 9)
            vals, vecs = np.linalg.eigh(m.to_dense())
            expected = np.zeros((9, 9))
            for k in np.argsort(vals)[::-1][:r]:
                expected += max(vals[k], 0.0) * np.outer(vecs[:, k], vecs[:, k])
            np.testing.assert_allclose(approx_proj_psd(m, r).to_dense(), expected,
                                       atol=1e-10)

    def test_rank_validation(self):
        m = SymMat.identity(3)
        with pytest.raises(ValueError):
            approx_proj_psd(m, 0)
        with pytest.raises(ValueError):
            approx_proj_psd(m, 4)
