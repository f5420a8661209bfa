import numpy as np
import pytest

from pdhgsdp.linalg import SymMat, frobenius_inner, sym_eig


def random_sym(rng, n):
    g = rng.standard_normal((n, n))
    return SymMat.from_dense(g + g.T)


class TestSymMat:
    def test_access_is_bit_identical(self):
        rng = np.random.default_rng(0)
        m = random_sym(rng, 7)
        for i in range(7):
            for j in range(7):
                assert m.access(i, j) == m.access(j, i)  # exact, same slot

    def test_to_dense_bitwise_symmetric(self):
        rng = np.random.default_rng(1)
        d = random_sym(rng, 9).to_dense()
        assert np.array_equal(d, d.T)

    def test_from_dense_symmetrizes(self):
        a = np.array([[1.0, 4.0], [0.0, 2.0]])
        m = SymMat.from_dense(a)
        assert m.access(0, 1) == 2.0

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        d = random_sym(rng, 6).to_dense()
        assert np.array_equal(SymMat.from_dense(d).to_dense(), d)

    def test_norm_matches_dense(self):
        rng = np.random.default_rng(3)
        m = random_sym(rng, 8)
        assert m.norm() == pytest.approx(np.linalg.norm(m.to_dense()), rel=1e-14)

    def test_arithmetic(self):
        rng = np.random.default_rng(4)
        a, b = random_sym(rng, 5), random_sym(rng, 5)
        np.testing.assert_allclose((a + b).to_dense(), a.to_dense() + b.to_dense())
        np.testing.assert_allclose((a - b).to_dense(), a.to_dense() - b.to_dense())
        np.testing.assert_allclose((2.5 * a).to_dense(), 2.5 * a.to_dense())
        np.testing.assert_allclose((-a).to_dense(), -a.to_dense())

    def test_identity_and_diag(self):
        assert np.array_equal(SymMat.identity(3).to_dense(), np.eye(3))
        assert np.array_equal(
            SymMat.diag([3.0, 1.0, -2.0]).to_dense(), np.diag([3.0, 1.0, -2.0])
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            SymMat(0, np.zeros(0))
        with pytest.raises(ValueError):
            SymMat(3, np.zeros(5))
        with pytest.raises(ValueError):
            SymMat.from_dense(np.zeros((2, 3)))


class TestFrobeniusInner:
    def test_identity_pair(self):
        eye = SymMat.identity(2)
        assert frobenius_inner(eye, eye) == 2.0

    def test_small_explicit(self):
        a = SymMat.from_dense(np.array([[1.0, 2.0], [2.0, 3.0]]))
        assert frobenius_inner(a, a) == 18.0  # 1 + 4 + 4 + 9

    def test_matches_trace_oracle(self):
        rng = np.random.default_rng(5)
        a, b = random_sym(rng, 5), random_sym(rng, 5)
        oracle = float(np.trace(a.to_dense() @ b.to_dense()))
        assert frobenius_inner(a, b) == pytest.approx(oracle, rel=1e-12)

    def test_symmetric_and_bilinear(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a, b, c = (random_sym(rng, 4) for _ in range(3))
            ab = frobenius_inner(a, b)
            assert ab == frobenius_inner(b, a)
            lhs = frobenius_inner(a + b, c)
            rhs = frobenius_inner(a, c) + frobenius_inner(b, c)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            frobenius_inner(SymMat.identity(2), SymMat.identity(3))


class TestSymEig:
    def test_identity(self):
        d = sym_eig(SymMat.identity(3))
        np.testing.assert_allclose(d.eigvals, np.ones(3))

    def test_diagonal(self):
        d = sym_eig(SymMat.diag([3.0, 1.0, -2.0]))
        np.testing.assert_allclose(d.eigvals, [3.0, 1.0, -2.0], atol=1e-14)
        # eigenvectors are signed standard basis vectors
        for col, expected_axis in zip(d.eigvecs.T, [0, 1, 2]):
            assert abs(abs(col[expected_axis]) - 1.0) < 1e-14

    def test_reconstruction_random(self):
        rng = np.random.default_rng(7)
        m = random_sym(rng, 8)
        d = sym_eig(m)
        rec = (d.eigvecs * d.eigvals) @ d.eigvecs.T
        assert np.linalg.norm(rec - m.to_dense()) < 1e-10 * max(1.0, m.norm())

    def test_contract_on_many_random_matrices(self):
        rng = np.random.default_rng(8)
        for trial in range(100):
            n = int(rng.integers(2, 21))
            m = random_sym(rng, n)
            d = sym_eig(m)
            assert np.all(np.diff(d.eigvals) <= 1e-12)  # non-increasing
            norms = np.linalg.norm(d.eigvecs, axis=0)
            assert np.max(np.abs(norms - 1.0)) < 1e-12
            gram_v = d.eigvecs.T @ d.eigvecs - np.eye(n)
            off = gram_v - np.diag(np.diag(gram_v))
            assert np.max(np.abs(off)) < 1e-10
            rec = (d.eigvecs * d.eigvals) @ d.eigvecs.T
            assert np.linalg.norm(rec - m.to_dense()) < 1e-10 * max(1.0, m.norm())

    def test_nonfinite_rejected(self):
        bad = SymMat(2, np.array([1.0, np.nan, 2.0]))
        with pytest.raises(ValueError):
            sym_eig(bad)
