import numpy as np
import pytest

from pdhgsdp.linalg import SymMat, frobenius_inner


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
        assert np.array_equal(SymMat(a).dense, [[1.0, 2.0], [2.0, 2.0]])
        assert SymMat(a).n == 2

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
            SymMat(np.zeros((0, 0)))
        with pytest.raises(ValueError):
            SymMat(np.zeros(5))
        with pytest.raises(ValueError):
            SymMat.from_dense(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            SymMat(np.zeros((2, 2, 2)))

    def test_constructor_does_not_alias_input(self):
        a = np.eye(3)
        m = SymMat(a)
        a[0, 0] = 5.0
        assert m.dense[0, 0] == 1.0

    def test_dense_rejects_writes(self):
        m = SymMat.identity(3)
        with pytest.raises(ValueError):
            m.dense[0, 1] = 1.0
        assert np.array_equal(m.dense, np.eye(3))

    def test_to_dense_is_writable_copy(self):
        m = SymMat.identity(3)
        d = m.to_dense()
        d[0, 1] = 7.0
        assert np.array_equal(m.dense, np.eye(3))
        assert d[0, 1] == 7.0


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
