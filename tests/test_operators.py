import numpy as np
import pytest

import pdhgsdp.operators as operators_module
from pdhgsdp.linalg import SymMat, frobenius_inner_dense
from pdhgsdp.operators import (
    ConstraintMap,
    apply_A,
    adjoint,
    apply_At,
    build_T,
    forward,
    gram,
    lambda_max_AAt,
)
from pdhgsdp.problems import gen_maxcut, gen_random, gen_snl


def random_mats(rng, m, n) -> tuple[SymMat, ...]:
    return tuple(SymMat.from_dense(rng.standard_normal((n, n))) for _ in range(m))


def random_map(rng, m, n) -> ConstraintMap:
    return ConstraintMap(random_mats(rng, m, n))


def maxcut_map(n) -> ConstraintMap:
    mats = []
    for i in range(n):
        e = np.zeros((n, n))
        e[i, i] = 1.0
        mats.append(SymMat.from_dense(e))
    return ConstraintMap(tuple(mats))


class TestApplyA:
    def test_identity_pairing(self):
        cmap = ConstraintMap((SymMat.identity(2),))
        np.testing.assert_allclose(apply_A(cmap, SymMat.identity(2)), [2.0])

    def test_zero_input(self):
        rng = np.random.default_rng(0)
        cmap = random_map(rng, 3, 4)
        np.testing.assert_array_equal(apply_A(cmap, SymMat.zeros(4)), np.zeros(3))

    def test_maxcut_extracts_diagonal(self):
        rng = np.random.default_rng(1)
        x = SymMat.from_dense(rng.standard_normal((5, 5)))
        np.testing.assert_allclose(apply_A(maxcut_map(5), x), np.diag(x.to_dense()))

    def test_dimension_mismatch(self):
        cmap = ConstraintMap((SymMat.identity(3),))
        with pytest.raises(ValueError):
            apply_A(cmap, SymMat.identity(2))


class TestApplyAt:
    def test_unit_vector_selects_matrix(self):
        rng = np.random.default_rng(2)
        mats = random_mats(rng, 3, 4)
        cmap = ConstraintMap(mats)
        out = apply_At(cmap, np.array([1.0, 0.0, 0.0]))
        np.testing.assert_array_equal(out.to_dense(), mats[0].to_dense())

    def test_zero_vector(self):
        rng = np.random.default_rng(3)
        cmap = random_map(rng, 2, 3)
        assert apply_At(cmap, np.zeros(2)).norm() == 0.0

    def test_length_mismatch(self):
        cmap = ConstraintMap((SymMat.identity(2),))
        with pytest.raises(ValueError):
            apply_At(cmap, np.zeros(2))

    def test_adjoint_identity(self):
        # <A(X), y> and <X, A^T(y)> computed through independent routes
        rng = np.random.default_rng(4)
        cmap = random_map(rng, 4, 5)
        for _ in range(50):
            x = SymMat.from_dense(rng.standard_normal((5, 5)))
            y = rng.standard_normal(4)
            lhs = float(apply_A(cmap, x) @ y)
            rhs = frobenius_inner_dense(x.dense, apply_At(cmap, y).dense)
            tol = 1e-10 * (1.0 + x.norm() * np.linalg.norm(y))
            assert abs(lhs - rhs) <= tol


class TestGram:
    def test_single_identity(self):
        cmap = ConstraintMap((SymMat.identity(4),))
        np.testing.assert_allclose(gram(cmap), [[4.0]])

    def test_orthonormal_family(self):
        # E_11, E_22 and the normalized symmetric off-diagonal unit
        e1 = np.zeros((2, 2)); e1[0, 0] = 1.0
        e2 = np.zeros((2, 2)); e2[1, 1] = 1.0
        off = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0)
        cmap = ConstraintMap(tuple(SymMat.from_dense(a) for a in (e1, e2, off)))
        np.testing.assert_allclose(gram(cmap), np.eye(3), atol=1e-15)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(5)
        mats = random_mats(rng, 4, 3)
        cmap = ConstraintMap(mats)
        oracle = np.empty((4, 4))
        for i in range(4):
            for j in range(4):
                oracle[i, j] = frobenius_inner_dense(mats[i].dense, mats[j].dense)
        np.testing.assert_allclose(gram(cmap), oracle, rtol=1e-12)

    def test_gram_psd(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            cmap = random_map(rng, 5, 4)
            assert np.linalg.eigvalsh(gram(cmap))[0] >= -1e-10


class TestLambdaMax:
    def test_single_identity(self):
        cmap = ConstraintMap((SymMat.identity(6),))
        assert lambda_max_AAt(cmap) == pytest.approx(6.0, rel=1e-12)

    def test_maxcut_is_one(self):
        assert lambda_max_AAt(maxcut_map(7)) == pytest.approx(1.0, rel=1e-13)

    def test_matches_lifted_power_iteration_oracle(self):
        # power iteration on X -> A^T(A(X)) over symmetric matrices
        rng = np.random.default_rng(7)
        cmap = random_map(rng, 5, 4)
        x = rng.standard_normal((4, 4))
        x = x + x.T
        lam = 0.0
        for _ in range(5000):
            ax = forward(cmap, x)
            x_next = adjoint(cmap, ax)
            nrm = np.linalg.norm(x_next)
            x = x_next / nrm
            lam_new = float(forward(cmap, x) @ forward(cmap, x))
            if abs(lam_new - lam) < 1e-12 * max(1.0, lam_new):
                lam = lam_new
                break
            lam = lam_new
        assert lambda_max_AAt(cmap) == pytest.approx(lam, rel=1e-8)


class TestBuildT:
    def test_single_constraint_unit_norm(self):
        a1 = SymMat.from_dense(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert frobenius_inner_dense(a1.dense, a1.dense) == 1.0
        lifted = build_T(ConstraintMap((a1,)), R=0.5)
        np.testing.assert_allclose(lifted.S, [[1.0]])
        assert np.linalg.norm(lifted.T[0]) == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(lifted.T @ lifted.T.T, [[1.0]], rtol=1e-12)

    def test_boundary_R_rejected(self):
        cmap = ConstraintMap((SymMat.identity(3),))
        lam = lambda_max_AAt(cmap)
        with pytest.raises(ValueError):
            build_T(cmap, R=1.0 / lam)
        with pytest.raises(ValueError):
            build_T(cmap, R=-0.1)

    def test_certificates_random(self):
        rng = np.random.default_rng(8)
        cmap = random_map(rng, 6, 5)
        r = 0.9 / lambda_max_AAt(cmap)
        lifted = build_T(cmap, r)
        g = gram(cmap)
        s = (1.0 / r) * np.eye(6) - g
        tt = lifted.T @ lifted.T.T
        assert np.linalg.norm(tt - s) < 1e-10 * max(1.0, np.linalg.norm(s))
        assert np.linalg.norm(g + tt - (1.0 / r) * np.eye(6)) < 1e-9
        # S itself is positive semidefinite
        assert np.linalg.eigvalsh(s)[0] >= -1e-10

    def test_more_constraints_than_entries(self):
        # m > n^2: the Gram is singular, yet S is positive definite
        rng = np.random.default_rng(9)
        cmap = random_map(rng, 5, 2)
        r = 0.9 / lambda_max_AAt(cmap)
        lifted = build_T(cmap, r)
        assert lifted.T.shape == (5, 5)
        s = (1.0 / r) * np.eye(5) - gram(cmap)
        assert np.linalg.norm(lifted.T @ lifted.T.T - s) < 1e-10

    def test_indefinite_S_is_value_error(self, monkeypatch):
        # a Gram whose top eigenvalue exceeds 1/R by 1e-13, unseen by the
        # cached lambda_max: S is indefinite within roundoff and is refused
        rng = np.random.default_rng(10)
        cmap = random_map(rng, 4, 3)
        lam = lambda_max_AAt(cmap)
        true_gram = gram(cmap)
        top = np.linalg.eigh(true_gram)[1][:, -1]
        lifted_gram = true_gram + (lam + 1e-13) * np.outer(top, top)
        monkeypatch.setattr(operators_module, "gram", lambda _cmap: lifted_gram)
        with pytest.raises(ValueError, match="positivity"):
            build_T(cmap, 0.5 / lam)


def test_constraint_map_validation():
    with pytest.raises(ValueError):
        ConstraintMap(())
    with pytest.raises(ValueError):
        ConstraintMap((SymMat.identity(2), SymMat.identity(3)))


# --- stored forms ------------------------------------------------------------


def random_triples(rng, m, n, count):
    """Random entries with repeated (i, j) pairs, both triangles named, and
    explicit zeros."""
    con = rng.integers(0, m, size=count)
    i = rng.integers(0, n, size=count)
    j = rng.integers(0, n, size=count)
    vals = rng.standard_normal(count)
    vals[::7] = 0.0
    # repeat a few entries, some with the triangle swapped
    con = np.concatenate([con, con[:5], con[5:9]])
    i, j = np.concatenate([i, i[:5], j[5:9]]), np.concatenate([j, j[:5], i[5:9]])
    return con, i, j, np.concatenate([vals, rng.standard_normal(9)])


def oracle_stack(m, n, con, i, j, vals) -> np.ndarray:
    """(m, n, n) stack with every entry added at (i, j) and at (j, i)."""
    stack = np.zeros((m, n, n))
    off = i != j
    np.add.at(stack, (con, i, j), vals)
    np.add.at(stack, (con[off], j[off], i[off]), vals[off])
    return stack


def forced(form, monkeypatch, build):
    """Build a map with the dense/sparse choice forced to ``form``."""
    monkeypatch.setattr(operators_module, "_DENSE_ABOVE", -1.0 if form == "dense" else 2.0)
    cmap = build()
    monkeypatch.undo()
    assert (cmap.coo is None) == (form == "dense")
    return cmap


FORMS = ("dense", "coo")


class TestStoredForms:
    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("m,n,count", [(4, 5, 12), (7, 9, 40), (3, 4, 60)])
    def test_matches_dense_stack_oracle(self, form, m, n, count, monkeypatch):
        rng = np.random.default_rng(m * 100 + n)
        entries = random_triples(rng, m, n, count)
        stack = oracle_stack(m, n, *entries)
        cmap = forced(form, monkeypatch, lambda: ConstraintMap.from_triples(m, n, *entries))
        flat = stack.reshape(m, -1)
        for _ in range(5):
            x = rng.standard_normal((n, n))
            y = rng.standard_normal(m)
            np.testing.assert_allclose(forward(cmap, x), flat @ x.ravel(),
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(adjoint(cmap, y), np.tensordot(y, stack, axes=1),
                                       rtol=1e-12, atol=1e-12)
        for r in range(m):
            np.testing.assert_allclose(apply_At(cmap, np.eye(m)[r]).to_dense(), stack[r],
                                       rtol=1e-15)
        np.testing.assert_allclose(gram(cmap), flat @ flat.T, rtol=1e-12, atol=1e-12)
        lam = np.linalg.eigvalsh(flat @ flat.T)[-1]
        assert lambda_max_AAt(cmap) == pytest.approx(lam, rel=1e-12)

    @pytest.mark.parametrize("form", FORMS)
    def test_rms_row_norm_matches_gram_trace(self, form, monkeypatch):
        rng = np.random.default_rng(13)
        m, n = 6, 5
        entries = random_triples(rng, m, n, 25)
        cmap = forced(form, monkeypatch, lambda: ConstraintMap.from_triples(m, n, *entries))
        flat = oracle_stack(m, n, *entries).reshape(m, -1)
        assert cmap.rms_row_norm() == pytest.approx(
            np.sqrt(np.trace(flat @ flat.T) / m), rel=1e-14)

    @pytest.mark.parametrize("form", FORMS)
    def test_adjoint_exactly_symmetric(self, form, monkeypatch):
        rng = np.random.default_rng(11)
        for m, n in [(3, 4), (6, 7), (20, 12)]:
            cmap = forced(form, monkeypatch, lambda: random_map(rng, m, n))
            for _ in range(5):
                at_y = adjoint(cmap, rng.standard_normal(m))
                assert np.array_equal(at_y, at_y.T)

    @pytest.mark.parametrize("form", FORMS)
    def test_forward_rejects_an_array_of_another_size(self, form, monkeypatch):
        cmap = forced(form, monkeypatch, lambda: random_map(np.random.default_rng(18), 3, 4))
        for size in (5, 3):
            with pytest.raises(ValueError):
                forward(cmap, np.ones((size, size)))

    @pytest.mark.parametrize("form", FORMS)
    def test_upper_triples_round_trip(self, form, monkeypatch):
        rng = np.random.default_rng(12)
        m, n = 5, 6
        entries = random_triples(rng, m, n, 30)
        cmap = forced(form, monkeypatch, lambda: ConstraintMap.from_triples(m, n, *entries))
        con, i, j, vals = cmap.upper_triples()
        assert np.all(i <= j) and np.all(vals != 0.0)
        keys = (con * n + i) * n + j
        assert np.all(np.diff(keys) > 0)  # by constraint, then row-major, no repeats
        np.testing.assert_allclose(oracle_stack(m, n, con, i, j, vals),
                                   oracle_stack(m, n, *entries), rtol=1e-15)

    def test_mats_and_triples_build_the_same_map(self):
        rng = np.random.default_rng(13)
        # diagonal matrices with about two nonzeros in 210 slots each
        sparse = tuple(SymMat(np.diag(rng.standard_normal(20) * (rng.random(20) < 0.1)))
                       for _ in range(15))
        for mats, dense in ((random_mats(rng, 4, 6), True), (sparse, False)):
            from_mats = ConstraintMap(mats)
            m, n = from_mats.m, from_mats.n
            from_triples = ConstraintMap.from_triples(m, n, *from_mats.upper_triples())
            assert (from_mats.coo is None) == (from_triples.coo is None) == dense
            if from_mats.coo is None:
                np.testing.assert_array_equal(from_mats.dense, from_triples.dense)
            else:
                for a, b in zip(from_mats.coo, from_triples.coo):
                    np.testing.assert_array_equal(a, b)

    def test_random_map_is_dense_and_sparse_families_hold_no_matrix(self):
        rg = gen_random(1, n=20, m=10).constraints
        assert rg.coo is None and rg.dense.shape == (10, 400)
        mc = gen_maxcut(1, n=20, m_edges=30).constraints
        snl = gen_snl(1)[0].constraints
        for cmap in (mc, snl):
            assert cmap.dense is None and cmap.coo is not None

    def test_from_triples_validation(self):
        with pytest.raises(ValueError):
            ConstraintMap.from_triples(0, 2, [], [], [], [])
        with pytest.raises(ValueError):
            ConstraintMap.from_triples(1, 2, [0], [0], [0, 1], [1.0, 1.0])
        with pytest.raises(ValueError):
            ConstraintMap.from_triples(1, 2, [1], [0], [0], [1.0])
        with pytest.raises(ValueError):
            ConstraintMap.from_triples(1, 2, [0], [0], [2], [1.0])
        # a fractional index would be truncated to another entry
        for bad, name in [(([0.0], [1], [0]), "con"), (([0], [1.7], [0]), "i"),
                          (([0], [1], [0.2]), "j")]:
            with pytest.raises(ValueError, match=f"^{name} must hold integer indices"):
                ConstraintMap.from_triples(1, 3, *bad, [1.0])
        for dtype in (np.int8, np.uint16, np.int32, np.uint64):
            idx = np.array([0, 1], dtype=dtype)
            cmap = ConstraintMap.from_triples(2, 3, idx, idx, idx[::-1], [1.0, 2.0])
            np.testing.assert_array_equal(forward(cmap, np.ones((3, 3))), [2.0, 4.0])
        empty = ConstraintMap.from_triples(2, 3, [], [], [], [])
        np.testing.assert_array_equal(forward(empty, np.ones((3, 3))), np.zeros(2))
        assert lambda_max_AAt(empty) == 0.0

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, form, bad, monkeypatch):
        mat = np.eye(3)
        mat[0, 2] = mat[2, 0] = bad
        builds = (lambda: ConstraintMap((SymMat.identity(3), SymMat(mat))),
                  lambda: ConstraintMap.from_triples(2, 3, [0, 1], [0, 2], [0, 0],
                                                     [1.0, bad]))
        for build in builds:
            with pytest.raises(ValueError, match="non-finite"):
                forced(form, monkeypatch, build)


class TestLambdaMaxBranches:
    def test_cached_on_the_map(self, monkeypatch):
        cmap = random_map(np.random.default_rng(14), 4, 5)
        calls = []
        real_gram = operators_module.gram
        monkeypatch.setattr(operators_module, "gram",
                            lambda c: calls.append(1) or real_gram(c))
        first = lambda_max_AAt(cmap)
        assert lambda_max_AAt(cmap) == first
        assert len(calls) == 1

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("limit", [2000, 0])
    def test_gram_and_power_iteration_against_eigvalsh(self, form, limit, monkeypatch):
        rng = np.random.default_rng(15)
        m, n = 12, 6
        entries = random_triples(rng, m, n, 50)
        flat = oracle_stack(m, n, *entries).reshape(m, -1)
        exact = np.linalg.eigvalsh(flat @ flat.T)[-1]
        cmap = forced(form, monkeypatch, lambda: ConstraintMap.from_triples(m, n, *entries))
        monkeypatch.setattr(operators_module, "_GRAM_EIG_LIMIT", limit)
        lam = lambda_max_AAt(cmap)
        if limit >= m:
            assert lam == pytest.approx(exact, rel=1e-12)
        else:
            # Lanczos: its m = 12 steps span the whole space, so the top Ritz
            # value is exact and only the inflation by 1/(1 - eps) is left
            inflated = exact / (1.0 - operators_module._LANCZOS_EPS)
            assert exact <= lam == pytest.approx(inflated, rel=1e-12)


# --- one implementation of A and A^T -----------------------------------------


def direct_forward(cmap, x):
    """A(X) applied straight to the stored form: a GEMV or a gather."""
    if cmap.coo is None:
        return cmap.dense @ x.ravel()
    rows, cols, vals = cmap.coo
    return np.bincount(rows, weights=vals * x.ravel()[cols], minlength=cmap.m)


def direct_adjoint(cmap, y):
    """A^T(y) applied straight to the stored form, n-by-n."""
    n = cmap.n
    if cmap.coo is None:
        return (y @ cmap.dense).reshape(n, n)
    rows, cols, vals = cmap.coo
    return np.bincount(cols, weights=vals * y[rows], minlength=n * n).reshape(n, n)


def direct_gram(cmap):
    """The Gram from the stored form: one matrix product for a dense map, one
    n-by-n adjoint and forward per row for a sparse one."""
    if cmap.coo is None:
        g = cmap.dense @ cmap.dense.T
    else:
        g = np.array([direct_forward(cmap, direct_adjoint(cmap, e)) for e in np.eye(cmap.m)])
    return 0.5 * (g + g.T)


def repeated_triples_map(count):
    """A map from ``count`` entries (and 9 repeats) that name both triangles:
    sparse at 20, dense at 60."""
    rng = np.random.default_rng(16)
    return ConstraintMap.from_triples(9, 12, *random_triples(rng, 9, 12, count))


BITWISE_MAPS = {
    **{f"{family}-{seed}": (lambda make=make, seed=seed: make(seed).constraints)
       for family, make in (("rg", lambda s: gen_random(s, n=50, m=50)),
                            ("mc", lambda s: gen_maxcut(s, n=150, m_edges=150)),
                            ("snl", lambda s: gen_snl(s)[0]))
       for seed in (1, 2, 101, 102)},
    "triples-coo": lambda: repeated_triples_map(20),
    "triples-dense": lambda: repeated_triples_map(60),
}


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", sorted(BITWISE_MAPS))
def test_packed_route_gives_the_stored_forms_bits(case):
    """forward, adjoint, apply_A, apply_At and gram run on the map packed
    over its stored entries, and give the bits of applying the stored form
    directly, signs of zeros included."""
    cmap = BITWISE_MAPS[case]()
    assert (cmap.coo is None) == case.startswith(("rg", "triples-dense"))
    rng = np.random.default_rng(17)
    for _ in range(3):
        x = SymMat(rng.standard_normal((cmap.n, cmap.n)))
        y = rng.standard_normal(cmap.m)
        assert same_bytes(forward(cmap, x.dense), direct_forward(cmap, x.dense))
        assert same_bytes(apply_A(cmap, x), direct_forward(cmap, x.dense))
        assert same_bytes(adjoint(cmap, y), direct_adjoint(cmap, y))
        assert same_bytes(apply_At(cmap, y).dense, direct_adjoint(cmap, y))
    assert same_bytes(gram(cmap), direct_gram(cmap))


@pytest.mark.parametrize("case", sorted(BITWISE_MAPS))
def test_pattern_marks_where_some_matrix_is_nonzero(case):
    """On generated maps of both forms and on maps from entries that repeat,
    cancel or name the lower triangle."""
    cmap = BITWISE_MAPS[case]()
    stack = np.stack([adjoint(cmap, e) for e in np.eye(cmap.m)])
    pattern = cmap.pattern()
    assert pattern.dtype == bool
    np.testing.assert_array_equal(pattern, np.any(stack != 0, axis=0))


@pytest.mark.parametrize("form", FORMS)
def test_pattern_of_a_map_with_a_zero_matrix(form, monkeypatch):
    # A_1 is zero, and A_2's entries cancel on (3, 0)
    entries = [np.array(a) for a in ([0, 2, 2, 2, 2], [0, 1, 3, 0, 3], [2, 1, 0, 3, 3],
                                     [1.0, -2.0, 0.5, -0.5, 4.0])]
    cmap = forced(form, monkeypatch, lambda: ConstraintMap.from_triples(3, 4, *entries))
    stack = oracle_stack(3, 4, *entries)
    assert not stack[1].any()
    want = np.zeros((4, 4), dtype=bool)
    want[[0, 2, 1, 3], [2, 0, 1, 3]] = True
    np.testing.assert_array_equal(np.any(stack != 0, axis=0), want)
    np.testing.assert_array_equal(cmap.pattern(), want)


def test_large_m_bound_holds_on_clustered_top_eigenvalues(monkeypatch):
    """AA^T = diag(1 - 1e-4 i), i < 200: the top eigenvalues cluster, so the
    gap that power iteration converged by is 1e-4, and its stopping rule
    ended 6.8e-5 below lambda_max. The Lanczos bound is above it, by at most
    the inflation 1/(1 - eps)."""
    m = 200
    idx = np.arange(m)
    cmap = ConstraintMap.from_triples(m, m, idx, idx, idx, np.sqrt(1.0 - 1e-4 * idx))
    exact = np.linalg.eigvalsh(gram(cmap))[-1]
    monkeypatch.setattr(operators_module, "_GRAM_EIG_LIMIT", 0)
    lam = lambda_max_AAt(cmap)
    assert lam >= exact
    assert lam <= exact / (1.0 - operators_module._LANCZOS_EPS) * (1.0 + 1e-12)
