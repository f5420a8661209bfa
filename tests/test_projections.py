import sys
import threading

import numpy as np
import pytest

import pdhgsdp.projections as projections_module
import pdhgsdp.solver as solver_module
from pdhgsdp.linalg import SymMat
from pdhgsdp.operators import ConstraintMap
from pdhgsdp.problems import SdpProblem, gen_maxcut, graph_laplacian
from pdhgsdp.projections import (
    Layout,
    approx_proj_psd,
    proj_psd,
    proj_psd_dense,
    proj_psd_packed,
)
from pdhgsdp.solver import BalancedResidualPolicy, SolveConfig, TuningFreePolicy, solve


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
        m = SymMat(np.diag([1.0, -1.0]))
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


def cycle_laplacian(n):
    return graph_laplacian(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def spectrum_case(name, n=12):
    """An exactly symmetric test matrix with the named spectrum."""
    rng = np.random.default_rng(0)
    g = rng.standard_normal((n, n))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if name == "random":
        mat = g + g.T
    elif name == "roundoff-dominated":
        # tf's projection input on the degenerate cycle max-cut: a bounded
        # iterate minus a huge multiple of the cost
        mat = np.ones((n, n)) + 1e-2 * (g + g.T) - 1e15 * cycle_laplacian(n)
    elif name == "zero":
        mat = np.zeros((n, n))
    else:
        vals = {
            # four tight clusters, two on each side of zero
            "clustered": np.repeat([3.0, 1.0, -1.0, -2.0], n // 4)
            + 1e-13 * rng.standard_normal(n),
            "all-positive": rng.uniform(0.5, 2.0, n),
            "all-negative": -rng.uniform(0.5, 2.0, n),
        }[name]
        mat = (q * vals) @ q.T
    return 0.5 * (mat + mat.T)


SPECTRA = ("random", "clustered", "all-positive", "all-negative", "zero",
           "roundoff-dominated")


@pytest.fixture(params=["dsyevx", "eigh"])
def solver_path(request, monkeypatch):
    """Run a test on the partial LAPACK solver and on the eigh fallback."""
    if request.param == "eigh":
        monkeypatch.setattr(projections_module, "_DSYEVX", None)
    elif projections_module._DSYEVX is None:
        pytest.skip("numpy's LAPACK exports no dsyevx")
    return request.param


class TestProjPsdDense:
    @pytest.mark.parametrize("name", SPECTRA)
    def test_matches_clipping_oracle(self, name, solver_path):
        mat = spectrum_case(name)
        out = proj_psd_dense(mat)
        assert np.linalg.norm(out - clipping_oracle(mat)) <= 1e-12 * np.linalg.norm(mat)

    def test_rank_extremes(self, solver_path):
        pos = spectrum_case("all-positive")
        np.testing.assert_allclose(proj_psd_dense(pos), pos, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(proj_psd_dense(-pos), np.zeros_like(pos))
        np.testing.assert_array_equal(proj_psd_dense(np.zeros((5, 5))), np.zeros((5, 5)))

    @pytest.mark.parametrize("name", SPECTRA)
    def test_output_exactly_symmetric(self, name, solver_path):
        out = proj_psd_dense(spectrum_case(name))
        np.testing.assert_array_equal(out, out.T)

    @pytest.mark.parametrize("name", SPECTRA)
    def test_permutation_equivariant(self, name, solver_path):
        mat = spectrum_case(name)
        perm = np.random.default_rng(9).permutation(mat.shape[0])
        moved = proj_psd_dense(mat[np.ix_(perm, perm)])
        assert (np.linalg.norm(moved - proj_psd_dense(mat)[np.ix_(perm, perm)])
                <= 1e-12 * np.linalg.norm(mat))

    def test_input_left_unchanged(self, solver_path):
        mat = spectrum_case("random")
        before = mat.copy()
        proj_psd_dense(mat)
        np.testing.assert_array_equal(mat, before)

    def test_column_major_input_left_unchanged(self, solver_path):
        # dsyevx reads a column-major buffer in place: this one must be copied
        mat = np.asfortranarray(spectrum_case("random"))
        before = mat.copy()
        out = proj_psd_dense(mat)
        np.testing.assert_array_equal(mat, before)
        assert np.linalg.norm(out - clipping_oracle(before)) <= 1e-12 * np.linalg.norm(before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pair_raises(self, bad, solver_path):
        mat = np.eye(4)
        mat[0, 1] = mat[1, 0] = bad
        with pytest.raises(np.linalg.LinAlgError):
            proj_psd_dense(mat)

    def test_non_square_raises(self, solver_path):
        with pytest.raises(np.linalg.LinAlgError):
            proj_psd_dense(np.ones((4, 1)))


def interleaved_blocks(rng, sizes):
    """A random partition of range(sum(sizes)) into ascending index sets of
    the given sizes, interleaved rather than contiguous."""
    perm = rng.permutation(sum(sizes))
    cuts = np.cumsum(sizes)[:-1]
    return [np.sort(part) for part in np.split(perm, cuts)]


BLOCK_SIZES = {
    "mixed": [5, 3, 2, 1, 1, 1],
    "pairs": [2, 2, 2, 2],
    "isolated-only": [1] * 6,
    "one-block-and-isolated": [7, 1, 1],
    "whole": [9],
    # big blocks, alone and in a run, next to runs of small ones
    "big-and-small-runs": [14, 12, 12, 4, 4, 4, 3, 2, 1, 1],
}


def block_matrix(rng, blocks):
    """A random symmetric matrix that is zero off ``blocks``, and the mask of
    the entries on them."""
    n = sum(b.size for b in blocks)
    mat = np.zeros((n, n))
    on_blocks = np.zeros((n, n), dtype=bool)
    for b in blocks:
        ix = np.ix_(b, b)
        mat[ix] = random_sym(rng, b.size).to_dense()
        on_blocks[ix] = True
    return mat, on_blocks


def packed_projection(blocks, mat):
    """The engine's projection of a matrix that is zero off ``blocks``: pack
    it, project the packed vector in place, unpack."""
    layout = Layout(blocks, mat.shape[0])
    x = layout.pack(mat)
    proj_psd_packed(x, layout.runs)
    return layout.unpack(x)


class TestBlockProjection:
    """The engine's packed projection of a matrix that is zero off its blocks
    equals the projection of the whole matrix."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("case", sorted(BLOCK_SIZES))
    def test_matches_whole_projection(self, case, seed, solver_path):
        rng = np.random.default_rng(seed)
        blocks = interleaved_blocks(rng, BLOCK_SIZES[case])
        mat, on_blocks = block_matrix(rng, blocks)
        out = packed_projection(blocks, mat)
        assert np.linalg.norm(out - proj_psd_dense(mat)) <= 1e-12 * np.linalg.norm(mat)
        assert np.all(out[~on_blocks] == 0.0)
        np.testing.assert_array_equal(out, out.T)

    def test_paths_by_block_size_and_run(self, monkeypatch):
        """Runs of two or more blocks below the crossover go through one
        batched eigendecomposition, every other block through dsyevx in place
        on the packed vector itself, in its run's own workspace."""
        if projections_module._DSYEVX is None:
            pytest.skip("numpy's LAPACK exports no dsyevx")
        batched, in_place = [], []
        eigh, factor = projections_module._proj_psd_eigh, projections_module._positive_factor

        def spy_eigh(stack):
            batched.append(stack.shape)
            return eigh(stack)

        def spy_factor(ws, a):
            in_place.append((a.shape[0], np.shares_memory(a, x), id(ws)))
            return factor(ws, a)

        monkeypatch.setattr(projections_module, "_proj_psd_eigh", spy_eigh)
        monkeypatch.setattr(projections_module, "_positive_factor", spy_factor)
        monkeypatch.setattr(projections_module, "_BATCH_BELOW", 10)
        blocks = interleaved_blocks(np.random.default_rng(0), BLOCK_SIZES["big-and-small-runs"])
        layout = Layout(blocks, 53)
        assert [(k, count) for k, count, _ in layout.runs] == \
            [(14, 1), (12, 2), (4, 3), (3, 1), (2, 1)]
        assert [ws is None for _, _, ws in layout.runs] == [False, False, True, False, False]
        workspace_of = {k: id(ws) for k, _, ws in layout.runs}
        x = layout.pack(block_matrix(np.random.default_rng(1), blocks)[0])
        proj_psd_packed(x, layout.runs)
        assert batched == [(3, 4, 4)]
        assert in_place == [(k, True, workspace_of[k]) for k in (14, 12, 12, 3, 2)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("where", ["big-block", "small-run", "isolated"])
    def test_non_finite_entry_raises(self, where, bad, solver_path):
        blocks = interleaved_blocks(np.random.default_rng(2), BLOCK_SIZES["big-and-small-runs"])
        layout = Layout(blocks, 53)
        x = layout.pack(block_matrix(np.random.default_rng(3), blocks)[0])
        x[{"big-block": 1, "small-run": 14 * 14 + 2 * 12 * 12 + 5, "isolated": -1}[where]] = bad
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            proj_psd_packed(x, layout.runs)

    @pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
    def test_finite_entries_whose_square_sum_overflows_pass(self):
        # x.x overflows to inf, so only the exact pass can tell these apart
        # from a non-finite entry
        x = np.array([1e200, -1e200, 3e200])
        proj_psd_packed(x, [])
        np.testing.assert_array_equal(x, [1e200, 0.0, 3e200])

    @pytest.mark.parametrize("rank", [0, 1, 2, 5, 14])
    def test_factor_product_is_the_matmul_of_its_factor(self, rank):
        """V V^T of each rank, rank 1 included, is bit for bit the matmul of
        V with V.T that the projection formed before it chose np.dot for a
        rank-1 factor: one rounded product per entry at rank 1, the same
        BLAS call above it."""
        if projections_module._DSYEVX is None:
            pytest.skip("numpy's LAPACK exports no dsyevx")
        rng = np.random.default_rng(rank)
        q, _ = np.linalg.qr(rng.standard_normal((14, 14)))
        vals = -1.0 - rng.random(14)
        vals[:rank] = 1.0 + rng.random(rank)
        mat = (q * vals) @ q.T
        mat = 0.5 * (mat + mat.T)
        ws = projections_module._Workspace(14)
        vt = projections_module._positive_factor(ws, mat.copy())
        assert vt.shape == (rank, 14) and vt.flags.c_contiguous
        v = vt.T.copy(order="F")  # V, laid out as dsyevx returns it
        want = np.empty((14, 14))
        np.matmul(v, v.T, out=want)
        x = mat.ravel().copy()
        proj_psd_packed(x, [(14, 1, ws)])
        np.testing.assert_array_equal(x.reshape(14, 14), want)
        np.testing.assert_array_equal(want, want.T)

    def test_rejects_a_vector_it_cannot_write_in_place(self):
        x = np.eye(4).ravel()
        for bad in (x[::2], x.astype(np.float32), x.reshape(4, 4)):
            with pytest.raises(ValueError, match="contiguous 1-D float64"):
                proj_psd_packed(bad, [(2, 2, None)])


def test_threads_do_not_share_a_workspace():
    """The eigensolver runs without the interpreter lock, so concurrent
    projections of the same size must each write to their own buffers."""
    rng = np.random.default_rng(10)
    mats = [random_sym(rng, 30).to_dense() for _ in range(6)]
    want = [clipping_oracle(mat) for mat in mats]
    errors = []

    def work(i):
        for _ in range(40):
            if np.linalg.norm(proj_psd_dense(mats[i]) - want[i]) > 1e-10:
                errors.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(mats))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_concurrent_solves_match_a_sequential_one():
    """Each solve's layout owns its dsyevx workspaces, so solves of a
    many-block max-cut running in four threads at once give the X_final of
    a solve run alone, bit for bit."""
    prob = gen_maxcut(2, n=80, m_edges=40)
    config = SolveConfig(max_iters=300, tol=1e-300)
    want = solve(prob, BalancedResidualPolicy(), config).X_final.dense
    results = [None] * 4

    def work(i):
        results[i] = solve(prob, BalancedResidualPolicy(), config).X_final.dense

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got in results:
        np.testing.assert_array_equal(got, want)


def cycle_maxcut(n):
    diag = np.arange(n)
    return SdpProblem(SymMat.from_dense(cycle_laplacian(n)),
                      ConstraintMap.from_triples(n, n, diag, diag, diag, np.ones(n)),
                      np.ones(n), {"generator": "mc", "seed": 0})


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tf_cycle_maxcut_converges_under_permuted_projection(seed, monkeypatch):
    """tf drives its primal stepsize to 1e15 and beyond on the cycle max-cut,
    whose dual optimum is degenerate, so its projection input is dominated by
    roundoff. Its convergence must not hinge on the order in which the
    eigensolver sees the rows; an eigenvalue tolerance of 0 in dsyevx's
    bisection breaks this on every one of these orderings."""
    n = 8
    perm = np.random.default_rng(seed).permutation(n)
    back = np.argsort(perm)

    def permuted(x, runs):
        assert [(k, count) for k, count, _ in runs] == [(n, 1)]  # packed as X.ravel()
        mat = x.reshape(n, n)
        mat[...] = proj_psd_dense(mat[np.ix_(perm, perm)])[np.ix_(back, back)]

    monkeypatch.setattr(solver_module, "proj_psd_packed", permuted)
    trace = solve(cycle_maxcut(n), TuningFreePolicy(), SolveConfig(max_iters=20000, tol=1e-6))
    assert trace.status == "converged"
    assert trace.rows[-1].combined < 1e-6


def test_binding_resolves_on_scipy_openblas():
    """numpy wheels link scipy-openblas, which exports dsyevx; a silent
    fall-back to eigh there would hide the partial solver's speed-up."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:
        pytest.skip("this numpy cannot report its build configuration")
    lapack = config.get("Build Dependencies", {}).get("lapack", {})
    if lapack.get("name") != "scipy-openblas":
        pytest.skip(f"numpy links {lapack.get('name')!r}, not scipy-openblas")
    assert projections_module._DSYEVX is not None


class TestApproxProjPsd:
    def test_keeps_top_eigenpair(self):
        m = SymMat(np.diag([3.0, 2.0, 1.0]))
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
