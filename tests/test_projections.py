import sys
import threading

import numpy as np
import pytest

import pdhgsdp.projections as projections_module
import pdhgsdp.solver as solver_module
from pdhgsdp.linalg import SymMat
from pdhgsdp.operators import ConstraintMap
from pdhgsdp.problems import SdpProblem, graph_laplacian
from pdhgsdp.projections import approx_proj_psd, proj_psd, proj_psd_dense
from pdhgsdp.solver import SolveConfig, TuningFreePolicy, solve


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pair_raises(self, bad, solver_path):
        mat = np.eye(4)
        mat[0, 1] = mat[1, 0] = bad
        with pytest.raises(np.linalg.LinAlgError):
            proj_psd_dense(mat)

    def test_non_square_raises(self, solver_path):
        with pytest.raises(np.linalg.LinAlgError):
            proj_psd_dense(np.ones((4, 1)))


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

    def permuted(mat):
        return proj_psd_dense(mat[np.ix_(perm, perm)])[np.ix_(back, back)]

    monkeypatch.setattr(solver_module, "proj_psd_dense", permuted)
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
