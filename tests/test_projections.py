import collections
import ctypes
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
from pdhgsdp.bench import make_problem
from pdhgsdp.solver import (
    BalancedResidualPolicy,
    SolveConfig,
    TuningFreePolicy,
    make_policy,
    solve,
)


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
    """Run a test on the partial LAPACK solver (dsyevx's stages) and on the
    eigh fallback."""
    if request.param == "eigh":
        monkeypatch.setattr(projections_module, "_LAPACK", None)
    elif projections_module._LAPACK is None:
        pytest.skip("numpy's LAPACK lacks one of dsyevx's stages")
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
        """Each run of blocks below the crossover, a lone block included,
        goes through one batched eigendecomposition, every other block
        through the staged solve in place on the packed vector itself, in its
        run's own workspace."""
        if projections_module._LAPACK is None:
            pytest.skip("numpy's LAPACK lacks one of dsyevx's stages")
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
        assert [ws is None for _, _, ws in layout.runs] == [False, False, True, True, True]
        workspace_of = {k: id(ws) for k, _, ws in layout.runs}
        x = layout.pack(block_matrix(np.random.default_rng(1), blocks)[0])
        proj_psd_packed(x, layout.runs)
        assert batched == [(3, 4, 4), (1, 3, 3), (1, 2, 2)]
        assert in_place == [(k, True, workspace_of[k]) for k in (14, 12, 12)]

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
        if projections_module._LAPACK is None:
            pytest.skip("numpy's LAPACK lacks one of dsyevx's stages")
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
    """numpy wheels link scipy-openblas, which exports all five of dsyevx's
    stages; a silent fall-back to eigh there would hide the partial solver's
    speed-up."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:
        pytest.skip("this numpy cannot report its build configuration")
    lapack = config.get("Build Dependencies", {}).get("lapack", {})
    if lapack.get("name") != "scipy-openblas":
        pytest.skip(f"numpy links {lapack.get('name')!r}, not scipy-openblas")
    stages = projections_module._LAPACK
    assert stages is not None
    assert stages._fields == ("dsytrd", "dstebz", "dsterf", "dstein", "dormtr")
    assert all(isinstance(fn, ctypes._CFuncPtr) for fn in stages)


def load_dsyevx():
    """numpy's own ILP64 dsyevx, the reference the bisection branch must
    equal bit for bit, or None where numpy's LAPACK exports none."""
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError, AttributeError):
        return None
    for name in ("scipy_dsyevx_64_", "dsyevx_64_"):
        fn = getattr(lib, name, None)
        if fn is not None:
            # 20 Fortran arguments, all by reference, then the hidden lengths
            # of the three character arguments
            fn.argtypes = [ctypes.c_void_p] * 20 + [ctypes.c_size_t] * 3
            fn.restype = None
            return fn
    return None


DSYEVX = load_dsyevx()


def dsyevx_factor(mat):
    """V^T from one dsyevx call for the eigenpairs in (0, +inf] at the
    projection's tolerance, on a row-major copy of ``mat`` read as LAPACK
    reads the staged solve's buffer, in the layout the staged solve returns."""
    n = mat.shape[0]
    a = np.array(mat, dtype=float, order="C")
    w, z = np.empty(n), np.empty((n, n), order="F")
    m, info = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    ints = np.array([n, n, 1, n, n, 8 * n], dtype=np.int64)  # n, lda, il, iu, ldz, lwork
    reals = np.array([0.0, np.inf, projections_module._ABSTOL])  # vl, vu, abstol
    chars = np.frombuffer(b"VVL", dtype=np.uint8).copy()  # jobz, range, uplo
    work, iwork = np.empty(8 * n), np.empty(5 * n, dtype=np.int64)
    ifail = np.empty(n, dtype=np.int64)
    i, r, c = ints.ctypes.data, reals.ctypes.data, chars.ctypes.data
    DSYEVX(c, c + 1, c + 2, i, a.ctypes.data, i + 8, r, r + 8, i + 16, i + 24, r + 16,
           m.ctypes.data, w.ctypes.data, z.ctypes.data, i + 32, work.ctypes.data, i + 40,
           iwork.ctypes.data, ifail.ctypes.data, info.ctypes.data, 1, 1, 1)
    assert info[0] == 0
    k = int(m[0])
    return z[:, :k].T * np.sqrt(w[:k])[:, np.newaxis]


def staged_factor(mat):
    """V^T from the staged solve, on a row-major copy of ``mat``."""
    a = np.array(mat, dtype=float, order="C")
    return projections_module._positive_factor(projections_module._Workspace(len(a)), a)


def with_spectrum(rng, vals):
    """An exactly symmetric matrix with eigenvalues ``vals`` in a random basis."""
    q, _ = np.linalg.qr(rng.standard_normal((len(vals), len(vals))))
    mat = (q * vals) @ q.T
    return 0.5 * (mat + mat.T)


def stage_case(name):
    """Inputs that reach every path of the staged solve: a tridiagonal T that
    splits (block-diagonal and diagonal inputs, whose eigenvalues dstebz
    returns block by block, out of order), repeated eigenvalues, the
    identity, a negative semidefinite matrix with a zero eigenvalue, and
    entries beyond the range dsyevx scales into."""
    rng = np.random.default_rng(7)
    if name == "block-diagonal":
        mat = np.zeros((12, 12))
        for lo, hi in ((0, 5), (5, 7), (7, 12)):
            mat[lo:hi, lo:hi] = random_sym(rng, hi - lo).to_dense()
        return mat
    return {
        "diagonal": lambda: np.diag(rng.standard_normal(9)),
        "repeated": lambda: with_spectrum(rng, np.repeat([2.0, 0.5, -1.0], 4)),
        "identity": lambda: np.eye(6),
        "negative-semidefinite": lambda: with_spectrum(rng, [0.0, -1.0, -2.0, -2.0, -3.0]),
        "random-50": lambda: random_sym(rng, 50).to_dense(),
        "huge": lambda: 1e100 * random_sym(rng, 10).to_dense(),
        "tiny": lambda: 1e-150 * random_sym(rng, 10).to_dense(),
    }[name]()


STAGE_CASES = ("block-diagonal", "diagonal", "repeated", "identity", "negative-semidefinite",
               "random-50", "huge", "tiny")


def lapack_spy(monkeypatch):
    """Record, for each staged solve, its block's size n (as ``"n"``) and the
    LAPACK stages it calls, with how often."""
    real = projections_module._LAPACK
    calls = []

    def spy(name):
        def call(*args):
            if name == "dsytrd":
                # dsytrd's second argument is the address of n
                calls.append(collections.Counter(n=ctypes.c_int64.from_address(args[1]).value))
            calls[-1][name] += 1
            return getattr(real, name)(*args)
        return call

    monkeypatch.setattr(projections_module, "_LAPACK",
                        projections_module._Lapack(*map(spy, real._fields)))
    return calls


def branch_of(stages):
    """The eigenvalue stage a staged solve took: dsterf, bisection (a second
    dstebz after the count) or none (no positive eigenvalue)."""
    if stages["dsterf"]:
        return "dsterf"
    return "bisection" if stages["dstebz"] == 2 else "none"


BENCH_SIZES = {"mc": {"n": 150, "m_edges": 150}, "rg": {"n": 50, "m": 50}}
BENCH_POLICY = {"mc": "bpdr", "rg": "tf", "snl": "ls"}


@pytest.fixture(scope="module")
def solver_inputs():
    """Every staged solve's input in the first 150 iterations of one solve of
    each benchmark family, at the benchmark's sizes and policies."""
    if projections_module._LAPACK is None:
        pytest.skip("numpy's LAPACK lacks one of dsyevx's stages")
    inputs = {}
    real = projections_module._positive_factor

    def capture(ws, a):
        inputs[family].append(a.copy())
        return real(ws, a)

    projections_module._positive_factor = capture
    try:
        for family in ("rg", "mc", "snl"):
            inputs[family] = []
            solve(make_problem(family, 1, BENCH_SIZES), make_policy(BENCH_POLICY[family]),
                  SolveConfig(max_iters=150, tol=1e-300))
    finally:
        projections_module._positive_factor = real
    return inputs


@pytest.mark.skipif(projections_module._LAPACK is None or DSYEVX is None,
                    reason="numpy's LAPACK lacks dsyevx or one of its stages")
class TestStagedSolve:
    """dsyevx's stages, run one by one, with dsterf for the eigenvalues when
    many are positive."""

    @pytest.mark.parametrize("name", STAGE_CASES)
    def test_bisection_branch_is_dsyevx_bit_for_bit(self, name, monkeypatch):
        monkeypatch.setattr(projections_module, "_DSTERF_ABOVE", np.inf)
        mat = stage_case(name)
        np.testing.assert_array_equal(staged_factor(mat), dsyevx_factor(mat))

    @pytest.mark.parametrize("family", ["rg", "mc", "snl"])
    def test_bisection_branch_is_dsyevx_on_solver_inputs(self, family, solver_inputs,
                                                         monkeypatch):
        monkeypatch.setattr(projections_module, "_DSTERF_ABOVE", np.inf)
        for mat in solver_inputs[family][::10]:
            np.testing.assert_array_equal(staged_factor(mat), dsyevx_factor(mat))

    @pytest.mark.parametrize("branch", ["bisection", "dsterf"])
    @pytest.mark.parametrize("name", STAGE_CASES)
    def test_both_branches_match_the_clipping_oracle(self, name, branch, monkeypatch):
        monkeypatch.setattr(projections_module, "_DSTERF_ABOVE",
                            np.inf if branch == "bisection" else 0.0)
        mat = stage_case(name)
        assert np.linalg.norm(proj_psd_dense(mat) - clipping_oracle(mat)) \
            <= 1e-12 * np.linalg.norm(mat)

    @pytest.mark.parametrize("branch", ["bisection", "dsterf"])
    @pytest.mark.parametrize("n", [2, 9, 50])
    def test_both_branches_match_the_oracle_across_k(self, n, branch, monkeypatch):
        """Random spectra with every share k/n of positive eigenvalues, from
        none to all, on both branches."""
        monkeypatch.setattr(projections_module, "_DSTERF_ABOVE",
                            np.inf if branch == "bisection" else 0.0)
        rng = np.random.default_rng(n)
        for k in sorted({0, 1, n // 10, n // 4, n // 2, n - 1, n}):
            vals = -rng.uniform(0.1, 2.0, n)
            vals[:k] = rng.uniform(0.1, 2.0, k)
            mat = with_spectrum(rng, vals)
            assert np.linalg.norm(proj_psd_dense(mat) - clipping_oracle(mat)) \
                <= 1e-12 * np.linalg.norm(mat), k

    @pytest.mark.parametrize("branch", ["bisection", "dsterf"])
    @pytest.mark.parametrize("family", ["rg", "mc", "snl"])
    def test_both_branches_match_the_oracle_on_solver_inputs(self, family, branch,
                                                              solver_inputs, monkeypatch):
        monkeypatch.setattr(projections_module, "_DSTERF_ABOVE",
                            np.inf if branch == "bisection" else 0.0)
        for mat in solver_inputs[family][::10]:
            # the buffer is read from its upper triangle
            dense = np.triu(mat) + np.triu(mat, 1).T
            out = proj_psd_dense(dense)
            assert np.linalg.norm(out - clipping_oracle(dense)) <= 1e-12 * np.linalg.norm(dense)

    def test_branch_follows_the_count(self, monkeypatch):
        """dsterf when k > _DSTERF_ABOVE * n, bisection below, neither at
        k = 0: the count alone picks, with no option and no state."""
        calls = lapack_spy(monkeypatch)
        rng = np.random.default_rng(3)
        n = 50
        cases = []
        for k in (0, 1, 4, 5, 20):
            vals = -rng.uniform(0.1, 2.0, n)
            vals[:k] = rng.uniform(0.1, 2.0, k)
            proj_psd_dense(with_spectrum(rng, vals))
            cases.append((k, branch_of(calls[-1])))
        limit = projections_module._DSTERF_ABOVE * n
        assert cases == [(k, "none" if k == 0 else "dsterf" if k > limit else "bisection")
                         for k in (0, 1, 4, 5, 20)]
        assert {branch for _, branch in cases} == {"none", "bisection", "dsterf"}

    def test_dsterf_on_rg_bisection_on_mc_and_snl(self, monkeypatch):
        """The benchmark's random SDPs keep many positive eigenvalues and take
        dsterf; its localization problems and the giant block of its max-cut
        graphs keep few and mostly take bisection (one solve each, to the
        benchmark's stop)."""
        calls = lapack_spy(monkeypatch)
        share = {}
        for family in ("rg", "mc", "snl"):
            start = len(calls)
            trace = solve(make_problem(family, 1, BENCH_SIZES), make_policy(BENCH_POLICY[family]),
                          SolveConfig(tol=1e-6))
            assert trace.status == "converged"
            biggest = max(c["n"] for c in calls[start:])
            branches = collections.Counter(branch_of(c) for c in calls[start:] if c["n"] == biggest)
            share[family] = branches["dsterf"] / sum(branches.values())
        assert share["rg"] > 0.9
        assert share["mc"] < 0.5 and share["snl"] < 0.5


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
