import numpy as np
import pytest

import pdhgsdp.problems as problems_mod
from pdhgsdp.linalg import SymMat
from pdhgsdp.operators import apply_A, apply_At, lambda_max_AAt
from pdhgsdp.problems import (
    SdpaFormatError,
    SdpProblem,
    gen_maxcut,
    gen_random,
    gen_snl,
    graph_laplacian,
    read_instance,
    write_instance,
)


def dense_mats(cmap) -> np.ndarray:
    """(m, n, n) stack of the constraint matrices, read as A^T(e_i)."""
    return np.stack([apply_At(cmap, e).to_dense() for e in np.eye(cmap.m)])


class TestGenRandom:
    def test_default_sizes(self):
        prob = gen_random(1)
        assert prob.n == 50 and prob.m == 50

    def test_primal_feasibility_exact(self):
        prob = gen_random(3, n=8, m=5)
        x0 = prob.meta["X0"]
        assert np.array_equal(apply_A(prob.constraints, x0), prob.b)

    def test_dual_slack_positive_definite(self):
        prob = gen_random(4, n=8, m=5)
        slack = prob.C.to_dense() - sum(
            yi * a for yi, a in zip(prob.meta["y0"], dense_mats(prob.constraints))
        )
        assert np.linalg.eigvalsh(slack)[0] > 0.0

    def test_deterministic_in_seed(self):
        a = gen_random(7, n=6, m=4)
        b = gen_random(7, n=6, m=4)
        assert np.array_equal(a.C.dense, b.C.dense)
        assert np.array_equal(a.b, b.b)
        assert np.array_equal(dense_mats(a.constraints), dense_mats(b.constraints))
        c = gen_random(8, n=6, m=4)
        assert not np.array_equal(a.b, c.b)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_random(0, n=0, m=1)


class TestGenMaxcut:
    def test_default_sizes(self):
        prob = gen_maxcut(1)
        assert prob.n == 100 and prob.m == 100
        assert len(prob.meta["edges"]) == 100

    def test_single_edge_laplacian(self):
        prob = gen_maxcut(1, n=2, m_edges=1)
        np.testing.assert_allclose(prob.C.to_dense(), [[1.0, -1.0], [-1.0, 1.0]])

    def test_laplacian_against_adjacency_oracle(self):
        prob = gen_maxcut(5, n=10, m_edges=14)
        lap = prob.C.to_dense()
        adj = np.zeros((10, 10))
        for i, j in prob.meta["edges"]:
            adj[i, j] = adj[j, i] = 1.0
        degrees = adj.sum(axis=1)
        np.testing.assert_allclose(np.diag(lap), degrees)
        np.testing.assert_allclose(lap.sum(axis=1), np.zeros(10), atol=1e-14)
        np.testing.assert_allclose(lap, np.diag(degrees) - adj)

    def test_constraints_pin_diagonal(self):
        prob = gen_maxcut(2, n=5, m_edges=4)
        assert prob.m == 5
        np.testing.assert_array_equal(prob.b, np.ones(5))
        for i, mat in enumerate(dense_mats(prob.constraints)):
            expected = np.zeros((5, 5))
            expected[i, i] = 1.0
            np.testing.assert_array_equal(mat, expected)

    def test_gram_is_identity(self):
        prob = gen_maxcut(3, n=6, m_edges=5)
        assert lambda_max_AAt(prob.constraints) == pytest.approx(1.0, rel=1e-13)

    def test_negate_objective(self):
        pos = gen_maxcut(4, n=5, m_edges=3)
        neg = gen_maxcut(4, n=5, m_edges=3, negate_objective=True)
        np.testing.assert_array_equal(neg.C.to_dense(), -pos.C.to_dense())

    def test_infeasible_edge_count(self):
        with pytest.raises(ValueError):
            gen_maxcut(1, n=4, m_edges=7)

    def test_deterministic(self):
        a = gen_maxcut(9, n=8, m_edges=10)
        b = gen_maxcut(9, n=8, m_edges=10)
        assert a.meta["edges"] == b.meta["edges"]

    @pytest.mark.parametrize("seed,n,m_edges", [
        (1, 100, 100), (2, 150, 150), (101, 150, 150), (7, 2, 1), (3, 5, 10),
        (4, 12, 66), (5, 40, 1), (6, 30, 0),
    ])
    def test_edges_match_pair_list_draw(self, seed, n, m_edges):
        # oracle: the same index draw into an explicit row-major pair list
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = np.random.default_rng(seed).choice(len(all_pairs), size=m_edges,
                                                    replace=False)
        expected = tuple(all_pairs[int(k)] for k in sorted(chosen))
        edges = gen_maxcut(seed, n=n, m_edges=m_edges).meta["edges"]
        assert edges == expected
        assert all(type(v) is int for edge in edges for v in edge)


class TestGenSnl:
    def test_dimensions_and_counts(self):
        prob, truth = gen_snl(1, m_anchors=4, n_sensors=8, radius=0.7, degree=5)
        assert prob.n == 2 + 8  # p + n_sensors
        n_dist = len(truth.edges_xx) + len(truth.edges_ax)
        assert prob.m == n_dist + 3  # + p(p+1)/2 identity-block equalities
        assert np.all(prob.C.dense == 0.0)

    def test_stored_distances_exact(self):
        _, truth = gen_snl(2, m_anchors=4, n_sensors=8, radius=0.7, degree=5)
        for i, j, d in truth.edges_xx:
            assert abs(d - np.linalg.norm(truth.sensors[i] - truth.sensors[j])) <= 1e-12
        for k, j, d in truth.edges_ax:
            assert abs(d - np.linalg.norm(truth.anchors[k] - truth.sensors[j])) <= 1e-12

    def test_ground_truth_feasible(self):
        prob, truth = gen_snl(3, m_anchors=4, n_sensors=10, radius=0.6, degree=5)
        violation = np.abs(apply_A(prob.constraints, truth.z_star) - prob.b)
        assert violation.max() < 1e-10
        assert np.linalg.eigvalsh(truth.z_star.to_dense())[0] >= -1e-12

    def test_identity_block_constraints(self):
        prob, truth = gen_snl(4, m_anchors=3, n_sensors=6, radius=0.8, degree=4, p=3)
        z = truth.z_star.to_dense()
        np.testing.assert_allclose(z[:3, :3], np.eye(3), atol=1e-15)
        assert prob.m == len(truth.edges_xx) + len(truth.edges_ax) + 6

    def test_unlocalizable_geometry_errors(self, monkeypatch):
        monkeypatch.setattr(problems_mod, "SNL_MAX_RETRIES", 3)
        with pytest.raises(RuntimeError, match="in 3 tries"):
            gen_snl(1, m_anchors=2, n_sensors=12, radius=1e-6, degree=3)

    @pytest.mark.parametrize("kwargs", [{"n_sensors": 0}, {"degree": 0}])
    def test_empty_sizes_rejected_before_sampling(self, kwargs, monkeypatch):
        # with no tries left, sampling first would raise RuntimeError instead
        monkeypatch.setattr(problems_mod, "SNL_MAX_RETRIES", 0)
        with pytest.raises(ValueError):
            gen_snl(1, **kwargs)

    def test_deterministic(self):
        pa, ta = gen_snl(5, m_anchors=3, n_sensors=7, radius=0.7, degree=4)
        pb, tb = gen_snl(5, m_anchors=3, n_sensors=7, radius=0.7, degree=4)
        assert np.array_equal(ta.sensors, tb.sensors)
        assert np.array_equal(pa.b, pb.b)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_snl(1, p=0)
        with pytest.raises(ValueError):
            gen_snl(1, radius=0.0)


def entrywise_sdpa_text(problem: SdpProblem) -> str:
    """SDPA text written the way the writer once did it: a loop over the upper
    triangle of every dense matrix, skipping zeros. Kept as the reference."""
    n = problem.n
    lines = [
        f"*{problem.meta.get('generator', 'custom')} seed={problem.meta.get('seed', 0)}",
        str(problem.m), "1", str(n), " ".join(repr(float(v)) for v in problem.b),
    ]
    mats = [problem.C.to_dense(), *dense_mats(problem.constraints)]
    for matno, dense in enumerate(mats):
        for i in range(n):
            for j in range(i, n):
                v = dense[i, j]
                if v != 0.0:
                    lines.append(f"{matno} 1 {i + 1} {j + 1} {repr(float(v))}")
    return "\n".join(lines) + "\n"


WRITER_CASES = {
    "rg": lambda: gen_random(12, n=6, m=4),
    "mc": lambda: gen_maxcut(12, n=9, m_edges=12, negate_objective=True),
    "snl-dense": lambda: gen_snl(12, m_anchors=3, n_sensors=5, radius=0.9, degree=4)[0],
    "snl-sparse": lambda: gen_snl(12, m_anchors=4, n_sensors=15, radius=0.5, degree=3)[0],
}


class TestSdpaRoundTrip:
    @pytest.mark.parametrize("case", sorted(WRITER_CASES))
    def test_writer_matches_entrywise_loop(self, case, tmp_path):
        prob = WRITER_CASES[case]()
        path = tmp_path / "out.dat-s"
        write_instance(prob, path)
        assert path.read_text() == entrywise_sdpa_text(prob)
        again = tmp_path / "again.dat-s"
        write_instance(read_instance(path), again)
        assert again.read_text() == path.read_text()

    def test_repeated_entry_keeps_last_value(self, tmp_path):
        path = tmp_path / "repeat.dat-s"
        path.write_text("1\n1\n2\n1.0\n1 1 1 2 5.0\n1 1 2 1 3.0\n1 1 2 2 4.0\n1 1 2 2 0.0\n")
        prob = read_instance(path)
        np.testing.assert_array_equal(dense_mats(prob.constraints)[0], [[0.0, 3.0], [3.0, 0.0]])

    def test_maxcut_round_trip(self, tmp_path):
        prob = gen_maxcut(1, n=4, m_edges=3)
        path = tmp_path / "mc.dat-s"
        write_instance(prob, path)
        back = read_instance(path)
        assert np.array_equal(back.C.dense, prob.C.dense)
        assert np.array_equal(back.b, prob.b)
        assert np.array_equal(dense_mats(back.constraints), dense_mats(prob.constraints))
        assert back.meta["generator"] == "mc"
        assert back.meta["seed"] == 1

    def test_random_round_trip_entry_exact(self, tmp_path):
        prob = gen_random(11, n=5, m=4)
        path = tmp_path / "rg.dat-s"
        write_instance(prob, path)
        back = read_instance(path)
        assert np.array_equal(back.C.dense, prob.C.dense)
        assert np.array_equal(back.b, prob.b)
        assert np.array_equal(dense_mats(back.constraints), dense_mats(prob.constraints))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.dat-s"
        path.write_text("")
        with pytest.raises(SdpaFormatError):
            read_instance(path)

    def test_hand_written_fixture(self, tmp_path):
        # one 2x2 block, one constraint: C = [[1, 2], [2, 0]], A1 = I, b = (3)
        path = tmp_path / "tiny.dat-s"
        path.write_text(
            "*custom seed=0\n"
            "1\n"
            "1\n"
            "2\n"
            "3.0\n"
            "0 1 1 1 1.0\n"
            "0 1 1 2 2.0\n"
            "1 1 1 1 1.0\n"
            "1 1 2 2 1.0\n"
        )
        prob = read_instance(path)
        assert prob.n == 2 and prob.m == 1
        np.testing.assert_array_equal(prob.C.to_dense(), [[1.0, 2.0], [2.0, 0.0]])
        np.testing.assert_array_equal(dense_mats(prob.constraints)[0], np.eye(2))
        np.testing.assert_array_equal(prob.b, [3.0])

    @pytest.mark.parametrize("body,what", [
        ("2\n", "truncated after m"),
        ("1\n2\n2\n1.0\n", "multi-block"),
        ("1\n1\n2\n1.0 2.0\n", "wrong rhs length"),
        ("1\n1\n2\n1.0\n0 1 1 1\n", "short entry"),
        ("1\n1\n2\n1.0\n0 1 5 5 1.0\n", "index out of range"),
        ("1\n1\n2\n1.0\n2 1 1 1 1.0\n", "matno out of range"),
        ("1\n1\n2\n1.0\n0 2 1 1 1.0\n", "bad block number"),
        ("x\n1\n2\n1.0\n", "non-integer m"),
        ("1\n1\n2\nzz\n", "non-numeric rhs"),
    ])
    def test_malformed_inputs(self, tmp_path, body, what):
        path = tmp_path / "bad.dat-s"
        path.write_text(body)
        with pytest.raises(SdpaFormatError):
            read_instance(path)

    def test_sdpa_header_style_reads_like_plain(self, tmp_path):
        # SDPA's own files put braces, parentheses and commas on the header
        entries = "0 1 1 2 -1.5\n1 1 1 1 1.0\n2 1 2 2 1.0\n3 1 1 2 0.5\n"
        plain = tmp_path / "plain.dat-s"
        plain.write_text("3\n1\n2\n48 -8 20\n" + entries)
        styled = tmp_path / "styled.dat-s"
        styled.write_text('"an SDPA example\n3 =mDIM\n1 =nBLOCK\n{2}\n'
                          "{48, -8, 20}\n" + entries)
        bracketed = tmp_path / "bracketed.dat-s"
        bracketed.write_text("3\n(1)\n(2)\n(48,-8,20)\n" + entries)
        want = read_instance(plain)
        for path in (styled, bracketed):
            got = read_instance(path)
            assert (got.n, got.m) == (want.n, want.m)
            np.testing.assert_array_equal(got.C.dense, want.C.dense)
            np.testing.assert_array_equal(got.b, want.b)
            np.testing.assert_array_equal(dense_mats(got.constraints),
                                          dense_mats(want.constraints))

    def test_header_line_without_number(self, tmp_path):
        path = tmp_path / "bad.dat-s"
        for lineno, body in enumerate(("{}\n1\n2\n1.0\n", "1\n( )\n2\n1.0\n",
                                       "1\n1\n{}\n1.0\n", "1\n1\n2\n{,}\n"), 1):
            path.write_text(body)
            with pytest.raises(SdpaFormatError, match=f"line {lineno}:"):
                read_instance(path)

    @pytest.mark.parametrize("body,where", [
        ("1\n1\n2\n1.0\n1 1 1 1 nan\n", "constraint matrix"),
        ("1\n1\n2\n1.0\n0 1 1 2 -inf\n1 1 1 1 1.0\n", "C"),
        ("1\n1\n2\ninf\n1 1 1 1 1.0\n", "b"),
    ])
    def test_non_finite_value_rejected(self, tmp_path, body, where):
        path = tmp_path / "bad.dat-s"
        path.write_text(body)
        with pytest.raises(ValueError, match=f"{where} has a non-finite entry"):
            read_instance(path)

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.dat-s"
        path.write_text("1\n1\n2\n1.0\n0 1 1 1 oops\n")
        with pytest.raises(SdpaFormatError, match="line 5"):
            read_instance(path)

    def test_lower_triangle_entry_accepted(self, tmp_path):
        path = tmp_path / "lower.dat-s"
        path.write_text("1\n1\n2\n1.0\n0 1 2 1 4.0\n1 1 1 1 1.0\n")
        prob = read_instance(path)
        assert prob.C.dense[0, 1] == 4.0


def test_graph_laplacian_psd():
    lap = graph_laplacian(5, [(0, 1), (1, 2), (3, 4)])
    assert np.linalg.eigvalsh(lap)[0] >= -1e-12


def test_problem_validation():
    prob = gen_random(1, n=4, m=3)
    with pytest.raises(ValueError):
        SdpProblem(SymMat.identity(5), prob.constraints, prob.b)
    with pytest.raises(ValueError):
        SdpProblem(prob.C, prob.constraints, np.zeros(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_problem_rejects_non_finite_data(bad):
    prob = gen_random(1, n=4, m=3)
    b = prob.b.copy()
    b[1] = bad
    with pytest.raises(ValueError, match="b has a non-finite entry"):
        SdpProblem(prob.C, prob.constraints, b)
    c = prob.C.to_dense()
    c[2, 2] = bad
    with pytest.raises(ValueError, match="C has a non-finite entry"):
        SdpProblem(SymMat(c), prob.constraints, prob.b)
