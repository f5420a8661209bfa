import itertools
import math

import numpy as np
import pytest

import pdhgsdp.problems as problems_mod
from pdhgsdp.linalg import SymMat
from pdhgsdp.operators import ConstraintMap, apply_A, apply_At, lambda_max_AAt
from pdhgsdp.problems import (
    SdpaFormatError,
    SdpProblem,
    SnlGroundTruth,
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

    def test_negative_edge_count_named(self):
        with pytest.raises(ValueError, match="m_edges=-1"):
            gen_maxcut(1, n=5, m_edges=-1)

    @pytest.mark.parametrize("n", [0, -3])
    def test_non_positive_size_named(self, n):
        with pytest.raises(ValueError, match=f"need n >= 1, got n={n}"):
            gen_maxcut(1, n=n, m_edges=0)

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

    def test_negative_anchor_count_named(self):
        with pytest.raises(ValueError, match="m_anchors"):
            gen_snl(1, m_anchors=-1)
        # no anchors is a valid geometry: sensor pairs and the identity rows
        prob, truth = gen_snl(1, m_anchors=0, n_sensors=5)
        assert len(truth.edges_ax) == 0
        assert prob.m == len(truth.edges_xx) + 3 > 3

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


def nearest_within(points_from, points_to, radius, degree, skip_self):
    out = []
    for idx in range(points_from.shape[0]):
        d = np.linalg.norm(points_to - points_from[idx], axis=1)
        if skip_self:
            d[idx] = np.inf
        candidates = np.where(d <= radius)[0]
        order = candidates[np.argsort(d[candidates], kind="stable")]
        out.append([int(t) for t in order[:degree]])
    return out


def loop_gen_snl(seed, m_anchors=10, n_sensors=50, radius=0.3, degree=5, p=2):
    """gen_snl written the way it once was: neighbours, edges and constraint
    entries built one sensor and one edge at a time. Kept as the reference."""
    for attempt in range(problems_mod.SNL_MAX_RETRIES):
        rng = np.random.default_rng((seed, attempt))
        anchors = rng.uniform(size=(m_anchors, p))
        sensors = rng.uniform(size=(n_sensors, p))
        sensor_nbrs = nearest_within(sensors, sensors, radius, degree, skip_self=True)
        anchor_nbrs = nearest_within(sensors, anchors, radius, degree, skip_self=False)
        edges_xx = sorted(
            {(min(i, j), max(i, j)) for i, nbrs in enumerate(sensor_nbrs) for j in nbrs}
        )
        edges_ax = sorted({(k, j) for j, nbrs in enumerate(anchor_nbrs) for k in nbrs})
        incident = {i for i, j in edges_xx} | {j for i, j in edges_xx}
        incident |= {j for _, j in edges_ax}
        if len(incident) == n_sensors:
            break
    else:
        raise RuntimeError("no fully connected geometry")

    entries, rhs, xx_triples, ax_triples = [], [], [], []
    for i, j in edges_xx:
        d = float(np.linalg.norm(sensors[i] - sensors[j]))
        xx_triples.append((i, j, d))
        row = len(rhs)
        entries += [(row, p + i, p + i, 1.0), (row, p + j, p + j, 1.0),
                    (row, p + i, p + j, -1.0)]
        rhs.append(d * d)
    for k, j in edges_ax:
        d = float(np.linalg.norm(anchors[k] - sensors[j]))
        ax_triples.append((k, j, d))
        row = len(rhs)
        a = anchors[k]
        entries += [(row, s, t, float(a[s] * a[t])) for s in range(p) for t in range(s, p)]
        entries += [(row, s, p + j, -float(a[s])) for s in range(p)]
        entries.append((row, p + j, p + j, 1.0))
        rhs.append(d * d)
    for s in range(p):
        for t in range(s, p):
            entries.append((len(rhs), s, t, 1.0 if s == t else 0.5))
            rhs.append(1.0 if s == t else 0.0)

    con, ent_i, ent_j, vals = zip(*entries)
    dim = p + n_sensors
    problem = SdpProblem(
        C=SymMat.zeros(dim),
        constraints=ConstraintMap.from_triples(len(rhs), dim, con, ent_i, ent_j, vals),
        b=np.asarray(rhs),
        meta={"generator": "snl", "seed": seed, "p": p, "m_anchors": m_anchors,
              "n_sensors": n_sensors, "radius": radius, "degree": degree,
              "n_xx": len(xx_triples), "n_ax": len(ax_triples)},
    )
    truth = SnlGroundTruth(anchors=anchors, sensors=sensors,
                           edges_xx=tuple(xx_triples), edges_ax=tuple(ax_triples))
    return problem, truth


def assert_same_problem(got: SdpProblem, want: SdpProblem) -> None:
    """Bitwise equal C, b, stored map and meta."""
    assert (got.n, got.m) == (want.n, want.m)
    assert np.array_equal(got.C.dense, want.C.dense)
    assert np.array_equal(got.b, want.b)
    got_map, want_map = got.constraints, want.constraints
    assert (got_map.coo is None) == (want_map.coo is None)
    if want_map.coo is None:
        assert np.array_equal(got_map.dense, want_map.dense)
    else:
        for a, b in zip(got_map.coo, want_map.coo):
            assert np.array_equal(a, b)
    assert got.meta.keys() == want.meta.keys()
    for key, value in want.meta.items():
        assert type(got.meta[key]) is type(value) and got.meta[key] == value


class TestGenSnlAgainstLoop:
    @pytest.mark.parametrize("seed,kwargs,attempt", [
        (1, {}, 0), (2, {}, 0), (101, {}, 0), (102, {}, 0),
        (3, {"p": 3}, 2), (4, {"degree": 1}, 0), (5, {"p": 3, "degree": 1, "radius": 0.5}, 0),
        (6, {"m_anchors": 0, "n_sensors": 12, "radius": 0.9}, 0),
        (7, {"m_anchors": 2, "n_sensors": 6, "radius": np.inf, "degree": 9}, 0),
        (3, {"m_anchors": 2, "n_sensors": 8, "radius": 0.25, "degree": 1}, 2),
        (3, {"m_anchors": 3, "n_sensors": 10, "radius": 0.2, "degree": 2}, 4),
    ], ids=["default-1", "default-2", "default-101", "default-102", "p3", "degree1",
            "p3-degree1", "no-anchors", "unbounded-radius", "retried-2", "retried-4"])
    def test_bitwise_equal(self, seed, kwargs, attempt):
        prob, truth = gen_snl(seed, **kwargs)
        want_prob, want_truth = loop_gen_snl(seed, **kwargs)
        assert_same_problem(prob, want_prob)
        # the geometry comes from the expected attempt's draw
        rng = np.random.default_rng((seed, attempt))
        p = kwargs.get("p", 2)
        assert np.array_equal(truth.anchors, rng.uniform(size=(kwargs.get("m_anchors", 10), p)))
        assert np.array_equal(truth.sensors, rng.uniform(size=(kwargs.get("n_sensors", 50), p)))
        assert np.array_equal(truth.sensors, want_truth.sensors)
        for got, want in ((truth.edges_xx, want_truth.edges_xx),
                          (truth.edges_ax, want_truth.edges_ax)):
            assert got == want
            assert all(type(i) is int and type(j) is int and type(d) is float
                       for i, j, d in got)


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


MALFORMED = [
    ("2\n", "truncated after m"),
    ("1\n2\n2\n1.0\n", "multi-block"),
    ("1\n1\n2\n1.0 2.0\n", "wrong rhs length"),
    ("1\n1\n2\n1.0\n0 1 1 1\n", "short entry"),
    ("1\n1\n2\n1.0\n0 1 5 5 1.0\n", "index out of range"),
    ("1\n1\n2\n1.0\n2 1 1 1 1.0\n", "matno out of range"),
    ("1\n1\n2\n1.0\n0 2 1 1 1.0\n", "bad block number"),
    ("x\n1\n2\n1.0\n", "non-integer m"),
    ("1\n1\n2\nzz\n", "non-numeric rhs"),
    ("0\n1\n2\n1.0\n", "no constraint"),
    ("1\n1\n-3\n1.0\n", "negative block size"),
]
NON_FINITE = [
    ("1\n1\n2\n1.0\n1 1 1 1 nan\n", "constraint matrix"),
    ("1\n1\n2\n1.0\n0 1 1 2 -inf\n1 1 1 1 1.0\n", "C"),
    ("1\n1\n2\ninf\n1 1 1 1 1.0\n", "b"),
]
NON_FINITE_LINES = [
    ("1\n1\n2\n1.0\n1 1 1 1 nan\n", "line 5: a constraint matrix"),
    ("1\n1\n2\n1.0\n0 1 1 2 -inf\n1 1 1 1 1.0\n", "line 5: C"),
    ("1\n1\n2\ninf\n1 1 1 1 1.0\n", "line 4: b"),
    ("1\n1\n2\n1.0\n1 1 1 1 1.0\n1 1 2 2 inf\n", "line 6: a constraint matrix"),
]
NO_NUMBER_HEADERS = ("{}\n1\n2\n1.0\n", "1\n( )\n2\n1.0\n", "1\n1\n{}\n1.0\n",
                     "1\n1\n2\n{,}\n")


def entrywise_sdpa_read(path) -> SdpProblem:
    """read_instance written the way it once was: one line at a time, each
    entry parsed with int() and float() and stored in a dict keyed by
    (matno, i, j). Kept as the reference."""
    with open(path) as fh:
        raw = fh.read().splitlines()

    meta: dict = {}
    pos = 0
    while pos < len(raw) and raw[pos][:1] in ('*', '"'):
        comment = raw[pos][1:].strip()
        if pos == 0 and comment:
            parts = comment.split()
            meta["generator"] = parts[0]
            for part in parts[1:]:
                if part.startswith("seed="):
                    try:
                        meta["seed"] = int(part[5:])
                    except ValueError:
                        pass
        pos += 1

    def next_line(what):
        nonlocal pos
        while pos < len(raw):
            stripped = raw[pos].strip()
            pos += 1
            if stripped:
                return stripped, pos
        raise SdpaFormatError(f"unexpected end of file while reading {what}")

    def parse_int(text, lineno, what):
        try:
            return int(text)
        except ValueError:
            raise SdpaFormatError(f"line {lineno}: expected integer {what}, got {text!r}")

    def header(what):
        text, lineno = next_line(what)
        fields = text.translate(str.maketrans("{}(),", "     ")).split()
        if not fields:
            raise SdpaFormatError(f"line {lineno}: no {what} on the line")
        return fields, lineno

    fields, lineno = header("constraint count")
    m = parse_int(fields[0], lineno, "constraint count")
    if m < 1:
        raise SdpaFormatError(f"line {lineno}: constraint count must be >= 1, got {m}")
    fields, lineno = header("block count")
    nblocks = parse_int(fields[0], lineno, "block count")
    if nblocks != 1:
        raise SdpaFormatError(f"line {lineno}: only single-block files supported, got {nblocks}")
    fields, lineno = header("block size")
    n = parse_int(fields[0], lineno, "block size")
    if n < 1:
        raise SdpaFormatError(f"line {lineno}: block size must be >= 1, got {n}")
    fields, lineno = header("right-hand side")
    if len(fields) != m:
        raise SdpaFormatError(
            f"line {lineno}: expected {m} right-hand-side values, got {len(fields)}"
        )
    try:
        b = np.array([float(v) for v in fields])
    except ValueError:
        raise SdpaFormatError(f"line {lineno}: non-numeric right-hand side")
    if not np.all(np.isfinite(b)):
        raise SdpaFormatError(f"line {lineno}: b has a non-finite entry")

    entries = {}
    while pos < len(raw):
        stripped = raw[pos].strip()
        pos += 1
        if not stripped:
            continue
        lineno = pos
        parts = stripped.split()
        if len(parts) != 5:
            raise SdpaFormatError(f"line {lineno}: expected 5 fields, got {len(parts)}")
        matno = parse_int(parts[0], lineno, "matrix number")
        blkno = parse_int(parts[1], lineno, "block number")
        i = parse_int(parts[2], lineno, "row index")
        j = parse_int(parts[3], lineno, "column index")
        try:
            value = float(parts[4])
        except ValueError:
            raise SdpaFormatError(f"line {lineno}: non-numeric value {parts[4]!r}")
        if not 0 <= matno <= m:
            raise SdpaFormatError(f"line {lineno}: matrix number {matno} outside [0, {m}]")
        if blkno != 1:
            raise SdpaFormatError(f"line {lineno}: block number must be 1, got {blkno}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise SdpaFormatError(f"line {lineno}: index ({i},{j}) outside block of size {n}")
        if not math.isfinite(value):
            what = "C" if matno == 0 else "a constraint matrix"
            raise SdpaFormatError(f"line {lineno}: {what} has a non-finite entry")
        if i > j:
            i, j = j, i
        entries[(matno, i - 1, j - 1)] = value

    keys = np.fromiter(itertools.chain.from_iterable(entries), np.int64, 3 * len(entries))
    matno, i, j = keys.reshape(-1, 3).T
    vals = np.fromiter(entries.values(), float, len(entries))
    is_c = matno == 0
    ci, cj, cv = i[is_c], j[is_c], vals[is_c]
    c = np.zeros((n, n))
    c[ci, cj] = cv
    c[cj, ci] = cv
    cmap = ConstraintMap.from_triples(m, n, matno[~is_c] - 1, i[~is_c], j[~is_c],
                                      vals[~is_c])
    return SdpProblem(C=SymMat(c), constraints=cmap, b=b, meta=meta)


_ENTRIES = "0 1 1 2 -1.5\n1 1 1 1 1.0\n2 1 2 2 1.0\n3 1 1 2 0.5\n"
VALID_SDPA = {
    "sdpa-header": '"an SDPA example\n3 =mDIM\n1 =nBLOCK\n{2}\n{48, -8, 20}\n' + _ENTRIES,
    "crlf": ("*custom seed=4\n3\n1\n2\n48 -8 20\n" + _ENTRIES).replace("\n", "\r\n"),
    "tabs": "3\n1\n2\n48\t-8\t20\n" + _ENTRIES.replace(" ", "\t").replace("\t1\t1", " \t1 \t1"),
    "blank-lines": "3\n\n1\n2\n48 -8 20\n\n" + _ENTRIES.replace("\n", "\n  \n\t\n", 2) + "\n\n",
    "comments": '*gen seed=x\n"second comment\n*third\n3\n1\n2\n48 -8 20\n' + _ENTRIES,
    "repeated-lower": "3\n1\n3\n1 2 3\n0 1 2 1 5.0\n0 1 1 2 -2.5\n1 1 3 1 1e-3\n1 1 1 3 2.0\n"
                      "2 1 2 2 7\n2 1 2 2 0.0\n3 1 3 3 +.5\n3 1 2 3 -0\n1 1 3 1 4.0\n",
    "no-entries": "*empty seed=2\n2\n1\n3\n0 0\n\n \n",
    "exponents": "1\n1\n2\n1e-400\n0 1 1 1 1E+2\n1 1 +2 002 -1.5e-310\n1 1 1 2 1e308\n",
}


class TestReaderAgainstLineLoop:
    """The vectorized reader against the line-loop reference: the same
    problem on valid files, the same error and message on malformed ones."""

    @pytest.mark.parametrize("name", [f"writer-{case}" for case in sorted(WRITER_CASES)]
                             + sorted(VALID_SDPA))
    def test_valid_file(self, name, tmp_path):
        path = tmp_path / "in.dat-s"
        if name.startswith("writer-"):
            write_instance(WRITER_CASES[name[len("writer-"):]](), path)
        else:
            path.write_bytes(VALID_SDPA[name].encode())
        assert_same_problem(read_instance(path), entrywise_sdpa_read(path))

    @pytest.mark.parametrize("body", [body for body, _ in MALFORMED + NON_FINITE + NON_FINITE_LINES]
                             + list(NO_NUMBER_HEADERS) + [
        "",
        "1\n1\n2\n1.0\n0 1 1 1 oops\n",
        "1\n1\n2\n1.0\n1 1 2.0 1 1.0\n",
        "1\n1\n2\n1.0\n1 1 1 1 1.0\n0 1 1 2 3.0\n1 1 2 2\n",
        "1\n1\n2\n1.0\n1 1 1 1 1.0\n\n1 1 1 2 3.0 4.0\n",
        "1\n1\n2\n1.0\n1 1 1 1 1.0\n1 1 2 2 1e400\n",
        "1\n1\n2\n1.0\n-1 1 1 1 1.0\n",
        "1\n1\n2\n1.0\n1 1 1 1 1.0\n1 1 2 3 nan\n",
        "1\n1\n2\n1.0\n0 1 1 1 1.0\n1 1 1 1 99999999999999999999\n1 x 1 1 1\n",
        "1\n1\n2\n1.0\n1 1 1 99999999999999999999 1.0\n",
        "1\n1\n2\n1.0\n1 1 1 1 1.0\n*comment\n",
    ])
    def test_malformed_file(self, body, tmp_path):
        path = tmp_path / "bad.dat-s"
        path.write_text(body)
        with pytest.raises(SdpaFormatError) as want:
            entrywise_sdpa_read(path)
        with pytest.raises(SdpaFormatError) as got:
            read_instance(path)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("entry,message", [
        ("1_0 1 1 1 1.0", "line 5: expected integer matrix number, got '1_0'"),
        ("1 1 \u0661 1 1.0", "line 5: expected integer row index, got '\u0661'"),
        ("1 1 1 1 1_0.5", "line 5: non-numeric value '1_0.5'"),
    ])
    def test_underscores_and_non_ascii_digits_rejected(self, entry, message, tmp_path):
        # int() and float() read these, so the line loop accepted them
        path = tmp_path / "strict.dat-s"
        path.write_text(f"1\n1\n20\n1.0\n{entry}\n", encoding="utf-8")
        with pytest.raises(SdpaFormatError, match=f"^{message}$"):
            read_instance(path)

    @pytest.mark.parametrize("rhs", ["1_5", "\u0661", "2.0 1_5", "\u0661.5"])
    def test_rhs_takes_the_entries_number_syntax(self, rhs, tmp_path):
        path = tmp_path / "strict.dat-s"
        m = len(rhs.split())
        path.write_text(f"{m}\n1\n20\n{rhs}\n1 1 1 1 1.0\n", encoding="utf-8")
        with pytest.raises(SdpaFormatError, match="^line 4: non-numeric right-hand side$"):
            read_instance(path)

    @pytest.mark.parametrize("seed, meta", [
        ("1_0", {}), ("\u0661", {}), ("x", {}), ("+7", {"seed": 7}), ("1_0 seed=3", {"seed": 3}),
    ])
    def test_seed_takes_the_entries_number_syntax(self, seed, meta, tmp_path):
        # an unreadable seed is left out of the metadata
        path = tmp_path / "seeded.dat-s"
        path.write_text(f"*gen seed={seed}\n1\n1\n2\n1.0\n1 1 1 1 1.0\n", encoding="utf-8")
        assert read_instance(path).meta == {"generator": "gen", **meta}


# block sizes whose dense C cannot be allocated
OVERSIZED_BLOCKS = (1000000, 99999999999999999999)


def two_entry_file(block_size):
    """An SDPA file with a comment line, so the block size is on line 4, and
    two entries."""
    return f'"two entries\n1\n1\n{block_size}\n1.0\n0 1 1 1 1.0\n1 1 1 1 1.0\n'


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

    @pytest.mark.parametrize("body,what", MALFORMED)
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
        for lineno, body in enumerate(NO_NUMBER_HEADERS, 1):
            path.write_text(body)
            with pytest.raises(SdpaFormatError, match=f"line {lineno}:"):
                read_instance(path)

    @pytest.mark.parametrize("body,where", NON_FINITE)
    def test_non_finite_value_rejected(self, tmp_path, body, where):
        path = tmp_path / "bad.dat-s"
        path.write_text(body)
        with pytest.raises(ValueError, match=f"{where} has a non-finite entry"):
            read_instance(path)

    @pytest.mark.parametrize("body,message", NON_FINITE_LINES,
                             ids=["A-nan", "C-inf", "b-inf", "A-inf-line-6"])
    def test_non_finite_value_names_its_line(self, tmp_path, body, message):
        path = tmp_path / "bad.dat-s"
        path.write_text(body)
        with pytest.raises(SdpaFormatError, match=f"^{message} has a non-finite entry$"):
            read_instance(path)

    @pytest.mark.parametrize("size", OVERSIZED_BLOCKS, ids=["1e6", "1e20"])
    def test_block_size_too_large_names_its_line(self, tmp_path, size):
        # C could not be allocated: 7.28 TiB, or beyond numpy's dimension limit
        path = tmp_path / "big.dat-s"
        path.write_text(two_entry_file(size))
        with pytest.raises(SdpaFormatError, match=f"^line 4: block size {size} is too large"):
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


@pytest.mark.parametrize("edges", [[], [(0, 1), (0, 1), (1, 2)], [(2, 2), (3, 0), (0, 3)]])
def test_graph_laplacian_matches_edge_loop(edges):
    # reference: one rank-one update per edge, so repeated edges add up
    lap = np.zeros((4, 4))
    for i, j in edges:
        lap[i, i] += 1.0
        lap[j, j] += 1.0
        lap[i, j] -= 1.0
        lap[j, i] -= 1.0
    assert np.array_equal(graph_laplacian(4, edges), lap)


def test_objective_is_the_inner_product_with_C():
    prob = gen_random(1, n=4, m=3)
    x = SymMat(np.random.default_rng(5).standard_normal((4, 4))).dense
    assert prob.objective(x) == pytest.approx(float(np.sum(prob.C.dense * x)), rel=1e-14)
    assert prob.objective(np.eye(4)) == pytest.approx(float(np.trace(prob.C.dense)), rel=1e-14)


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
