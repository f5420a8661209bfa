"""SDP instance model, the three benchmark generators, and SDPA sparse I/O.

All generators are deterministic in their seed. The three families:

* random feasible instances (``rg``): dense random constraints with a built-in
  strictly feasible primal-dual pair,
* max-cut relaxations (``mc``): graph Laplacian objective with diag(X) = 1,
* sensor network localization (``snl``): feasibility SDP on the block matrix
  Z = [[I, X], [X^T, Y]] with squared-distance equalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from .linalg import SymMat, frobenius_inner_dense
from .operators import ConstraintMap, adjoint, apply_A

SNL_MAX_RETRIES = 50


@dataclass(frozen=True)
class SdpProblem:
    """min <C, X> s.t. A(X) = b, X PSD."""

    C: SymMat
    constraints: ConstraintMap
    b: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.C.n != self.constraints.n:
            raise ValueError(
                f"objective dimension {self.C.n} != constraint dimension "
                f"{self.constraints.n}"
            )
        if self.b.shape != (self.constraints.m,):
            raise ValueError(
                f"b has shape {self.b.shape}, expected ({self.constraints.m},)"
            )
        if not np.all(np.isfinite(self.b)):
            raise ValueError("b has a non-finite entry")
        if not np.all(np.isfinite(self.C.dense)):
            raise ValueError("C has a non-finite entry")

    @property
    def n(self) -> int:
        return self.C.n

    @property
    def m(self) -> int:
        return self.constraints.m

    def objective(self, x_dense: np.ndarray) -> float:
        return frobenius_inner_dense(self.C.dense, x_dense)


@dataclass(frozen=True)
class SnlGroundTruth:
    """True geometry behind a localization instance.

    ``edges_xx`` holds (i, j, d_ij) sensor-sensor triples with i < j;
    ``edges_ax`` holds (k, j, d_kj) anchor-sensor triples.
    """

    anchors: np.ndarray
    sensors: np.ndarray
    edges_xx: tuple[tuple[int, int, float], ...]
    edges_ax: tuple[tuple[int, int, float], ...]

    @cached_property
    def z_star(self) -> SymMat:
        """The feasible PSD certificate [[I, X], [X^T, X^T X]]."""
        x = self.sensors.T  # (p, n)
        p, n = x.shape
        z = np.zeros((p + n, p + n))
        z[:p, :p] = np.eye(p)
        z[:p, p:] = x
        z[p:, :p] = x.T
        z[p:, p:] = x.T @ x
        return SymMat(z)


def gen_random(seed: int, n: int = 50, m: int = 50) -> SdpProblem:
    """Random feasible instance.

    Constraint matrices are symmetrized standard Gaussians. Feasibility is
    built in on both sides: b = A(X0) for X0 = G G^T + 0.1 I (strictly primal
    feasible) and C = A^T(y0) + S0 with S0 = H H^T + 0.1 I (strictly dual
    feasible), so the instance is solvable with strong duality. The
    certificate (X0, y0, S0) is stored in ``meta``.
    """
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    rng = np.random.default_rng(seed)
    mats = tuple(SymMat(rng.standard_normal((n, n))) for _ in range(m))
    cmap = ConstraintMap(mats)

    g = rng.standard_normal((n, n))
    x0 = SymMat(g @ g.T + 0.1 * np.eye(n))
    b = apply_A(cmap, x0)

    y0 = rng.standard_normal(m)
    h = rng.standard_normal((n, n))
    s0 = SymMat(h @ h.T + 0.1 * np.eye(n))
    c = SymMat(adjoint(cmap, y0) + s0.dense)

    meta = {"generator": "rg", "seed": seed, "X0": x0, "y0": y0, "S0": s0}
    return SdpProblem(C=c, constraints=cmap, b=b, meta=meta)


def _sample_edges(rng: np.random.Generator, n: int, m_edges: int) -> list[tuple[int, int]]:
    """``m_edges`` distinct pairs i < j, drawn as indices into the row-major
    list of all n(n-1)/2 pairs and returned in that order."""
    chosen = np.sort(rng.choice(n * (n - 1) // 2, size=m_edges, replace=False))
    rows, cols = np.triu_indices(n, 1)
    return list(zip(rows[chosen].tolist(), cols[chosen].tolist()))


def graph_laplacian(n: int, edges: Iterable[tuple[int, int]]) -> np.ndarray:
    """L = sum_{(i,j) in E} (e_i - e_j)(e_i - e_j)^T."""
    i, j = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2).T
    lap = np.zeros((n, n))
    np.add.at(lap, (np.concatenate([i, j, i, j]), np.concatenate([i, j, j, i])),
              np.repeat([1.0, 1.0, -1.0, -1.0], i.size))
    return lap


def gen_maxcut(
    seed: int, n: int = 100, m_edges: int = 100, negate_objective: bool = False
) -> SdpProblem:
    """Max-cut relaxation on a uniformly sampled simple graph with exactly
    ``m_edges`` edges: objective is the graph Laplacian, constraints pin
    diag(X) = 1.

    As written the minimum of <L, X> over this feasible set is 0 (attained at
    the all-ones rank-one matrix); ``negate_objective`` flips the sign of the
    objective for a nontrivial variant.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    max_edges = n * (n - 1) // 2
    if not 0 <= m_edges <= max_edges:
        raise ValueError(f"m_edges={m_edges} edges infeasible for n={n} (0 to {max_edges})")
    rng = np.random.default_rng(seed)
    edges = _sample_edges(rng, n, m_edges)
    lap = graph_laplacian(n, edges)
    c = SymMat(-lap if negate_objective else lap)

    diag = np.arange(n)
    cmap = ConstraintMap.from_triples(n, n, diag, diag, diag, np.ones(n))
    b = np.ones(n)
    meta = {"generator": "mc", "seed": seed, "edges": tuple(edges),
            "negate_objective": negate_objective}
    return SdpProblem(C=c, constraints=cmap, b=b, meta=meta)


def _nearest(d: np.ndarray, radius: float, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) of the at most ``degree`` nearest columns within
    ``radius`` of each row of the distance matrix ``d``, rows in order and
    each row's columns nearest first, ties by column."""
    order = np.argsort(np.where(d <= radius, d, np.inf), axis=1, kind="stable")[:, :degree]
    near = np.take_along_axis(d, order, axis=1) <= radius
    rows = np.broadcast_to(np.arange(d.shape[0])[:, None], order.shape)
    return rows[near], order[near]


def _edge_lengths(diff: np.ndarray) -> np.ndarray:
    # sqrt(x.dot(x)) per row, as np.linalg.norm computes one vector's norm; a
    # vectorized row norm sums in another order and can differ in the last bit
    return np.sqrt([x.dot(x) for x in diff])


def gen_snl(
    seed: int,
    m_anchors: int = 10,
    n_sensors: int = 50,
    radius: float = 0.3,
    degree: int = 5,
    p: int = 2,
) -> tuple[SdpProblem, SnlGroundTruth]:
    """Sensor network localization feasibility SDP.

    Anchors and sensors are drawn uniformly from the unit cube in R^p. Each
    sensor is linked to at most ``degree`` nearest sensors and at most
    ``degree`` nearest anchors within ``radius``; stored distances are exact.
    The decision variable is Z in S^(p+n); constraints are the sensor-sensor
    and anchor-sensor squared-distance equalities plus p(p+1)/2 equalities
    pinning the top-left block of Z to the identity. The objective is zero.

    Geometries leaving some sensor with no incident edge are resampled up to
    ``SNL_MAX_RETRIES`` times before erroring.
    """
    if p < 1:
        raise ValueError(f"ambient dimension must be >= 1, got {p}")
    if m_anchors < 0:
        raise ValueError(f"m_anchors must be >= 0, got {m_anchors}")
    if n_sensors < 1:
        raise ValueError(f"need at least one sensor, got n_sensors={n_sensors}")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")

    n = n_sensors
    for attempt in range(SNL_MAX_RETRIES):
        rng = np.random.default_rng((seed, attempt))
        anchors = rng.uniform(size=(m_anchors, p))
        sensors = rng.uniform(size=(n, p))

        d_xx = np.linalg.norm(sensors[None, :, :] - sensors[:, None, :], axis=2)
        np.fill_diagonal(d_xx, np.inf)
        d_ax = np.linalg.norm(anchors[None, :, :] - sensors[:, None, :], axis=2)
        # edge sets as adjacency masks, read back in row-major (sorted) order
        rows, cols = _nearest(d_xx, radius, degree)
        adj_xx = np.zeros((n, n), dtype=bool)
        adj_xx[np.minimum(rows, cols), np.maximum(rows, cols)] = True
        rows, cols = _nearest(d_ax, radius, degree)
        adj_ax = np.zeros((m_anchors, n), dtype=bool)
        adj_ax[cols, rows] = True
        if np.all(adj_xx.any(axis=0) | adj_xx.any(axis=1) | adj_ax.any(axis=0)):
            break
    else:
        raise RuntimeError(
            f"could not generate a fully connected geometry in {SNL_MAX_RETRIES} tries "
            f"(seed={seed}); increase radius or degree"
        )

    xi, xj = np.nonzero(adj_xx)
    ak, aj = np.nonzero(adj_ax)
    dist_xx = _edge_lengths(sensors[xi] - sensors[xj])
    dist_ax = _edge_lengths(anchors[ak] - sensors[aj])
    n_xx, n_ax = xi.size, ak.size
    su, tu = np.triu_indices(p)
    rows_xx = np.arange(n_xx)[:, None]
    rows_ax = n_xx + np.arange(n_ax)[:, None]
    a, zj = anchors[ak], p + aj[:, None]
    blocks = [  # (constraint, i, j, value), broadcast together
        # ||x_i - x_j||^2 = Y_ii + Y_jj - 2 Y_ij
        (rows_xx, p + np.c_[xi, xj, xi], p + np.c_[xi, xj, xj], [1.0, 1.0, -1.0]),
        # ||a_k - x_j||^2 = v^T Z v for v = (a_k, -e_j)
        (rows_ax, su, tu, a[:, su] * a[:, tu]),
        (rows_ax, np.arange(p), zj, -a),
        (rows_ax, zj, zj, 1.0),
        # the top-left p-by-p block of Z is the identity
        (n_xx + n_ax + np.arange(su.size), su, tu, np.where(su == tu, 1.0, 0.5)),
    ]
    con, ent_i, ent_j, vals = (
        np.concatenate(parts)
        for parts in zip(*([x.ravel() for x in np.broadcast_arrays(*blk)] for blk in blocks))
    )
    rhs = np.concatenate([dist_xx * dist_xx, dist_ax * dist_ax, np.where(su == tu, 1.0, 0.0)])
    dim = p + n
    cmap = ConstraintMap.from_triples(rhs.size, dim, con, ent_i, ent_j, vals)
    problem = SdpProblem(
        C=SymMat.zeros(dim),
        constraints=cmap,
        b=rhs,
        meta={
            "generator": "snl", "seed": seed, "p": p,
            "m_anchors": m_anchors, "n_sensors": n_sensors,
            "radius": radius, "degree": degree,
            "n_xx": n_xx, "n_ax": n_ax,
        },
    )
    truth = SnlGroundTruth(
        anchors=anchors,
        sensors=sensors,
        edges_xx=tuple(zip(xi.tolist(), xj.tolist(), dist_xx.tolist())),
        edges_ax=tuple(zip(ak.tolist(), aj.tolist(), dist_ax.tolist())),
    )
    return problem, truth


# --- SDPA sparse format (single PSD block) ---------------------------------
#
# line 1: comment "*<generator> seed=<seed>"
# line 2: m
# line 3: number of blocks (always 1 here)
# line 4: block size n
# line 5: b as one line of m reals
# then:   "matno blkno i j value" entries, matno 0 for C and 1..m for A_i,
#         upper triangle only, 1-based indices.
# On the four header lines the reader treats "{", "}", "(", ")" and "," as
# blanks, as SDPA does, so "{2}" and "{48, -8, 20}" read as "2" and "48 -8 20".

_HEADER_BLANKS = str.maketrans("{}(),", "     ")
_SDPA_ENTRY = np.dtype([("matno", np.int64), ("blkno", np.int64), ("i", np.int64),
                        ("j", np.int64), ("value", float)])


class SdpaFormatError(ValueError):
    """Malformed SDPA sparse file; message carries the offending line number."""


def _fmt(x: float) -> str:
    return repr(float(x))


def write_instance(problem: SdpProblem, path) -> None:
    """Write as SDPA sparse (.dat-s), one PSD block, upper triangle only.

    Values are written with full precision so a read-back is entry-exact.
    """
    tag = problem.meta.get("generator", "custom")
    seed = problem.meta.get("seed", 0)
    n, m = problem.n, problem.m
    lines = [
        f"*{tag} seed={seed}",
        str(m),
        "1",
        str(n),
        " ".join(_fmt(v) for v in problem.b),
    ]

    # upper-triangle nonzeros, each matrix row-major, C first
    ci, cj = np.nonzero(np.triu(problem.C.dense))
    c_entries = (np.zeros_like(ci), ci, cj, problem.C.dense[ci, cj])
    con, i, j, vals = problem.constraints.upper_triples()
    for entries in (c_entries, (con + 1, i, j, vals)):
        lines += [f"{k} 1 {r + 1} {c + 1} {_fmt(v)}"
                  for k, r, c, v in zip(*(a.tolist() for a in entries))]

    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _number(kind: type, text: str):
    """``kind(text)`` for an ASCII token without "_", the numbers the
    vectorized entry parse reads too; None for any other token."""
    if text.isascii() and "_" not in text:
        try:
            return kind(text)
        except ValueError:
            pass
    return None


def _parse_int(text: str, lineno: int, what: str) -> int:
    value = _number(int, text)
    if value is None:
        raise SdpaFormatError(f"line {lineno}: expected integer {what}, got {text!r}")
    return value


def _raise_entry_error(raw: list[str], pos: int, m: int, n: int) -> None:
    """Raise the error for the first malformed entry line at or after
    ``raw[pos]``, checking each line's fields in order."""
    for lineno, line in enumerate(raw[pos:], pos + 1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 5:
            raise SdpaFormatError(f"line {lineno}: expected 5 fields, got {len(parts)}")
        matno = _parse_int(parts[0], lineno, "matrix number")
        blkno = _parse_int(parts[1], lineno, "block number")
        i = _parse_int(parts[2], lineno, "row index")
        j = _parse_int(parts[3], lineno, "column index")
        value = _number(float, parts[4])
        if value is None:
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
    raise SdpaFormatError("malformed entry section")


def read_instance(path) -> SdpProblem:
    """Read a single-block SDPA sparse file, as :func:`write_instance` writes
    it or with SDPA's braces and commas on the header lines.

    Accepts leading comment lines starting with '*' or '"'. An entry given
    twice keeps its last value, and a lower-triangle entry is mirrored.
    Raises :class:`SdpaFormatError` with a line number on malformed input.
    """
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
                seed = _number(int, part[5:]) if part.startswith("seed=") else None
                if seed is not None:
                    meta["seed"] = seed
        pos += 1

    def next_line(what: str) -> tuple[str, int]:
        nonlocal pos
        while pos < len(raw):
            stripped = raw[pos].strip()
            pos += 1
            if stripped:
                return stripped, pos
        raise SdpaFormatError(f"unexpected end of file while reading {what}")

    def header(what: str) -> tuple[list[str], int]:
        text, lineno = next_line(what)
        fields = text.translate(_HEADER_BLANKS).split()
        if not fields:
            raise SdpaFormatError(f"line {lineno}: no {what} on the line")
        return fields, lineno

    fields, lineno = header("constraint count")
    m = _parse_int(fields[0], lineno, "constraint count")
    if m < 1:
        raise SdpaFormatError(f"line {lineno}: constraint count must be >= 1, got {m}")

    fields, lineno = header("block count")
    nblocks = _parse_int(fields[0], lineno, "block count")
    if nblocks != 1:
        raise SdpaFormatError(f"line {lineno}: only single-block files supported, got {nblocks}")

    fields, size_line = header("block size")
    n = _parse_int(fields[0], size_line, "block size")
    if n < 1:
        raise SdpaFormatError(f"line {size_line}: block size must be >= 1, got {n}")

    fields, lineno = header("right-hand side")
    if len(fields) != m:
        raise SdpaFormatError(
            f"line {lineno}: expected {m} right-hand-side values, got {len(fields)}"
        )
    b = [_number(float, v) for v in fields]
    if None in b:
        raise SdpaFormatError(f"line {lineno}: non-numeric right-hand side")
    b = np.array(b)
    if not np.all(np.isfinite(b)):
        raise SdpaFormatError(f"line {lineno}: b has a non-finite entry")

    # one pass over every entry line; on any fault, a rescan names the line
    body = raw[pos:]
    entries = np.zeros(0, _SDPA_ENTRY)
    if any(map(str.strip, body)):  # loadtxt warns on a body with no entry
        try:
            entries = np.loadtxt(body, dtype=_SDPA_ENTRY, comments=None, ndmin=1)
        except ValueError:
            _raise_entry_error(raw, pos, m, n)
    matno, i, j, vals = (entries[f] for f in ("matno", "i", "j", "value"))
    if not (np.all((matno >= 0) & (matno <= m) & (entries["blkno"] == 1)
                   & (i >= 1) & (i <= n) & (j >= 1) & (j <= n))
            and np.all(np.isfinite(vals))):
        _raise_entry_error(raw, pos, m, n)

    # allocated first, so a block size too large for an int64 slot key fails here
    try:
        c = np.zeros((n, n))
    except (MemoryError, ValueError) as exc:  # too large to allocate or to index
        raise SdpaFormatError(
            f"line {size_line}: block size {n} is too large ({exc})") from None
    # 0-based upper triangle; of entries naming the same slot the last one wins
    lo, hi = np.minimum(i, j) - 1, np.maximum(i, j) - 1
    key = (matno * n + lo) * n + hi
    _, first_from_end = np.unique(key[::-1], return_index=True)
    last = key.size - 1 - first_from_end
    matno, lo, hi, vals = matno[last], lo[last], hi[last], vals[last]
    is_c = matno == 0
    ci, cj, cv = lo[is_c], hi[is_c], vals[is_c]
    c[ci, cj] = cv
    c[cj, ci] = cv
    cmap = ConstraintMap.from_triples(m, n, matno[~is_c] - 1, lo[~is_c], hi[~is_c],
                                      vals[~is_c])
    return SdpProblem(C=SymMat(c), constraints=cmap, b=b, meta=meta)
