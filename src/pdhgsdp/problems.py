"""SDP instance model, the three benchmark generators, and SDPA sparse I/O.

All generators are deterministic in their seed. The three families:

* random feasible instances (``rg``): dense random constraints with a built-in
  strictly feasible primal-dual pair,
* max-cut relaxations (``mc``): graph Laplacian objective with diag(X) = 1,
* sensor network localization (``snl``): feasibility SDP on the block matrix
  Z = [[I, X], [X^T, Y]] with squared-distance equalities.
"""

from __future__ import annotations

import itertools
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


def _symmetrized_gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n))
    return 0.5 * (g + g.T)


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
    mats = tuple(SymMat(_symmetrized_gaussian(rng, n)) for _ in range(m))
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
    lap = np.zeros((n, n))
    for i, j in edges:
        lap[i, i] += 1.0
        lap[j, j] += 1.0
        lap[i, j] -= 1.0
        lap[j, i] -= 1.0
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
    max_edges = n * (n - 1) // 2
    if m_edges > max_edges:
        raise ValueError(f"{m_edges} edges infeasible for n={n} (max {max_edges})")
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


def _nearest_within(
    points_from: np.ndarray, points_to: np.ndarray, radius: float, degree: int,
    skip_self: bool,
) -> list[list[int]]:
    out = []
    for idx in range(points_from.shape[0]):
        d = np.linalg.norm(points_to - points_from[idx], axis=1)
        if skip_self:
            d[idx] = np.inf
        candidates = np.where(d <= radius)[0]
        order = candidates[np.argsort(d[candidates], kind="stable")]
        out.append([int(t) for t in order[:degree]])
    return out


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
    if n_sensors < 1:
        raise ValueError(f"need at least one sensor, got n_sensors={n_sensors}")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")

    for attempt in range(SNL_MAX_RETRIES):
        rng = np.random.default_rng((seed, attempt))
        anchors = rng.uniform(size=(m_anchors, p))
        sensors = rng.uniform(size=(n_sensors, p))

        sensor_nbrs = _nearest_within(sensors, sensors, radius, degree, skip_self=True)
        anchor_nbrs = _nearest_within(sensors, anchors, radius, degree, skip_self=False)

        edges_xx = sorted(
            {(min(i, j), max(i, j)) for i, nbrs in enumerate(sensor_nbrs) for j in nbrs}
        )
        edges_ax = sorted(
            {(k, j) for j, nbrs in enumerate(anchor_nbrs) for k in nbrs}
        )

        incident = {i for i, j in edges_xx} | {j for i, j in edges_xx}
        incident |= {j for _, j in edges_ax}
        if len(incident) == n_sensors:
            break
    else:
        raise RuntimeError(
            f"could not generate a fully connected geometry in {SNL_MAX_RETRIES} tries "
            f"(seed={seed}); increase radius or degree"
        )

    dim = p + n_sensors
    entries: list[tuple[int, int, int, float]] = []  # (constraint, i, j, value)
    rhs: list[float] = []
    xx_triples: list[tuple[int, int, float]] = []
    ax_triples: list[tuple[int, int, float]] = []

    # ||x_i - x_j||^2 = Y_ii + Y_jj - 2 Y_ij
    for i, j in edges_xx:
        d = float(np.linalg.norm(sensors[i] - sensors[j]))
        xx_triples.append((i, j, d))
        row = len(rhs)
        entries += [(row, p + i, p + i, 1.0), (row, p + j, p + j, 1.0),
                    (row, p + i, p + j, -1.0)]
        rhs.append(d * d)

    # ||a_k - x_j||^2 = v^T Z v for v = (a_k, -e_j)
    for k, j in edges_ax:
        d = float(np.linalg.norm(anchors[k] - sensors[j]))
        ax_triples.append((k, j, d))
        row = len(rhs)
        a = anchors[k]
        entries += [(row, s, t, float(a[s] * a[t])) for s in range(p) for t in range(s, p)]
        entries += [(row, s, p + j, -float(a[s])) for s in range(p)]
        entries.append((row, p + j, p + j, 1.0))
        rhs.append(d * d)

    # the top-left p-by-p block of Z is the identity
    for s in range(p):
        for t in range(s, p):
            entries.append((len(rhs), s, t, 1.0 if s == t else 0.5))
            rhs.append(1.0 if s == t else 0.0)

    con, ent_i, ent_j, vals = zip(*entries)
    cmap = ConstraintMap.from_triples(len(rhs), dim, con, ent_i, ent_j, vals)
    problem = SdpProblem(
        C=SymMat.zeros(dim),
        constraints=cmap,
        b=np.asarray(rhs),
        meta={
            "generator": "snl", "seed": seed, "p": p,
            "m_anchors": m_anchors, "n_sensors": n_sensors,
            "radius": radius, "degree": degree,
            "n_xx": len(xx_triples), "n_ax": len(ax_triples),
        },
    )
    truth = SnlGroundTruth(
        anchors=anchors,
        sensors=sensors,
        edges_xx=tuple(xx_triples),
        edges_ax=tuple(ax_triples),
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


def read_instance(path) -> SdpProblem:
    """Read a single-block SDPA sparse file, as :func:`write_instance` writes
    it or with SDPA's braces and commas on the header lines.

    Accepts leading comment lines starting with '*' or '"'. Raises
    :class:`SdpaFormatError` with a line number on malformed input.
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
                if part.startswith("seed="):
                    try:
                        meta["seed"] = int(part[5:])
                    except ValueError:
                        pass
        pos += 1

    def next_line(what: str) -> tuple[str, int]:
        nonlocal pos
        while pos < len(raw):
            stripped = raw[pos].strip()
            pos += 1
            if stripped:
                return stripped, pos
        raise SdpaFormatError(f"unexpected end of file while reading {what}")

    def parse_int(text: str, lineno: int, what: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise SdpaFormatError(f"line {lineno}: expected integer {what}, got {text!r}")

    def header(what: str) -> tuple[list[str], int]:
        text, lineno = next_line(what)
        fields = text.translate(_HEADER_BLANKS).split()
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

    # (matno, i, j) -> value, 0-based in the upper triangle; an entry given
    # twice keeps its last value
    entries: dict[tuple[int, int, int], float] = {}
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
