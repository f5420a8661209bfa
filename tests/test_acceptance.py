"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines (they also appear in captured output on failure).
"""

import time

import numpy as np
import pytest

from pdhgsdp.bench import BenchConfig, run_bench
from pdhgsdp.drs import check_equivalence, constant_schedule, geometric_schedule
from pdhgsdp.linalg import SymMat
from pdhgsdp.operators import ConstraintMap, apply_At, build_T, gram, lambda_max_AAt
from pdhgsdp.problems import SdpProblem, gen_random, gen_snl, graph_laplacian
from pdhgsdp.projections import approx_proj_psd, proj_psd
from pdhgsdp.solver import (
    BalancedResidualPolicy,
    FixedPolicy,
    GradientAlignmentPolicy,
    LinesearchPolicy,
    ResidualReport,
    SolveConfig,
    TuningFreePolicy,
    residuals,
    solve,
    stop_check,
)


def _report(num: int, title: str, failures: list[str], started: float) -> None:
    elapsed = time.perf_counter() - started
    verdict = "PASS" if not failures else "FAIL"
    print(f"[criterion {num}] {verdict} {title} ({elapsed:.1f}s)")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def _random_sym(rng, n):
    g = rng.standard_normal((n, n))
    return SymMat.from_dense(g + g.T)


def cycle_maxcut(n: int) -> SdpProblem:
    """Max-cut instance on the n-cycle; min <L, X> optimum is 0 at the
    all-ones matrix."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    lap = graph_laplacian(n, [(min(i, j), max(i, j)) for i, j in edges])
    mats = []
    for i in range(n):
        e = np.zeros((n, n))
        e[i, i] = 1.0
        mats.append(SymMat.from_dense(e))
    return SdpProblem(SymMat.from_dense(lap), ConstraintMap(tuple(mats)),
                      np.ones(n), {"generator": "mc", "seed": 0})


def test_criterion_1_lifting_certificate():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(100)
    for trial in range(20):
        n = int(rng.integers(4, 11))
        m = int(rng.integers(2, 9))
        cmap = ConstraintMap(tuple(_random_sym(rng, n) for _ in range(m)))
        r = 0.9 / lambda_max_AAt(cmap)
        lifted = build_T(cmap, r)
        g = gram(cmap)
        s = (1.0 / r) * np.eye(m) - g
        tt = lifted.T @ lifted.T.T
        d1 = np.linalg.norm(tt - s)
        if d1 >= 1e-10 * max(1.0, np.linalg.norm(s)):
            failures.append(f"trial {trial}: ||TT^T - S|| = {d1:.2e}")
        d2 = np.linalg.norm(g + tt - (1.0 / r) * np.eye(m))
        if d2 >= 1e-9:
            failures.append(f"trial {trial}: ||AA^T + TT^T - I/R|| = {d2:.2e}")
    _report(1, "lifting certificate on 20 random maps", failures, started)


def test_criterion_2_splitting_equivalence():
    started = time.perf_counter()
    failures = []
    prob = gen_random(1, n=5, m=3)
    for label, schedule in (("constant", constant_schedule(1.0)),
                            ("non-stationary", geometric_schedule())):
        report = check_equivalence(prob, schedule, iters=100, tol=1e-8)
        if not report.passed:
            failures.append(
                f"{label}: x defect {report.max_x_defect:.2e}, "
                f"z defect {report.max_z_defect:.2e}"
            )
    control = check_equivalence(prob, geometric_schedule(), iters=100,
                                tol=1e-8, break_product=True)
    if control.passed:
        failures.append("negative control with alpha*beta != R did not fail")
    _report(2, "PDHG matches the splitting oracle over 100 iterations",
            failures, started)


def test_criterion_3_maxcut_analytic_optimum():
    # A converging policy must both satisfy the standard stopping rule
    # (combined < 1e-6) and reach an iterate with objective <= 1e-4,
    # diag within 1e-4 of 1, and min eigenvalue >= -1e-6, all inside the
    # 50000-iteration budget. The runs use a tighter stop (1e-8) so the
    # trajectory is observable past the 1e-6 crossing, which itself is
    # asserted from the trace.
    started = time.perf_counter()
    failures = []
    policies = [
        ("fixed", lambda: FixedPolicy()),
        ("bpdr", lambda: BalancedResidualPolicy()),
        ("alv", lambda: GradientAlignmentPolicy()),
        ("ls_s0.2", lambda: LinesearchPolicy(s=0.2)),
        ("tf", lambda: TuningFreePolicy()),
    ]
    for n in (4, 8, 16):
        prob = cycle_maxcut(n)
        lap = prob.C.to_dense()
        for label, factory in policies:
            hit: dict = {"found": None}

            def observe(k, x, _y, hit=hit, lap=lap):
                if hit["found"] is None:
                    objective = float(np.einsum("ij,ij->", lap, x))
                    diag_gap = float(np.max(np.abs(np.diag(x) - 1.0)))
                    if objective <= 1e-4 and diag_gap <= 1e-4:
                        hit["found"] = (k, np.linalg.eigvalsh(x)[0])

            trace = solve(prob, factory(),
                          SolveConfig(max_iters=50000, tol=1e-8,
                                      callback=observe))
            k_conv = next((r.k for r in trace.rows if r.combined < 1e-6), None)
            if k_conv is None:
                failures.append(
                    f"n={n} {label}: stopping rule never fired within 50000"
                )
                continue
            if hit["found"] is None:
                failures.append(
                    f"n={n} {label}: never reached objective <= 1e-4 with "
                    "diag gap <= 1e-4"
                )
                continue
            k_hit, min_eig = hit["found"]
            if min_eig < -1e-6:
                failures.append(f"n={n} {label}: min eig {min_eig:.2e} < -1e-6")
            if k_hit >= 50000:
                failures.append(f"n={n} {label}: optimum reached too late ({k_hit})")
    _report(3, "cycle-graph max-cut reaches the analytic optimum", failures,
            started)


def test_criterion_4_snl_feasibility_recovery():
    started = time.perf_counter()
    failures = []
    # dense geometry so the 8-sensor network is uniquely localizable; the
    # solve tolerance is tightened to 1e-8 (the criterion pins the feasibility
    # thresholds, not the stopping tolerance)
    prob, truth = gen_snl(7, m_anchors=4, n_sensors=8, radius=0.7, degree=8)
    trace = solve(prob, TuningFreePolicy(), SolveConfig(max_iters=100000, tol=1e-8))
    if trace.status != "converged":
        failures.append(f"solver status {trace.status}")
    else:
        z = trace.X_final
        gaps = np.abs(
            np.asarray([float(np.einsum("ij,ij->", apply_At(prob.constraints, e).to_dense(),
                                        z.to_dense()))
                        for e in np.eye(prob.m)]) - prob.b
        )
        n_dist = len(truth.edges_xx) + len(truth.edges_ax)
        if gaps[:n_dist].max() > 1e-3:
            failures.append(f"distance equality gap {gaps[:n_dist].max():.2e} > 1e-3")
        if gaps[n_dist:].max() > 1e-4:
            failures.append(f"identity block gap {gaps[n_dist:].max():.2e} > 1e-4")
    _report(4, "sensor-localization feasibility recovery", failures, started)


def test_criterion_5_stepsize_policy_invariants():
    started = time.perf_counter()
    failures = []
    prob = gen_random(42, n=10, m=8)
    iters = 1000
    cfg = SolveConfig(max_iters=iters, tol=1e-300)

    def run(policy):
        return solve(prob, policy, cfg).rows

    # (a) preserved product for fixed / bpdr / alv / tf
    for label, policy in (
        ("fixed", FixedPolicy()),
        ("bpdr", BalancedResidualPolicy()),
        ("alv", GradientAlignmentPolicy()),
        ("tf", TuningFreePolicy()),
    ):
        rows = run(policy)
        r0 = rows[0].alpha * rows[0].beta
        worst = max(abs(row.alpha * row.beta - r0) for row in rows)
        if worst > 1e-12 * r0:
            failures.append(f"(a) {label}: product drift {worst / r0:.2e}")

        # (b) theta equals the realized stepsize ratio
        for prev, cur in zip(rows, rows[1:]):
            ratio = cur.alpha / prev.alpha
            if abs(cur.theta - ratio) > 1e-12 * max(1.0, abs(ratio)):
                failures.append(
                    f"(b) {label}: theta {cur.theta} vs ratio {ratio} at k={cur.k}"
                )
                break

        if label == "tf":
            # (c) empirical boundedness from the clamp window (alpha0 = 1)
            alphas = np.array([row.alpha for row in rows])
            if alphas.min() < TuningFreePolicy.theta_min - 1e-15:
                failures.append(f"(c) tf alpha fell below theta_min: {alphas.min()}")
            if alphas.max() > TuningFreePolicy.theta_max + 1e-15:
                failures.append(f"(c) tf alpha exceeded theta_max: {alphas.max()}")

        if label in ("bpdr", "alv"):
            # (d) product bounds from the decaying epsilon sequence
            eps0, eta = 0.5, 0.95
            alpha0 = rows[0].alpha
            bound = 1.0  # running product of (1 - eps_i) over applied branches
            for k, row in enumerate(rows):
                lower = alpha0 * bound
                upper = alpha0 / bound
                if not (lower * (1 - 1e-12) <= row.alpha <= upper * (1 + 1e-12)):
                    failures.append(
                        f"(d) {label}: alpha {row.alpha} outside "
                        f"[{lower}, {upper}] at k={k}"
                    )
                    break
                bound *= 1.0 - eps0 * eta**k
            # summable variation: tail sums of |alpha_{k+1} - alpha_k| shrink
            diffs = np.abs(np.diff([row.alpha for row in rows]))
            head, tail = diffs[:500].sum(), diffs[500:].sum()
            if not (tail < head or head == 0.0):
                failures.append(f"(d) {label}: variation tail {tail} >= head {head}")

    # (b) for the linesearch policy as well
    rows = run(LinesearchPolicy(s=0.2))
    for prev, cur in zip(rows, rows[1:]):
        ratio = cur.alpha / prev.alpha
        if abs(cur.theta - ratio) > 1e-12 * max(1.0, abs(ratio)):
            failures.append(f"(b) ls: theta {cur.theta} vs ratio {ratio} at k={cur.k}")
            break

    _report(5, "stepsize policy invariants over 1000 iterations", failures,
            started)


def test_criterion_6_projection_correctness():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(600)

    def clipping_oracle(dense):
        vals, vecs = np.linalg.eigh(dense)
        out = np.zeros_like(dense)
        for v, u in zip(vals, vecs.T):
            if v > 0:
                out += v * np.outer(u, u)
        return out

    for trial in range(200):
        n = int(rng.integers(2, 13))
        m = _random_sym(rng, n)
        gap = np.linalg.norm(proj_psd(m).to_dense() - clipping_oracle(m.to_dense()))
        if gap > 1e-10:
            failures.append(f"trial {trial}: oracle gap {gap:.2e}")
        if trial < 50:
            full = approx_proj_psd(m, n)
            if (full - proj_psd(m)).norm() > 1e-8:
                failures.append(f"trial {trial}: full-rank truncation mismatch")
            r = max(1, n // 2)
            truncated = approx_proj_psd(m, r)
            vals = np.linalg.eigvalsh(truncated.to_dense())[::-1]
            top = max(vals[0], 1e-300)
            if int(np.sum(vals > 1e-9 * top)) > r:
                failures.append(f"trial {trial}: rank exceeds budget {r}")
    _report(6, "projection against the clipping oracle (200 matrices)",
            failures, started)


def test_criterion_7_residual_semantics():
    started = time.perf_counter()
    failures = []

    # injected fixed point: zero gradient and feasible iterate => zero
    # residuals and immediate convergence
    rng = np.random.default_rng(700)
    mats = tuple(_random_sym(rng, 4) for _ in range(3))
    cmap = ConstraintMap(mats)
    x_star = SymMat.identity(4)
    b = np.asarray([float(np.einsum("ij,ij->", m.to_dense(), np.eye(4)))
                    for m in mats])
    fixed_point_prob = SdpProblem(SymMat.zeros(4), cmap, b, {})
    trace = solve(fixed_point_prob, FixedPolicy(),
                  SolveConfig(max_iters=10, X0=x_star))
    if trace.status != "converged" or trace.iterations != 1:
        failures.append(f"fixed point: {trace.status} in {trace.iterations}")
    elif trace.rows[0].combined != 0.0:
        failures.append(f"fixed point residual {trace.rows[0].combined}")
    rep = residuals(fixed_point_prob, np.eye(4), np.eye(4), b * 0.0, b * 0.0,
                    0.5, 0.5)
    if (rep.p_norm, rep.d_norm, rep.combined) != (0.0, 0.0, 0.0):
        failures.append("stationary residuals not exactly zero")

    # strict boundary
    if stop_check(ResidualReport(1e-3, 0.0, 1e-6), 1e-6):
        failures.append("stop_check not strict at the boundary")
    if not stop_check(ResidualReport(0.0, 0.0, 9.9e-7), 1e-6):
        failures.append("stop_check rejected combined below tol")

    # trace consistency on a live run
    prob = gen_random(7, n=8, m=6)
    rows = solve(prob, BalancedResidualPolicy(),
                 SolveConfig(max_iters=200, tol=1e-300)).rows
    for row in rows:
        expected = row.p_norm**2 + row.d_norm**2
        if abs(row.combined - expected) > 1e-12 * max(expected, 1e-300):
            failures.append(f"combined mismatch at k={row.k}")
            break
    _report(7, "residual and stopping semantics", failures, started)


@pytest.mark.slow
def test_criterion_8_policy_trend():
    started = time.perf_counter()
    failures = []
    # reduced-size protocol; SNL geometry is densified (radius 0.7, degree 8)
    # so 15-sensor instances stay as well-posed as the full-size family
    config = BenchConfig(
        families=("rg", "mc", "snl"),
        seeds=20,
        budgets={"rg": (5000, 10000), "mc": (2500, 5000), "snl": (7500, 15000)},
        policies=("fixed", "ls", "tf"),
        sizes={
            "rg": {"n": 20, "m": 20},
            "mc": {"n": 30, "m_edges": 30},
            "snl": {"m_anchors": 4, "n_sensors": 15, "radius": 0.7, "degree": 8},
        },
        tol=1e-6,
    )
    result = run_bench(config)
    middle = {"rg": 10000, "mc": 5000, "snl": 15000}
    ls_labels = [f"ls_s{s:g}" for s in config.ls_s_grid]
    for family in config.families:
        budget = middle[family]
        tf_frac = result.fraction(family, "tf", budget)
        fixed_frac = result.fraction(family, "fixed", budget)
        worst_ls = min(result.fraction(family, label, budget)
                       for label in ls_labels)
        print(f"  {family}: tf={tf_frac:.2f} fixed={fixed_frac:.2f} "
              f"worst_ls={worst_ls:.2f}")
        if tf_frac < fixed_frac:
            failures.append(f"{family}: tf {tf_frac} < fixed {fixed_frac}")
        if tf_frac < worst_ls:
            failures.append(f"{family}: tf {tf_frac} < worst ls {worst_ls}")
    _report(8, "tuning-free trend at the middle budgets (20 seeds/family)",
            failures, started)
