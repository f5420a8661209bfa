import inspect
from dataclasses import astuple

import numpy as np
import pytest

import pdhgsdp.operators as operators_module
import pdhgsdp.solver as solver_module
from pdhgsdp.drs import check_equivalence, geometric_schedule
from pdhgsdp.linalg import SymMat, frobenius_inner_dense
from pdhgsdp.operators import (
    ConstraintMap,
    adjoint,
    adjoint_packed,
    apply_A,
    apply_At,
    forward,
    forward_packed,
    lambda_max_AAt,
)
from pdhgsdp.problems import SdpProblem, gen_maxcut, gen_random, gen_snl, graph_laplacian
from pdhgsdp.projections import Layout, proj_psd, proj_psd_dense, proj_psd_packed
from pdhgsdp.solver import (
    POLICY_NAMES,
    BalancedResidualPolicy,
    FixedPolicy,
    GradientAlignmentPolicy,
    IterateState,
    LinesearchPolicy,
    LinesearchStalled,
    ResidualReport,
    RunTrace,
    SchedulePolicy,
    SolveConfig,
    SolveError,
    StepsizePolicy,
    StepsizeState,
    TraceRow,
    TuningFreePolicy,
    default_stepsize_product,
    make_policy,
    residuals,
    solve,
    stop_check,
)


def small_rg(seed=0, n=5, m=3):
    return gen_random(seed, n=n, m=m)


def small_snl(seed=1):
    problem, _ = gen_snl(seed, m_anchors=3, n_sensors=5, radius=0.9, degree=4)
    return problem


def zero_map_problem(n=3):
    cmap = ConstraintMap((SymMat.zeros(n),))
    return SdpProblem(SymMat.zeros(n), cmap, np.zeros(1), {"generator": "custom"})


def random_sym(rng, n):
    return SymMat.from_dense(rng.standard_normal((n, n))).to_dense()


def iterate_state(prob, x_cur, y, k=0):
    """IterateState with the map products the engine would have cached, all
    n-by-n, on a support that is everything: a hook works on any one shape
    of matrix."""
    cmap = prob.constraints
    return IterateState(X_cur=x_cur, y=y, AX=forward(cmap, x_cur), Aty=adjoint(cmap, y),
                        support=slice(None), k=k, adjoint=lambda v: adjoint(cmap, v))


class ConstantSteps(StepsizePolicy):
    """Constant (alpha, beta, theta), with no product condition."""

    def __init__(self, alpha, beta=1.0, theta=1.0):
        self.steps = (alpha, beta, theta)

    def initial_state(self, problem):
        alpha, beta, theta = self.steps
        return StepsizeState(alpha=alpha, beta=beta, theta=theta, R=alpha * beta)


def one_step(prob, x0, y0, alpha, beta=1.0, theta=1.0):
    """(X^1, y^1) of one engine iteration from (x0, y0)."""
    seen = []
    solve(prob, ConstantSteps(alpha, beta, theta),
          SolveConfig(max_iters=1, tol=1e-300, X0=x0, y0=y0,
                      callback=lambda k, x, y: seen.append((x, y))))
    return seen[0]


class TestXUpdate:
    """The engine's primal step Proj_PSD(X - alpha (A^T(y) + C))."""

    def test_zero_gradient_projects_iterate(self):
        prob = zero_map_problem()
        x = np.diag([1.0, -2.0, 3.0])
        out, _ = one_step(prob, x, np.zeros(1), alpha=0.7)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0, 3.0]), atol=1e-14)

    def test_psd_fixed_point(self):
        prob = zero_map_problem()
        x = np.eye(3)
        out, _ = one_step(prob, x, np.zeros(1), alpha=0.5)
        np.testing.assert_allclose(out, x, atol=1e-14)

    def test_matches_projection_oracle(self):
        prob = small_rg(1)
        rng = np.random.default_rng(2)
        x = random_sym(rng, 5)
        y = rng.standard_normal(3)
        alpha = 0.3
        step = x - alpha * (
            adjoint(prob.constraints, y) + prob.C.to_dense()
        )
        oracle = proj_psd(SymMat.from_dense(step)).to_dense()
        out, _ = one_step(prob, x, y, alpha)
        np.testing.assert_allclose(out, oracle, atol=1e-12)

    def test_alpha_validation(self):
        # a non-positive primal stepsize is rejected before any step
        prob = zero_map_problem()
        with pytest.raises(ValueError):
            solve(prob, SchedulePolicy(lambda k: 0.0, R=1.0), SolveConfig(max_iters=1))


class TestYUpdate:
    """The engine's dual step y + beta ((1 + theta) A(X^{k+1}) - theta A(X^k) - b)."""

    def test_feasible_extrapolate_keeps_y(self):
        # diag(I) = 1 = b, and C = -A^T(y) makes I a fixed point of the primal
        # step, so the extrapolate of equal iterates is feasible
        y = np.arange(4.0)
        mc = gen_maxcut(1, n=4, m_edges=3)
        prob = SdpProblem(SymMat.from_dense(-np.diag(y)), mc.constraints, mc.b, {})
        x_new, y_new = one_step(prob, np.eye(4), y, alpha=0.3, beta=0.5, theta=1.0)
        np.testing.assert_allclose(x_new, np.eye(4), atol=1e-14)
        np.testing.assert_allclose(y_new, y)

    def test_no_extrapolation(self):
        prob = small_rg(3)
        rng = np.random.default_rng(4)
        x_cur = random_sym(rng, 5)
        y = rng.standard_normal(3)
        x_new, y_new = one_step(prob, x_cur, y, alpha=0.2, beta=0.25, theta=0.0)
        v = forward(prob.constraints, x_new) - prob.b
        np.testing.assert_allclose(y_new, y + 0.25 * v, rtol=1e-12)

    def test_linear_in_beta(self):
        prob = small_rg(5)
        rng = np.random.default_rng(6)
        x_cur = random_sym(rng, 5)
        y = rng.standard_normal(3)
        x1, y1 = one_step(prob, x_cur, y, alpha=0.2, beta=0.1, theta=1.0)
        x2, y2 = one_step(prob, x_cur, y, alpha=0.2, beta=0.2, theta=1.0)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_allclose(y2 - y, 2.0 * (y1 - y), rtol=1e-12)


class TestResiduals:
    def test_stationary_iterates(self):
        prob = small_rg(7)
        rng = np.random.default_rng(8)
        x = SymMat.from_dense(rng.standard_normal((5, 5))).to_dense()
        y = rng.standard_normal(3)
        rep = residuals(prob, x, x, y, y, alpha=0.5, beta=0.5)
        assert rep.p_norm == 0.0 and rep.d_norm == 0.0 and rep.combined == 0.0

    def test_zero_map_decouples(self):
        prob = zero_map_problem()
        rng = np.random.default_rng(9)
        x_old = SymMat.from_dense(rng.standard_normal((3, 3))).to_dense()
        x_new = SymMat.from_dense(rng.standard_normal((3, 3))).to_dense()
        y_old, y_new = rng.standard_normal(1), rng.standard_normal(1)
        rep = residuals(prob, x_old, x_new, y_old, y_new, alpha=0.5, beta=0.25)
        assert rep.p_norm == pytest.approx(np.linalg.norm(x_old - x_new) / 0.5)
        assert rep.d_norm == pytest.approx(np.linalg.norm(y_old - y_new) / 0.25)

    def test_matches_direct_formula(self):
        prob = small_rg(10)
        rng = np.random.default_rng(11)
        x_old = SymMat.from_dense(rng.standard_normal((5, 5))).to_dense()
        x_new = SymMat.from_dense(rng.standard_normal((5, 5))).to_dense()
        y_old, y_new = rng.standard_normal(3), rng.standard_normal(3)
        alpha, beta = 0.37, 0.81
        rep = residuals(prob, x_old, x_new, y_old, y_new, alpha, beta)
        stacks = np.stack([apply_At(prob.constraints, e).to_dense() for e in np.eye(prob.m)])
        p_ref = (x_old - x_new) / alpha - np.tensordot(y_old - y_new, stacks, axes=1)
        d_ref = (y_old - y_new) / beta - np.einsum(
            "kij,ij->k", stacks, x_old - x_new
        )
        assert rep.p_norm == pytest.approx(np.linalg.norm(p_ref), rel=1e-12)
        assert rep.d_norm == pytest.approx(np.linalg.norm(d_ref), rel=1e-12)
        assert rep.combined == pytest.approx(rep.p_norm**2 + rep.d_norm**2, rel=1e-12)

    def test_stepsize_validation(self):
        prob = zero_map_problem()
        x = np.eye(3)
        with pytest.raises(ValueError):
            residuals(prob, x, x, np.zeros(1), np.zeros(1), alpha=-1.0, beta=1.0)


class TestStopCheck:
    def test_zero_combined(self):
        assert stop_check(ResidualReport(0.0, 0.0, 0.0), 1e-6)

    def test_boundary_is_strict(self):
        assert not stop_check(ResidualReport(1e-3, 0.0, 1e-6), 1e-6)

    def test_just_below(self):
        assert stop_check(ResidualReport(0.0, 0.0, 9.9e-7), 1e-6)

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            stop_check(ResidualReport(0.0, 0.0, 0.0), 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_tol_rejected(self, bad):
        # a NaN tol once passed the check, and the rule then never fired
        with pytest.raises(ValueError, match="tol"):
            stop_check(ResidualReport(0.0, 0.0, 0.0), bad)


class TestFixedPolicy:
    def test_state_constant_and_product_invariant(self):
        prob = small_rg(12)
        trace = solve(prob, FixedPolicy(), SolveConfig(max_iters=1000, tol=1e-300))
        alphas = {row.alpha for row in trace.rows}
        betas = {row.beta for row in trace.rows}
        thetas = {row.theta for row in trace.rows}
        assert len(alphas) == 1 and len(betas) == 1 and thetas == {1.0}
        r0 = trace.rows[0].alpha * trace.rows[0].beta
        for row in trace.rows:
            assert abs(row.alpha * row.beta - r0) <= 1e-12 * r0

    def test_invalid_product_rejected(self):
        # fixed takes no stepsizes: its product is always 0.9/lambda_max
        with pytest.raises(ValueError, match="'alpha'"):
            make_policy("fixed", alpha=1.0)


class TestBalancedResidualPolicy:
    def _state(self, alpha=0.5, beta=0.8):
        return StepsizeState(alpha=alpha, beta=beta, theta=1.0, R=alpha * beta)

    def _iterate(self, prob, k=0):
        return iterate_state(prob, np.zeros((prob.n, prob.n)), np.zeros(prob.m), k=k)

    def test_balanced_branch_keeps_stepsizes(self):
        prob = small_rg(13)
        pol = BalancedResidualPolicy()
        ss = self._state()
        rep = ResidualReport(1.0, 1.0, 2.0)
        alpha = pol.adjust_post(prob, self._iterate(prob), None, None, rep, ss)
        assert alpha == 0.5
        assert ss == self._state()  # the hook leaves the stepsizes to the engine
        ss.move_to(alpha)
        assert ss.alpha == 0.5 and ss.beta == 0.8 and ss.theta == 1.0

    def test_grow_branch_doubles_alpha(self):
        # p = 10 d with eps = 0.5: alpha doubles, so beta halves
        prob = small_rg(14)
        pol = BalancedResidualPolicy()
        ss = self._state(alpha=0.5, beta=0.8)
        rep = ResidualReport(10.0, 1.0, 101.0)
        alpha = pol.adjust_post(prob, self._iterate(prob), None, None, rep, ss)
        assert alpha == 1.0
        ss.move_to(alpha)
        assert ss.beta == pytest.approx(0.4, rel=1e-15)
        assert ss.theta == 2.0

    def test_shrink_branch(self):
        prob = small_rg(15)
        pol = BalancedResidualPolicy()
        ss = self._state(alpha=1.0, beta=0.4)
        rep = ResidualReport(0.1, 1.0, 1.01)
        alpha = pol.adjust_post(prob, self._iterate(prob), None, None, rep, ss)
        assert alpha == 0.5
        ss.move_to(alpha)
        assert ss.theta == 0.5

    def test_theta_equals_alpha_ratio_identity(self):
        prob = small_rg(16)
        trace = solve(prob, BalancedResidualPolicy(),
                      SolveConfig(max_iters=300, tol=1e-300))
        for prev, cur in zip(trace.rows, trace.rows[1:]):
            assert cur.theta == pytest.approx(cur.alpha / prev.alpha, rel=1e-12)

    def test_epsilon_decays_geometrically(self):
        # the shrink branch after iteration k returns alpha (1 - eps0 eta^k)
        pol = BalancedResidualPolicy(eta=0.95)
        prob = small_rg(17)
        ss = self._state(alpha=1.0, beta=0.4)
        rep = ResidualReport(0.1, 1.0, 1.01)
        for k in range(6):
            alpha = pol.adjust_post(prob, self._iterate(prob, k), None, None, rep, ss)
            assert alpha == 1.0 - 0.5 * 0.95 ** k

    @pytest.mark.parametrize("ratio, branch", [(2.0, 0), (3.0, 1)])
    def test_grow_threshold_is_twice_the_dual_residual(self, ratio, branch):
        # p = 2 d still holds; anything above it grows alpha
        pol = BalancedResidualPolicy()
        rep = ResidualReport(ratio * 0.7, 0.7, 0.0)
        assert pol._branch(None, None, None, rep, None) == branch

    def test_param_validation(self):
        for eta in (0.0, 1.0):
            with pytest.raises(ValueError, match="eta"):
                BalancedResidualPolicy(eta=eta)

    @pytest.mark.parametrize("name", ["bpdr", "alv"])
    @pytest.mark.parametrize("eta", ["0.3", True, None, float("nan"), [0.5]])
    def test_eta_of_wrong_type_is_named(self, name, eta):
        with pytest.raises(ValueError, match=r"^eta must be a real number in \(0, 1\)"):
            make_policy(name, eta=eta)


class TestGradientAlignmentPolicy:
    def _setup(self):
        # two orthonormal directions: A1 off-diagonal, A2 = dx/||dx||
        a1 = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0)
        dx = np.diag([1.0, -1.0])
        a2 = dx / np.linalg.norm(dx)
        cmap = ConstraintMap((SymMat.from_dense(a1), SymMat.from_dense(a2)))
        prob = SdpProblem(SymMat.zeros(2), cmap, np.zeros(2), {})
        return prob, dx

    def _run_branch(self, prob, dx, delta_y):
        """The stepsize the hook returns from alpha = 1."""
        pol = GradientAlignmentPolicy()
        ss = StepsizeState(alpha=1.0, beta=1.0, theta=1.0, R=1.0)
        x_new = np.zeros((2, 2))
        it = iterate_state(prob, dx.copy(), np.zeros(2))
        y_new = -np.asarray(delta_y, dtype=float)  # so y_old - y_new = delta_y
        # the engine's primal residual matrix, here with alpha = 1
        p_mat = (it.X_cur - x_new) - adjoint(prob.constraints, it.y - y_new)
        return pol.adjust_post(prob, it, x_new, p_mat, ResidualReport(1.0, 1.0, 2.0), ss)

    def test_parallel_residual_grows_alpha(self):
        prob, dx = self._setup()
        # delta_y = 0 -> p = dx/alpha, perfectly aligned with dx
        assert self._run_branch(prob, dx, delta_y=[0.0, 0.0]) == 2.0

    def test_orthogonal_residual_holds(self):
        prob, dx = self._setup()
        # A^T(delta_y) = dx + A1 => p = -A1, orthogonal to dx
        norm_dx = np.linalg.norm(dx)
        assert self._run_branch(prob, dx, delta_y=[1.0, norm_dx]) == 1.0

    def test_antiparallel_residual_shrinks_alpha(self):
        prob, dx = self._setup()
        # A^T(delta_y) = 2 dx => p = -dx
        assert self._run_branch(prob, dx, delta_y=[0.0, 2.0 * np.linalg.norm(dx)]) == 0.5

    def test_degenerate_cosine_flag(self):
        prob, dx = self._setup()
        pol = GradientAlignmentPolicy()
        ss = StepsizeState(alpha=1.0, beta=1.0, theta=1.0, R=1.0)
        x_same = dx.copy()
        it = iterate_state(prob, dx.copy(), np.zeros(2))
        alpha = pol.adjust_post(prob, it, x_same, np.zeros((2, 2)),
                                ResidualReport(0.0, 0.0, 0.0), ss)
        assert alpha == 1.0
        assert ss.counts == {"degenerate_cosine": 1}


def rows_scaled(prob, k):
    """The problem with every A_i and b multiplied by 2**k, which is exact."""
    con, i, j, vals = prob.constraints.upper_triples()
    cmap = ConstraintMap.from_triples(prob.m, prob.n, con, i, j, vals * 2.0 ** k)
    return SdpProblem(prob.C, cmap, prob.b * 2.0 ** k, dict(prob.meta))


class TestUnitFreeStart:
    """bpdr and alv start at fixed's alpha_0 = sqrt(R) times rho, the RMS
    Frobenius norm of the A_i, with beta_0 = R/alpha_0: alpha_0 does not
    change when the rows are rescaled."""

    @pytest.mark.parametrize("k", [-3, 3])
    @pytest.mark.parametrize("name", ["alv", "tf"])
    def test_iterates_invariant_to_power_of_two_row_scaling(self, name, k):
        prob = small_rg(40, n=6, m=4)
        scaled = rows_scaled(prob, k)
        cfg = SolveConfig(max_iters=300, tol=1e-300)
        base = solve(prob, make_policy(name), cfg)
        other = solve(scaled, make_policy(name), cfg)
        assert other.iterations == base.iterations == 300
        assert np.array_equal(other.X_final.dense, base.X_final.dense)
        assert [r.alpha for r in other.rows] == [r.alpha for r in base.rows]
        assert [r.beta for r in other.rows] == [r.beta * 4.0 ** -k for r in base.rows]

    @pytest.mark.parametrize("k", [-3, 3])
    def test_bpdr_start_invariant_to_row_scaling(self, k):
        prob = small_rg(41, n=6, m=4)
        base = BalancedResidualPolicy().initial_state(prob)
        other = BalancedResidualPolicy().initial_state(rows_scaled(prob, k))
        assert other.alpha == base.alpha
        assert other.beta == base.beta * 4.0 ** -k
        assert other.R == base.R * 4.0 ** -k

    @pytest.mark.parametrize("name", ["bpdr", "alv"])
    def test_start_splits_fixed_product_by_row_norm(self, name):
        prob = small_rg(42, n=6, m=4)
        fixed = FixedPolicy().initial_state(prob)
        ss = make_policy(name).initial_state(prob)
        rho = prob.constraints.rms_row_norm()
        assert rho != 1.0
        assert ss.alpha == fixed.alpha * rho and ss.beta == ss.R / ss.alpha
        assert ss.R == fixed.R
        assert ss.theta == 1.0

    @pytest.mark.parametrize("name", ["bpdr", "alv"])
    def test_unit_norm_rows_start_at_balanced_pair(self, name):
        # max-cut's A_i = e_i e_i^T have unit norm, so rho = 1 exactly
        prob = gen_maxcut(3, n=8, m_edges=10)
        fixed = FixedPolicy().initial_state(prob)
        ss = make_policy(name).initial_state(prob)
        rho = prob.constraints.rms_row_norm()
        assert rho == 1.0
        assert ss.alpha == fixed.alpha * rho and ss.beta == ss.R / ss.alpha
        assert ss.R == fixed.R


class TestZeroConstraintMap:
    """lambda_max(AA^T) = 0 gives no default stepsize; ls copes on its own."""

    @pytest.mark.parametrize("name", ["fixed", "bpdr", "alv", "tf", "schedule"])
    def test_default_stepsizes_name_the_zero_map(self, name):
        prob = zero_map_problem()
        with pytest.raises(ValueError, match="constraint map is zero"):
            solve(prob, every_policy(name, prob), SolveConfig(max_iters=1))

    def test_given_stepsizes_still_run(self):
        policy = SchedulePolicy(lambda k: 1.0, R=1.0)
        trace = solve(zero_map_problem(), policy, SolveConfig(max_iters=2))
        assert trace.status == "converged"  # X = 0 is optimal


def direct_rule_trial(pol, prob, it, ax_new, ss):
    """The alpha the linesearch accepts when each trial forms both norms, as
    it did before its scalar rule: ||A^T(dy)|| <= ||dy|| / (sqrt(s) alpha),
    with A^T applied to u and v; None where it stalls."""
    u, v = ax_new - prob.b, ax_new - it.AX
    at_u, at_v = it.adjoint(u), it.adjoint(v)
    a = ss.alpha * np.sqrt(1.0 + ss.theta)
    for _ in range(pol.max_backtracks + 1):
        beta, theta = pol.s * a, a / ss.alpha
        if (np.linalg.norm(beta * (at_u + theta * at_v))
                <= np.linalg.norm(beta * (u + theta * v)) / (np.sqrt(pol.s) * a)):
            return a
        a *= pol.mu
    return None


def ls_fixture(case):
    """(policy, problem, iterate, X^{k+1}, stepsizes) of the direct-call cases
    of TestLinesearchPolicy, built as those tests build them."""
    if case == "zero-map":
        prob = zero_map_problem()
        pol = LinesearchPolicy(s=2.0)
        return pol, prob, iterate_state(prob, np.zeros((3, 3)), np.zeros(1)), np.eye(3), \
            pol.initial_state(prob)
    if case == "boundary":
        prob = gen_maxcut(1, n=4, m_edges=3)
        pol = LinesearchPolicy(s=4.0)
        pol.mu = 0.5
        ss = pol.initial_state(prob)
        ss.alpha, ss.theta = 1.0, 1.0
        rng = np.random.default_rng(20)
        x_new = random_sym(rng, 4)
        x_cur = random_sym(rng, 4)
        return pol, prob, iterate_state(prob, x_cur, rng.standard_normal(4), k=1), x_new, ss
    if case == "two-shrink":
        prob, pol, seed = gen_maxcut(2, n=4, m_edges=3), LinesearchPolicy(s=1.0), 21
        ss = pol.initial_state(prob)
        ss.alpha = 1.5 / np.sqrt(2.0)
    else:  # "stall"
        prob, pol, seed = gen_maxcut(3, n=4, m_edges=3), LinesearchPolicy(s=4.0), 22
        pol.max_backtracks = 0
        ss = pol.initial_state(prob)
    rng = np.random.default_rng(seed)
    x_new = random_sym(rng, 4)
    return pol, prob, iterate_state(prob, np.zeros((4, 4)), rng.standard_normal(4)), x_new, ss


class TestLinesearchPolicy:
    @pytest.mark.parametrize("case", ["zero-map", "boundary", "two-shrink", "stall"])
    def test_scalar_rule_accepts_the_direct_rules_trial(self, case):
        pol, prob, it, x_new, ss = ls_fixture(case)
        ax_new = forward(prob.constraints, x_new)
        want = direct_rule_trial(pol, prob, it, ax_new, ss)
        if want is None:
            with pytest.raises(LinesearchStalled):
                pol.dual_update(prob, it, x_new, ax_new, ss)
        else:
            pol.dual_update(prob, it, x_new, ax_new, ss)
            assert ss.alpha == want

    def test_zero_map_accepts_first_trial(self):
        prob = zero_map_problem()
        pol = LinesearchPolicy(s=2.0)
        ss = pol.initial_state(prob)  # alpha0 = 1 on a zero map
        it = iterate_state(prob, np.zeros((3, 3)), np.zeros(1))
        x_new = np.eye(3)
        y, aty = pol.dual_update(prob, it, x_new, forward(prob.constraints, x_new), ss)
        # first trial: alpha = alpha0 * sqrt(1 + theta0) = sqrt(2)
        assert ss.alpha == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert ss.beta == pytest.approx(2.0 * ss.alpha, rel=1e-15)
        np.testing.assert_allclose(y, np.zeros(1))
        np.testing.assert_allclose(aty, np.zeros((3, 3)))

    def test_maxcut_acceptance_boundary(self):
        # for the diag map, acceptance iff alpha <= 1/sqrt(s)
        prob = gen_maxcut(1, n=4, m_edges=3)
        s = 4.0
        pol = LinesearchPolicy(s=s)
        pol.mu = 0.5
        ss = pol.initial_state(prob)
        ss.alpha, ss.theta = 1.0, 1.0  # first trial sqrt(2) > 1/2
        rng = np.random.default_rng(20)
        x_new = random_sym(rng, 4)
        x_cur = random_sym(rng, 4)
        it = iterate_state(prob, x_cur, rng.standard_normal(4), k=1)
        y, aty = pol.dual_update(prob, it, x_new, forward(prob.constraints, x_new), ss)
        # the returned adjoint product is A^T of the accepted dual iterate
        np.testing.assert_allclose(aty, adjoint(prob.constraints, y), atol=1e-12)
        theta = ss.theta
        expected = it.y + ss.beta * ((1.0 + theta) * forward(prob.constraints, x_new)
                                     - theta * it.AX - prob.b)
        np.testing.assert_allclose(y, expected, rtol=1e-12)
        assert ss.alpha <= 1.0 / np.sqrt(s) + 1e-12
        # the accepted value is reached by mu-shrinks from the top trial
        trial = 1.0 * np.sqrt(2.0)
        shrinks = 0
        while trial > 1.0 / np.sqrt(s) + 1e-12:
            trial *= 0.5
            shrinks += 1
        assert ss.alpha == pytest.approx(np.sqrt(2.0) * 0.5**shrinks, rel=1e-12)
        assert ss.theta == pytest.approx(ss.alpha / 1.0, rel=1e-15)

    def test_geometric_shrink_two_failures(self):
        prob = gen_maxcut(2, n=4, m_edges=3)
        mu = LinesearchPolicy.mu
        # theta0 = 1, alpha0 chosen so exactly two shrinks are needed:
        # trial = a0*sqrt(2) fails, a0*sqrt(2)*0.7 fails, a0*sqrt(2)*0.49 passes
        s = 1.0
        a0 = 1.5 / np.sqrt(2.0)
        pol = LinesearchPolicy(s=s)
        ss = pol.initial_state(prob)
        ss.alpha = a0
        rng = np.random.default_rng(21)
        x_new = random_sym(rng, 4)
        it = iterate_state(prob, np.zeros((4, 4)), rng.standard_normal(4))
        pol.dual_update(prob, it, x_new, forward(prob.constraints, x_new), ss)
        assert ss.alpha == pytest.approx(1.5 * mu * mu, rel=1e-12)

    def test_stall_raises(self):
        # on the diag map a trial passes iff alpha <= 1/sqrt(s) = 1/2, and the
        # first one is 0.9/sqrt(s) * sqrt(2) > 1/2
        prob = gen_maxcut(3, n=4, m_edges=3)
        pol = LinesearchPolicy(s=4.0)
        pol.max_backtracks = 0
        ss = pol.initial_state(prob)
        rng = np.random.default_rng(22)
        x_new = random_sym(rng, 4)
        it = iterate_state(prob, np.zeros((4, 4)), rng.standard_normal(4))
        with pytest.raises(LinesearchStalled):
            pol.dual_update(prob, it, x_new, forward(prob.constraints, x_new), ss)

    def test_stall_inside_solve_carries_trace(self):
        prob = gen_maxcut(4, n=4, m_edges=3)
        pol = LinesearchPolicy(s=4.0)
        pol.max_backtracks = 0
        with pytest.raises(SolveError) as excinfo:
            solve(prob, pol, SolveConfig(max_iters=10))
        assert excinfo.value.trace.status == "error"

    def test_param_validation(self):
        for s in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="s must be"):
                LinesearchPolicy(s=s)


class TestTuningFreePolicy:
    def test_neutral_ratio_keeps_alpha(self):
        prob = small_rg(23)
        pol = TuningFreePolicy()
        ss = pol.initial_state(prob)
        # x_new with ||x_new|| == ||x_new - x_cur + alpha A^T(y)||: y = 0,
        # x_cur = 0 makes the ratio exactly 1
        x_new = np.eye(5)
        it = iterate_state(prob, np.zeros((5, 5)), np.zeros(3))
        alpha = pol.adjust_mid(prob, it, x_new, ss)
        assert alpha == 1.0
        ss.move_to(alpha)
        assert ss.theta == 1.0
        # beta = R/alpha with R = 1/eps and the default eps = lambda_max (1 + 1e-6)
        eps = lambda_max_AAt(prob.constraints) * TuningFreePolicy._EPS_MARGIN
        assert ss.beta == ss.R == 1.0 / eps

    def test_zero_denominator_clamps_to_theta_max(self):
        # at one-based iteration 100, omega = 1/2, so the blend of the clamp
        # value theta_max is 1/2 + theta_max/2, exact in binary
        prob = small_rg(24)
        pol = TuningFreePolicy()
        ss = pol.initial_state(prob)
        x_same = np.eye(5)
        it = iterate_state(prob, x_same.copy(), np.zeros(3), k=99)
        alpha = pol.adjust_mid(prob, it, x_same, ss)
        factor = 0.5 + 0.5 * TuningFreePolicy.theta_max
        assert alpha == factor * TuningFreePolicy.alpha_init
        ss.move_to(alpha)
        assert ss.theta == factor
        assert ss.counts == {"tf_zero_denominator": 1}

    def test_zero_over_zero_keeps_alpha(self):
        # X^{k+1} = X^k = 0 and y = 0: the ratio is 0/0, which counts as 1
        prob = small_rg(24)
        pol = TuningFreePolicy()
        ss = pol.initial_state(prob)
        it = iterate_state(prob, np.zeros((5, 5)), np.zeros(3), k=99)
        assert pol.adjust_mid(prob, it, np.zeros((5, 5)), ss) == TuningFreePolicy.alpha_init
        assert ss.counts == {"tf_zero_denominator": 1}

    @pytest.mark.parametrize("make_problem", [
        lambda: gen_maxcut(0, n=30, m_edges=30), lambda: small_snl(),
    ], ids=["split-maxcut", "snl"])
    def test_first_step_holds_alpha_when_projection_is_zero(self, make_problem):
        # both have Proj_PSD(-C) = 0 exactly (a PSD Laplacian split into
        # blocks; C = 0), so X^1 = 0 from the zero start
        trace = solve(make_problem(), TuningFreePolicy(), SolveConfig(max_iters=1))
        assert trace.rows[0].alpha == TuningFreePolicy.alpha_init
        assert trace.flags == {"tf_zero_denominator": 1}

    def test_convex_blend_arithmetic(self):
        # at one-based iteration 100, omega = 1/2; clamp value 3 doubles alpha
        prob = small_rg(25)
        pol = TuningFreePolicy()
        ss = pol.initial_state(prob)
        x_cur = np.diag([2.0, 0.0, 0.0, 0.0, 0.0])
        x_new = np.diag([3.0, 0.0, 0.0, 0.0, 0.0])
        it = iterate_state(prob, x_cur, np.zeros(3), k=99)
        alpha_before = ss.alpha
        alpha = pol.adjust_mid(prob, it, x_new, ss)
        assert alpha == pytest.approx(2.0 * alpha_before, rel=1e-14)
        ss.move_to(alpha)
        assert ss.theta == pytest.approx(2.0, rel=1e-14)  # realized ratio

    def test_product_sits_just_below_the_spectral_bound(self):
        prob = gen_maxcut(1, n=4, m_edges=3)  # lambda_max = 1
        ss = TuningFreePolicy().initial_state(prob)
        assert ss.R == 1.0 / (1.0 + 1e-6)


class TestSchedulePolicy:
    @pytest.mark.parametrize("R", [-1.0, 0.0, np.nan, np.inf])
    def test_rejects_non_positive_or_non_finite_product(self, R):
        with pytest.raises(ValueError, match="R must be a finite positive number"):
            SchedulePolicy(lambda k: 1.0, R=R)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j, "1.0", True],
                             ids=["nan", "inf", "-inf", "complex", "str", "bool"])
    def test_non_finite_or_non_real_alpha_fails_at_the_start(self, bad):
        policy = SchedulePolicy(lambda k: bad, R=1.0)
        with pytest.raises(ValueError, match="k=0"):
            solve(small_rg(1), policy, SolveConfig(max_iters=1))

    def test_non_finite_alpha_mid_run_keeps_completed_rows(self):
        # iteration 2's dual step pairs with alpha_at(3), which is infinite
        prob = gen_random(1, n=6, m=4)
        policy = SchedulePolicy(lambda k: np.inf if k == 3 else 1.0,
                                R=default_stepsize_product(lambda_max_AAt(prob.constraints)))
        with pytest.raises(SolveError) as excinfo:
            solve(prob, policy, SolveConfig(max_iters=5, tol=1e-300))
        cause = excinfo.value.__cause__
        assert isinstance(cause, ValueError) and "k=3" in str(cause)
        trace = excinfo.value.trace
        assert trace.status == "error"
        assert [row.k for row in trace.rows] == [0, 1]
        assert all(np.isfinite(row.beta) for row in trace.rows)


class TestSolveEngine:
    def test_kkt_start_converges_immediately(self):
        # C = 0 with X0 = I strictly feasible: zero gradient, feasible
        # extrapolate, zero residuals at the first iteration
        rng = np.random.default_rng(30)
        mats = tuple(
            SymMat.from_dense(rng.standard_normal((4, 4))) for _ in range(3)
        )
        cmap = ConstraintMap(mats)
        x_star = SymMat.identity(4)
        prob = SdpProblem(SymMat.zeros(4), cmap, apply_A(cmap, x_star), {})
        trace = solve(prob, FixedPolicy(), SolveConfig(max_iters=100, X0=x_star))
        assert trace.status == "converged"
        assert trace.iterations == 1
        assert trace.rows[0].combined == 0.0

    def test_zero_budget(self):
        prob = small_rg(31)
        trace = solve(prob, FixedPolicy(), SolveConfig(max_iters=0))
        assert trace.status == "iteration_cap"
        assert trace.rows == []
        assert trace.X_final is not None

    def test_tiny_maxcut_reaches_analytic_optimum(self):
        # cycle graph: min <L, X> over diag(X)=1, X PSD is 0 at the all-ones
        # matrix
        prob = gen_maxcut(1, n=4, m_edges=4)  # 4 nodes, 4 edges
        trace = solve(prob, FixedPolicy(), SolveConfig(max_iters=50000, tol=1e-6))
        assert trace.status == "converged"
        assert abs(trace.rows[-1].objective) <= 1e-4

    def test_trace_rows_strictly_increasing(self):
        prob = small_rg(32)
        trace = solve(prob, BalancedResidualPolicy(), SolveConfig(max_iters=50,
                                                                  tol=1e-300))
        ks = [row.k for row in trace.rows]
        assert ks == list(range(50))

    def test_trace_combined_consistency(self):
        prob = small_rg(33)
        trace = solve(prob, TuningFreePolicy(), SolveConfig(max_iters=100,
                                                            tol=1e-300))
        for row in trace.rows:
            expected = row.p_norm**2 + row.d_norm**2
            assert row.combined == pytest.approx(expected, rel=1e-12)

    def test_dual_feasibility_at_convergence(self):
        prob = small_rg(34, n=6, m=4)
        tol = 1e-6
        trace = solve(prob, TuningFreePolicy(), SolveConfig(max_iters=50000, tol=tol))
        assert trace.status == "converged"
        gap = np.linalg.norm(
            apply_A(prob.constraints, trace.X_final) - prob.b
        )
        assert gap <= 10.0 * np.sqrt(tol) * max(1.0, np.linalg.norm(prob.b))

    def test_final_iterate_psd(self):
        prob = small_rg(35)
        trace = solve(prob, FixedPolicy(), SolveConfig(max_iters=200, tol=1e-300))
        assert np.linalg.eigvalsh(trace.X_final.to_dense())[0] >= -1e-10

    def test_csv_deterministic_modulo_wall_ms(self):
        prob = small_rg(36)
        cfg = SolveConfig(max_iters=40, tol=1e-300)
        csv1 = solve(prob, BalancedResidualPolicy(), cfg).to_csv()
        csv2 = solve(prob, BalancedResidualPolicy(), cfg).to_csv()

        def strip_wall(text):
            return ["," .join(line.split(",")[:-1]) for line in text.splitlines()]

        assert strip_wall(csv1) == strip_wall(csv2)

    def test_callback_sees_every_iteration(self):
        prob = small_rg(37)
        seen = []
        cfg = SolveConfig(max_iters=17, tol=1e-300,
                          callback=lambda k, x, y: seen.append(k))
        solve(prob, FixedPolicy(), cfg)
        assert seen == list(range(17))

    def test_callback_writing_its_matrix_leaves_the_solve_unchanged(self):
        # the callback gets a new n-by-n array, even on a problem that is one
        # block, so writing into it cannot reach the engine's iterate
        def overwrite(k, x, y):
            x[...] = np.nan

        prob = gen_random(1, n=6, m=4)
        plain = solve(prob, FixedPolicy(), SolveConfig(max_iters=20, tol=1e-300))
        written = solve(prob, FixedPolicy(),
                        SolveConfig(max_iters=20, tol=1e-300, callback=overwrite))
        assert written.status == plain.status
        assert [row[:-1] for row in map(astuple, written.rows)] == \
            [row[:-1] for row in map(astuple, plain.rows)]  # all but wall_ms
        np.testing.assert_array_equal(written.X_final.dense, plain.X_final.dense)

    def test_callback_writing_its_dual_leaves_the_solve_unchanged(self):
        # the callback's y is a copy of the engine's dual iterate
        def overwrite(k, x, y):
            y[...] = 0.0

        prob = gen_random(1, n=6, m=4)
        plain = solve(prob, FixedPolicy(), SolveConfig(max_iters=20, tol=1e-300))
        written = solve(prob, FixedPolicy(),
                        SolveConfig(max_iters=20, tol=1e-300, callback=overwrite))
        assert written.status == plain.status
        assert [row[:-1] for row in map(astuple, written.rows)] == \
            [row[:-1] for row in map(astuple, plain.rows)]  # all but wall_ms
        np.testing.assert_array_equal(written.y_final, plain.y_final)
        assert np.any(plain.y_final != 0.0)

    def test_iterates_stay_bitwise_symmetric(self):
        prob = small_rg(39)
        checks = []
        cfg = SolveConfig(max_iters=30, tol=1e-300,
                          callback=lambda k, x, y: checks.append(
                              np.array_equal(x, x.T)))
        solve(prob, TuningFreePolicy(), cfg)
        assert all(checks)

    def test_explicit_root_lambda_stepsizes_converge(self):
        # alpha = beta = 0.9/sqrt(lambda_max) keeps the product at
        # 0.81/lambda_max, strictly admissible
        prob = gen_maxcut(1, n=4, m_edges=4)
        policy = SchedulePolicy(lambda k: 0.9, R=0.81)  # lambda_max = 1 here
        trace = solve(prob, policy, SolveConfig(max_iters=50000, tol=1e-6))
        assert trace.status == "converged"

    def test_default_hyperparameters(self):
        assert BalancedResidualPolicy.eps0 == 0.5
        assert BalancedResidualPolicy().eta == 0.95
        assert LinesearchPolicy.mu == 0.7
        assert GradientAlignmentPolicy().cosine_threshold == 0.99
        assert TuningFreePolicy.theta_min == 1e-5
        assert TuningFreePolicy.theta_max == 1e5
        assert TuningFreePolicy.alpha_init == 1.0

    def test_initial_shape_validation(self):
        prob = small_rg(38)
        with pytest.raises(ValueError):
            solve(prob, FixedPolicy(), SolveConfig(max_iters=1, X0=np.eye(3)))
        with pytest.raises(ValueError):
            solve(prob, FixedPolicy(), SolveConfig(max_iters=1, y0=np.zeros(2)))
        with pytest.raises(ValueError):
            SolveConfig(max_iters=-1)
        with pytest.raises(ValueError):
            SolveConfig(tol=0.0)

    @pytest.mark.parametrize("bad", [2.5, True], ids=["float", "bool"])
    def test_max_iters_must_be_an_integer(self, bad):
        # 2.5 once escaped as a TypeError from range(); True ran one iteration
        with pytest.raises(ValueError, match="max_iters"):
            SolveConfig(max_iters=bad)

    def test_numpy_integer_max_iters_accepted(self):
        trace = solve(small_rg(39), FixedPolicy(),
                      SolveConfig(max_iters=np.int64(3), tol=1e-300))
        assert trace.iterations == 3


class TestSolveErrors:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_y0_raises_solve_error(self, bad):
        prob = gen_random(1, n=6, m=4)
        with pytest.raises(SolveError) as excinfo:
            solve(prob, FixedPolicy(), SolveConfig(max_iters=5, y0=[bad, 0.0, 0.0, 0.0]))
        trace = excinfo.value.trace
        assert trace.status == "error"
        assert trace.rows == []
        np.testing.assert_array_equal(trace.X_final.to_dense(), np.zeros((6, 6)))

    def test_projection_failure_keeps_completed_rows(self, monkeypatch):
        # the eigensolver fails in iteration 3's projection (one projection
        # call per iteration)
        calls = []

        def failing(x, runs):
            calls.append(None)
            if len(calls) == 4:
                raise np.linalg.LinAlgError("eigenvalues did not converge")
            proj_psd_packed(x, runs)

        monkeypatch.setattr(solver_module, "proj_psd_packed", failing)
        with pytest.raises(SolveError) as excinfo:
            solve(gen_random(1, n=6, m=4), FixedPolicy(),
                  SolveConfig(max_iters=5, tol=1e-300))
        assert isinstance(excinfo.value.__cause__, np.linalg.LinAlgError)
        trace = excinfo.value.trace
        assert trace.status == "error"
        assert [row.k for row in trace.rows] == [0, 1, 2]

    def test_callback_exception_reaches_caller_unwrapped(self):
        # a callback may end a solve by raising: the exception is the
        # caller's own, not a failure of the iteration
        class Stop(Exception):
            pass

        def stop(k, _x, _y):
            if k == 2:
                raise Stop(k)

        with pytest.raises(Stop) as excinfo:
            solve(gen_random(1, n=6, m=4), FixedPolicy(),
                  SolveConfig(max_iters=5, tol=1e-300, callback=stop))
        assert excinfo.value.args == (2,)

    def test_non_finite_projection_input_keeps_completed_rows(self):
        # a hook sets a NaN stepsize after iteration 2, so the projection of
        # iteration 3 sees a non-finite matrix
        class Poisoning(FixedPolicy):
            def adjust_post(self, problem, it, x_new, p_mat, report, ss):
                return np.nan if it.k == 2 else None

        with pytest.raises(SolveError) as excinfo:
            solve(gen_random(1, n=6, m=4), Poisoning(),
                  SolveConfig(max_iters=5, tol=1e-300))
        assert isinstance(excinfo.value.__cause__, np.linalg.LinAlgError)
        trace = excinfo.value.trace
        assert trace.status == "error"
        assert [row.k for row in trace.rows] == [0, 1, 2]
        assert all(np.isfinite(row.combined) for row in trace.rows)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("where", ["in-block", "small-block", "isolated-diagonal"])
    def test_non_finite_entry_under_block_split_keeps_completed_rows(self, where, bad):
        # a hook writes into iteration 2's output, which it sees packed, so
        # the projection of iteration 3 sees a non-finite entry in the big
        # block, in the run of two 3-by-3 blocks, or among the isolated ones
        prob = split_maxcut()
        blocks = solver_module._aggregate_blocks(prob, np.zeros((prob.n, prob.n)))
        layout = Layout(blocks, prob.n)
        assert run_sizes(layout.runs) == [(38, 1), (3, 2), (2, 1)]
        big = max(blocks, key=len)
        small = next(b for b in blocks if b.size == 3)
        lone = next(b[0] for b in blocks if b.size == 1)
        i, j = {"in-block": (big[0], big[1]), "small-block": (small[0], small[2]),
                "isolated-diagonal": (lone, lone)}[where]
        slots = np.flatnonzero(np.isin(layout.index, [i * prob.n + j, j * prob.n + i]))

        class Poisoning(FixedPolicy):
            def adjust_post(self, problem, it, x_new, p_mat, report, ss):
                if it.k == 2:
                    x_new[slots] = bad
                return None

        with pytest.raises(SolveError) as excinfo:
            solve(prob, Poisoning(), SolveConfig(max_iters=5, tol=1e-300))
        assert isinstance(excinfo.value.__cause__, np.linalg.LinAlgError)
        trace = excinfo.value.trace
        assert trace.status == "error"
        assert [row.k for row in trace.rows] == [0, 1, 2]
        assert all(np.isfinite(row.combined) for row in trace.rows)

    @pytest.mark.parametrize("fail", [False, True])
    def test_flags_hold_only_event_counters(self, fail):
        class SeededBalancing(BalancedResidualPolicy):
            def initial_state(self, problem):
                ss = super().initial_state(problem)
                ss.counts["degenerate_cosine"] = 3
                return ss

            def _branch(self, *args):
                if fail:
                    raise RuntimeError("hook failed")
                return 0

        cfg = SolveConfig(max_iters=5, tol=1e-300)
        if fail:
            with pytest.raises(SolveError) as excinfo:
                solve(small_rg(41), SeededBalancing(), cfg)
            trace = excinfo.value.trace
            assert trace.status == "error" and trace.iterations == 1
        else:
            trace = solve(small_rg(41), SeededBalancing(), cfg)
        assert trace.flags == {"degenerate_cosine": 3}  # no policy-internal "eps"


def run_sizes(runs):
    """The (size, count) of each run of a projection plan."""
    return [(k, count) for k, count, _ in runs]


def split_maxcut():
    """A max-cut whose graph has components of 38, 3, 3 and 2 vertices and
    14 isolated ones."""
    return gen_maxcut(1, n=60, m_edges=50)


def block_lists(prob, x0=None):
    x0 = np.zeros((prob.n, prob.n)) if x0 is None else x0
    return [b.tolist() for b in solver_module._aggregate_blocks(prob, x0)]


def diagonal_problem(n, c=None, extra=(), form="coo"):
    """C (default identity) with the constraints A_i = e_i e_i^T plus one
    constraint holding the (i, j, value) entries of ``extra``; the map is
    stored in ``form``."""
    con = list(range(n)) + [n] * len(extra)
    i = list(range(n)) + [e[0] for e in extra]
    j = list(range(n)) + [e[1] for e in extra]
    vals = [1.0] * n + [e[2] for e in extra]
    m = n + (1 if extra else 0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(operators_module, "_DENSE_ABOVE", -1.0 if form == "dense" else 2.0)
        cmap = ConstraintMap.from_triples(m, n, con, i, j, vals)
    assert (cmap.coo is None) == (form == "dense")
    c = np.eye(n) if c is None else c
    return SdpProblem(SymMat(c), cmap, np.ones(m), {"generator": "custom"})


def components_by_search(n, edges):
    """Connected components by breadth-first search, each ascending, ordered
    by their smallest index."""
    neighbours = [[] for _ in range(n)]
    for i, j in edges:
        neighbours[i].append(j)
        neighbours[j].append(i)
    seen, out = [False] * n, []
    for start in range(n):
        if seen[start]:
            continue
        seen[start], frontier, comp = True, [start], []
        while frontier:
            v = frontier.pop()
            comp.append(v)
            for w in neighbours[v]:
                if not seen[w]:
                    seen[w] = True
                    frontier.append(w)
        out.append(sorted(comp))
    return out


class TestAggregateBlocks:
    """The projection's blocks are the connected components of the
    off-diagonal nonzeros of C, of every A_i and of X_0."""

    @pytest.mark.parametrize("form", ["coo", "dense"])
    @pytest.mark.parametrize("source", ["C", "A", "X0"])
    def test_each_source_joins_its_pair(self, source, form):
        n = 6
        c, x0 = np.eye(n), np.zeros((n, n))
        if source == "C":
            c[1, 4] = c[4, 1] = -0.5
        elif source == "X0":
            x0[1, 4] = x0[4, 1] = 0.25
        extra = [(1, 4, 2.0)] if source == "A" else []
        prob = diagonal_problem(n, c, extra, form)
        assert block_lists(prob) == ([[0], [1, 4], [2], [3], [5]]
                                     if source != "X0" else [[0], [1], [2], [3], [4], [5]])
        assert block_lists(prob, x0) == [[0], [1, 4], [2], [3], [5]]

    @pytest.mark.parametrize("form", ["coo", "dense"])
    def test_diagonal_constraint_keeps_indices_apart(self, form):
        # A^T(y) of a diagonal A_i stays zero off the diagonal, whatever y is
        prob = diagonal_problem(5, extra=[(0, 0, 1.0), (3, 3, -2.0)], form=form)
        assert block_lists(prob) == [[0], [1], [2], [3], [4]]

    def test_sources_chain_into_one_block(self):
        n = 6
        c, x0 = np.eye(n), np.zeros((n, n))
        c[0, 5] = c[5, 0] = 1.0
        x0[2, 3] = x0[3, 2] = 1.0
        prob = diagonal_problem(n, c, [(5, 2, 1.0)])
        assert block_lists(prob, x0) == [[0, 2, 3, 5], [1], [4]]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_breadth_first_search(self, seed):
        # long relabelled paths need many rounds of label propagation
        rng = np.random.default_rng(seed)
        n = 60
        perm = rng.permutation(n)
        edges = [(perm[k], perm[k + 1]) for k in range(20)]  # one path of 21
        edges += [tuple(rng.choice(n, 2, replace=False)) for _ in range(12 + 4 * seed)]
        prob = diagonal_problem(n, graph_laplacian(n, edges) + np.eye(n))
        assert block_lists(prob) == components_by_search(n, edges)

    @pytest.mark.parametrize("family", ["rg", "snl", "cycle"])
    def test_single_block_families(self, family):
        if family == "rg":
            probs = [gen_random(seed, n=50, m=50) for seed in range(1, 6)]
        elif family == "snl":
            probs = [gen_snl(seed)[0] for seed in (1, 2)]
        else:
            n = 8
            edges = [(i, (i + 1) % n) for i in range(n)]
            probs = [diagonal_problem(n, graph_laplacian(n, edges))]
        for prob in probs:
            assert block_lists(prob) == [list(range(prob.n))]

    @pytest.mark.parametrize("seed, sizes, isolated", [
        (1, [118, 3, 3, 3, 2], 21), (2, [125, 2, 2, 2, 2], 17),
    ])
    def test_benchmark_maxcut_components(self, seed, sizes, isolated):
        blocks = block_lists(gen_maxcut(seed, n=150, m_edges=150))
        lengths = sorted(map(len, blocks), reverse=True)
        assert lengths == sizes + [1] * isolated
        assert sorted(sum(blocks, [])) == list(range(150))

    @pytest.mark.parametrize("family, seed, runs, isolated", [
        ("mc", 1, [(118, 1), (3, 3), (2, 1)], 21), ("mc", 2, [(125, 1), (2, 4)], 17),
        ("mc", 101, [(119, 1), (4, 3), (3, 1)], 16), ("mc", 102, [(127, 1), (2, 2)], 19),
        *(("rg", seed, [(50, 1)], 0) for seed in (1, 2, 3, 4, 5, 101, 102, 103, 104, 105)),
        *(("snl", seed, [(52, 1)], 0) for seed in (1, 2, 101, 102)),
    ])
    def test_benchmark_instance_layouts(self, family, seed, runs, isolated):
        """The projection plan of each instance of the benchmark's seed sets
        a and b: its runs of equal blocks and its isolated indices."""
        prob = {"mc": lambda: gen_maxcut(seed, n=150, m_edges=150),
                "rg": lambda: gen_random(seed, n=50, m=50),
                "snl": lambda: gen_snl(seed)[0]}[family]()
        blocks = solver_module._aggregate_blocks(prob, np.zeros((prob.n, prob.n)))
        layout = Layout(blocks, prob.n)
        assert run_sizes(layout.runs) == runs
        assert sum(b.size == 1 for b in blocks) == isolated
        assert layout.index.size == sum(k * k * count for k, count in runs) + isolated


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_block_split_matches_whole_projection(name, monkeypatch):
    """Splitting the projection changes the iterates only by roundoff: the
    same iterations to tolerance, the same final iterate to 1e-12.

    tf is the exception, at 1e-11: its alpha climbs to ~360 here, so its
    projection inputs reach ~180 ||X|| and each projection's roundoff grows
    alike. Reordering the rows of the whole projection's input moves its
    final iterate by 3.0e-12; the split moves it by 2.3e-12."""
    prob = split_maxcut()
    split = solve(prob, make_policy(name))
    monkeypatch.setattr(solver_module, "_aggregate_blocks",
                        lambda problem, x0: [np.arange(problem.n)])
    whole = solve(prob, make_policy(name))
    assert split.status == whole.status == "converged"
    assert split.iterations == whole.iterations
    x_split, x_whole = split.X_final.dense, whole.X_final.dense
    rtol = 1e-11 if name == "tf" else 1e-12
    assert np.linalg.norm(x_split - x_whole) <= rtol * np.linalg.norm(x_whole)


def every_policy(name, prob):
    """The named policy; the schedule takes the default stepsize product of
    ``prob``."""
    if name == "schedule":
        return SchedulePolicy(lambda k: 1.0 + 2.0 ** (-k),
                              R=default_stepsize_product(lambda_max_AAt(prob.constraints)))
    return make_policy(name)


ENGINE_POLICIES = POLICY_NAMES + ("schedule",)


class TestOperatorApplications:
    """The engine applies A once and A^T once per iteration, plus once each
    at set-up. The linesearch's dual step drops the engine's A^T for one of
    its own per iteration, to A(X^{k+1}); its first call also forms A^T(b),
    and has no previous product to reuse, so it applies A^T to u and to v.
    No other hook applies an operator."""

    ITERS = 25

    @pytest.mark.parametrize("name", ENGINE_POLICIES)
    def test_map_applications_per_iteration(self, name, monkeypatch):
        prob = gen_random(1, n=6, m=4)
        policy = every_policy(name, prob)
        open_hooks: list[str] = []
        total = [0]
        in_hook: dict[str, int] = {}

        def counting(fn):
            def wrapped(*args, **kwargs):
                total[0] += 1
                if open_hooks:
                    in_hook[open_hooks[-1]] = in_hook.get(open_hooks[-1], 0) + 1
                return fn(*args, **kwargs)
            return wrapped

        def tracking(hook, fn):
            def wrapped(*args, **kwargs):
                open_hooks.append(hook)
                try:
                    return fn(*args, **kwargs)
                finally:
                    open_hooks.pop()
            return wrapped

        maps = [attr for attr, obj in vars(solver_module).items()
                if getattr(obj, "__module__", None) == "pdhgsdp.operators"
                and callable(obj) and attr != "lambda_max_AAt"]
        assert maps
        for attr in maps:
            monkeypatch.setattr(solver_module, attr, counting(getattr(solver_module, attr)))
        for hook in ("adjust_mid", "dual_update", "adjust_post"):
            monkeypatch.setattr(policy, hook, tracking(hook, getattr(policy, hook)))

        trace = solve(prob, policy, SolveConfig(max_iters=self.ITERS, tol=1e-300))
        assert trace.iterations == self.ITERS
        first_call = 2 if name == "ls" else 0
        assert total[0] == 2 * self.ITERS + 2 + first_call
        assert in_hook == ({"dual_update": self.ITERS + first_call} if name == "ls" else {})


@pytest.mark.parametrize("name", ENGINE_POLICIES)
def test_one_projection_per_iteration(name, monkeypatch):
    """The engine reaches the projections module's functions only through its
    module-level ``proj_psd_packed``, once per iteration whatever the blocks,
    so wrapping that name sees every projection; the ``Layout`` class it
    also imports makes the plan, and projects nothing."""
    projections = [attr for attr, obj in vars(solver_module).items()
                   if inspect.isfunction(obj) and obj.__module__ == "pdhgsdp.projections"]
    assert projections == ["proj_psd_packed"]
    calls = []
    original = solver_module.proj_psd_packed

    def counting(x, runs):
        calls.append((x.size, run_sizes(runs)))
        original(x, runs)

    monkeypatch.setattr(solver_module, "proj_psd_packed", counting)
    iters = 25
    prob = gen_random(1, n=6, m=4)
    trace = solve(prob, every_policy(name, prob),
                  SolveConfig(max_iters=iters, tol=1e-300))
    assert trace.iterations == iters
    assert calls == [(36, [(6, 1)])] * iters

    # max-cut: blocks of 38, 3, 3 and 2 vertices, and 14 isolated ones
    calls.clear()
    prob = split_maxcut()
    trace = solve(prob, every_policy(name, prob),
                  SolveConfig(max_iters=iters, tol=1e-300))
    assert trace.iterations == iters
    size = 38 * 38 + 2 * 3 * 3 + 2 * 2 + 14
    assert calls == [(size, [(38, 1), (3, 2), (2, 1)])] * iters


@pytest.mark.parametrize("make_problem", [lambda: small_rg(42, n=6, m=4), small_snl],
                         ids=["rg", "snl"])
@pytest.mark.parametrize("name", ENGINE_POLICIES)
def test_trace_residuals_match_public_formula(name, make_problem):
    prob = make_problem()
    policy = every_policy(name, prob)
    states = []  # the engine's stepsize state, which it updates in place
    alphas = []  # primal stepsize of each iteration
    initial_state = policy.initial_state

    def capture_state(problem):
        states.append(initial_state(problem))
        alphas.append(states[0].alpha)
        return states[0]

    policy.initial_state = capture_state
    xs, ys = [np.zeros((prob.n, prob.n))], [np.zeros(prob.m)]

    def record(k, x, y):
        xs.append(x)
        ys.append(y)
        alphas.append(states[0].alpha)  # the next iteration's primal stepsize

    trace = solve(prob, policy, SolveConfig(max_iters=100, tol=1e-300, callback=record))
    assert trace.iterations > 0
    for row in trace.rows:
        k = row.k
        rep = residuals(prob, xs[k], xs[k + 1], ys[k], ys[k + 1], alphas[k], row.beta)
        assert row.p_norm == pytest.approx(rep.p_norm, rel=1e-9)
        assert row.d_norm == pytest.approx(rep.d_norm, rel=1e-9)


@pytest.mark.parametrize("make_problem", [
    lambda: small_rg(1), lambda: gen_maxcut(1, n=8, m_edges=10),
    lambda: gen_random(40, n=6, m=4), lambda: gen_random(1),
], ids=["rg", "mc", "rg40", "rg50"])
@pytest.mark.parametrize("name", ["alv", "bpdr", "fixed", "schedule", "tf"])
def test_stepsize_identities_hold_exactly(name, make_problem):
    """Every row, the first included, has theta_k = alpha_k/alpha_{k-1} and
    alpha_k beta_k = R as beta_k = R/alpha_k, bitwise: the start and every
    move derive beta and theta the same way. The hooks only return a
    stepsize: none of them writes one."""
    prob = make_problem()
    start = every_policy(name, prob).initial_state(prob)
    policy = every_policy(name, prob)

    def read_only(hook):
        def wrapped(*args):
            ss = args[-1]
            before = (ss.alpha, ss.beta, ss.theta)
            out = hook(*args)
            assert (ss.alpha, ss.beta, ss.theta) == before
            return out
        return wrapped

    for hook in ("adjust_mid", "dual_update", "adjust_post"):
        setattr(policy, hook, read_only(getattr(policy, hook)))
    trace = solve(prob, policy, SolveConfig(max_iters=300, tol=1e-300))
    assert trace.iterations == 300
    assert (start.beta, start.theta) == (start.R / start.alpha, 1.0)
    prev = start.alpha
    for row in trace.rows:
        assert row.theta == row.alpha / prev
        assert row.beta == start.R / row.alpha
        prev = row.alpha


def test_hooks_read_the_adjoint_on_the_support():
    """On a problem of many blocks, with a sparse map, it.Aty, it.adjoint(v)
    and the A^T(y^{k+1}) that ls's dual step returns hold A^T's values on
    the engine's support and nothing else."""
    prob = gen_maxcut(2, n=80, m_edges=40)
    cmap = prob.constraints
    assert cmap.coo is not None
    layout = Layout(solver_module._aggregate_blocks(prob, np.zeros((prob.n, prob.n))), prob.n)
    assert len(layout.runs) > 1
    support = cmap.packed(layout.index, np.flatnonzero(layout.pack(prob.C.dense))).support
    assert support.size < layout.index.size

    def on_support(v):
        return layout.pack(adjoint(cmap, v))[support]

    rng = np.random.default_rng(0)
    checked = []

    class Checking(LinesearchPolicy):
        def dual_update(self, problem, it, x_new, ax_new, ss):
            np.testing.assert_array_equal(it.support, support)
            assert it.Aty.shape == (support.size,)
            np.testing.assert_array_equal(it.Aty, on_support(it.y))
            v = rng.standard_normal(problem.m)
            assert it.adjoint(v).shape == (support.size,)
            np.testing.assert_array_equal(it.adjoint(v), on_support(v))
            y_new, aty_new = super().dual_update(problem, it, x_new, ax_new, ss)
            want = on_support(y_new)
            assert aty_new.shape == (support.size,)
            # a sum of A^T's values, so equal up to roundoff
            assert np.linalg.norm(aty_new - want) <= 1e-12 * np.linalg.norm(want)
            checked.append(it.k)
            return y_new, aty_new

    solve(prob, Checking(), SolveConfig(max_iters=10, tol=1e-300))
    assert checked == list(range(10))


def test_linesearch_applies_the_adjoint_three_times_then_once():
    """ls's first call forms A^T(b), A^T(A(X^k)) and A^T(A(X^{k+1})); each
    later call, handed back the previous A(X^{k+1}) as it.AX, only the last."""
    prob = small_snl()
    cmap = prob.constraints
    calls = []

    def counted(v):
        calls.append(1)
        return adjoint(cmap, v)

    pol = LinesearchPolicy()
    ss = pol.initial_state(prob)
    rng = np.random.default_rng(30)
    x_cur, y = random_sym(rng, prob.n), rng.standard_normal(prob.m)
    it = IterateState(x_cur, y, forward(cmap, x_cur), adjoint(cmap, y), slice(None), 0, counted)
    per_call = []
    for k in range(1, 4):
        x_new = random_sym(rng, prob.n)
        ax_new = forward(cmap, x_new)
        y, aty = pol.dual_update(prob, it, x_new, ax_new, ss)
        per_call.append(len(calls))
        calls.clear()
        it = IterateState(x_new, y, ax_new, aty, slice(None), k, counted)
    assert per_call == [3, 1, 1]


@pytest.mark.parametrize("make_problem", [
    lambda: gen_random(1, n=6, m=4), lambda: gen_maxcut(2, n=8, m_edges=10),
    lambda: PARITY_PROBLEMS["snl"][0](),
], ids=["rg", "mc", "snl"])
def test_linesearch_products_stay_within_roundoff(make_problem):
    """ls forms A^T(y^{k+1}) from its one A^T per iteration and the products
    it keeps (A^T(b) and the previous A^T(A(X^k))), so roundoff adds up over
    a run: after 300 iterations the product stays within 1e-12 of A^T
    applied to y^{k+1}. Every trial it accepts is the one the direct norms
    accept on the same step."""
    prob = make_problem()
    worst, reused = [0.0], []

    class Checking(LinesearchPolicy):
        def dual_update(self, problem, it, x_new, ax_new, ss):
            reused.append(self._last[0] is it.AX)
            want = direct_rule_trial(self, problem, it, ax_new, ss)
            y_new, aty_new = super().dual_update(problem, it, x_new, ax_new, ss)
            assert ss.alpha == want
            exact = it.adjoint(y_new)
            worst[0] = max(worst[0], np.linalg.norm(aty_new - exact) / np.linalg.norm(exact))
            return y_new, aty_new

    trace = solve(prob, Checking(), SolveConfig(max_iters=300, tol=1e-300))
    assert trace.iterations == 300
    assert reused == [False] + [True] * 299
    assert worst[0] <= 1e-12


@pytest.mark.parametrize("shape", [(7,), (2704,), (6, 6), (52, 52)])
def test_norm_is_numpys_bit_for_bit(shape):
    """The engine's norm helper returns np.linalg.norm's value exactly, on
    vectors and on the n-by-n arrays hooks and ``residuals`` pass it, where a
    bare v.dot(v) would be a matrix product; a transposed view included."""
    rng = np.random.default_rng(len(shape))
    for scale in 10.0 ** np.arange(-8, 9, 4):
        v = scale * rng.standard_normal(shape)
        for arr in (v, v.T):
            assert solver_module._norm(arr) == float(np.linalg.norm(arr))


def test_make_policy_dispatch():
    assert make_policy("fixed").name == "fixed"
    assert make_policy("bpdr", eta=0.25).eta == 0.25
    assert make_policy("alv").name == "alv"
    assert make_policy("ls", s=0.5).s == 0.5
    assert make_policy("tf").name == "tf"
    with pytest.raises(ValueError):
        make_policy("nope")
    with pytest.raises(ValueError, match="'s'"):
        make_policy("tf", s=1.0)
    # only eta (bpdr, alv) and s (ls) are settable; tf takes nothing
    for name, keyword in (("tf", "eps"), ("ls", "mu"), ("bpdr", "eps0"), ("alv", "eps0")):
        with pytest.raises(ValueError, match=f"policy '{name}'.*'{keyword}'"):
            make_policy(name, **{keyword: 0.5})


def old_dense_formula(prob):
    """forward/adjoint as the dense-stack GEMV every map used before it was
    stored in one form, from a stack built here."""
    stack = np.stack([apply_At(prob.constraints, e).to_dense() for e in np.eye(prob.m)])
    flat = stack.reshape(prob.m, -1)
    return (lambda cmap, x: flat @ x.ravel(),
            lambda cmap, y: np.tensordot(y, stack, axes=1))


# small instances of each family, with the form their maps are stored in
PARITY_PROBLEMS = {
    "rg": (lambda: small_rg(43, n=6, m=4), "dense"),
    "mc": (lambda: gen_maxcut(2, n=8, m_edges=10), "coo"),
    "snl": (lambda: gen_snl(1, m_anchors=4, n_sensors=15, radius=0.5, degree=3)[0], "coo"),
    "snl-small": (small_snl, "dense"),
}


@pytest.mark.parametrize("family", sorted(PARITY_PROBLEMS))
@pytest.mark.parametrize("name", ENGINE_POLICIES)
def test_iterates_match_old_dense_formula(name, family, monkeypatch):
    """Every map application of a 100-iteration solve, the engine's and its
    hooks', agrees with the old dense-stack formula on the same argument,
    read through the engine's packed layout: A(X) on the unpacked X, and
    A^T(y) at the packed positions of the support. Checked in lockstep, so
    roundoff the policies amplify over the run cannot mask or fake a
    difference."""
    make, form = PARITY_PROBLEMS[family]
    prob = make()
    assert (prob.constraints.coo is None) == (form == "dense")
    layout = Layout(solver_module._aggregate_blocks(prob, np.zeros((prob.n, prob.n))), prob.n)
    calls, mismatches = [0], []  # mismatching calls, by number

    def lockstep(packed, old, before, after):
        def apply(pmap, arg):
            got, want = packed(pmap, arg), after(pmap, old(None, before(arg)))
            calls[0] += 1
            if np.linalg.norm(got - want) > 1e-12 * np.linalg.norm(want):
                mismatches.append(calls[0])
            return got
        return apply

    forward_old, adjoint_old = old_dense_formula(prob)
    monkeypatch.setattr(solver_module, "forward_packed",
                        lockstep(forward_packed, forward_old, layout.unpack,
                                 lambda pmap, ax: ax))
    monkeypatch.setattr(solver_module, "adjoint_packed",
                        lockstep(adjoint_packed, adjoint_old, lambda y: y,
                                 lambda pmap, aty: layout.pack(aty)[pmap.support]))
    trace = solve(prob, every_policy(name, prob), SolveConfig(max_iters=100, tol=1e-300))
    assert trace.iterations == 100
    assert calls[0] >= 2 * 100 + 2
    assert mismatches == []


@pytest.mark.parametrize("family", ["mc", "snl"])
def test_drs_certificate_on_sparse_maps(family):
    prob = PARITY_PROBLEMS[family][0]()
    assert prob.constraints.dense is None
    report = check_equivalence(prob, geometric_schedule(), iters=60)
    assert report.max_x_defect < 1e-8 and report.max_z_defect < 1e-8


def block_projection(blocks, n):
    """The projection of n-by-n matrices that are zero off ``blocks`` as the
    engine made it before it packed its iterate: each block of two or more
    indices gathered out of the matrix and projected by ``proj_psd_dense``,
    the isolated diagonal entries clipped at zero."""
    if len(blocks) == 1:
        return proj_psd_dense
    squares = [np.add.outer(b * n, b) for b in blocks if b.size > 1]
    diagonal = np.array([b[0] * (n + 1) for b in blocks if b.size == 1], dtype=np.intp)

    def project(mat):
        if not np.isfinite(mat).all():
            raise np.linalg.LinAlgError("matrix has non-finite entries")
        out = np.zeros((n, n))
        flat = out.ravel()
        for square in squares:
            flat[square] = proj_psd_dense(mat.take(square))
        flat[diagonal] = np.maximum(mat.take(diagonal), 0.0)
        return out

    return project


def dense_reference_solve(problem, policy, config=SolveConfig()):
    """The engine loop as it was before it iterated on packed blocks: X is
    one n-by-n array, A^T(y) a dense n-by-n array, the blocks are gathered
    and scattered by ``block_projection``, and the hooks see n-by-n arrays.
    Kept as the reference the packed engine is checked against; it raises
    where the engine would raise a SolveError."""
    cmap, b, c = problem.constraints, problem.b, problem.C.dense
    x_cur, y = solver_module._dense_initial(problem, config)
    ax, aty = forward(cmap, x_cur), adjoint(cmap, y)
    project = block_projection(solver_module._aggregate_blocks(problem, x_cur), problem.n)
    ss = policy.initial_state(problem)
    rows, status = [], "iteration_cap"
    for k in range(config.max_iters):
        alpha_x = ss.alpha
        x_new = project(x_cur - alpha_x * (aty + c))
        ax_new = forward(cmap, x_new)
        it = IterateState(x_cur, y, ax, aty, slice(None), k, lambda v: adjoint(cmap, v))
        dual = policy.dual_update(problem, it, x_new, ax_new, ss)
        if dual is None:
            ss.move_to(policy.adjust_mid(problem, it, x_new, ss))
            theta = ss.theta
            y_new = y + ss.beta * ((1.0 + theta) * ax_new - theta * ax - b)
            aty_new = adjoint(cmap, y_new)
        else:
            y_new, aty_new = dual
        dx, dy = x_cur - x_new, y - y_new
        p_mat = dx / alpha_x - (aty - aty_new)
        p, d = float(np.linalg.norm(p_mat)), float(np.linalg.norm(dy / ss.beta - (ax - ax_new)))
        report = ResidualReport(p, d, p * p + d * d)
        rows.append(TraceRow(k, p, d, report.combined, frobenius_inner_dense(c, x_new),
                             ss.alpha, ss.beta, ss.theta, 0.0))
        converged = stop_check(report, config.tol)
        if not converged:
            ss.move_to(policy.adjust_post(problem, it, x_new, p_mat, report, ss))
        x_cur, y, ax, aty = x_new, y_new, ax_new, aty_new
        if config.callback is not None:
            config.callback(k, x_new, y_new)
        if converged:
            status = "converged"
            break
    return RunTrace(rows, status, SymMat(x_cur), y.copy(), flags=dict(ss.counts))


def two_big_blocks_maxcut():
    """A max-cut whose graph has connected components of 14 and 11 vertices,
    both projected by dsyevx, and 3 isolated vertices."""
    rng = np.random.default_rng(5)
    edges = []
    for base, size in ((0, 14), (14, 11)):
        perm = base + rng.permutation(size)
        edges += [(perm[i], perm[i + 1]) for i in range(size - 1)]
        edges += [(base + i, base + (i + 4) % size) for i in range(0, size, 3)]
    n = 28
    diag = np.arange(n)
    return SdpProblem(SymMat(graph_laplacian(n, edges)),
                      ConstraintMap.from_triples(n, n, diag, diag, diag, np.ones(n)),
                      np.ones(n), {"generator": "mc"})


def with_start(prob, seed):
    """``prob`` with a given PSD X0 and a random y0. X0 couples the first two
    isolated indices of the problem, which joins them into a block, or the
    first and the last index where none are isolated."""
    n = prob.n
    lone = [b[0] for b in solver_module._aggregate_blocks(prob, np.zeros((n, n)))
            if b.size == 1]
    i, j = lone[:2] if len(lone) > 1 else (0, n - 1)
    x0 = np.eye(n)
    x0[i, j] = x0[j, i] = 0.25
    return prob, x0, np.random.default_rng(seed).standard_normal(prob.m)


# (problem, X0, y0) makers, and whether the problem is one block
REFERENCE_CORPUS = {
    "rg": (lambda: (gen_random(3, n=8, m=6), None, None), True),
    "rg-start": (lambda: with_start(gen_random(4, n=7, m=5), 1), True),
    "snl": (lambda: (PARITY_PROBLEMS["snl"][0](), None, None), True),
    "snl-small": (lambda: (small_snl(), None, None), True),
    # components of 16, 6, 4, 4, 4, 3 and nine of 2 vertices, 25 isolated
    "mc-runs": (lambda: (gen_maxcut(2, n=80, m_edges=40), None, None), False),
    "mc-two-big": (lambda: (two_big_blocks_maxcut(), None, None), False),
    # X0 joins two of split_maxcut's isolated vertices into a third 2-block
    "mc-start": (lambda: with_start(split_maxcut(), 2), False),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CORPUS))
@pytest.mark.parametrize("name", ENGINE_POLICIES)
def test_matches_dense_reference_solve(name, case):
    """The packed engine takes the reference's iterations to the stopping
    rule, with X_final bitwise equal on problems that are one block and
    within 1e-12 relative elsewhere; its callback gets n-by-n arrays."""
    make, one_block = REFERENCE_CORPUS[case]
    prob, x0, y0 = make()
    if case == "mc-start":
        assert run_sizes(Layout(solver_module._aggregate_blocks(prob, x0),
                                prob.n).runs) == [(38, 1), (3, 2), (2, 2)]
    shapes = set()
    config = SolveConfig(max_iters=4000, X0=x0, y0=y0,
                         callback=lambda k, x, y: shapes.add((x.shape, y.shape)))
    packed = solve(prob, every_policy(name, prob), config)
    assert shapes == {((prob.n, prob.n), (prob.m,))}
    ref = dense_reference_solve(prob, every_policy(name, prob), config)
    assert packed.status == ref.status
    assert packed.iterations == ref.iterations
    x, x_ref = packed.X_final.dense, ref.X_final.dense
    assert x.shape == (prob.n, prob.n)
    if one_block:
        np.testing.assert_array_equal(x, x_ref)
        assert [(r.p_norm, r.d_norm, r.alpha, r.beta, r.theta) for r in packed.rows] == \
            [(r.p_norm, r.d_norm, r.alpha, r.beta, r.theta) for r in ref.rows]
    else:
        assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
