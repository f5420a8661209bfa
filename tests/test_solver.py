import numpy as np
import pytest

import pdhgsdp.solver as solver_module
from pdhgsdp.drs import check_equivalence, geometric_schedule
from pdhgsdp.linalg import SymMat
from pdhgsdp.operators import ConstraintMap, adjoint, apply_A, apply_At, forward
from pdhgsdp.problems import SdpProblem, gen_maxcut, gen_random, gen_snl
from pdhgsdp.projections import proj_psd
from pdhgsdp.solver import (
    POLICY_NAMES,
    BalancedResidualPolicy,
    FixedPolicy,
    GradientAlignmentPolicy,
    IterateState,
    LinesearchPolicy,
    LinesearchStalled,
    ResidualReport,
    SchedulePolicy,
    SolveConfig,
    SolveError,
    StepsizePolicy,
    StepsizeState,
    TuningFreePolicy,
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
    """IterateState with the map products the engine would have cached."""
    cmap = prob.constraints
    return IterateState(X_cur=x_cur, y=y, AX=forward(cmap, x_cur),
                        Aty=adjoint(cmap, y), k=k)


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
            solve(prob, SchedulePolicy([0.0, 1.0], R=1.0), SolveConfig(max_iters=1))


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
        prob = gen_maxcut(1, n=4, m_edges=3)  # lambda_max = 1
        with pytest.raises(ValueError):
            solve(prob, FixedPolicy(alpha=1.0, beta=1.0),
                  SolveConfig(max_iters=1))
        with pytest.raises(ValueError):
            FixedPolicy(alpha=1.0)
        with pytest.raises(ValueError):
            FixedPolicy(alpha=-1.0, beta=1.0)


class TestBalancedResidualPolicy:
    def _state(self, alpha=0.5, beta=0.8):
        return StepsizeState(alpha=alpha, beta=beta, theta=1.0, R=alpha * beta,
                             extra={"eps": 0.5})

    def _iterate(self, prob):
        return iterate_state(prob, np.zeros((prob.n, prob.n)), np.zeros(prob.m))

    def test_balanced_branch_keeps_stepsizes(self):
        prob = small_rg(13)
        pol = BalancedResidualPolicy()
        ss = self._state()
        rep = ResidualReport(1.0, 1.0, 2.0)
        pol.adjust_post(prob, self._iterate(prob), None, None, rep, ss)
        assert ss.alpha == 0.5 and ss.beta == 0.8 and ss.theta == 1.0
        assert ss.extra["eps"] == 0.5 * 0.95

    def test_grow_branch_doubles_alpha(self):
        # p = 10 d with eps = 0.5: alpha doubles, beta halves
        prob = small_rg(14)
        pol = BalancedResidualPolicy(eps0=0.5)
        ss = self._state(alpha=0.5, beta=0.8)
        rep = ResidualReport(10.0, 1.0, 101.0)
        pol.adjust_post(prob, self._iterate(prob), None, None, rep, ss)
        assert ss.alpha == pytest.approx(1.0, rel=1e-15)
        assert ss.beta == pytest.approx(0.4, rel=1e-12)
        assert ss.theta == pytest.approx(2.0, rel=1e-15)

    def test_shrink_branch(self):
        prob = small_rg(15)
        pol = BalancedResidualPolicy(eps0=0.5)
        ss = self._state(alpha=1.0, beta=0.4)
        rep = ResidualReport(0.1, 1.0, 1.01)
        pol.adjust_post(prob, self._iterate(prob), None, None, rep, ss)
        assert ss.alpha == pytest.approx(0.5, rel=1e-15)
        assert ss.theta == pytest.approx(0.5, rel=1e-15)

    def test_theta_equals_alpha_ratio_identity(self):
        prob = small_rg(16)
        trace = solve(prob, BalancedResidualPolicy(),
                      SolveConfig(max_iters=300, tol=1e-300))
        for prev, cur in zip(trace.rows, trace.rows[1:]):
            assert cur.theta == pytest.approx(cur.alpha / prev.alpha, rel=1e-12)

    def test_epsilon_decays_geometrically(self):
        pol = BalancedResidualPolicy(eps0=0.5, eta=0.95)
        prob = small_rg(17)
        ss = pol.initial_state(prob)
        eps = [ss.extra["eps"]]
        it = self._iterate(prob)
        for _ in range(5):
            pol.adjust_post(prob, it, None, None, ResidualReport(1.0, 1.0, 2.0), ss)
            eps.append(ss.extra["eps"])
        for before, after in zip(eps, eps[1:]):
            assert after == before * 0.95  # exact geometric decay

    @pytest.mark.parametrize("ratio, branch", [(2.0, 0), (3.0, 1)])
    def test_grow_threshold_is_twice_the_dual_residual(self, ratio, branch):
        # p = 2 d still holds; anything above it grows alpha
        pol = BalancedResidualPolicy()
        rep = ResidualReport(ratio * 0.7, 0.7, 0.0)
        assert pol._branch(None, None, None, rep, None) == branch

    def test_param_validation(self):
        for bad in ({"eps0": 0.0}, {"eps0": 1.0}, {"eta": 0.0}, {"eta": 1.0}):
            with pytest.raises(ValueError):
                BalancedResidualPolicy(**bad)


class TestGradientAlignmentPolicy:
    def _setup(self):
        # two orthonormal directions: A1 off-diagonal, A2 = dx/||dx||
        a1 = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0)
        dx = np.diag([1.0, -1.0])
        a2 = dx / np.linalg.norm(dx)
        cmap = ConstraintMap((SymMat.from_dense(a1), SymMat.from_dense(a2)))
        prob = SdpProblem(SymMat.zeros(2), cmap, np.zeros(2), {})
        return prob, dx

    def _run_branch(self, prob, dx, delta_y, eps0=0.5):
        pol = GradientAlignmentPolicy(eps0=eps0)
        ss = StepsizeState(alpha=1.0, beta=1.0, theta=1.0, R=1.0, extra={"eps": eps0})
        x_new = np.zeros((2, 2))
        it = iterate_state(prob, dx.copy(), np.zeros(2))
        y_new = -np.asarray(delta_y, dtype=float)  # so y_old - y_new = delta_y
        # the engine's primal residual matrix, here with alpha = 1
        p_mat = (it.X_cur - x_new) - adjoint(prob.constraints, it.y - y_new)
        pol.adjust_post(prob, it, x_new, p_mat, ResidualReport(1.0, 1.0, 2.0), ss)
        return ss

    def test_parallel_residual_grows_alpha(self):
        prob, dx = self._setup()
        # delta_y = 0 -> p = dx/alpha, perfectly aligned with dx
        ss = self._run_branch(prob, dx, delta_y=[0.0, 0.0])
        assert ss.alpha == pytest.approx(2.0, rel=1e-15)

    def test_orthogonal_residual_holds(self):
        prob, dx = self._setup()
        # A^T(delta_y) = dx + A1 => p = -A1, orthogonal to dx
        norm_dx = np.linalg.norm(dx)
        ss = self._run_branch(prob, dx, delta_y=[1.0, norm_dx])
        assert ss.alpha == 1.0 and ss.theta == 1.0

    def test_antiparallel_residual_shrinks_alpha(self):
        prob, dx = self._setup()
        # A^T(delta_y) = 2 dx => p = -dx
        ss = self._run_branch(prob, dx, delta_y=[0.0, 2.0 * np.linalg.norm(dx)])
        assert ss.alpha == pytest.approx(0.5, rel=1e-15)

    def test_degenerate_cosine_flag(self):
        prob, dx = self._setup()
        pol = GradientAlignmentPolicy()
        ss = StepsizeState(alpha=1.0, beta=1.0, theta=1.0, R=1.0, extra={"eps": 0.5})
        x_same = dx.copy()
        it = iterate_state(prob, dx.copy(), np.zeros(2))
        pol.adjust_post(prob, it, x_same, np.zeros((2, 2)),
                        ResidualReport(0.0, 0.0, 0.0), ss)
        assert ss.alpha == 1.0 and ss.theta == 1.0
        assert ss.counts == {"degenerate_cosine": 1}


class TestZeroConstraintMap:
    """lambda_max(AA^T) = 0 gives no default stepsize; ls copes on its own."""

    @pytest.mark.parametrize(
        "policy",
        [FixedPolicy(), BalancedResidualPolicy(), GradientAlignmentPolicy(),
         TuningFreePolicy(), SchedulePolicy([1.0, 1.0])],
        ids=lambda policy: policy.name,
    )
    def test_default_stepsizes_name_the_zero_map(self, policy):
        with pytest.raises(ValueError, match="constraint map is zero"):
            solve(zero_map_problem(), policy, SolveConfig(max_iters=1))

    def test_given_stepsizes_still_run(self):
        for policy in (FixedPolicy(alpha=1.0, beta=1.0), TuningFreePolicy(eps=1.0),
                       SchedulePolicy([1.0, 1.0, 1.0], R=1.0)):
            trace = solve(zero_map_problem(), policy, SolveConfig(max_iters=2))
            assert trace.status == "converged"  # X = 0 is optimal


class TestLinesearchPolicy:
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
        pol = LinesearchPolicy(s=s, mu=0.5)
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
        mu = 0.7
        # theta0 = 1, alpha0 chosen so exactly two shrinks are needed:
        # trial = a0*sqrt(2) fails, a0*sqrt(2)*0.7 fails, a0*sqrt(2)*0.49 passes
        s = 1.0
        a0 = 1.5 / np.sqrt(2.0)
        pol = LinesearchPolicy(s=s, mu=mu)
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
        pol = LinesearchPolicy(s=4.0, mu=0.99)
        pol.max_backtracks = 0
        ss = pol.initial_state(prob)
        rng = np.random.default_rng(22)
        x_new = random_sym(rng, 4)
        it = iterate_state(prob, np.zeros((4, 4)), rng.standard_normal(4))
        with pytest.raises(LinesearchStalled):
            pol.dual_update(prob, it, x_new, forward(prob.constraints, x_new), ss)

    def test_stall_inside_solve_carries_trace(self):
        prob = gen_maxcut(4, n=4, m_edges=3)
        pol = LinesearchPolicy(s=4.0, mu=0.99)
        pol.max_backtracks = 0
        with pytest.raises(SolveError) as excinfo:
            solve(prob, pol, SolveConfig(max_iters=10))
        assert excinfo.value.trace.status == "error"

    def test_param_validation(self):
        with pytest.raises(ValueError):
            LinesearchPolicy(s=0.0)
        with pytest.raises(ValueError):
            LinesearchPolicy(s=1.0, mu=1.0)


class TestTuningFreePolicy:
    def test_neutral_ratio_keeps_alpha(self):
        prob = small_rg(23)
        pol = TuningFreePolicy()
        ss = pol.initial_state(prob)
        eps = ss.extra["eps"]
        # x_new with ||x_new|| == ||x_new - x_cur + alpha A^T(y)||: y = 0,
        # x_cur = 0 makes the ratio exactly 1
        x_new = np.eye(5)
        it = iterate_state(prob, np.zeros((5, 5)), np.zeros(3))
        pol.adjust_mid(prob, it, x_new, ss)
        assert ss.alpha == 1.0 and ss.theta == 1.0
        assert ss.beta == pytest.approx(1.0 / eps, rel=1e-15)

    def test_zero_denominator_clamps_to_theta_max(self):
        # at one-based iteration 100, omega = 1/2, so the blend of the clamp
        # value theta_max is 1/2 + theta_max/2, exact in binary
        prob = small_rg(24)
        pol = TuningFreePolicy()
        ss = pol.initial_state(prob)
        x_same = np.eye(5)
        it = iterate_state(prob, x_same.copy(), np.zeros(3), k=99)
        pol.adjust_mid(prob, it, x_same, ss)
        factor = 0.5 + 0.5 * TuningFreePolicy.theta_max
        assert ss.theta == factor
        assert ss.alpha == factor * TuningFreePolicy.alpha_init
        assert ss.counts == {"tf_zero_denominator": 1}

    def test_convex_blend_arithmetic(self):
        # at one-based iteration 100, omega = 1/2; clamp value 3 doubles alpha
        prob = small_rg(25)
        pol = TuningFreePolicy()
        ss = pol.initial_state(prob)
        x_cur = np.diag([2.0, 0.0, 0.0, 0.0, 0.0])
        x_new = np.diag([3.0, 0.0, 0.0, 0.0, 0.0])
        it = iterate_state(prob, x_cur, np.zeros(3), k=99)
        alpha_before = ss.alpha
        pol.adjust_mid(prob, it, x_new, ss)
        assert ss.alpha == pytest.approx(2.0 * alpha_before, rel=1e-14)
        assert ss.theta == pytest.approx(2.0, rel=1e-14)  # realized ratio

    def test_eps_floor_enforced(self):
        prob = gen_maxcut(1, n=4, m_edges=3)  # lambda_max = 1
        with pytest.raises(ValueError):
            solve(prob, TuningFreePolicy(eps=1.0), SolveConfig(max_iters=1))
        trace = solve(prob, TuningFreePolicy(eps=2.0), SolveConfig(max_iters=5))
        assert trace.iterations == 5


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
        policy = FixedPolicy(alpha=0.9, beta=0.9)  # lambda_max = 1 here
        trace = solve(prob, policy, SolveConfig(max_iters=50000, tol=1e-6))
        assert trace.status == "converged"

    def test_default_hyperparameters(self):
        assert BalancedResidualPolicy().eps0 == 0.5
        assert BalancedResidualPolicy().eta == 0.95
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

    def test_projection_failure_keeps_completed_rows(self):
        # iteration 2 hands an infinite primal stepsize to iteration 3, whose
        # projection then fails on a non-finite matrix
        prob = gen_random(1, n=6, m=4)
        policy = SchedulePolicy([1.0, 1.0, 1.0, np.inf, 1.0])
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(SolveError) as excinfo:
                solve(prob, policy, SolveConfig(max_iters=4, tol=1e-300))
        trace = excinfo.value.trace
        assert trace.status == "error"
        assert [row.k for row in trace.rows] == [0, 1, 2]

    def test_non_finite_projection_input_keeps_completed_rows(self):
        # the callback writes a NaN pair into iteration 2's output, so the
        # projection of iteration 3 sees a non-finite matrix
        def poison(k, x, _y):
            if k == 2:
                x[0, 1] = x[1, 0] = np.nan

        with pytest.raises(SolveError) as excinfo:
            solve(gen_random(1, n=6, m=4), FixedPolicy(),
                  SolveConfig(max_iters=5, tol=1e-300, callback=poison))
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


def every_policy(name):
    if name == "schedule":
        return SchedulePolicy(lambda k: 1.0 + 2.0 ** (-k))
    return make_policy(name)


ENGINE_POLICIES = POLICY_NAMES + ("schedule",)


class TestOperatorApplications:
    """The engine applies A once and A^T once per iteration, plus once each
    at set-up; the linesearch's dual step adds its two A^T applications and
    drops the engine's. No other hook applies an operator."""

    ITERS = 25

    @pytest.mark.parametrize("name", ENGINE_POLICIES)
    def test_map_applications_per_iteration(self, name, monkeypatch):
        policy = every_policy(name)
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

        trace = solve(gen_random(1, n=6, m=4), policy,
                      SolveConfig(max_iters=self.ITERS, tol=1e-300))
        assert trace.iterations == self.ITERS
        per_iter = 3 if name == "ls" else 2
        assert total[0] == per_iter * self.ITERS + 2
        assert in_hook == ({"dual_update": 2 * self.ITERS} if name == "ls" else {})


@pytest.mark.parametrize("name", ENGINE_POLICIES)
def test_one_projection_per_iteration(name, monkeypatch):
    """The engine reaches the projections module only through its
    module-level ``proj_psd_dense``, once per iteration, so wrapping that
    name sees every projection."""
    projections = [attr for attr, obj in vars(solver_module).items()
                   if getattr(obj, "__module__", None) == "pdhgsdp.projections"]
    assert projections == ["proj_psd_dense"]
    calls = [0]
    original = solver_module.proj_psd_dense

    def counting(mat):
        calls[0] += 1
        return original(mat)

    monkeypatch.setattr(solver_module, "proj_psd_dense", counting)
    iters = 25
    trace = solve(gen_random(1, n=6, m=4), every_policy(name),
                  SolveConfig(max_iters=iters, tol=1e-300))
    assert trace.iterations == iters
    assert calls[0] == iters


@pytest.mark.parametrize("make_problem", [lambda: small_rg(42, n=6, m=4), small_snl],
                         ids=["rg", "snl"])
@pytest.mark.parametrize("name", ENGINE_POLICIES)
def test_trace_residuals_match_public_formula(name, make_problem):
    prob = make_problem()
    policy = every_policy(name)
    states = []  # the engine's stepsize state, which the hooks update in place
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


def test_make_policy_dispatch():
    assert make_policy("fixed").name == "fixed"
    assert make_policy("bpdr", eps0=0.25).eps0 == 0.25
    assert make_policy("alv").name == "alv"
    assert make_policy("ls", s=0.5).s == 0.5
    assert make_policy("tf").name == "tf"
    with pytest.raises(ValueError):
        make_policy("nope")
    with pytest.raises(ValueError, match="'s'"):
        make_policy("tf", s=1.0)


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
    hooks', agrees with the old dense-stack formula on the same argument.
    Checked in lockstep, so roundoff the policies amplify over the run cannot
    mask or fake a difference."""
    make, form = PARITY_PROBLEMS[family]
    prob = make()
    assert (prob.constraints.coo is None) == (form == "dense")
    calls, mismatches = [0], []  # mismatching calls, by number

    def lockstep(stored, old):
        def apply(cmap, arg):
            got, want = stored(cmap, arg), old(cmap, arg)
            calls[0] += 1
            if np.linalg.norm(got - want) > 1e-12 * np.linalg.norm(want):
                mismatches.append(calls[0])
            return got
        return apply

    forward_old, adjoint_old = old_dense_formula(prob)
    monkeypatch.setattr(solver_module, "forward", lockstep(forward, forward_old))
    monkeypatch.setattr(solver_module, "adjoint", lockstep(adjoint, adjoint_old))
    trace = solve(prob, every_policy(name), SolveConfig(max_iters=100, tol=1e-300))
    assert trace.iterations == 100
    assert calls[0] >= 2 * 100 + 2
    assert mismatches == []


@pytest.mark.parametrize("family", ["mc", "snl"])
def test_drs_certificate_on_sparse_maps(family):
    prob = PARITY_PROBLEMS[family][0]()
    assert prob.constraints.dense is None
    report = check_equivalence(prob, geometric_schedule(), iters=60)
    assert report.max_x_defect < 1e-8 and report.max_z_defect < 1e-8
