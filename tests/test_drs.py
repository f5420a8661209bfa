import numpy as np
import pytest

from pdhgsdp.drs import (
    LiftedState,
    check_equivalence,
    constant_schedule,
    drs_step,
    geometric_schedule,
    resolvent_f,
    resolvent_g,
)
from pdhgsdp.linalg import SymMat
from pdhgsdp.operators import apply_At, build_T, forward, gram, lambda_max_AAt
from pdhgsdp.problems import gen_random
from pdhgsdp.projections import proj_psd_dense


def setup_problem(seed=0, n=3, m=2):
    prob = gen_random(seed, n=n, m=m)
    r = 0.9 / lambda_max_AAt(prob.constraints)
    lifted = build_T(prob.constraints, r)
    return prob, lifted


def dense_stack(cmap):
    """(m, n, n) stack of the constraint matrices, read as A^T(e_i)."""
    return np.stack([apply_At(cmap, e).to_dense() for e in np.eye(cmap.m)])


def rand_sym(rng, n):
    g = rng.standard_normal((n, n))
    return g + g.T


class TestResolventF:
    def test_zero_objective_projects(self):
        prob, _ = setup_problem()
        z = np.eye(3) * 2.0
        prob_zero_c = prob.__class__(
            C=SymMat.zeros(3), constraints=prob.constraints, b=prob.b, meta={}
        )
        out, out_hat = resolvent_f(z, np.zeros(prob.m), 0.5, prob_zero_c)
        np.testing.assert_allclose(out, z, atol=1e-14)
        np.testing.assert_array_equal(out_hat, np.zeros(prob.m))

    def test_cancellation_to_zero(self):
        prob, _ = setup_problem(1)
        alpha = 0.7
        z = alpha * prob.C.to_dense()
        out, _ = resolvent_f(z, np.zeros(prob.m), alpha, prob)
        np.testing.assert_allclose(out, np.zeros((3, 3)), atol=1e-14)

    def test_matches_prox_oracle(self):
        prob, _ = setup_problem(2)
        rng = np.random.default_rng(3)
        z = rand_sym(rng, 3)
        alpha = 0.4
        out, _ = resolvent_f(z, np.zeros(prob.m), alpha, prob)
        oracle = proj_psd_dense(z - alpha * prob.C.to_dense())
        np.testing.assert_allclose(out, oracle, atol=1e-12)

    def test_alpha_validation(self):
        prob, _ = setup_problem(4)
        with pytest.raises(ValueError):
            resolvent_f(np.eye(3), np.zeros(prob.m), 0.0, prob)


class TestResolventG:
    def test_feasible_point_unchanged(self):
        prob, lifted = setup_problem(5)
        rng = np.random.default_rng(6)
        # project an arbitrary point once, then project again
        v, v_hat = rand_sym(rng, 3), rng.standard_normal(prob.m)
        g1, g1_hat = resolvent_g(v, v_hat, prob, lifted)
        g2, g2_hat = resolvent_g(g1, g1_hat, prob, lifted)
        np.testing.assert_allclose(g2, g1, atol=1e-11)
        np.testing.assert_allclose(g2_hat, g1_hat, atol=1e-11)

    def test_output_feasible(self):
        prob, lifted = setup_problem(7)
        rng = np.random.default_rng(8)
        for _ in range(10):
            v, v_hat = rand_sym(rng, 3), rng.standard_normal(prob.m)
            g, g_hat = resolvent_g(v, v_hat, prob, lifted)
            resid = forward(prob.constraints, g) + lifted.T @ g_hat - prob.b
            assert np.linalg.norm(resid) < 1e-10

    def test_matches_kkt_least_squares_oracle(self):
        prob, lifted = setup_problem(9)
        rng = np.random.default_rng(10)
        v, v_hat = rand_sym(rng, 3), rng.standard_normal(prob.m)
        g, g_hat = resolvent_g(v, v_hat, prob, lifted)
        # dense normal-equations projection onto {B u = b}, B = [A | T]
        big = np.hstack([dense_stack(prob.constraints).reshape(prob.m, -1), lifted.T])
        u = np.concatenate([v.ravel(), v_hat])
        w = np.linalg.solve(big @ big.T, big @ u - prob.b)
        u_proj = u - big.T @ w
        np.testing.assert_allclose(g.ravel(), u_proj[:9], atol=1e-10)
        np.testing.assert_allclose(g_hat, u_proj[9:], atol=1e-10)


class TestFirmNonexpansiveness:
    def test_resolvent_f(self):
        prob, _ = setup_problem(11)
        rng = np.random.default_rng(12)
        for _ in range(20):
            u, v = rand_sym(rng, 3), rand_sym(rng, 3)
            ju, _ = resolvent_f(u, np.zeros(prob.m), 0.5, prob)
            jv, _ = resolvent_f(v, np.zeros(prob.m), 0.5, prob)
            diff = ju - jv
            lhs = float(np.sum(diff * diff))
            rhs = float(np.sum(diff * (u - v)))
            assert lhs <= rhs + 1e-10

    def test_resolvent_g(self):
        prob, lifted = setup_problem(13)
        rng = np.random.default_rng(14)
        for _ in range(20):
            u, uh = rand_sym(rng, 3), rng.standard_normal(prob.m)
            v, vh = rand_sym(rng, 3), rng.standard_normal(prob.m)
            ju, juh = resolvent_g(u, uh, prob, lifted)
            jv, jvh = resolvent_g(v, vh, prob, lifted)
            d, dh = ju - jv, juh - jvh
            lhs = float(np.sum(d * d) + dh @ dh)
            rhs = float(np.sum(d * (u - v)) + dh @ (uh - vh))
            assert lhs <= rhs + 1e-10


class TestDrsStep:
    def test_operator_identity_reasserted(self):
        prob, lifted = setup_problem(15)
        g = gram(prob.constraints)
        tt = lifted.T @ lifted.T.T
        target = (1.0 / lifted.R) * np.eye(prob.m)
        assert np.linalg.norm(g + tt - target) < 1e-9

    def test_constant_alpha_matches_vanilla_drs(self):
        # theta = 1 reduces to z + J_g(2 J_f(z) - z) - J_f(z)
        prob, lifted = setup_problem(16)
        rng = np.random.default_rng(17)
        z, z_hat = rand_sym(rng, 3), rng.standard_normal(prob.m)
        state = drs_step(prob, lifted, LiftedState(z.copy(), z_hat.copy()),
                         alpha_k=0.6, alpha_prev=0.6)
        f, f_hat = resolvent_f(z, z_hat, 0.6, prob)
        g_out, g_hat = resolvent_g(2 * f - z, 2 * f_hat - z_hat, prob, lifted)
        np.testing.assert_allclose(state.Z, g_out + z - f, atol=1e-12)
        np.testing.assert_allclose(state.Z_hat, g_hat + z_hat - f_hat, atol=1e-12)

    def test_fixed_point_invariance(self):
        # iterate the stationary map to (near) convergence, then one more step
        # must not move
        prob, lifted = setup_problem(18)
        rng = np.random.default_rng(19)
        state = LiftedState(rand_sym(rng, 3), rng.standard_normal(prob.m))
        prev = None
        for _ in range(20000):
            prev = (state.Z.copy(), state.Z_hat.copy())
            state = drs_step(prob, lifted, state, alpha_k=0.8, alpha_prev=0.8)
            drift = max(np.linalg.norm(state.Z - prev[0]),
                        np.linalg.norm(state.Z_hat - prev[1]))
            if drift < 1e-13:
                break
        assert drift < 1e-13
        nxt = drs_step(prob, lifted, state, alpha_k=0.8, alpha_prev=0.8)
        assert np.linalg.norm(nxt.Z - state.Z) < 1e-12
        assert np.linalg.norm(nxt.Z_hat - state.Z_hat) < 1e-12

    def test_single_step_matches_hand_unrolled_composition(self):
        prob, lifted = setup_problem(20)
        rng = np.random.default_rng(21)
        z, z_hat = rand_sym(rng, 3), rng.standard_normal(prob.m)
        a_prev, a_k = 0.5, 0.8
        theta = a_k / a_prev
        state = drs_step(prob, lifted, LiftedState(z.copy(), z_hat.copy()),
                         alpha_k=a_k, alpha_prev=a_prev)
        # hand-unrolled: every stage recomputed from definitions
        f = proj_psd_dense(z - a_prev * prob.C.to_dense())
        f_hat = np.zeros(prob.m)
        v = f + theta * (f - z)
        v_hat = f_hat + theta * (f_hat - z_hat)
        resid = forward(prob.constraints, v) + lifted.T @ v_hat - prob.b
        w = lifted.R * resid
        g_mat = v - np.tensordot(w, dense_stack(prob.constraints), axes=1)
        g_hat = v_hat - lifted.T.T @ w
        np.testing.assert_allclose(state.Z, g_mat + theta * (z - f), atol=1e-12)
        np.testing.assert_allclose(state.Z_hat, g_hat + theta * (z_hat - f_hat),
                                   atol=1e-12)

    def test_stepsize_validation(self):
        prob, lifted = setup_problem(22)
        state = LiftedState(np.eye(3), np.zeros(prob.m))
        with pytest.raises(ValueError):
            drs_step(prob, lifted, state, alpha_k=0.0, alpha_prev=0.5)


class TestCheckEquivalence:
    def test_constant_schedule(self):
        prob = gen_random(1, n=5, m=3)
        report = check_equivalence(prob, constant_schedule(1.0), iters=100, tol=1e-8)
        assert report.passed
        assert report.max_x_defect < 1e-8
        assert report.max_z_defect < 1e-8

    def test_geometric_schedule(self):
        prob = gen_random(1, n=5, m=3)
        report = check_equivalence(prob, geometric_schedule(), iters=100, tol=1e-8)
        assert report.passed

    def test_broken_product_fails(self):
        prob = gen_random(1, n=5, m=3)
        report = check_equivalence(prob, geometric_schedule(), iters=100,
                                   tol=1e-8, break_product=True)
        assert not report.passed
        assert max(report.max_x_defect, report.max_z_defect) > 1e-8

    def test_json_serialization(self):
        prob = gen_random(3, n=4, m=2)
        report = check_equivalence(prob, constant_schedule(), iters=10, tol=1e-8)
        payload = report.as_dict()
        assert set(payload) == {"max_x_defect", "max_z_defect", "iters", "pass"}
        assert payload["pass"] is True

    def test_validation(self):
        prob = gen_random(4, n=4, m=2)
        with pytest.raises(ValueError):
            check_equivalence(prob, constant_schedule(), iters=0)
        with pytest.raises(ValueError):
            check_equivalence(prob, lambda k: -1.0, iters=5)

    @pytest.mark.parametrize("bad", [2.5, True, 0], ids=["float", "bool", "zero"])
    def test_iters_must_be_a_positive_integer(self, bad):
        # 2.5 once passed the check and failed inside SolveConfig, naming
        # max_iters, which the caller never passed
        prob = gen_random(4, n=4, m=2)
        with pytest.raises(ValueError, match="^iters must be an integer"):
            check_equivalence(prob, constant_schedule(), iters=bad)

    def test_numpy_integer_iters_accepted(self):
        report = check_equivalence(gen_random(4, n=4, m=2), constant_schedule(),
                                   iters=np.int64(2))
        assert report.iters == 2 and report.passed

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0], ids=["nan", "inf", "zero"])
    def test_tol_must_be_finite_positive(self, bad):
        # a NaN tol once passed the check and made every comparison fail
        prob = gen_random(4, n=4, m=2)
        with pytest.raises(ValueError, match="tol"):
            check_equivalence(prob, constant_schedule(), iters=5, tol=bad)
