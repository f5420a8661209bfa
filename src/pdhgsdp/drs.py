"""Non-stationary Douglas-Rachford splitting on the lifted inclusion, used as
an independent oracle for the PDHG engine.

The lifted variable is (Z, Z_hat) with Z symmetric n-by-n and Z_hat a vector
in R^m, on which the lifting operator T (an m-by-m matrix) acts. One
splitting step with stepsizes (alpha_prev, alpha_k) and ratio
theta = alpha_k/alpha_prev is

    (F, F_hat) = J_f(Z, Z_hat; alpha_prev)          # PSD prox of <C, .>
    (V, V_hat) = (F, F_hat) + theta ((F, F_hat) - (Z, Z_hat))
    (G, G_hat) = J_g(V, V_hat)                      # affine projection
    (Z, Z_hat) <- (G, G_hat) + theta ((Z, Z_hat) - (F, F_hat))

The engine's trajectory must satisfy F^k = X^k and the correspondence
Z^{k+1} = X^k - alpha_k A^T(y^k), Z_hat^{k+1} = -alpha_k T^T(y^k), which is
what :func:`check_equivalence` measures, step by step as the engine runs. The
oracle keeps dense n-by-n iterates and exists for verification at small n, not
for production solving.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .operators import LiftedOperator, adjoint, build_T, forward, lambda_max_AAt
from .problems import SdpProblem
from .projections import proj_psd_dense
from .solver import (SchedulePolicy, SolveConfig, _require_positive,
                     default_stepsize_product, solve)


@dataclass
class LiftedState:
    """Iterate of the lifted splitting: Z symmetric n-by-n, Z_hat in R^m."""

    Z: np.ndarray
    Z_hat: np.ndarray


def resolvent_f(
    z: np.ndarray, z_hat: np.ndarray, alpha: float, problem: SdpProblem
) -> tuple[np.ndarray, np.ndarray]:
    """Resolvent of the linear-plus-PSD-indicator block:
    (Proj_PSD(Z - alpha C), 0)."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return proj_psd_dense(z - alpha * problem.C.dense), np.zeros_like(z_hat)


def resolvent_g(
    v: np.ndarray,
    v_hat: np.ndarray,
    problem: SdpProblem,
    lifted: LiftedOperator,
) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean projection onto {A(X) + T(X_hat) = b}.

    The multiplier solves (AA^T + TT^T) w = A(V) + T(V_hat) - b, and since
    AA^T + TT^T = (1/R) I by construction, w = R (A(V) + T(V_hat) - b)
    exactly; no stepsize enters (an indicator's resolvent is stepsize-free).
    """
    cmap = problem.constraints
    resid = forward(cmap, v) + lifted.T @ v_hat - problem.b
    w = lifted.R * resid
    return v - adjoint(cmap, w), v_hat - lifted.T.T @ w


def drs_step(
    problem: SdpProblem,
    lifted: LiftedOperator,
    state: LiftedState,
    alpha_k: float,
    alpha_prev: float,
) -> LiftedState:
    """One non-stationary splitting step with ratio alpha_k/alpha_prev."""
    if alpha_k <= 0 or alpha_prev <= 0:
        raise ValueError("stepsizes must be positive")
    theta = alpha_k / alpha_prev
    f, f_hat = resolvent_f(state.Z, state.Z_hat, alpha_prev, problem)
    v = f + theta * (f - state.Z)
    v_hat = f_hat + theta * (f_hat - state.Z_hat)
    g, g_hat = resolvent_g(v, v_hat, problem, lifted)
    z_new = g + theta * (state.Z - f)
    z_hat_new = g_hat + theta * (state.Z_hat - f_hat)
    return LiftedState(Z=z_new, Z_hat=z_hat_new)


@dataclass(frozen=True)
class EquivalenceReport:
    max_x_defect: float
    max_z_defect: float
    iters: int
    passed: bool

    def as_dict(self) -> dict:
        return {
            "max_x_defect": self.max_x_defect,
            "max_z_defect": self.max_z_defect,
            "iters": self.iters,
            "pass": self.passed,
        }


def check_equivalence(
    problem: SdpProblem,
    alphas: Callable[[int], float],
    iters: int,
    tol: float = 1e-8,
    break_product: bool = False,
) -> EquivalenceReport:
    """Run the PDHG engine from its zero start and the splitting oracle from
    Z = 0, Z_hat = 0 side by side.

    ``alphas(k)`` prescribes the primal stepsizes; the dual parameters are
    derived so the product and ratio conditions hold, unless ``break_product``
    deliberately corrupts the product as a negative control. Reports the
    largest primal-iterate defect ||X_pdhg - X_drs||_F and the largest
    correspondence defect on (Z, Z_hat); the check passes iff both stay below
    ``tol``.
    """
    if isinstance(iters, bool) or not isinstance(iters, numbers.Integral) or iters < 1:
        raise ValueError(f"iters must be an integer >= 1, got {iters!r}")
    _require_positive("tol", tol)

    cmap = problem.constraints
    r = default_stepsize_product(lambda_max_AAt(cmap))
    lifted = build_T(cmap, r)
    # the negative control gives the engine's dual steps a product 1.25 R that
    # the lifting, built for R, does not match
    policy = SchedulePolicy(alphas, R=1.25 * r if break_product else r)
    a = policy.alpha_at
    state = LiftedState(Z=np.zeros((problem.n, problem.n)), Z_hat=np.zeros(problem.m))
    max_x = max_z = 0.0

    def compare(j: int, x: np.ndarray, y: np.ndarray) -> None:
        # the engine's 0-based iteration j yields (X^k, y^k) with k = j + 1
        nonlocal state, max_x, max_z
        k = j + 1
        f, _ = resolvent_f(state.Z, state.Z_hat, a(k - 1), problem)
        max_x = max(max_x, float(np.linalg.norm(f - x)))
        state = drs_step(problem, lifted, state, a(k), a(k - 1))
        max_z = max(
            max_z,
            float(np.linalg.norm(state.Z - (x - a(k) * adjoint(cmap, y)))),
            float(np.linalg.norm(state.Z_hat + a(k) * (lifted.T.T @ y))),
        )

    solve(problem, policy, SolveConfig(max_iters=iters, tol=1e-300, callback=compare))

    return EquivalenceReport(
        max_x_defect=max_x,
        max_z_defect=max_z,
        iters=iters,
        passed=(max_x < tol and max_z < tol),
    )


def constant_schedule(value: float = 1.0) -> Callable[[int], float]:
    return lambda _k: value


def geometric_schedule() -> Callable[[int], float]:
    """alpha_k = 1 + 2^(-k): non-stationary with summable variation."""
    return lambda k: 1.0 + 2.0 ** (-k)
