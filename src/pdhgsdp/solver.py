"""Adaptive primal-dual hybrid gradient engine for SDP.

One engine loop serves every stepsize policy:

    X_{k+1} = Proj_PSD(X_k - alpha (A^T(y_k) + C))
    y_{k+1} = y_k + beta ((1 + theta) A(X_{k+1}) - theta A(X_k) - b)

The engine is the only place that applies the constraint map: by linearity
one A(X_{k+1}) and one A^T(y_{k+1}) per iteration serve the primal step, the
dual extrapolation and both residuals, and it carries both products into the
next iteration.

Policies hook in at three points: ``adjust_mid`` runs between the primal and
dual updates (used by rules that pick the next primal stepsize there, with
the dual update applying theta = alpha_next/alpha_current), ``dual_update``
may take over the dual step entirely (backtracking linesearch), and
``adjust_post`` runs after the residuals are known (residual balancing and
gradient-alignment rules, whose new stepsizes take effect next iteration).
Hooks read the cached products from :class:`IterateState` and never apply an
operator themselves; the linesearch is the one exception, with two A^T
applications per iteration that serve all of its backtracking trials.
"""

from __future__ import annotations

import inspect
import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .linalg import SymMat, frobenius_inner_dense
from .operators import adjoint, forward, lambda_max_AAt
from .problems import SdpProblem
from .projections import proj_psd_dense

DEFAULT_TOL = 1e-6

CSV_HEADER = "iter,p_norm,d_norm,combined,objective,alpha,beta,theta,wall_ms"


class LinesearchStalled(RuntimeError):
    """Backtracking shrank past its cap without acceptance."""


class SolveError(RuntimeError):
    """An iteration failed mid-run (a policy hook, the projection, or a
    non-finite iterate); ``trace`` holds the iterations completed."""

    def __init__(self, message: str, trace: "RunTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass
class StepsizeState:
    """Current stepsize triple plus the preserved product target R.

    ``extra`` holds policy-local scalars (the decaying epsilon of the
    balancing rules, tf's spectral bound); ``counts`` holds the event
    counters a policy bumps, which the trace reports as ``flags``.
    """

    alpha: float
    beta: float
    theta: float
    R: float
    extra: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


@dataclass
class IterateState:
    """Engine iterates entering iteration k with their cached map products:
    X_cur = X^k, y = y^k, AX = A(X^k), Aty = A^T(y^k). Matrices are dense and
    symmetric by construction."""

    X_cur: np.ndarray
    y: np.ndarray
    AX: np.ndarray
    Aty: np.ndarray
    k: int


@dataclass(frozen=True)
class ResidualReport:
    p_norm: float
    d_norm: float
    combined: float


@dataclass(frozen=True)
class TraceRow:
    k: int
    p_norm: float
    d_norm: float
    combined: float
    objective: float
    alpha: float
    beta: float
    theta: float
    wall_ms: float


@dataclass
class RunTrace:
    """Per-iteration record of a solve plus the terminal iterates."""

    rows: list[TraceRow]
    status: str  # "converged" | "iteration_cap" | "error"
    X_final: SymMat | None = None
    y_final: np.ndarray | None = None
    flags: dict = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        return len(self.rows)

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv())

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.k},{r.p_norm!r},{r.d_norm!r},{r.combined!r},{r.objective!r},"
                f"{r.alpha!r},{r.beta!r},{r.theta!r},{r.wall_ms!r}"
            )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SolveConfig:
    max_iters: int = 10000
    tol: float = DEFAULT_TOL
    X0: SymMat | np.ndarray | None = None
    y0: np.ndarray | None = None
    # observation hook, called as callback(k, X_new, y_new) after each
    # iteration; must not mutate its arguments
    callback: Callable[[int, np.ndarray, np.ndarray], None] | None = None

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")


# --- residuals and stopping -------------------------------------------------


def _residual_report(dx, dy, at_dy, a_dx, alpha: float, beta: float):
    """Report on the primal residual matrix dx/alpha - A^T(dy) and the dual
    residual vector dy/beta - A(dx), for dx = X^k - X^{k+1} and
    dy = y^k - y^{k+1}; also returns the primal residual matrix."""
    p_mat = dx / alpha - at_dy
    p = float(np.linalg.norm(p_mat))
    d = float(np.linalg.norm(dy / beta - a_dx))
    return ResidualReport(p_norm=p, d_norm=d, combined=p * p + d * d), p_mat


def residuals(
    problem: SdpProblem,
    x_old: np.ndarray,
    x_new: np.ndarray,
    y_old: np.ndarray,
    y_new: np.ndarray,
    alpha: float,
    beta: float,
) -> ResidualReport:
    """Residual norms of one iteration, applying A and A^T to the iterate
    differences."""
    if alpha <= 0 or beta <= 0:
        raise ValueError(f"stepsizes must be positive, got alpha={alpha}, beta={beta}")
    cmap = problem.constraints
    dx, dy = x_old - x_new, y_old - y_new
    report, _ = _residual_report(dx, dy, adjoint(cmap, dy),
                                 forward(cmap, dx), alpha, beta)
    return report


def stop_check(report: ResidualReport, tol: float = DEFAULT_TOL) -> bool:
    """True iff ||p||^2 + ||d||^2 < tol (strict)."""
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    return report.combined < tol


# --- stepsize policies -------------------------------------------------------


_ZERO_MAP = "the constraint map is zero (lambda_max(AA^T) = 0)"


def default_stepsize_product(lam_max: float) -> float:
    """Default preserved product 0.9/lambda_max, strictly inside the
    admissible range."""
    if lam_max == 0.0:
        raise ValueError(f"{_ZERO_MAP}: it sets no stepsize product, so pass the stepsizes")
    return 0.9 / lam_max


class StepsizePolicy:
    """Base policy: no adjustment hooks."""

    name = "base"

    def initial_state(self, problem: SdpProblem) -> StepsizeState:
        raise NotImplementedError

    def adjust_mid(self, problem, it: IterateState, x_new, ss: StepsizeState) -> None:
        pass

    def dual_update(self, problem, it: IterateState, x_new, ax_new,
                    ss: StepsizeState) -> tuple[np.ndarray, np.ndarray] | None:
        """Take over the dual step given X^{k+1} and A(X^{k+1}): return
        (y^{k+1}, A^T(y^{k+1})), or None to leave it to the engine."""
        return None

    def adjust_post(self, problem, it: IterateState, x_new, p_mat,
                    report: ResidualReport, ss: StepsizeState) -> None:
        """Runs once the residuals are known; ``p_mat`` is the primal residual
        matrix of this iteration."""
        pass


class FixedPolicy(StepsizePolicy):
    """Constant stepsizes with theta = 1.

    Defaults to alpha = beta = sqrt(0.9 / lambda_max(A^T A)); explicit values
    must keep alpha*beta strictly below 1/lambda_max.
    """

    name = "fixed"

    def __init__(self, alpha: float | None = None, beta: float | None = None):
        if (alpha is None) != (beta is None):
            raise ValueError("give both alpha and beta or neither")
        if alpha is not None and (alpha <= 0 or beta <= 0):
            raise ValueError("stepsizes must be positive")
        self.alpha = alpha
        self.beta = beta

    def initial_state(self, problem: SdpProblem) -> StepsizeState:
        lam = lambda_max_AAt(problem.constraints)
        if self.alpha is None:
            root = math.sqrt(default_stepsize_product(lam))
            return StepsizeState(alpha=root, beta=root, theta=1.0, R=root * root)
        r = self.alpha * self.beta
        if r * lam >= 1.0:
            raise ValueError(
                f"alpha*beta = {r} is not strictly below 1/lambda_max = {1.0 / lam}"
            )
        return StepsizeState(alpha=self.alpha, beta=self.beta, theta=1.0, R=r)


class _BalancingBase(StepsizePolicy):
    """Shared three-branch update: grow alpha by 1/(1-eps_k), hold, or shrink
    by (1-eps_k); beta follows so alpha*beta stays R; theta reports the factor;
    eps decays geometrically each iteration."""

    def __init__(self, eps0: float = 0.5, eta: float = 0.95):
        if not 0 < eps0 < 1:
            raise ValueError(f"eps0 must lie in (0,1), got {eps0}")
        if not 0 < eta < 1:
            raise ValueError(f"eta must lie in (0,1), got {eta}")
        self.eps0 = eps0
        self.eta = eta

    def initial_state(self, problem: SdpProblem) -> StepsizeState:
        ss = FixedPolicy().initial_state(problem)
        ss.extra["eps"] = self.eps0
        return ss

    # returns +1 (grow alpha), 0 (hold), -1 (shrink alpha)
    def _branch(self, it, x_new, p_mat, report, ss) -> int:
        raise NotImplementedError

    def adjust_post(self, problem, it, x_new, p_mat, report, ss):
        eps = ss.extra["eps"]
        branch = self._branch(it, x_new, p_mat, report, ss)
        if branch > 0:
            factor = 1.0 / (1.0 - eps)
        elif branch < 0:
            factor = 1.0 - eps
        else:
            factor = 1.0
        if factor != 1.0:
            ss.alpha *= factor
            ss.beta = ss.R / ss.alpha
        ss.theta = factor
        ss.extra["eps"] = eps * self.eta


class BalancedResidualPolicy(_BalancingBase):
    """Keep primal and dual residual norms comparable: grow alpha when
    p > 2 d, hold while d/2 <= p <= 2 d, shrink otherwise."""

    name = "bpdr"

    def _branch(self, it, x_new, p_mat, report, ss) -> int:
        p, d = report.p_norm, report.d_norm
        if p > 2.0 * d:
            return 1
        if 0.5 * d <= p <= 2.0 * d:
            return 0
        return -1


class GradientAlignmentPolicy(_BalancingBase):
    """Branch on the cosine w between the primal step and the engine's primal
    residual matrix dx/alpha - A^T(y^k - y^{k+1}): grow alpha when they align
    (w > 0.99), hold for 0 <= w <= 0.99, shrink when they anti-align (w < 0).
    Vanishing norms fall back to the hold branch and bump the
    ``degenerate_cosine`` counter.
    """

    name = "alv"

    cosine_threshold = 0.99

    def _branch(self, it, x_new, p_mat, report, ss) -> int:
        dx = it.X_cur - x_new
        ndx = float(np.linalg.norm(dx))
        npm = float(np.linalg.norm(p_mat))
        if ndx == 0.0 or npm == 0.0:
            ss.counts["degenerate_cosine"] = ss.counts.get("degenerate_cosine", 0) + 1
            return 0
        w = frobenius_inner_dense(dx, p_mat) / (ndx * npm)
        if w > self.cosine_threshold:
            return 1
        if w >= 0.0:
            return 0
        return -1


class LinesearchPolicy(StepsizePolicy):
    """Backtracking linesearch on the dual step.

    After the primal update with alpha_{k-1}, try
    alpha_k = alpha_{k-1} sqrt(1 + theta_{k-1}) (the top of the admissible
    interval) with beta_k = s alpha_k and theta_k = alpha_k/alpha_{k-1};
    while ||A^T(y_trial - y)||_F > ||y_trial - y|| / (sqrt(s) alpha_k), shrink
    alpha_k by mu and retry. The accepted alpha_k is also the next primal
    stepsize.

    Every trial step is y_trial - y = beta (u + theta v) with the fixed
    vectors u = A(X^{k+1}) - b and v = A(X^{k+1}) - A(X^k), so A^T is applied
    to u and v once and each trial combines the two products.
    """

    name = "ls"

    max_backtracks = 60

    def __init__(self, s: float = 1.0, mu: float = 0.7):
        if s <= 0:
            raise ValueError(f"s must be positive, got {s}")
        if not 0 < mu < 1:
            raise ValueError(f"mu must lie in (0,1), got {mu}")
        self.s = s
        self.mu = mu

    def initial_state(self, problem: SdpProblem) -> StepsizeState:
        lam = lambda_max_AAt(problem.constraints)
        # largest alpha passing the acceptance test for the worst dual step
        a0 = 0.9 / math.sqrt(self.s * lam) if lam > 0 else 1.0
        return StepsizeState(alpha=a0, beta=self.s * a0, theta=1.0, R=self.s * a0 * a0)

    def dual_update(self, problem, it, x_new, ax_new, ss):
        u = ax_new - problem.b
        v = ax_new - it.AX
        at_u = adjoint(problem.constraints, u)
        at_v = adjoint(problem.constraints, v)
        alpha_prev = ss.alpha
        a = alpha_prev * math.sqrt(1.0 + ss.theta)
        sqrt_s = math.sqrt(self.s)
        for _ in range(self.max_backtracks + 1):
            beta = self.s * a
            theta = a / alpha_prev
            dy = beta * (u + theta * v)
            at_dy = beta * (at_u + theta * at_v)
            lhs = float(np.linalg.norm(at_dy))
            rhs = float(np.linalg.norm(dy)) / (sqrt_s * a)
            if lhs <= rhs:
                ss.alpha, ss.beta, ss.theta = a, beta, theta
                return it.y + dy, it.Aty + at_dy
            a *= self.mu
        raise LinesearchStalled(
            f"linesearch stalled: no acceptance after {self.max_backtracks} shrinks"
        )


class TuningFreePolicy(StepsizePolicy):
    """Tuning-free stepsizes driven by iterate norms and a spectral bound.

    Between the updates of iteration k (1-based here):

        t_k     = clamp(||X^k|| / ||X^k - X^{k-1} + alpha_{k-1} A^T(y^k)||)
        alpha_k = (1 - w_k + w_k t_k) alpha_{k-1},  w_k = 2^(-k/100)
        beta_k  = 1 / (eps alpha_k)

    alpha_k is the next primal stepsize, so alpha_k beta_k = 1/eps is
    preserved. The dual extrapolation theta_k is the realized ratio
    alpha_k/alpha_{k-1} = 1 - w_k + w_k t_k, which keeps the
    iteration inside the convergence theory (theta equals the stepsize ratio
    and tends to 1 as w_k vanishes). A vanishing clamp denominator maps to
    theta_max and bumps the ``tf_zero_denominator`` counter.
    """

    name = "tf"

    theta_min = 1e-5
    theta_max = 1e5
    alpha_init = 1.0
    _EPS_MARGIN = 1.0 + 1e-6

    def __init__(self, eps: float | None = None):
        if eps is not None and not (isinstance(eps, numbers.Real) and eps > 0):
            raise ValueError(f"eps must be a positive number, got {eps!r}")
        self.eps = eps

    def initial_state(self, problem: SdpProblem) -> StepsizeState:
        lam = lambda_max_AAt(problem.constraints)
        floor = lam * self._EPS_MARGIN
        eps = floor if self.eps is None else self.eps
        if eps < floor:
            raise ValueError(
                f"eps = {eps} must be at least lambda_max*(1+1e-6) = {floor} "
                "so the preserved product stays strictly admissible"
            )
        if eps == 0.0:
            raise ValueError(f"{_ZERO_MAP}: it sets no eps, so pass tf an eps > 0")
        a0 = self.alpha_init
        return StepsizeState(
            alpha=a0, beta=1.0 / (eps * a0), theta=1.0, R=1.0 / eps,
            extra={"eps": eps},
        )

    def adjust_mid(self, problem, it, x_new, ss):
        eps = ss.extra["eps"]
        k_one_based = it.k + 1
        omega = 2.0 ** (-k_one_based / 100.0)
        ref = x_new - it.X_cur + ss.alpha * it.Aty
        den = float(np.linalg.norm(ref))
        if den == 0.0:
            clamped = self.theta_max
            ss.counts["tf_zero_denominator"] = ss.counts.get("tf_zero_denominator", 0) + 1
        else:
            ratio = float(np.linalg.norm(x_new)) / den
            clamped = min(max(ratio, self.theta_min), self.theta_max)
        factor = 1.0 - omega + omega * clamped
        ss.alpha = factor * ss.alpha
        ss.beta = 1.0 / (eps * ss.alpha)
        ss.theta = factor


class SchedulePolicy(StepsizePolicy):
    """Prescribed primal stepsize sequence, paired the way the splitting
    derivation demands: iteration k's primal step uses alphas[k], and its dual
    step uses theta = alphas[k+1]/alphas[k], beta = R/alphas[k+1].

    ``product_factor`` != 1 deliberately breaks alpha*beta = R (negative
    control for the equivalence check).
    """

    name = "schedule"

    def __init__(self, alphas: Sequence[float] | Callable[[int], float],
                 R: float | None = None, product_factor: float = 1.0):
        self._alphas = alphas
        self.R = R
        self.product_factor = product_factor

    def alpha_at(self, k: int) -> float:
        a = self._alphas(k) if callable(self._alphas) else self._alphas[k]
        if a <= 0:
            raise ValueError(f"schedule produced non-positive alpha at k={k}: {a}")
        return float(a)

    def initial_state(self, problem: SdpProblem) -> StepsizeState:
        r = self.R
        if r is None:
            r = default_stepsize_product(lambda_max_AAt(problem.constraints))
        a0 = self.alpha_at(0)
        return StepsizeState(alpha=a0, beta=r / a0, theta=1.0, R=r)

    def adjust_mid(self, problem, it, x_new, ss):
        a_next = self.alpha_at(it.k + 1)
        ss.theta = a_next / ss.alpha
        ss.beta = self.product_factor * ss.R / a_next
        ss.alpha = a_next


# --- the engine --------------------------------------------------------------


def _dense_initial(problem: SdpProblem, config: SolveConfig) -> tuple[np.ndarray, np.ndarray]:
    n, m = problem.n, problem.m
    x0 = config.X0
    if x0 is None:
        x = np.zeros((n, n))
    else:
        x = (x0 if isinstance(x0, SymMat) else SymMat(x0)).dense
    if x.shape != (n, n):
        raise ValueError(f"X0 has shape {x.shape}, expected ({n}, {n})")
    y = np.zeros(m) if config.y0 is None else np.asarray(config.y0, dtype=float).copy()
    if y.shape != (m,):
        raise ValueError(f"y0 has shape {y.shape}, expected ({m},)")
    return x, y


def solve(problem: SdpProblem, policy: StepsizePolicy,
          config: SolveConfig = SolveConfig()) -> RunTrace:
    """Run the engine until the stopping rule fires or the budget runs out.

    The trace records every iteration; ``status`` is "converged" only if the
    residual rule fired. A failure inside an iteration (a policy hook, the
    projection, a non-finite iterate) raises :class:`SolveError` carrying the
    trace accumulated so far.
    """
    cmap, b = problem.constraints, problem.b
    c_dense = problem.C.dense
    x_cur, y = _dense_initial(problem, config)
    ax, aty = forward(cmap, x_cur), adjoint(cmap, y)

    ss = policy.initial_state(problem)
    rows: list[TraceRow] = []
    status = "iteration_cap"

    for k in range(config.max_iters):
        tic = time.perf_counter()
        try:
            alpha_x = ss.alpha
            x_new = proj_psd_dense(x_cur - alpha_x * (aty + c_dense))
            ax_new = forward(cmap, x_new)
            it = IterateState(X_cur=x_cur, y=y, AX=ax, Aty=aty, k=k)
            dual = policy.dual_update(problem, it, x_new, ax_new, ss)
            if dual is None:
                policy.adjust_mid(problem, it, x_new, ss)
                theta = ss.theta
                y_new = y + ss.beta * ((1.0 + theta) * ax_new - theta * ax - b)
                aty_new = adjoint(cmap, y_new)
            else:
                y_new, aty_new = dual

            report, p_mat = _residual_report(x_cur - x_new, y - y_new, aty - aty_new,
                                             ax - ax_new, alpha_x, ss.beta)
            objective = frobenius_inner_dense(c_dense, x_new)
            wall_ms = (time.perf_counter() - tic) * 1e3
            rows.append(TraceRow(k, report.p_norm, report.d_norm, report.combined,
                                 objective, ss.alpha, ss.beta, ss.theta, wall_ms))

            converged = stop_check(report, config.tol)
            if not converged:
                policy.adjust_post(problem, it, x_new, p_mat, report, ss)
        except Exception as exc:  # surface any failure with the partial trace
            trace = RunTrace(rows, "error", SymMat(x_cur), y.copy(),
                             flags=dict(ss.counts))
            raise SolveError(str(exc), trace) from exc

        x_cur, y, ax, aty = x_new, y_new, ax_new, aty_new
        if config.callback is not None:
            config.callback(k, x_new, y_new)
        if converged:
            status = "converged"
            break

    return RunTrace(rows, status, SymMat(x_cur), y.copy(), flags=dict(ss.counts))


POLICIES = {cls.name: cls for cls in (FixedPolicy, BalancedResidualPolicy,
                                      GradientAlignmentPolicy, LinesearchPolicy,
                                      TuningFreePolicy)}
POLICY_NAMES = tuple(POLICIES)


def make_policy(name: str, **kwargs) -> StepsizePolicy:
    """Construct a policy by short name; kwargs go to the constructor, and a
    keyword it does not take is a ValueError that names it."""
    if name not in POLICIES:
        raise ValueError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")
    try:
        inspect.signature(POLICIES[name]).bind(**kwargs)
    except TypeError as exc:
        raise ValueError(f"policy {name!r}: {exc}") from None
    return POLICIES[name](**kwargs)
