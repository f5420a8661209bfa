"""Adaptive primal-dual hybrid gradient engine for SDP.

One engine loop serves every stepsize policy:

    X_{k+1} = Proj_PSD(X_k - alpha (A^T(y_k) + C))
    y_{k+1} = y_k + beta ((1 + theta) A(X_{k+1}) - theta A(X_k) - b)

The engine is the only place that applies the constraint map: by linearity
one A(X_{k+1}) and one A^T(y_{k+1}) per iteration serve the primal step, the
dual extrapolation and both residuals, and it carries both products into the
next iteration.

Every policy starts at :meth:`StepsizeState.start`: its first alpha, with
beta = R/alpha and theta = 1. It then hooks in at three points.
``adjust_mid`` runs between the primal and dual updates (tf, schedules),
``adjust_post`` once the residuals are known (residual balancing and
gradient alignment); each returns the next primal stepsize or None, and the
engine alone derives theta = alpha_new/alpha_old and beta = R/alpha_new from
it (:meth:`StepsizeState.move_to`).
``dual_update`` may take over the dual step entirely: the backtracking
linesearch, whose product alpha*beta moves by design. Hooks read the cached
products from :class:`IterateState` and never apply an operator themselves;
the linesearch is the one exception, with one A^T application per iteration
that serves all of its backtracking trials.

The engine iterates on the blocks of the aggregate sparsity pattern: the
off-diagonal nonzeros of C, of every A_i and of X_0 join their indices into
blocks, found once per solve. Every iterate stays zero off the blocks, so X
is kept as one packed vector of its blocks, and projecting each block on its
own (``proj_psd_packed``) is the exact projection. ``projections.Layout``
packs the vector and plans that projection once per solve, with dsyevx
workspaces of its own. A^T(y) and C are kept only on the support, the packed
positions where either can be nonzero (everything for a dense map). Off the
support the primal step and the primal residual subtract exact zeros, so
both are the dense formulas bit for bit.

Hooks see X^k, X^{k+1} and the primal residual as packed vectors, and
A^T(y^k) as ``it.Aty``, its values on the support ``it.support``; the map's
adjoint ``it.adjoint`` returns its values there too. ``RunTrace.X_final``,
the callback's X and the partial trace of :class:`SolveError` are new n-by-n
arrays, and the callback's y is a copy.
"""

from __future__ import annotations

import inspect
import math
import numbers
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .linalg import SymMat, frobenius_inner_dense
from .operators import adjoint, adjoint_packed, forward, forward_packed, lambda_max_AAt
from .problems import SdpProblem
from .projections import Layout, proj_psd_packed

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

    ``counts`` holds the event counters a policy bumps, which the trace
    reports as ``flags``.
    """

    alpha: float
    beta: float
    theta: float
    R: float
    counts: dict = field(default_factory=dict)

    @classmethod
    def start(cls, alpha: float, R: float) -> "StepsizeState":
        """The first stepsizes: alpha with beta = R/alpha and theta = 1."""
        return cls(alpha=alpha, beta=R / alpha, theta=1.0, R=R)

    def move_to(self, alpha: float | None) -> None:
        """Take ``alpha`` as the new primal stepsize, with theta the ratio to
        the current one and beta = R/alpha; None keeps all three."""
        if alpha is not None:
            self.theta = alpha / self.alpha
            self.beta = self.R / alpha
            self.alpha = alpha


@dataclass
class IterateState:
    """Engine iterates entering iteration k, with their cached map products:
    X_cur = X^k, y = y^k, AX = A(X^k) and Aty = A^T(y^k). X_cur is a packed
    vector in the engine's layout (see the module docstring); Aty holds the
    values of A^T(y^k) at the packed positions ``support``, and is zero off
    them. ``adjoint`` maps an m-vector v to A^T(v) on ``support`` too."""

    X_cur: np.ndarray
    y: np.ndarray
    AX: np.ndarray
    Aty: np.ndarray
    support: np.ndarray | slice
    k: int
    adjoint: Callable[[np.ndarray], np.ndarray]


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


def _require_positive(name: str, value) -> None:
    """Raise ValueError unless ``value`` is a finite positive real; a bool,
    though an int to Python, is not a number here."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0 < value < math.inf):
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")


@dataclass(frozen=True)
class SolveConfig:
    max_iters: int = 10000
    tol: float = DEFAULT_TOL
    X0: SymMat | np.ndarray | None = None
    y0: np.ndarray | None = None
    # observation hook, called as callback(k, X_new, y_new) after each
    # iteration with copies of the iterates, so writing into them is harmless
    callback: Callable[[int, np.ndarray, np.ndarray], None] | None = None

    def __post_init__(self):
        if (isinstance(self.max_iters, bool)
                or not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 0):
            raise ValueError(f"max_iters must be an integer >= 0, got {self.max_iters!r}")
        _require_positive("tol", self.tol)


# --- residuals and stopping -------------------------------------------------


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm(v) of a real array, bit for bit: the square root of the
    raveled array's dot product with itself, which is what it computes."""
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def _residual_report(dx, dy, at_dy, a_dx, alpha: float, beta: float, support=slice(None)):
    """Report on the primal residual dx/alpha - A^T(dy) and the dual residual
    vector dy/beta - A(dx), for dx = X^k - X^{k+1} and dy = y^k - y^{k+1},
    with A^T(dy) given at the positions ``support`` of dx, and zero off them;
    also returns the primal residual, formed in the array ``dx``."""
    dx /= alpha
    dx[support] -= at_dy
    p = _norm(dx)
    d = _norm(dy / beta - a_dx)
    return ResidualReport(p_norm=p, d_norm=d, combined=p * p + d * d), dx


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
    _require_positive("tol", tol)
    return report.combined < tol


# --- stepsize policies -------------------------------------------------------


_ZERO_MAP = "the constraint map is zero (lambda_max(AA^T) = 0)"


def default_stepsize_product(lam_max: float) -> float:
    """Default preserved product 0.9/lambda_max, strictly inside the
    admissible range."""
    if lam_max == 0.0:
        raise ValueError(f"{_ZERO_MAP}: it sets no default stepsize product "
                         "(ls, and a schedule given its own R, need none)")
    return 0.9 / lam_max


class StepsizePolicy:
    """Base policy: no adjustment hooks."""

    name = "base"

    def initial_state(self, problem: SdpProblem) -> StepsizeState:
        raise NotImplementedError

    def adjust_mid(self, problem, it: IterateState, x_new,
                   ss: StepsizeState) -> float | None:
        """Return the stepsize this iteration's dual step pairs with, or None
        to keep the stepsizes."""
        return None

    def dual_update(self, problem, it: IterateState, x_new, ax_new,
                    ss: StepsizeState) -> tuple[np.ndarray, np.ndarray] | None:
        """Take over the dual step given X^{k+1} and A(X^{k+1}): return
        (y^{k+1}, A^T(y^{k+1}) on ``it.support``), or None to leave it to the
        engine."""
        return None

    def adjust_post(self, problem, it: IterateState, x_new, p_mat,
                    report: ResidualReport, ss: StepsizeState) -> float | None:
        """Return the next iteration's stepsize, or None, once the residuals
        are known; ``p_mat`` is the primal residual of this iteration, packed
        as ``x_new`` is."""
        return None


class FixedPolicy(StepsizePolicy):
    """Constant stepsizes with theta = 1: alpha = sqrt(R) and beta = R/alpha
    for R = 0.9/lambda_max(AA^T)."""

    name = "fixed"

    def initial_state(self, problem: SdpProblem) -> StepsizeState:
        R = default_stepsize_product(lambda_max_AAt(problem.constraints))
        return StepsizeState.start(math.sqrt(R), R)


class _BalancingBase(StepsizePolicy):
    """Shared three-branch update after iteration k: grow alpha to
    alpha/(1-eps_k), hold it, or shrink it to alpha (1-eps_k), with the
    geometrically decaying eps_k = eps0 eta^k. eps0 is fixed; eta, the one
    value the paper tunes (``grid_search_eta``), is settable.

    The start is fixed's product R split in the units of the constraint rows:
    alpha_0 = sqrt(R) rho and beta_0 = R/alpha_0, with rho the RMS Frobenius
    norm of the A_i. Scaling every A_i and b by s scales sqrt(R) by 1/s and
    rho by s, so alpha_0 is free of the rows' units, as the primal step
    X - alpha (A^T(y) + C) is; fixed's alpha_0 = sqrt(R) would shrink with
    the rows and leave the decaying adjustments to climb back. alv's iterates
    are then unit-free too; bpdr's are not, since its branch compares p with
    d, and d carries the units of the rows.
    """

    eps0 = 0.5

    def __init__(self, eta: float = 0.95):
        if isinstance(eta, bool) or not isinstance(eta, numbers.Real) or not 0 < eta < 1:
            raise ValueError(f"eta must be a real number in (0, 1), got {eta!r}")
        self.eta = eta

    def initial_state(self, problem: SdpProblem) -> StepsizeState:
        fixed = FixedPolicy().initial_state(problem)
        return StepsizeState.start(fixed.alpha * problem.constraints.rms_row_norm(), fixed.R)

    # returns +1 (grow alpha), 0 (hold), -1 (shrink alpha)
    def _branch(self, it, x_new, p_mat, report, ss) -> int:
        raise NotImplementedError

    def adjust_post(self, problem, it, x_new, p_mat, report, ss):
        eps = self.eps0 * self.eta ** it.k
        branch = self._branch(it, x_new, p_mat, report, ss)
        if branch > 0:
            return ss.alpha / (1.0 - eps)
        if branch < 0:
            return ss.alpha * (1.0 - eps)
        return ss.alpha


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
        ndx = _norm(dx)
        npm = _norm(p_mat)
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
    alpha_k by the fixed factor mu and retry. The accepted alpha_k is also the
    next primal stepsize. Only s, which the paper tunes, is settable.

    Every trial step is y_trial - y = beta (u + theta v) with the fixed
    vectors u = A(X^{k+1}) - b and v = A(X^{k+1}) - A(X^k). By linearity
    A^T(u) = A^T(A(X^{k+1})) - A^T(b) and A^T(v) = A^T(A(X^{k+1})) - A^T(A(X^k)),
    so one A^T application per iteration serves them: A^T(b) is formed once
    per solve (kept with the adjoint that formed it), and A^T(A(X^k)) is the
    previous call's product whenever the engine hands back that call's
    A(X^{k+1}) as ``it.AX``. Otherwise (the first iteration, or a call from
    outside the engine) A^T is applied to u and v. Squared, and with beta^2
    cancelled, the test reads
    ||A^T(u) + theta A^T(v)||^2 <= ||u + theta v||^2 / (s alpha_k^2), two
    quadratics in theta whose six coefficients are inner products formed
    once; only the accepted trial forms y^{k+1} and A^T(y^{k+1}).
    """

    name = "ls"

    max_backtracks = 60
    mu = 0.7

    def __init__(self, s: float = 1.0):
        _require_positive("s", s)
        self.s = s
        self._atb = (None, None)  # (the adjoint that formed it, A^T(b))
        self._last = (None, None)  # (A(X^{k+1}), A^T(A(X^{k+1}))) of the last call

    def initial_state(self, problem: SdpProblem) -> StepsizeState:
        lam = lambda_max_AAt(problem.constraints)
        # largest alpha passing the acceptance test for the worst dual step
        # (its beta is never read: dual_update sets the stepsizes first)
        a0 = 0.9 / math.sqrt(self.s * lam) if lam > 0 else 1.0
        return StepsizeState.start(a0, self.s * a0 * a0)

    def dual_update(self, problem, it, x_new, ax_new, ss):
        u = ax_new - problem.b
        v = ax_new - it.AX
        adjoint_of, atb = self._atb
        if adjoint_of is not it.adjoint:
            atb = it.adjoint(problem.b)
            self._atb = (it.adjoint, atb)
        last_ax, at_ax = self._last
        if last_ax is it.AX:
            at_ax_new = it.adjoint(ax_new)
            at_u, at_v = at_ax_new - atb, at_ax_new - at_ax
        else:
            at_u, at_v = it.adjoint(u), it.adjoint(v)
            at_ax_new = at_u + atb
        self._last = (ax_new, at_ax_new)
        uu, uv, vv = float(u.dot(u)), float(u.dot(v)), float(v.dot(v))
        p, q = at_u.ravel(), at_v.ravel()  # n-by-n where hooks are called so
        pp, pq, qq = float(p.dot(p)), float(p.dot(q)), float(q.dot(q))
        alpha_prev = ss.alpha
        a = alpha_prev * math.sqrt(1.0 + ss.theta)
        for _ in range(self.max_backtracks + 1):
            theta = a / alpha_prev
            lhs = pp + theta * (2.0 * pq + theta * qq)
            rhs = (uu + theta * (2.0 * uv + theta * vv)) / (self.s * a * a)
            if lhs <= rhs:
                beta = self.s * a
                ss.alpha, ss.beta, ss.theta = a, beta, theta
                return it.y + beta * (u + theta * v), it.Aty + beta * (at_u + theta * at_v)
            a *= self.mu
        raise LinesearchStalled(
            f"linesearch stalled: no acceptance after {self.max_backtracks} shrinks"
        )


class TuningFreePolicy(StepsizePolicy):
    """Tuning-free stepsizes driven by iterate norms and a spectral bound.

    Between the updates of iteration k (1-based here):

        t_k     = clamp(||X^k|| / ||X^k - X^{k-1} + alpha_{k-1} A^T(y^k)||)
        alpha_k = (1 - w_k + w_k t_k) alpha_{k-1},  w_k = 2^(-k/100)

    The engine pairs alpha_k with beta_k = R/alpha_k, R = 1/eps, and the
    realized ratio theta_k = alpha_k/alpha_{k-1}, which tends to 1 as w_k
    vanishes. tf takes no parameter: eps = lambda_max(AA^T)(1 + 1e-6) keeps
    R strictly below 1/lambda_max(AA^T), and a zero map raises. A vanishing
    clamp denominator maps to theta_max and bumps the
    ``tf_zero_denominator`` counter; if ||X^k|| is zero too, the ratio is 0/0
    and counts as 1, its value from the zero start wherever it is defined.
    That is the first step from the zero start when Proj_PSD(-alpha C) = 0
    (C = 0, or a PSD C as on max-cut); read as theta_max, it would turn on
    whether roundoff leaves an eigenvalue of order +1e-17 in that projection.
    """

    name = "tf"

    theta_min = 1e-5
    theta_max = 1e5
    alpha_init = 1.0
    _EPS_MARGIN = 1.0 + 1e-6

    def initial_state(self, problem: SdpProblem) -> StepsizeState:
        eps = lambda_max_AAt(problem.constraints) * self._EPS_MARGIN
        if eps == 0.0:
            raise ValueError(f"{_ZERO_MAP}: it sets no eps")
        return StepsizeState.start(self.alpha_init, 1.0 / eps)

    def adjust_mid(self, problem, it, x_new, ss):
        k_one_based = it.k + 1
        omega = 2.0 ** (-k_one_based / 100.0)
        ref = x_new - it.X_cur
        ref[it.support] += ss.alpha * it.Aty
        den = _norm(ref)
        num = _norm(x_new)
        if den == 0.0:
            clamped = self.theta_max if num > 0.0 else 1.0
            ss.counts["tf_zero_denominator"] = ss.counts.get("tf_zero_denominator", 0) + 1
        else:
            clamped = min(max(num / den, self.theta_min), self.theta_max)
        return (1.0 - omega + omega * clamped) * ss.alpha


class SchedulePolicy(StepsizePolicy):
    """Prescribed primal stepsizes ``alphas(k)``, paired the way the splitting
    derivation demands: iteration k's primal step uses alphas(k), and its dual
    step uses theta = alphas(k+1)/alphas(k), beta = R/alphas(k+1).
    """

    name = "schedule"

    def __init__(self, alphas: Callable[[int], float], R: float):
        _require_positive("R", R)
        self._alphas = alphas
        self.R = R

    def alpha_at(self, k: int) -> float:
        a = self._alphas(k)
        _require_positive(f"the schedule's alpha at k={k}", a)
        return float(a)

    def initial_state(self, problem: SdpProblem) -> StepsizeState:
        return StepsizeState.start(self.alpha_at(0), self.R)

    def adjust_mid(self, problem, it, x_new, ss):
        return self.alpha_at(it.k + 1)


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


def _aggregate_blocks(problem: SdpProblem, x0: np.ndarray) -> list[np.ndarray]:
    """Index sets, each ascending, of the connected components of the graph
    whose edges are the off-diagonal nonzeros of C, of every A_i and of X_0.
    A diagonal entry joins nothing, so a diagonal A_i leaves its indices
    apart."""
    n, cmap = problem.n, problem.constraints
    pattern = (problem.C.dense != 0) | (x0 != 0)
    if cmap.coo is None:
        pattern |= np.any(cmap.dense, axis=0).reshape(n, n)
    else:
        pattern.ravel()[cmap.coo[1]] = True
    np.fill_diagonal(pattern, False)
    i, j = np.nonzero(pattern)  # the pattern is symmetric: each edge both ways
    # label propagation with pointer jumping: every label only falls, and at
    # the fixed point each component carries its smallest index
    labels = np.arange(n)
    while True:
        prev = labels.copy()
        np.minimum.at(labels, i, labels[j])
        labels = labels[labels]
        if np.array_equal(labels, prev):
            break
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order])) + 1
    return np.split(order, starts)


def solve(problem: SdpProblem, policy: StepsizePolicy,
          config: SolveConfig = SolveConfig()) -> RunTrace:
    """Run the engine until the stopping rule fires or the budget runs out.

    The trace records every iteration; ``status`` is "converged" only if the
    residual rule fired. A failure inside an iteration (a policy hook, the
    projection, a non-finite iterate) raises :class:`SolveError` carrying the
    trace accumulated so far.
    """
    b = problem.b
    x0, y = _dense_initial(problem, config)
    layout = Layout(_aggregate_blocks(problem, x0), problem.n)
    c_packed = layout.pack(problem.C.dense)
    pmap = problem.constraints.packed(layout.index, np.flatnonzero(c_packed))
    support = pmap.support
    c = c_packed[support]  # C off the support is zero
    x_cur = layout.pack(x0)
    ax, aty = forward_packed(pmap, x_cur), adjoint_packed(pmap, y)
    packed_adjoint = partial(adjoint_packed, pmap)
    ss = policy.initial_state(problem)
    rows: list[TraceRow] = []
    status = "iteration_cap"

    for k in range(config.max_iters):
        tic = time.perf_counter()
        try:
            alpha_x = ss.alpha
            # X - alpha (A^T(y) + C), where A^T(y) + C is zero off the support
            x_new = x_cur.copy()
            x_new[support] -= alpha_x * (aty + c)
            proj_psd_packed(x_new, layout.runs)
            ax_new = forward_packed(pmap, x_new)
            it = IterateState(x_cur, y, ax, aty, support, k, packed_adjoint)
            dual = policy.dual_update(problem, it, x_new, ax_new, ss)
            if dual is None:
                ss.move_to(policy.adjust_mid(problem, it, x_new, ss))
                theta = ss.theta
                y_new = y + ss.beta * ((1.0 + theta) * ax_new - theta * ax - b)
                aty_new = adjoint_packed(pmap, y_new)
            else:
                y_new, aty_new = dual

            report, p_mat = _residual_report(x_cur - x_new, y - y_new, aty - aty_new,
                                             ax - ax_new, alpha_x, ss.beta, support)
            objective = float(c.dot(x_new[support]))
            wall_ms = (time.perf_counter() - tic) * 1e3
            rows.append(TraceRow(k, report.p_norm, report.d_norm, report.combined,
                                 objective, ss.alpha, ss.beta, ss.theta, wall_ms))

            converged = report.combined < config.tol  # stop_check, on a validated tol
            if not converged:
                ss.move_to(policy.adjust_post(problem, it, x_new, p_mat, report, ss))
        except Exception as exc:  # surface any failure with the partial trace
            trace = RunTrace(rows, "error", SymMat(layout.unpack(x_cur)), y.copy(),
                             flags=dict(ss.counts))
            raise SolveError(str(exc), trace) from exc

        x_cur, y, ax, aty = x_new, y_new, ax_new, aty_new
        if config.callback is not None:
            config.callback(k, layout.unpack(x_new), y_new.copy())
        if converged:
            status = "converged"
            break

    return RunTrace(rows, status, SymMat(layout.unpack(x_cur)), y.copy(),
                    flags=dict(ss.counts))


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
