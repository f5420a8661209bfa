"""Adaptive primal-dual hybrid gradient solver for semidefinite programming.

Library surface: symmetric-matrix linear algebra, PSD projections, the
constraint-map operators with their lifting, three instance generators with
SDPA sparse I/O, the PDHG engine with five stepsize policies, and a
Douglas-Rachford oracle that cross-checks the engine trajectory.
"""

from .linalg import SymMat
from .operators import (
    ConstraintMap,
    LiftedOperator,
    apply_A,
    apply_At,
    build_T,
    gram,
    lambda_max_AAt,
)
from .projections import approx_proj_psd, proj_psd
from .problems import (
    SdpaFormatError,
    SdpProblem,
    SnlGroundTruth,
    gen_maxcut,
    gen_random,
    gen_snl,
    read_instance,
    write_instance,
)
from .solver import (
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
    make_policy,
    residuals,
    solve,
    stop_check,
)
from .drs import (
    EquivalenceReport,
    LiftedState,
    check_equivalence,
    constant_schedule,
    drs_step,
    geometric_schedule,
    resolvent_f,
    resolvent_g,
)

__all__ = [
    "BalancedResidualPolicy",
    "ConstraintMap",
    "EquivalenceReport",
    "FixedPolicy",
    "GradientAlignmentPolicy",
    "IterateState",
    "LiftedOperator",
    "LiftedState",
    "LinesearchPolicy",
    "LinesearchStalled",
    "ResidualReport",
    "RunTrace",
    "SchedulePolicy",
    "SdpProblem",
    "SdpaFormatError",
    "SnlGroundTruth",
    "SolveConfig",
    "SolveError",
    "StepsizePolicy",
    "StepsizeState",
    "SymMat",
    "TraceRow",
    "TuningFreePolicy",
    "approx_proj_psd",
    "apply_A",
    "apply_At",
    "build_T",
    "check_equivalence",
    "constant_schedule",
    "drs_step",
    "gen_maxcut",
    "gen_random",
    "gen_snl",
    "geometric_schedule",
    "gram",
    "lambda_max_AAt",
    "make_policy",
    "proj_psd",
    "read_instance",
    "resolvent_f",
    "resolvent_g",
    "residuals",
    "solve",
    "stop_check",
    "write_instance",
]
