"""Benchmark protocol: seed sweeps per problem family, solved-within-budget
tables, and the eta grid search for the balancing policies."""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Callable, Mapping

from .problems import SdpProblem, gen_maxcut, gen_random, gen_snl
from .solver import (
    DEFAULT_TOL,
    POLICY_NAMES,
    RunTrace,
    SolveConfig,
    SolveError,
    StepsizePolicy,
    _require_positive,
    make_policy,
    solve,
)

_GENERATORS = {"rg": gen_random, "mc": gen_maxcut, "snl": gen_snl}
FAMILIES = tuple(_GENERATORS)

DEFAULT_BUDGETS: dict[str, tuple[int, ...]] = {
    "rg": (5000, 10000, 25000),
    "mc": (2500, 5000, 10000),
    "snl": (7500, 15000, 30000),
}

DEFAULT_LS_GRID = (0.1, 0.2, 1.0, 10.0)

ETA_GRID = (0.9, 0.925, 0.95, 0.975, 0.99)

# 33/34/33 family split used by the eta grid search
GRID_SEARCH_SPLIT = {"rg": 33, "mc": 34, "snl": 33}


def make_problem(family: str, seed: int, sizes: Mapping[str, dict] | None = None) -> SdpProblem:
    """Generate one instance; ``sizes`` optionally overrides generator kwargs
    per family."""
    if family not in _GENERATORS:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    problem = _GENERATORS[family](seed, **(sizes or {}).get(family, {}))
    return problem[0] if family == "snl" else problem  # drop snl's ground truth


def _fits(value, default) -> bool:
    """Whether ``value`` has the type of a generator parameter's default; an
    int stands for a float, and only a bool stands for a bool."""
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    return isinstance(value, (int, float) if isinstance(default, float) else type(default))


@dataclass(frozen=True)
class BenchConfig:
    families: tuple[str, ...] = FAMILIES
    seeds: int = 100
    budgets: Mapping[str, tuple[int, ...]] = field(
        default_factory=lambda: dict(DEFAULT_BUDGETS)
    )
    policies: tuple[str, ...] = POLICY_NAMES
    ls_s_grid: tuple[float, ...] = DEFAULT_LS_GRID
    tol: float = DEFAULT_TOL
    sizes: Mapping[str, dict] = field(default_factory=dict)
    policy_params: Mapping[str, dict] = field(default_factory=dict)

    def __post_init__(self):
        # a config may come from a JSON file, so check the types used below;
        # `type(v) is int` turns away JSON's true, which Python counts as an int
        if type(self.seeds) is not int or self.seeds < 1:
            raise ValueError(f"seeds must be an integer >= 1, got {self.seeds!r}")
        _require_positive("tol", self.tol)
        for key in ("budgets", "sizes", "policy_params"):
            if not isinstance(getattr(self, key), Mapping):
                raise ValueError(f"{key} must be a mapping, got {getattr(self, key)!r}")
        for family in self.families:
            if family not in FAMILIES:
                raise ValueError(f"unknown family {family!r}")
            budgets = self.budgets.get(family)
            if not budgets:
                raise ValueError(f"no budgets given for family {family!r}")
            if not all(type(b) is int and b >= 1 for b in budgets):
                raise ValueError(
                    f"budgets for {family} must be integers >= 1, got {budgets}"
                )
            if any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
                raise ValueError(
                    f"budgets for {family} must be strictly increasing, got {budgets}"
                )
        for family, kwargs in self.sizes.items():
            if family not in FAMILIES:
                raise ValueError(f"sizes name unknown family {family!r}")
            if not isinstance(kwargs, Mapping):
                raise ValueError(f"sizes for {family} must be a mapping, got {kwargs!r}")
            signature = inspect.signature(_GENERATORS[family])
            try:
                signature.bind(0, **kwargs)
            except TypeError as exc:
                raise ValueError(f"sizes for {family}: {exc}") from None
            for key, value in kwargs.items():
                default = signature.parameters[key].default
                if not _fits(value, default):
                    raise ValueError(f"sizes for {family}: {key} must be of type "
                                     f"{type(default).__name__}, got {value!r}")
        names = dict.fromkeys((*self.policies, *self.policy_params))
        for name in names:
            if name not in POLICY_NAMES:
                raise ValueError(f"unknown policy {name!r}")
        if "s" in self.policy_params.get("ls", {}):
            raise ValueError("ls takes its s from ls_s_grid, not from policy_params")
        # make_policy rejects a bad parameter before any solve, also one given
        # for a policy this sweep does not run
        for name in names:
            for _, factory in self._factories(name):
                factory()

    @classmethod
    def from_dict(cls, data: Mapping) -> "BenchConfig":
        """Build from JSON-style data, whose lists stand for tuples (run_bench
        takes each family's budgets as a tuple itself). A key that names no
        field, or a value of a type its field cannot take, is a ValueError."""
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown bench config keys {unknown}")
        kwargs = {key: tuple(v) if isinstance(v, list) else v for key, v in data.items()}
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ValueError(f"malformed bench config: {exc}") from None

    def policy_factories(self) -> list[tuple[str, Callable[[], StepsizePolicy]]]:
        """Expand the policy list; the linesearch entry fans out over its
        s-grid with labels like "ls_s0.2"."""
        return [entry for name in self.policies for entry in self._factories(name)]

    def _factories(self, name: str) -> list[tuple[str, Callable[[], StepsizePolicy]]]:
        kwargs = self.policy_params.get(name, {})
        if name == "ls":
            return [(f"ls_s{s:g}", partial(make_policy, name, s=s, **kwargs))
                    for s in self.ls_s_grid]
        return [(name, partial(make_policy, name, **kwargs))]


@dataclass(frozen=True)
class RunRecord:
    family: str
    policy: str
    seed: int
    converged: bool
    iterations: int
    error: str | None = None


@dataclass
class BenchResult:
    """solved_fraction per (family, policy, budget), plus per-run records."""

    fractions: dict[tuple[str, str, int], float]
    records: list[RunRecord]

    def fraction(self, family: str, policy: str, budget: int) -> float:
        return self.fractions[(family, policy, budget)]

    def table_csv(self) -> str:
        lines = ["family,policy,budget,solved_fraction"]
        for (family, policy, budget) in sorted(self.fractions):
            lines.append(
                f"{family},{policy},{budget},{self.fractions[(family, policy, budget)]!r}"
            )
        return "\n".join(lines) + "\n"


def run_bench(
    config: BenchConfig,
    trace_dir: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
) -> BenchResult:
    """Sweep (family, policy, seed), one instance per seed, solving once under
    the family's largest budget; solved-within flags for the smaller budgets
    come from the iteration count in the trace. Run errors are recorded
    per-cell and do not abort the sweep.
    """
    if trace_dir is not None:
        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)

    factories = config.policy_factories()
    fractions: dict[tuple[str, str, int], float] = {}
    records: list[RunRecord] = []

    for family in config.families:
        budgets = tuple(config.budgets[family])
        solved_counts = {(label, b): 0 for label, _ in factories for b in budgets}
        for seed in range(1, config.seeds + 1):
            problem = make_problem(family, seed, config.sizes)
            for label, factory in factories:
                trace, err = _run_one(problem, factory(), budgets[-1], config)
                converged = trace.status == "converged"
                iters = trace.iterations
                records.append(RunRecord(family, label, seed, converged, iters, err))
                for budget in budgets:
                    if converged and iters <= budget:
                        solved_counts[(label, budget)] += 1
                if trace_dir is not None:
                    trace.write_csv(trace_dir / f"{family}_{label}_{seed}.csv")
                if progress is not None:
                    progress(f"{family} {label} seed={seed}: {trace.status} in {iters}")
        for label, _ in factories:
            for budget in budgets:
                fractions[(family, label, budget)] = (
                    solved_counts[(label, budget)] / config.seeds
                )
    return BenchResult(fractions=fractions, records=records)


def _run_one(problem, policy, max_iters, config) -> tuple[RunTrace, str | None]:
    cfg = SolveConfig(max_iters=max_iters, tol=config.tol)
    try:
        return solve(problem, policy, cfg), None
    except SolveError as exc:
        return exc.trace, str(exc)


@dataclass(frozen=True)
class GridSearchResult:
    # (policy, eta) -> fraction of instances where this eta was fastest
    fastest_fraction: dict[tuple[str, float], float]

    def table_csv(self) -> str:
        lines = ["policy,eta,fastest_fraction"]
        for (policy, eta) in sorted(self.fastest_fraction):
            lines.append(f"{policy},{eta!r},{self.fastest_fraction[(policy, eta)]!r}")
        return "\n".join(lines) + "\n"


def grid_search_eta(
    etas: tuple[float, ...] = ETA_GRID,
    sizes: Mapping[str, dict] | None = None,
    budgets: Mapping[str, int] | None = None,
    tol: float = DEFAULT_TOL,
    progress: Callable[[str], None] | None = None,
) -> GridSearchResult:
    """For each eta in the grid, run the two balancing policies over the
    ``GRID_SEARCH_SPLIT`` instance pool and report, per policy, the fraction of
    instances on which that eta converged fastest (ties count for every tied
    eta; instances where no eta converges count for none)."""
    split = GRID_SEARCH_SPLIT
    budgets = dict(budgets or {f: DEFAULT_BUDGETS[f][1] for f in split})
    names = ("bpdr", "alv")

    # (policy, family, seed) -> iterations to tolerance per eta
    iters_to_tol: dict[tuple[str, str, int], dict[float, float]] = {}
    for eta in etas:
        for family, seeds in split.items():
            config = BenchConfig(
                families=(family,), seeds=seeds, budgets={family: (budgets[family],)},
                policies=names, tol=tol, sizes=sizes or {},
                policy_params={name: {"eta": eta} for name in names},
            )
            tagged = None if progress is None else (
                lambda msg, eta=eta: progress(f"eta={eta} {msg}"))
            for rec in run_bench(config, progress=tagged).records:
                iters_to_tol.setdefault((rec.policy, family, rec.seed), {})[eta] = (
                    rec.iterations if rec.converged else math.inf
                )

    wins = {(name, eta): 0 for name in names for eta in etas}
    for (name, _, _), per_eta in iters_to_tol.items():
        best = min(per_eta.values())
        if math.isinf(best):
            continue
        for eta, iters in per_eta.items():
            if iters == best:
                wins[(name, eta)] += 1
    n_instances = sum(split.values())
    fractions = {key: count / n_instances for key, count in wins.items()}
    return GridSearchResult(fastest_fraction=fractions)
