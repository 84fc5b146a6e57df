"""Derivative-free minimization with evaluation accounting, and per-graph multi-start search.

COBYLA (via scipy) does the local search. The wrapper counts every objective
execution, enforces the evaluation budget exactly, and always returns the best
point visited rather than trusting the optimizer's final iterate.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .engine import ParameterVector, objective, approximation_ratio
from .graphs import WeightedGraph, graph_id
from .maxcut import cost_diagonal
from .records import RunRecord, METHOD_STANDARD


class NonFiniteObjectiveError(ValueError):
    """The objective returned NaN or infinity at the starting point."""


@dataclass(frozen=True)
class OptimizerConfig:
    initial_step: float = 0.5
    final_step: float = 1e-4
    max_evals: int = 1000

    def __post_init__(self):
        if not (0.0 < self.final_step < self.initial_step):
            raise ValueError(
                f"need 0 < final_step < initial_step, got {self.final_step} / {self.initial_step}"
            )
        if self.max_evals < 1:
            raise ValueError(f"max_evals must be at least 1, got {self.max_evals}")


@dataclass(frozen=True)
class TQAConfig:
    """Grid of Trotterized-annealing time steps used to seed the optimizer."""

    dt_grid: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9)

    def __post_init__(self):
        if len(self.dt_grid) == 0:
            raise ValueError("dt_grid must not be empty")
        if any(dt <= 0 for dt in self.dt_grid):
            raise ValueError(f"dt_grid entries must be positive, got {self.dt_grid}")


@dataclass(frozen=True)
class OptResult:
    best_params: tuple[float, ...]
    best_value: float
    evals: int
    converged: bool


class _BudgetExhausted(Exception):
    pass


def tqa_init(p: int, dt: float) -> ParameterVector:
    """Linear annealing schedule: gamma_i = (i/p) dt, beta_i = (1 - i/p) dt, i = 1..p."""
    if p < 1:
        raise ValueError(f"p must be at least 1, got {p}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    gamma = tuple(dt * i / p for i in range(1, p + 1))
    beta = tuple(dt * (1.0 - i / p) for i in range(1, p + 1))
    return ParameterVector(gamma, beta)


def minimize(f, x0, cfg: OptimizerConfig = OptimizerConfig()) -> OptResult:
    """COBYLA from x0, budgeted to cfg.max_evals objective executions.

    Returns the best point actually visited. converged is False exactly when
    the run stopped because the budget ran out.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 1 or x0.size < 1:
        raise ValueError(f"x0 must be a nonempty 1-d vector, got shape {x0.shape}")

    evals = 0
    best_x = None
    best_val = math.inf

    def wrapped(x):
        nonlocal evals, best_x, best_val
        if evals >= cfg.max_evals:
            raise _BudgetExhausted
        val = float(f(x))
        evals += 1
        if evals == 1 and not math.isfinite(val):
            raise NonFiniteObjectiveError(f"objective is {val} at the starting point {x0}")
        if val < best_val:
            best_val = val
            best_x = np.array(x, dtype=np.float64, copy=True)
        return val

    try:
        scipy.optimize.minimize(
            wrapped,
            x0,
            method="COBYLA",
            options={"rhobeg": cfg.initial_step, "tol": cfg.final_step, "maxiter": cfg.max_evals},
        )
    except _BudgetExhausted:
        pass

    return OptResult(
        best_params=tuple(float(v) for v in best_x),
        best_value=best_val,
        evals=evals,
        converged=evals < cfg.max_evals,
    )


def optimize_graph(
    wg: WeightedGraph,
    gid: str,
    method: str,
    starts: Iterable,
    angles: Callable[[np.ndarray], ParameterVector],
    cfg: OptimizerConfig,
) -> RunRecord:
    """Minimize objective(diag, angles(x)) on one graph from each start in turn.

    The start with the greatest approximation ratio wins; the earliest start
    wins a tie. The record charges only the winner's evaluations and stores
    its full 2p angles.
    """
    diag = cost_diagonal(wg)
    cmin = float(diag.min())

    def f(x):
        return objective(diag, angles(x))

    best_ratio = -math.inf
    best_res = None
    for x0 in starts:
        res = minimize(f, x0, cfg)
        ratio = approximation_ratio(res.best_value, cmin)
        if ratio > best_ratio:
            best_ratio = ratio
            best_res = res
    theta = angles(np.array(best_res.best_params))
    return RunRecord(
        graph_id=gid,
        method=method,
        layers=theta.p,
        param_count=len(best_res.best_params),
        evals=best_res.evals,
        approx_ratio=best_ratio,
        best_params=tuple(float(v) for v in theta.as_array()),
    )


def train_graph(
    wg: WeightedGraph,
    p: int,
    tqa: TQAConfig = TQAConfig(),
    cfg: OptimizerConfig = OptimizerConfig(),
) -> RunRecord:
    """Optimize one graph at depth p from every annealing seed in the grid.

    Seeds run in ascending time step, so ties go to the smaller step.
    """
    starts = (tqa_init(p, dt).as_array() for dt in sorted(tqa.dt_grid))
    return optimize_graph(wg, graph_id(wg.graph), METHOD_STANDARD, starts, ParameterVector.from_array, cfg)
