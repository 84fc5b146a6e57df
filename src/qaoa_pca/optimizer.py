"""Derivative-free minimization with evaluation accounting, and per-graph multi-start search.

The local search is the package's own COBYLA (`cobyla.cobyla`), a generator
that yields each point it needs evaluated. `minimize` drives it: it counts
every objective execution, enforces the evaluation budget exactly, and always
returns the best point visited rather than trusting the optimizer's final
iterate.

`TQA_STEPS` fixes what no run varies: the Trotterized-annealing time steps
that seed each standard run, in ascending order. COBYLA's first and last
trust-region radius are constants of `cobyla.py`.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from .cobyla import cobyla
from .engine import ParameterVector, objective, approximation_ratio
from .graphs import WeightedGraph
from .maxcut import cost_diagonal
from .records import RunRecord, METHOD_STANDARD

TQA_STEPS = (0.1, 0.3, 0.5, 0.7, 0.9)


@dataclass(frozen=True)
class OptimizerConfig:
    max_evals: int = 1000

    def __post_init__(self):
        if self.max_evals < 1:
            raise ValueError(f"max_evals must be at least 1, got {self.max_evals}")


@dataclass(frozen=True)
class OptResult:
    best_params: tuple[float, ...]
    best_value: float
    evals: int
    converged: bool


def tqa_init(p: int, dt: float) -> np.ndarray:
    """Linear annealing schedule as 2p float64 angles: gamma_i = (i/p) dt, beta_i = (1 - i/p) dt, i = 1..p."""
    gamma = [dt * i / p for i in range(1, p + 1)]
    beta = [dt * (1.0 - i / p) for i in range(1, p + 1)]
    return np.array(gamma + beta, dtype=np.float64)


def minimize(f, x0, cfg: OptimizerConfig = OptimizerConfig()) -> OptResult:
    """COBYLA from x0, budgeted to cfg.max_evals objective executions.

    Returns the best point actually visited. converged is False exactly when
    the run stopped because the budget ran out. f must not change its argument.
    """
    evals = 0
    best_x = None
    best_val = math.inf
    search = cobyla(x0, cfg.max_evals)
    x = next(search)  # x0 as float64, or ValueError for a malformed x0
    while evals < cfg.max_evals:
        val = float(f(x))
        evals += 1
        if evals == 1 and not math.isfinite(val):
            raise ValueError(f"objective is {val} at the starting point {x0}")
        if val < best_val:
            best_val = val
            best_x = x
        try:
            x = search.send(val)
        except StopIteration:
            break

    return OptResult(
        best_params=tuple(best_x.tolist()),
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
        best_params=tuple(theta.as_array().tolist()),
    )


def train_graph(wg: WeightedGraph, gid: str, p: int, cfg: OptimizerConfig = OptimizerConfig()) -> RunRecord:
    """Optimize graph `gid` at depth p from the annealing seed of every step in TQA_STEPS.

    Seeds run in ascending time step, so ties go to the smaller step.
    """
    starts = (tqa_init(p, dt) for dt in TQA_STEPS)
    return optimize_graph(wg, gid, METHOD_STANDARD, starts, ParameterVector.from_array, cfg)
