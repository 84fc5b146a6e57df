"""Per-evaluation and per-key cost of two source trees, measured in one process with their calls interleaved.

    python tools/per_eval_cost.py --base /path/to/other/checkout/src --reps 30

Each tree's `qaoa_pca` package is loaded under a module name of its own, so
both run side by side on the same numpy. Three costs are measured:

- COBYLA + `optimizer.minimize`, in µs per evaluation. The objective values
  at the starts of the benchmark's train-p2 workload (the graphs
  `BUILDERS["train-p2"]` in perfbench/workloads.py builds, p = 2, one start
  per TQA step) are recorded once with this checkout's package; each tree's `minimize` then runs against a replay of those
  values, so the time is the optimizer's own. Before timing, both trees must
  call f at the recorded points and return the same `OptResult` on every
  start, or the script stops.
- `engine.objective`, in µs per call, for n = 4..8 and p = 1, 2, 4, 8, on a
  weighted cycle with chords. Before timing, both trees must give the same
  `objective` value and the same `evolve` statevector (`np.array_equal`) at
  every (n, p), or the script stops.
- `graphs.canonical_key`, in µs per call, for n = 6, 7 and 8 over
  `KEY_GRAPHS` seeded random graphs each. Before timing, both trees must give
  the same key to every timed graph, or the script stops. The one-off cost of
  building a relabeling table is not timed here: perfbench's `setup_s` and
  `peak_rss_mb` carry it end to end.

The head tree is this checkout's `src`; `--base` names the other. Round r
times the base tree first when r is even and the head tree first when it is
odd. Each tree's median and interquartile range over the rounds (0 for one
round) go to stderr as a table; the last stdout line is one JSON object with
them, the rounds the head tree read lower in (every cell is better lower),
nproc and the Python and numpy versions. A cell whose medians differ by less
than their ranges is within the host's noise.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import json
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # perfbench/ is only read: no __pycache__ there
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]  # the workload builders import qaoa_pca
from workloads import BUILDERS, GEN_SEED, nproc  # noqa: E402  (imports no qaoa_pca at module level)

TRAIN_P = 2  # build_train_p2's depth
OBJECTIVE_CALLS = 200  # objective calls per (n, p), tree and round
OBJECTIVE_N = (4, 5, 6, 7, 8)
OBJECTIVE_P = (1, 2, 4, 8)
KEY_N = (6, 7, 8)
KEY_GRAPHS = 10  # seeded random graphs per n
KEY_CALLS = 20  # canonical_key calls per graph, tree and round
clock = time.perf_counter


def load_tree(src: Path, name: str) -> dict:
    """The modules of the qaoa_pca package under src, imported as package `name`."""
    init = src / "qaoa_pca" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"{src}: no qaoa_pca package")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    mods = ("engine", "graphs", "maxcut", "optimizer")
    return {m: importlib.import_module(f"{name}.{m}") for m in mods}


def train_p2_starts(tree: dict) -> list[tuple]:
    """(objective, x0) for every TQA start of the train-p2 graphs."""
    engine, optimizer = tree["engine"], tree["optimizer"]
    out = []
    for wg in BUILDERS["train-p2"]().graphs:  # the tree's cost_diagonal reads only .graph.n and .weights
        diag = tree["maxcut"].cost_diagonal(wg)

        def f(x, diag=diag):
            return engine.objective(diag, engine.ParameterVector.from_array(x))

        out.extend((f, optimizer.tqa_init(TRAIN_P, dt)) for dt in optimizer.TQA_STEPS)
    return out


def record(tree: dict, starts: list[tuple]) -> list[tuple]:
    """(x0, points, values, result) of each start, run by the tree's minimize."""
    runs = []
    for f, x0 in starts:
        points, values = [], []

        def recorded(x, f=f, points=points, values=values):
            points.append(x.copy())
            values.append(f(x))
            return values[-1]

        res = tree["optimizer"].minimize(recorded, x0)
        runs.append((x0, points, values, dataclasses.astuple(res)))
    return runs


def check_replay(tree: dict, label: str, runs: list[tuple]) -> None:
    """The tree calls f at every recorded point in order and returns the recorded result."""
    for i, (x0, points, values, result) in enumerate(runs):
        calls = iter(zip(points, values))

        def checked(x):
            want, val = next(calls)
            if not np.array_equal(x, want):
                raise SystemExit(f"{label}: start {i} evaluates {x}, expected {want}")
            return val

        got = dataclasses.astuple(tree["optimizer"].minimize(checked, x0))
        if got != result:
            raise SystemExit(f"{label}: start {i} returns {got}, expected {result}")


def time_minimize(tree: dict, runs: list[tuple]) -> float:
    """µs per evaluation of the tree's minimize over a replay of every run."""
    minimize = tree["optimizer"].minimize
    evals = 0
    t0 = clock()
    for x0, _, values, _ in runs:
        replay = iter(values).__next__
        evals += minimize(lambda x: replay(), x0).evals
    return (clock() - t0) / evals * 1e6


def objective_cases(tree: dict) -> dict:
    """(n, p) -> (diag, ParameterVector) for every timed case."""
    graphs, engine = tree["graphs"], tree["engine"]
    rng = np.random.default_rng(GEN_SEED)
    cases = {}
    for n in OBJECTIVE_N:
        edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)] + [(i, i + 2) for i in range(0, n - 2, 2)]
        wg = graphs.assign_random_weights(graphs.Graph(n, edges), GEN_SEED)
        diag = tree["maxcut"].cost_diagonal(wg)
        for p in OBJECTIVE_P:
            cases[n, p] = (diag, engine.ParameterVector.from_array(rng.uniform(-np.pi, np.pi, 2 * p)))
    return cases


def check_engines(trees: dict, cases: dict) -> None:
    """Both trees' objective values and statevectors agree at every timed (n, p)."""
    for n, p in cases["head"]:
        got = {label: tree["engine"].objective(*cases[label][n, p]) for label, tree in trees.items()}
        if got["base"] != got["head"]:
            raise SystemExit(f"n={n}, p={p}: objective gives {got['base']!r} on base, {got['head']!r} on head")
        states = [tree["engine"].evolve(*cases[label][n, p]) for label, tree in trees.items()]
        if not np.array_equal(*states):
            raise SystemExit(f"n={n}, p={p}: evolve gives other amplitudes on base than on head")


def time_objective(tree: dict, diag, theta) -> float:
    objective = tree["engine"].objective
    t0 = clock()
    for _ in range(OBJECTIVE_CALLS):
        objective(diag, theta)
    return (clock() - t0) / OBJECTIVE_CALLS * 1e6


def key_cases(tree: dict) -> dict:
    """n -> the seeded random n-vertex graphs whose keys are timed."""
    graphs = tree["graphs"]
    rng = np.random.default_rng(GEN_SEED)
    return {
        n: [graphs.graph_from_mask(n, int(m)) for m in rng.integers(0, 1 << (n * (n - 1) // 2), KEY_GRAPHS)]
        for n in KEY_N
    }


def check_keys(trees: dict, cases: dict) -> None:
    """Both trees give every timed graph the same canonical key."""
    for n in KEY_N:
        for i in range(KEY_GRAPHS):
            got = {label: tree["graphs"].canonical_key(cases[label][n][i]).bits for label, tree in trees.items()}
            if got["base"] != got["head"]:
                raise SystemExit(f"n={n}: canonical_key gives {got['base']:#x} on base, {got['head']:#x} on head")


def time_keys(tree: dict, graphs: list) -> float:
    canonical_key = tree["graphs"].canonical_key
    t0 = clock()
    for g in graphs:
        for _ in range(KEY_CALLS):
            canonical_key(g)
    return (clock() - t0) / (len(graphs) * KEY_CALLS) * 1e6


def iqr(xs: list[float]) -> float:
    """Distance between the first and third quartiles of xs; 0 for a single sample."""
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q3 - q1


def compare(samples: dict) -> dict:
    """Medians and interquartile ranges of both trees' samples, and the rounds in which head was faster."""
    base, head = samples["base"], samples["head"]
    return {
        "base": round(statistics.median(base), 2),
        "head": round(statistics.median(head), 2),
        "base_iqr": round(iqr(base), 2),
        "head_iqr": round(iqr(head), 2),
        "head_faster_rounds": sum(h < b for b, h in zip(base, head)),
    }


def cell(c: dict, digits: int) -> str:
    """'base [base IQR] -> head [head IQR]' with the given decimals."""
    base, head = (f"{c[t]:.{digits}f} [{c[t + '_iqr']:.{digits}f}]" for t in ("base", "head"))
    return f"{base} -> {head}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, default=ROOT / "src", help="src directory of the tree to compare against")
    ap.add_argument("--reps", type=int, default=30, help="interleaved rounds")
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be at least 1")

    head = ROOT / "src"
    trees = {"base": load_tree(args.base.resolve(), "qaoa_pca_base"), "head": load_tree(head, "qaoa_pca_head")}
    runs = record(trees["head"], train_p2_starts(trees["head"]))
    for label, tree in trees.items():
        check_replay(tree, label, runs)
    cases = {label: objective_cases(tree) for label, tree in trees.items()}
    check_engines(trees, cases)
    keys = {label: key_cases(tree) for label, tree in trees.items()}
    check_keys(trees, keys)

    minimize_us = {"base": [], "head": []}
    objective_us = {case: {"base": [], "head": []} for case in cases["head"]}
    key_us = {n: {"base": [], "head": []} for n in KEY_N}
    for r in range(args.reps):
        order = ("base", "head") if r % 2 == 0 else ("head", "base")
        for label in order:
            minimize_us[label].append(time_minimize(trees[label], runs))
        for case in objective_us:
            for label in order:
                diag, theta = cases[label][case]
                objective_us[case][label].append(time_objective(trees[label], diag, theta))
        for n in KEY_N:
            for label in order:
                key_us[n][label].append(time_keys(trees[label], keys[label][n]))

    result = {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "base": str(args.base),
        "head": str(head),
        "reps": args.reps,
        "evals_per_rep": sum(len(values) for _, _, values, _ in runs),
        "minimize_us_per_eval": compare(minimize_us),
        "objective_us_per_call": {f"n={n},p={p}": compare(s) for (n, p), s in objective_us.items()},
        "canonical_key_us_per_call": {f"n={n}": compare(s) for n, s in key_us.items()},
    }
    print(f"COBYLA + minimize, µs per evaluation, median [IQR]: {cell(result['minimize_us_per_eval'], 1)}",
          file=sys.stderr)
    print("objective, µs per call, median [IQR] (base -> head):", file=sys.stderr)
    print("n \\ p | " + " | ".join(map(str, OBJECTIVE_P)), file=sys.stderr)
    for n in OBJECTIVE_N:
        cells = [result["objective_us_per_call"][f"n={n},p={p}"] for p in OBJECTIVE_P]
        print(f"{n} | " + " | ".join(cell(c, 0) for c in cells), file=sys.stderr)
    keys_us = result["canonical_key_us_per_call"]
    print("canonical_key, µs per call, median [IQR] (base -> head): "
          + "; ".join(f"{n}: {cell(c, 1)}" for n, c in keys_us.items()), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
