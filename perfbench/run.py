"""Benchmark of the qaoa-pca pipeline: end-to-end metrics, or per-layer ones with --trace 1.

    python3 perfbench/run.py --workload train-p2 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from ./src.
The last stdout line is one JSON object {correct, attempted, failed, metrics};
the line before it holds the stamp (machine, versions, commit) and details.
Metric names, units and directions come from BENCHMARK.json. See
perfbench/README.md for what each workload and metric means.
"""

import os

# one BLAS/OpenMP thread per process, so workers x threads <= nproc; set before numpy loads
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference"
WORKLOADS = ("train-p2", "eval-pca-p8", "cli-pipeline")
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3

clock = time.perf_counter


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0, help="orders the work; inputs are fixed per workload")
    ap.add_argument("--seconds", type=float, default=30.0, help="measure for about this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument(
        "--write-reference",
        action="store_true",
        help="store this run's records as the workload's reference (benchmark-defining changes only)",
    )
    return ap.parse_args(argv)


def median_wall(argv: list[str], samples: int) -> float:
    """Median wall time of a fresh interpreter running argv."""
    from workloads import child_env

    walls = []
    for _ in range(samples):
        t0 = clock()
        subprocess.run(argv, cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL, timeout=120)
        walls.append(clock() - t0)
    return statistics.median(walls)


def import_s() -> float:
    """Median seconds a fresh interpreter spends importing qaoa_pca.cli."""
    from workloads import child_env

    code = "import time; t = time.perf_counter(); import qaoa_pca.cli; print(time.perf_counter() - t)"
    vals = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True,
            capture_output=True, text=True, timeout=120,
        )
        vals.append(float(out.stdout.strip()))
    return statistics.median(vals)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its finished descendants."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def stamp(args) -> dict:
    import numpy
    import scipy

    pyprima = importlib.util.find_spec("scipy._lib.pyprima") is not None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qaoa_pca").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    from workloads import GEN_SEED, nproc

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "generator_seed": GEN_SEED,
        "nproc": nproc(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cobyla": "scipy PyPRIMA (pure-Python port)" if pyprima else "scipy Fortran COBYLA",
        "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def end_to_end(out, setup_s: float, reference) -> dict[str, float]:
    from checks import reference_match_frac

    evals = [r["evals"] for r in out.records]
    ratios = [r["approx_ratio"] for r in out.records]
    checks = out.checks
    return {
        "setup_s": setup_s,
        "wall_s": statistics.fmean(out.wall_s),
        "graphs_per_s": out.graphs_done / out.busy_s,
        "graph_s_p50": statistics.median(statistics.fmean(v) for v in out.graph_s.values()),
        "resume_s": min(out.resume_s),
        "evals_median": float(statistics.median(evals)),
        "approx_ratio_median": statistics.median(ratios),
        "reference_match_frac": reference_match_frac(out.records, reference),
        "checks_passed_frac": 1.0 - checks.failed / max(checks.attempted, 1),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(tracer, out, wall: float, span_cost: float, cli_import_s: float) -> dict[str, float]:
    s = tracer.summary()
    counts = tracer.counts

    def get(name, key):
        return s[name][key] if name in s else 0.0

    objective_calls = get("engine.objective", "calls")
    objective_self = get("engine.objective", "self_s")
    minimize_calls = get("optimizer.minimize", "calls")
    minimize_self = get("optimizer.minimize", "self_s")
    evals_total = counts["minimize_evals"]
    winning = sum(r["evals"] for r in out.records)
    returned = 2 * len(out.records)  # the traced pass, then its resumed call or chain
    computed = get("pipeline.checkpoint.add", "calls")
    attempts = tracer.count_under("graphs.is_connected", "graphs.sample")
    cli_s = out.extra.get("cli_s", {})
    overhead = len(tracer.spans) * span_cost / wall
    pool = out.extra.get("pool")
    if pool:
        # serial seconds of the optimizing calls (traced, less the tracing cost) over workers x wall
        serial = sum(t for sub, t in out.extra["first_calls"] if sub in ("train", "evaluate"))
        pool_efficiency = serial * (1 - overhead) / (pool["workers"] * (pool["train"] + pool["evaluate"]))
    else:
        pool_efficiency = 1.0  # one worker, no pool
    return {
        "engine.objective.calls": objective_calls,
        "engine.objective.self_s": objective_self,
        "engine.objective.us_per_call": 1e6 * objective_self / max(objective_calls, 1),
        "engine.objective.share": objective_self / wall,
        "engine.amp_updates_computed": counts["amp_updates"],
        "engine.param_vector.calls": get("engine.param_vector", "calls"),
        "engine.param_vector.self_s": get("engine.param_vector", "self_s"),
        "pca.expand.calls": get("pca.expand", "calls"),
        "pca.expand.self_s": get("pca.expand", "self_s"),
        "pca.coeff_vector.calls": get("pca.coeff_vector", "calls"),
        "pca.coeff_vector.self_s": get("pca.coeff_vector", "self_s"),
        "pca.fit.s": get("pca.fit", "total_s"),
        "pca.sample_coefficients.self_s": get("pca.sample_coefficients", "self_s"),
        "optimizer.minimize.calls": minimize_calls,
        "optimizer.minimize.self_s": minimize_self,
        "optimizer.minimize.overhead_us_per_eval": 1e6 * minimize_self / max(evals_total, 1),
        "optimizer.minimize.share": minimize_self / wall,
        "optimizer.minimize.evals_total": evals_total,
        "optimizer.useful_eval_frac": winning / max(evals_total, 1),
        "optimizer.budget_hit_frac": counts["minimize_budget_hit"] / max(minimize_calls, 1),
        "maxcut.cost_diagonal.calls": get("maxcut.cost_diagonal", "calls"),
        "maxcut.cost_diagonal.self_s": get("maxcut.cost_diagonal", "self_s"),
        "maxcut.brute_force_cmin.self_s": get("maxcut.brute_force_cmin", "self_s"),
        "graphs.enumerate.s": get("graphs.enumerate", "total_s"),
        "graphs.sample.s": get("graphs.sample", "total_s"),
        "graphs.canonical_key.calls": get("graphs.canonical_key", "calls"),
        "graphs.canonical_key.self_s": get("graphs.canonical_key", "self_s"),
        "graphs.sample.accept_frac": counts["sampled"] / attempts if attempts else 0.0,
        "stats.wilcoxon.calls": get("stats.wilcoxon", "calls"),
        "stats.wilcoxon.self_s": get("stats.wilcoxon", "self_s"),
        "records.write_s": get("records.write", "total_s"),
        "records.read_s": get("records.read", "total_s"),
        "records.bytes_written": counts["bytes_written"],
        "pipeline.stage_s.train": get("pipeline.stage.train", "total_s"),
        "pipeline.stage_s.evaluate_pca": get("pipeline.stage.evaluate_pca", "total_s"),
        "pipeline.stage_s.evaluate_standard": get("pipeline.stage.evaluate_standard", "total_s"),
        "pipeline.stage_s.compare": get("pipeline.stage.compare", "total_s"),
        "pipeline.checkpoint.load_s": get("pipeline.checkpoint.load", "total_s"),
        "pipeline.checkpoint.resumed_frac": (returned - computed) / returned,
        "pipeline.pool_efficiency": pool_efficiency,
        "cli.import_s": cli_import_s,
        "cli.gen-graphs_s": cli_s.get("gen-graphs", 0.0),
        "cli.train_s": cli_s.get("train", 0.0),
        "cli.fit-pca_s": cli_s.get("fit-pca", 0.0),
        "cli.evaluate_s": cli_s.get("evaluate", 0.0),
        "cli.compare_s": cli_s.get("compare", 0.0),
        "trace.overhead_frac": overhead,
    }


def run(args) -> tuple[dict, dict]:
    import qaoa_pca.cli  # noqa: F401  # loads every module, so tracing can patch them all
    from checks import load_reference, write_reference
    from spans import Tracer, span_cost_s
    from workloads import BUILDERS, run_cli, run_serial

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    tracer = Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()
            tracer.active = True
        t0 = clock()
        if args.workload == "cli-pipeline":
            out = run_cli(args.seed, args.seconds, work, tracer)
        else:
            wl = BUILDERS[args.workload]()
            out = run_serial(wl, args.workload, args.seed, args.seconds, work, tracer)
        if not out.wall_s:  # the first pass failed; its checks say why
            return {}, details(out)
        ref_path = REFERENCE / f"{args.workload}.json"
        if args.write_reference:
            if out.checks.failed:
                raise SystemExit("refusing to store a reference from a run with failed checks")
            REFERENCE.mkdir(exist_ok=True)
            write_reference(ref_path, args.workload, out.records, stamp(args))
        if not tracer:
            setup = median_wall([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                                 "--setup-only"], SETUP_SAMPLES)
            return end_to_end(out, setup, load_reference(ref_path)), details(out)
        cost = span_cost_s()
        metrics = per_layer(tracer, out, out.extra["t_end"] - t0, cost, import_s())
        evals_match = tracer.counts["minimize_evals"] == metrics["engine.objective.calls"]
        out.checks.check(evals_match, "objective calls differ from evaluations counted by minimize")
        spans_path = WORK / f"spans-{args.workload}.tsv"
        tracer.write(spans_path)
        return metrics, details(out) | {
            "spans": str(spans_path.relative_to(ROOT)),
            "spans_n": len(tracer.spans),
            "span_cost_us": cost * 1e6,
            "canonical_key_max_n": tracer.counts["canonical_key_max_n"],
        }
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)


def details(out) -> dict:
    return {
        "passes": len(out.wall_s),
        "graphs_done": out.graphs_done,
        "graph_s_samples": sum(len(v) for v in out.graph_s.values()),
        "resume_samples": len(out.resume_s),
        "attempted": out.checks.attempted,
        "failed": out.checks.failed,
        "failures": out.checks.failures[:20],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qaoa_pca" / "__init__.py").is_file():
        print(f"error: {SRC / 'qaoa_pca'} not found; run from the root of a qaoa-pca checkout", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.setup_only:
        from workloads import setup_only

        setup_only(args.workload)
        return 0
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        metrics, details = run(args)
    except Exception:  # a crash in the program under test is a failed run, reported as such
        traceback.print_exc()
        metrics, details = {}, {"attempted": 1, "failed": 1, "failures": [traceback.format_exc(limit=3)]}
    attempted = details["attempted"]
    failed = details["failed"] if metrics else max(details["failed"], 1)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    print(json.dumps({"stamp": stamp(args), "details": details}, sort_keys=True))
    result = {
        "correct": failed == 0 and not missing,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
