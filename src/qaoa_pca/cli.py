"""Command-line front end for the pipeline stages.

Exit codes: 0 on success, 1 for validation problems (bad flags, malformed or
missing inputs, config bounds), 2 for unexpected runtime failures. Artifacts
hold no wall-clock time, so a rerun with the same arguments and inputs writes
the same bytes; every run logs its config hash, its seed if the subcommand
takes one, and UTC time to stderr so artifacts can be traced.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .graphs import load_graph_set, save_graph_set
from .optimizer import OptimizerConfig
from .pca import ParameterMatrix, fit, load_model, save_model
from .pipeline import (
    BASELINE_KINDS,
    DEPTHS,
    REPORT_CONFIGURATIONS,
    EvalConfig,
    TrainingConfig,
    build_eval_set,
    build_graph_set,
    compare,
    evaluate_pca,
    evaluate_standard,
    pca_records_filename,
    render_report,
    run_training,
    scatter_filename,
    standard_records_filename,
)
from .records import (
    read_matrix,
    read_records,
    write_comparison,
    write_matrix,
    write_records,
    write_scatter,
    write_text_atomic,
)


def _parse_vertex_range(text: str) -> tuple[int, int]:
    lo, dots, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if dots else lo)
    except ValueError:
        raise ValueError(f"--n expects N or LO..HI, got {text!r}") from None
    if lo > hi:
        raise ValueError(f"--n range is empty: {text!r}")
    return lo, hi


def _worker_count(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a process count of at least 1, got {text!r}")
    return int(text)


# the handler, scheduling, output paths and the no-op --no-timestamp: none of them changes a result
_UNHASHED_FLAGS = ("func", "workers", "checkpoint", "out", "records", "no_timestamp")
# input files enter the hash by content, so the same run in another directory hashes alike
_INPUT_FILE_FLAGS = ("graphs", "matrix", "model", "pca", "baseline")


def _args_hash(args) -> str:
    items = []
    for k, v in vars(args).items():
        if k in _UNHASHED_FLAGS:
            continue
        if k in _INPUT_FILE_FLAGS and v is not None:
            v = hashlib.sha256(Path(v).read_bytes()).hexdigest()
        items.append((k, repr(v)))
    return hashlib.sha256(repr(tuple(sorted(items))).encode("utf-8")).hexdigest()[:12]


def _cmd_gen_graphs(args, provenance: dict) -> str:
    lo, hi = _parse_vertex_range(args.n)
    if args.count is not None:
        if lo != hi:
            raise ValueError("--count sampling needs a single vertex count, not a range")
        graphs = build_eval_set(lo, args.count, args.seed, weighted=args.weighted)
    else:
        graphs = build_graph_set(lo, hi, args.weighted, args.seed)
    save_graph_set(args.out, graphs)
    return f"wrote {len(graphs)} graphs to {args.out}"


def _cmd_train(args, provenance: dict) -> str:
    graphs = load_graph_set(args.graphs)
    cfg = TrainingConfig(p=args.p, optimizer=OptimizerConfig(max_evals=args.max_evals))
    ids, matrix, records = run_training(cfg, graphs, checkpoint_path=args.checkpoint, workers=args.workers)
    write_matrix(args.out, ids, matrix.rows, provenance=provenance)
    if args.records:
        write_records(args.records, records, provenance=provenance)
    return f"trained {len(ids)} graphs at p={args.p}, matrix to {args.out}"


def _cmd_fit_pca(args, provenance: dict) -> str:
    _, rows = read_matrix(args.matrix)
    model = fit(ParameterMatrix(rows))
    save_model(args.out, model)
    if model.degenerate:
        note = " (degenerate: zero variance)"
    else:
        share = np.cumsum(model.eigenvalues) / model.eigenvalues.sum()
        ks = [k for k in (2, 4, 8) if k <= 2 * model.p]
        note = (f"; training variance in the first {'/'.join(map(str, ks))} components"
                f" {'/'.join(f'{share[k - 1]:.4f}' for k in ks)}")
    return f"fit {2 * model.p}-component model at p={model.p}{note}"


def _cmd_evaluate(args, provenance: dict) -> str:
    # --standard needs --p, the reduced mode the other three; the other mode's would change only the hash
    mode = "--standard" if args.standard else "without --standard"
    for name in ("p", "model", "components", "matrix"):
        needed = (name == "p") == args.standard
        if (getattr(args, name) is None) == needed:
            verb = "needs" if needed else "does not take"
            raise ValueError(f"evaluate {mode} {verb} --{name}")
    eval_set = load_graph_set(args.graphs)
    opt = OptimizerConfig(max_evals=args.max_evals)
    if args.standard:
        records = evaluate_standard(args.p, eval_set, opt, checkpoint_path=args.checkpoint, workers=args.workers)
    else:
        model = load_model(args.model)
        _, rows = read_matrix(args.matrix)
        cfg = EvalConfig(p=model.p, k_components=args.components, restarts=args.restarts, seed=args.seed)
        records = evaluate_pca(
            cfg,
            model,
            eval_set,
            ParameterMatrix(rows),
            opt,
            checkpoint_path=args.checkpoint,
            workers=args.workers,
        )
    write_records(args.out, records, provenance=provenance)
    return f"evaluated {len(records)} graphs, records to {args.out}"


def _cmd_compare(args, provenance: dict) -> str:
    pca = read_records(args.pca)
    baseline = read_records(args.baseline)
    row = compare(pca, baseline, args.kind, training_set=args.training_set)
    write_comparison(args.out, row)
    return (
        f"compared {row.n_pairs} pairs against {args.kind}:"
        f" p_evals={row.p_value_evals:.4g} p_ratio={row.p_value_ratio:.4g}"
    )


def _cmd_report(args, provenance: dict) -> str:
    records_dir = Path(args.records_dir)
    out_dir = Path(args.out).parent
    configs = [  # per configuration: its training set, the records it reads, the scatter file it writes
        (ts, records_dir / pca_records_filename(ts, p, k), records_dir / standard_records_filename(p),
         records_dir / standard_records_filename(k // 2), out_dir / scatter_filename(ts, p, k))
        for ts, p, k in REPORT_CONFIGURATIONS
    ]
    if Path(args.out).resolve() in {path.resolve() for _, *paths in configs for path in paths}:
        raise ValueError(f"--out {args.out!r} is a records file report reads or a scatter file it writes")
    rows, scatters = [], []
    for training_set, pca_path, layers_path, params_path, scatter_path in configs:
        pca = read_records(pca_path)
        same_layers = read_records(layers_path)
        same_params = read_records(params_path)
        rows.append(
            (
                compare(pca, same_layers, "same_layers", training_set),
                compare(pca, same_params, "same_params", training_set),
            )
        )
        scatters.append((scatter_path, pca, same_layers, same_params))
    for scatter in scatters:  # every configuration has read and compared, so a failure wrote nothing
        write_scatter(*scatter)
    write_text_atomic(args.out, render_report(rows))
    return f"report with {len(rows)} configurations written to {args.out}"


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--workers",
        type=_worker_count,
        default=len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
        help="parallel worker processes (default: the CPUs this process may run on)",
    )
    common.add_argument("--out", required=True, help="output file path")
    # accepted for older scripts; artifacts hold no clock time, so it does nothing
    common.add_argument("--no-timestamp", action="store_true", help=argparse.SUPPRESS)

    stage = argparse.ArgumentParser(add_help=False, parents=[common])  # the flags of train and evaluate
    stage.add_argument("--graphs", required=True, help="graph-set file to optimize")
    stage.add_argument("--checkpoint", default=None, help="append-only resume file")
    stage.add_argument(
        "--max-evals", type=int, default=OptimizerConfig.max_evals, help="objective evaluation budget per start"
    )
    # train and evaluate --standard read no seed, but it is part of the `# config` digest
    stage.add_argument("--seed", type=int, default=0, help="master seed (default 0)")

    parser = argparse.ArgumentParser(prog="qaoa-pca", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen-graphs", parents=[common], help="enumerate or sample graph sets")
    p_gen.add_argument("--n", required=True, help="vertex count N or range LO..HI")
    p_gen.add_argument("--weighted", action="store_true", help="draw edge weights in (0, 1]")
    p_gen.add_argument("--count", type=int, default=None, help="sample this many instead of enumerating")
    p_gen.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p_gen.set_defaults(func=_cmd_gen_graphs)

    p_train = sub.add_parser("train", parents=[stage], help="optimize every graph, save the parameter matrix")
    p_train.add_argument("--p", type=int, required=True, choices=DEPTHS, help="circuit layers")
    p_train.add_argument("--records", default=None, help="also write per-run records CSV here")
    p_train.set_defaults(func=_cmd_train)

    p_fit = sub.add_parser("fit-pca", parents=[common], help="fit the component model to a parameter matrix")
    p_fit.add_argument("--matrix", required=True, help="parameter matrix CSV")
    p_fit.set_defaults(func=_cmd_fit_pca)

    p_eval = sub.add_parser("evaluate", parents=[stage], help="run reduced or standard optimization on an eval set")
    p_eval.add_argument("--standard", action="store_true", help="full-parameter baseline mode")
    p_eval.add_argument("--p", type=int, default=None, choices=DEPTHS, help="layers (standard mode)")
    p_eval.add_argument("--model", default=None, help="component model file (reduced mode)")
    p_eval.add_argument("--components", type=int, default=None, help="coefficients to optimize (reduced mode)")
    p_eval.add_argument("--matrix", default=None, help="training matrix CSV for initialization ranges")
    p_eval.add_argument(
        "--restarts", type=int, default=EvalConfig.restarts, help="random starts per graph (reduced mode)"
    )
    p_eval.set_defaults(func=_cmd_evaluate)

    p_cmp = sub.add_parser("compare", parents=[common], help="paired signed-rank comparison of two record files")
    p_cmp.add_argument("--pca", required=True, help="reduced-run records CSV")
    p_cmp.add_argument("--baseline", required=True, help="baseline records CSV")
    p_cmp.add_argument("--kind", required=True, choices=BASELINE_KINDS, help="baseline pairing")
    p_cmp.add_argument("--training-set", default="", help="training-set label for the report row")
    p_cmp.set_defaults(func=_cmd_compare)

    p_rep = sub.add_parser("report", parents=[common], help="render the 12-configuration comparison table")
    p_rep.add_argument("--records-dir", required=True, help="directory of records CSVs")
    p_rep.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on bad usage (exit code 1 here)
        return 0 if exc.code == 0 else 1
    try:
        # the hash reads every input file and each output must be its own file in an existing directory, so a
        # bad path fails before any work; results depend on numpy's arithmetic, so its version travels with them
        config = _args_hash(args)
        taken = {Path(v).resolve(): k for k, v in vars(args).items() if k in _INPUT_FILE_FLAGS and v is not None}
        for flag in ("out", "records", "checkpoint"):
            path = getattr(args, flag, None)
            if path is not None and not Path(path).parent.is_dir():
                raise ValueError(f"--{flag}: directory {str(Path(path).parent)!r} does not exist")
            if path is not None and Path(path).is_dir():
                raise ValueError(f"--{flag}: {path!r} is a directory")
            other = flag if path is None else taken.setdefault(Path(path).resolve(), flag)
            if other != flag:
                raise ValueError(f"--{flag} and --{other} name the same file {path!r}")
        seed = getattr(args, "seed", None)  # fit-pca, compare and report take none
        summary = args.func(args, {"config": config, "seed": seed, "numpy": np.__version__})
        when = datetime.now(timezone.utc).isoformat(timespec="seconds")
        seeded = "" if seed is None else f" seed {seed}"
        print(f"{args.command}: config {config}{seeded} at {when}", file=sys.stderr)
        print(summary, file=sys.stderr)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything unanticipated is a runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
