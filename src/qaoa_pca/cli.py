"""Command-line front end for the pipeline stages.

Exit codes: 0 on success, 1 for validation problems (bad flags, malformed or
missing inputs, config bounds), 2 for unexpected runtime failures. Every run
logs its config hash and seed to stderr so artifacts can be traced.
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
    REPORT_CONFIGURATIONS,
    EvalConfig,
    TrainingConfig,
    build_eval_set,
    build_graph_set,
    compare,
    config_hash,
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


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_vertex_range(text: str) -> tuple[int, int]:
    parts = text.split("..")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise ValueError(f"--n expects N or LO..HI, got {text!r}") from None
    if lo > hi:
        raise ValueError(f"--n range is empty: {text!r}")
    return lo, hi


def _timestamp(args) -> str | None:
    if args.no_timestamp:
        return None
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _provenance(args, extra: dict | None = None) -> dict:
    # results depend on numpy's arithmetic, so its version travels with them
    out = {"config": _args_hash(args), "seed": args.seed, "numpy": np.__version__}
    out.update(extra or {})
    ts = _timestamp(args)
    if ts:
        out["generated"] = ts
    return out


# the handler, scheduling and output paths: none of them changes a result
_UNHASHED_FLAGS = ("func", "workers", "checkpoint", "out", "records")
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
    return config_hash(tuple(sorted(items)))


def _log_run(args) -> None:
    print(f"{args.command}: config {_args_hash(args)} seed {args.seed}", file=sys.stderr)


def _cmd_gen_graphs(args) -> int:
    lo, hi = _parse_vertex_range(args.n)
    if args.count is not None:
        if lo != hi:
            raise ValueError("--count sampling needs a single vertex count, not a range")
        graphs = build_eval_set(lo, args.count, args.seed, weighted=args.weighted)
    else:
        graphs = build_graph_set(lo, hi, args.weighted, args.seed)
    save_graph_set(args.out, graphs, timestamp=_timestamp(args))
    _log_run(args)
    print(f"wrote {len(graphs)} graphs to {args.out}", file=sys.stderr)
    return 0


def _cmd_train(args) -> int:
    graphs = load_graph_set(args.graphs)
    if not graphs:
        raise ValueError(f"{args.graphs}: no graphs to train on")
    cfg = TrainingConfig(p=args.p, optimizer=OptimizerConfig(max_evals=args.max_evals))
    ids, matrix, records = run_training(cfg, graphs, checkpoint_path=args.checkpoint, workers=args.workers)
    write_matrix(args.out, ids, matrix.rows, provenance=_provenance(args))
    if args.records:
        write_records(args.records, records, provenance=_provenance(args))
    _log_run(args)
    print(f"trained {len(ids)} graphs at p={args.p}, matrix to {args.out}", file=sys.stderr)
    return 0


def _cmd_fit_pca(args) -> int:
    _, rows = read_matrix(args.matrix)
    model = fit(ParameterMatrix(rows))
    save_model(args.out, model)
    _log_run(args)
    note = " (degenerate: zero variance)" if model.degenerate else ""
    print(f"fit {model.n_components}-component model at p={model.p}{note}", file=sys.stderr)
    return 0


def _cmd_evaluate(args) -> int:
    eval_set = load_graph_set(args.graphs)
    if not eval_set:
        raise ValueError(f"{args.graphs}: no graphs to evaluate")
    opt = OptimizerConfig(max_evals=args.max_evals)
    if args.standard:
        if args.p is None:
            raise ValueError("--standard needs --p")
        records = evaluate_standard(args.p, eval_set, opt, checkpoint_path=args.checkpoint, workers=args.workers)
    else:
        if args.model is None or args.components is None or args.matrix is None:
            raise ValueError("evaluate needs --standard --p, or --model, --components and --matrix")
        model = load_model(args.model)
        if args.components > model.n_components:
            raise ValueError(
                f"--components {args.components} exceeds the model's {model.n_components} components"
            )
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
    write_records(args.out, records, provenance=_provenance(args))
    _log_run(args)
    print(f"evaluated {len(records)} graphs, records to {args.out}", file=sys.stderr)
    return 0


def _cmd_compare(args) -> int:
    pca = read_records(args.pca)
    baseline = read_records(args.baseline)
    row = compare(pca, baseline, args.kind, training_set=args.training_set)
    write_comparison(args.out, row)
    _log_run(args)
    print(
        f"compared {row.n_pairs} pairs against {args.kind}:"
        f" p_evals={row.p_value_evals:.4g} p_ratio={row.p_value_ratio:.4g}",
        file=sys.stderr,
    )
    return 0


def _cmd_report(args) -> int:
    records_dir = Path(args.records_dir)
    out_dir = Path(args.out).parent
    rows = []
    for training_set, p, k in REPORT_CONFIGURATIONS:
        pca = read_records(records_dir / pca_records_filename(training_set, p, k))
        same_layers = read_records(records_dir / standard_records_filename(p))
        same_params = read_records(records_dir / standard_records_filename(k // 2))
        rows.append(
            (
                compare(pca, same_layers, "same_layers", training_set),
                compare(pca, same_params, "same_params", training_set),
            )
        )
        write_scatter(out_dir / scatter_filename(training_set, p, k), pca, same_layers, same_params)
    write_text_atomic(args.out, render_report(rows, timestamp=_timestamp(args)))
    _log_run(args)
    print(f"report with {len(rows)} configurations written to {args.out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    common.add_argument(
        "--workers",
        type=int,
        default=os.cpu_count() or 1,
        help="parallel worker processes (default: core count)",
    )
    common.add_argument("--out", required=True, help="output file path")
    common.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit timestamps so reruns are byte-identical",
    )

    parser = _Parser(prog="qaoa-pca", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_gen = sub.add_parser("gen-graphs", parents=[common], help="enumerate or sample graph sets")
    p_gen.add_argument("--n", required=True, help="vertex count N or range LO..HI")
    p_gen.add_argument("--weighted", action="store_true", help="draw edge weights in (0, 1]")
    p_gen.add_argument("--count", type=int, default=None, help="sample this many instead of enumerating")
    p_gen.set_defaults(func=_cmd_gen_graphs)

    p_train = sub.add_parser("train", parents=[common], help="optimize every graph, save the parameter matrix")
    p_train.add_argument("--graphs", required=True, help="graph-set file to train on")
    p_train.add_argument("--p", type=int, required=True, choices=(1, 2, 4, 8), help="circuit layers")
    p_train.add_argument("--records", default=None, help="also write per-run records CSV here")
    p_train.add_argument("--checkpoint", default=None, help="append-only resume file")
    p_train.add_argument("--max-evals", type=int, default=1000, help="objective evaluation budget per start")
    p_train.set_defaults(func=_cmd_train)

    p_fit = sub.add_parser("fit-pca", parents=[common], help="fit the component model to a parameter matrix")
    p_fit.add_argument("--matrix", required=True, help="parameter matrix CSV")
    p_fit.set_defaults(func=_cmd_fit_pca)

    p_eval = sub.add_parser("evaluate", parents=[common], help="run reduced or standard optimization on an eval set")
    p_eval.add_argument("--graphs", required=True, help="evaluation graph-set file")
    p_eval.add_argument("--standard", action="store_true", help="full-parameter baseline mode")
    p_eval.add_argument("--p", type=int, default=None, help="layers (standard mode)")
    p_eval.add_argument("--model", default=None, help="component model file (reduced mode)")
    p_eval.add_argument("--components", type=int, default=None, help="coefficients to optimize (reduced mode)")
    p_eval.add_argument("--matrix", default=None, help="training matrix CSV for initialization ranges")
    p_eval.add_argument("--restarts", type=int, default=5, help="random starts per graph (reduced mode)")
    p_eval.add_argument("--checkpoint", default=None, help="append-only resume file")
    p_eval.add_argument("--max-evals", type=int, default=1000, help="objective evaluation budget per start")
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
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything unanticipated is a runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
