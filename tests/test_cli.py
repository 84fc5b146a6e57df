import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import qaoa_pca
from qaoa_pca.cli import main
from qaoa_pca.graphs import load_graph_set
from qaoa_pca.pipeline import (
    REPORT_CONFIGURATIONS,
    pca_records_filename,
    scatter_filename,
    standard_records_filename,
)
from qaoa_pca.records import RunRecord, read_comparison, read_matrix, read_records, write_records


def run(*argv):
    return main([str(a) for a in argv])


def child_env():
    """Environment for a fresh interpreter that imports this package, on one BLAS thread."""
    src = str(Path(qaoa_pca.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")


def test_gen_graphs_enumerates(tmp_path):
    out = tmp_path / "four.graphs"
    assert run("gen-graphs", "--n", "4", "--out", out) == 0
    assert len(load_graph_set(out)) == 6


def test_gen_graphs_range_and_sampling(tmp_path):
    out = tmp_path / "range.graphs"
    assert run("gen-graphs", "--n", "4..5", "--out", out) == 0
    assert len(load_graph_set(out)) == 27

    sampled = tmp_path / "sampled.graphs"
    assert run("gen-graphs", "--n", "6", "--count", "10", "--weighted", "--seed", "3",
               "--out", sampled) == 0
    graphs = load_graph_set(sampled)
    assert len(graphs) == 10
    assert all(0 < w <= 1 for wg in graphs for w in wg.weight_list())


def test_gen_graphs_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.graphs", tmp_path / "b.graphs"
    for out in (a, b):
        assert run("gen-graphs", "--n", "5", "--count", "6", "--weighted", "--seed", "9",
                   "--no-timestamp", "--out", out) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_graphs_count_needs_single_n(tmp_path, capsys):
    code = run("gen-graphs", "--n", "4..5", "--count", "3", "--out", tmp_path / "x.graphs")
    assert code == 1
    assert "single vertex count" in capsys.readouterr().err


def test_full_flow_small(tmp_path):
    """gen-graphs -> train -> fit-pca -> evaluate (both modes) -> compare."""
    train_graphs = tmp_path / "train.graphs"
    eval_graphs = tmp_path / "eval.graphs"
    matrix = tmp_path / "params.csv"
    model = tmp_path / "model.pca"
    pca_recs = tmp_path / "pca.csv"
    std_recs = tmp_path / "std.csv"
    cmp_out = tmp_path / "cmp.json"

    assert run("gen-graphs", "--n", "4", "--out", train_graphs, "--no-timestamp") == 0
    assert run("gen-graphs", "--n", "5", "--count", "8", "--weighted", "--seed", "2",
               "--out", eval_graphs, "--no-timestamp") == 0
    assert run("train", "--graphs", train_graphs, "--p", "2", "--max-evals", "150",
               "--out", matrix, "--no-timestamp", "--workers", "1") == 0
    assert run("fit-pca", "--matrix", matrix, "--out", model) == 0
    assert run("evaluate", "--graphs", eval_graphs, "--model", model, "--components", "2",
               "--matrix", matrix, "--restarts", "2", "--max-evals", "150", "--seed", "4",
               "--out", pca_recs, "--no-timestamp", "--workers", "1") == 0
    assert run("evaluate", "--graphs", eval_graphs, "--standard", "--p", "2",
               "--max-evals", "150", "--out", std_recs, "--no-timestamp", "--workers", "1") == 0
    assert run("compare", "--pca", pca_recs, "--baseline", std_recs, "--kind", "same_layers",
               "--training-set", "unweighted", "--out", cmp_out) == 0

    pca = read_records(pca_recs)
    std = read_records(std_recs)
    assert [r.graph_id for r in pca] == [r.graph_id for r in std]
    row = read_comparison(cmp_out)
    assert row.n_pairs == 8
    assert row.baseline_kind == "same_layers"


def test_train_rerun_byte_identical(tmp_path):
    graphs = tmp_path / "g.graphs"
    assert run("gen-graphs", "--n", "4", "--out", graphs, "--no-timestamp") == 0
    out = tmp_path / "params.csv"
    assert run("train", "--graphs", graphs, "--p", "1", "--max-evals", "80",
               "--out", out, "--no-timestamp") == 0
    first = out.read_bytes()
    assert run("train", "--graphs", graphs, "--p", "1", "--max-evals", "80",
               "--out", out, "--no-timestamp") == 0
    assert out.read_bytes() == first


def test_provenance_ignores_workers_checkpoint_and_paths(tmp_path):
    # results depend on neither the core count nor a checkpoint, so neither enters the config hash
    graphs = tmp_path / "g.graphs"
    assert run("gen-graphs", "--n", "3", "--out", graphs, "--no-timestamp") == 0
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    train = ("train", "--graphs", graphs, "--p", "1", "--max-evals", "40", "--no-timestamp")
    assert run(*train, "--workers", "1", "--out", a) == 0
    assert run(*train, "--workers", "2", "--checkpoint", tmp_path / "t.ckpt",
               "--records", tmp_path / "r.csv", "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_provenance_hashes_input_contents_not_paths(tmp_path):
    # the same train-and-evaluate chain in two directories writes the same bytes
    outputs = []
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        assert run("gen-graphs", "--n", "4", "--out", d / "g.graphs", "--no-timestamp") == 0
        assert run("train", "--graphs", d / "g.graphs", "--p", "2", "--max-evals", "40",
                   "--out", d / "m.csv", "--records", d / "t.csv", "--no-timestamp",
                   "--workers", "1") == 0
        assert run("fit-pca", "--matrix", d / "m.csv", "--out", d / "model.pca") == 0
        assert run("evaluate", "--graphs", d / "g.graphs", "--model", d / "model.pca",
                   "--components", "2", "--matrix", d / "m.csv", "--restarts", "1",
                   "--max-evals", "40", "--out", d / "r.csv", "--no-timestamp",
                   "--workers", "1") == 0
        outputs.append([(d / f).read_bytes() for f in ("m.csv", "t.csv", "r.csv")])
    assert outputs[0] == outputs[1]

    # a changed input file changes the header
    other = tmp_path / "b" / "g.graphs"
    assert run("gen-graphs", "--n", "3", "--out", other, "--no-timestamp") == 0
    assert run("train", "--graphs", other, "--p", "2", "--max-evals", "40",
               "--out", tmp_path / "m3.csv", "--no-timestamp", "--workers", "1") == 0
    config = (tmp_path / "m3.csv").read_text().splitlines()[0]
    assert config.startswith("# config ")
    assert config != outputs[0][0].decode().splitlines()[0]


def test_cli_startup_leaves_scipy_optimize_unloaded(tmp_path):
    # the package runs its own COBYLA: not even a call that optimizes loads scipy
    graphs = str(tmp_path / "g.graphs")
    train = ["train", "--graphs", graphs, "--p", "1", "--max-evals", "20", "--workers", "1",
             "--out", str(tmp_path / "m.csv")]
    code = (
        "import sys, qaoa_pca.cli\n"
        f"assert qaoa_pca.cli.main(['gen-graphs', '--n', '4', '--out', {graphs!r}]) == 0\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n"
        f"assert qaoa_pca.cli.main({train!r}) == 0\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, f'train imported {loaded}'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_train_killed_mid_stage_resumes_to_the_same_bytes(tmp_path):
    graphs = tmp_path / "g.graphs"
    assert run("gen-graphs", "--n", "4", "--out", graphs, "--no-timestamp") == 0
    train = ["train", "--graphs", graphs, "--p", "1", "--no-timestamp", "--workers", "1"]
    ref_m, ref_r = tmp_path / "ref_m.csv", tmp_path / "ref_r.csv"
    assert run(*train, "--out", ref_m, "--records", ref_r) == 0

    ckpt, m, r = tmp_path / "t.ckpt", tmp_path / "m.csv", tmp_path / "r.csv"
    resumable = [*train, "--checkpoint", ckpt, "--out", m, "--records", r]
    proc = subprocess.Popen([sys.executable, "-m", "qaoa_pca.cli", *map(str, resumable)],
                            env=child_env(), stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120
        while not (ckpt.exists() and b"\n" in ckpt.read_bytes()):
            assert proc.poll() is None, "train exited before writing a checkpoint line"
            assert time.monotonic() < deadline, "no checkpoint line within 120 s"
            time.sleep(0.002)
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == -signal.SIGKILL
    killed = ckpt.read_text()
    assert 1 <= killed.count("\n") < 6 and not m.exists()

    assert run(*resumable) == 0
    assert m.read_bytes() == ref_m.read_bytes()
    assert r.read_bytes() == ref_r.read_bytes()
    text = ckpt.read_text()
    assert text.startswith(killed)
    ids = [json.loads(line)["graph_id"] for line in text.splitlines()]
    assert len(ids) == 6 and len(set(ids)) == 6  # no graph computed twice


def test_evaluate_resumes_with_the_model_at_another_path(tmp_path):
    graphs = tmp_path / "g.graphs"
    matrix = tmp_path / "m.csv"
    model = tmp_path / "model.pca"
    ckpt = tmp_path / "pca.ckpt"
    assert run("gen-graphs", "--n", "4", "--out", graphs, "--no-timestamp") == 0
    assert run("train", "--graphs", graphs, "--p", "2", "--max-evals", "60",
               "--out", matrix, "--no-timestamp", "--workers", "1") == 0
    assert run("fit-pca", "--matrix", matrix, "--out", model) == 0
    moved = tmp_path / "elsewhere" / "copy.pca"
    moved.parent.mkdir()
    moved.write_bytes(model.read_bytes())
    outs = []
    for i, path in enumerate((model, moved)):
        outs.append(tmp_path / f"r{i}.csv")
        assert run("evaluate", "--graphs", graphs, "--model", path, "--components", "2",
                   "--matrix", matrix, "--restarts", "1", "--max-evals", "60", "--checkpoint", ckpt,
                   "--out", outs[-1], "--no-timestamp", "--workers", "1") == 0
        if i == 0:
            lines = ckpt.read_text()
    assert ckpt.read_text() == lines  # the second run appended nothing
    assert read_records(outs[0]) == read_records(outs[1])


def test_train_resumes_across_seeds(tmp_path):
    # training does not use the seed, so a checkpoint from --seed 1 serves --seed 2
    graphs = tmp_path / "g.graphs"
    ckpt = tmp_path / "train.ckpt"
    assert run("gen-graphs", "--n", "4", "--out", graphs, "--no-timestamp") == 0
    rows = []
    for seed in (1, 2):
        out = tmp_path / f"m{seed}.csv"
        assert run("train", "--graphs", graphs, "--p", "1", "--max-evals", "60", "--seed", seed,
                   "--checkpoint", ckpt, "--out", out, "--no-timestamp", "--workers", "1") == 0
        if seed == 1:
            lines = ckpt.read_text()
        rows.append(read_matrix(out))
    assert ckpt.read_text() == lines
    assert rows[0][0] == rows[1][0]
    assert np.array_equal(rows[0][1], rows[1][1])


def test_train_on_eight_vertices_matches_standard_evaluation(tmp_path):
    # train and evaluate --standard do the same per-graph work, so both take an 8-vertex set
    graphs = tmp_path / "g.graphs"
    assert run("gen-graphs", "--n", "8", "--count", "2", "--weighted", "--out", graphs,
               "--no-timestamp") == 0
    trained, evaluated = tmp_path / "train.csv", tmp_path / "std.csv"
    assert run("train", "--graphs", graphs, "--p", "1", "--max-evals", "40", "--records", trained,
               "--out", tmp_path / "m.csv", "--no-timestamp", "--workers", "1") == 0
    assert run("evaluate", "--graphs", graphs, "--standard", "--p", "1", "--max-evals", "40",
               "--out", evaluated, "--no-timestamp", "--workers", "1") == 0

    def rows(path):
        return sorted(line for line in path.read_text().splitlines() if not line.startswith("#"))

    assert len(rows(trained)) == 3  # header and two records
    assert rows(trained) == rows(evaluated)


def test_evaluate_component_bound_names_limit(tmp_path, capsys):
    graphs = tmp_path / "g.graphs"
    matrix = tmp_path / "m.csv"
    model = tmp_path / "model.pca"
    assert run("gen-graphs", "--n", "4", "--out", graphs, "--no-timestamp") == 0
    assert run("train", "--graphs", graphs, "--p", "1", "--max-evals", "60",
               "--out", matrix, "--no-timestamp") == 0
    assert run("fit-pca", "--matrix", matrix, "--out", model) == 0
    code = run("evaluate", "--graphs", graphs, "--model", model, "--components", "6",
               "--matrix", matrix, "--out", tmp_path / "r.csv")
    assert code == 1
    assert "2 components" in capsys.readouterr().err


def test_exit_codes_on_bad_usage(tmp_path, capsys):
    assert run("gen-graphs", "--n", "4", "--out", tmp_path / "x", "--frobnicate") == 1
    assert run("no-such-command") == 1
    assert run("gen-graphs", "--n", "9", "--count", "1", "--out", tmp_path / "y") == 1  # keys stop at 8
    assert run("train", "--graphs", tmp_path / "absent.graphs", "--p", "2",
               "--out", tmp_path / "m.csv") == 1
    assert run("--help") == 0
    capsys.readouterr()


def test_malformed_graph_file_fails_validation(tmp_path, capsys):
    bad = tmp_path / "bad.graphs"
    bad.write_text("# graph-set v1\n\n2 1\n0 1 -3.0\n")
    assert run("train", "--graphs", bad, "--p", "2", "--out", tmp_path / "m.csv") == 1
    assert "bad.graphs" in capsys.readouterr().err


def test_train_rejects_a_nine_vertex_graph_at_its_line(tmp_path, capsys):
    graphs = tmp_path / "big.graphs"
    graphs.write_text("# graph-set v1\n\n9 1\n0 8 1.0\n")
    out = tmp_path / "m.csv"
    assert run("train", "--graphs", graphs, "--p", "2", "--out", out, "--workers", "1") == 1
    assert f"{graphs}:3: vertex count must be in 1..8, got 9" in capsys.readouterr().err
    assert not out.exists()


def test_provenance_names_the_numpy_version(tmp_path):
    # results depend on numpy's arithmetic, so matrix and records files say which numpy made them
    graphs = tmp_path / "g.graphs"
    assert run("gen-graphs", "--n", "3", "--out", graphs, "--no-timestamp") == 0
    matrix, trained, evaluated = tmp_path / "m.csv", tmp_path / "t.csv", tmp_path / "s.csv"
    assert run("train", "--graphs", graphs, "--p", "1", "--max-evals", "40", "--out", matrix,
               "--records", trained, "--no-timestamp", "--workers", "1") == 0
    assert run("evaluate", "--graphs", graphs, "--standard", "--p", "1", "--max-evals", "40",
               "--out", evaluated, "--no-timestamp", "--workers", "1") == 0
    for path in (matrix, trained, evaluated):
        assert f"# numpy {np.__version__}" in path.read_text().splitlines(), path


def test_compare_misaligned_exits_one(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_records(a, [RunRecord("n05k000000000001", "pca", 2, 2, 5, 0.5, (0.0,) * 4)])
    write_records(b, [RunRecord("n05k000000000003", "standard", 2, 4, 9, 0.6, (0.0,) * 4)])
    assert run("compare", "--pca", a, "--baseline", b, "--kind", "same_params",
               "--out", tmp_path / "c.json") == 1
    assert "not aligned" in capsys.readouterr().err


def synth_records(seed, method, layers, param_count, count=16):
    rng = np.random.default_rng(seed)
    recs = []
    for i in range(count):
        recs.append(
            RunRecord(
                graph_id=f"n07k{i:012x}",
                method=method,
                layers=layers,
                param_count=param_count,
                evals=int(rng.integers(20, 800)),
                approx_ratio=float(rng.uniform(0.7, 1.0)),
                best_params=(0.0,) * (2 * layers),
            )
        )
    return recs


def test_report_structure(tmp_path, capsys):
    records_dir = tmp_path / "runs"
    records_dir.mkdir()
    for p in (1, 2, 4, 8):
        write_records(records_dir / standard_records_filename(p),
                      synth_records(100 + p, "standard", p, 2 * p))
    for ts, p, k in REPORT_CONFIGURATIONS:
        write_records(records_dir / pca_records_filename(ts, p, k),
                      synth_records(hash((ts, p, k)) % 1000, "pca", p, k))

    report = tmp_path / "report.md"
    assert run("report", "--records-dir", records_dir, "--out", report, "--no-timestamp") == 0
    lines = [ln for ln in report.read_text().splitlines() if ln.startswith("|")]
    assert len(lines) == 14  # header, separator, 12 configurations
    header = lines[0]
    for col in ("Training Set", "# Layers", "# Param.", "P-Val.", "RBC"):
        assert col in header
    for ts, p, k in REPORT_CONFIGURATIONS:
        scatter = tmp_path / scatter_filename(ts, p, k)
        assert scatter.exists()
        body = scatter.read_text().splitlines()
        assert body[0] == "evals,approx_ratio,method"
        assert len(body) == 1 + 3 * 16
    capsys.readouterr()


def test_report_missing_records_file(tmp_path, capsys):
    records_dir = tmp_path / "runs"
    records_dir.mkdir()
    assert run("report", "--records-dir", records_dir, "--out", tmp_path / "r.md") == 1
    err = capsys.readouterr().err
    assert "pca_unweighted_p2_k2.csv" in err
