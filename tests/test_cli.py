import functools
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

import qaoa_pca
from qaoa_pca import cli
from qaoa_pca.cli import _args_hash, build_parser, main
from qaoa_pca.graphs import load_graph_set
from qaoa_pca.pipeline import (
    Checkpoint,
    REPORT_CONFIGURATIONS,
    pca_records_filename,
    scatter_filename,
    standard_records_filename,
)
from qaoa_pca.records import RunRecord, read_comparison, read_matrix, read_records, write_matrix, write_records

from oracles import PERFBENCH


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
    assert all(0 < w <= 1 for wg in graphs for w in wg.weights.values())


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


@pytest.mark.parametrize(
    "text, refusal",
    [pytest.param(text, "--n expects N or LO..HI, got", id=text) for text in ("5..", "..5", "1..2..3", "5...6", "a")]
    + [pytest.param("7..5", "--n range is empty:", id="7..5")],
)
def test_gen_graphs_refuses_a_malformed_n(tmp_path, capsys, text, refusal):
    out = tmp_path / "x.graphs"
    assert run("gen-graphs", "--n", text, "--out", out) == 1
    assert f"{refusal} {text!r}" in capsys.readouterr().err
    assert not out.exists()


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


def test_reruns_across_a_clock_tick_are_byte_identical_and_log_the_time(tmp_path, monkeypatch, capsys):
    # a clock that moves on one second per reading: no artifact may change, the stderr line carries the time
    ticks = itertools.count()

    class TickingClock(datetime):
        @classmethod
        def now(cls, tz=None):
            return datetime(2026, 1, 1, tzinfo=tz) + timedelta(seconds=next(ticks))

    monkeypatch.setattr(cli, "datetime", TickingClock)
    runs = []
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        graphs, matrix, records = d / "g.graphs", d / "m.csv", d / "r.csv"
        assert run("gen-graphs", "--n", "3", "--out", graphs) == 0
        assert run("train", "--graphs", graphs, "--p", "1", "--max-evals", "20", "--out", matrix,
                   "--records", records, "--workers", "1") == 0
        runs.append([f.read_bytes() for f in (graphs, matrix, records)])
    assert runs[0] == runs[1]
    logged = [line for line in capsys.readouterr().err.splitlines() if ": config " in line]
    assert [line.split(" at ")[1] for line in logged] == [
        f"2026-01-01T00:00:0{s}+00:00" for s in range(4)
    ]


def test_train_takes_a_one_graph_set_and_fit_pca_refuses_its_matrix(tmp_path, capsys):
    graphs = tmp_path / "one.graphs"
    graphs.write_text("# graph-set v1\n\n3 2\n0 1 1.0\n1 2 0.5\n")
    matrix, records = tmp_path / "m.csv", tmp_path / "r.csv"
    assert run("train", "--graphs", graphs, "--p", "1", "--max-evals", "40", "--out", matrix,
               "--records", records, "--no-timestamp", "--workers", "1") == 0
    ids, rows = read_matrix(matrix)
    assert rows.shape == (1, 2) and [r.graph_id for r in read_records(records)] == ids
    assert run("fit-pca", "--matrix", matrix, "--out", tmp_path / "model.pca") == 1
    assert "need at least 2 rows to fit, got 1" in capsys.readouterr().err


def test_fit_pca_logs_the_training_variance_of_the_first_components(tmp_path, capsys):
    # on stderr only: the model keeps the bytes of the checked-in one
    inputs = PERFBENCH / "inputs" / "eval-pca-p8"
    model = tmp_path / "p8_model.pca"
    assert run("fit-pca", "--matrix", inputs / "p8_matrix.csv", "--out", model) == 0
    assert capsys.readouterr().err.splitlines()[-1] == (
        "fit 16-component model at p=8; training variance in the first 2/4/8 components 0.3878/0.6507/0.8666"
    )
    assert model.read_bytes() == (inputs / "p8_model.pca").read_bytes()
    # only k <= 2p, and a degenerate model names no share
    for rows, summary in [
        ([[0.1, 0.2], [0.3, 0.1], [0.2, 0.4]], "fit 2-component model at p=1; training variance in the first 2"
         " components 1.0000"),
        ([[0.1, 0.2, 0.3, 0.4]] * 2, "fit 4-component model at p=2 (degenerate: zero variance)"),
    ]:
        write_matrix(tmp_path / "m.csv", [f"g{i}" for i in range(len(rows))], np.array(rows))
        assert run("fit-pca", "--matrix", tmp_path / "m.csv", "--out", model) == 0
        assert capsys.readouterr().err.splitlines()[-1] == summary


def test_a_matrix_file_without_rows_fails_naming_it(tmp_path, capsys):
    full, empty, model = tmp_path / "m.csv", tmp_path / "empty.csv", tmp_path / "model.pca"
    write_matrix(full, ["a", "b", "c"], np.array([[0.1, 0.2, 0.3, 0.4], [0.3, 0.1, 0.2, 0.2], [0.2, 0.4, 0.1, 0.3]]))
    assert run("fit-pca", "--matrix", full, "--out", model) == 0
    assert run("gen-graphs", "--n", "4", "--out", tmp_path / "g.graphs") == 0
    empty.write_text("# config deadbeef\ngraph_id,gamma_1,gamma_2,beta_1,beta_2\n")
    out = tmp_path / "out"
    for argv in (
        ["fit-pca", "--matrix", empty],
        ["evaluate", "--graphs", tmp_path / "g.graphs", "--model", model, "--components", "1", "--matrix", empty],
    ):
        capsys.readouterr()
        assert run(*argv, "--out", out, "--workers", "1") == 1
        err = capsys.readouterr().err
        assert f"error: {empty}: expected a header and at least one row of angles, got 1 lines" in err
        assert not out.exists()


def test_evaluate_standard_takes_only_the_training_depths(tmp_path, capsys):
    graphs = tmp_path / "one.graphs"
    graphs.write_text("# graph-set v1\n\n2 1\n0 1 1.0\n")
    out = tmp_path / "s.csv"
    assert run("evaluate", "--graphs", graphs, "--standard", "--p", "3", "--out", out,
               "--workers", "1") == 1
    assert "invalid choice: 3" in capsys.readouterr().err
    assert not out.exists()



def test_evaluate_fails_on_a_missing_input_before_computing_a_graph(tmp_path, capsys):
    # the config hash reads every named input file, so a missing one stops the run before its first graph
    graphs, ckpt, out = tmp_path / "g.graphs", tmp_path / "s.ckpt", tmp_path / "s.csv"
    assert run("gen-graphs", "--n", "4", "--out", graphs) == 0
    capsys.readouterr()
    assert run("evaluate", "--graphs", graphs, "--standard", "--p", "1", "--model", tmp_path / "missing.pca",
               "--checkpoint", ckpt, "--out", out, "--workers", "1") == 1
    assert "missing.pca" in capsys.readouterr().err
    assert not ckpt.exists() and not out.exists()


@pytest.mark.parametrize(
    "flag, extra",
    [
        ("--model", ["--standard", "--p", "1", "--model", "{model}"]),
        ("--components", ["--standard", "--p", "1", "--components", "2"]),
        ("--matrix", ["--standard", "--p", "1", "--matrix", "{matrix}"]),
        ("--p", ["--model", "{model}", "--components", "2", "--matrix", "{matrix}", "--p", "2"]),
        ("--p", ["--standard"]),
        ("--matrix", ["--model", "{model}", "--components", "2"]),
    ],
)
def test_evaluate_refuses_the_other_mode_s_flags(tmp_path, capsys, flag, extra):
    """A flag of the other mode is refused, and so is a flag the chosen mode needs but lacks."""
    graphs, matrix, model = tmp_path / "g.graphs", tmp_path / "m.csv", tmp_path / "model.pca"
    graphs.write_text("# graph-set v1\n\n2 1\n0 1 1.0\n")
    matrix.write_text("graph_id,gamma_1,gamma_2,beta_1,beta_2\n"
                      "a,0.1,0.5,0.3,0.2\nb,0.3,0.2,0.6,0.1\nc,0.6,0.4,0.2,0.3\n")
    assert run("fit-pca", "--matrix", matrix, "--out", model) == 0
    capsys.readouterr()
    ckpt, out = tmp_path / "r.ckpt", tmp_path / "r.csv"
    argv = [a.format(model=model, matrix=matrix) for a in extra]
    assert run("evaluate", "--graphs", graphs, *argv, "--checkpoint", ckpt, "--out", out, "--workers", "1") == 1
    mode = "--standard" if "--standard" in extra else "without --standard"
    refusal = "does not take" if flag in extra else "needs"
    assert f"evaluate {mode} {refusal} {flag}" in capsys.readouterr().err
    assert not ckpt.exists() and not out.exists()

@pytest.mark.parametrize("damage", ["nan mean", "nan component", "nan eigenvalue", "truncated"])
def test_evaluate_refuses_a_model_that_is_not_a_finite_full_basis(tmp_path, capsys, damage):
    graphs = tmp_path / "g.graphs"
    graphs.write_text("# graph-set v1\n\n2 1\n0 1 1.0\n")
    matrix, model = tmp_path / "m.csv", tmp_path / "model.pca"
    matrix.write_text("graph_id,gamma_1,gamma_2,beta_1,beta_2\n"
                      "a,0.1,0.5,0.3,0.2\nb,0.3,0.2,0.6,0.1\nc,0.6,0.4,0.2,0.3\nd,0.2,0.1,0.5,0.4\n")
    assert run("fit-pca", "--matrix", matrix, "--out", model) == 0
    payload = json.loads(model.read_text())
    if damage == "nan mean":
        payload["mean"][0] = float("nan")
    elif damage == "nan component":
        payload["components"][1][0] = float("nan")
    elif damage == "nan eigenvalue":
        payload["eigenvalues"][0] = float("nan")
    else:
        del payload["components"][-1], payload["eigenvalues"][-1]
    model.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run("evaluate", "--graphs", graphs, "--model", model, "--components", "2",
               "--matrix", matrix, "--out", tmp_path / "r.csv", "--workers", "1") == 1
    assert f"error: {model}: " in capsys.readouterr().err


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


CRASHED = 75  # the exit status of a child stopped at its planned write
PLACEHOLDER = b"placeholder, not an artifact\n"


def run_until_write(argv, n):
    """Fork a child that runs `main(argv)` and exits at its n-th write, before it lands.

    A write is an `os.replace` (the last step of every atomic artifact write) or a
    `Checkpoint.add`. Returns the child's pid and exit status: CRASHED if it reached
    the n-th write, else what `main` returned.
    """
    pid = os.fork()
    if pid == 0:
        code = 99
        try:
            writes = itertools.count(1)

            def crash_at_n(real):
                def write(*args, **kwargs):
                    if next(writes) == n:
                        os._exit(CRASHED)
                    return real(*args, **kwargs)
                return write

            os.replace = crash_at_n(os.replace)
            Checkpoint.add = crash_at_n(Checkpoint.add)
            code = run(*argv)
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    return pid, os.waitstatus_to_exitcode(status)


def assert_each_crash_leaves_old_or_complete(root, argv, outputs, checkpoint=None):
    """Crash `argv` at each of its writes in turn, with every output holding PLACEHOLDER and no checkpoint.

    After each crash an output holds PLACEHOLDER or the fresh run's bytes, the checkpoint is
    absent or a prefix of the fresh one, and the only other new files are a crashed child's
    `.<name>.<pid>.tmp`; a rerun then writes the fresh run's bytes, the checkpoint's included.
    """
    artifacts = [*outputs, *([checkpoint] if checkpoint else [])]
    assert run(*argv) == 0
    fresh = {path: path.read_bytes() for path in artifacts}
    crashed = set()
    for n in itertools.count(1):
        for path in outputs:
            path.write_bytes(PLACEHOLDER)
        if checkpoint:
            checkpoint.unlink()
        listing = set(root.rglob("*"))
        pid, code = run_until_write(argv, n)
        if code == 0:  # done before an n-th write, so every write has had its crash
            break
        assert code == CRASHED, f"{argv[0]} exited {code} before its write {n}"
        crashed.add(pid)
        for path in outputs:
            assert path.read_bytes() in (PLACEHOLDER, fresh[path]), f"{path.name} torn by a crash at write {n}"
        if checkpoint and checkpoint.exists():
            kept = checkpoint.read_bytes()
            assert fresh[checkpoint].startswith(kept) and kept.endswith(b"\n"), f"checkpoint after write {n}"
        temps = {path.with_name(f".{path.name}.{pid}.tmp") for path in outputs for pid in crashed}
        assert set(root.rglob("*")) - listing - {checkpoint} <= temps, f"stray files after a crash at write {n}"
        assert run(*argv) == 0
        assert {path: path.read_bytes() for path in artifacts} == fresh, f"rerun after a crash at write {n}"
    assert {path: path.read_bytes() for path in artifacts} == fresh
    assert len(crashed) >= len(artifacts)  # at least one write per artifact


def test_a_crash_at_any_write_leaves_each_artifact_as_it_was_or_complete(tmp_path, capsys):
    # every write of every subcommand at --workers 1; fsync and a pool's workers are out of scope
    graphs, matrix, model = tmp_path / "g.graphs", tmp_path / "m.csv", tmp_path / "model.pca"
    pca, std1 = tmp_path / "pca.csv", tmp_path / "std1.csv"
    one = ["--workers", "1"]
    sweep = functools.partial(assert_each_crash_leaves_old_or_complete, tmp_path)
    sweep(["gen-graphs", "--n", "4", "--weighted", "--out", graphs], [graphs])
    records, ckpt = tmp_path / "r.csv", tmp_path / "t.ckpt"
    sweep(["train", "--graphs", graphs, "--p", "2", "--max-evals", "40", *one, "--out", matrix,
           "--records", records, "--checkpoint", ckpt], [matrix, records], ckpt)
    sweep(["fit-pca", "--matrix", matrix, "--out", model], [model])
    ckpt = tmp_path / "pca.ckpt"
    sweep(["evaluate", "--graphs", graphs, "--model", model, "--components", "2", "--matrix", matrix,
           "--restarts", "2", "--max-evals", "30", *one, "--out", pca, "--checkpoint", ckpt], [pca], ckpt)
    ckpt = tmp_path / "std1.ckpt"
    sweep(["evaluate", "--standard", "--graphs", graphs, "--p", "1", "--max-evals", "30", *one,
           "--out", std1, "--checkpoint", ckpt], [std1], ckpt)
    comparison = tmp_path / "c.json"
    sweep(["compare", "--pca", pca, "--baseline", std1, "--kind", "same_params", "--out", comparison],
          [comparison])
    write_report_records(tmp_path / "runs")
    report = tmp_path / "report" / "report.md"
    report.parent.mkdir()
    scatters = [report.parent / scatter_filename(*config) for config in REPORT_CONFIGURATIONS]
    sweep(["report", "--records-dir", tmp_path / "runs", "--out", report], [*scatters, report])
    capsys.readouterr()


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


def test_a_checkpoint_is_not_resumed_across_a_code_change(tmp_path):
    # a copy of the package trains with a checkpoint, then resumes unchanged, then with COBYLA's first radius changed
    src = tmp_path / "src"
    shutil.copytree(Path(qaoa_pca.__file__).parent, src / "qaoa_pca", ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(child_env(), PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    graphs, ckpt = tmp_path / "g.graphs", tmp_path / "train.ckpt"
    assert run("gen-graphs", "--n", "4", "--out", graphs) == 0

    def train(out, *extra):
        argv = ["train", "--graphs", graphs, "--p", "1", "--workers", "1", "--out", out, *extra]
        subprocess.run([sys.executable, "-m", "qaoa_pca.cli", *map(str, argv)], cwd=tmp_path, env=env,
                       capture_output=True, check=True, timeout=300)
        return out.read_bytes()

    first = train(tmp_path / "first.csv", "--checkpoint", ckpt)
    lines = ckpt.read_text().splitlines()
    assert len(lines) == 6
    assert train(tmp_path / "resumed.csv", "--checkpoint", ckpt) == first
    assert ckpt.read_text().splitlines() == lines  # every line reused, none appended

    cobyla = src / "qaoa_pca" / "cobyla.py"
    text = cobyla.read_text()
    assert "RHOBEG, RHOEND = 0.5, 1e-4" in text
    cobyla.write_text(text.replace("RHOBEG, RHOEND = 0.5, 1e-4", "RHOBEG, RHOEND = 0.37, 1e-4"))
    changed = train(tmp_path / "changed.csv", "--checkpoint", ckpt)
    assert changed == train(tmp_path / "fresh.csv") != first
    after = ckpt.read_text().splitlines()
    assert after[:6] == lines and len(after) == 12  # every graph recomputed and appended


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
    assert "k_components must be in 1..1 for p=1" in capsys.readouterr().err


def test_config_digest_is_pinned(tmp_path):
    # the `# config` value of a fixed call; artifacts written earlier must keep matching it
    graphs = tmp_path / "hand.graphs"
    graphs.write_text("# graph-set v1\n\n3 2\n0 1 1.0\n1 2 0.5\n")
    train = ["train", "--graphs", str(graphs), "--p", "2", "--seed", "7", "--max-evals", "50",
             "--out", str(tmp_path / "m.csv"), "--no-timestamp"]
    standard = ["evaluate", "--graphs", str(graphs), "--standard", "--p", "1",
                "--out", str(tmp_path / "r.csv"), "--workers", "1"]
    assert _args_hash(build_parser().parse_args(train)) == "88ec1a9a3b58"
    assert _args_hash(build_parser().parse_args(standard)) == "7bd96e06549a"
    # --no-timestamp does nothing, so it leaves the digest alone
    assert _args_hash(build_parser().parse_args(train[:-1])) == "88ec1a9a3b58"
    assert _args_hash(build_parser().parse_args(standard + ["--no-timestamp"])) == "7bd96e06549a"
    # the reduced mode hashes its model and matrix by content, beside the flags
    model, matrix = tmp_path / "hand.model", tmp_path / "hand.csv"
    model.write_text('{"format": "pca-model/1", "p": 1, "degenerate": false, "mean": [0.5, 0.25],'
                     ' "eigenvalues": [2.0, 1.0], "components": [[1.0, 0.0], [0.0, 1.0]]}\n')
    matrix.write_text("graph_id,gamma_1,beta_1\nn03k000000000003,0.5,0.25\nn02k000000000001,0.75,0.5\n")
    reduced = ["evaluate", "--graphs", str(graphs), "--model", str(model), "--components", "1",
               "--matrix", str(matrix), "--restarts", "3", "--seed", "5", "--out", str(tmp_path / "q.csv")]
    assert _args_hash(build_parser().parse_args(reduced)) == "0fb0f23c5cbc"


def test_exit_codes_on_bad_usage(tmp_path, capsys):
    assert run("gen-graphs", "--n", "4", "--out", tmp_path / "x", "--frobnicate") == 1
    assert run("no-such-command") == 1
    assert run("gen-graphs", "--n", "9", "--count", "1", "--out", tmp_path / "y") == 1  # keys stop at 8
    assert run("train", "--graphs", tmp_path / "absent.graphs", "--p", "2",
               "--out", tmp_path / "m.csv") == 1
    assert run("--help") == 0
    capsys.readouterr()


def test_missing_output_directory_fails_before_any_work(tmp_path, capsys):
    graphs, ckpt = tmp_path / "g.graphs", tmp_path / "t.ckpt"
    assert run("gen-graphs", "--n", "4", "--out", graphs, "--no-timestamp") == 0
    capsys.readouterr()
    absent = tmp_path / "absent"
    assert run("train", "--graphs", graphs, "--p", "1", "--max-evals", "60", "--checkpoint", ckpt,
               "--out", absent / "m.csv", "--workers", "1") == 1
    assert f"--out: directory {str(absent)!r} does not exist" in capsys.readouterr().err
    assert not ckpt.exists()  # no graph was computed
    for flag in ("--records", "--checkpoint"):
        assert run("train", "--graphs", graphs, "--p", "1", "--max-evals", "60", flag, absent / "x",
                   "--out", tmp_path / "m.csv", "--workers", "1") == 1
        assert f"{flag}: directory {str(absent)!r} does not exist" in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()
    # an output path that names an existing directory fails the same way
    taken = tmp_path / "taken"
    taken.mkdir()
    for flag in ("--out", "--records", "--checkpoint"):
        outputs = {"--out": tmp_path / "m.csv", "--checkpoint": ckpt, flag: taken}
        argv = [a for pair in outputs.items() for a in pair]
        assert run("train", "--graphs", graphs, "--p", "1", "--max-evals", "60", *argv, "--workers", "1") == 1
        assert f"{flag}: {str(taken)!r} is a directory" in capsys.readouterr().err
        assert not ckpt.exists() and not (tmp_path / "m.csv").exists()  # no graph was computed


@pytest.mark.parametrize(
    "call, other",
    [
        ("train --graphs t/g.graphs --p 1 --checkpoint t.ckpt --out m.csv --records m.csv", "--out"),
        ("fit-pca --matrix m.csv --out m.csv", "--matrix"),
        ("evaluate --graphs t/g.graphs --standard --p 1 --out m.csv --checkpoint m.csv", "--out"),
        ("train --graphs t/g.graphs --p 1 --out m.csv --checkpoint ./t/../t/g.graphs", "--graphs"),
    ],
    ids=["train", "fit-pca", "evaluate", "train-checkpoint"],
)
def test_output_naming_another_flag_s_file_fails_before_any_work(tmp_path, monkeypatch, capsys, call, other):
    monkeypatch.chdir(tmp_path)
    Path("t").mkdir()
    assert run("gen-graphs", "--n", "4", "--out", "t/g.graphs") == 0
    write_matrix(Path("m.csv"), ["a", "b", "c"], np.array([[0.1, 0.2], [0.3, 0.1], [0.2, 0.4]]))
    *argv, flag, path = call.split()  # the last flag is the one refused
    before = Path(path).read_bytes()
    assert run(*argv, flag, path, "--workers", "1") == 1
    assert f"{flag} and {other} name the same file {path!r}" in capsys.readouterr().err
    assert Path(path).read_bytes() == before
    assert not Path("t.ckpt").exists()  # no graph was computed


def seedless_calls(tmp_path):
    """A valid call of each subcommand that reads no seed, by name."""
    matrix = tmp_path / "m.csv"
    write_matrix(matrix, ["a", "b", "c"], np.array([[0.1, 0.2], [0.3, 0.1], [0.2, 0.4]]))
    pca, std = tmp_path / "pca.csv", tmp_path / "std.csv"
    write_records(pca, synth_records(1, "pca", 2, 2))
    write_records(std, synth_records(2, "standard", 2, 4))
    write_report_records(tmp_path / "runs")
    return {
        "fit-pca": ["fit-pca", "--matrix", matrix, "--out", tmp_path / "model.pca"],
        "compare": ["compare", "--pca", pca, "--baseline", std, "--kind", "same_layers",
                    "--out", tmp_path / "c.json"],
        "report": ["report", "--records-dir", tmp_path / "runs", "--out", tmp_path / "report.md"],
    }


@pytest.mark.parametrize("command", ["fit-pca", "compare", "report"])
def test_seedless_subcommands_refuse_seed_and_log_none(tmp_path, capsys, command):
    argv = seedless_calls(tmp_path)[command]
    assert run(*argv, "--seed", "3") == 1
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert run(*argv) == 0
    logged = [line for line in capsys.readouterr().err.splitlines() if ": config " in line]
    assert len(logged) == 1 and logged[0].startswith(f"{command}: config ") and " seed " not in logged[0]


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_is_a_usage_error(tmp_path, capsys, workers):
    out = tmp_path / "four.graphs"
    assert run("gen-graphs", "--n", "4", "--workers", workers, "--out", out) == 1
    assert "--workers: expected a process count of at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_workers_default_to_the_cpus_this_process_may_run_on(tmp_path, monkeypatch):
    # the affinity mask, not the machine's core count, as perfbench/workloads.py nproc() counts; starts no process
    argv = ["gen-graphs", "--n", "4", "--out", str(tmp_path / "g.graphs")]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert build_parser().parse_args(argv).workers == 1
    monkeypatch.delattr(os, "sched_getaffinity")  # platforms without it count every core
    assert build_parser().parse_args(argv).workers == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert build_parser().parse_args(argv).workers == 1


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


def test_train_rejects_an_edgeless_record_at_its_line(tmp_path, capsys):
    graphs = tmp_path / "empty.graphs"
    graphs.write_text("# graph-set v1\n\n2 1\n0 1 1.0\n\n2 0\n")
    out = tmp_path / "m.csv"
    assert run("train", "--graphs", graphs, "--p", "2", "--out", out, "--workers", "1") == 1
    assert f"{graphs}:6: edge count must be at least 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_train_and_evaluate_refuse_an_empty_graph_set(tmp_path, capsys):
    graphs = tmp_path / "none.graphs"
    graphs.write_text("# graph-set v1\n")
    out = tmp_path / "out.csv"
    assert run("train", "--graphs", graphs, "--p", "1", "--out", out, "--workers", "1") == 1
    assert "graph set is empty" in capsys.readouterr().err
    assert run("evaluate", "--graphs", graphs, "--standard", "--p", "1", "--out", out, "--workers", "1") == 1
    assert "graph set is empty" in capsys.readouterr().err
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



def test_compare_refuses_a_baseline_its_kind_does_not_name(tmp_path, capsys):
    # same_layers against a p=1 baseline would write a row that claims a depth-2 baseline
    pca, std1 = tmp_path / "pca.csv", tmp_path / "std1.csv"
    write_records(pca, [RunRecord("n05k000000000001", "pca", 2, 2, 5, 0.5, (0.0,) * 4)])
    write_records(std1, [RunRecord("n05k000000000001", "standard", 1, 2, 9, 0.6, (0.0,) * 2)])
    out = tmp_path / "c.json"
    assert run("compare", "--pca", pca, "--baseline", std1, "--kind", "same_layers", "--out", out) == 1
    assert "same_layers needs baseline layers 2, got [1]" in capsys.readouterr().err
    assert not out.exists()
    assert run("compare", "--pca", pca, "--baseline", std1, "--kind", "same_params", "--out", out) == 0

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


def write_report_records(records_dir):
    """Every records file `report` reads; each configuration is seeded by its index."""
    records_dir.mkdir()
    for p in (1, 2, 4, 8):
        write_records(records_dir / standard_records_filename(p),
                      synth_records(100 + p, "standard", p, 2 * p))
    for i, (ts, p, k) in enumerate(REPORT_CONFIGURATIONS):
        write_records(records_dir / pca_records_filename(ts, p, k), synth_records(i, "pca", p, k))


def test_report_structure(tmp_path, capsys):
    records_dir = tmp_path / "runs"
    write_report_records(records_dir)

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


def test_report_writes_nothing_unless_every_configuration_reads(tmp_path, capsys):
    records_dir = tmp_path / "runs"
    write_report_records(records_dir)
    ts, p, k = REPORT_CONFIGURATIONS[-1]
    (records_dir / pca_records_filename(ts, p, k)).unlink()
    assert run("report", "--records-dir", records_dir, "--out", tmp_path / "report.md") == 1
    assert pca_records_filename(ts, p, k) in capsys.readouterr().err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["runs"]  # no scatter file, no report


@pytest.mark.parametrize("target", ["records", "scatter"])
def test_report_refuses_out_that_is_one_of_its_own_files(tmp_path, capsys, target):
    # the report must overwrite neither a records file it reads nor a scatter file it writes
    records_dir = tmp_path / "runs"
    write_report_records(records_dir)
    before = {f.name: f.read_bytes() for f in records_dir.iterdir()}
    ts, p, k = REPORT_CONFIGURATIONS[0]
    out = records_dir / standard_records_filename(p) if target == "records" else tmp_path / scatter_filename(ts, p, k)
    assert run("report", "--records-dir", records_dir, "--out", out) == 1
    assert "--out" in capsys.readouterr().err
    assert {f.name: f.read_bytes() for f in records_dir.iterdir()} == before
    assert sorted(f.name for f in tmp_path.iterdir()) == ["runs"]  # no scatter file, no report


def test_report_missing_records_file(tmp_path, capsys):
    records_dir = tmp_path / "runs"
    records_dir.mkdir()
    assert run("report", "--records-dir", records_dir, "--out", tmp_path / "r.md") == 1
    err = capsys.readouterr().err
    assert "pca_unweighted_p2_k2.csv" in err
