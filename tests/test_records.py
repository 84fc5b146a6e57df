import os

import numpy as np
import pytest

from qaoa_pca import records
from qaoa_pca.records import (
    RECORDS_FIELDS,
    ComparisonRow,
    RunRecord,
    matrix_fields,
    read_comparison,
    read_matrix,
    read_records,
    write_comparison,
    write_matrix,
    write_records,
    write_text_atomic,
)


def sample_records():
    return [
        RunRecord("n05k0000000000ab", "standard", 2, 4, 341, 0.9125, (0.1, 0.2, 0.3, 0.4)),
        RunRecord("n05k0000000000cd", "pca", 2, 2, 55, 0.1234567890123456789, (0.5, 0.6, 0.7, 0.8)),
    ]


def test_run_record_validation():
    with pytest.raises(ValueError):
        RunRecord("x", "other", 2, 4, 1, 0.5, (0.0,) * 4)
    with pytest.raises(ValueError):
        RunRecord("x", "standard", 2, 4, 1, 0.5, (0.0,) * 3)  # needs 2p angles


@pytest.mark.parametrize(
    "field, value",
    [
        ("layers", 0), ("param_count", 0), ("evals", 0), ("evals", -3),
        ("layers", True), ("param_count", False), ("evals", True), ("evals", 9.0),
        ("approx_ratio", 1), ("approx_ratio", float("nan")), ("approx_ratio", float("-inf")),
        ("best_params", (0.0, 0.0, 0, 0.0)), ("best_params", (0.0, float("nan"), 0.0, 0.0)),
    ],
)
def test_run_record_takes_only_the_types_a_checkpoint_writes(field, value):
    # counts are ints of at least 1, the ratio and each angle a finite float
    fields = dict(graph_id="x", method="standard", layers=2, param_count=4, evals=1, approx_ratio=0.5,
                  best_params=(0.0,) * 4)
    RunRecord(**fields)
    with pytest.raises(ValueError, match=field):
        RunRecord(**(fields | {field: value}))


def test_records_round_trip(tmp_path):
    path = tmp_path / "records.csv"
    write_records(path, sample_records(), provenance={"config": "abc123", "seed": 7})
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "# config abc123"
    assert lines[1] == "# seed 7"
    assert lines[2] == "graph_id,method,layers,param_count,evals,approx_ratio"
    loaded = read_records(path)
    assert [r.graph_id for r in loaded] == ["n05k0000000000ab", "n05k0000000000cd"]
    assert loaded[0].evals == 341
    # 17 significant digits survive the trip bit for bit
    assert loaded[1].approx_ratio == sample_records()[1].approx_ratio
    # best_params is not persisted in this format
    assert loaded[0].best_params == (0.0, 0.0, 0.0, 0.0)


def test_records_bad_header(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text("graph_id,method\nX,standard\n")
    with pytest.raises(ValueError, match="expected header graph_id,method,layers"):
        read_records(path)


def test_records_malformed_row(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text("graph_id,method,layers,param_count,evals,approx_ratio\na,standard,2\n")
    with pytest.raises(ValueError, match="malformed row"):
        read_records(path)


@pytest.mark.parametrize(
    "column, value",
    [
        ("layers", "x"), ("param_count", "2.5"), ("evals", ""), ("approx_ratio", "abc"), ("method", "qaoa"),
        ("approx_ratio", "nan"), ("approx_ratio", "inf"), ("layers", "0"), ("evals", "0"),
    ],
)
def test_records_bad_value_names_the_file_and_row(tmp_path, column, value):
    row = dict(zip(RECORDS_FIELDS, ["n04k000000000007", "standard", "1", "2", "9", "0.5"]))
    row[column] = value
    path = tmp_path / "records.csv"
    path.write_text(",".join(RECORDS_FIELDS) + "\n" + ",".join(row.values()) + "\n")
    with pytest.raises(ValueError) as exc:
        read_records(path)
    assert str(exc.value).startswith(f"{path}: bad row {list(row.values())!r}")


def test_matrix_fields_layout():
    assert matrix_fields(2) == ["graph_id", "gamma_1", "gamma_2", "beta_1", "beta_2"]


def test_matrix_round_trip_exact(tmp_path):
    rng = np.random.default_rng(5)
    ids = [f"n05k{i:012x}" for i in range(7)]
    rows = rng.normal(size=(7, 6))
    path = tmp_path / "params.csv"
    write_matrix(path, ids, rows, provenance={"config": "deadbeef"})
    got_ids, got_rows = read_matrix(path)
    assert got_ids == ids
    assert np.array_equal(got_rows, rows)


@pytest.mark.parametrize(
    "text, lines",
    [("", 0), ("# config deadbeef\n", 0), ("# config deadbeef\ngraph_id,gamma_1,beta_1\n", 1)],
    ids=["empty", "comment", "header"],
)
def test_matrix_without_rows_names_the_file(tmp_path, text, lines):
    # a matrix is one row of angles or more
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        read_matrix(path)
    assert str(exc.value) == f"{path}: expected a header and at least one row of angles, got {lines} lines"


def test_matrix_bad_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("graph_id,g1,b1\nX,0.0,0.0\n")
    with pytest.raises(ValueError, match="unexpected matrix header"):
        read_matrix(path)


def test_matrix_header_without_angles(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("graph_id\nX\n")
    with pytest.raises(ValueError, match="unexpected matrix header"):
        read_matrix(path)


def test_matrix_bad_value_names_the_file_and_row(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("graph_id,gamma_1,beta_1\nX,0.5,0.25\nY,0.5,abc\n")
    with pytest.raises(ValueError) as exc:
        read_matrix(path)
    assert str(exc.value).startswith(f"{path}: bad row ['Y', '0.5', 'abc']")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_matrix_non_finite_value_names_the_file_and_row(tmp_path, value):
    # float() takes these, so the file has to refuse them itself
    path = tmp_path / "m.csv"
    path.write_text(f"graph_id,gamma_1,beta_1\nX,0.5,0.25\nY,{value},0.5\n")
    with pytest.raises(ValueError) as exc:
        read_matrix(path)
    assert str(exc.value).startswith(f"{path}: bad row ['Y', '{value}', '0.5']")


def test_comparison_round_trip(tmp_path):
    row = ComparisonRow(
        training_set="unweighted",
        layers=4,
        param_count=2,
        baseline_kind="same_layers",
        n_pairs=100,
        median_evals=62.0,
        median_evals_baseline=497.5,
        p_value_evals=1.1e-17,
        rbc_evals=-1.0,
        median_ratio=0.8812,
        median_ratio_baseline=0.9034,
        p_value_ratio=3.4e-4,
        rbc_ratio=-0.41,
    )
    path = tmp_path / "cmp.json"
    write_comparison(path, row)
    assert read_comparison(path) == row


def test_failed_write_leaves_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "recs.csv"
    write_records(path, sample_records())
    before = path.read_bytes()
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic(path, "x" * 100_000 + "\ud800")  # fails while encoding the text
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["recs.csv"]

    def refuse(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(records.os, "replace", refuse)
    with pytest.raises(OSError):
        write_records(path, sample_records()[:1])  # the temporary file is complete, the swap fails
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["recs.csv"]


def test_atomic_write_syncs_the_data_before_the_rename_and_the_directory_after(tmp_path, monkeypatch):
    calls = []  # (call, inode of the file or directory it acts on)
    fsync, replace = os.fsync, os.replace

    def logged_fsync(fd):
        calls.append(("fsync", os.fstat(fd).st_ino))
        fsync(fd)

    def logged_replace(src, dst):
        calls.append(("replace", os.stat(src).st_ino))
        replace(src, dst)

    monkeypatch.setattr(records.os, "fsync", logged_fsync)
    monkeypatch.setattr(records.os, "replace", logged_replace)
    write_text_atomic(tmp_path / "atomic.csv", "a,b\n1,2\n")
    file_ino, dir_ino = os.stat(tmp_path / "atomic.csv").st_ino, os.stat(tmp_path).st_ino
    directory = [("fsync", dir_ino)] if os.name == "posix" else []
    assert calls == [("fsync", file_ino), ("replace", file_ino)] + directory


def test_atomic_write_bytes_and_mode_match_plain_open(tmp_path):
    text = "a,b\n1,2\n"
    with open(tmp_path / "plain.csv", "w", encoding="utf-8") as fh:
        fh.write(text)
    write_text_atomic(tmp_path / "atomic.csv", text)
    assert (tmp_path / "atomic.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    assert os.stat(tmp_path / "atomic.csv").st_mode == os.stat(tmp_path / "plain.csv").st_mode
