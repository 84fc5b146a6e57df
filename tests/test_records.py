import os

import numpy as np
import pytest

from qaoa_pca import records
from qaoa_pca.records import (
    ComparisonRow,
    RecordFormatError,
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
    with pytest.raises(RecordFormatError):
        read_records(path)


def test_records_malformed_row(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text("graph_id,method,layers,param_count,evals,approx_ratio\na,standard,2\n")
    with pytest.raises(RecordFormatError):
        read_records(path)


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


def test_matrix_shape_mismatch(tmp_path):
    with pytest.raises(ValueError):
        write_matrix(tmp_path / "m.csv", ["a", "b"], np.zeros((3, 4)))
    with pytest.raises(ValueError):
        write_matrix(tmp_path / "m.csv", ["a"], np.zeros((1, 3)))


def test_matrix_bad_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("graph_id,g1,b1\nX,0.0,0.0\n")
    with pytest.raises(RecordFormatError):
        read_matrix(path)


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


def test_atomic_write_bytes_and_mode_match_plain_open(tmp_path):
    text = "a,b\n1,2\n"
    with open(tmp_path / "plain.csv", "w", encoding="utf-8") as fh:
        fh.write(text)
    write_text_atomic(tmp_path / "atomic.csv", text)
    assert (tmp_path / "atomic.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    assert os.stat(tmp_path / "atomic.csv").st_mode == os.stat(tmp_path / "plain.csv").st_mode
