"""The paper's metric, pinned: the benchmark's train-p2 and eval-pca-p8 records, rebuilt.

Evaluation counts are the paper's metric, and only the benchmark's
reference comparison checked them. Here each workload's stage runs once, as
perfbench/workloads.py's own `BUILDERS` build it (loaded read-only by
`oracles.load_benchmark`), with workers=1 and no checkpoint. Every record must
have the evaluation count of perfbench/reference/<workload>.json, and a ratio
within 1e-9 of it. The references hold no angles, so a digest of the
winners' `best_params` is pinned too: a change that keeps the counts but
moves the winning angles fails.

These numbers hold for one arithmetic, not for one numpy version (ROADMAP
item 10). They were made with numpy 2.4.6 on OpenBLAS 0.3.31 running its
SkylakeX kernel (x86_64, AVX-512). OpenBLAS picks its kernel for the CPU at
run time, and another kernel moves the last bits of `objective` and of
COBYLA's products, and with them the counts: under OPENBLAS_CORETYPE=Haswell
12 of the 16 records differ. On such a host this test fails, and the failure
says so; that comes from the host, not from a change to the package. Nothing
under perfbench/ is written.
"""

import hashlib
import json

import numpy as np
import pytest

from oracles import PERFBENCH, load_benchmark

BUILDERS = load_benchmark("workloads").BUILDERS
RATIO_TOL = 1e-9  # checks.reference_match_frac's tolerance
KERNEL = "numpy 2.4.6, OpenBLAS 0.3.31 SkylakeX kernel"

# sha256 over the winners' best_params, records in graph-id order, each angle as little-endian float64
PARAMS_SHA256 = {
    "train-p2": "d2144a3b61244b95e473058a78a69007ccdfb586baa8204f5184a35f7d757f6a",
    "eval-pca-p8": "c0657d29008b92519d68f747efb66a1379352ae7be363721c2492dce466a64de",
}


def params_digest(records) -> str:
    h = hashlib.sha256()
    for rec in sorted(records, key=lambda r: r.graph_id):
        h.update(np.asarray(rec.best_params, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("workload", ["train-p2", "eval-pca-p8"], ids=["train-p2-train_p2", "eval-pca-p8-eval_pca_p8"])
def test_records_equal_the_benchmark_reference(workload):
    with open(PERFBENCH / "reference" / f"{workload}.json", encoding="utf-8") as fh:
        reference = {r["graph_id"]: r for r in json.load(fh)["records"]}
    serial = BUILDERS[workload]()
    records = serial.stage(serial.graphs, None)
    where = f"{workload} (references made with {KERNEL}; another BLAS kernel moves the counts)"
    assert sorted(rec.graph_id for rec in records) == sorted(reference), where
    for rec in records:
        want = reference[rec.graph_id]
        assert (rec.method, rec.layers, rec.param_count) == (want["method"], want["layers"], want["param_count"])
        assert rec.evals == want["evals"], f"{where}: {rec.graph_id} evals {rec.evals} != {want['evals']}"
        assert abs(rec.approx_ratio - want["approx_ratio"]) <= RATIO_TOL, (
            f"{where}: {rec.graph_id} ratio {rec.approx_ratio!r} != {want['approx_ratio']!r}"
        )
    assert params_digest(records) == PARAMS_SHA256[workload], f"{where}: the winning angles moved"
