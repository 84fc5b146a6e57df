"""Smoke test of tools/per_eval_cost.py: one interleaved round of this tree against itself."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_per_eval_cost_runs_one_round():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "per_eval_cost.py"), "--reps", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["nproc"] >= 1 and result["python"] and result["numpy"]
    assert result["reps"] == 1
    # 4 graphs x 5 TQA starts at p=2, replayed on both trees after they matched every point
    assert result["evals_per_rep"] > 20
    assert result["minimize_us_per_eval"]["base"] > 0 and result["minimize_us_per_eval"]["head"] > 0
    cells = result["objective_us_per_call"]
    assert sorted(cells) == sorted(f"n={n},p={p}" for n in range(4, 9) for p in (1, 2, 4, 8))
    assert all(c["base"] > 0 and c["head"] > 0 for c in cells.values())
    assert "COBYLA + minimize" in out.stderr
