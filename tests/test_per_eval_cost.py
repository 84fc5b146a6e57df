"""tools/per_eval_cost.py: one interleaved round of this tree against itself, its spreads, and its refusal of an engine
or a canonical key that differs."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parents[1]


def listing(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


def test_per_eval_cost_runs_one_round(tmp_path):
    # run a copy of the tool, its perfbench/ and src/, with bytecode writing on: the copied perfbench/ must not change
    shutil.copytree(ROOT / "tools", tmp_path / "tools", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    before = listing(tmp_path / "perfbench")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    out = subprocess.run(
        [sys.executable, str(tmp_path / "tools" / "per_eval_cost.py"), "--reps", "1"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    assert listing(tmp_path / "perfbench") == before
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["nproc"] >= 1 and result["python"] and result["numpy"]
    assert result["reps"] == 1
    # 4 graphs x 5 TQA starts at p=2, replayed on both trees after they matched every point
    assert result["evals_per_rep"] > 20
    assert result["minimize_us_per_eval"]["base"] > 0 and result["minimize_us_per_eval"]["head"] > 0
    cells = result["objective_us_per_call"]
    assert sorted(cells) == sorted(f"n={n},p={p}" for n in range(4, 9) for p in (1, 2, 4, 8))
    assert all(c["base"] > 0 and c["head"] > 0 for c in cells.values())
    keys = result["canonical_key_us_per_call"]
    assert sorted(keys) == ["n=6", "n=7", "n=8"]
    assert all(c["base"] > 0 and c["head"] > 0 for c in keys.values())
    # one round has no spread: every interquartile range is there, and 0
    every = (result["minimize_us_per_eval"], *cells.values(), *keys.values())
    spreads = [c[f"{t}_iqr"] for c in every for t in ("base", "head")]
    assert spreads and all(s == 0 for s in spreads)
    assert "COBYLA + minimize" in out.stderr
    assert "canonical_key, µs per call" in out.stderr


def test_compare_gives_each_tree_s_interquartile_range():
    spec = importlib.util.spec_from_file_location("per_eval_cost", ROOT / "tools" / "per_eval_cost.py")
    tool = importlib.util.module_from_spec(spec)
    with mock.patch.object(sys, "dont_write_bytecode", True):  # the tool sets it for the process
        spec.loader.exec_module(tool)
    got = tool.compare({"base": [5.0, 1.0, 4.0, 2.0, 3.0], "head": [2.0, 2.0, 2.0]})
    assert got == {"base": 3.0, "head": 2.0, "base_iqr": 2.0, "head_iqr": 0.0, "head_faster_rounds": 2}
    assert tool.cell(got, 1) == "3.0 [2.0] -> 2.0 [0.0]"


def run_against_patched_base(tmp_path, module: str, patch: str) -> subprocess.CompletedProcess:
    """One round of the tool against a copy of this tree's package with `patch` appended to `module`.py."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "qaoa_pca", src / "qaoa_pca", ignore=shutil.ignore_patterns("__pycache__"))
    with open(src / "qaoa_pca" / f"{module}.py", "a", encoding="utf-8") as fh:
        fh.write(patch)
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "per_eval_cost.py"), "--base", str(src), "--reps", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("name", ["objective", "evolve"])
def test_per_eval_cost_refuses_a_tree_whose_engine_differs(tmp_path, name):
    # a base tree whose engine moves one result by a rounding step must stop the script before it times anything
    patch = f"\n_exact = {name}\n\n\ndef {name}(diag, params):\n    return _exact(diag, params) * (1 + 2**-52)\n"
    out = run_against_patched_base(tmp_path, "engine", patch)
    assert out.returncode != 0
    assert f"n=4, p=1: {name} gives" in out.stderr
    assert out.stdout == ""


def test_per_eval_cost_refuses_a_tree_whose_canonical_key_differs(tmp_path):
    # a base tree whose 8-vertex keys are one off, and only those, must stop the script before it times anything
    patch = (
        "\n_exact = canonical_key\n\n\ndef canonical_key(g):\n"
        "    key = _exact(g)\n    return CanonicalKey(key.n, key.bits + (key.n == 8))\n"
    )
    out = run_against_patched_base(tmp_path, "graphs", patch)
    assert out.returncode != 0
    assert "n=8: canonical_key gives" in out.stderr
    assert "n=6:" not in out.stderr and "n=7:" not in out.stderr
    assert out.stdout == ""
