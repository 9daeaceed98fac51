"""Smoke test of the benchmark harness at tiny sample counts.

    python3 -m pytest perfbench/tests -q

Runs every workload of BENCHMARK.json untraced and traced with a handful of
samples, and checks that the last line is a well-formed correct result, that
every named metric is printed with its unit, and that the traced structural
counts match the seed's program exactly.  About a minute on two cores.
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SAMPLES = {"logistic1d-euler": 40, "advdiff-euler": 4, "logistic1d-rk4-nooracle": 40}


@pytest.fixture
def keep_sigterm():
    """run.main installs a SIGTERM handler; put the test process's back."""
    handler = signal.getsignal(signal.SIGTERM)
    yield
    signal.signal(signal.SIGTERM, handler)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace, monkeypatch, capsys, keep_sigterm):
    monkeypatch.setitem(run.WORKLOADS[workload], "num_samples", TINY_SAMPLES[workload])
    status = run.main([
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
    ])
    out = capsys.readouterr()
    assert status == 0, out.err
    lines = out.out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    named = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    printed = {tuple(line.split()[::2]) for line in lines[:-1] if len(line.split()) == 3}
    for metric in named:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert (metric["name"], metric["unit"]) in printed
    if trace:
        assert result["metrics"]["trace.structure_mismatches"]["value"] == 0
        assert "STRUCTURE CHANGED" not in out.err
    else:
        assert any(line.split()[:2] == ["fail_frac", "0.0"] for line in map(str.strip, lines))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", SPEC["workloads"][0]["name"]],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout == ""
