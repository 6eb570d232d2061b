"""Smoke test of the benchmark at minimal size.

    python3 -m pytest bench/test_smoke.py

Runs every workload for one small cycle, untraced and traced, and checks
that the metrics named in BENCHMARK.json come out with their units, that
failed_frac is computed, that every recorded span has a non-negative self
time, and that the benchmark refuses to run without the library sources.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import worker  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

SMALL = {
    "wp-bs12": {"random_buckets": [[1, 16], [17, 32]], "trivial_buckets": [[1, 16]],
                "words_per_bucket": 1, "traced_cycles": 1},
    "verify-balls": {"jobs": [
        {"structure": "crs:z2", "radius": 2},
        {"structure": "crs:bs12", "radius": 1},
        {"structure": "bs1p:2", "radius": 2},
        {"structure": "shortlex-ac:z2:4:2", "radius": 2},
        {"structure": "ac:z2", "radius": 3, "k": 2},
    ]},
    "fill-bs12": {"prefix_nf_buckets": [[6, 12]], "words_per_bucket": 2, "commutator_n": [4, 5]},
    "cli-mix": {"traced_cycles": 1},
}


def small_workload(name: str):
    params = copy.deepcopy(worker.SPEC["workloads"][name])
    params.update(SMALL[name])
    return worker.WORKLOADS[name](params, seed=1)


def units(entries) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in entries}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_untraced_metrics(name, tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))  # for the set-up probes
    wl = small_workload(name)
    metrics, res, notes = worker.untraced(wl, 0, tmp_path)
    assert {k: u for k, (_, u) in metrics.items()} == units(BENCHMARK["end_to_end"])
    assert all(v > 0 for v, _ in metrics.values())
    known = sum(wl.known_defect(op) for op in wl.cycle(0))
    assert res.ops == len(wl.cycle(0))
    assert res.failed_frac == known / res.ops
    assert res.unexpected == 0
    assert any(n.startswith("failed_frac = ") for n in notes)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_metrics_and_spans(name, tmp_path):
    metrics, res, notes = worker.traced(small_workload(name), tmp_path, seed=1)
    assert {k: u for k, (_, u) in metrics.items()} == units(BENCHMARK["per_layer"])
    assert res.unexpected == 0
    spans = (ROOT / ".bench_out" / f"spans-{name}-seed1.jsonl").read_text().splitlines()
    assert spans
    for line in spans:
        idx, span, start, end, parent, op, own = json.loads(line)
        assert start <= end and own >= 0
    assert any(n.startswith("prediction: ") for n in notes)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "cli-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
