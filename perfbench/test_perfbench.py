"""Tests of the benchmark itself: tracer coverage, exact repeatability of the
per-layer counts, self times from spans, and refusal to run without sources.

Run with: PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import trace_layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_tracer_replaces_every_binding():
    import vermajet
    from vermajet import discriminant, filtration, jets, linalg, plethysm, polynomials

    recorder = trace_layers.Recorder()
    originals = [trace_layers.resolve(layer) for layer in trace_layers.LAYERS]
    before = trace_layers.stale_bindings(originals)
    # Copies made by `from .x import name` are found, not just definitions.
    for where in ("vermajet.filtration.act", "vermajet.jets.det",
                  "vermajet.discriminant.kernel_basis", "vermajet.act",
                  "Poly.__rmul__"):
        assert any(w.endswith(where) for w in before), where

    act = plethysm.act
    with recorder:
        assert trace_layers.stale_bindings(recorder.originals) == []
        assert filtration.act is not act and vermajet.act is filtration.act
        assert polynomials.Poly.__rmul__ is polynomials.Poly.__mul__
        assert discriminant.kernel_basis is linalg.kernel_basis is jets.kernel_basis
        # A single binding left pointing at the original must be reported.
        wrapper = filtration.act
        filtration.act = act
        try:
            assert trace_layers.stale_bindings(recorder.originals) == ["vermajet.filtration.act"]
        finally:
            filtration.act = wrapper
    assert filtration.act is act and vermajet.act is act
    assert trace_layers.stale_bindings(originals) == before


def test_self_time_is_duration_minus_covered_children():
    recorder = trace_layers.Recorder()
    outer, inner = recorder._index("outer"), recorder._index("inner")
    # outer [0, 10]; two inner children [1, 3] (counting until 3.5) and [5, 6].
    for start, end, done, parent, name in ((0.0, 10.0, 10.0, -1, outer),
                                           (1.0, 3.0, 3.5, 0, inner),
                                           (5.0, 6.0, 6.0, 0, inner)):
        recorder.start.append(start)
        recorder.end.append(end)
        recorder.done.append(done)
        recorder.parent.append(parent)
        recorder.name.append(name)
    times = recorder.layer_times()
    assert times["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 10.0 - 2.5 - 1.0}
    assert times["inner"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}


def _traced_worker(tmp_path: Path, tag: str) -> tuple[dict, list[dict]]:
    spans = tmp_path / f"{tag}.jsonl"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", "desk",
                           "--seed", "0", "--spans", str(spans), "--run", tag],
                          env=env, capture_output=True, text=True, timeout=170, check=True)
    record = json.loads(done.stdout.strip().splitlines()[-1])
    lines = [json.loads(line) for line in spans.read_text().splitlines()]
    return record, lines


def test_traced_counts_repeat_exactly(tmp_path):
    first, spans = _traced_worker(tmp_path, "a")
    second, _ = _traced_worker(tmp_path, "b")
    assert first["failed"] == second["failed"] == 0

    def counts(record):
        return {k: v for k, v in record["layers"].items() if not k.endswith("_s")}

    assert counts(first) == counts(second)
    assert counts(first)["jets.section_space.calls"] == 90
    assert counts(first)["jets.plucker_polynomial.calls"] == 4640
    assert len(spans) == sum(v for k, v in first["layers"].items() if k.endswith(".calls")) + 1
    assert {s["name"] for s in spans if s["parent"] is None} == {"job.suite"}
    assert all(s["workload"] == "desk" and s["run"] == "a" for s in spans)
    assert all(s["start"] <= s["end"] <= s["done"] for s in spans)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout == ""
