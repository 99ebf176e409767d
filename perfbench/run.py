"""The vermajet benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs iterations of one workload (see workloads.py) for S seconds, one at a
time, each in a fresh interpreter (worker.py), in a closed loop: the next
iteration starts when the previous one has ended.  Every job's result is
checked against its pinned reference.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where ``attempted`` and ``failed`` count jobs over all iterations.  With
``--trace 0`` the metrics are the ``end_to_end`` metrics of BENCHMARK.json,
medians over the iterations, with times rescaled to a reference machine
speed (see worker.py).  With ``--trace 1`` traced and untraced
iterations alternate and the metrics are the ``per_layer`` ones: counts
from the traced iterations (which must agree exactly) and median times,
plus the tracing overhead (median traced minus median untraced wall time).
The line before it carries the run's metadata; the full record, with every
iteration's numbers, goes to perfbench/out/, and a traced run's spans to a
JSON-lines file next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# A worker still running RUN_LIMIT_S after the run began is killed and the
# run fails, so that a run always ends within 180 seconds.
RUN_LIMIT_S = 170.0

# Set-up-only interpreters started before the iterations, so that setup_s is
# a median over at least this many set-ups even when iterations are long.
SETUP_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description="vermajet benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def metric_specs(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def run_worker(workload: str, seed: int, deadline: float, *extra: str) -> dict:
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed), *extra]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    timeout = max(deadline - time.monotonic(), 1.0)
    done = subprocess.run(command, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def src_summary() -> tuple[str, int]:
    """sha256 over the package sources, and their line count."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return digest.hexdigest(), lines


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def metadata(args) -> dict:
    src_sha256, src_lines = src_summary()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "src_sha256": src_sha256,
        "src_lines": src_lines,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def end_to_end(samples: list[dict], setups: list[dict]) -> dict[str, float]:
    return {
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "setup_s": statistics.median(s["setup_s"] for s in setups + samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Counts from the first traced iteration, times as medians rescaled
    like wall_s, and the names of counts that differ between traced
    iterations."""
    first = traced[0]["layers"]
    out = {}
    unsteady = []
    for name, value in first.items():
        values = [t["layers"][name] for t in traced]
        if name.endswith("_s"):
            out[name] = statistics.median(v * t["speed"] for v, t in zip(values, traced))
        else:
            out[name] = value
            if any(v != value for v in values):
                unsteady.append(name)
    out["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                               - statistics.median(u["wall_s"] for u in untraced))
    return out, unsteady


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vermajet" / "__init__.py").is_file():
        return fail(f"vermajet sources not found under {SRC}")
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.BUILDERS:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {', '.join(workloads.BUILDERS)}")
    if not 0 < args.seconds <= RUN_LIMIT_S / 2:
        return fail(f"--seconds must lie in (0, {RUN_LIMIT_S / 2:g}]")
    try:
        specs = metric_specs(args.trace)
    except (OSError, ValueError, KeyError) as error:
        return fail(f"cannot read the metric list from BENCHMARK.json: {error}")

    meta = metadata(args)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = OUT / f"{stem}.spans.jsonl" if args.trace else None
    if spans is not None:
        spans.unlink(missing_ok=True)

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    setups: list[dict] = []
    samples: list[dict] = []
    traced: list[dict] = []
    untraced: list[dict] = []
    try:
        if not args.trace:
            setups = [run_worker(args.workload, args.seed, deadline, "--setup-only")
                      for _ in range(SETUP_SAMPLES)]
        # Traced runs alternate traced and untraced iterations, and have at
        # least one of each.
        while (time.monotonic() - start < args.seconds
               or (args.trace and len(samples) < 2)):
            is_traced = bool(args.trace) and len(samples) % 2 == 0
            extra = ("--spans", str(spans), "--run", str(len(samples))) if is_traced else ()
            sample = run_worker(args.workload, args.seed, deadline, *extra)
            samples.append(sample)
            (traced if is_traced else untraced).append(sample)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
        return fail(f"iteration {len(samples)} failed: {error}")

    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    failures = [message for s in samples for message in s["failures"]]
    if args.trace:
        values, unsteady = per_layer(traced, untraced)
        failures += [f"count {name} differs between traced iterations" for name in unsteady]
    else:
        values = end_to_end(samples, setups)
    missing = [spec["name"] for spec in specs if spec["name"] not in values]
    if missing:
        return fail(f"metrics not computed: {missing}")
    metrics = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
               for spec in specs}
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    record = dict(meta, iterations=len(samples), failures=failures,
                  setups=setups, samples=samples, result=result)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for message in failures[:20]:
        sys.stderr.write(message + "\n")
    print(json.dumps({"meta": meta, "iterations": len(samples)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
