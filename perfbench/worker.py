"""One iteration of a workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py --workload NAME --seed N
           [--spans FILE --run ID | --setup-only]

Imports vermajet, builds the job list, runs every job once and checks each
result against its pinned reference.  Prints one JSON object with the
set-up time (import and input generation), the jobs' time (first job's
start to last job's end), the peak resident memory, and the number of jobs
attempted and failed, with the failure messages.  With ``--spans`` the jobs
run under the layer tracer, the per-layer metrics are added under
``layers``, and the spans are appended to FILE as JSON lines.

A fresh interpreter per iteration keeps caches that one iteration filled
from shortening the next.

The machine's speed is not steady: on a shared 2-core host a fixed loop
took 6 ms or 12 ms depending on the second, switching every few seconds.
So a speed probe (a fixed loop of Fraction, tuple and dict work, about
2 ms) runs every PROBE_INTERVAL_S on SIGALRM and once after each phase.
Each phase reports its measured time with the probe time taken out
(``*_raw_s``) and that time rescaled to the speed at which the probe takes
REFERENCE_PROBE_S (``*_s``): raw time x REFERENCE_PROBE_S / mean probe time
during the phase.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

PROBE_INTERVAL_S = 0.1
FIRST_PROBE_S = 0.02  # early, so that the short set-up phase gets a sample
REFERENCE_PROBE_S = 0.0015


def _probe_loop() -> dict:
    acc: dict = {}
    for i in range(1, 300):
        key = tuple(sorted((i % 7, i % 5, i % 3)))
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i * i + 1, i + 7) * (i % 11 - 5)
    return acc


class SpeedProbe:
    """Samples the interpreter's current speed while work runs, and books
    the time spent probing so that phases can leave it out."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        _probe_loop()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, FIRST_PROBE_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.spent, len(self.samples)

    def phase(self, since: tuple[float, float, int]) -> tuple[float, float]:
        """(raw seconds, rescaled seconds) of the work since ``since``; one
        more sample is taken at the phase's end."""
        now, spent, _ = self.mark()
        raw = (now - since[0]) - (spent - since[1])
        self.sample()
        mean_probe = statistics.fmean(self.samples[since[2]:])
        return raw, raw * REFERENCE_PROBE_S / mean_probe


def main(argv=None) -> int:
    probe = SpeedProbe()
    probe.start()
    origin = (_T0, 0.0, 0)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", default=None, help="trace, appending spans to this file")
    parser.add_argument("--run", default="0", help="run id recorded with each span")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report only its time")
    args = parser.parse_args(argv)

    import workloads
    import vermajet  # noqa: F401  (import cost belongs to set-up)

    jobs = workloads.jobs_for(args.workload, args.seed)
    setup_raw_s, setup_s = probe.phase(origin)
    if args.setup_only:
        probe.stop()
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    recorder = None
    if args.spans:
        import trace_layers
        recorder = trace_layers.Recorder()
        recorder.install()
        stale = trace_layers.stale_bindings(recorder.originals)
        if stale:
            sys.stderr.write(f"tracer missed bindings: {stale}\n")
            return 1

    results = []
    start = probe.mark()
    for job in jobs:
        span = recorder.job(job.label) if recorder else contextlib.nullcontext()
        try:
            with span:
                results.append((True, job.call()))
        except Exception:  # a job that raises is counted as failed; the run goes on
            results.append((False, traceback.format_exc(limit=3)))
    wall_raw_s, wall_s = probe.phase(start)
    probe.stop()
    if recorder:
        recorder.uninstall()

    failures = []
    for job, (ok, value) in zip(jobs, results):
        message = job.check(value) if ok else f"raised: {value}"
        if message:
            failures.append(f"{args.workload} {job.label}: {message}")

    record = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "wall_s": wall_s,
        "wall_raw_s": wall_raw_s,
        "speed": wall_s / wall_raw_s if wall_raw_s else 1.0,
        "probes": len(probe.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(jobs),
        "failed": len(failures),
        "failures": failures,
    }
    if recorder:
        record["layers"] = trace_layers.layer_metrics(recorder)
        with open(args.spans, "a", encoding="utf-8") as handle:
            recorder.write_spans(handle, args.workload, args.run)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
