"""The benchmark's workloads: fixed job lists with pinned exact references.

Every job calls a public vermajet function and is checked against a value
pinned here.  A reference is an exact rank, dimension, status, or the
sha256 of exact generator strings or of the rendered desk report.  A
mismatch or exception fails that job only; the run goes on.

The workload seed feeds the sampling seeds of the jobs whose cost does not
depend on them (Jacobian and membership sample points in ``binary-forms``).
The irreducibility-witness line seed stays at 0, in ``desk`` too, because
the cost of a witness is bimodal in it: at (5,1) seeds 0-9 took 0.1-0.4 s
or 7-18 s, and at (4,1) seed 7 took 52 s against 0.02-0.07 s for the
others.  Drawing it from the workload seed would make the spread of wall
time across seeds unbounded; seed 0 keeps one Kronecker search of about
9 s in the ``witness`` workload.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable

WITNESS_SEED = 0

# sha256 of render_report(run_suite(SuiteConfig()), "json"): the default
# desk suite at seed 0, byte for byte as `vermajet suite` prints it.
DESK_REPORT_SHA256 = "0bfbf144b5f144dc34f259cd30d13586b42118b291c60768ba9a24508cc00fb6"

# (m, n, d) -> filtration dimensions through l = min(d-1, 3), and
# (Taylor rank, vanishing-jet kernel dimension) at that l and at l = d.
GRASSMANNIAN_CASES = {
    (2, 2, 4): {"dims": [1, 5, 15, 35], "taylor": {3: (35, 70), 4: (70, 35)}},
    (2, 3, 3): {"dims": [1, 7, 28], "taylor": {2: (28, 147), 3: (84, 91)}},
    (3, 3, 2): {"dims": [1, 10], "taylor": {1: (10, 165), 2: (55, 120)}},
}
ANNIHILATOR_DIMS = {(1, 4, 4, 4): 20405, (1, 5, 3, 3): 8380}

# (d, l) -> (generator count, sha256 of the generator strings joined by "\n").
ELIMINANTS = {
    (6, 1): (1, "c4f83a6acbe2a27582aabf682547407193b139f1863668a41fce520a67198883"),
    (5, 2): (6, "319533fc2abe825158513089256b495113453f35a77224be48907fd74c6dee8e"),
    (6, 2): (4, "4a138463f594a1ab233e42de98d116ea4dfe6563be207c702e6601c9ad2645ac"),
    (6, 3): (4, "ca30986cb97b27877836608d2536bb2895ab857657f880bb1e318dc96d123c5c"),
}
SAMPLED_CASES = ((6, 2), (6, 3))
JACOBIAN_SAMPLES = 5
MEMBERSHIP_SAMPLES = 10

WITNESS_STATUS = {(4, 1): "certified", (5, 1): "heuristic"}


@dataclass
class Job:
    """One call into vermajet and the check of its result.

    ``check`` returns None when the result matches its reference, and
    otherwise a message naming what differed.
    """

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]


def _expect(label: str, got, want) -> str | None:
    return None if got == want else f"{label}: got {got!r}, expected {want!r}"


def _digest(strings) -> str:
    return hashlib.sha256("\n".join(strings).encode()).hexdigest()


def desk_jobs(seed: int) -> list[Job]:
    from vermajet.suite import SuiteConfig, render_report, run_suite

    def check(report):
        digest = hashlib.sha256(render_report(report, "json").encode()).hexdigest()
        return _expect("desk report sha256", digest, DESK_REPORT_SHA256)

    return [Job("suite", lambda: run_suite(SuiteConfig(seed=WITNESS_SEED)), check)]


def grassmannian_jobs(seed: int) -> list[Job]:
    from vermajet import filtration, jets

    jobs = []
    for (m, n, d), ref in GRASSMANNIAN_CASES.items():
        l = min(d - 1, 3)
        jobs.append(Job(
            f"canonical_filtration({m},{n},{d},{l})",
            lambda m=m, n=n, d=d, l=l: filtration.canonical_filtration(m, n, d, l).dims,
            lambda dims, want=ref["dims"]: _expect("dims", dims, want)))
        for level, (rank, kernel) in ref["taylor"].items():
            jobs.append(Job(
                f"taylor_matrix({m},{n},{d},{level})",
                lambda m=m, n=n, d=d, level=level: jets.taylor_matrix(m, n, d, level)[1],
                lambda got, want=rank: _expect("taylor rank", got, want)))
            jobs.append(Job(
                f"kernel_sections({m},{n},{d},{level})",
                lambda m=m, n=n, d=d, level=level: jets.kernel_sections(m, n, d, level)[1],
                lambda got, want=kernel: _expect("kernel dim", got, want)))
        dim = ref["dims"][l]
        jobs.append(Job(
            f"duality_check({m},{n},{d},{l})",
            lambda m=m, n=n, d=d, l=l: jets.duality_check(m, n, d, l),
            lambda report, want=(dim, dim, True, True): _expect(
                "duality", (report.filtration_dim, report.taylor_rank,
                            report.dim_match, report.pairing_vanishes), want)))
    for args, dim in ANNIHILATOR_DIMS.items():
        jobs.append(Job(
            f"annihilator_dim{args}",
            lambda args=args: filtration.annihilator_dim(*args),
            lambda got, want=dim: _expect("annihilator dim", got, want)))
    jobs.append(Job(
        "char_ideal_generator_check(2,2,4,2)",
        lambda: filtration.char_ideal_generator_check(2, 2, 4, 2),
        lambda got: _expect("contained", got, True)))
    return jobs


def binary_forms_jobs(seed: int) -> list[Job]:
    from vermajet import discriminant

    rng = random.Random(seed)
    jobs = []
    for (d, l), (count, digest) in ELIMINANTS.items():
        jobs.append(Job(
            f"eliminant_generators({d},{l})",
            lambda d=d, l=l: [g.to_string() for g in discriminant.eliminant_generators(d, l)],
            lambda got, want=(count, digest): _expect(
                "generators", (len(got), _digest(got)), want)))
    jobs.append(Job(
        "classical_discriminant_oracle(6)",
        lambda: discriminant.classical_discriminant_oracle(6).to_string(),
        lambda got: _expect("oracle", _digest([got]), ELIMINANTS[(6, 1)][1])))
    for d, l in SAMPLED_CASES:
        jobs.append(Job(
            f"sample_jacobian_ranks({d},{l})",
            lambda d=d, l=l: discriminant.sample_jacobian_ranks(d, l, JACOBIAN_SAMPLES, rng),
            lambda got, want=[d - l + 1] * JACOBIAN_SAMPLES: _expect("ranks", got, want)))
        jobs.append(Job(
            f"samples_satisfy_generators({d},{l})",
            lambda d=d, l=l: discriminant.samples_satisfy_generators(
                d, l, MEMBERSHIP_SAMPLES, rng),
            lambda got: _expect("membership", got, True)))
    return jobs


def witness_jobs(seed: int) -> list[Job]:
    from vermajet import discriminant

    return [Job(f"irreducibility_witness({d},{l})",
                lambda d=d, l=l: discriminant.irreducibility_witness(d, l, WITNESS_SEED).status,
                lambda got, want=status: _expect("witness status", got, want))
            for (d, l), status in WITNESS_STATUS.items()]


BUILDERS = {
    "desk": desk_jobs,
    "grassmannian": grassmannian_jobs,
    "binary-forms": binary_forms_jobs,
    "witness": witness_jobs,
}


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The job list of a workload; the jobs share one sampling stream."""
    return BUILDERS[workload](seed)
