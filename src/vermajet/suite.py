"""Desk-suite orchestration and machine-readable reports.

The desk suite runs every verification this package provides on a fixed
list of small cases and aggregates the outcomes into a single report whose
verdict is "pass" exactly when every asserted equality held.  All numeric
fields are exact integers; nothing is rounded.  Reports are deterministic
(byte-identical JSON) for a fixed seed and configuration; wall-clock
timings are therefore opt-in and never part of the verdict.

Each case walks its canonical filtration once, through level d, with no
basis (`filtration.filtration_walk`); the filtration (levels 0..min(d - 1,
3)), split, annihilator-at-d and duality records all read that walk; one
character-ideal certificate fills every l's record, and a direct sum walks
each distinct summand degree once.  The ambient cap, the one size cap of
the module layer, refuses a case or direct sum before any work and bounds
the walk its records read (dim U_l(g) is a binomial); the degree cap
bounds the binary forms.
"""

from __future__ import annotations

import json
import random
import time
from math import comb
from typing import Sequence

from . import discriminant as disc
from . import filtration as filt
from . import jets
from .errors import SizeCapError
from .plethysm import DEFAULT_AMBIENT_CAP

SCHEMA = "vermajet/1"

DESK_CASES: tuple[tuple[int, int, int], ...] = (
    (1, 1, 3), (1, 1, 5), (1, 2, 3), (1, 3, 2), (2, 2, 2), (2, 2, 3),
)
DESK_DISC_CASES: tuple[tuple[int, int], ...] = ((2, 1), (3, 1), (4, 1), (3, 2))
DESK_DIRECT_SUMS: tuple[tuple[int, int, tuple[int, ...], int], ...] = (
    (1, 1, (2, 3), 1),
    (2, 2, (2, 2), 1),
)

MAX_FILTRATION_LEVEL = 3
MAX_SPLIT_LEVEL = 2


class SuiteConfig:
    """The suite's inputs; each config holds its own case lists."""

    def __init__(self, cases: Sequence[tuple[int, int, int]] = DESK_CASES,
                 disc_cases: Sequence[tuple[int, int]] = DESK_DISC_CASES,
                 direct_sums: Sequence[tuple[int, int, tuple[int, ...], int]] = DESK_DIRECT_SUMS,
                 ambient_cap: int = DEFAULT_AMBIENT_CAP,
                 degree_cap: int = disc.DEFAULT_DEGREE_CAP, fmt: str = "json", seed: int = 0):
        self.cases, self.disc_cases = list(cases), list(disc_cases)
        self.direct_sums = list(direct_sums)
        self.ambient_cap, self.degree_cap, self.fmt, self.seed = ambient_cap, degree_cap, fmt, seed

    def validate(self) -> None:
        if self.ambient_cap <= 0 or self.degree_cap <= 0:
            raise ValueError("caps must be positive")
        for m, n, d in self.cases:
            if m < 1 or n < 1 or d < 1:
                raise ValueError(f"invalid case ({m},{n},{d})")
        for d, l in self.disc_cases:
            if not 1 <= l < d:
                raise ValueError(f"invalid discriminant case ({d},{l})")
        for m, n, degrees, l in self.direct_sums:
            if not degrees or min(m, n, l, *degrees) < 1 or l > min(degrees):
                raise ValueError(f"invalid direct sum ({m},{n},{list(degrees)},{l})")
        if self.fmt not in ("json", "csv"):
            raise ValueError(f"unknown format {self.fmt!r}")


_CONFIG_KEYS = ("cases", "disc_cases", "direct_sums", "ambient_cap", "degree_cap", "format", "seed")


def _ints(value, arity: int | None, what: str) -> tuple[int, ...]:
    """A JSON list of `arity` integers (of any length when None) as a tuple."""
    if (not isinstance(value, list) or arity not in (None, len(value))
            or not all(type(v) is int for v in value)):
        count = "any number of" if arity is None else arity
        raise ValueError(f"{what} must be a list of {count} integers, got {json.dumps(value)}")
    return tuple(value)


def _direct_sum(entry) -> tuple[int, int, tuple[int, ...], int]:
    if not isinstance(entry, list) or len(entry) != 4:
        raise ValueError(f"a direct sum must be [m, n, [degrees], l], got {json.dumps(entry)}")
    m, n, l = _ints([entry[0], entry[1], entry[3]], 3, "direct sum m, n, l")
    return m, n, _ints(entry[2], None, "direct sum degrees"), l


def load_config(path: str) -> SuiteConfig:
    """Read a JSON config object; anything but the known keys with integer
    entries of the right shape is rejected with a ValueError."""
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    unknown = sorted(set(raw) - set(_CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    for key in ("cases", "disc_cases", "direct_sums"):
        if not isinstance(raw.get(key, []), list):
            raise ValueError(f"{key} must be a list")
    config = SuiteConfig()
    if "cases" in raw:
        config.cases = [_ints(case, 3, "a case") for case in raw["cases"]]
    if "disc_cases" in raw:
        config.disc_cases = [_ints(case, 2, "a discriminant case") for case in raw["disc_cases"]]
    if "direct_sums" in raw:
        config.direct_sums = [_direct_sum(entry) for entry in raw["direct_sums"]]
    for key in ("ambient_cap", "degree_cap", "seed"):
        if key in raw and type(raw[key]) is not int:
            raise ValueError(f"{key} must be an integer, got {json.dumps(raw[key])}")
        setattr(config, key, raw.get(key, getattr(config, key)))
    if "format" in raw:
        config.fmt = raw["format"]
    config.validate()
    return config


def formula_ok(m: int, n: int, d: int, dims: Sequence[int]) -> bool:
    """Level 0 is the line through v and dims[l] = C(mn + l, mn) for 0 < l < d."""
    return dims[0] == 1 and all(dims[l] == comb(m * n + l, m * n)
                                for l in range(1, len(dims)) if l < d)


def _filtration_record(m: int, n: int, d: int, walk: filt.FiltrationResult) -> dict:
    l_max = min(d - 1, MAX_FILTRATION_LEVEL)
    dims = walk.dims[:l_max + 1]
    return {
        "lmax": l_max,
        "dims": dims,
        "formula_ok": formula_ok(m, n, d, dims),
        "saturation_level": walk._replace(dims=dims).saturation_level,
        # the images z^a v, |a| <= l, span F_l (`filtration.pbw_filtration`)
        "pbw": [{"l": l, "independent": dims[l] == comb(m * n + l, l)}
                for l in range(1, l_max + 1)],
    }


def _split_records(m: int, n: int, d: int, filtration: dict) -> list[dict]:
    reports = [(l, filt.split_report(m, n, l, filtration["dims"][l]))
               for l in range(1, min(d - 1, MAX_SPLIT_LEVEL) + 1)]
    return [{"l": l, "dim_ul_g": r.dim_ul_g, "dim_ul_n": r.dim_ul_n, "dim_ann": r.dim_ann,
             "holds": r.split_holds} for l, r in reports]


def _char_ideal_records(m: int, n: int, d: int, ambient_cap: int) -> list[dict]:
    contained = filt.char_ideal_generator_check(m, n, d, MAX_SPLIT_LEVEL, ambient_cap)
    return [{"l": l, "contained": contained} for l in range(1, MAX_SPLIT_LEVEL + 1)]


def serre_records(m: int, n: int, d: int, ambient_cap: int) -> list[dict]:
    return [{**r._asdict(), "ok": r.ok} for r in filt.serre_power_check(m, n, d, ambient_cap)]


def taylor_level_record(m: int, n: int, d: int, l: int, section_dim: int,
                        ambient_cap: int) -> dict:
    rank = jets.taylor_rank(m, n, d, l, ambient_cap)
    expected = comb(m * n + l, m * n)
    _, kernel_dim = jets.kernel_sections(m, n, d, l, ambient_cap)
    return {
        "l": l,
        "rank": rank,
        "expected": expected,
        "kernel": kernel_dim,
        "kernel_expected": section_dim - expected,
        "ok": rank == expected and kernel_dim == section_dim - expected,
    }


def _taylor_record(m: int, n: int, d: int, ambient_cap: int) -> dict:
    section_dim = len(jets.section_space(m, n, d, ambient_cap))
    oracle = filt.weyl_dim_oracle(m, n, d)
    levels = sorted(set(range(1, min(d - 1, MAX_FILTRATION_LEVEL) + 1)) | {d})
    return {
        "section_dim": section_dim,
        "oracle": oracle,
        "section_dim_ok": section_dim == oracle,
        "levels": [taylor_level_record(m, n, d, l, section_dim, ambient_cap)
                   for l in levels],
    }


def duality_record(l: int, report: jets.DualityReport) -> dict:
    return {"l": l, **report._asdict(), "ok": report.ok}


def case_report(m: int, n: int, d: int, ambient_cap: int) -> dict:
    walk = filt.filtration_walk(m, n, d, d, ambient_cap)
    filtration = _filtration_record(m, n, d, walk)
    record = {
        "m": m, "n": n, "d": d,
        "module_dim": filt.weyl_dim_oracle(m, n, d),
        "filtration": filtration,
        # At the degree boundary l = d the annihilator dimension is reported
        # but nothing is asserted about it.
        "annihilator_dim_at_d": filt.enveloping_dim(m, n, d) - walk.dims[d],
        "split": _split_records(m, n, d, filtration),
        "char_ideal": _char_ideal_records(m, n, d, ambient_cap),
        "serre": serre_records(m, n, d, ambient_cap),
        "taylor": _taylor_record(m, n, d, ambient_cap),
        "duality": [duality_record(l, jets.level_duality(m, n, d, walk, l, ambient_cap))
                    for l in range(1, filtration["lmax"] + 1)],
    }
    checks = ((filtration["pbw"], "independent"), (record["split"], "holds"),
              (record["char_ideal"], "contained"), (record["serre"], "ok"),
              (record["taylor"]["levels"], "ok"), (record["duality"], "ok"))
    record["ok"] = (filtration["formula_ok"] and record["taylor"]["section_dim_ok"]
                    and all(entry[key] for entries, key in checks for entry in entries))
    return record


def disc_report(d: int, l: int, degree_cap: int, seed: int) -> dict:
    rng = random.Random(seed * 1000003 + d * 101 + l)
    record: dict = {"d": d, "l": l}
    generators = disc.eliminant_generators(d, l, degree_cap)
    record["generators"] = [g.to_string() for g in generators]
    record["generator_count"] = len(generators)
    if l == 1:
        oracle = disc.classical_discriminant_oracle(d, degree_cap)
        record["oracle_match"] = generators[0].poly == oracle.poly
    ranks = disc.sample_jacobian_ranks(d, l, 5, rng)
    record["jacobian_ranks"] = ranks
    record["jacobian_expected"] = d - l + 1
    record["membership_ok"] = disc.samples_satisfy_generators(d, l, 10, rng, degree_cap)
    witness = disc.irreducibility_witness(d, l, seed, degree_cap)
    record["witness"] = witness.status
    ok = all(r == d - l + 1 for r in ranks) and record["membership_ok"]
    if l == 1:
        ok = ok and record["oracle_match"]
    if (d, l) in ((2, 1), (3, 1)):
        ok = ok and witness.status == "certified"
    else:
        ok = ok and witness.status in ("certified", "heuristic")
    record["ok"] = ok
    return record


def direct_sum_report(m: int, n: int, degrees: Sequence[int], l: int, ambient_cap: int) -> dict:
    grown = {d: filt.multi_filtration(m, n, (d,), l, ambient_cap) for d in dict.fromkeys(degrees)}
    summands = [grown[d] for d in degrees]
    total = sum(summands)
    expected = len(degrees) * comb(m * n + l, l)  # each dim F_l, as l <= min(degrees)
    return {
        "m": m, "n": n, "degrees": list(degrees), "l": l,
        "dim": total, "summand_dims": summands, "expected": expected,
        "ok": total == expected,
    }


def run_suite(config: SuiteConfig, with_timings: bool = False) -> dict:
    config.validate()
    report: dict = {"schema": SCHEMA, "seed": config.seed}
    failures: list[str] = []
    kinds = (
        ("cases", config.cases,
         lambda m, n, d: case_report(m, n, d, config.ambient_cap),
         lambda m, n, d: f"case ({m},{n},{d})"),
        ("discriminants", config.disc_cases,
         lambda d, l: disc_report(d, l, config.degree_cap, config.seed),
         lambda d, l: f"discriminant ({d},{l})"),
        ("direct_sums", config.direct_sums,
         lambda m, n, degrees, l: direct_sum_report(m, n, degrees, l, config.ambient_cap),
         lambda m, n, degrees, l: f"direct sum ({m},{n},{list(degrees)},{l})"),
    )
    for key, entries, build, label in kinds:
        records = report[key] = []
        for entry in entries:
            start = time.perf_counter()
            record = build(*entry)
            if with_timings:
                record["elapsed_ms"] = (time.perf_counter() - start) * 1000.0
            if not record["ok"]:
                failures.append(label(*entry))
            records.append(record)
    report["failures"] = failures
    report["verdict"] = "pass" if not failures else "fail"
    return report


def _flatten(prefix: str, value, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), sub, rows)
    elif isinstance(value, (list, tuple)):
        for i, sub in enumerate(value):
            _flatten(f"{prefix}.{i}", sub, rows)
    else:
        rows.append((prefix, "" if value is None else str(value)))


def report_to_csv(report: dict) -> str:
    rows: list[tuple[str, str]] = []
    _flatten("", report, rows)
    lines = ["field,value"]
    for key, value in rows:
        if "," in value or '"' in value:
            value = '"' + value.replace('"', '""') + '"'
        lines.append(f"{key},{value}")
    return "\n".join(lines) + "\n"


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    if fmt == "csv":
        return report_to_csv(report)
    raise ValueError(f"unknown format {fmt!r}")


def raised_size_cap(error: SizeCapError) -> dict:
    return {"schema": SCHEMA, "error": "size-cap",
            "what": error.what, "needed": error.needed, "cap": error.cap}
