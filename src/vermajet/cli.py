"""Command-line front end.

Exit codes: 0 all assertions pass, 1 an asserted invariant failed (the
report names it) or an internal certificate failed (one line on stderr,
no report), 2 invalid input or an unreadable config or unwritable
--out file (one line on stderr), 3 a size cap was exceeded, 4 any other
exception, that is a crash (one line on stderr, no report, no traceback).
"""

from __future__ import annotations

import argparse
import sys

from . import discriminant as disc
from . import filtration as filt
from . import jets
from . import suite as suite_mod
from .errors import CertificateError, SizeCapError
from .plethysm import DEFAULT_AMBIENT_CAP
from .suite import SCHEMA, SuiteConfig, load_config, render_report, run_suite


def _base_record(**fields) -> dict:
    record = {"schema": SCHEMA}
    record.update(fields)
    return record


def _cmd_filtration(args) -> tuple[dict, bool]:
    result = filt.canonical_filtration(args.m, args.n, args.d, args.lmax)
    dims = result.dims
    formula_ok = suite_mod.formula_ok(args.m, args.n, args.d, dims)
    record = _base_record(m=args.m, n=args.n, d=args.d, lmax=args.lmax,
                          dims=dims, formula_ok=formula_ok,
                          module_dim=result.module_dim,
                          saturation_level=result.saturation_level)
    return record, formula_ok


def _cmd_taylor(args) -> tuple[dict, bool]:
    if not 1 <= args.l <= args.d:
        raise ValueError("taylor check needs 1 <= l <= d")
    section_dim = len(jets.section_space(args.m, args.n, args.d))
    level = suite_mod.taylor_level_record(args.m, args.n, args.d, args.l, section_dim,
                                          DEFAULT_AMBIENT_CAP)
    record = _base_record(m=args.m, n=args.n, d=args.d, l=args.l,
                          rank=level["rank"], expected=level["expected"],
                          kernel=level["kernel"], section_dim=section_dim,
                          ok=level["ok"])
    return record, level["ok"]


def _cmd_split(args) -> tuple[dict, bool]:
    report = filt.verma_split_check(args.m, args.n, args.d, args.l)
    record = _base_record(m=args.m, n=args.n, d=args.d, l=args.l,
                          dim_ul_g=report.dim_ul_g, dim_ul_n=report.dim_ul_n,
                          dim_ann=report.dim_ann, split_holds=report.split_holds)
    return record, report.split_holds


def _cmd_serre(args) -> tuple[dict, bool]:
    rows = suite_mod._serre_records(args.m, args.n, args.d, DEFAULT_AMBIENT_CAP)
    ok = all(r["ok"] for r in rows)
    record = _base_record(m=args.m, n=args.n, d=args.d, roots=rows, ok=ok)
    return record, ok


def _cmd_duality(args) -> tuple[dict, bool]:
    level = suite_mod.duality_record(args.l, jets.duality_check(args.m, args.n, args.d, args.l))
    return _base_record(m=args.m, n=args.n, d=args.d, **level), level["ok"]


def _cmd_disc(args) -> tuple[dict, bool]:
    seed = 0 if args.seed is None else args.seed
    record = suite_mod.disc_report(args.d, args.l, disc.DEFAULT_DEGREE_CAP, seed)
    report = _base_record(**record)
    return report, record["ok"]


def _cmd_suite(args) -> tuple[dict, bool]:
    if args.config:
        config = load_config(args.config)
    else:
        config = SuiteConfig()
    if args.seed is not None:
        config.seed = args.seed
    if args.format:
        config.fmt = args.format
    else:
        args.format = config.fmt  # config file may select the format
    report = run_suite(config, with_timings=args.timings)
    return report, report["verdict"] == "pass"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vermajet",
        description="Exact-arithmetic checks for canonical filtrations, jet "
                    "truncations and discriminants of grassmannian linear systems.")
    parser.add_argument("--format", choices=("json", "csv"), default=None,
                        help="report format (default json)")
    parser.add_argument("--out", default=None, help="write the report to a file")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for sampling operations (default 0)")
    parser.add_argument("--timings", action="store_true",
                        help="include wall-clock timings (breaks byte-identical output)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, flags):
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(f"--{flag}", type=int, required=True)
        return p

    add("filtration", "canonical filtration dimensions", ("m", "n", "d", "lmax"))
    add("taylor", "rank and kernel of the order-l jet truncation", ("m", "n", "d", "l"))
    add("split", "enveloping algebra splitting dimensions", ("m", "n", "d", "l"))
    add("serre", "lowering powers on the highest weight vector", ("m", "n", "d"))
    add("duality", "filtration vs jet fiber duality", ("m", "n", "d", "l"))
    add("disc", "multiple-root locus checks", ("d", "l"))
    suite_parser = sub.add_parser("suite", help="run the desk suite")
    suite_parser.add_argument("--config", default=None,
                              help="JSON configuration file (defaults to the desk suite)")
    return parser


_HANDLERS = {
    "filtration": _cmd_filtration,
    "taylor": _cmd_taylor,
    "split": _cmd_split,
    "serre": _cmd_serre,
    "duality": _cmd_duality,
    "disc": _cmd_disc,
    "suite": _cmd_suite,
}


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            record, ok = _HANDLERS[args.command](args)
            code = 0 if ok else 1
        except SizeCapError as error:
            record, code = suite_mod.raised_size_cap(error), 3
        _emit(render_report(record, args.format or "json"), args.out)
    except (ValueError, OSError) as error:  # invalid input, unreadable config, unwritable --out
        sys.stderr.write(f"error: {error}\n")
        return 2
    except CertificateError as error:  # an internal exact check failed; no report
        sys.stderr.write(f"error: certificate failed: {error}\n")
        return 1
    except Exception as error:  # a crash, never reported as a failed invariant
        message = " ".join(str(error).split())
        sys.stderr.write(f"error: internal error: {type(error).__name__}: {message}\n")
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
