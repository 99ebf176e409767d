"""Command-line front end.

A subcommand is added as one row of `COMMANDS` (its help text, its integer
flags and its handler) plus that handler.  The parser is built from the
table, and every report begins with "schema" and then the subcommand's flags,
in table order, followed by the fields its handler returns.

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


def _cmd_filtration(args) -> tuple[dict, bool]:
    result = filt.filtration_walk(args.m, args.n, args.d, args.lmax)
    ok = suite_mod.formula_ok(args.m, args.n, args.d, result.dims)
    return {"dims": result.dims, "formula_ok": ok, "module_dim": result.module_dim,
            "saturation_level": result.saturation_level}, ok


def _cmd_taylor(args) -> tuple[dict, bool]:
    if not 1 <= args.l <= args.d:
        raise ValueError("taylor check needs 1 <= l <= d")
    section_dim = len(jets.section_space(args.m, args.n, args.d))
    level = suite_mod.taylor_level_record(args.m, args.n, args.d, args.l, section_dim,
                                          DEFAULT_AMBIENT_CAP)
    return {"rank": level["rank"], "expected": level["expected"], "kernel": level["kernel"],
            "section_dim": section_dim, "ok": level["ok"]}, level["ok"]


def _cmd_split(args) -> tuple[dict, bool]:
    report = filt.verma_split_check(args.m, args.n, args.d, args.l)
    return report._asdict(), report.split_holds


def _cmd_serre(args) -> tuple[dict, bool]:
    rows = suite_mod.serre_records(args.m, args.n, args.d, DEFAULT_AMBIENT_CAP)
    ok = all(r["ok"] for r in rows)
    return {"roots": rows, "ok": ok}, ok


def _cmd_duality(args) -> tuple[dict, bool]:
    level = suite_mod.duality_record(args.l, jets.duality_check(args.m, args.n, args.d, args.l))
    return level, level["ok"]


def _cmd_disc(args) -> tuple[dict, bool]:
    seed = 0 if args.seed is None else args.seed
    record = suite_mod.disc_report(args.d, args.l, disc.DEFAULT_DEGREE_CAP, seed)
    return record, record["ok"]


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


# name -> (help text, integer flags, handler); a handler returns its fields and ok
COMMANDS = {
    "filtration": ("canonical filtration dimensions", ("m", "n", "d", "lmax"), _cmd_filtration),
    "taylor": ("rank and kernel of the order-l jet truncation", ("m", "n", "d", "l"), _cmd_taylor),
    "split": ("enveloping algebra splitting dimensions", ("m", "n", "d", "l"), _cmd_split),
    "serre": ("lowering powers on the highest weight vector", ("m", "n", "d"), _cmd_serre),
    "duality": ("filtration vs jet fiber duality", ("m", "n", "d", "l"), _cmd_duality),
    "disc": ("multiple-root locus checks", ("d", "l"), _cmd_disc),
    "suite": ("run the desk suite", (), _cmd_suite),
}


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
    for name, (help_text, flags, _) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag in flags:
            command.add_argument(f"--{flag}", type=int, required=True)
    sub.choices["suite"].add_argument("--config", default=None,
                                      help="JSON configuration file (defaults to the desk suite)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _, flags, handler = COMMANDS[args.command]
    try:
        try:
            fields, ok = handler(args)
            record = {"schema": SCHEMA, **{flag: getattr(args, flag) for flag in flags}, **fields}
            code = 0 if ok else 1
        except SizeCapError as error:
            record, code = suite_mod.raised_size_cap(error), 3
        text = render_report(record, args.format or "json")
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
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
