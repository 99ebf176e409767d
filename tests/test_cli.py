import json
import warnings

import pytest

from vermajet import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_filtration_subcommand(capsys):
    code, out, _ = run_cli(capsys, "filtration", "--m", "1", "--n", "1",
                           "--d", "3", "--lmax", "2")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "vermajet/1"
    assert report["dims"] == [1, 2, 3]
    assert report["formula_ok"] is True


def test_taylor_subcommand(capsys):
    code, out, _ = run_cli(capsys, "taylor", "--m", "2", "--n", "2",
                           "--d", "2", "--l", "1")
    assert code == 0
    report = json.loads(out)
    assert report["rank"] == 5
    assert report["expected"] == 5
    assert report["kernel"] == 15


def test_split_subcommand(capsys):
    code, out, _ = run_cli(capsys, "split", "--m", "1", "--n", "1",
                           "--d", "3", "--l", "1")
    assert code == 0
    report = json.loads(out)
    assert report["dim_ul_g"] == 4
    assert report["dim_ul_n"] == 2
    assert report["dim_ann"] == 2
    assert report["split_holds"] is True


def test_serre_subcommand(capsys):
    code, out, _ = run_cli(capsys, "serre", "--m", "2", "--n", "2", "--d", "2")
    assert code == 0
    report = json.loads(out)
    assert [r["power"] for r in report["roots"]] == [1, 3, 1]
    assert report["ok"] is True


def test_duality_subcommand(capsys):
    code, out, _ = run_cli(capsys, "duality", "--m", "1", "--n", "2",
                           "--d", "3", "--l", "2")
    assert code == 0
    report = json.loads(out)
    assert report["dim_match"] is True
    assert report["pairing_vanishes"] is True


def test_disc_subcommand(capsys):
    code, out, _ = run_cli(capsys, "disc", "--d", "2", "--l", "1")
    assert code == 0
    report = json.loads(out)
    assert report["oracle_match"] is True
    assert report["witness"] == "certified"
    assert report["jacobian_ranks"] == [2] * 5


def test_invalid_level_exits_2(capsys):
    code, _, err = run_cli(capsys, "split", "--m", "1", "--n", "1",
                           "--d", "3", "--l", "3")
    assert code == 2
    assert "error" in err


def test_missing_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["filtration", "--m", "1", "--n", "1", "--d", "3"])
    assert excinfo.value.code == 2


def test_size_cap_exits_3(capsys):
    code, out, _ = run_cli(capsys, "filtration", "--m", "3", "--n", "3",
                           "--d", "6", "--lmax", "1")
    assert code == 3
    report = json.loads(out)
    assert report["error"] == "size-cap"


def test_filtration_level_cap_exits_3(capsys):
    # One level is stored per l past stabilization, so l_max is capped by
    # the ambient cap before any work; the cap itself still runs.
    code, out, _ = run_cli(capsys, "filtration", "--m", "2", "--n", "2",
                           "--d", "3", "--lmax", "20001")
    assert code == 3
    assert json.loads(out) == {"schema": "vermajet/1", "error": "size-cap",
                               "what": "filtration level", "needed": 20001, "cap": 20000}
    code, out, _ = run_cli(capsys, "filtration", "--m", "1", "--n", "1",
                           "--d", "2", "--lmax", "20000")
    assert code == 0
    assert len(json.loads(out)["dims"]) == 20001


def test_filtration_certificate_failure_exits_1(capsys, monkeypatch, cold_filtration):
    from test_filtration import _moving_e12
    from vermajet import filtration
    monkeypatch.setattr(filtration, "act", _moving_e12)
    code, out, err = run_cli(capsys, "filtration", "--m", "2", "--n", "2",
                             "--d", "3", "--lmax", "2")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: certificate failed: p does not act")


def test_eliminants_with_no_generator_exit_1_with_one_line(capsys, monkeypatch):
    # With every kernel piece empty, no degree up to 2(d - 1) gives a
    # generator; the failed call is not stored, so the memo is cleared only
    # before it.
    from vermajet import discriminant
    from vermajet.errors import CertificateError
    discriminant._eliminants.cache_clear()
    monkeypatch.setattr(discriminant, "_kernel_piece", lambda d, l, k: [])
    with pytest.raises(CertificateError, match=r"no eliminant generators found for \(d=5, l=2\)"):
        discriminant.eliminant_generators(5, 2)
    code, out, err = run_cli(capsys, "disc", "--d", "5", "--l", "2")
    assert (code, out) == (1, "")
    assert err == "error: certificate failed: no eliminant generators found for (d=5, l=2)\n"


def test_failure_maps_to_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_suite",
                        lambda config, with_timings=False: {
                            "verdict": "fail", "failures": ["case (9,9,9)"]})
    code, out, _ = run_cli(capsys, "suite")
    assert code == 1
    assert "fail" in out


def test_config_format_selects_csv_without_the_flag(capsys, tmp_path):
    config = tmp_path / "csv.json"
    config.write_text(json.dumps({"cases": [[1, 1, 3]], "disc_cases": [], "direct_sums": [],
                                  "format": "csv"}))
    code, out, _ = run_cli(capsys, "suite", "--config", str(config))
    assert code == 0
    assert out.startswith("field,value\n")
    assert "verdict,pass\n" in out
    assert run_cli(capsys, "--format", "csv", "suite", "--config", str(config)) == (0, out, "")


def test_suite_reports_are_byte_identical(capsys, tmp_path):
    config = tmp_path / "small.json"
    config.write_text(json.dumps({
        "cases": [[1, 1, 3]],
        "disc_cases": [[2, 1]],
        "direct_sums": [],
        "seed": 4,
    }))
    code1, out1, _ = run_cli(capsys, "suite", "--config", str(config))
    code2, out2, _ = run_cli(capsys, "suite", "--config", str(config))
    assert code1 == code2 == 0
    assert out1 == out2


def test_config_seed_survives(capsys, tmp_path):
    config = tmp_path / "seeded.json"
    config.write_text(json.dumps({
        "cases": [], "disc_cases": [], "direct_sums": [], "seed": 9,
    }))
    code, out, _ = run_cli(capsys, "suite", "--config", str(config))
    assert code == 0
    assert json.loads(out)["seed"] == 9


def test_csv_format(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "taylor", "--m", "1",
                           "--n", "1", "--d", "3", "--l", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "field,value"
    assert any(line.startswith("rank,2") for line in lines)


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "--out", str(target), "serre",
                           "--m", "1", "--n", "1", "--d", "3")
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert report["ok"] is True


def _one_line_error(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_taylor_level_past_d_exits_2(capsys):
    err = _one_line_error(capsys, "taylor", "--m", "2", "--n", "2", "--d", "3", "--l", "4")
    assert err == "error: taylor check needs 1 <= l <= d\n"


def test_config_entry_of_wrong_type_exits_2(capsys, tmp_path):
    config = tmp_path / "typed.json"
    config.write_text(json.dumps({"cases": [[1, 1, "3"]]}))
    err = _one_line_error(capsys, "suite", "--config", str(config))
    assert "a case must be a list of 3 integers" in err


def test_config_top_level_array_exits_2(capsys, tmp_path):
    config = tmp_path / "array.json"
    config.write_text(json.dumps([[1, 1, 3]]))
    err = _one_line_error(capsys, "suite", "--config", str(config))
    assert "JSON object" in err


def test_missing_config_exits_2(capsys, tmp_path):
    err = _one_line_error(capsys, "suite", "--config", str(tmp_path / "absent.json"))
    assert "absent.json" in err


def test_unwritable_out_exits_2(capsys, tmp_path):
    config = tmp_path / "empty.json"
    config.write_text(json.dumps({"cases": [], "disc_cases": [], "direct_sums": []}))
    target = tmp_path / "missing" / "x.json"
    err = _one_line_error(capsys, "--out", str(target), "suite", "--config", str(config))
    assert "x.json" in err
    assert not target.exists()


# Reports pinned byte for byte; the CLI handlers build them with the suite's
# record builders.
PINNED_REPORTS = {
    "serre --m 2 --n 2 --d 2": """\
{
  "schema": "vermajet/1",
  "m": 2,
  "n": 2,
  "d": 2,
  "roots": [
    {
      "index": 1,
      "power": 1,
      "below_nonzero": true,
      "at_power_zero": true,
      "ok": true
    },
    {
      "index": 2,
      "power": 3,
      "below_nonzero": true,
      "at_power_zero": true,
      "ok": true
    },
    {
      "index": 3,
      "power": 1,
      "below_nonzero": true,
      "at_power_zero": true,
      "ok": true
    }
  ],
  "ok": true
}
""",
    "duality --m 1 --n 2 --d 3 --l 2": """\
{
  "schema": "vermajet/1",
  "m": 1,
  "n": 2,
  "d": 3,
  "l": 2,
  "filtration_dim": 6,
  "taylor_rank": 6,
  "dim_match": true,
  "pairing_vanishes": true,
  "ok": true
}
""",
    "taylor --m 2 --n 2 --d 2 --l 1": """\
{
  "schema": "vermajet/1",
  "m": 2,
  "n": 2,
  "d": 2,
  "l": 1,
  "rank": 5,
  "expected": 5,
  "kernel": 15,
  "section_dim": 20,
  "ok": true
}
""",
    "filtration --m 2 --n 2 --d 3 --lmax 3": """\
{
  "schema": "vermajet/1",
  "m": 2,
  "n": 2,
  "d": 3,
  "lmax": 3,
  "dims": [
    1,
    5,
    15,
    35
  ],
  "formula_ok": true,
  "module_dim": 50,
  "saturation_level": null
}
""",
}


@pytest.mark.parametrize("command", sorted(PINNED_REPORTS))
def test_report_is_pinned(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert out == PINNED_REPORTS[command]


def test_suite_config_naming_monomial_cap_exits_2(capsys, tmp_path):
    # The ambient cap is the module layer's one size cap: dim U_l(g) is a
    # binomial, so no config key caps it, and naming one is refused.
    config = tmp_path / "capped.json"
    config.write_text(json.dumps({"cases": [[1, 1, 3]], "disc_cases": [],
                                  "direct_sums": [], "monomial_cap": 10}))
    code, out, err = run_cli(capsys, "suite", "--config", str(config))
    assert (code, out) == (2, "")
    assert err == "error: unknown config keys: monomial_cap\n"


def test_failed_certificate_exits_1_with_one_line(capsys, monkeypatch):
    from vermajet import jets
    from vermajet.filtration import weyl_dim_oracle

    # A Borel-Weil count one too high: the 4 standard monomials of degree 3
    # on P^1 then fail the count check of a fresh section space.  The memo is
    # keyed by (m, n, d) alone, so only a cleared one walks the chains again.
    jets._reduced_family.cache_clear()
    monkeypatch.setattr(jets, "weyl_dim_oracle", lambda m, n, d: weyl_dim_oracle(m, n, d) + 1)
    code, out, err = run_cli(capsys, "taylor", "--m", "1", "--n", "1", "--d", "3", "--l", "1")
    assert code == 1
    assert out == ""
    assert err == "error: certificate failed: 4 standard monomials, expected 5\n"
    assert "Traceback" not in err


def test_a_zero_chart_minor_leaves_the_taylor_report_unchanged(capsys, monkeypatch):
    # The section basis and the Taylor ranks are read off the chains alone,
    # so a cold walk with a zero minor at (2,) reports the same numbers.
    from vermajet import jets

    minor = jets.plucker_polynomial

    def zero_at_2(subset, m, n):
        s = minor(subset, m, n)
        if tuple(subset) == (2,):
            return 0 * s
        return s

    argv = ("taylor", "--m", "1", "--n", "1", "--d", "3", "--l", "1")
    want = run_cli(capsys, *argv)
    jets._reduced_family.cache_clear()
    monkeypatch.setattr(jets, "plucker_polynomial", zero_at_2)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == want
    assert code == 0 and err == ""
    report = json.loads(out)
    assert (report["rank"], report["kernel"], report["section_dim"]) == (2, 2, 4)


def test_other_arithmetic_errors_are_internal_errors(capsys, monkeypatch):
    from vermajet import jets

    def divide_by_zero(*args):
        raise ZeroDivisionError("not a certificate")

    monkeypatch.setattr(jets, "taylor_rank", divide_by_zero)
    code, out, err = run_cli(capsys, "taylor", "--m", "1", "--n", "1", "--d", "3", "--l", "1")
    assert code == 4
    assert out == ""
    assert err == "error: internal error: ZeroDivisionError: not a certificate\n"


def test_crash_exits_4_with_one_line(capsys, monkeypatch):
    from vermajet import filtration

    def crash(*args):
        raise RuntimeError("unexpected\nstate")

    monkeypatch.setattr(filtration, "filtration_walk", crash)
    code, out, err = run_cli(capsys, "filtration", "--m", "1", "--n", "1",
                             "--d", "3", "--lmax", "2")
    assert code == 4
    assert out == ""
    assert err == "error: internal error: RuntimeError: unexpected state\n"
    assert "Traceback" not in err


def test_resampled_jacobian_is_silent_under_warnings_as_errors(capsys):
    # Seed 10 draws a rank-deficient Jacobian sample at (3,1) and redraws it;
    # the redraw must not warn, or `python -W error` would exit 4.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "--seed", "10", "suite")
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"] == "pass"


# The flags of each subcommand at desk size, in table order.
DESK_ARGS = {
    "filtration": {"m": 2, "n": 2, "d": 3, "lmax": 3},
    "taylor": {"m": 2, "n": 2, "d": 3, "l": 2},
    "split": {"m": 2, "n": 3, "d": 3, "l": 2},
    "serre": {"m": 2, "n": 2, "d": 3},
    "duality": {"m": 2, "n": 2, "d": 3, "l": 2},
    "disc": {"d": 4, "l": 1},
    "suite": {},
}


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_every_report_starts_with_schema_then_its_flags(capsys, name):
    # The table declares each subcommand once; the report's prefix is built
    # from its flags, so a new row cannot break the prefix rule.
    _, flags, _ = cli.COMMANDS[name]
    values = DESK_ARGS[name]
    assert tuple(values) == flags
    code, out, err = run_cli(capsys, name, *(f"--{k}={v}" for k, v in values.items()))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert list(report)[:len(flags) + 1] == ["schema", *flags]
    assert report["schema"] == "vermajet/1"
    assert [report[flag] for flag in flags] == list(values.values())
