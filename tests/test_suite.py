import hashlib
import json
import random
import sys

import pytest

from vermajet import discriminant, filtration, jets, suite
from vermajet.linalg import Echelon
from vermajet.plethysm import DEFAULT_AMBIENT_CAP
from vermajet.polynomials import Poly
from vermajet.suite import (SuiteConfig, formula_ok, load_config, render_report,
                            report_to_csv, run_suite)

from reference import perfbench_workloads


def test_default_desk_suite_passes():
    report = run_suite(SuiteConfig())
    assert report["verdict"] == "pass"
    assert report["failures"] == []
    assert report["schema"] == "vermajet/1"
    assert len(report["cases"]) == 6
    assert len(report["discriminants"]) == 4
    assert len(report["direct_sums"]) == 2


def test_failed_records_are_listed_in_order_and_fail_the_verdict(monkeypatch):
    # Every record reads ok: false, so every entry of the desk config is a
    # failure, labelled as `run_suite` labels it, in config order.
    for name in ("case_report", "disc_report", "direct_sum_report"):
        monkeypatch.setattr(suite, name, lambda *args: {"ok": False})
    report = run_suite(SuiteConfig())
    assert report["failures"] == [
        "case (1,1,3)", "case (1,1,5)", "case (1,2,3)", "case (1,3,2)", "case (2,2,2)",
        "case (2,2,3)", "discriminant (2,1)", "discriminant (3,1)", "discriminant (4,1)",
        "discriminant (3,2)", "direct sum (1,1,[2, 3],1)", "direct sum (2,2,[2, 2],1)"]
    assert report["verdict"] == "fail"


def test_a_generator_the_samples_miss_fails_its_discriminant_case(monkeypatch):
    # a_0, the lead of every sampled form (g[0] is drawn nonzero), added as
    # a generator: no sample is its zero, so membership fails, the record
    # reads ok: false and the suite names the case.
    assert suite.disc_report(4, 2, 6, 0)["ok"] is True
    generators = discriminant.eliminant_generators
    monkeypatch.setattr(discriminant, "eliminant_generators", lambda d, l, cap: [
        *generators(d, l, cap), discriminant._make_eliminant(Poly.variable(d + 1, 0))])
    assert discriminant.samples_satisfy_generators(4, 2, 10, random.Random(0)) is False
    record = suite.disc_report(4, 2, 6, 0)
    assert (record["membership_ok"], record["ok"]) == (False, False)
    report = run_suite(SuiteConfig(cases=[], disc_cases=[(4, 2)], direct_sums=[]))
    assert (report["failures"], report["verdict"]) == (["discriminant (4,2)"], "fail")


def test_reports_are_reproducible():
    config = SuiteConfig(cases=[(1, 1, 3)], disc_cases=[(2, 1)],
                         direct_sums=[], seed=3)
    first = render_report(run_suite(config), "json")
    second = render_report(run_suite(config), "json")
    assert first == second


def test_timings_are_opt_in():
    config = SuiteConfig(cases=[(1, 1, 2)], disc_cases=[], direct_sums=[(1, 1, (2, 2), 1)])
    plain = run_suite(config)
    timed = run_suite(config, with_timings=True)
    for section in ("cases", "direct_sums"):
        assert "elapsed_ms" not in plain[section][0]
        assert "elapsed_ms" in timed[section][0]
        assert {k: v for k, v in timed[section][0].items() if k != "elapsed_ms"} \
            == plain[section][0]


def test_csv_projection():
    config = SuiteConfig(cases=[(1, 1, 2)], disc_cases=[], direct_sums=[])
    text = report_to_csv(run_suite(config))
    lines = text.splitlines()
    assert lines[0] == "field,value"
    assert any(line.startswith("verdict,") for line in lines)


def test_csv_quotes_a_value_with_a_comma_or_a_quote():
    report = {"failures": ["discriminant (2,1)", "case (1,1,3)"], "note": 'a "b"', "ok": True}
    assert report_to_csv(report).splitlines() == [
        "field,value", 'failures.0,"discriminant (2,1)"', 'failures.1,"case (1,1,3)"',
        'note,"a ""b"""', "ok,True"]


def test_load_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "cases": [[1, 1, 3], [1, 2, 2]],
        "disc_cases": [[2, 1]],
        "direct_sums": [[1, 1, [2, 2], 1]],
        "seed": 9,
        "format": "csv",
        "ambient_cap": 5000,
    }))
    config = load_config(str(path))
    assert config.cases == [(1, 1, 3), (1, 2, 2)]
    assert config.disc_cases == [(2, 1)]
    assert config.direct_sums == [(1, 1, (2, 2), 1)]
    assert config.seed == 9
    assert config.fmt == "csv"
    assert config.ambient_cap == 5000


@pytest.mark.parametrize("raw, message", [
    ({"cases": [[1, 1, 3.0]]}, "a case must be a list of 3 integers"),
    ({"cases": [[1, 1]]}, "a case must be a list of 3 integers"),
    ({"cases": [[1, True, 3]]}, "a case must be a list of 3 integers"),
    ({"cases": 3}, "cases must be a list"),
    ({"disc_cases": [[3, 1, 0]]}, "a discriminant case must be a list of 2 integers"),
    ({"direct_sums": [[1, 1, 2, 1]]}, "direct sum degrees"),
    ({"direct_sums": [[1, 1, [2, 3]]]}, "a direct sum must be"),
    ({"direct_sums": [[1, 1, [], 1]]}, "invalid direct sum"),
    ({"seed": "9"}, "seed must be an integer"),
    ({"case": [[1, 1, 3]]}, "unknown config keys: case"),
    ({"format": "yaml"}, "unknown format"),
    ({"direct_sums": [[1, 1, [2, 3], 3]]}, "invalid direct sum"),
])
def test_load_config_rejects_malformed_entries(tmp_path, raw, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=message):
        load_config(str(path))


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(ambient_cap=0).validate()
    with pytest.raises(ValueError):
        SuiteConfig(cases=[(0, 1, 1)]).validate()
    with pytest.raises(ValueError):
        SuiteConfig(disc_cases=[(2, 2)]).validate()
    with pytest.raises(ValueError):
        SuiteConfig(fmt="yaml").validate()


def test_each_config_holds_its_own_case_lists():
    first = SuiteConfig()
    first.cases.append((3, 3, 3))
    first.disc_cases.clear()
    first.direct_sums.pop()
    second = SuiteConfig()
    assert second.cases == list(suite.DESK_CASES)
    assert second.disc_cases == list(suite.DESK_DISC_CASES)
    assert second.direct_sums == list(suite.DESK_DIRECT_SUMS)


def test_report_records_keep_their_field_order():
    # The fields of a root and a duality report are the keys of its record, in order.
    root = filtration.RootPowerReport(1, 1, True, True)
    assert list(root._asdict()) == ["index", "power", "below_nonzero", "at_power_zero"]
    assert list(suite.serre_records(1, 1, 2, 10)[0]) == [*root._asdict(), "ok"]
    duality = jets.DualityReport(3, 3, True, False)
    assert list(duality._asdict()) == ["filtration_dim", "taylor_rank", "dim_match",
                                       "pairing_vanishes"]
    assert list(suite.duality_record(1, duality).items()) == [("l", 1), *duality._asdict().items(),
                                                              ("ok", False)]


def test_formula_ok_checks_every_level_below_d():
    assert formula_ok(2, 2, 3, [1, 5, 15])
    assert formula_ok(1, 1, 2, [1, 2, 3, 3, 3])  # levels l >= d are not asserted
    assert not formula_ok(2, 2, 3, [1, 4, 15])
    assert not formula_ok(2, 2, 3, [1, 5, 14])
    assert not formula_ok(2, 2, 3, [2, 5, 15])


DESK_REPORT_SHA256 = perfbench_workloads().DESK_REPORT_SHA256


def test_desk_suite_grows_one_filtration_per_case(monkeypatch, cold_filtration):
    # 6 cases and 3 distinct direct-sum summands ((2, 3) and (2, 2)), each
    # one walk with no basis; the case records read every level off one
    # walk, so neither annihilator_dim nor duality_check runs, and no
    # canonical basis is grown.  One character-ideal check per case (6); the
    # p-eigenvector certificate runs once per distinct (m, n, d): the 6
    # cases and the one summand that is no case, 7.
    calls = {"filtration_walk": 0, "char_ideal_generator_check": 0, "_p_eigenvector": 0}

    def counted(name):
        original = getattr(filtration, name)

        def call(*args):
            calls[name] += 1
            return original(*args)
        return call

    def forbidden(*args, **kwargs):
        raise AssertionError("the desk suite must read this off its walk")

    walk = counted("filtration_walk")
    monkeypatch.setattr(filtration, "filtration_walk", walk)
    monkeypatch.setattr(jets, "filtration_walk", walk)
    for name in ("char_ideal_generator_check", "_p_eigenvector"):
        monkeypatch.setattr(filtration, name, counted(name))
    for module, name in ((filtration, "annihilator_dim"), (jets, "duality_check"),
                         (filtration, "canonical_filtration")):
        monkeypatch.setattr(module, name, forbidden)
    report = render_report(run_suite(SuiteConfig()), "json")
    assert hashlib.sha256(report.encode()).hexdigest() == DESK_REPORT_SHA256
    assert calls == {"filtration_walk": 9, "char_ideal_generator_check": 6,
                     "_p_eigenvector": 7}


def test_desk_suite_reduces_no_filtration_piece(monkeypatch, cold_filtration):
    # No canonical row is read in `filtration` (30 reads before the walk
    # kept no bases) and no weight of a multiset is built (83 before).
    reads = []
    canonical_rows = Echelon.canonical_rows

    def counted(self):
        reads.append(sys._getframe(1).f_globals["__name__"])
        return canonical_rows(self)

    def forbidden(*args):
        raise AssertionError("the desk suite builds no weight multiset")

    monkeypatch.setattr(Echelon, "canonical_rows", counted)
    monkeypatch.setattr(filtration, "Weight", forbidden)
    report = render_report(run_suite(SuiteConfig()), "json")
    assert hashlib.sha256(report.encode()).hexdigest() == DESK_REPORT_SHA256
    assert reads.count("vermajet.filtration") == 0


def test_desk_report_is_byte_identical_with_warm_memos(cold_filtration):
    # The first run starts from cold process-lifetime memos, the second
    # reads every one of them warm; the report may not tell them apart.
    from vermajet import discriminant
    for memo in (jets._checked_minor, jets._reduced_family,
                 discriminant.classical_discriminant_oracle, discriminant._eliminants):
        memo.cache_clear()
    first = render_report(run_suite(SuiteConfig()), "json")
    second = render_report(run_suite(SuiteConfig()), "json")
    assert first == second
    assert hashlib.sha256(first.encode()).hexdigest() == DESK_REPORT_SHA256


# (m, n, d) whose dim U_d(g) = C((m+n)^2 - 1 + d, d), 658,008, 82,251 and
# 270,725, is far past the module the default ambient cap admits; the suite
# counts U_d(g) in closed form, so only the module is capped.
LARGE_ENVELOPING_CASES = [(2, 4, 5), (3, 3, 4), (2, 5, 4)]


def test_suite_passes_cases_whose_enveloping_algebra_no_walk_enumerates():
    config = SuiteConfig(cases=LARGE_ENVELOPING_CASES, disc_cases=[], direct_sums=[])
    report = run_suite(config)
    assert (report["verdict"], report["failures"]) == ("pass", [])
    assert [filtration.enveloping_dim(m, n, d) for m, n, d in LARGE_ENVELOPING_CASES] == \
        [658008, 82251, 270725]


def _mirrored(record: dict) -> dict:
    """A case record of Gr(m, m+n) read as one of Gr(n, m+n): m and n
    dropped, and simple root i of sl(m+n) renamed m + n - i (the dual
    flag reverses the Dynkin diagram), its records in index order."""
    size = record["m"] + record["n"]
    serre = sorted(({**r, "index": size - r["index"]} for r in record["serre"]),
                   key=lambda r: r["index"])
    return {**{k: v for k, v in record.items() if k not in ("m", "n")}, "serre": serre}


@pytest.mark.parametrize("m, n, d", [(1, 2, 3), (1, 3, 2), (2, 3, 2), (1, 4, 3), (2, 5, 4)])
def test_case_report_is_invariant_under_the_grassmannian_duality(m, n, d):
    # Gr(m, m+n) = Gr(n, m+n), and O(d) corresponds: every count of the
    # report is the same on both sides, and only the root indices move.
    forward = suite.case_report(m, n, d, DEFAULT_AMBIENT_CAP)
    backward = suite.case_report(n, m, d, DEFAULT_AMBIENT_CAP)
    assert forward["ok"] and backward["ok"]
    assert _mirrored(forward) == {k: v for k, v in backward.items() if k not in ("m", "n")}
    assert forward["serre"] != backward["serre"]
