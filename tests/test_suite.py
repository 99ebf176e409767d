import hashlib
import json
import sys

import pytest

from vermajet import filtration, jets
from vermajet.linalg import Echelon
from vermajet.suite import (SuiteConfig, formula_ok, load_config, render_report,
                            report_to_csv, run_suite)


def test_default_desk_suite_passes():
    report = run_suite(SuiteConfig())
    assert report["verdict"] == "pass"
    assert report["failures"] == []
    assert report["schema"] == "vermajet/1"
    assert len(report["cases"]) == 6
    assert len(report["discriminants"]) == 4
    assert len(report["direct_sums"]) == 2


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


def test_formula_ok_checks_every_level_below_d():
    assert formula_ok(2, 2, 3, [1, 5, 15])
    assert formula_ok(1, 1, 2, [1, 2, 3, 3, 3])  # levels l >= d are not asserted
    assert not formula_ok(2, 2, 3, [1, 4, 15])
    assert not formula_ok(2, 2, 3, [1, 5, 14])
    assert not formula_ok(2, 2, 3, [2, 5, 15])


DESK_REPORT_SHA256 = "0bfbf144b5f144dc34f259cd30d13586b42118b291c60768ba9a24508cc00fb6"


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
