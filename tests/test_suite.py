import hashlib
import json

import pytest

from vermajet import filtration, jets
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


def test_desk_suite_grows_one_filtration_per_case(monkeypatch):
    # 6 cases and 4 direct-sum summands; the case records read every level
    # off one filtration, so neither annihilator_dim nor duality_check runs.
    calls = []
    grow = filtration.canonical_filtration

    def counted(*args):
        calls.append(args)
        return grow(*args)

    def forbidden(*args, **kwargs):
        raise AssertionError("the desk suite must read this off its filtration")

    monkeypatch.setattr(filtration, "canonical_filtration", counted)
    monkeypatch.setattr(jets, "canonical_filtration", counted)
    monkeypatch.setattr(filtration, "annihilator_dim", forbidden)
    monkeypatch.setattr(jets, "duality_check", forbidden)
    report = render_report(run_suite(SuiteConfig()), "json")
    assert hashlib.sha256(report.encode()).hexdigest() == DESK_REPORT_SHA256
    assert len(calls) == 10


def test_desk_report_is_byte_identical_with_warm_memos():
    # The first run starts from cold process-lifetime memos, the second
    # reads every one of them warm; the report may not tell them apart.
    from vermajet import discriminant
    for memo in (jets._chart_minor, jets._checked_minor, jets._reduced_family,
                 discriminant._classical_discriminant,
                 discriminant._multiple_root_eliminant,
                 discriminant._parametrization_gradients):
        memo.cache_clear()
    first = render_report(run_suite(SuiteConfig()), "json")
    second = render_report(run_suite(SuiteConfig()), "json")
    assert first == second
    assert hashlib.sha256(first.encode()).hexdigest() == DESK_REPORT_SHA256
