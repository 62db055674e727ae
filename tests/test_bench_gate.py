"""The perf-smoke regression gate (``repro bench --check``).

``check_regression`` is what CI trusts to catch hot-path regressions,
so its comparison logic gets direct unit coverage: the speedup floor,
the ``krps_vs_lru`` cross-policy floor introduced with the batch-kernel
work, the absolute ``floors`` block added with the chunked-timeline
work, and the identical-results invariant.
"""

import copy

import pytest

from repro.bench import check_regression
from repro.cli import _build_parser

BASELINE = {
    "scenarios": {
        "lru_wb": {"speedup": 2.5, "krps_vs_lru": 1.0, "identical": True},
        "pa_lru": {"speedup": 3.0, "krps_vs_lru": 0.8, "identical": True},
        "opg_theta0": {"speedup": 2.6, "krps_vs_lru": 0.36, "identical": True},
        "opg_deep": {"speedup": 2.4, "krps_vs_lru": 0.25, "identical": True},
        "campaign": {"speedup": 1.3, "identical": True},
    },
    "floors": {"opg_theta0": {"krps_vs_lru": 0.30}},
}


def _report():
    return copy.deepcopy(BASELINE)


def test_identical_baseline_passes():
    assert check_regression(_report(), BASELINE, tolerance=0.25) == []


def test_small_drift_within_tolerance_passes():
    report = _report()
    report["scenarios"]["opg_theta0"]["speedup"] = 2.6 * 0.80
    # 10% down stays inside both the relative tolerance and the 0.30
    # absolute floor (0.80 would land at 0.288, under the floor).
    report["scenarios"]["opg_theta0"]["krps_vs_lru"] = 0.36 * 0.90
    assert check_regression(report, BASELINE, tolerance=0.25) == []


def test_speedup_regression_fails():
    report = _report()
    report["scenarios"]["pa_lru"]["speedup"] = 3.0 * 0.5
    failures = check_regression(report, BASELINE, tolerance=0.25)
    assert len(failures) == 1 and "pa_lru" in failures[0]
    assert "speedup" in failures[0]


def test_krps_vs_lru_regression_fails():
    # The reference/columnar speedup can hold steady while the policy
    # quietly falls behind plain LRU — the cross-policy ratio is a
    # separate floor.
    report = _report()
    report["scenarios"]["opg_theta0"]["krps_vs_lru"] = 0.36 * 0.5
    failures = check_regression(report, BASELINE, tolerance=0.25)
    # 0.18 trips the relative gate and the absolute floor at once.
    assert all("opg_theta0" in f for f in failures)
    assert any("vs plain LRU" in f for f in failures)
    assert any("absolute floor" in f for f in failures)


def test_non_identical_results_fail():
    report = _report()
    report["scenarios"]["lru_wb"]["identical"] = False
    failures = check_regression(report, BASELINE, tolerance=0.25)
    assert len(failures) == 1 and "differ" in failures[0]


def test_deep_scenario_gated_like_any_other():
    report = _report()
    report["scenarios"]["opg_deep"]["speedup"] = 2.4 * 0.5
    failures = check_regression(report, BASELINE, tolerance=0.25)
    assert len(failures) == 1 and "opg_deep" in failures[0]


def test_absolute_floor_ignores_tolerance():
    # 0.32 is within 25% of the 0.36 baseline, but floors are absolute:
    # dropping under 0.30 fails no matter how generous the tolerance.
    report = _report()
    report["scenarios"]["opg_theta0"]["krps_vs_lru"] = 0.29
    failures = check_regression(report, BASELINE, tolerance=0.75)
    assert len(failures) == 1 and "absolute floor" in failures[0]
    report["scenarios"]["opg_theta0"]["krps_vs_lru"] = 0.32
    assert check_regression(report, BASELINE, tolerance=0.75) == []


def test_floor_on_missing_measurement_fails():
    # A floor is a declared contract; a report that silently stops
    # measuring the metric (or the scenario) must not pass.
    report = _report()
    del report["scenarios"]["opg_theta0"]["krps_vs_lru"]
    failures = check_regression(report, BASELINE, tolerance=0.25)
    assert len(failures) == 1 and "no such measurement" in failures[0]
    del report["scenarios"]["opg_theta0"]
    failures = check_regression(report, BASELINE, tolerance=0.25)
    assert any("no such measurement" in f for f in failures)


def test_baseline_without_floors_is_accepted():
    baseline = copy.deepcopy(BASELINE)
    del baseline["floors"]
    assert check_regression(_report(), baseline, tolerance=0.25) == []


def test_scenarios_missing_from_baseline_are_ignored():
    report = _report()
    report["scenarios"]["brand_new"] = {"speedup": 0.1, "identical": True}
    assert check_regression(report, BASELINE, tolerance=0.25) == []


def test_attach_before_computes_per_scenario_speedups():
    # The frozen pre-overhaul record is no longer regenerated: the
    # option that embedded it in a report is gone.
    parser = _build_parser()
    assert parser.parse_args(["bench", "--small"]).small
    with pytest.raises(SystemExit):
        parser.parse_args(["bench", "--before", "before.json"])


def test_generate_floor_gates_columnar_krps():
    # Generation has one path and no ratio, so only its absolute
    # krows/s floor gates it.
    baseline = {"floors": {"generate": {"columnar_krps": 35.0}}}
    report = {"scenarios": {"generate": {"columnar_krps": 75.0}}}
    assert check_regression(report, baseline, tolerance=0.25) == []
    report["scenarios"]["generate"]["columnar_krps"] = 25.0
    failures = check_regression(report, baseline, tolerance=0.25)
    assert len(failures) == 1 and "generate" in failures[0]
    assert "absolute floor" in failures[0]
