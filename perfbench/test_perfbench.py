"""Self-tests of the benchmark (not part of the repository's tier-1 suite).

Run from the checkout root::

    python3 -m pytest perfbench -q

A tiny-size pass drives every workload's code through the command
line in both modes and asserts each metric name and unit; the negative
cases inject one mismatch per output check and show that it fires.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import harness, metrics, workloads  # noqa: E402
from perfbench.checks import CheckFailed, DigestLedger  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_committed_manifest_matches_metrics_module():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == metrics.manifest()


def test_manifest_within_format_limits():
    doc = metrics.manifest()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= doc["run_seconds"] <= 60
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in doc["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(json.dumps(doc)) <= 64 * 1024


def cli(workload: str, trace: int, *extra: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "0.2",
            "--trace", str(trace), "--tiny", *extra,
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_pass_reports_every_metric(workload, trace):
    code, doc = cli(workload, trace)
    assert code == 0
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    assert doc["attempted"] >= 1
    wanted = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {n: u for n, u, *_ in wanted} == {
        n: m["unit"] for n, m in doc["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_missing_sources_exit_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oltp_palru"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- negative cases: each output check fires on its injected mismatch -------


def make(cls, tmp_path, **sizes):
    return cls(3, replace(workloads.TINY, **sizes), tmp_path)


def test_differing_digests_between_units_fail(tmp_path):
    workload = make(workloads.OltpPaLru, tmp_path)
    workload.prepare()
    state = workload.setup()
    runs = [workload.run(state), workload.run(state)]
    workload.check(state, runs)
    runs[1].digest = "0" * 64
    with pytest.raises(CheckFailed, match="digest differs between runs"):
        workload.check(state, runs)


def test_digest_differing_from_an_earlier_run_fails(tmp_path):
    ledger = tmp_path / "digests.json"
    DigestLedger(ledger).check("oltp_palru:seed=3", "a" * 64)
    DigestLedger(ledger).check("oltp_palru:seed=3", "a" * 64)
    with pytest.raises(CheckFailed, match="earlier run"):
        DigestLedger(ledger).check("oltp_palru:seed=3", "b" * 64)


def test_fast_path_disagreeing_with_reference_fails(tmp_path, monkeypatch):
    workload = make(workloads.OltpPaLru, tmp_path)
    trace = workload.setup()
    real = workloads.runner.run_simulation

    def skewed(trace, **params):
        if isinstance(trace, list):  # the per-object reference
            params["write_policy"] = "write-through"
        return real(trace, **params)

    monkeypatch.setattr(workloads.runner, "run_simulation", skewed)
    with pytest.raises(CheckFailed, match="reference disagree"):
        workloads.check_fast_path(trace, 400, "oltp", **workload.params)


def test_failed_campaign_point_is_counted(tmp_path, monkeypatch):
    workload = make(workloads.ZooSweep, tmp_path)
    spec_data = workload.spec_data

    def with_bogus_policy():
        data = spec_data()
        data["trace"]["workload"] = ["dbms"]
        data["trace"]["per_workload"] = {"dbms": {"duration_s": 6.0}}
        data["axes"]["policy"] = ["lru", "no-such-policy"]
        return data

    monkeypatch.setattr(workload, "spec_data", with_bogus_policy)
    run = workload.run(workload.setup())
    assert (run.attempted, run.failed) == (2, 1)
    report = harness.measure(workload, 0.0, tmp_path / "digests.json")
    assert (report.attempted, report.failed) == (2, 1)


def test_err_ack_fails_the_serve_check(tmp_path):
    workload = make(workloads.ServeOltp, tmp_path)
    workload.prepare()
    # A block number the protocol rejects: the daemon answers ERR.
    workload.lines[5] = b"REQ 5 0 -1 1 R\n"
    run = workload.run(workload.setup())
    assert run.failed == 1
    assert run.extra["client"].errors == 1
    with pytest.raises(CheckFailed, match="instead of OK"):
        workload.check(None, [run])


def test_serve_result_differing_from_batch_reference_fails(tmp_path):
    workload = make(workloads.ServeOltp, tmp_path)
    workload.prepare()
    run = workload.run(workload.setup())
    workload.check(None, [run])
    workload.session_params = {
        **workload.session_params,
        "write_policy": "write-back",
    }
    with pytest.raises(CheckFailed, match="differs from run_simulation"):
        workload.check(None, [run])


def test_short_import_fails(tmp_path):
    workload = make(workloads.CelloOpg, tmp_path)
    workload.prepare()
    lines = workload.path.read_text().splitlines(keepends=True)
    workload.path.write_text("".join(lines[:-1]))
    trace = workload.setup()
    with pytest.raises(CheckFailed, match="requests from"):
        workload.check(trace, [])


def test_import_skipping_lines_fails(tmp_path):
    workload = make(workloads.CelloOpg, tmp_path)
    workload.prepare()
    lines = workload.path.read_text().splitlines(keepends=True)
    lines.insert(1, lines[1].replace(" Q ", " D "))
    workload.path.write_text("".join(lines))
    trace = workload.setup()
    with pytest.raises(CheckFailed, match="skipped 1 lines"):
        workload.check(trace, [])


def test_traced_digest_differing_from_untraced_fails(tmp_path, monkeypatch):
    workload = make(workloads.OltpPaLru, tmp_path)
    real_run = workload.run

    def run(state, tracer=None):
        result = real_run(state, tracer)
        if tracer is not None:
            result.digest = "0" * 64
        return result

    monkeypatch.setattr(workload, "run", run)
    with pytest.raises(CheckFailed, match="traced result digest"):
        harness.measure_traced(workload, tmp_path / "spans.tsv")
