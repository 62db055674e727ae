"""Each rule fires on its seeded fixture and not on the clean twin.

The fixtures under ``fixtures/`` are parsed, never imported — see
``fixtures/README.md``.
"""

def _messages(findings):
    return "\n".join(f.message for f in findings)


class TestDeterminism:
    def test_fires_on_seeded_violations(self, check_fixture):
        report = check_fixture("determinism_bad.py", select=["determinism"])
        msgs = _messages(report.findings)
        assert "random.random()" in msgs
        assert "np.random.uniform()" in msgs
        assert "numpy.random.default_rng() without a seed" in msgs
        assert "random.Random() without a seed" in msgs
        assert "time.time() reads the wall clock" in msgs
        # the two set iterations are warnings, everything else errors
        assert len(report.warnings) == 2
        assert len(report.errors) == 5

    def test_silent_on_clean_twin(self, check_fixture):
        report = check_fixture("determinism_clean.py", select=["determinism"])
        assert report.findings == []

    def test_findings_carry_location(self, check_fixture):
        report = check_fixture("determinism_bad.py", select=["determinism"])
        f = report.errors[0]
        assert f.path == "determinism_bad.py"
        assert f.line > 0
        assert f.rule == "determinism"
        rendered = f.render()
        assert rendered.startswith(f"determinism_bad.py:{f.line}:")
        assert "[determinism]" in rendered


class TestUnits:
    def test_fires_on_seeded_violations(self, check_fixture):
        report = check_fixture("units_bad.py", select=["units"])
        msgs = _messages(report.findings)
        assert "`* 1000`" in msgs and "'latency_s'" in msgs
        assert "`/ 1000.0`" in msgs and "'energy_j'" in msgs
        assert len(report.errors) == 3

    def test_fires_with_literal_on_either_side(self, check_fixture):
        # `3600.0 * wall_s` (literal left) must fire exactly like
        # `wall_s * 3600.0` — the factor scan covers both orientations.
        report = check_fixture("units_bad.py", select=["units"])
        msgs = _messages(report.findings)
        assert "`* 3600.0`" in msgs and "'wall_s'" in msgs

    def test_silent_on_clean_twin(self, check_fixture):
        report = check_fixture("units_clean.py", select=["units"])
        assert report.findings == []


class TestUnitsFlow:
    def test_fires_on_seeded_violations(self, check_fixture):
        report = check_fixture("unitsflow_bad.py", select=["unitsflow"])
        msgs = _messages(report.errors)
        assert "assigns `ms` value `latency_ms` to `s`-suffixed" in msgs
        assert "`mean_gap_s` is `s`-suffixed but returns a `ms`" in msgs
        assert "passes `ms` value `wake_ms` to `s`-suffixed" in msgs
        assert "mixed dimensions: time `+` energy" in msgs
        assert "mixed scales: `s` `+` `ms`" in msgs
        assert len(report.errors) == 6

    def test_tracks_units_through_aliases(self, check_fixture):
        # `x = latency_ms; total_s = x` — the drift is only visible
        # through the dataflow environment, not the assigned name.
        report = check_fixture("unitsflow_bad.py", select=["unitsflow"])
        msgs = _messages(report.errors)
        assert "assigns `ms` value `x` to `s`-suffixed target `total_s`" in msgs

    def test_silent_on_clean_twin(self, check_fixture):
        # conversions, constant scaling, branch joins, unit-preserving
        # builtins: all must stay silent
        report = check_fixture("unitsflow_clean.py", select=["unitsflow"])
        assert report.findings == []


class TestAsyncSafe:
    def test_fires_on_seeded_violations(self, check_fixture):
        report = check_fixture("asyncsafe_bad.py", select=["asyncsafe"])
        msgs = _messages(report.errors)
        assert "`naps` blocks the event loop: `time.sleep`" in msgs
        assert "awaits while holding sync lock `_lock`" in msgs
        assert len(report.errors) == 3

    def test_reports_the_transitive_chain(self, check_fixture):
        report = check_fixture("asyncsafe_bad.py", select=["asyncsafe"])
        msgs = _messages(report.errors)
        assert "transitively_blocks -> _middle -> _sync_helper" in msgs
        assert ".read_text()` performs synchronous file I/O" in msgs

    def test_silent_on_clean_twin(self, check_fixture):
        # to_thread / run_in_executor offloading, asyncio.sleep, and
        # async-with locks must stay silent
        report = check_fixture("asyncsafe_clean.py", select=["asyncsafe"])
        assert report.findings == []


class TestResource:
    def test_fires_on_seeded_violations(self, check_fixture):
        report = check_fixture("resource_bad.py", select=["resource"])
        msgs = _messages(report.errors)
        assert "`shm` from `share()` leaks on the exception path" in msgs
        assert "`fd/tmp` from `mkstemp()` is acquired but never" in msgs
        assert len(report.errors) == 2

    def test_silent_on_clean_twin(self, check_fixture):
        # finally-guarded releases, mkstemp+replace, ownership
        # hand-off, context managers
        report = check_fixture("resource_clean.py", select=["resource"])
        assert report.findings == []


class TestFastPath:
    def test_fires_on_seeded_violations(self, check_fixture):
        report = check_fixture("fastpath_bad.py", select=["fastpath"])
        msgs = _messages(report.errors)
        assert "RogueImpl subclasses BadBase" in msgs
        assert "FAST_PATH_AUDITED" in msgs
        assert "kernel rogue_kernel is @batch_kernel-decorated" in msgs
        stale = _messages(report.warnings)
        assert "'GhostImpl'" in stale and "stale" in stale
        assert "'ghost_kernel'" in stale
        assert len(report.errors) == 2
        assert len(report.warnings) == 2

    def test_silent_on_clean_twin(self, check_fixture):
        # SecondImpl is only a *transitive* subclass of CleanBase; the
        # registry still has to (and does) list it.
        report = check_fixture("fastpath_clean.py", select=["fastpath"])
        assert report.findings == []


class TestEvents:
    def test_fires_on_seeded_violations(self, check_fixture):
        report = check_fixture("events_bad.py", select=["events"])
        msgs = _messages(report.errors)
        assert "probe() called with NotAnEvent(...)" in msgs
        assert "bus() called with NotAnEvent(...)" in msgs
        dead = _messages(report.warnings)
        assert "DeadEvent is never constructed" in dead
        assert len(report.errors) == 2
        assert len(report.warnings) == 1

    def test_silent_on_clean_twin(self, check_fixture):
        report = check_fixture("events_clean.py", select=["events"])
        assert report.findings == []


class TestSlots:
    def test_fires_on_seeded_violations(self, check_fixture):
        report = check_fixture("slots_bad.py", select=["slots"])
        msgs = _messages(report.errors)
        # one report per hot function: by name, via a local alias, and
        # in a fused loop
        assert "hot function 'handle_request'" in msgs
        assert "hot function 'access'" in msgs
        assert "hot function '_run_columnar_fast_opg'" in msgs
        assert all("Loose" in f.message for f in report.errors)
        assert len(report.errors) == 3

    def test_silent_on_clean_twin(self, check_fixture):
        report = check_fixture("slots_clean.py", select=["slots"])
        assert report.findings == []


def test_every_rule_registered():
    from repro.check.base import CHECKERS

    assert set(CHECKERS) == {
        "determinism", "units", "unitsflow", "asyncsafe", "resource",
        "fastpath", "events", "slots",
    }
    for rule, cls in CHECKERS.items():
        assert cls.rule == rule
        assert cls.description
