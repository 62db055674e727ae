"""The incremental session: differential bit-identity and lifecycle.

The load-bearing guarantees:

* driving the engine through ``SimulationSession.feed`` produces a
  result **bit-identical** to the batch path (``run_simulation``),
  which itself is pinned to the pre-refactor numbers by the golden
  fixture — so the batch → session re-expression changed nothing;
* restoring a state-snapshot checkpoint taken at *any* request
  boundary and feeding the remaining stream is bit-identical to the
  uninterrupted run, for every online policy × write policy × DPM (the
  property the serve daemon's checkpoint/restore relies on).
"""

import json

import pytest

from repro import run_simulation
from repro.cache.policies.base import OfflinePolicy
from repro.cache.policies.lru import LRUPolicy
from repro.errors import ConfigurationError, SimulationError, TraceError
from repro.faults.plan import FaultPlan
from repro.faults.scenarios import spread_crash_points
from repro.serve.checkpoint import load_checkpoint, save_checkpoint
from repro.sim import (
    POLICY_NAMES,
    WRITE_POLICY_NAMES,
    SimulationConfig,
    StorageSimulator,
    build_policy,
    build_session,
    restore_session,
)
from repro.sim.session import ordered_batches
from repro.traces.record import IORequest
from repro.traces.zoo import CDNTraceConfig, generate_cdn_trace

from tests.integration.golden_spec import (
    COMMON_KWARGS,
    FIXTURE_PATH,
    GOLDEN_RUNS,
    TRACE_CONFIG,
)
from repro.traces.synthetic import generate_synthetic_trace_columnar


@pytest.fixture(scope="module")
def golden_trace():
    return generate_synthetic_trace_columnar(TRACE_CONFIG).to_requests()


def _session_kwargs(name):
    kwargs = {**COMMON_KWARGS, **GOLDEN_RUNS[name]}
    kwargs["cache_blocks"] = kwargs.pop("cache_blocks", 256)
    return kwargs


def _result_doc(result):
    return json.dumps(result.to_dict(), sort_keys=True)


class TestFeedMatchesBatch:
    """feed() ≡ run_simulation ≡ the pre-refactor golden numbers."""

    @pytest.mark.parametrize("name", ["lru", "pa-lru"])
    @pytest.mark.parametrize("batch_size", [1, 7, 500])
    def test_bit_identical_to_batch(self, golden_trace, name, batch_size):
        kwargs = _session_kwargs(name)
        policy = kwargs.pop("policy")
        batch_result = run_simulation(golden_trace, policy, **kwargs)

        session = build_session(policy=policy, **kwargs)
        for batch in ordered_batches(golden_trace, batch_size):
            session.feed(batch)
        fed_result = session.finalize()

        assert _result_doc(fed_result) == _result_doc(batch_result)

    @pytest.mark.parametrize("name", list(GOLDEN_RUNS))
    def test_batch_path_still_matches_golden_fixture(
        self, golden_trace, name
    ):
        """The re-expressed batch path reproduces the pinned numbers."""
        pinned = json.loads(FIXTURE_PATH.read_text())[name]
        kwargs = _session_kwargs(name)
        policy = kwargs.pop("policy")
        result = run_simulation(golden_trace, policy, **kwargs)
        assert result.total_energy_j == pinned["total_energy_j"]
        assert result.cache_hits == pinned["cache_hits"]
        assert result.spinups == pinned["spinups"]
        assert result.response.mean_s == pinned["mean_response_s"]

    def test_run_batch_equals_run_simulation_for_offline(self, golden_trace):
        kwargs = _session_kwargs("opg-theta0")
        policy = kwargs.pop("policy")
        batch_result = run_simulation(golden_trace, policy, **kwargs)
        session = build_session(golden_trace, policy, **kwargs)
        result = session.run_batch()
        assert _result_doc(result) == _result_doc(batch_result)

    def test_offline_policy_rejects_feed(self, golden_trace):
        kwargs = _session_kwargs("opg-theta0")
        policy = kwargs.pop("policy")
        session = build_session(golden_trace, policy, **kwargs)
        with pytest.raises(ConfigurationError, match="whole trace"):
            session.feed(golden_trace[:2])


def _online_policies():
    """Every policy name a live session can be fed (offline ones, which
    need the whole trace, are excluded by type, not by name)."""
    config = SimulationConfig(num_disks=5, cache_capacity_blocks=64)
    return tuple(
        name
        for name in POLICY_NAMES
        if not isinstance(build_policy(name, config), OfflinePolicy)
    )


#: The snapshot matrix: under heavy cache pressure (64 blocks against
#: ~260 distinct blocks) and short PA epochs, so ghosts, pins, log
#: regions and epoch rollovers all carry state across each restore.
MATRIX_KWARGS = {"num_disks": 5, "cache_blocks": 64, "pa_epoch_s": 60.0}
MATRIX_DPMS = ("practical", "oracle", "always_on")


def _feed_matches_batch(trace, batch_size, **params):
    """A probe-free session fed ``trace`` in batches (the columnar loop)
    must equal ``run_simulation`` over the list trace (the
    ``handle_request`` reference), bit for bit."""
    requests = list(trace)
    reference = run_simulation(requests, **params)
    session = build_session(**params)
    for batch in ordered_batches(requests, batch_size):
        session.feed(batch)
    assert _result_doc(session.finalize()) == _result_doc(reference)


class TestColumnarFeedMatchesReference:
    """Every online configuration a live session can run, fed on the
    columnar loop, against the ``handle_request`` reference."""

    @pytest.mark.parametrize("batch_size", [1, 32])
    @pytest.mark.parametrize("dpm", MATRIX_DPMS)
    @pytest.mark.parametrize("write_policy", WRITE_POLICY_NAMES)
    @pytest.mark.parametrize("policy", _online_policies())
    def test_matrix(self, golden_trace, policy, write_policy, dpm, batch_size):
        _feed_matches_batch(
            golden_trace[:1200],
            batch_size,
            policy=policy,
            write_policy=write_policy,
            dpm=dpm,
            **MATRIX_KWARGS,
        )

    @pytest.mark.parametrize("batch_size", [1, 32])
    @pytest.mark.parametrize("policy", ["lru", "pa-lru"])
    @pytest.mark.parametrize(
        "case", ["prefetch", "multi-block-cdn", "disk-faults"]
    )
    def test_prefetch_multi_block_and_faults(
        self, golden_trace, case, policy, batch_size
    ):
        trace, params = golden_trace[:1200], dict(MATRIX_KWARGS)
        if case == "prefetch":
            params["prefetch_depth"] = 4
        elif case == "multi-block-cdn":
            trace = generate_cdn_trace(
                CDNTraceConfig(
                    duration_s=12.0, num_disks=5, write_ratio=0.2, seed=11
                )
            )
            assert int(trace.nblocks.max()) > 1
        else:
            params["fault_plan"] = FaultPlan(
                seed=5, spinup_failure_rate=0.3, io_error_rate=0.2
            )
        _feed_matches_batch(trace, batch_size, policy=policy, **params)

    def test_probe_attached_feed_emits_every_request(self, golden_trace):
        events = []
        session = build_session(
            policy="pa-lru", write_policy="wtdu", probe=events.append,
            **MATRIX_KWARGS,
        )
        fed = []
        for batch in ordered_batches(golden_trace[:300], 32):
            fed += session.feed(batch)
        completed = [e for e in events if e.kind == "request_complete"]
        assert [e.latency_s for e in completed] == fed
        plain = build_session(
            policy="pa-lru", write_policy="wtdu", **MATRIX_KWARGS
        )
        assert plain.feed(golden_trace[:300]) == fed
        assert len(fed) == 300
        assert _result_doc(session.finalize()) == _result_doc(
            plain.finalize()
        )


def _restore_everywhere(trace, tmp_path, cuts=5, **params):
    """Checkpoint at ``cuts`` spread points, restore each through a
    checkpoint file, and compare every continuation with an
    uninterrupted run."""
    unbroken = build_session(**params)
    unbroken.feed(trace)
    expected = _result_doc(unbroken.finalize())

    session = build_session(record_requests=True, **params)
    paths, fed = {}, 0
    for cut in spread_crash_points(len(trace), count=cuts):
        session.feed(trace[fed:cut])
        fed = cut
        paths[cut] = save_checkpoint(
            session.checkpoint(), tmp_path / f"cp-{cut}.json"
        )
    assert _result_doc(session.finalize()) == expected
    for cut, path in paths.items():
        restored = restore_session(load_checkpoint(path))
        assert restored.served == cut
        restored.feed(trace[cut:])
        assert _result_doc(restored.finalize()) == expected, (
            f"divergence restoring at request {cut}"
        )


class TestCheckpointRestoreProperty:
    """Restore at any boundary ≡ the uninterrupted run, bit for bit."""

    @pytest.mark.parametrize("name", ["lru", "pa-lru"])
    def test_restore_is_bit_identical_everywhere(
        self, golden_trace, name, tmp_path
    ):
        kwargs = _session_kwargs(name)
        _restore_everywhere(golden_trace[:1200], tmp_path, **kwargs)

    @pytest.mark.parametrize("dpm", MATRIX_DPMS)
    @pytest.mark.parametrize("write_policy", WRITE_POLICY_NAMES)
    @pytest.mark.parametrize("policy", _online_policies())
    def test_snapshot_matrix(
        self, golden_trace, tmp_path, policy, write_policy, dpm
    ):
        _restore_everywhere(
            golden_trace[:1200],
            tmp_path,
            policy=policy,
            write_policy=write_policy,
            dpm=dpm,
            **MATRIX_KWARGS,
        )

    @pytest.mark.parametrize("policy", ["arc", "mq", "lirs", "pa-lirs"])
    def test_ghost_trimming_sessions(self, golden_trace, tmp_path, policy):
        # An 8-block cache overflows LIRS's ghost bound (16 entries),
        # which the 64-block matrix never reaches; dense cuts make some
        # restore land just before the ghost heap is popped.
        _restore_everywhere(
            golden_trace[:1200],
            tmp_path,
            cuts=60,
            policy=policy,
            **{**MATRIX_KWARGS, "cache_blocks": 8},
        )

    @pytest.mark.parametrize("policy", ["lru", "pa-lru"])
    def test_adaptive_dpm_sessions(self, golden_trace, tmp_path, policy):
        _restore_everywhere(
            golden_trace[:1200],
            tmp_path,
            policy=policy,
            write_policy="wtdu",
            dpm="adaptive",
            **MATRIX_KWARGS,
        )

    @pytest.mark.parametrize("policy", ["lru", "pa-lru"])
    def test_prefetching_sessions(self, golden_trace, tmp_path, policy):
        _restore_everywhere(
            golden_trace[:1200],
            tmp_path,
            policy=policy,
            prefetch_depth=4,
            **MATRIX_KWARGS,
        )

    def test_restored_session_can_checkpoint_again(
        self, golden_trace, tmp_path
    ):
        trace = golden_trace[:1200]
        params = {"policy": "pa-lru", "write_policy": "wtdu", **MATRIX_KWARGS}
        session = build_session(record_requests=True, **params)
        session.feed(trace[:400])
        first = save_checkpoint(session.checkpoint(), tmp_path / "a.json")
        restored = restore_session(load_checkpoint(first))
        restored.feed(trace[400:800])
        second = save_checkpoint(restored.checkpoint(), tmp_path / "b.json")
        again = restore_session(load_checkpoint(second))
        assert again.served == 800
        again.feed(trace[800:])
        full = build_session(**params)
        full.feed(trace)
        assert _result_doc(again.finalize()) == _result_doc(full.finalize())


def _longest_list(node) -> int:
    if isinstance(node, dict):
        return max(map(_longest_list, node.values()), default=0)
    if isinstance(node, list):
        return max([len(node), *map(_longest_list, node)])
    return 0


class TestSnapshotRestore:
    """A restore loads state; it never re-simulates the prefix."""

    def _checkpoint(self, trace, served=600):
        session = build_session(
            policy="pa-lru", write_policy="wtdu", record_requests=True,
            **MATRIX_KWARGS,
        )
        session.feed(trace[:served])
        return session.checkpoint()

    def test_restore_replays_no_request(self, golden_trace, monkeypatch):
        checkpoint = self._checkpoint(golden_trace)
        calls = []
        for name in ("run", "handle_batch", "handle_request"):
            original = getattr(StorageSimulator, name)

            def counting(self, *args, _name=name, _original=original):
                calls.append((_name, args))
                return _original(self, *args)

            monkeypatch.setattr(StorageSimulator, name, counting)
        restored = restore_session(checkpoint)
        assert calls == []
        assert restored.served == 600
        restored.feed(golden_trace[600:610])
        # one columnar batch of the ten fed rows, nothing row by row
        assert [(name, len(args[0])) for name, args in calls] == [
            ("handle_batch", 10)
        ]

    def test_checkpoint_holds_no_per_request_rows(self, golden_trace, tmp_path):
        path = save_checkpoint(
            self._checkpoint(golden_trace), tmp_path / "cp.json"
        )
        document = json.loads(path.read_text())
        assert "requests" not in document
        # Per-disk and per-bin lists only; the response samples ride as
        # one base64 string.
        assert _longest_list(document) < 100

    def test_checkpoint_refuses_a_fault_plan(self, golden_trace):
        session = build_session(
            policy="lru",
            record_requests=True,
            fault_plan=FaultPlan(
                seed=5, spinup_failure_rate=0.3, io_error_rate=0.2
            ),
            **_session_kwargs_common(),
        )
        session.feed(golden_trace[:300])
        with pytest.raises(ConfigurationError, match="fault plan"):
            session.checkpoint()

    def test_component_without_snapshot_is_refused(
        self, golden_trace, monkeypatch
    ):
        session = build_session(
            policy="lru", record_requests=True, **_session_kwargs_common()
        )
        session.feed(golden_trace[:50])
        monkeypatch.delattr(LRUPolicy, "state_dict")
        with pytest.raises(ConfigurationError, match="LRUPolicy has no"):
            session.checkpoint()


def _session_kwargs_common():
    return {"num_disks": 5, "cache_blocks": 256, "dpm": "practical"}


class TestSessionLifecycle:
    def _requests(self, times):
        return [
            IORequest(time=t, disk=0, block=i, nblocks=1, is_write=False)
            for i, t in enumerate(times)
        ]

    def _session(self, **overrides):
        kwargs = {**_session_kwargs_common(), **overrides}
        return build_session(policy="lru", **kwargs)

    def test_feed_enforces_time_order_across_batches(self):
        session = self._session()
        session.feed(self._requests([1.0, 2.0]))
        with pytest.raises(TraceError, match="behind the session watermark"):
            session.feed(self._requests([1.5]))

    @pytest.mark.parametrize("probe", [None, "events"], ids=["columnar", "probe"])
    def test_rejected_batch_is_not_simulated(self, probe):
        def session():
            return self._session(probe=[].append if probe else None)

        good = self._requests([1.0, 2.0, 3.0])
        late = IORequest(time=0.5, disk=0, block=99, nblocks=1, is_write=False)
        rejected = session()
        with pytest.raises(TraceError, match="behind the session watermark"):
            rejected.feed([*good, late])
        assert rejected.served == 0
        assert rejected.now == 0.0
        assert rejected.simulator.cache.stats.accesses == 0
        rejected.feed(good)
        clean = session()
        clean.feed(good)
        assert rejected.served == clean.served == 3
        assert rejected.now == clean.now == 3.0
        assert _result_doc(rejected.finalize()) == _result_doc(
            clean.finalize()
        )

    def test_advance_to_cannot_go_backwards(self):
        session = self._session()
        session.advance_to(10.0)
        with pytest.raises(TraceError, match="behind the watermark"):
            session.advance_to(5.0)
        with pytest.raises(TraceError):
            session.feed(self._requests([9.0]))

    def test_advance_raises_the_finalize_horizon(self):
        session = self._session()
        session.feed(self._requests([1.0]))
        session.advance_to(5000.0)
        result = session.finalize()
        assert result.duration_s == 5000.0

    def test_finalize_is_terminal(self):
        session = self._session()
        session.feed(self._requests([1.0]))
        session.finalize()
        assert session.finalized
        with pytest.raises(SimulationError, match="already finalized"):
            session.feed(self._requests([2.0]))
        with pytest.raises(SimulationError):
            session.finalize()

    def test_run_batch_refuses_a_fed_session(self):
        session = self._session()
        session.feed(self._requests([1.0]))
        with pytest.raises(SimulationError, match="already been fed"):
            session.run_batch()

    def test_checkpoint_needs_recording(self):
        session = self._session()
        with pytest.raises(ConfigurationError, match="record_requests"):
            session.checkpoint()

    def test_checkpoint_needs_rebuild_params(self):
        from repro.sim.config import SimulationConfig

        session = build_session(
            policy="lru",
            record_requests=True,
            config=SimulationConfig(
                num_disks=2, cache_capacity_blocks=64, dpm="practical"
            ),
            num_disks=2,
            cache_blocks=64,
        )
        with pytest.raises(ConfigurationError, match="rebuild"):
            session.checkpoint()

    def test_ordered_batches_covers_everything_in_order(self):
        reqs = self._requests([float(i) for i in range(10)])
        batches = list(ordered_batches(reqs, 3))
        assert [len(b) for b in batches] == [3, 3, 3, 1]
        assert [r for b in batches for r in b] == reqs
        with pytest.raises(ConfigurationError):
            list(ordered_batches(reqs, 0))
