"""The full-system simulation engine.

Processes a trace chronologically. Per block access:

* **read hit** — cache latency only.
* **read miss** — a disk read at the request's arrival time (paying any
  spin-up), then insertion; evicted dirty blocks are persisted by the
  write policy at the same instant (queued behind the read, so the
  demand read is not delayed by writeback traffic); WBEU/WTDU get the
  ``after_read_wake`` hook to piggyback flushes on the spin-up.
* **write** — write-allocate into the cache, then the write policy
  decides what (if anything) hits the disk or the log device and what
  latency the client observes.

The per-request response time is the slowest of its block accesses.
"""

from __future__ import annotations

import gc
from bisect import bisect_left, bisect_right, insort
from heapq import heappop, heappush
from itertools import chain
from math import inf
from typing import Sequence

import numpy as np

from repro.cache.block import BlockState
from repro.cache.cache import StorageCache
from repro.cache.policies.base import OfflinePolicy, ReplacementPolicy
from repro.cache.policies.lru import LRUPolicy
from repro.cache.write.base import WritePolicy
from repro.cache.write.write_back import WriteBackPolicy
from repro.cache.write.wtdu import WTDUPolicy
from repro.core import kernels
from repro.core.bloom import BloomFilter
from repro.core.classifier import DiskClass, DiskClassifier
from repro.core.opg import OPGPolicy
from repro.core.pa import PowerAwarePolicy
from repro.core.prefetch import Prefetcher
from repro.disk.array import DiskArray
from repro.disk.disk import SimulatedDisk
from repro.disk.multispeed import AllSpeedServiceDisk
from repro.errors import (
    ConfigurationError,
    PolicyError,
    SimulationError,
    TraceError,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.observe.events import RequestComplete, SimulationStart
from repro.power.specs import build_power_model
from repro.sim.config import SimulationConfig
from repro.sim.results import DiskReport, ResponseStats, SimulationResult
from repro.snapshot import load_state, pack_floats, state_of, unpack_floats
from repro.traces import columnar
from repro.traces.columnar import ColumnarTrace, iter_chunks, iter_rows
from repro.traces.record import IORequest

#: Fast-path audit registry, enforced statically by ``repro check``'s
#: ``fastpath`` rule: every concrete subclass of the gated base classes
#: found anywhere in ``src/repro`` must be listed here. Listing a class
#: asserts it has been audited for bit-identity between the inlined
#: fast paths (``_run_columnar_fast`` below, ``SimulatedDisk.
#: submit_quick``, the memoized DPM tables) and the polymorphic loop —
#: i.e. the columnar/reference equivalence tests and ``repro bench
#: --check`` cover it. When you add a subclass, run those, then add its
#: name; the checker fails the build until you do.
#:
#: The ``BatchKernel`` pseudo-base gates the vectorized kernels of
#: :mod:`repro.core.kernels` the same way: every function carrying the
#: ``@batch_kernel`` decorator must be listed here, asserting its
#: property-test coverage against the scalar reference
#: (``tests/property/test_kernel_equivalence.py``) and its use in a
#: differentially-tested fused loop.
FAST_PATH_AUDITED: dict[str, frozenset[str]] = {
    "ReplacementPolicy": frozenset(
        {
            # Abstract intermediate (prepare() contract only).
            "OfflinePolicy",
            "LRUPolicy",
            "FIFOPolicy",
            "ClockPolicy",
            "ARCPolicy",
            "MQPolicy",
            "LIRSPolicy",
            "BeladyPolicy",
            "OPGPolicy",
            "PowerAwarePolicy",
        }
    ),
    "WritePolicy": frozenset(
        {
            "WriteBackPolicy",
            "WriteThroughPolicy",
            "WBEUPolicy",
            "WTDUPolicy",
            "PeriodicFlushPolicy",
        }
    ),
    "DiskPowerManager": frozenset(
        {
            "AlwaysOnDPM",
            "OracleDPM",
            "PracticalDPM",
            "AdaptiveThresholdDPM",
        }
    ),
    "BatchKernel": frozenset(
        {
            "bloom_cold_mask",
            "epoch_boundary_table",
            "epoch_roll_counts",
            "histogram_counts",
            "histogram_quantile",
            "next_access_arrays",
            "first_times_by_disk",
        }
    ),
}


class StorageSimulator:
    """One complete simulation run.

    Args:
        trace: Time-ordered requests.
        config: Array/cache/DPM configuration.
        policy: Replacement policy instance (offline policies are
            prepared automatically from the trace).
        write_policy: Write policy; defaults to write-back (the usual
            configuration for a large non-volatile storage cache, and
            the paper's setting for the replacement study).
        label: Report label; defaults to the policy names.
        probe: Optional event hook — any callable taking one
            :class:`~repro.observe.events.Event` (usually an
            :class:`~repro.observe.bus.EventBus`). ``None`` (default)
            disables tracing at near-zero cost.
        fault_plan: Optional :class:`~repro.faults.plan.FaultPlan`; when
            it arms disk faults a seeded
            :class:`~repro.faults.injector.FaultInjector` is built and
            shared by every disk. Crash points are the crash harness's
            job (:mod:`repro.faults.harness`), not the engine's.
    """

    def __init__(
        self,
        trace: Sequence[IORequest],
        config: SimulationConfig,
        policy: ReplacementPolicy,
        write_policy: WritePolicy | None = None,
        prefetcher: Prefetcher | None = None,
        label: str | None = None,
        probe=None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.trace = trace
        self.config = config
        self.policy = policy
        self.probe = probe
        self.fault_injector = (
            FaultInjector(fault_plan, probe=probe)
            if fault_plan is not None and fault_plan.injects_disk_faults
            else None
        )
        self.write_policy = write_policy or WriteBackPolicy()
        if prefetcher is not None and isinstance(policy, OfflinePolicy):
            raise ConfigurationError(
                "prefetching admits blocks outside the demand sequence, "
                "which offline policies cannot model; use an online policy"
            )
        self.prefetcher = prefetcher
        self.label = label or f"{policy.name}+{self.write_policy.name}"
        self.power_model = build_power_model(config.spec, config.nap_rpms)
        disk_cls = (
            AllSpeedServiceDisk
            if config.disk_design == "all-speed"
            else SimulatedDisk
        )
        self.array = DiskArray(
            num_disks=config.num_disks,
            spec=config.spec,
            dpm_factory=lambda model: config.make_dpm(model),
            power_model=self.power_model,
            block_size=config.block_size,
            disk_cls=disk_cls,
            probe=probe,
            fault_injector=self.fault_injector,
        )
        self.cache = StorageCache(
            config.cache_capacity_blocks, policy, probe=probe
        )
        # Skip the listener indirection entirely for policies that
        # inherit the no-op hook (everything but the power-aware ones).
        listener = (
            None
            if type(policy).note_disk_activity
            is ReplacementPolicy.note_disk_activity
            else policy.note_disk_activity
        )
        self.write_policy.attach(
            self.cache, self.array, activity_listener=listener
        )
        self.write_policy.set_probe(probe)
        classifier = getattr(policy, "classifier", None)
        if classifier is not None:
            classifier.probe = probe
        self._responses: list[float] = []
        self._disk_reads = 0
        self._ran = False

    def prepare_offline(self):
        """Prepare an offline policy from the constructor trace.

        A list trace is packed into columns first
        (:meth:`ColumnarTrace.from_requests`): every offline policy is
        prepared by ``prepare_columnar``. Returns the trace's per-block
        expansion that the policy was prepared on (the ``(accesses,
        starts)`` pair of :meth:`ColumnarTrace.block_accesses`), which
        a fused loop runs on instead of expanding the trace again;
        ``None`` for an online policy. Called by :meth:`run`; a driver
        that calls :meth:`handle_request` itself but knows the whole
        trace up front (the crash harness) calls it before the first
        request.
        """
        if not isinstance(self.policy, OfflinePolicy):
            return None
        trace = self.trace
        if not isinstance(trace, ColumnarTrace):
            trace = ColumnarTrace.from_requests(trace)
        return self.policy.prepare_columnar(trace)

    def run(self) -> SimulationResult:
        """Execute the simulation; may be called once per instance.

        This is the batch drive style; :meth:`handle_batch` +
        :meth:`finish` (wrapped by
        :class:`~repro.sim.session.SimulationSession`) is the
        incremental one. A :class:`ColumnarTrace` with no probe attached
        runs on the columnar fast loops; every other run feeds its rows
        through :meth:`handle_request`, the scalar reference. Both
        produce identical results for identical request streams — the
        differential tests pin it.
        """
        if self._ran:
            raise TraceError("simulator instances are single-use")
        self._ran = True
        trace = self.trace
        columnar = isinstance(trace, ColumnarTrace)
        if columnar:
            # Checked up front whichever loop runs, so a disordered
            # trace fails before any request is simulated.
            bad = trace.first_disorder()
            if bad is not None:
                raise TraceError(
                    f"trace not time-ordered at t={float(trace.times[bad])} "
                    f"(< {float(trace.times[bad - 1])})"
                )
        if columnar and self.probe is None:
            last_time = self._run_columnar()
        else:
            self.prepare_offline()
            if self.probe is not None:
                start = trace[0].time if len(trace) else 0.0
                self.probe(
                    SimulationStart(
                        start,
                        self.config.num_disks,
                        self.config.cache_capacity_blocks,
                        self.config.disk_design,
                        self.label,
                        num_modes=len(self.power_model),
                    )
                )
            previous_time = -1.0
            last_time = 0.0
            handle_request = self.handle_request
            for req in trace:
                if req.time < previous_time:
                    raise TraceError(
                        f"trace not time-ordered at t={req.time} "
                        f"(< {previous_time})"
                    )
                previous_time = last_time = req.time
                handle_request(req)

        end_time = last_time + self.config.trace_tail_s
        return self.finish(end_time)

    def _run_columnar(self) -> float:
        """Run a probe-free columnar trace; returns the last request time.

        Picks a policy-fused loop when its gate holds, else the generic
        :meth:`_run_columnar_fast`. All of them read the trace straight
        out of the columns: no :class:`IORequest` objects, per-request
        attribute lookups hoisted into locals, and the per-block access
        fully inlined. The generic loop walks a multi-block request's
        blocks in an inner loop; the fused loops, whose batch-kernel
        plans are per access, run over the trace's per-block access
        columns (:meth:`ColumnarTrace.block_accesses`) and fold each
        request's accesses back into one response, the slowest. An
        offline policy is prepared on those same columns
        (:meth:`prepare_offline`), so a trace is expanded once per run.

        Every loop boxes one chunk of rows into Python objects at a
        time (:data:`~repro.traces.columnar.CHUNK_ROWS` of them, see
        :meth:`_access_rows`), so a run holds one chunk of boxed rows
        and its plan slices, not the whole trace.
        """
        expanded = self.prepare_offline()
        trace: ColumnarTrace = self.trace
        if len(trace) == 0:
            return 0.0
        # The hot loops allocate tracked objects (heap tuples, res
        # items, block states) by the million while holding large live
        # container graphs, so generational GC rescans cost 10-15% of
        # the run; the loops create no reference cycles (refcounting
        # frees everything promptly), so cyclic GC is pure overhead
        # here. Suspend it for the batch, restore in any case.
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            fused = self._fused_loop_for()
            if fused is not None:
                return fused(*(expanded or trace.block_accesses()))
            del expanded  # released: the generic loop never reads it
            # the generic loop is re-entrant: once per chunk, as
            # handle_batch runs it once per fed batch
            last_time = 0.0
            for chunk in iter_chunks(trace.columns()):
                last_time = self._run_columnar_fast(*chunk)
                del chunk  # unboxed before the next chunk is boxed
            return last_time
        finally:
            if was_enabled:
                gc.enable()

    def _access_rows(self, starts, *columns):
        """The fused loops' rows: per-access columns, boxed one chunk
        at a time.

        ``starts`` is :meth:`ColumnarTrace.block_accesses`'s second
        value. For a single-block trace (``None``) every access is a
        request, and chunks are ``CHUNK_ROWS`` rows. On a multi-block
        trace each chunk ends on a request boundary (at the first
        request starting at or past each multiple of ``CHUNK_ROWS``),
        and the responses the loop appended for a chunk, one per
        access, fold into one per request (the slowest block's,
        ``np.maximum.reduceat``) when the loop asks for the next
        chunk's first row: after the chunk's last row ran, before the
        next chunk is boxed. So neither boxed rows nor per-access
        responses pile up over the trace.
        """
        if starts is None:
            return iter_rows(columns)
        return chain.from_iterable(self._folding_chunks(starts, columns))

    def _folding_chunks(self, starts, columns):
        """One row ``zip`` per request-aligned chunk; folds each
        chunk's responses when resumed (see :meth:`_access_rows`)."""
        n = len(columns[0])
        step = columnar.CHUNK_ROWS
        # chunk ends as request indices, then as access rows
        request_ends = np.unique(
            np.append(
                np.searchsorted(starts, np.arange(step, n, step)),
                len(starts),
            )
        ).tolist()
        bounds = np.append(starts, n)
        chunks = iter_chunks(columns, bounds[request_ends].tolist())
        responses = self._responses
        lo = 0
        for hi in request_ends:
            first = len(responses)
            yield zip(*next(chunks))
            slowest = np.maximum.reduceat(
                np.array(responses[first:]), starts[lo:hi] - bounds[lo]
            )
            del responses[first:]
            responses.extend(slowest.tolist())
            lo = hi

    def _run_columnar_fast(self, times, disks, blocks_col, counts, writes):
        """Probe-free columnar loop with the cache access path inlined.

        Only runs when no event hook is attached (probe-attached runs
        go through :meth:`handle_request`, which keeps the full event
        stream); :meth:`handle_batch` runs it once per fed batch, so
        it starts from whatever state earlier batches left. Performs
        exactly the operations of
        ``StorageCache.access`` + :meth:`handle_request`, in the same
        order; the plain-counter statistics are kept in locals and
        folded into ``CacheStats`` once at the end (integer addition
        commutes, and nothing reads the counters mid-run). The
        columnar/reference equivalence tests pin the results bit for bit.
        """
        cache = self.cache
        policy = self.policy
        write_policy = self.write_policy
        blocks = cache._blocks
        blocks_get = blocks.get
        blocks_pop = blocks.pop
        stats = cache.stats
        seen = stats._seen
        make_room = cache._make_room
        capacity = cache.capacity
        dirty_get = cache._dirty_by_disk.get
        on_access = policy.on_access
        on_insert = policy.on_insert
        policy_evict = policy.evict
        on_write = write_policy.on_write
        on_evicted = write_policy.on_evicted
        after_read_wake = (
            None
            if type(write_policy).after_read_wake
            is WritePolicy.after_read_wake
            else write_policy.after_read_wake
        )
        quick = [d.submit_quick for d in self.array.disks]
        prefetcher = self.prefetcher
        hit_latency = self.config.cache_hit_latency_s
        append_response = self._responses.append
        block_state = BlockState
        disk_reads = 0
        n_acc = n_read = n_write = 0
        n_hit = n_miss = n_cold = n_pf_hits = 0
        n_evict = n_dirty_evict = 0

        time = 0.0
        for time, disk, block, count, is_write in zip(
            times, disks, blocks_col, counts, writes
        ):
            # A request is its blocks' accesses at one instant, in block
            # order (``IORequest.block_keys``); its response is the
            # slowest block's.
            n_acc += count
            if is_write:
                n_write += count
            else:
                n_read += count
            worst = hit_latency
            end = block + count
            while block < end:
                key = (disk, block)
                state = blocks_get(key)
                if state is not None:
                    n_hit += 1
                    on_access(key, time, True)
                    if state.prefetched:
                        state.prefetched = False
                        n_pf_hits += 1
                    if is_write:
                        latency = on_write(key, time)
                        if latency > worst:
                            worst = latency
                else:
                    n_miss += 1
                    if key not in seen:
                        n_cold += 1
                        seen.add(key)
                    on_access(key, time, False)
                    if capacity is not None and len(blocks) >= capacity:
                        if (
                            cache._pinned == 0
                            and len(blocks) == capacity
                            and len(policy)
                        ):
                            # _make_room's steady-state case inlined:
                            # exactly one eviction, no pinned blocks
                            victim = policy_evict(time)
                            vstate = blocks_pop(victim, None)
                            if vstate is None:
                                raise SimulationError(
                                    "policy evicted non-resident block "
                                    f"{victim}"
                                )
                            n_evict += 1
                            if vstate.dirty:
                                n_dirty_evict += 1
                                bucket = dirty_get(victim[0])
                                if bucket is not None:
                                    bucket.discard(victim)
                            evicted = ((victim, vstate),)
                        else:
                            evicted = make_room(time)
                    else:
                        evicted = ()
                    blocks[key] = block_state()
                    on_insert(key, time)
                    if is_write:
                        for victim, vstate in evicted:
                            on_evicted(victim, vstate, time)
                        latency = on_write(key, time)
                        if latency > worst:
                            worst = latency
                    else:
                        latency, wake_delay = quick[disk](time, block, False)
                        disk_reads += 1
                        if latency > worst:
                            worst = latency
                        for victim, vstate in evicted:
                            on_evicted(victim, vstate, time)
                        if after_read_wake is not None:
                            after_read_wake(disk, time, woke=wake_delay > 0)
                        if prefetcher is not None:
                            self._prefetch(key, wake_delay > 0, time)
                block += 1
            append_response(worst)
        stats.accesses += n_acc
        stats.read_accesses += n_read
        stats.write_accesses += n_write
        stats.hits += n_hit
        stats.misses += n_miss
        stats.cold_misses += n_cold
        stats.prefetch_hits += n_pf_hits
        stats.evictions += n_evict
        stats.dirty_evictions += n_dirty_evict
        self._disk_reads += disk_reads
        return time

    def _fused_loop_for(self):
        """Pick a policy-fused columnar loop, or ``None``.

        The fused loops (``_run_columnar_fast_pa`` /
        ``_run_columnar_fast_opg``) consume precomputed batch-kernel
        plans (:mod:`repro.core.kernels`) and inline the policy state
        machine, so their gates are strict: exact policy types (a
        subclass could override any hook), no prefetcher (prefetch
        admissions would desynchronize the precomputed Bloom/next-access
        plans). The OPG loop additionally requires exactly
        ``WriteBackPolicy``, the write policy every OPG benchmark and
        figure runs: it inlines write-back's hooks and calls no write
        policy method. Anything else, OPG under any other write policy
        included, takes the generic ``_run_columnar_fast`` with
        polymorphic policy calls.
        """
        if self.prefetcher is not None:
            return None
        policy = self.policy
        if (
            type(policy) is PowerAwarePolicy
            and type(policy._regular) is LRUPolicy
            and type(policy._priority) is LRUPolicy
            and type(policy.classifier) is DiskClassifier
            and type(policy.classifier._bloom) is BloomFilter
            and policy.classifier._epoch_end is None
            and policy.classifier._bloom._count == 0
            and not policy._home
        ):
            return self._run_columnar_fast_pa
        if (
            type(policy) is OPGPolicy
            and not policy._next_of
            and type(self.write_policy) is WriteBackPolicy
        ):
            return self._run_columnar_fast_opg
        return None

    def _run_columnar_fast_pa(self, trace, starts):
        """PA-LRU fused loop: batch-kernel plans + inlined PA/LRU state.

        Three facts make the classifier's hot work precomputable from
        the trace alone (see :mod:`repro.core.kernels`):

        * the Bloom filter's verdicts — a key's first access is always
          a miss and later ``check_and_add`` calls are state no-ops, so
          :func:`~repro.core.kernels.bloom_cold_mask` replays the whole
          filter up front with chunked batched hashing;
        * epoch rollover — boundaries depend only on the first/last
          timestamps, so per-access completed-epoch counts come from
          one ``searchsorted``;
        * the interval CDFs — per-epoch histograms are only *read* at
          epoch boundaries, so misses buffer their interval lengths and
          each boundary bins them with one vectorized histogram pass.

        Everything else (LRU stacks, `_home` map, `_classes`) is the
        policy's **live** state, mutated in place, so the generic
        fallbacks (``_make_room`` with pinned blocks, write-policy
        hooks) stay coherent mid-run. The classifier's other state
        (Bloom words, per-disk miss counts and histograms, last miss
        times, epoch clock) lives in the loop's locals and is not
        handed back: a simulator is single-use, and a fused run is a
        batch run, never a session, so nothing reads it afterwards.
        Bit-identity with the scalar path is pinned by the fused-path
        differential tests.
        """
        cache = self.cache
        policy: PowerAwarePolicy = self.policy
        classifier = policy.classifier
        bloom = classifier._bloom
        num_disks = classifier.num_disks

        # -- batch-kernel plans ------------------------------------------
        cold_plan, _, _ = kernels.bloom_cold_mask(
            trace.disks, trace.blocks, bloom.num_bits, bloom.num_hashes
        )
        boundaries = kernels.epoch_boundary_table(
            float(trace.times[0]),
            classifier.epoch_length_s,
            float(trace.times[-1]),
        )
        rows = self._access_rows(
            starts,
            trace.times,
            trace.disks,
            trace.blocks,
            trace.is_write,
            cold_plan,
            kernels.epoch_roll_counts(trace.times, boundaries),
        )

        # -- live policy/classifier state (aliased, not copied) ----------
        classes = classifier._classes
        PRIORITY = DiskClass.PRIORITY
        REGULAR = DiskClass.REGULAR
        reg_pol = policy._regular
        pri_pol = policy._priority
        reg_stack = reg_pol._stack
        pri_stack = pri_pol._stack
        home = policy._home
        home_get = home.get
        miss_ct = [0] * num_disks
        cold_ct = [0] * num_disks
        buffers: list[list[float]] = [[] for _ in range(num_disks)]
        last_d = list(classifier._last_disk_access)
        edges = classifier._stats[0].histogram.edges
        alpha = classifier.alpha
        p_q = classifier.p
        threshold_t = classifier.threshold_t
        histogram_counts = kernels.histogram_counts
        histogram_quantile = kernels.histogram_quantile

        def reclassify() -> None:
            # DiskClassifier._reclassify with the buffered intervals
            # binned in one vectorized pass per disk.
            for d in range(num_disks):
                m = miss_ct[d]
                if m == 0:
                    classes[d] = PRIORITY
                    continue
                buf = buffers[d]
                total = len(buf)
                if total:
                    counts = histogram_counts(edges, buf)
                    x_p = histogram_quantile(edges, counts, total, p_q)
                    buffers[d] = []
                else:
                    x_p = inf
                classes[d] = (
                    PRIORITY
                    if cold_ct[d] / m <= alpha and x_p >= threshold_t
                    else REGULAR
                )
                miss_ct[d] = 0
                cold_ct[d] = 0

        # -- engine locals (mirrors _run_columnar_fast) ------------------
        blocks = cache._blocks
        blocks_get = blocks.get
        blocks_pop = blocks.pop
        stats = cache.stats
        seen = stats._seen
        make_room = cache._make_room
        capacity = cache.capacity
        dirty_get = cache._dirty_by_disk.get
        write_policy = self.write_policy
        on_write = write_policy.on_write
        on_evicted = write_policy.on_evicted
        after_read_wake = (
            None
            if type(write_policy).after_read_wake
            is WritePolicy.after_read_wake
            else write_policy.after_read_wake
        )
        quick = [d.submit_quick for d in self.array.disks]
        hit_latency = self.config.cache_hit_latency_s
        append_response = self._responses.append
        block_state = BlockState
        disk_reads = 0
        n_acc = n_read = n_write = 0
        n_hit = n_miss = n_cold = 0
        n_evict = n_dirty_evict = 0
        rolls_done = 0

        time = 0.0
        for time, disk, block, is_write, cold_i, roll_i in rows:
            while rolls_done < roll_i:
                reclassify()
                rolls_done += 1
            key = (disk, block)
            n_acc += 1
            if is_write:
                n_write += 1
            else:
                n_read += 1
            worst = hit_latency
            state = blocks_get(key)
            if state is not None:
                n_hit += 1
                # PA.on_access(hit): classify, migrate-or-touch
                if classes[disk] is PRIORITY:
                    target = pri_pol
                    tstack = pri_stack
                else:
                    target = reg_pol
                    tstack = reg_stack
                current = home_get(key)
                if current is target:
                    tstack.move_to_end(key)
                else:
                    (pri_stack if current is pri_pol else reg_stack).pop(
                        key, None
                    )
                    tstack[key] = None
                    home[key] = target
                if is_write:
                    latency = on_write(key, time)
                    if latency > worst:
                        worst = latency
            else:
                n_miss += 1
                if key not in seen:
                    n_cold += 1
                    seen.add(key)
                # classifier.observe_miss with the precomputed verdict
                miss_ct[disk] += 1
                if cold_i:
                    cold_ct[disk] += 1
                last = last_d[disk]
                if last is not None:
                    gap = time - last
                    buffers[disk].append(gap if gap > 0.0 else 0.0)
                last_d[disk] = time
                if capacity is not None and len(blocks) >= capacity:
                    if (
                        cache._pinned == 0
                        and len(blocks) == capacity
                        and (reg_stack or pri_stack)
                    ):
                        # PA.evict inlined: drain regular first
                        if reg_stack:
                            victim = reg_stack.popitem(last=False)[0]
                        else:
                            victim = pri_stack.popitem(last=False)[0]
                        del home[victim]
                        vstate = blocks_pop(victim, None)
                        if vstate is None:
                            raise SimulationError(
                                "policy evicted non-resident block "
                                f"{victim}"
                            )
                        n_evict += 1
                        if vstate.dirty:
                            n_dirty_evict += 1
                            bucket = dirty_get(victim[0])
                            if bucket is not None:
                                bucket.discard(victim)
                        evicted = ((victim, vstate),)
                    else:
                        evicted = make_room(time)
                else:
                    evicted = ()
                blocks[key] = block_state()
                # PA.on_insert inlined (fresh key, not in _home)
                if classes[disk] is PRIORITY:
                    pri_stack[key] = None
                    home[key] = pri_pol
                else:
                    reg_stack[key] = None
                    home[key] = reg_pol
                if is_write:
                    for victim, vstate in evicted:
                        on_evicted(victim, vstate, time)
                    latency = on_write(key, time)
                    if latency > worst:
                        worst = latency
                else:
                    latency, wake_delay = quick[disk](time, block, False)
                    disk_reads += 1
                    if latency > worst:
                        worst = latency
                    for victim, vstate in evicted:
                        on_evicted(victim, vstate, time)
                    if after_read_wake is not None:
                        after_read_wake(disk, time, woke=wake_delay > 0)
            append_response(worst)

        stats.accesses += n_acc
        stats.read_accesses += n_read
        stats.write_accesses += n_write
        stats.hits += n_hit
        stats.misses += n_miss
        stats.cold_misses += n_cold
        stats.evictions += n_evict
        stats.dirty_evictions += n_dirty_evict
        self._disk_reads += disk_reads
        return time

    def _run_columnar_fast_opg(self, trace, starts):
        """OPG fused loop: vectorized prepare plans + inlined heap ops.

        OPG's eviction order hinges on its stamped heap tuples, so no
        *algorithmic* change is possible without changing results; this
        loop keeps the scalar arithmetic and push discipline exactly
        (same stamps, same tuple values) and removes the interpretation
        overhead around it: ``_advance``'s per-access sequence check is
        skipped (the access stream IS the prepared columnar trace; each
        access's next-reference time, ``_next_time_array``, rides along
        in the loop's rows, :meth:`_access_rows`),
        untrack/track pairs are fused (one net ``+2`` stamp bump, one
        push; hit and miss share the res add and the ``push`` closure
        that the gap splitter's re-pushes also use), the
        chunked-container operations (timeline neighbor lookup/insert,
        res add/discard/range-walk) are inlined against per-disk hoists
        of the two-level ``_chunks``/``_maxes`` representation, and each
        penalty's three idle-energy evaluations collapse into one
        inline segment-table walk (three
        :meth:`~repro.power.dpm._SegmentTable.energy` lookups with the
        table columns hoisted into closure locals) when the energy
        function is an exact ``PracticalDPM``'s ``idle_energy`` — plus
        a one-comparison shortcut for gaps inside the first
        residency segment, where all three lookups share segment 0 and
        no bisect is needed, and per-value first/last-segment lanes
        that replace the bisect with one or two float compares for the
        (measured-dominant) below-``bounds[0]`` / above-``bounds[-1]``
        distances. Misses never split the timeline: a cold miss's time
        was seeded during prepare, and a repeat miss occurs exactly at
        the recorded next-access time some earlier eviction already
        inserted — so the miss path carries no gap-split probe at all.

        The loop runs for one write policy, exactly ``WriteBackPolicy``
        (the class is fast-path audited; see :meth:`_fused_loop_for`),
        and inlines its three hooks: clean evictions cost nothing, a
        dirty victim is submitted directly and its flush goes straight
        to the fused gap splitter (what the scalar ``_write_to_disk`` →
        ``note_disk_activity`` chain does; the splitter self-detects
        already-known times via its locating bisect), and ``on_write``
        becomes the ``mark_dirty`` update on the state object already
        in hand. No write policy method runs during the loop, and the
        flush count is added to ``disk_writes`` after it.

        The heap, ``_res`` lists and timelines are the policy's live
        objects; per-block next-time and stamp ride the cache's
        ``BlockState`` scratch slots (``opg_nt``/``opg_stamp``) so the
        hit path's residency probe is the only per-access dict lookup;
        the ``_stamp`` dict keeps only evicted blocks' stamps, and
        ``_next_of`` stays empty. Nothing is handed back to the policy
        when the loop exits: a simulator is single-use, and an offline
        policy can be neither fed nor checkpointed, so no caller reads
        its per-block state after the run. Write-back never pins a
        block, so no scalar policy call that could read the stale
        dicts (``_make_room`` → ``evict``, a pinned victim's
        ``on_insert``) runs during the loop either; that is also why
        ``_last_access``, read only by ``on_insert``, is left
        unmaintained. Differential tests pin bit-identity.
        """
        cache = self.cache
        policy: OPGPolicy = self.policy
        theta = policy.theta
        energy = policy._energy
        # Penalty fast path: with an exact PracticalDPM the segment
        # table is immutable for the whole run (only adaptive subclasses
        # rebuild it), so its columns can be hoisted into locals; any
        # other energy function is called three times per penalty.
        from repro.power.dpm import PracticalDPM

        owner = getattr(energy, "__self__", None)
        table = (
            owner._table
            if type(owner) is PracticalDPM
            and getattr(energy, "__func__", None) is PracticalDPM.idle_energy
            else None
        )
        if table is not None:
            bounds = table.bounds
            sh_ie = table.sh_ie_total
            res_prefix = table.res_prefix
            res_cursor = table.res_cursor
            res_power = table.res_power
            res_mode = table.res_mode
            res_spin = table.res_spinup_e
            b0 = bounds[0] if bounds else inf
            seg0_flat = res_mode[0] == 0
            prefix0 = res_prefix[0]
            cursor0 = res_cursor[0]
            power0 = res_power[0]
            spin0 = res_spin[0]
            # Pre-resolved first/last-segment constants: measured on
            # the benchmark workload, ~63% of leads and ~47% of
            # follows/wholes land below bounds[0] or above bounds[-1],
            # so one comparison replaces the bisect for them (the
            # residual middle still walks). bounds comes in
            # (sleep_start, next_resume) pairs, so a beyond-the-end
            # value's bisect index len(bounds) is even and resolves to
            # residency segment len(bounds)//2; an odd length would
            # break that (and IndexError in the generic walk), so the
            # shortcut is disabled (bN = inf) on malformed tables.
            nbounds = len(bounds)
            if nbounds and not nbounds & 1:
                bN = bounds[-1]
                jn = nbounds >> 1
                prefN = res_prefix[jn]
                curN = res_cursor[jn]
                powN = res_power[jn]
                modeN = res_mode[jn] != 0
                spinN = res_spin[jn]
            else:
                bN = inf
                prefN = curN = powN = spinN = 0.0
                modeN = False
        stamps = policy._stamp
        stamps_get = stamps.get
        heap = policy._heap
        # Every timeline shares the run's start/end and is pre-seeded
        # for each disk the trace touches (prepare_columnar),
        # and the per-disk ``_res`` chunked lists exist alongside them,
        # so the chunked two-level representation (``_chunks`` +
        # ``_maxes``, both mutated in place and never rebound) can be
        # hoisted into flat per-disk tables and the container operations
        # inlined below — same bisects on the same lists in the same
        # order as the methods, minus ~3M Python calls per million
        # requests. Disk ids are small contiguous ints, so the tables
        # are plain lists indexed by disk (cheaper than dict hashing on
        # the hot path; unseeded ids can't appear in the loop, their
        # slots stay None). Scalar fallbacks mutate the same aliased
        # lists; the inlined mutations skip only the containers' _len
        # counter, which nothing reads during or after the loop.
        timelines = policy._timelines
        res_lists = policy._res
        ndisks = max(timelines, default=-1) + 1
        tl_lists: list = [None] * ndisks
        tl_chunks: list = [None] * ndisks
        tl_maxes: list = [None] * ndisks
        res_chunks: list = [None] * ndisks
        res_maxes: list = [None] * ndisks
        cap = 0
        for d, tl in timelines.items():
            t = tl._times
            tl_lists[d] = t
            tl_chunks[d] = t._chunks
            tl_maxes[d] = t._maxes
            r = res_lists[d]
            res_chunks[d] = r._chunks
            res_maxes[d] = r._maxes
            # every container is built with the same default load
            cap = t._cap
            assert r._cap == cap
        tl_start = policy._start_time
        tl_end = policy._trace_end

        def push(disk: int, block: int, nt: float, stamp: int) -> None:
            # _push's tail: penalty at (disk, nt), then the heap tuple.
            if nt == inf:
                pen = 0.0
            else:
                # DiskTimeline.neighbors_tuple inlined (the timeline
                # always holds start, so its maxes index is never
                # empty). Coincidence — nt already a known access,
                # penalty zero — falls out of the same bisect that
                # finds the follower, so no separate hash probe. In
                # the append branch nt is beyond every known time; it
                # can at most equal the synthetic tl_end follower,
                # where the penalty is e(lead) + e(0) - e(lead) = 0
                # (energy_fn(0) == 0 contract), matching pen = 0.
                maxes = tl_maxes[disk]
                ci = bisect_left(maxes, nt)
                if ci == len(maxes):
                    leader = maxes[-1]
                    follower = tl_end
                else:
                    chunk = tl_chunks[disk][ci]
                    i = bisect_left(chunk, nt)
                    follower = chunk[i]
                    if i > 0:
                        leader = chunk[i - 1]
                    elif ci > 0:
                        leader = maxes[ci - 1]
                    else:
                        leader = tl_start
                if follower == nt:
                    pen = 0.0  # coincident: the disk is active anyway
                else:
                    lead = nt - leader
                    follow = follower - nt
                    if follow < 0.0:
                        follow = 0.0
                    if table is not None:
                        whole = lead + follow
                        if seg0_flat and whole <= b0:
                            # All three gaps land in residency segment
                            # 0 (rounding is monotone, so lead, follow
                            # <= fl(lead + follow)); these are the
                            # general walk's j == 0 expressions.
                            pen = (
                                (prefix0 + (lead - cursor0) * power0)
                                + (prefix0 + (follow - cursor0) * power0)
                                - (prefix0 + (whole - cursor0) * power0)
                            )
                        else:
                            # Per-value fast lanes around the bisect
                            # (ordered by measured frequency): below
                            # bounds[0] resolves to segment 0, above
                            # bounds[-1] to the last segment — both
                            # with the generic walk's exact j == 0 /
                            # j == len//2 expressions, so the floats
                            # match bit for bit.
                            if lead <= b0:
                                e_l = prefix0 + (lead - cursor0) * power0
                                if not seg0_flat:
                                    e_l = e_l + spin0
                            elif lead > bN:
                                e_l = prefN + (lead - curN) * powN
                                if modeN:
                                    e_l = e_l + spinN
                            else:
                                idx = bisect_left(bounds, lead)
                                if idx & 1 and bounds[idx] != lead:
                                    e_l = sh_ie[idx >> 1]
                                else:
                                    j = (
                                        (idx + 1) >> 1
                                        if idx & 1
                                        else idx >> 1
                                    )
                                    e_l = (
                                        res_prefix[j]
                                        + (lead - res_cursor[j])
                                        * res_power[j]
                                    )
                                    if res_mode[j] != 0:
                                        e_l = e_l + res_spin[j]
                            if follow > bN:
                                e_f = prefN + (follow - curN) * powN
                                if modeN:
                                    e_f = e_f + spinN
                            elif follow <= b0:
                                e_f = (
                                    prefix0 + (follow - cursor0) * power0
                                )
                                if not seg0_flat:
                                    e_f = e_f + spin0
                            else:
                                idx = bisect_left(bounds, follow)
                                if idx & 1 and bounds[idx] != follow:
                                    e_f = sh_ie[idx >> 1]
                                else:
                                    j = (
                                        (idx + 1) >> 1
                                        if idx & 1
                                        else idx >> 1
                                    )
                                    e_f = (
                                        res_prefix[j]
                                        + (follow - res_cursor[j])
                                        * res_power[j]
                                    )
                                    if res_mode[j] != 0:
                                        e_f = e_f + res_spin[j]
                            if whole > bN:
                                e_w = prefN + (whole - curN) * powN
                                if modeN:
                                    e_w = e_w + spinN
                            elif whole <= b0:
                                e_w = prefix0 + (whole - cursor0) * power0
                                if not seg0_flat:
                                    e_w = e_w + spin0
                            else:
                                idx = bisect_left(bounds, whole)
                                if idx & 1 and bounds[idx] != whole:
                                    e_w = sh_ie[idx >> 1]
                                else:
                                    j = (
                                        (idx + 1) >> 1
                                        if idx & 1
                                        else idx >> 1
                                    )
                                    e_w = (
                                        res_prefix[j]
                                        + (whole - res_cursor[j])
                                        * res_power[j]
                                    )
                                    if res_mode[j] != 0:
                                        e_w = e_w + res_spin[j]
                            pen = e_l + e_f - e_w
                        if pen <= 0.0:
                            pen = 0.0
                    else:
                        e_split = energy(lead) + energy(follow)
                        e_whole = energy(lead + follow)
                        pen = e_split - e_whole
                        if pen < 0.0:
                            pen = 0.0
            if pen < theta:
                pen = theta
            heappush(heap, (pen, -nt, stamp, disk, block))

        def split_gap(disk: int, at: float) -> None:
            # _split_gap with ChunkedSortedList.insert_unique and the
            # exclusive res irange inlined: one fused locate+insert on
            # the timeline, then a lazy forward walk over residents
            # strictly inside the split gap — start past (leader, inf),
            # stop at the first next-time >= follower (the bisect
            # identity for the (False, False) bounds; most gaps hold no
            # resident, so the walk usually ends at its first
            # comparison without locating the hi bound at all).
            # Already-known times fall out of the locating bisect
            # itself (follower == at), as in insert_unique; the append
            # branch needs no check at all, since every known time is
            # <= maxes[-1].
            maxes = tl_maxes[disk]
            chunks = tl_chunks[disk]
            ci = bisect_left(maxes, at)
            if ci == len(maxes):
                ci -= 1
                chunk = chunks[ci]
                leader = chunk[-1]
                chunk.append(at)
                maxes[ci] = at
                follower = tl_end
            else:
                chunk = chunks[ci]
                i = bisect_left(chunk, at)
                follower = chunk[i]
                if follower == at:
                    return  # already known; no penalties change
                if i > 0:
                    leader = chunk[i - 1]
                elif ci > 0:
                    leader = maxes[ci - 1]
                else:
                    leader = tl_start
                chunk.insert(i, at)
            if len(chunk) > cap:
                tl_lists[disk]._split(ci)
            rmaxes = res_maxes[disk]
            if not rmaxes:
                return
            lo = (leader, inf)
            ci = bisect_right(rmaxes, lo)
            if ci == len(rmaxes):
                return
            rchunks = res_chunks[disk]
            chunk = rchunks[ci]
            i = bisect_right(chunk, lo)
            while True:
                if i == len(chunk):
                    ci += 1
                    if ci == len(rchunks):
                        return
                    chunk = rchunks[ci]
                    i = 0
                    continue
                nt2, blk = chunk[i]
                if nt2 >= follower:
                    return
                # validate against the live state: evictions leave
                # their res entry in place (the victim's next time sits
                # strictly inside the very gap its eviction splits, so
                # this walk is what cleans it up — cheaper than a
                # separate locate-and-delete on the evict path)
                s2 = blocks_get((disk, blk))
                if s2 is None or s2.opg_nt != nt2:
                    del chunk[i]
                    if not chunk:
                        del rchunks[ci]
                        del rmaxes[ci]
                        if ci == len(rchunks):
                            return
                        chunk = rchunks[ci]
                        i = 0
                    elif i == len(chunk):
                        rmaxes[ci] = chunk[-1]
                    continue
                i += 1
                st2 = s2.opg_stamp + 1
                s2.opg_stamp = st2
                push(disk, blk, nt2, st2)

        # -- engine locals (mirrors _run_columnar_fast; no make_room —
        # write-back never pins, so the scalar fallback is unreachable
        # and eviction is always the inline heap pop) --------------------
        blocks = cache._blocks
        blocks_get = blocks.get
        stats = cache.stats
        seen = stats._seen
        capacity = cache.capacity
        cap_limit = inf if capacity is None else capacity
        dirty_get = cache._dirty_by_disk.get
        dirty_setdefault = cache._dirty_by_disk.setdefault
        # WriteBackPolicy's hooks are inlined (the gate is its exact
        # type; the class is FAST_PATH_AUDITED): on_evicted is a
        # dirty-bit check in front of _write_to_disk, on_write is
        # cache.mark_dirty returning 0.0 client latency, and
        # after_read_wake is the base no-op. The loop runs only without
        # a probe, so _write_to_disk reduces to a per-disk submit, a
        # counter bump and the activity listener, which is OPG's
        # note_disk_activity, that is, _split_gap: the dirty-victim
        # flush sites below submit directly and call split_gap, and the
        # clean majority of evictions call nothing.
        quick = [d.submit_quick for d in self.array.disks]
        hit_latency = self.config.cache_hit_latency_s
        append_response = self._responses.append
        block_state = BlockState
        disk_reads = 0
        # Totals the loop would accumulate one by one fall out of the
        # columns directly; only the cache-state-dependent counters
        # (misses, cold misses, evictions) stay in the loop.
        n_total = len(trace)
        n_write_total = int(trace.is_write.sum())
        n_miss = n_cold = 0
        n_evict = n_dirty_evict = 0
        wb_writes = 0

        # Residency count tracked as a local: loop code is the only
        # mutator of cache membership while the fused loop runs (write
        # policies flush/mark but never insert or remove), and every
        # eviction is immediately followed by an insert, so only the
        # below-capacity warmup inserts move it.
        nblocks = len(blocks)

        time = 0.0
        for time, disk, block, is_write, nt_new in self._access_rows(
            starts,
            trace.times,
            trace.disks,
            trace.blocks,
            trace.is_write,
            policy._next_time_array,
        ):
            key = (disk, block)
            worst = hit_latency
            state = blocks_get(key)
            if state is not None:
                # on_access(hit): fused untrack + track (+2 stamp,
                # one push — same final stamp and tuple as the
                # scalar pair), with next-time and stamp read off
                # the state object the residency probe already
                # fetched instead of the policy dicts
                nt_old = state.opg_nt
                state.opg_nt = nt_new
                # res discard inlined; the add follows the branch
                # (resident finite-nt blocks are always tracked, so
                # the discarded item exists; nt_old is this
                # access's own time, hence finite — the guard
                # mirrors _untrack's). Infinite next times stay out
                # of res entirely: a gap walk's follower bound is
                # always finite. The item is (almost) always the
                # res front: every live entry is a pending future
                # access >= now == nt_old, and anything ordered
                # below it is a provably-stale leftover of a lazy
                # eviction — purge those wholesale, then pop the
                # front without a bisect.
                if nt_old != inf:
                    rmaxes = res_maxes[disk]
                    rchunks = res_chunks[disk]
                    item = (nt_old, block)
                    chunk = rchunks[0]
                    while chunk[-1][0] < nt_old:
                        del rchunks[0]
                        del rmaxes[0]
                        chunk = rchunks[0]
                    if chunk[0][0] < nt_old:
                        del chunk[: bisect_left(chunk, (nt_old, -1))]
                    if chunk[0] == item:
                        del chunk[0]
                        if not chunk:
                            del rchunks[0]
                            del rmaxes[0]
                    else:
                        # coincident timestamps: locate exactly
                        ci = bisect_left(rmaxes, item)
                        chunk = rchunks[ci]
                        i = bisect_left(chunk, item)
                        del chunk[i]
                        if not chunk:
                            del rchunks[ci]
                            del rmaxes[ci]
                        elif i == len(chunk):
                            rmaxes[ci] = chunk[-1]
                st = state.opg_stamp + 2
                state.opg_stamp = st
                bstate = state
                vkey = None
            else:
                n_miss += 1
                if key not in seen:
                    n_cold += 1
                    seen.add(key)
                # on_access(miss) performs no timeline split here:
                # every miss lands on an already-known time — cold
                # misses are seeded by prepare, and a repeat miss
                # IS its block's recorded next-access time,
                # inserted the moment that block was evicted — so
                # the scalar path's split_gap is always the
                # already-known no-op (the differential suite and
                # the write-back gate keep the invariant honest).
                vkey = None
                if nblocks >= cap_limit:
                    # OPG.evict inlined (lazy heap, fused untrack).
                    # A heap entry is live iff its block is
                    # resident AND its stamp is the block's current
                    # one — the same acceptance set as the scalar
                    # stamps/_next_of test, since untracked keys
                    # always carry a bumped stamp no entry matches.
                    while heap:
                        pen, neg_nt, st, vd, vb = heappop(heap)
                        vkey = (vd, vb)
                        vstate = blocks_get(vkey)
                        if vstate is None or vstate.opg_stamp != st:
                            continue
                        del blocks[vkey]
                        nt_v = vstate.opg_nt
                        # no eager res discard: the victim's entry
                        # sits strictly inside the gap split below,
                        # whose walk drops it (now stale) in place
                        # — the untrack stamp bump outlives the
                        # eviction (a re-insert continues the
                        # sequence), so it goes to the dict, not
                        # the dying state
                        stamps[vkey] = st + 1
                        if nt_v != inf:
                            split_gap(vd, nt_v)
                        break
                    else:
                        raise PolicyError(
                            "OPG: evict with no resident blocks"
                        )
                    n_evict += 1
                    vdirty = vstate.dirty
                    if vdirty:
                        n_dirty_evict += 1
                        bucket = dirty_get(vd)
                        if bucket is not None:
                            bucket.discard(vkey)
                else:
                    nblocks += 1
                # on_insert inlined (the res add follows the
                # branch): a re-inserted block resumes its stamp
                # sequence from the dict entry its last eviction
                # left behind.
                st = stamps_get(key, 0) + 1
                if vkey is not None:
                    # recycle the victim's state object: its dirty
                    # bit is captured above and inlined write-back
                    # reads nothing else from it, so the fields can
                    # be reset in place — a full-cache workload
                    # otherwise allocates one BlockState per miss
                    bstate = vstate
                    bstate.dirty = False
                    bstate.logged = False
                    bstate.prefetched = False
                    bstate.opg_nt = nt_new
                    bstate.opg_stamp = st
                else:
                    bstate = block_state(False, False, False, nt_new, st)
                blocks[key] = bstate
            # track at this access's next time, hit or miss (prepare
            # seeded res for every traced disk; inf next times stay
            # out of res), then the one push both paths share
            if nt_new != inf:
                rmaxes = res_maxes[disk]
                rchunks = res_chunks[disk]
                item = (nt_new, block)
                if not rmaxes:
                    rchunks.append([item])
                    rmaxes.append(item)
                else:
                    ci = bisect_right(rmaxes, item)
                    if ci == len(rmaxes):
                        ci -= 1
                        chunk = rchunks[ci]
                        chunk.append(item)
                        rmaxes[ci] = item
                    else:
                        chunk = rchunks[ci]
                        insort(chunk, item)
                    if len(chunk) > cap:
                        res_lists[disk]._split(ci)
            push(disk, block, nt_new, st)
            # -- write/read tails; call order is identical to the
            # scalar engine's (victim flush first, then the
            # access's own write or read) ------------------------------
            if is_write:
                if vkey is not None and vdirty:
                    quick[vd](time, vb, True)
                    wb_writes += 1
                    split_gap(vd, time)
                # cache.mark_dirty(key) on the state in hand
                # (setdefault would allocate its default set on
                # every call; probe first, the bucket almost
                # always exists)
                if not (bstate.dirty or bstate.logged):
                    bucket = dirty_get(disk)
                    if bucket is None:
                        dirty_setdefault(disk, set()).add(key)
                    else:
                        bucket.add(key)
                bstate.dirty = True
            elif state is None:
                latency, _ = quick[disk](time, block, False)
                disk_reads += 1
                if latency > worst:
                    worst = latency
                if vkey is not None and vdirty:
                    quick[vd](time, vb, True)
                    wb_writes += 1
                    split_gap(vd, time)
            append_response(worst)

        self.write_policy.disk_writes += wb_writes
        stats.accesses += n_total
        stats.read_accesses += n_total - n_write_total
        stats.write_accesses += n_write_total
        stats.hits += n_total - n_miss
        stats.misses += n_miss
        stats.cold_misses += n_cold
        stats.evictions += n_evict
        stats.dirty_evictions += n_dirty_evict
        self._disk_reads += disk_reads
        return time

    def handle_request(self, req: IORequest) -> float:
        """Process one request through cache, write policy, and disks.

        Returns the client-visible response time (also accumulated for
        the final report). Callers must supply requests in
        non-decreasing time order — the trace loop and the closed-loop
        driver both guarantee it.
        """
        cache = self.cache
        write_policy = self.write_policy
        hit_latency = self.config.cache_hit_latency_s
        worst = hit_latency
        for key in req.block_keys():
            outcome = cache.access(key, req.time, req.is_write)
            latency = hit_latency
            if req.is_write:
                for victim, state in outcome.evicted:
                    write_policy.on_evicted(victim, state, req.time)
                latency = max(latency, write_policy.on_write(key, req.time))
            elif not outcome.hit:
                response = self.array.submit(
                    req.disk, req.time, key[1], 1, is_write=False
                )
                self._disk_reads += 1
                latency = max(latency, response.response_time_s)
                for victim, state in outcome.evicted:
                    write_policy.on_evicted(victim, state, req.time)
                write_policy.after_read_wake(
                    req.disk, req.time, woke=response.wake_delay_s > 0
                )
                if self.prefetcher is not None:
                    self._prefetch(
                        key, response.wake_delay_s > 0, req.time
                    )
            if latency > worst:
                worst = latency
        self._responses.append(worst)
        if self.probe is not None:
            self.probe(
                RequestComplete(
                    req.time, req.disk, worst, req.is_write, req.nblocks
                )
            )
        return worst

    def handle_batch(self, requests: Sequence[IORequest]) -> list[float]:
        """Process a time-ordered batch; returns its response times.

        :meth:`run`'s loop choice, applied to one batch: with no probe
        attached the rows run on the generic columnar loop
        (:meth:`_run_columnar_fast`; the fused loops need the whole
        trace up front), otherwise one by one through
        :meth:`handle_request`, which emits the full event stream. The
        caller checks the time order (``SimulationSession.feed`` does,
        for the whole batch, before calling).
        """
        if self.probe is not None:
            handle = self.handle_request
            return [handle(req) for req in requests]
        start = len(self._responses)
        self._run_columnar_fast(
            [req.time for req in requests],
            [req.disk for req in requests],
            [req.block for req in requests],
            [req.nblocks for req in requests],
            [req.is_write for req in requests],
        )
        return self._responses[start:]

    def responses_since(self, start: int) -> list[float]:
        """A copy of the per-request response times from request
        ``start`` on, in serving order (live ``/metrics`` folds them)."""
        return self._responses[start:]

    def finish(self, end_time: float) -> SimulationResult:
        """Wind the disks down to ``end_time`` and build the report."""
        self.array.finalize(end_time)
        return self._build_result(self._responses, self._disk_reads, end_time)

    def state_dict(self) -> dict:
        """Snapshot every stateful component (see :mod:`repro.snapshot`).

        The per-request response samples are the one term that grows
        with the requests served: a finished session's result must equal
        the batch run's, exact percentiles included.
        """
        if self.fault_injector is not None:
            raise ConfigurationError(
                "a session with a fault plan cannot be checkpointed: the "
                "plan is not among the rebuild parameters"
            )
        return {
            "cache": state_of(self.cache),
            "policy": state_of(self.policy),
            "write_policy": state_of(self.write_policy),
            "array": state_of(self.array),
            "prefetcher": (
                None if self.prefetcher is None else state_of(self.prefetcher)
            ),
            "responses": pack_floats(self._responses),
            "disk_reads": self._disk_reads,
        }

    def load_state_dict(self, state: dict) -> None:
        """Load :meth:`state_dict` output into a freshly built simulator
        whose components were built from the same parameters."""
        if (state["prefetcher"] is None) != (self.prefetcher is None):
            raise ConfigurationError(
                "the snapshot's prefetcher does not match the parameters"
            )
        load_state(self.cache, state["cache"])
        load_state(self.policy, state["policy"])
        load_state(self.write_policy, state["write_policy"])
        load_state(self.array, state["array"])
        if self.prefetcher is not None:
            load_state(self.prefetcher, state["prefetcher"])
        if len(self.policy) != len(self.cache):
            raise ConfigurationError(
                f"the snapshot's policy tracks {len(self.policy)} blocks "
                f"but its cache holds {len(self.cache)}"
            )
        self._responses = unpack_floats(state["responses"])
        self._disk_reads = int(state["disk_reads"])

    def _prefetch(self, key, woke: bool, time: float) -> None:
        """Ride a demand read's disk activation with sequential blocks.

        The prefetch transfer queues behind the demand read (it cannot
        delay it) and its service time/energy are charged to the disk;
        admitted blocks may evict, and evicted dirty blocks are
        persisted by the write policy as usual.
        """
        disk_id = key[0]
        disk = self.array[disk_id]
        plan = self.prefetcher.plan(
            key,
            woke_disk=woke,
            time=time,
            cache=self.cache,
            disk_blocks=disk.geometry.num_blocks,
        )
        if not plan:
            return
        self.array.submit(disk_id, time, plan[0][1], len(plan))
        for pkey in plan:
            outcome = self.cache.admit(pkey, time)
            for victim, state in outcome.evicted:
                self.write_policy.on_evicted(victim, state, time)

    def _build_result(
        self, responses: list[float], disk_reads: int, end_time: float
    ) -> SimulationResult:
        stats = self.cache.stats
        disks = [
            DiskReport(
                disk_id=d.disk_id,
                account=d.account,
                mean_interarrival_s=d.mean_interarrival_s,
                requests=d.request_count,
            )
            for d in self.array.disks
        ]
        total = self.array.total_account()
        log_energy = 0.0
        if isinstance(self.write_policy, WTDUPolicy):
            log_energy = self.write_policy.extra_energy_j
        return SimulationResult(
            label=self.label,
            dpm=self.config.dpm,
            duration_s=end_time,
            disk_energy_j=self.array.total_energy_j,
            log_energy_j=log_energy,
            disks=disks,
            response=ResponseStats.from_samples(responses),
            cache_accesses=stats.accesses,
            cache_hits=stats.hits,
            cache_misses=stats.misses,
            cold_misses=stats.cold_misses,
            evictions=stats.evictions,
            disk_reads=disk_reads,
            disk_writes=self.write_policy.disk_writes,
            spinups=total.spinups,
            spindowns=total.spindowns,
            pending_dirty=self.write_policy.pending_dirty(),
            prefetch_admissions=stats.prefetch_admissions,
            prefetch_hits=stats.prefetch_hits,
        )
