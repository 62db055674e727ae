"""Metric definitions: the one source ``BENCHMARK.json`` is written from.

``python3 perfbench/run.py --write-manifest`` regenerates the manifest;
the self-tests fail when the committed file drifts from this module.
"""

from __future__ import annotations

import json
from pathlib import Path

from perfbench.tracer import KERNELS

RUN_SECONDS = 10

WORKLOADS = (
    (
        "oltp_palru",
        "Batch PA-LRU, write-back, 2048 blocks on the 12 h OLTP-like trace "
        "(Fig. 6a): fused PA loop, PA batch kernels, cool-disk DPM idle "
        "accounting.",
    ),
    (
        "cello_opg",
        "OPG theta=0, write-back, 4096 blocks on a Cello-like trace imported "
        "from blkparse text (Fig. 6b): trace import, OPG prepare and "
        "timelines, write-back evictions.",
    ),
    (
        "zoo_sweep",
        "The committed workload_zoo.json campaign (13 policies x dbms/cdn/"
        "tenant) on 2 workers: campaign fan-out, per-point generation, the "
        "generic columnar loop.",
    ),
    (
        "serve_oltp",
        "ServeDaemon restored from an OLTP checkpoint, fed over loopback TCP "
        "in a closed loop, PA-LRU + WTDU: handle_request, event bus, "
        "checkpoint and restore.",
    ),
)

#: ``(name, unit, better, bound)`` — bound is the share of the parent's
#: median by which the metric may worsen before a change is rejected.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("krps", "kreq/s", "higher", 0.24),
    ("peak_rss_mb", "MiB", "lower", 0.2),
    ("energy_kj", "kJ", "lower", 0.1),
    ("ack_p50_ms", "ms", "lower", 0.24),
    ("ack_p95_ms", "ms", "lower", 0.24),
)

_POLICIES = (
    "lru", "fifo", "clock", "arc", "mq", "lirs", "belady", "opg",
    "pa-lru", "pa-arc", "pa-mq", "pa-lirs", "infinite",
)

#: ``(name, unit, better)`` — per-layer metrics of the traced run.
PER_LAYER = (
    ("traces.generate_s", "s", "lower"),
    ("traces.import_s", "s", "lower"),
    ("traces.import_rows", "count", "higher"),
    ("traces.as_lists_s", "s", "lower"),
    *((f"core.kernels.{k}_s", "s", "lower") for k in KERNELS),
    *((f"core.kernels.{k}_calls", "count", "lower") for k in KERNELS),
    ("core.opg.prepare_s", "s", "lower"),
    ("sim.run_s", "s", "lower"),
    ("sim.finish_s", "s", "lower"),
    ("sim.loop_self_s", "s", "lower"),
    ("sim.restore_s", "s", "lower"),
    ("sim.feed_s", "s", "lower"),
    ("sim.feed_calls", "count", "lower"),
    ("sim.feed_batch_mean", "count", "higher"),
    ("sim.handle_request_s", "s", "lower"),
    ("sim.checkpoint_s", "s", "lower"),
    ("sim.checkpoints", "count", "lower"),
    ("sim.checkpoint_mb", "MiB", "lower"),
    ("sim.resp_mean_ms", "ms", "lower"),
    ("cache.accesses", "count", "higher"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.cold_misses", "count", "lower"),
    ("cache.evictions", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.access_s", "s", "lower"),
    ("cache.write_s", "s", "lower"),
    ("disk.reads", "count", "lower"),
    ("disk.writes", "count", "lower"),
    ("disk.submit_s", "s", "lower"),
    ("power.spinups", "count", "lower"),
    ("power.spindowns", "count", "lower"),
    ("power.idle_kj", "kJ", "lower"),
    ("power.transition_kj", "kJ", "lower"),
    ("power.service_kj", "kJ", "lower"),
    ("observe.events", "count", "lower"),
    ("observe.dispatch_s", "s", "lower"),
    ("campaign.points", "count", "higher"),
    ("campaign.failed", "count", "lower"),
    ("campaign.retries", "count", "lower"),
    ("campaign.busy_s", "s", "lower"),
    ("campaign.utilization", "ratio", "higher"),
    *((f"campaign.point_s.{p}", "s", "lower") for p in _POLICIES),
    ("campaign.store_put_s", "s", "lower"),
    ("campaign.journal_s", "s", "lower"),
    ("serve.parse_s", "s", "lower"),
    ("serve.ingest_s", "s", "lower"),
    ("serve.retries", "count", "lower"),
    ("serve.queue_depth_max", "count", "lower"),
    ("serve.ack_p99_ms", "ms", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.residual_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def manifest() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


def write_manifest(path: Path) -> None:
    path.write_text(json.dumps(manifest(), indent=2) + "\n")
