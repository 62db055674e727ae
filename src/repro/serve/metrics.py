"""Text rendering for the ``/metrics`` endpoint.

A Prometheus-style exposition with three sources, all read at scrape
time:

- **engine series** from ledgers the simulator keeps on every loop
  (:func:`ledger_series`): ``CacheStats`` hits, misses and evictions,
  the write policy's ``disk_writes`` (dirty flushes), each disk's
  ``EnergyAccount`` (spin-ups/downs, energy, idle residency) and the
  PA classifier's completed epochs. No event stream is needed, so the
  session runs probe-free on the columnar loop, and a restored session
  covers its restored prefix through the snapshot's ledgers (even from
  a checkpoint whose ``metrics`` is ``null``);
- **request and ingest series** from the daemon's
  :class:`~repro.observe.sinks.MetricsSink`: the request count, latency
  sum and P² quantiles it is fed from each batch's latencies, and the
  ingest counters of its own bus events;
- **daemon gauges** (:data:`GAUGES`: queue depth, simulated time,
  served count, ...).

The per-disk lines are O(disks), which is the exposition format's
cost; everything else is a counter that is already maintained.
"""

from __future__ import annotations

from repro.observe.sinks import MetricsSink

#: (series key, metric name, help text) — the scalar series.
_SCALARS = (
    ("requests", "repro_requests_total", "requests served"),
    ("hits", "repro_cache_hits_total", "cache hits"),
    ("misses", "repro_cache_misses_total", "cache misses"),
    ("hit_ratio", "repro_cache_hit_ratio", "hits / accesses"),
    ("evictions", "repro_cache_evictions_total", "cache evictions"),
    ("dirty_flushes", "repro_dirty_flushes_total", "dirty writebacks"),
    ("spinups", "repro_disk_spinups_total", "disk spin-ups"),
    ("spindowns", "repro_disk_spindowns_total", "disk spin-downs"),
    ("epochs", "repro_classifier_epochs_total", "PA epochs rolled"),
    ("energy_so_far_j", "repro_energy_joules_total",
     "disk energy accounted so far"),
    ("mean_latency_s", "repro_request_latency_mean_seconds",
     "mean request latency"),
    ("ingest_accepted", "repro_ingest_accepted_total",
     "live requests accepted into the queue"),
    ("ingest_rejected", "repro_ingest_rejected_total",
     "live requests rejected with RETRY (backpressure)"),
    ("ingest_queue_depth", "repro_ingest_queue_depth",
     "ingest queue depth at last ingest event"),
)

_QUANTILE_KEYS = (
    ("p50_latency_s", "0.5"),
    ("p95_latency_s", "0.95"),
    ("p99_latency_s", "0.99"),
)

#: The daemon's gauges, rendered as ``repro_<key>``: its own state at
#: scrape time, which a restore does not carry over.
GAUGES = (
    "sim_time_seconds",
    "served_requests",
    "replayed_requests",
    "queue_depth",
    "queue_capacity",
    "draining",
    "time_dilation",
    "uptime_wall_seconds",
)


def ledger_series(simulator) -> dict:
    """The engine series, read off ``simulator``'s own ledgers.

    They equal what a :class:`~repro.observe.sinks.MetricsSink` counts
    from the reference loop's events (``tests/serve/test_metrics.py``
    pins it): the counters exactly, the energies and dwell times to
    rounding, because the ledgers sum per disk and per mode instead of
    in event order.
    """
    stats = simulator.cache.stats
    classifier = getattr(simulator.policy, "classifier", None)
    accounts = {disk.disk_id: disk.account for disk in simulator.array.disks}
    disk_energy = {d: a.total_energy_j for d, a in accounts.items()}
    hits, misses = stats.hits, stats.misses
    return {
        "hits": hits,
        "misses": misses,
        "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "evictions": stats.evictions,
        "dirty_flushes": simulator.write_policy.disk_writes,
        "spinups": sum(a.spinups for a in accounts.values()),
        "spindowns": sum(a.spindowns for a in accounts.values()),
        "epochs": 0 if classifier is None else classifier.epochs_completed,
        "energy_so_far_j": sum(disk_energy.values()),
        "disk_energy_j": disk_energy,
        "disk_dwell_s": {
            d: sum(a.mode_time_s.values()) for d, a in accounts.items()
        },
    }


def render_metrics(
    sink: MetricsSink,
    simulator,
    gauges: dict[str, float] | None = None,
) -> str:
    """Render the live metrics text page.

    ``sink`` supplies the request, latency and ingest series,
    ``simulator`` the engine series (:func:`ledger_series`), and
    ``gauges`` the daemon-level series (``repro_`` prefix added).
    """
    series = {**sink.snapshot(), **ledger_series(simulator)}
    lines: list[str] = []
    for key, name, help_text in _SCALARS:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"{name} {series[key]!r}")
    lines.append(
        "# HELP repro_request_latency_seconds streaming latency quantiles"
    )
    for key, quantile in _QUANTILE_KEYS:
        lines.append(
            "repro_request_latency_seconds"
            f'{{quantile="{quantile}"}} {series[key]!r}'
        )
    lines.append(
        "# HELP repro_disk_dwell_seconds per-disk power-mode residency "
        "accounted so far"
    )
    for disk, seconds in sorted(series["disk_dwell_s"].items()):
        lines.append(f'repro_disk_dwell_seconds{{disk="{disk}"}} {seconds!r}')
    lines.append("# HELP repro_disk_energy_joules per-disk energy so far")
    for disk, joules in sorted(series["disk_energy_j"].items()):
        lines.append(f'repro_disk_energy_joules{{disk="{disk}"}} {joules!r}')
    if gauges:
        for key in sorted(gauges):
            lines.append(f"repro_{key} {gauges[key]!r}")
    return "\n".join(lines) + "\n"


def parse_metrics(text: str, *, gauges: bool = True) -> dict[str, float]:
    """Series name (labels included) → value, from a rendered page;
    ``gauges=False`` leaves out the daemon's :data:`GAUGES`."""
    skip = () if gauges else {f"repro_{name}" for name in GAUGES}
    return {
        name: float(value)
        for name, value in (
            line.rsplit(" ", 1)
            for line in text.splitlines()
            if line and not line.startswith("#")
        )
        if name not in skip
    }
