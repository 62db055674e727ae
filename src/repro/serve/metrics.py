"""Text rendering for the ``/metrics`` endpoint.

A Prometheus-style exposition whose series come from two sources, both
read at scrape time, plus the daemon's own counters:

- **engine series** from ledgers the simulator keeps on every loop
  (:func:`ledger_series`): ``CacheStats`` hits, misses and evictions,
  the write policy's ``disk_writes`` (dirty flushes), each disk's
  ``EnergyAccount`` (spin-ups/downs, energy, idle residency) and the
  PA classifier's completed epochs;
- **request and latency series** from the session's per-request
  response samples (:class:`LatencySeries`): the request count, the
  mean and p50/p95/p99 of a log-bucketed histogram, folded from the
  samples served since the previous scrape;
- **ingest series**: the ingest queue's accepted/rejected counts and
  depth, on top of those a restored checkpoint carried
  (:data:`INGEST_KEYS`, the checkpoint's ``metrics``);
- **daemon gauges** (:data:`GAUGES`: queue depth, simulated time,
  served count, ...).

Feeding a batch does no metrics work: no event stream, no estimator
update. The session runs probe-free on the columnar loop, and a
restored session covers its restored prefix through the snapshot's
ledgers and response samples (even from a checkpoint whose ``metrics``
is ``null``). The per-disk lines are O(disks), which is the exposition
format's cost; the fold is O(samples since the last scrape).
"""

from __future__ import annotations

from repro.core.histogram import IntervalHistogram, default_bin_edges
from repro.errors import ConfigurationError
from repro.snapshot import TYPE_KEY

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
    ("last_queue_depth", "repro_ingest_queue_depth",
     "ingest queue depth at last ingest event"),
)

#: (quantile, series key) — the latency quantiles.
_QUANTILES = (
    (0.5, "p50_latency_s"),
    (0.95, "p95_latency_s"),
    (0.99, "p99_latency_s"),
)

#: Latency histogram bin edges: 512 log-spaced edges from 1 µs to
#: 10^4 s, so each bin spans 4.6%.
LATENCY_EDGES = default_bin_edges(1e-6, 1e4, 512)

#: The checkpoint ``metrics`` object: the ingest counters a restored
#: daemon continues from.
INGEST_KEYS = ("ingest_accepted", "ingest_rejected", "last_queue_depth")

#: The ``metrics`` object's type tag. It names the sink that wrote the
#: object before ``/metrics`` read the ledgers; those files carry the
#: :data:`INGEST_KEYS` among other keys, so both kinds restore.
INGEST_STATE_TYPE = "MetricsSink"

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


class LatencySeries:
    """The request count, mean latency and p50/p95/p99 of a session.

    :meth:`fold` adds the response samples served since its previous
    call to one :class:`~repro.core.histogram.IntervalHistogram` over
    :data:`LATENCY_EDGES` (a single ``add_batch``) and to a latency sum
    taken strictly left to right. Neither result depends on where the
    folds fall, so a restored daemon, whose first scrape folds the
    whole restored prefix, reads the series an uninterrupted one does,
    and no checkpoint carries latency state. A quantile is the upper
    edge of its bin: at most one bin ratio above the exact nearest-rank
    sample.
    """

    __slots__ = ("histogram", "sum_s")

    def __init__(self) -> None:
        self.histogram = IntervalHistogram(LATENCY_EDGES)
        self.sum_s = 0.0

    def fold(self, simulator) -> dict:
        """Fold ``simulator``'s new response samples; returns the
        request and latency series."""
        histogram = self.histogram
        new = simulator.responses_since(histogram.total)
        if new:
            histogram.add_batch(new)
            # In sample order: builtin sum() compensates (Python 3.12+),
            # so its result would depend on where the folds fall.
            total = self.sum_s
            for latency in new:
                total += latency
            self.sum_s = total
        count = histogram.total
        series = {
            "requests": count,
            "mean_latency_s": self.sum_s / count if count else 0.0,
        }
        for quantile, key in _QUANTILES:
            series[key] = histogram.quantile(quantile) if count else 0.0
        return series


def ingest_state(series: dict[str, int]) -> dict:
    """The checkpoint ``metrics`` object for the ingest ``series``
    (:data:`INGEST_KEYS`)."""
    return {TYPE_KEY: INGEST_STATE_TYPE, **series}


def load_ingest_state(state: dict) -> dict[str, int]:
    """The :data:`INGEST_KEYS` of a checkpoint's ``metrics`` object.

    Raises:
        ConfigurationError: If ``state`` is another kind of object or
            lacks a counter.
    """
    kind = state.get(TYPE_KEY)
    if kind != INGEST_STATE_TYPE:
        raise ConfigurationError(
            f"the checkpoint metrics hold {kind!r} where the daemon "
            f"restores {INGEST_STATE_TYPE} state"
        )
    try:
        return {key: int(state[key]) for key in INGEST_KEYS}
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
        raise ConfigurationError(
            f"malformed {INGEST_STATE_TYPE} state: {detail}"
        ) from exc


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
    simulator,
    latency: LatencySeries,
    ingest: dict[str, int],
    gauges: dict[str, float] | None = None,
) -> str:
    """Render the live metrics text page.

    ``simulator`` supplies the engine series (:func:`ledger_series`),
    ``latency`` folds its response samples into the request and
    latency series, ``ingest`` holds the :data:`INGEST_KEYS` series,
    and ``gauges`` the daemon-level series (``repro_`` prefix added).
    """
    series = {
        **latency.fold(simulator),
        **ingest,
        **ledger_series(simulator),
    }
    lines: list[str] = []
    for key, name, help_text in _SCALARS:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"{name} {series[key]!r}")
    lines.append(
        "# HELP repro_request_latency_seconds latency quantiles "
        "(upper edge of the histogram bin)"
    )
    for quantile, key in _QUANTILES:
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
