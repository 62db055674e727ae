"""End-to-end smoke harness for the serve daemon (the CI gate).

Run as ``python -m repro.serve.smoke``. Three phases, each against a
real daemon subprocess on loopback:

1. **Serve + drain**: boot a ``pa-lru`` daemon with checkpointing,
   push the load-generator workload through the TCP front door, scrape
   ``/metrics``, take a checkpoint over HTTP, push a deterministic
   explicit-time tail, SIGTERM, and assert the graceful-drain
   contract: every acknowledged request is in the ``FINAL`` served
   count — zero lost acknowledged requests.
2. **Restore**: boot a second daemon from the phase-1 checkpoint and
   scrape its ``/metrics`` before any traffic: every series but the
   daemon gauges must equal phase 1's scrape, taken just before that
   checkpoint — ``/metrics`` continues across processes. Push the
   *same* explicit-time tail, drain, and assert its ``FINAL`` result
   digest is bit-identical to phase 1's — the restored daemon
   continued exactly where the original would have gone. Then boot a
   third daemon from the second one's drain checkpoint, send it
   nothing, drain, and assert the same digest again: a snapshot
   written by a restored daemon restores too.
3. **Backpressure**: boot a daemon with a tiny ingest queue and an
   artificial feed delay, overdrive it, and assert the overload was
   handled by explicit ``RETRY`` (clients saw rejections, every
   request was eventually acknowledged or explicitly errored, and the
   daemon's RSS stayed bounded — no hidden buffering).

Exit status 0 on success; the first failed assertion aborts with a
message on stderr and status 1.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import subprocess
import sys
import urllib.request
from pathlib import Path

from repro.serve.checkpoint import latest_checkpoint
from repro.serve.loadgen import LoadConfig, run_load
from repro.serve.metrics import parse_metrics

#: Explicit-time tails sit far above any wall-derived stamp.
EXPLICIT_BASE = 1_000_000.0

#: RSS ceiling for the backpressure daemon (bytes). Generous — the
#: interpreter plus numpy alone is ~100 MB — but far below what
#: unbounded ingest buffering of a saturating client would reach.
RSS_LIMIT_BYTES = 600 * 1024 * 1024


class SmokeFailure(AssertionError):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


class Daemon:
    """One ``repro serve`` subprocess and its READY/FINAL handshake."""

    def __init__(self, extra_args: list[str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *extra_args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("READY "):
            self.proc.kill()
            err = self.proc.stderr.read()
            raise SmokeFailure(f"no READY banner, got {line!r}; stderr: {err}")
        self.ready = json.loads(line[len("READY ") :])
        self.tcp_port = self.ready["tcp_port"]
        self.http_port = self.ready["http_port"]

    def http(self, method: str, path: str, body: bytes = b"") -> str:
        url = f"http://127.0.0.1:{self.http_port}{path}"
        request = urllib.request.Request(
            url, data=body if method == "POST" else None, method=method
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.read().decode()

    def rss_bytes(self) -> int | None:
        status = Path(f"/proc/{self.proc.pid}/status")
        if not status.exists():
            return None
        for line in status.read_text().splitlines():
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
        return None

    def drain(self, timeout_s: float = 120.0) -> dict:
        """SIGTERM, wait for the FINAL line, return its document."""
        self.proc.send_signal(signal.SIGTERM)
        final = None
        for line in self.proc.stdout:
            if line.startswith("FINAL "):
                final = json.loads(line[len("FINAL ") :])
            elif line.startswith("FATAL"):
                raise SmokeFailure(f"daemon died during drain: {line!r}")
        code = self.proc.wait(timeout=timeout_s)
        if final is None:
            err = self.proc.stderr.read()
            raise SmokeFailure(f"no FINAL line (exit {code}); stderr: {err}")
        check(code == 0, f"daemon exited {code} after drain")
        return final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def load(port: int, **overrides) -> dict:
    report = asyncio.run(
        run_load(LoadConfig(port=port, **overrides))
    )
    return report.to_dict()


def scrape_metric(text: str, name: str) -> float:
    series = parse_metrics(text)
    if name not in series:
        raise SmokeFailure(f"metric {name} missing from /metrics")
    return series[name]


def phase_serve_and_restore(requests: int, checkpoint_dir: Path) -> None:
    session_args = [
        "-p", "pa-lru", "--disks", "4", "--cache-blocks", "512",
        "--time-dilation", "50",
    ]
    daemon = Daemon(
        [*session_args, "--checkpoint-dir", str(checkpoint_dir)]
    )
    try:
        report = load(
            daemon.tcp_port, users=8, requests=requests, workload="zipf",
            num_disks=4, seed=42,
        )
        check(report["errors"] == 0, f"load errors: {report}")
        check(
            report["acked"] == report["sent"] == requests,
            f"main load lost requests: {report}",
        )

        health = json.loads(daemon.http("GET", "/healthz"))
        check(health["status"] == "ok", f"unhealthy: {health}")
        metrics = daemon.http("GET", "/metrics")
        check(
            scrape_metric(metrics, "repro_requests_total") == requests,
            "metrics requests_total != requests served",
        )
        check(
            scrape_metric(metrics, "repro_energy_joules_total") > 0,
            "no disk energy in /metrics",
        )
        scrape_metric(metrics, "repro_cache_hit_ratio")

        cp_doc = json.loads(daemon.http("POST", "/checkpoint", b""))
        check(
            cp_doc["served"] == requests,
            f"checkpoint at {cp_doc['served']}, expected {requests}",
        )

        tail = load(
            daemon.tcp_port, users=1, requests=500, workload="zipf",
            num_disks=4, seed=7, explicit_time_base=EXPLICIT_BASE,
        )
        check(tail["errors"] == 0, f"explicit tail errors: {tail}")
        final = daemon.drain()
    finally:
        daemon.kill()
    check(
        final["served"] == requests + 500,
        f"FINAL served {final['served']} != acknowledged {requests + 500} "
        "(lost acknowledged requests)",
    )
    print(f"phase 1 ok: served={final['served']} digest={final['digest']}")

    restored_dir = checkpoint_dir / "restored"
    restored = Daemon(
        ["--restore", cp_doc["path"], "--checkpoint-dir", str(restored_dir)]
    )
    try:
        check(
            restored.ready["replayed"] == requests,
            f"restore replayed {restored.ready['replayed']}",
        )
        before = parse_metrics(metrics, gauges=False)
        after = parse_metrics(restored.http("GET", "/metrics"), gauges=False)
        changed = sorted(
            name
            for name in before.keys() | after.keys()
            if before.get(name) != after.get(name)
        )
        check(
            not changed,
            f"/metrics did not continue across the restore: {changed}",
        )
        tail2 = load(
            restored.tcp_port, users=1, requests=500, workload="zipf",
            num_disks=4, seed=7, explicit_time_base=EXPLICIT_BASE,
        )
        check(tail2["errors"] == 0, f"restored tail errors: {tail2}")
        final2 = restored.drain()
    finally:
        restored.kill()
    check(
        final2["digest"] == final["digest"],
        "restored daemon diverged: "
        f"{final2['digest']} != {final['digest']}",
    )
    print(
        f"phase 2 ok: {len(before)} /metrics series continue across the "
        f"restore; restored digest matches ({final2['digest'][:16]}…)"
    )

    drained = latest_checkpoint(restored_dir)
    check(drained is not None, "restored daemon wrote no drain checkpoint")
    chained = Daemon(["--restore", str(drained)])
    try:
        check(
            chained.ready["replayed"] == requests + 500,
            f"chained restore replayed {chained.ready['replayed']}",
        )
        final3 = chained.drain()
    finally:
        chained.kill()
    check(
        final3["digest"] == final["digest"],
        "chained restore diverged: "
        f"{final3['digest']} != {final['digest']}",
    )
    print(f"phase 2 ok: chained restore digest matches ({drained.name})")


def phase_backpressure() -> None:
    daemon = Daemon(
        [
            "-p", "lru", "--disks", "2", "--cache-blocks", "128",
            "--queue-capacity", "2", "--batch-max", "2",
            "--feed-delay", "0.005",
        ]
    )
    try:
        report = load(
            daemon.tcp_port, users=8, requests=400, workload="zipf",
            num_disks=2, seed=11,
        )
        rss = daemon.rss_bytes()
        final = daemon.drain()
    finally:
        daemon.kill()
    check(report["retried"] > 0, f"no backpressure observed: {report}")
    check(report["errors"] == 0, f"backpressure load errors: {report}")
    check(
        report["acked"] == report["sent"],
        f"requests neither acked nor errored: {report}",
    )
    check(
        final["rejected"] > 0,
        f"daemon counted no rejections: {final}",
    )
    check(
        final["served"] == report["acked"],
        f"FINAL served {final['served']} != acked {report['acked']} "
        "(lost acknowledged requests)",
    )
    if rss is not None:
        check(
            rss < RSS_LIMIT_BYTES,
            f"daemon RSS {rss / 2**20:.0f} MiB exceeds the bound "
            f"{RSS_LIMIT_BYTES / 2**20:.0f} MiB",
        )
    print(
        f"phase 3 ok: retried={report['retried']} "
        f"rejected={final['rejected']} served={final['served']}"
        + (f" rss={rss / 2**20:.0f}MiB" if rss is not None else "")
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--requests", type=int, default=10_000,
        help="main-phase load size (default 10000)",
    )
    parser.add_argument(
        "--workdir", default=None,
        help="checkpoint scratch directory (default: a temp dir)",
    )
    args = parser.parse_args(argv)
    import tempfile

    try:
        if args.workdir:
            workdir = Path(args.workdir)
            workdir.mkdir(parents=True, exist_ok=True)
            phase_serve_and_restore(args.requests, workdir / "checkpoints")
        else:
            with tempfile.TemporaryDirectory() as tmp:
                phase_serve_and_restore(
                    args.requests, Path(tmp) / "checkpoints"
                )
        phase_backpressure()
    except SmokeFailure as exc:
        print(f"serve-smoke FAILED: {exc}", file=sys.stderr)
        return 1
    print("serve-smoke passed")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
