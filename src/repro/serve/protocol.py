"""The line-oriented ingest protocol.

One request per line, ASCII, newline-terminated — trivially producible
from netcat, a shell loop, or the bundled load generator:

.. code-block:: text

    REQ <id> <disk> <block> [<nblocks>] [R|W] [t=<sim_time>]
    PING

``id`` is an opaque client token echoed back in the response; the
optional ``t=`` field pins an explicit simulated arrival time (finite,
``>= 0``, and not before the daemon's stamp watermark — used by
deterministic drivers like the smoke harness), otherwise the daemon
stamps the request from its lockstep clock. Responses:

.. code-block:: text

    OK <id> <latency_s> <sim_time>     # served; client-visible latency
    RETRY <id> <after_s>               # backpressure: try again later
    ERR <id> <message...>              # malformed request
    PONG                               # answer to PING

The same grammar rides the HTTP ingest endpoint: a ``POST /ingest``
body is parsed line by line and the response body carries the matching
``OK``/``RETRY`` lines in request order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from repro.errors import ServeError
from repro.traces.record import IORequest

#: Verbs a client may send.
VERB_REQ = "REQ"
VERB_PING = "PING"

#: Verbs the daemon answers with.
VERB_OK = "OK"
VERB_RETRY = "RETRY"
VERB_ERR = "ERR"
VERB_PONG = "PONG"


@dataclass(frozen=True, slots=True)
class IngestLine:
    """One parsed ``REQ`` line (time still unstamped when ``None``)."""

    req_id: str
    disk: int
    block: int
    nblocks: int = 1
    is_write: bool = False
    time: float | None = None

    def to_request(self, stamp: float) -> IORequest:
        """Materialize at the stamped simulated arrival time."""
        return IORequest(
            time=self.time if self.time is not None else stamp,
            disk=self.disk,
            block=self.block,
            nblocks=self.nblocks,
            is_write=self.is_write,
        )


def parse_request_line(line: str) -> IngestLine:
    """Parse one ``REQ`` line; raises :class:`ServeError` on bad input."""
    parts = line.split()
    if not parts or parts[0] != VERB_REQ:
        raise ServeError(f"expected a {VERB_REQ} line, got {line!r}")
    if len(parts) < 4:
        raise ServeError(
            f"{VERB_REQ} needs at least <id> <disk> <block>, got {line!r}"
        )
    req_id = parts[1]
    rest = parts[2:]
    explicit_time: float | None = None
    if rest and rest[-1].startswith("t="):
        try:
            explicit_time = float(rest[-1][2:])
        except ValueError as exc:
            raise ServeError(f"bad explicit time in {line!r}") from exc
        if not 0.0 <= explicit_time < inf:
            raise ServeError(
                f"explicit time must be finite and >= 0 in {line!r}"
            )
        rest = rest[:-1]
    if len(rest) < 2 or len(rest) > 4:
        raise ServeError(f"malformed {VERB_REQ} line {line!r}")
    try:
        disk = int(rest[0])
        block = int(rest[1])
        nblocks = int(rest[2]) if len(rest) >= 3 else 1
    except ValueError as exc:
        raise ServeError(f"non-integer field in {line!r}") from exc
    is_write = False
    if len(rest) == 4:
        flag = rest[3].upper()
        if flag not in ("R", "W"):
            raise ServeError(f"read/write flag must be R or W in {line!r}")
        is_write = flag == "W"
    if disk < 0 or block < 0 or nblocks < 1:
        raise ServeError(f"out-of-range field in {line!r}")
    return IngestLine(
        req_id=req_id,
        disk=disk,
        block=block,
        nblocks=nblocks,
        is_write=is_write,
        time=explicit_time,
    )


def format_request(
    req_id: str,
    disk: int,
    block: int,
    nblocks: int = 1,
    is_write: bool = False,
    time: float | None = None,
) -> str:
    """Render a ``REQ`` line (client side)."""
    line = (
        f"{VERB_REQ} {req_id} {disk} {block} {nblocks} "
        f"{'W' if is_write else 'R'}"
    )
    if time is not None:
        line += f" t={time!r}"
    return line


def format_ok(req_id: str, latency_s: float, sim_time: float) -> str:
    return f"{VERB_OK} {req_id} {latency_s!r} {sim_time!r}"


def format_retry(req_id: str, after_s: float) -> str:
    return f"{VERB_RETRY} {req_id} {after_s:.3f}"


def format_err(req_id: str, message: str) -> str:
    return f"{VERB_ERR} {req_id} {message}"


@dataclass(frozen=True, slots=True)
class Response:
    """One parsed daemon response line (client side)."""

    verb: str
    req_id: str
    #: ``OK``: latency; ``RETRY``: the advised backoff; else 0.0.
    value: float = 0.0
    #: ``OK``: the stamped simulated service time; else 0.0.
    sim_time: float = 0.0
    message: str = ""


def parse_response_line(line: str) -> Response:
    """Parse a daemon response; raises :class:`ServeError` if unknown."""
    parts = line.split(None, 3)
    if not parts:
        raise ServeError("empty response line")
    verb = parts[0]
    if verb == VERB_PONG:
        return Response(verb=verb, req_id="")
    if verb == VERB_OK and len(parts) == 4:
        return Response(
            verb=verb,
            req_id=parts[1],
            value=float(parts[2]),
            sim_time=float(parts[3]),
        )
    if verb == VERB_RETRY and len(parts) == 3:
        return Response(verb=verb, req_id=parts[1], value=float(parts[2]))
    if verb == VERB_ERR and len(parts) >= 2:
        return Response(
            verb=verb,
            req_id=parts[1],
            message=parts[3] if len(parts) > 3 else "",
        )
    raise ServeError(f"unparseable response line {line!r}")
