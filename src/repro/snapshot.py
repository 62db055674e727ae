"""JSON-safe state snapshots of simulation components.

A live session is checkpointed as its rebuild parameters plus one
*snapshot* per stateful component: the ``state_dict()`` of the cache,
the replacement and write policies, the disks and their DPMs, and so
on. Each ``state_dict()`` holds only the component's mutable fields, as
plain JSON data; everything else is rebuilt from the parameters, and
``load_state_dict()`` writes the fields back into a freshly built
component.

Bulk fields travel as base64 strings of little-endian arrays rather
than JSON lists: block-key sequences (whose order is state — an LRU
stack, the cache's resident set), integer columns, float64 samples and
the Bloom filter's words. Nothing is pickled, marshalled or evaluated:
a checkpoint file is input from outside the program.

:func:`state_of` and :func:`load_state` are the only entry points the
composers use. They tag each snapshot with its component's class name,
refuse components that define no snapshot (a checkpoint is complete or
it is not written), and turn malformed input into
:class:`~repro.errors.ConfigurationError` instead of a bare
``KeyError`` from deep inside a loader.
"""

from __future__ import annotations

import base64
from typing import Iterable

import numpy as np

from repro.errors import ConfigurationError

#: Snapshot key carrying the component's class name.
TYPE_KEY = "type"

#: Low-level errors a malformed snapshot raises inside a loader.
_MALFORMED = (
    KeyError,
    TypeError,
    ValueError,
    IndexError,
    AttributeError,
    OverflowError,
)


def state_of(component) -> dict:
    """``component.state_dict()``, tagged with the component's class.

    Raises:
        ConfigurationError: If the component has no ``state_dict``.
    """
    if not hasattr(component, "state_dict"):
        raise ConfigurationError(
            f"{type(component).__name__} has no state_dict; a session "
            "holding it cannot be checkpointed"
        )
    return {TYPE_KEY: type(component).__name__, **component.state_dict()}


def load_state(component, state) -> None:
    """Load a :func:`state_of` snapshot into a freshly built component.

    Raises:
        ConfigurationError: If the snapshot belongs to another class or
            is malformed (missing fields, wrong lengths, bad base64).
    """
    name = type(component).__name__
    if not isinstance(state, dict):
        raise ConfigurationError(
            f"{name} state must be an object, got {type(state).__name__}"
        )
    kind = state.get(TYPE_KEY)
    if kind != name:
        raise ConfigurationError(
            f"the snapshot holds {kind} state where the session "
            f"parameters build a {name}"
        )
    try:
        component.load_state_dict(state)
    except _MALFORMED as exc:
        detail = f"missing {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
        raise ConfigurationError(f"malformed {name} state: {detail}") from exc


def expect_length(what: str, items, expected: int) -> None:
    """Refuse a per-disk (or per-slot) list of the wrong length."""
    if len(items) != expected:
        raise ConfigurationError(
            f"the snapshot holds {len(items)} {what} where the session "
            f"parameters build {expected}"
        )


def _pack(values, dtype: str) -> str:
    array = np.asarray(values, dtype=dtype)
    return base64.b64encode(array.tobytes()).decode("ascii")


def _unpack(text: str, dtype: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text, validate=True), dtype=dtype)


def pack_floats(values: Iterable[float]) -> str:
    """float64 values as base64 (exact: no decimal round trip)."""
    return _pack(list(values), "<f8")


def unpack_floats(text: str) -> list[float]:
    return _unpack(text, "<f8").tolist()


def pack_ints(values: Iterable[int]) -> str:
    """int64 values as base64."""
    return _pack(list(values), "<i8")


def unpack_ints(text: str) -> list[int]:
    return _unpack(text, "<i8").tolist()


def pack_keys(keys: Iterable[tuple[int, int]]) -> str:
    """``(disk, block)`` keys, in iteration order, as base64 int64 pairs."""
    flat = [part for key in keys for part in key]
    return _pack(flat, "<i8")


def unpack_keys(text: str) -> list[tuple[int, int]]:
    flat = _unpack(text, "<i8")
    if len(flat) % 2:
        raise ValueError("block-key column has an odd number of values")
    return list(zip(flat[0::2].tolist(), flat[1::2].tolist()))


def pack_words(words: np.ndarray) -> str:
    """A uint64 bit vector as base64."""
    return _pack(words, "<u8")


def unpack_words(text: str) -> np.ndarray:
    """Inverse of :func:`pack_words`, as a writable native array."""
    return _unpack(text, "<u8").astype(np.uint64)
