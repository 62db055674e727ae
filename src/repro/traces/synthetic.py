"""The Table 3 parameterized synthetic trace generator.

This is the workload of the paper's write-policy study (Section 6):
requests arrive per an exponential or Pareto process, target one of 20
disks, and mix temporal locality (Zipf reuse stack) with spatial
locality (sequential / local / random, Table 3 probabilities). The
write ratio and mean inter-arrival time are the swept parameters of
Figure 9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.traces.arrivals import make_arrivals
from repro.traces.columnar import ColumnarTrace
from repro.traces.locality import SpatialModel, ZipfStackModel
from repro.traces.streaming import TraceRow, build_columnar
from repro.units import DEFAULT_BLOCK_SIZE, GIB


@dataclass(frozen=True)
class SyntheticTraceConfig:
    """Table 3 defaults; override fields per experiment.

    The paper's table prints the hit and write ratios ambiguously in
    the archived copy; ``reuse_probability=0.8`` and ``write_ratio=0.2``
    match the legible digits and the Figure 9 sweeps override them
    anyway.
    """

    num_requests: int = 1_000_000
    num_disks: int = 20
    arrival_process: str = "exponential"  # or "pareto"
    mean_interarrival_s: float = 0.250
    pareto_shape: float = 1.5
    reuse_probability: float = 0.8
    write_ratio: float = 0.2
    disk_size_bytes: int = 18 * GIB
    block_size: int = DEFAULT_BLOCK_SIZE
    p_sequential: float = 0.1
    p_local: float = 0.2
    max_local_distance: int = 100
    zipf_a: float = 1.2
    stack_depth: int = 1 << 16
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_requests < 1:
            raise ConfigurationError("num_requests must be >= 1")
        if self.num_disks < 1:
            raise ConfigurationError("num_disks must be >= 1")
        if not 0.0 <= self.write_ratio <= 1.0:
            raise ConfigurationError("write_ratio must be in [0, 1]")

    @property
    def disk_blocks(self) -> int:
        return self.disk_size_bytes // self.block_size


def iter_synthetic_rows(
    config: SyntheticTraceConfig = SyntheticTraceConfig(),
) -> Iterator[TraceRow]:
    """The generation loop as a streaming row source (DESIGN §14).

    Draw order is part of the trace's identity: fixtures pin traces by
    seed.
    """
    rng = np.random.default_rng(config.seed)
    arrivals = make_arrivals(
        config.arrival_process,
        config.mean_interarrival_s,
        rng,
        shape=config.pareto_shape,
    )
    spatial = SpatialModel(
        disk_blocks=config.disk_blocks,
        rng=rng,
        p_sequential=config.p_sequential,
        p_local=config.p_local,
        max_local_distance=config.max_local_distance,
    )
    stack = ZipfStackModel(
        rng=rng,
        reuse_probability=config.reuse_probability,
        zipf_a=config.zipf_a,
        max_depth=config.stack_depth,
    )
    next_gap = arrivals.next_gap
    next_reuse = stack.next_key
    push = stack.push
    next_block = spatial.next_block
    rng_random = rng.random
    rng_integers = rng.integers
    num_disks = config.num_disks
    write_ratio = config.write_ratio
    time = 0.0
    for _ in range(config.num_requests):
        time += next_gap()
        key = next_reuse()
        if key is None:
            disk = int(rng_integers(num_disks))
            key = (disk, next_block(disk))
            push(key)
        yield (time, key[0], key[1], 1, bool(rng_random() < write_ratio))


def generate_synthetic_trace_columnar(
    config: SyntheticTraceConfig = SyntheticTraceConfig(),
) -> ColumnarTrace:
    """Generate one Table 3 trace (deterministic given ``config.seed``).

    Rows stream through the chunked builder without materializing an
    :class:`~repro.traces.record.IORequest` (or a boxed Python scalar)
    per row.
    """
    return build_columnar(iter_synthetic_rows(config))
