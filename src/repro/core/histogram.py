"""Epoch-based interval-length histogram (the paper's Figure 5).

PA approximates, per disk and per epoch, the cumulative distribution of
the lengths of intervals between consecutive disk accesses. The
histogram is the "simple but effective epoch-based technique" of
Section 4: fixed bins, each counting intervals that fall inside it; the
running prefix sums approximate the CDF, and the inverse CDF at a
probability ``p`` yields the ``x_p`` the classifier compares against
the break-even threshold ``T``.

Bins are logarithmically spaced by default — disk idle intervals span
five orders of magnitude (milliseconds to minutes), and the classifier
only needs resolution *around* the break-even times (seconds to tens of
seconds), which log spacing provides cheaply.
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

from repro.errors import ConfigurationError
from repro.snapshot import expect_length


def default_bin_edges(
    lo: float = 1e-3, hi: float = 1e4, count: int = 64
) -> list[float]:
    """Log-spaced bin edges from ``lo`` to ``hi`` seconds."""
    if not 0 < lo < hi or count < 2:
        raise ConfigurationError("need 0 < lo < hi and count >= 2")
    ratio = math.log(hi / lo) / (count - 1)
    return [lo * math.exp(i * ratio) for i in range(count)]


class IntervalHistogram:
    """Histogram of interval lengths with CDF queries.

    The bin for an interval ``x`` is the first edge >= ``x``; values
    above the last edge land in an overflow bin whose representative
    value is ``inf`` for quantile purposes (a deliberately optimistic
    choice: intervals longer than the last edge are certainly longer
    than any threshold the classifier uses).
    """

    def __init__(self, bin_edges: Sequence[float] | None = None) -> None:
        edges = list(bin_edges) if bin_edges is not None else default_bin_edges()
        if sorted(edges) != edges or len(set(edges)) != len(edges):
            raise ConfigurationError("bin edges must be strictly increasing")
        if not edges:
            raise ConfigurationError("need at least one bin edge")
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)  # +1 overflow bin
        self.total = 0

    def add(self, interval: float) -> None:
        """Record one interval length (seconds)."""
        if interval < 0:
            raise ValueError(f"interval must be >= 0, got {interval}")
        index = bisect.bisect_left(self.edges, interval)
        self.counts[index] += 1
        self.total += 1

    def add_batch(self, intervals: Sequence[float]) -> None:
        """Record many interval lengths at once.

        Equivalent to calling :meth:`add` per value, but binned with
        one vectorized histogram pass
        (:func:`repro.core.kernels.histogram_counts`) — the fused PA
        path buffers an epoch's intervals and flushes them here.
        """
        if not len(intervals):
            return
        from repro.core import kernels

        if min(intervals) < 0:
            raise ValueError("intervals must be >= 0")
        batched = kernels.histogram_counts(self.edges, intervals)
        counts = self.counts
        for index, count in enumerate(batched.tolist()):
            if count:
                counts[index] += count
        self.total += len(intervals)

    def cdf(self, x: float) -> float:
        """P(interval <= x), by accumulated bin counts."""
        if self.total == 0:
            return 0.0
        index = bisect.bisect_left(self.edges, x)
        return sum(self.counts[: index + 1]) / self.total

    def quantile(self, p: float) -> float:
        """The paper's ``x_p = F^{-1}(p)``.

        Returns the smallest bin edge whose cumulative probability
        reaches ``p``; ``inf`` if only the overflow bin does (or the
        histogram is empty — an empty epoch means the disk was not
        accessed at all, i.e. its intervals are unboundedly long).
        """
        if not 0 <= p <= 1:
            raise ValueError(f"p must be in [0, 1], got {p}")
        if self.total == 0:
            return math.inf
        threshold = p * self.total
        running = 0
        for edge, count in zip(self.edges, self.counts):
            running += count
            if running >= threshold:
                return edge
        return math.inf

    def reset(self) -> None:
        """Clear all counts (start of a new epoch)."""
        self.counts = [0] * (len(self.edges) + 1)
        self.total = 0

    def state_dict(self) -> dict:
        return {"counts": list(self.counts), "total": self.total}

    def load_state_dict(self, state: dict) -> None:
        counts = [int(c) for c in state["counts"]]
        expect_length("histogram bins", counts, len(self.edges) + 1)
        self.total = int(state["total"])
        self.counts = counts

    def mean(self) -> float:
        """Approximate mean interval using bin upper edges.

        Overflow-bin intervals are counted at the last edge, so this is
        a lower-bound style approximation — adequate for reporting.
        """
        if self.total == 0:
            return 0.0
        acc = 0.0
        for edge, count in zip(self.edges, self.counts):
            acc += edge * count
        acc += self.edges[-1] * self.counts[-1]
        return acc / self.total
