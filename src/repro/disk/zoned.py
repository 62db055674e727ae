"""Zoned (multi-band) disk geometry.

Real disks record more sectors on their longer outer tracks (zoned bit
recording); DiskSim models this with per-zone geometry. The default
:class:`~repro.disk.geometry.DiskGeometry` is uniform; this module adds
:class:`ZonedDiskGeometry`, which divides the cylinders into zones of
decreasing track capacity from the outer edge inward. The service-time
model picks the zone's track capacity up through
:meth:`DiskGeometry.track_sectors`, so outer-zone transfers run
proportionally faster — the effect zoning exists to model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.disk.geometry import DiskAddress, DiskGeometry
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Zone:
    """One recording zone: a run of cylinders with equal track capacity."""

    cylinders: int
    sectors_per_track: int


class ZonedDiskGeometry(DiskGeometry):
    """Geometry with outer-to-inner zones of decreasing track capacity.

    Args:
        capacity_bytes: Target usable capacity; zones are sized
            proportionally and the innermost zone absorbs rounding.
        block_size: Logical block size (multiple of the sector size).
        heads: Recording surfaces.
        num_zones: Zone count.
        outer_sectors_per_track / inner_sectors_per_track: Track
            capacities at the edges; intermediate zones interpolate
            linearly. Both must be multiples of the block's sectors.
    """

    def __init__(
        self,
        capacity_bytes: int,
        block_size: int,
        heads: int,
        num_zones: int = 8,
        outer_sectors_per_track: int = 640,
        inner_sectors_per_track: int = 384,
    ) -> None:
        if num_zones < 1:
            raise ConfigurationError("num_zones must be >= 1")
        if inner_sectors_per_track > outer_sectors_per_track:
            raise ConfigurationError(
                "outer tracks must hold at least as many sectors as inner"
            )
        # Validate block size via the base class using the outer zone,
        # then rebuild the zone table.
        super().__init__(
            capacity_bytes, block_size, heads, outer_sectors_per_track
        )
        spb = self.sectors_per_block
        zones: list[Zone] = []
        span = outer_sectors_per_track - inner_sectors_per_track
        for z in range(num_zones):
            raw = outer_sectors_per_track - (
                span * z // max(1, num_zones - 1) if num_zones > 1 else 0
            )
            sectors = max(spb, (raw // spb) * spb)  # block-align each zone
            zones.append(Zone(cylinders=0, sectors_per_track=sectors))

        # Size zones so each holds ~1/num_zones of the capacity.
        total_blocks_target = capacity_bytes // block_size
        per_zone_target = max(1, total_blocks_target // num_zones)
        self.zones = []
        self._zone_first_cylinder = []
        self._zone_first_block = []
        cylinder = block = 0
        for zone in zones:
            blocks_per_cyl = (zone.sectors_per_track // spb) * heads
            cylinders = max(1, per_zone_target // blocks_per_cyl)
            self.zones.append(
                Zone(cylinders=cylinders, sectors_per_track=zone.sectors_per_track)
            )
            self._zone_first_cylinder.append(cylinder)
            self._zone_first_block.append(block)
            cylinder += cylinders
            block += cylinders * blocks_per_cyl
        self.cylinders = cylinder
        self.num_blocks = block
        # base-class uniform fields describe the outer zone only; the
        # overridden methods below handle the rest
        self.sectors_per_track = outer_sectors_per_track

    # -- zone lookups ---------------------------------------------------

    def zone_of_block(self, block: int) -> int:
        if not 0 <= block < self.num_blocks:
            raise ValueError(f"block {block} out of range [0, {self.num_blocks})")
        zone = 0
        for z, first in enumerate(self._zone_first_block):
            if block >= first:
                zone = z
        return zone

    def zone_of_cylinder(self, cylinder: int) -> int:
        if not 0 <= cylinder < self.cylinders:
            raise ValueError(
                f"cylinder {cylinder} out of range [0, {self.cylinders})"
            )
        zone = 0
        for z, first in enumerate(self._zone_first_cylinder):
            if cylinder >= first:
                zone = z
        return zone

    def track_sectors(self, cylinder: int) -> int:
        """Sectors per track at ``cylinder`` (zone-dependent)."""
        return self.zones[self.zone_of_cylinder(cylinder)].sectors_per_track

    # -- mapping -----------------------------------------------------------

    def locate(self, block: int) -> DiskAddress:
        z = self.zone_of_block(block)
        zone = self.zones[z]
        spb = self.sectors_per_block
        blocks_per_track = zone.sectors_per_track // spb
        blocks_per_cyl = blocks_per_track * self.heads
        offset = block - self._zone_first_block[z]
        cyl_in_zone, rem = divmod(offset, blocks_per_cyl)
        head, track_block = divmod(rem, blocks_per_track)
        return DiskAddress(
            cylinder=self._zone_first_cylinder[z] + cyl_in_zone,
            head=head,
            sector=track_block * spb,
        )

    def locate_cs(self, block: int) -> tuple[int, int]:
        z = self.zone_of_block(block)
        zone = self.zones[z]
        spb = self.sectors_per_block
        blocks_per_track = zone.sectors_per_track // spb
        blocks_per_cyl = blocks_per_track * self.heads
        offset = block - self._zone_first_block[z]
        cyl_in_zone, rem = divmod(offset, blocks_per_cyl)
        track_block = rem % blocks_per_track
        return self._zone_first_cylinder[z] + cyl_in_zone, track_block * spb

    def block_of(self, address: DiskAddress) -> int:
        if address.sector % self.sectors_per_block:
            raise ValueError(f"sector {address.sector} is not block-aligned")
        z = self.zone_of_cylinder(address.cylinder)
        zone = self.zones[z]
        spb = self.sectors_per_block
        blocks_per_track = zone.sectors_per_track // spb
        blocks_per_cyl = blocks_per_track * self.heads
        cyl_in_zone = address.cylinder - self._zone_first_cylinder[z]
        return (
            self._zone_first_block[z]
            + cyl_in_zone * blocks_per_cyl
            + address.head * blocks_per_track
            + address.sector // spb
        )
