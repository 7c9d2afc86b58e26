"""Accelerator area model.

Area is charged per *allocated tile* — a tile is fabricated (or reserved)
as a unit, so its empty crossbar slots still cost silicon.  This is what
makes the heterogeneous + tile-shared design win area in Table 5: higher
utilization means fewer allocated crossbars and, above all, fewer of the
area-dominant per-bitline ADCs.

One logical crossbar slot of shape ``r x c`` comprises
``xbars_per_group`` physical arrays, each carrying:

* ``r * c`` ReRAM cells,
* ``c`` ADCs (1 per ``adc_sharing`` bitlines) at ``adc_bits`` resolution,
* ``r`` 1-bit DAC drivers,
* ``c / adc_sharing`` shift-and-add units,

plus fixed per-PE and per-tile overheads (buffers, pooling, control).
"""

from __future__ import annotations

import math

from ..arch.config import CrossbarShape, HardwareConfig
from ..core.allocation.tiles import Allocation


def crossbar_slot_area_um2(shape: CrossbarShape, config: HardwareConfig) -> float:
    """Area of one logical crossbar slot (the full bit-slice group), um^2."""
    adcs = math.ceil(shape.cols / config.adc_sharing)
    per_physical = (
        shape.cells * config.area_cell_um2
        + adcs * config.area_adc_um2()
        + shape.rows * config.area_dac_um2
        + adcs * config.area_shift_add_um2
    )
    return per_physical * config.xbars_per_group


def tile_area_um2(shape: CrossbarShape, config: HardwareConfig) -> float:
    """Area of one whole tile built with ``shape`` crossbars, um^2."""
    slots = config.logical_xbars_per_tile
    return (
        slots * crossbar_slot_area_um2(shape, config)
        + config.pes_per_tile * config.area_pe_overhead_um2
        + config.area_tile_overhead_um2
    )


def allocation_area_um2(allocation: Allocation, config: HardwareConfig) -> float:
    """Total area of all occupied tiles of an allocation, um^2."""
    return sum(
        tile_area_um2(t.shape, config)
        for t in allocation.tiles
        if t.occupied > 0
    )

