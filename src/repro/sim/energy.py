"""Dynamic + static energy model of one inference pass.

Per MVM (one input vector through one layer), the analog pipeline runs
``input_cycles`` bit-serial phases (8 with 8-bit activations and 1-bit
DACs), and every event replicates across the ``xbars_per_group`` weight
bit-slice crossbars (8 with 8-bit weights and 1-bit cells).  Per phase:

* **DAC**: one conversion per used wordline of every physical crossbar.
* **Crossbar**: every weight-holding cell conducts.
* **ADC**: one conversion per *used* bitline — the paper's "activated
  ADCs" (Fig. 5: 256 on 64x64 vs 128 on 128x128 for the same layer).
  Counting only active bitlines matches Fig. 5 exactly.
* **Shift-and-add**: each ADC sample is shifted into the accumulating
  digital partial sum.
* **Adder tree**: partial sums from different crossbar row-groups merge.

Plus per layer: buffer and bus traffic for input/output feature maps,
pooling-module energy, and leakage of the allocated hardware integrated
over the inference latency.  ADC energy dominates by construction — the
premise of the paper's size/energy trade-off (§2.2.3).
"""

from __future__ import annotations

from ..arch.config import HardwareConfig
from ..arch.mapping import LayerMapping
from ..models.graph import Network
from ..models.layers import LayerSpec
from .units_constants import NW_NS_TO_NJ
from .metrics import EnergyBreakdown


def adc_conversions_per_cycle(mapping: LayerMapping, config: HardwareConfig) -> float:
    """Effective ADC conversions per analog cycle (per bit-slice set).

    Active (weight-holding) bitlines count in full; idle bitlines of
    occupied crossbars count at ``idle_line_energy_fraction``.
    """
    used = mapping.used_columns_total
    idle = mapping.allocated_columns_total - used
    return used + config.idle_line_energy_fraction * idle


def dac_conversions_per_cycle(mapping: LayerMapping, config: HardwareConfig) -> float:
    """Effective DAC conversions per analog cycle (per bit-slice set)."""
    used = mapping.used_rows_total
    idle = mapping.allocated_rows_total - used
    return used + config.idle_line_energy_fraction * idle


def layer_adc_conversions(mapping: LayerMapping, config: HardwareConfig) -> int:
    """ADC conversions on *active* bitlines for one full inference pass."""
    return (
        mapping.layer.mvm_ops
        * mapping.used_columns_total
        * config.input_cycles
        * config.xbars_per_group
    )


def layer_dac_conversions(mapping: LayerMapping, config: HardwareConfig) -> int:
    """DAC conversions on *active* wordlines for one full inference pass."""
    return (
        mapping.layer.mvm_ops
        * mapping.used_rows_total
        * config.input_cycles
        * config.xbars_per_group
    )


def layer_dynamic_energy(
    mapping: LayerMapping, config: HardwareConfig
) -> EnergyBreakdown:
    """Dynamic energy of one layer's full inference pass (nJ)."""
    layer = mapping.layer
    cycles = config.input_cycles
    slices = config.xbars_per_group
    mvm = layer.mvm_ops
    phase_factor = mvm * cycles * slices

    adc_cols = adc_conversions_per_cycle(mapping, config)
    dac_rows = dac_conversions_per_cycle(mapping, config)
    adc = phase_factor * adc_cols * config.energy_adc_nj()
    dac = phase_factor * dac_rows * config.energy_dac_nj
    crossbar = (
        phase_factor * mapping.active_cells_per_cycle * config.energy_cell_read_nj
    )
    shift_add = phase_factor * adc_cols * config.energy_shift_add_nj
    # Row-group partial sums merge once per MVM at full digital precision.
    adder = mvm * mapping.partial_sum_adds * config.energy_adder_nj

    # Feature-map movement: the input vector is read from the input buffer
    # once per MVM and broadcast over the bus to every crossbar column
    # group; outputs return to the output buffer.
    in_bytes = layer.in_channels * layer.kernel_elems
    out_bytes = layer.out_channels
    buffer = mvm * (in_bytes + out_bytes) * config.energy_buffer_nj_per_byte
    bus = (
        mvm
        * (in_bytes * mapping.col_groups + out_bytes)
        * config.energy_bus_nj_per_byte
    )
    return EnergyBreakdown(
        adc=adc,
        dac=dac,
        crossbar=crossbar,
        shift_add=shift_add,
        adder_tree=adder,
        buffer=buffer,
        bus=bus,
    )


def pooling_energy(network: Network, config: HardwareConfig) -> float:
    """Energy of all pooling stages for one inference pass (nJ)."""
    total = 0.0
    for i, layer in enumerate(network.layers):
        pool = network.pool_after_or_none(i)
        if pool is None:
            continue
        pooled = pool.output_size(layer.output_size) ** 2 * layer.out_channels
        total += pooled * config.energy_pool_nj
    return total


def leakage_energy(
    occupied_tiles: int,
    occupied_slots: int,
    allocated_cells: int,
    latency_ns: float,
    config: HardwareConfig,
) -> float:
    """Static energy of the allocated hardware over the inference (nJ).

    ``occupied_slots`` counts logical crossbar slots inside occupied tiles
    and ``allocated_cells`` the logical cells they contain (used or empty
    — an allocated tile leaks in full, which is why the tile-shared
    scheme's released tiles also save energy, Fig. 10).
    """
    group = config.xbars_per_group
    power_nw = (
        occupied_slots * group * config.leak_xbar_nw
        + occupied_tiles * config.leak_tile_nw
        + allocated_cells * group * config.leak_cell_nw
    )
    return power_nw * latency_ns * NW_NS_TO_NJ
