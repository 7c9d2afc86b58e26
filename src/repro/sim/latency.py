"""Inference latency model.

Single-image, layer-sequential execution: a layer's MVMs run back to back,
and the network's latency is the sum over layers (the Global Controller
streams layers through the tiles).  Per MVM:

* ``input_cycles`` bit-serial analog phases, each comprising DAC settle,
  crossbar evaluation, the ADC conversion chain (``ceil(active bitlines
  per crossbar / adc_sharing)`` sequential conversions; with the default
  one-ADC-per-bitline organisation the chain length is 1), and a
  shift-add stage;
* an adder-tree pass merging crossbar row-group partial sums
  (``ceil(log2(row_groups))`` levels);
* buffer/bus movement of the input vector and output activations;
* a fixed Global-Controller control overhead per MVM.

Pooling stages add one pooling-module cycle per pooled output element.
"""

from __future__ import annotations

import math

from ..arch.config import HardwareConfig
from ..arch.mapping import LayerMapping
from ..models.graph import Network


def mvm_latency_ns(mapping: LayerMapping, config: HardwareConfig) -> float:
    """Latency of one matrix-vector multiplication on this mapping (ns)."""
    layer = mapping.layer
    # Each ADC serially converts the `adc_sharing` bitlines muxed onto it;
    # all ADCs run in parallel, so the per-phase conversion chain is the
    # mux depth (1 with the default one-ADC-per-bitline organisation),
    # capped by how many active bitlines a crossbar actually has.  The cap
    # is always >= 1: LayerSpec requires out_channels >= 1, CrossbarShape
    # requires cols >= 1, and LayerMapping's MAP003 construction invariant
    # rejects degenerate group counts — a zero chain (which would silently
    # drop the ADC term) is unconstructible (tests/sim/test_vectorized_parity.py).
    chain = min(config.adc_sharing, mapping.used_columns_per_crossbar_max)
    analog_phase = (
        config.latency_dac_ns
        + config.latency_xbar_ns
        + chain * config.latency_adc_ns
        + config.latency_shift_add_ns
    )
    tree = mapping.adder_tree_depth * config.latency_adder_ns
    in_bytes = layer.in_channels * layer.kernel_elems
    out_bytes = layer.out_channels
    movement = (in_bytes + out_bytes) * config.latency_buffer_ns_per_byte + (
        in_bytes * mapping.col_groups + out_bytes
    ) * config.latency_bus_ns_per_byte
    return (
        config.input_cycles * analog_phase
        + tree
        + movement
        + config.latency_control_ns
    )


def layer_latency_ns(mapping: LayerMapping, config: HardwareConfig) -> float:
    """Latency of one layer's full inference pass (ns)."""
    return mapping.layer.mvm_ops * mvm_latency_ns(mapping, config)


def pooling_latency_ns(network: Network, config: HardwareConfig) -> float:
    """Latency of all pooling stages for one inference pass (ns)."""
    total = 0.0
    for i, layer in enumerate(network.layers):
        pool = network.pool_after_or_none(i)
        if pool is None:
            continue
        pooled = pool.output_size(layer.output_size) ** 2 * layer.out_channels
        total += pooled * config.latency_pool_ns
    return total
