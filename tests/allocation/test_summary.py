"""``summarize_counts`` must reproduce the materialised allocator's
aggregates exactly — it is the shortcut the kernel path of
``Simulator.evaluate`` trusts instead of building tiles
(docs/performance.md)."""

import math

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import DEFAULT_CANDIDATES, HardwareConfig
from repro.arch.mapping import map_layer
from repro.core.allocation import (
    allocate_tile_based,
    apply_tile_sharing,
    clear_summary_cache,
    summarize_counts,
    summary_cache_info,
)
from repro.models import LayerSpec
from repro.sim import kernels
from repro.sim.area import allocation_area_um2, tile_area_um2


def summary_of(mappings, capacity, *, tile_shared):
    """``summarize_counts`` fed from mappings, as the kernels feed it."""
    return summarize_counts(
        tuple(m.shape for m in mappings),
        tuple(m.num_crossbars for m in mappings),
        sum(m.weight_cells for m in mappings),
        capacity,
        tile_shared=tile_shared,
    )


def materialize(mappings, capacity, *, tile_shared):
    allocation = allocate_tile_based(mappings, capacity)
    if tile_shared:
        allocation = apply_tile_sharing(allocation)
    return allocation


def surviving_tiles_per_layer(allocation, mappings, capacity):
    """Occupied-tile count per layer, attributed by tile-id range.

    ``allocate_tile_based`` hands out sequential ids layer by layer and
    Algorithm 1 keeps the *head* tile's id, so each layer owns one
    contiguous id range before and after sharing.
    """
    counts = []
    start = 0
    for mapping in mappings:
        width = math.ceil(mapping.num_crossbars / capacity)
        counts.append(
            sum(
                1
                for t in allocation.tiles
                if t.occupied > 0 and start <= t.tile_id < start + width
            )
        )
        start += width
    return tuple(counts)


def assert_summary_matches(mappings, capacity, config, *, tile_shared):
    allocation = materialize(mappings, capacity, tile_shared=tile_shared)
    summary = summary_of(mappings, capacity, tile_shared=tile_shared)
    assert summary.occupied_tiles == allocation.occupied_tiles
    assert summary.empty_crossbars == allocation.empty_crossbars
    assert summary.allocated_cells == allocation.allocated_cells
    assert summary.weight_cells == allocation.weight_cells
    assert summary.total_crossbar_slots == allocation.total_crossbar_slots
    assert summary.utilization == allocation.utilization
    assert summary.tiles_per_layer == surviving_tiles_per_layer(
        allocation, mappings, capacity
    )
    # The kernels' float fold over per-layer runs must replay the per-tile
    # fold bit for bit (a layer's tiles are contiguous and share a shape).
    tile_areas = np.array([tile_area_um2(m.shape, config) for m in mappings])
    assert kernels.area_from_layer_runs(
        tile_areas, summary.tiles_per_layer
    ) == allocation_area_um2(allocation, config)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), tile_shared=st.booleans())
def test_summary_matches_materialized_allocation(data, tile_shared, lenet_net):
    config = HardwareConfig()
    picks = data.draw(
        st.lists(
            st.sampled_from(DEFAULT_CANDIDATES),
            min_size=lenet_net.num_layers,
            max_size=lenet_net.num_layers,
        )
    )
    mappings = tuple(
        map_layer(layer, shape) for layer, shape in zip(lenet_net.layers, picks)
    )
    assert_summary_matches(
        mappings, config.logical_xbars_per_tile, config, tile_shared=tile_shared
    )


@pytest.mark.parametrize("tile_shared", [True, False])
@pytest.mark.parametrize("capacity", [1, 4])
def test_summary_edge_cases(tile_shared, capacity):
    config = HardwareConfig(pes_per_tile=capacity)
    shape = DEFAULT_CANDIDATES[0]  # 32x32
    cases = [
        # Single tile: one layer, one crossbar.
        [LayerSpec.fc(3, 8).with_index(0)],
        # All-full group: every tile filled exactly to capacity, so
        # Algorithm 1 has nothing to merge.
        [
            LayerSpec.fc(32 * capacity, 32).with_index(0),
            LayerSpec.fc(32 * capacity, 32).with_index(1),
        ],
        # Mixed partials that sharing can actually merge.
        [
            LayerSpec.fc(3, 8).with_index(0),
            LayerSpec.fc(3, 40).with_index(1),
            LayerSpec.fc(3, 72).with_index(2),
        ],
    ]
    for layers in cases:
        mappings = tuple(map_layer(layer, shape) for layer in layers)
        assert_summary_matches(mappings, capacity, config, tile_shared=tile_shared)


def test_summary_group_memo_is_shared(lenet_net):
    clear_summary_cache()
    shapes = tuple(DEFAULT_CANDIDATES[0] for _ in lenet_net.layers)
    mappings = tuple(
        map_layer(layer, shape) for layer, shape in zip(lenet_net.layers, shapes)
    )
    summary_of(mappings, 4, tile_shared=True)
    misses = summary_cache_info().misses
    summary_of(mappings, 4, tile_shared=True)
    after = summary_cache_info()
    assert after.misses == misses  # second call re-pays nothing
    assert after.hits > 0


def test_summary_rejects_nonpositive_capacity(lenet_net):
    mapping = map_layer(lenet_net.layers[0], DEFAULT_CANDIDATES[0])
    with pytest.raises(ValueError):
        summary_of((mapping,), 0, tile_shared=True)
