"""Crossbar allocation schemes: the tile-based baseline and tile-shared
Algorithm 1 (§3.4)."""

from .multi_model import (
    ModelSlice,
    MultiModelAllocation,
    allocate_multi_network,
)
from .tile_based import (
    allocate_tile_based,
    layer_empty_fraction,
    layer_tiles_needed,
)
from .summary import (
    AllocationSummary,
    clear_summary_cache,
    summarize_counts,
    summary_cache_info,
)
from .tile_shared import apply_tile_sharing, plan_tile_sharing
from .tiles import Allocation, Tile

__all__ = [
    "Allocation",
    "AllocationSummary",
    "ModelSlice",
    "MultiModelAllocation",
    "Tile",
    "allocate_multi_network",
    "allocate_tile_based",
    "apply_tile_sharing",
    "clear_summary_cache",
    "layer_empty_fraction",
    "layer_tiles_needed",
    "plan_tile_sharing",
    "summarize_counts",
    "summary_cache_info",
]
