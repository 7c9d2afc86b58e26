"""Static checkers over configs, mappings, model graphs, and plans.

Every function returns a list of :class:`~repro.analysis.invariants.Diagnostic`
and never raises on *invalid input content* — the point is to report what
is wrong, with rule ids and fix hints, before anything expensive (an RL
episode, a simulator rollup) touches the object.  Checkers come in two
flavours:

* **object-level** — operate on constructed ``repro`` objects
  (:class:`HardwareConfig`, :class:`LayerMapping`, :class:`Network`,
  :class:`Allocation`).  Used by runtime validation hooks
  (``Allocation.validate``, the RL environment) and by tests.
* **dict-level** — operate on plain JSON-ready dicts
  (:func:`check_config_dict`, :func:`check_plan_dict`).  Used by the
  ``repro check`` CLI, because genuinely broken artifacts often cannot
  even be constructed (construction-time validation rejects them).
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping, Sequence

from ..arch.config import (
    COST_CONSTANT_FIELDS,
    DEFAULT_CONFIG,
    CrossbarShape,
    HardwareConfig,
)
from ..arch.mapping import LayerMapping
from ..models.graph import Network
from ..models.layers import LayerType
from .invariants import (
    ALC001,
    CFG001,
    ALC002,
    ALC003,
    ALC004,
    ALC005,
    ALC006,
    ALC007,
    MAP001,
    MAP002,
    MAP003,
    NET001,
    NET002,
    NET003,
    Diagnostic,
    adc_resolution_diagnostics,
    config_value_diagnostics,
    cost_constant_diagnostics,
    shape_dim_diagnostics,
    shape_discipline_diagnostics,
)

# ----------------------------------------------------------------------
# Crossbar shapes and candidate sets
# ----------------------------------------------------------------------
def check_shape(shape: CrossbarShape) -> list[Diagnostic]:
    """SHP001-SHP003 over one candidate shape."""
    loc = f"shape {shape}"
    out = shape_dim_diagnostics(shape.rows, shape.cols, loc)
    out.extend(shape_discipline_diagnostics(shape.rows, shape.cols, loc))
    return out


def check_candidate_set(shapes: Iterable[CrossbarShape]) -> list[Diagnostic]:
    """Shape discipline over a whole candidate set (§3.3)."""
    out: list[Diagnostic] = []
    for shape in shapes:
        out.extend(check_shape(shape))
    return out


# ----------------------------------------------------------------------
# Hardware configs
# ----------------------------------------------------------------------
def check_config(
    config: HardwareConfig, shapes: Sequence[CrossbarShape] = ()
) -> list[Diagnostic]:
    """CFG001-CFG005 over a constructed config (plus candidate coverage).

    A constructed :class:`HardwareConfig` already passed CFG001-CFG003 and
    CFG005 in ``__post_init__`` (same implementations); re-running them
    here keeps the checker total and costs microseconds.  CFG004 needs the candidate
    shapes, which only the caller knows.
    """
    out = config_value_diagnostics(
        weight_bits=config.weight_bits,
        input_bits=config.input_bits,
        cell_bits=config.cell_bits,
        dac_bits=config.dac_bits,
        adc_bits=config.adc_bits,
        pes_per_tile=config.pes_per_tile,
        tiles_per_bank=config.tiles_per_bank,
        adc_sharing=config.adc_sharing,
    )
    out.extend(
        cost_constant_diagnostics(
            {name: getattr(config, name) for name in COST_CONSTANT_FIELDS}
        )
    )
    for shape in shapes:
        out.extend(
            adc_resolution_diagnostics(
                config.adc_bits, shape.rows, config.cell_bits, f"shape {shape}"
            )
        )
    return out


def check_config_dict(
    data: Mapping[str, Any], shapes: Sequence[CrossbarShape] = ()
) -> list[Diagnostic]:
    """CFG001-CFG005 over a serialized (possibly partial) config dict.

    The merged dict (dataclass defaults + file overrides) is checked
    structurally without ever constructing a :class:`HardwareConfig`, so
    broken files produce diagnostics instead of construction exceptions.
    Unknown keys are a serialization concern and stay with
    :func:`repro.serialize.config_from_dict`.
    """
    defaults = {
        "weight_bits": 8,
        "input_bits": 8,
        "cell_bits": 1,
        "dac_bits": 1,
        "adc_bits": 10,
        "pes_per_tile": 4,
        "tiles_per_bank": 256 * 256,
        "adc_sharing": 1,
    }
    merged: dict[str, int] = {}
    out: list[Diagnostic] = []
    for key, default in defaults.items():
        raw = data.get(key, default)
        try:
            merged[key] = int(raw)
        except (TypeError, ValueError):
            merged[key] = default
            out.append(
                CFG001.diag(
                    "HardwareConfig",
                    f"{key} is not an integer: {raw!r}",
                    hint=f"set {key} to a positive integer",
                )
            )
    out.extend(config_value_diagnostics(**merged))  # type: ignore[arg-type]
    out.extend(
        cost_constant_diagnostics(
            {
                name: data.get(name, getattr(DEFAULT_CONFIG, name))
                for name in COST_CONSTANT_FIELDS
            }
        )
    )
    for shape in shapes:
        out.extend(
            adc_resolution_diagnostics(
                merged["adc_bits"], shape.rows, merged["cell_bits"], f"shape {shape}"
            )
        )
    return out


# ----------------------------------------------------------------------
# Layer mappings (Eq. 4)
# ----------------------------------------------------------------------
def check_mapping(mapping: LayerMapping) -> list[Diagnostic]:
    """MAP001-MAP003 over one layer's mapping."""
    out: list[Diagnostic] = []
    layer = mapping.layer
    shape = mapping.shape
    loc = f"L{layer.index + 1}->{shape}"

    # MAP001 — Eq. 4 bounds.
    util = mapping.utilization
    if not (0.0 < util <= 1.0):
        out.append(
            MAP001.diag(
                loc,
                f"utilization {util:.4f} outside (0, 1]",
                hint="row/col group counts or the layer's weight count are corrupt",
            )
        )

    # MAP002 — kernel-split fallback engages exactly when k^2 > rows.
    should_split = layer.kernel_elems > shape.rows
    if mapping.kernel_split != should_split:
        out.append(
            MAP002.diag(
                loc,
                f"kernel_split={mapping.kernel_split} but k^2={layer.kernel_elems} "
                f"vs rows={shape.rows} implies {should_split}",
                hint="rebuild the mapping with repro.arch.mapping.map_layer",
            )
        )

    # MAP003 — recompute the group arithmetic from the layer dims.
    if should_split:
        want_rows = math.ceil(layer.in_channels * layer.kernel_elems / shape.rows)
    else:
        slices = shape.rows // layer.kernel_elems
        want_rows = math.ceil(layer.in_channels / slices)
    want_cols = math.ceil(layer.out_channels / shape.cols)
    if (mapping.row_groups, mapping.col_groups) != (want_rows, want_cols):
        out.append(
            MAP003.diag(
                loc,
                f"row/col groups {mapping.row_groups}x{mapping.col_groups} do not "
                f"match Eq. 4's {want_rows}x{want_cols}",
                hint="rebuild the mapping with repro.arch.mapping.map_layer",
            )
        )
    elif (
        mapping.row_groups * shape.rows < layer.in_channels * layer.kernel_elems
        and not should_split
    ) or mapping.col_groups * shape.cols < layer.out_channels:
        out.append(
            MAP003.diag(
                loc,
                "mapped crossbars provide fewer rows/cols than the unfolded "
                f"weight matrix {layer.weight_matrix_shape}",
                hint="increase row_groups/col_groups",
            )
        )
    return out


def check_mappings(mappings: Iterable[LayerMapping]) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for mapping in mappings:
        out.extend(check_mapping(mapping))
    return out


# ----------------------------------------------------------------------
# Model graphs
# ----------------------------------------------------------------------
def check_network(network: Network) -> list[Diagnostic]:
    """NET001-NET003 over a network description.

    The checks are deliberately *sound for branchy topologies*: the zoo
    builds ResNet-152 (projection shortcuts) and transformer stacks as
    flat layer lists, so strict sequential chaining would mis-flag valid
    networks.  Instead, every layer's input width must be *producible* —
    by the dataset or by some earlier layer (directly, or flattened for
    FC layers).
    """
    out: list[Diagnostic] = []
    layers = network.layers

    # NET001 — contiguous indices in execution order.
    for position, layer in enumerate(layers):
        if layer.index != position:
            out.append(
                NET001.diag(
                    f"{network.name} layer #{position}",
                    f"layer carries index {layer.index}, expected {position}",
                    hint="assign indices via Network.build / with_index",
                )
            )
            break  # one desynchronisation cascades; report the first

    # NET002 — every input width is producible by something upstream.
    dataset = network.dataset
    producible: set[int] = {dataset.channels}
    flat_producible: set[int] = {
        dataset.channels,
        dataset.channels * dataset.image_size * dataset.image_size,
    }
    for layer in layers:
        if layer.layer_type is LayerType.CONV:
            ok = layer.in_channels in producible
        else:
            # An FC width is satisfiable by any upstream width directly or
            # by a flattened feature volume (channels * spatial^2), whose
            # spatial extent depends on pooling we cannot re-derive for
            # branchy graphs — accept any whole multiple of an upstream
            # channel count.
            ok = layer.in_channels in flat_producible or any(
                layer.in_channels % width == 0 for width in producible
            )
        if not ok:
            out.append(
                NET002.diag(
                    f"{network.name} L{layer.index + 1}",
                    f"{layer.describe()} consumes {layer.in_channels} inputs "
                    "but no upstream stage produces that width",
                    hint="check the layer list for a missing or misordered stage",
                )
            )
        producible.add(layer.out_channels)
        flat_producible.add(layer.out_channels)

        # NET003 — the kernel must fit the padded input.
        if (
            layer.layer_type is LayerType.CONV
            and layer.kernel_size > layer.input_size + 2 * layer.padding
        ):
            out.append(
                NET003.diag(
                    f"{network.name} L{layer.index + 1}",
                    f"kernel {layer.kernel_size} exceeds padded input "
                    f"{layer.input_size}+2*{layer.padding}",
                    hint="fix input_size propagation or the padding",
                )
            )
    return out


# ----------------------------------------------------------------------
# Allocation plans (object level)
# ----------------------------------------------------------------------
def check_allocation(allocation: Any) -> list[Diagnostic]:
    """ALC001-ALC007 over a constructed Allocation.

    Accepts the duck-typed :class:`~repro.core.allocation.tiles.Allocation`
    (annotated ``Any`` to avoid an import cycle: ``tiles.validate`` calls
    back into this function).
    """
    out: list[Diagnostic] = []
    needed = {m.layer.index: m.num_crossbars for m in allocation.mappings}
    shapes = {m.layer.index: m.shape for m in allocation.mappings}
    placed: dict[int, int] = {}
    survivor_ids = set()

    for tile in allocation.tiles:
        loc = f"tile {tile.tile_id}"
        survivor_ids.add(tile.tile_id)
        if tile.capacity != allocation.tile_capacity:
            out.append(
                ALC007.diag(
                    loc,
                    f"capacity {tile.capacity} != plan tile_capacity "
                    f"{allocation.tile_capacity}",
                    hint="all tiles integrate pes_per_tile crossbar slots",
                )
            )
        occupied = 0
        for layer_index, count in tile.occupants.items():
            if count <= 0:
                out.append(
                    ALC005.diag(
                        loc,
                        f"layer {layer_index} recorded with non-positive "
                        f"count {count}",
                        hint="remove empty occupant entries",
                    )
                )
                continue
            occupied += count
            placed[layer_index] = placed.get(layer_index, 0) + count
            expected_shape = shapes.get(layer_index)
            if expected_shape is not None and expected_shape != tile.shape:
                out.append(
                    ALC004.diag(
                        loc,
                        f"hosts layer {layer_index} mapped to {expected_shape} "
                        f"but the tile is {tile.shape}",
                        hint="tiles only host layers of their own geometry (§3.1)",
                    )
                )
        if occupied > tile.capacity:
            out.append(
                ALC001.diag(
                    loc,
                    f"over capacity: {occupied} crossbars in "
                    f"{tile.capacity} slots",
                    hint="re-run the allocator; a merge overfilled this tile",
                )
            )

    for layer_index, want in needed.items():
        got = placed.get(layer_index, 0)
        if got > want:
            out.append(
                ALC002.diag(
                    f"layer {layer_index}",
                    f"double-booked: {got} crossbar slots placed for a mapping "
                    f"of {want}",
                    hint="an absorbed tile was merged twice",
                )
            )
        elif got < want:
            out.append(
                ALC003.diag(
                    f"layer {layer_index}",
                    f"only {got} of {want} mapped crossbars are placed",
                    hint="a tile was dropped without remapping its occupants",
                )
            )
    for layer_index in placed:
        if layer_index not in needed:
            out.append(
                ALC002.diag(
                    f"layer {layer_index}",
                    "placed on tiles but absent from the layer mappings",
                    hint="the plan references a layer the network does not have",
                )
            )

    # ALC006 — Algorithm 1 accounting: absorbed tiles must be gone, and
    # the absorber must agree with the comb_map.
    for head_id, tail_ids in getattr(allocation, "comb_map", {}).items():
        if head_id not in survivor_ids:
            out.append(
                ALC006.diag(
                    f"tile {head_id}",
                    "absorber listed in comb_map but missing from the plan",
                    hint="the absorbing tile must survive the remap",
                )
            )
            continue
        head = next(t for t in allocation.tiles if t.tile_id == head_id)
        for tail_id in tail_ids:
            if tail_id in survivor_ids:
                out.append(
                    ALC006.diag(
                        f"tile {tail_id}",
                        f"absorbed by tile {head_id} but still present in "
                        "the plan",
                        hint="released tiles must be dropped from the tile list",
                    )
                )
            if tail_id not in head.absorbed:
                out.append(
                    ALC006.diag(
                        f"tile {head_id}",
                        f"comb_map says it absorbed tile {tail_id} but its "
                        "absorbed list disagrees",
                        hint="keep Tile.absorbed and Allocation.comb_map in sync",
                    )
                )
    return out


# ----------------------------------------------------------------------
# Allocation plans (dict level, for `repro check --plan`)
# ----------------------------------------------------------------------
def check_plan_dict(data: Mapping[str, Any]) -> list[Diagnostic]:
    """ALC001-ALC007 over a serialized plan document.

    The document format is what :func:`repro.serialize.plan_to_dict`
    emits::

        {"tile_capacity": 4,
         "layers": [{"index": 0, "shape": "72x64", "num_crossbars": 7}, ...],
         "tiles": [{"tile_id": 0, "shape": "72x64", "capacity": 4,
                    "occupants": {"0": 4}, "absorbed": [2]}, ...],
         "comb_map": {"0": [2]}}

    Working on the raw dict means deliberately broken plans — an
    over-capacity tile, a double-booked crossbar — are *reported*, not
    rejected at construction before the checker can see them.
    """

    class _Tile:
        def __init__(self, entry: Mapping[str, Any], default_capacity: int) -> None:
            self.tile_id = int(entry.get("tile_id", -1))
            self.shape = CrossbarShape.parse(str(entry.get("shape", "1x1")))
            self.capacity = int(entry.get("capacity", default_capacity))
            self.occupants = {
                int(k): int(v) for k, v in dict(entry.get("occupants", {})).items()
            }
            self.absorbed = [int(t) for t in entry.get("absorbed", [])]

    class _Mapping:
        def __init__(self, entry: Mapping[str, Any]) -> None:
            class _L:
                index = int(entry.get("index", -1))

            self.layer = _L()
            self.shape = CrossbarShape.parse(str(entry.get("shape", "1x1")))
            self.num_crossbars = int(entry.get("num_crossbars", 0))

    class _Plan:
        tile_capacity = int(data.get("tile_capacity", 0))
        mappings = tuple(_Mapping(e) for e in data.get("layers", []))
        tiles = tuple(_Tile(e, int(data.get("tile_capacity", 0))) for e in data.get("tiles", []))
        comb_map = {
            int(k): tuple(int(t) for t in v)
            for k, v in dict(data.get("comb_map", {})).items()
        }

    return check_allocation(_Plan)
