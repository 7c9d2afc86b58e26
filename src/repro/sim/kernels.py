"""NumPy batch kernels for the analytic cost model — the vectorized core.

The scalar cost model (``energy.py`` / ``latency.py`` / ``area.py`` and
the Eq. 4 mapping math in ``arch/mapping.py``) walks Python objects layer
by layer; ``Simulator(reference=True)`` runs that walk over a
materialised tile plan.  The walk is the ~97% simulator-feedback wall
clock the paper measures in §4.5, so the default
:meth:`~repro.sim.simulator.Simulator.evaluate` path re-expresses the
whole model as array kernels:

* a **struct-of-arrays** :class:`NetworkArrays` record, extracted once per
  :class:`~repro.models.graph.Network` and memoised — per-layer channel
  counts, kernel footprints, MVM counts, weight cells, and the pooled
  element counts behind every pooling stage;
* a :class:`MappingBatch` carrying the per-layer crossbar geometry and the
  Eq. 4 / Fig. 7 group counts for one strategy (arrays of shape ``(L,)``)
  or a whole candidate batch (shape ``(S, L)``), computed with integer
  array ceils — no :class:`~repro.arch.mapping.LayerMapping` objects;
* energy / latency / area / utilization kernels over those arrays, plus a
  strategy-batched scorer (:func:`score_strategy_batch`) that rolls an
  ``(S, L)`` matrix of candidate shapes into ``S`` full
  :class:`~repro.sim.metrics.SystemMetrics` in one shot.

**Exactness contract.**  Kernel results are *bit-identical* to the scalar
reference, not merely close (``tests/sim/test_vectorized_parity.py`` and
the PR 4 golden/trace batteries enforce it).  The techniques:

* every float expression mirrors the scalar source's operator order
  (left-associative, same literals), so each elementwise op performs the
  identical IEEE-754 double operation;
* running totals use ``np.cumsum(...)[-1]`` — ``ufunc.accumulate`` is a
  strict sequential left fold, unlike ``np.sum``'s pairwise reduction, so
  it replays the scalar ``total += x`` loop addition for addition;
* the area roll-up repeats each layer's tile area ``count`` times
  (``np.repeat`` + ``cumsum``), matching
  ``area.allocation_area_um2``'s one-addition-per-occupied-tile fold;
* integer quantities stay in ``int64`` (exact far beyond any realistic
  magnitude) and convert to float at the same point the scalar code does;
  ``ceil(a / b)`` on integers becomes ``-(-a // b)``;
* ``ceil(log2(row_groups))`` becomes the exact integer equivalent
  ``(row_groups - 1).bit_length()`` via ``np.frexp``'s exponent.

See ``docs/performance.md`` ("Vectorized kernels") for the design note.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ..arch.config import CrossbarShape, HardwareConfig
from ..core.allocation.summary import AllocationSummary, summarize_counts
from ..models.graph import Network
from ..obs.trace import NULL_TRACER, Tracer
from .metrics import EnergyBreakdown, LayerCost, SystemMetrics
from .units_constants import NW_NS_TO_NJ

__all__ = [
    "NetworkArrays",
    "MappingBatch",
    "InfeasibleScore",
    "KERNEL_COVERAGE",
    "KERNEL_DERIVED_COLUMNS",
    "SHAPE_TABLE_FLOAT_ROWS",
    "SHAPE_TABLE_INT_ROWS",
    "network_arrays",
    "extract_mapping_batch",
    "extract_strategy_batch",
    "batch_energy_terms",
    "batch_layer_latency_ns",
    "batch_tile_area_um2",
    "batch_utilization",
    "pooling_totals",
    "left_fold",
    "area_from_layer_runs",
    "ShapeTable",
    "shape_table",
    "strategy_view",
    "metrics_from_view",
    "score_strategy_batch",
]


def left_fold(values: np.ndarray) -> np.ndarray:
    """Strict left-to-right sum along the last axis.

    ``np.add.accumulate`` applies the ufunc sequentially, so taking the
    last cumulative element replays a scalar ``total += x`` loop bit for
    bit — ``np.sum``'s pairwise reduction does not.  An empty last axis
    folds to ``0.0`` like an empty loop.
    """
    if values.shape[-1] == 0:
        return np.zeros(values.shape[:-1], dtype=np.float64)
    return np.cumsum(values, axis=-1)[..., -1]


def _ceil_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer ``ceil(a / b)`` for positive operands."""
    return -(-a // b)


# ----------------------------------------------------------------------
# Kernel parity coverage contract (PAR rules)
# ----------------------------------------------------------------------
#
# The scalar cost path and these kernels must agree bit-for-bit, which
# first requires them to agree on *inputs*: every attribute the scalar
# path reads on the objects this module restructures into arrays must be
# folded into some kernel column.  These tables declare that mapping —
# the exact analogue of ``repro.sim.cache.FINGERPRINTED_FIELDS`` for the
# vectorized fork — and ``repro.analysis.kernel_parity`` cross-checks
# them against the dataflow read-set of ``Simulator.evaluate`` (PAR001)
# and against the columns this module actually defines (PAR002).  See
# docs/static_analysis.md ("The kernel coverage-table contract").

#: Scalar read -> kernel column.  Outer key: a class the kernels
#: restructure into arrays; inner key: a field of it the scalar cost
#: path reads; value: the kernel columns that carry it.  Two sentinel
#: targets exist besides ``"Class.column"``: ``"builder"`` (the value is
#: passed through by the batch scorer itself, e.g. ``Network.name`` into
#: ``SystemMetrics``) and ``"shared"`` (both paths call the same shared
#: code on the same object, e.g. ``CrossbarShape.__str__``).
KERNEL_COVERAGE: dict[str, dict[str, tuple[str, ...]]] = {
    "LayerSpec": {
        "index": ("NetworkArrays.layer_indices",),
        "layer_type": ("NetworkArrays.mvm_ops",),
        "input_size": ("NetworkArrays.mvm_ops",),
        "stride": ("NetworkArrays.mvm_ops",),
        "padding": ("NetworkArrays.mvm_ops",),
        "kernel_size": ("NetworkArrays.kernel_elems",),
        "in_channels": ("NetworkArrays.in_channels",),
        "out_channels": ("NetworkArrays.out_channels",),
    },
    "PoolSpec": {
        "window": ("NetworkArrays.pooled_elems",),
        "stride": ("NetworkArrays.pooled_elems",),
    },
    "Network": {
        "stages": ("NetworkArrays.num_layers",),
        "name": ("builder",),
    },
    "Stage": {
        "layer": ("NetworkArrays.num_layers",),
        "pool": ("NetworkArrays.pooled_elems",),
    },
    "CrossbarShape": {
        "rows": ("MappingBatch.rows",),
        "cols": ("MappingBatch.cols",),
        "_str": ("shared",),
    },
    "LayerMapping": {
        "layer": ("MappingBatch.net",),
        "shape": ("MappingBatch.rows", "MappingBatch.cols"),
        "row_groups": ("MappingBatch.row_groups",),
        "col_groups": ("MappingBatch.col_groups",),
    },
}

#: Kernel columns that are *derived* from covered columns rather than
#: read directly from scalar objects (products, group counts, ShapeTable
#: rows — each the output of a scalar cost function).  Every column of
#: :class:`NetworkArrays` / :class:`MappingBatch` and every
#: :class:`ShapeTable` row must appear either as a KERNEL_COVERAGE
#: target or here; anything else is a dead column (PAR002).  Derived
#: ``MappingBatch`` columns must mirror a same-named
#: :class:`~repro.arch.mapping.LayerMapping` member (PAR003).
KERNEL_DERIVED_COLUMNS: dict[str, tuple[str, ...]] = {
    "NetworkArrays": ("weight_counts", "in_bytes", "weight_cells_total"),
    "MappingBatch": (
        "kernel_split",
        "num_crossbars",
        "used_columns_total",
        "allocated_columns_total",
        "used_rows_total",
        "allocated_rows_total",
        "partial_sum_adds",
        "adder_tree_depth",
        "used_columns_per_crossbar_max",
    ),
    "ShapeTable": (
        "adc",
        "dac",
        "crossbar",
        "shift_add",
        "adder_tree",
        "buffer",
        "bus",
        "layer_latency_ns",
        "tile_area_um2",
        "utilization",
        "num_crossbars",
        "adc_conversions",
        "dac_conversions",
    ),
}


# ----------------------------------------------------------------------
# Struct-of-arrays extraction
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NetworkArrays:
    """Per-layer constants of one network as ``(L,)`` int64 arrays.

    Everything here is a pure function of the fingerprinted
    :class:`~repro.models.layers.LayerSpec` fields (see
    ``repro.sim.cache.FINGERPRINTED_FIELDS``), so one record serves every
    strategy evaluated against the network.  Arrays are frozen
    (``writeable=False``) — the record is shared across evaluations.
    """

    num_layers: int
    layer_indices: np.ndarray   #: ``layer.index`` per layer
    mvm_ops: np.ndarray         #: MVMs per inference pass
    in_channels: np.ndarray
    out_channels: np.ndarray
    kernel_elems: np.ndarray    #: ``k^2`` (1 for FC)
    weight_counts: np.ndarray   #: weight cells per layer
    in_bytes: np.ndarray        #: ``in_channels * kernel_elems``
    weight_cells_total: int     #: sum of ``weight_counts``
    pooled_elems: np.ndarray    #: pooled output elements per pooling stage,
    #: in layer order (empty when the network has no pooling)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def network_arrays(network: Network) -> NetworkArrays:
    """Extract the per-layer constant arrays of one network."""
    layers = network.layers

    def as_i64(values: list[int]) -> np.ndarray:
        return _frozen(np.array(values, dtype=np.int64))

    in_channels = as_i64([layer.in_channels for layer in layers])
    kernel_elems = as_i64([layer.kernel_elems for layer in layers])
    weight_counts = as_i64([layer.weight_count for layer in layers])
    pooled = []
    for i, layer in enumerate(layers):
        pool = network.pool_after_or_none(i)
        if pool is not None:
            pooled.append(
                pool.output_size(layer.output_size) ** 2 * layer.out_channels
            )
    return NetworkArrays(
        num_layers=len(layers),
        layer_indices=as_i64([layer.index for layer in layers]),
        mvm_ops=as_i64([layer.mvm_ops for layer in layers]),
        in_channels=in_channels,
        out_channels=as_i64([layer.out_channels for layer in layers]),
        kernel_elems=kernel_elems,
        weight_counts=weight_counts,
        in_bytes=_frozen(in_channels * kernel_elems),
        weight_cells_total=int(weight_counts.sum()),
        pooled_elems=as_i64(pooled),
    )


def cached_network_arrays(network: Network) -> NetworkArrays:
    """Per-network memo of :func:`network_arrays`.

    Stored on the (frozen, immutable) ``Network`` instance itself rather
    than in an ``lru_cache``: the dataclass hash of a network recursively
    hashes every layer spec (~10µs for VGG16), which would dominate the
    per-evaluate budget.  ``object.__setattr__`` bypasses the frozen
    guard; the record is a pure function of the instance, so the stash
    can never go stale.
    """
    record = network.__dict__.get("_kernel_arrays")
    if record is None:
        record = network_arrays(network)
        object.__setattr__(network, "_kernel_arrays", record)
    return record


@dataclass(frozen=True, eq=False)
class _NetworkConstants:
    """Geometry-independent cost terms of one (network, config) pair.

    Every field is a deterministic function of :class:`NetworkArrays` and
    the config, computed with exactly the scalar reference's operations —
    caching them changes nothing bit-wise, it only stops the per-evaluate
    recomputation of terms no strategy can affect.
    """

    phase_factor: np.ndarray    #: ``mvm_ops * input_cycles * xbars_per_group``
    crossbar_nj: np.ndarray     #: full crossbar-read energy term
    buffer_nj: np.ndarray       #: full buffer energy term
    movement_buffer_ns: np.ndarray  #: buffer half of the movement latency
    pool_energy_nj: float
    pool_latency_ns: float


def network_constants(
    net: NetworkArrays, config: HardwareConfig
) -> _NetworkConstants:
    """Memoised per-``(net, config)`` constants (dict on the net record)."""
    cache: dict[HardwareConfig, _NetworkConstants]
    cache = net.__dict__.get("_constants")  # type: ignore[assignment]
    if cache is None:
        cache = {}
        object.__setattr__(net, "_constants", cache)
    record = cache.get(config)
    if record is None:
        phase_factor = (
            net.mvm_ops * config.input_cycles * config.xbars_per_group
        )
        out_bytes = net.out_channels
        pooled = net.pooled_elems
        record = _NetworkConstants(
            phase_factor=_frozen(phase_factor),
            crossbar_nj=_frozen(
                phase_factor * net.weight_counts * config.energy_cell_read_nj
            ),
            buffer_nj=_frozen(
                net.mvm_ops
                * (net.in_bytes + out_bytes)
                * config.energy_buffer_nj_per_byte
            ),
            movement_buffer_ns=_frozen(
                (net.in_bytes + out_bytes) * config.latency_buffer_ns_per_byte
            ),
            pool_energy_nj=float(left_fold(pooled * config.energy_pool_nj)),
            pool_latency_ns=float(left_fold(pooled * config.latency_pool_ns)),
        )
        if len(cache) >= 64:  # bound sweep workloads with many configs
            cache.clear()
        cache[config] = record
    return record


@dataclass(frozen=True, eq=False)
class MappingBatch:
    """Eq. 4 / Fig. 7 mapping outcomes for one or more strategies.

    Geometry arrays broadcast against :attr:`net`'s ``(L,)`` constants:
    shape ``(L,)`` for a single strategy, ``(S, L)`` for a candidate
    batch.  Derived activity counts mirror the
    :class:`~repro.arch.mapping.LayerMapping` properties exactly.
    """

    net: NetworkArrays
    rows: np.ndarray          #: crossbar rows per layer
    cols: np.ndarray          #: crossbar cols per layer
    row_groups: np.ndarray    #: Fig. 7 vertical tiling
    col_groups: np.ndarray
    kernel_split: np.ndarray  #: bool; the k^2 > rows fallback engaged

    @cached_property
    def num_crossbars(self) -> np.ndarray:
        return self.row_groups * self.col_groups

    @cached_property
    def used_columns_total(self) -> np.ndarray:
        return self.row_groups * self.net.out_channels

    @cached_property
    def allocated_columns_total(self) -> np.ndarray:
        return self.num_crossbars * self.cols

    @cached_property
    def used_rows_total(self) -> np.ndarray:
        return self.col_groups * self.net.in_channels * self.net.kernel_elems

    @cached_property
    def allocated_rows_total(self) -> np.ndarray:
        return self.num_crossbars * self.rows

    @cached_property
    def partial_sum_adds(self) -> np.ndarray:
        return (self.row_groups - 1) * self.net.out_channels

    @cached_property
    def adder_tree_depth(self) -> np.ndarray:
        """``ceil(log2(row_groups))`` as exact integer math.

        ``(row_groups - 1).bit_length()`` equals ``ceil(log2(rg))`` for
        ``rg > 1``; ``np.frexp``'s exponent of ``float64(rg - 1)`` *is*
        that bit length (exact below 2^53).
        """
        return np.frexp((self.row_groups - 1).astype(np.float64))[1]

    @cached_property
    def used_columns_per_crossbar_max(self) -> np.ndarray:
        return np.minimum(self.net.out_channels, self.cols)


def _group_counts(
    net: NetworkArrays, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized ``arch.mapping._map_shapes`` (Eq. 4 + kernel-split)."""
    slices_per_xbar = rows // net.kernel_elems
    kernel_split = slices_per_xbar < 1
    plain = _ceil_div(net.in_channels, np.where(kernel_split, 1, slices_per_xbar))
    dense = _ceil_div(net.in_channels * net.kernel_elems, rows)
    row_groups = np.where(kernel_split, dense, plain)
    col_groups = _ceil_div(net.out_channels, cols)
    return row_groups, col_groups, kernel_split


def extract_mapping_batch(
    network: Network, strategy: Sequence[CrossbarShape]
) -> MappingBatch:
    """SoA mapping of one strategy — ``(L,)`` arrays, no LayerMapping."""
    net = cached_network_arrays(network)
    if len(strategy) != net.num_layers:
        raise ValueError(
            f"strategy length {len(strategy)} != layer count {net.num_layers}"
        )
    rows = np.fromiter(
        (s.rows for s in strategy), dtype=np.int64, count=net.num_layers
    )
    cols = np.fromiter(
        (s.cols for s in strategy), dtype=np.int64, count=net.num_layers
    )
    row_groups, col_groups, kernel_split = _group_counts(net, rows, cols)
    return MappingBatch(
        net=net,
        rows=rows,
        cols=cols,
        row_groups=row_groups,
        col_groups=col_groups,
        kernel_split=kernel_split,
    )


def extract_strategy_batch(
    network: Network, strategies: Sequence[Sequence[CrossbarShape]]
) -> MappingBatch:
    """SoA mapping of a candidate batch — ``(S, L)`` arrays."""
    net = cached_network_arrays(network)
    for strategy in strategies:
        if len(strategy) != net.num_layers:
            raise ValueError(
                f"strategy length {len(strategy)} != layer count "
                f"{net.num_layers}"
            )
    rows = np.array(
        [[s.rows for s in strategy] for strategy in strategies], dtype=np.int64
    ).reshape(len(strategies), net.num_layers)
    cols = np.array(
        [[s.cols for s in strategy] for strategy in strategies], dtype=np.int64
    ).reshape(len(strategies), net.num_layers)
    row_groups, col_groups, kernel_split = _group_counts(net, rows, cols)
    return MappingBatch(
        net=net,
        rows=rows,
        cols=cols,
        row_groups=row_groups,
        col_groups=col_groups,
        kernel_split=kernel_split,
    )


# ----------------------------------------------------------------------
# Cost kernels — each float expression mirrors its scalar source's
# operator order exactly (see the module docstring's exactness contract).
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EnergyTerms:
    """Per-layer dynamic-energy components (``energy.py`` terms), in nJ."""

    adc: np.ndarray
    dac: np.ndarray
    crossbar: np.ndarray
    shift_add: np.ndarray
    adder_tree: np.ndarray
    buffer: np.ndarray
    bus: np.ndarray


def batch_energy_terms(
    batch: MappingBatch, config: HardwareConfig
) -> EnergyTerms:
    """Vectorized ``energy.layer_dynamic_energy`` over every layer."""
    net = batch.net
    const = network_constants(net, config)
    phase_factor = const.phase_factor

    used_cols = batch.used_columns_total
    adc_cols = used_cols + config.idle_line_energy_fraction * (
        batch.allocated_columns_total - used_cols
    )
    used_rows = batch.used_rows_total
    dac_rows = used_rows + config.idle_line_energy_fraction * (
        batch.allocated_rows_total - used_rows
    )
    out_bytes = net.out_channels
    # ``a * b * c`` associates as ``(a * b) * c`` — hoisting the shared
    # ``phase_factor * adc_cols`` product performs the identical ops.
    phase_adc_cols = phase_factor * adc_cols

    # Crossbar and buffer terms depend only on the network's (L,)
    # constants; broadcast them up so an (S, L) batch yields (S, L)
    # terms throughout (identical rows — still bit-exact).
    shape = batch.rows.shape

    def full(term: np.ndarray) -> np.ndarray:
        return term if term.shape == shape else np.broadcast_to(term, shape)

    return EnergyTerms(
        adc=full(phase_adc_cols * config.energy_adc_nj()),
        dac=full(phase_factor * dac_rows * config.energy_dac_nj),
        crossbar=full(const.crossbar_nj),
        shift_add=full(phase_adc_cols * config.energy_shift_add_nj),
        adder_tree=full(
            net.mvm_ops * batch.partial_sum_adds * config.energy_adder_nj
        ),
        buffer=full(const.buffer_nj),
        bus=full(
            net.mvm_ops
            * (net.in_bytes * batch.col_groups + out_bytes)
            * config.energy_bus_nj_per_byte
        ),
    )


def batch_adc_conversions(
    batch: MappingBatch, config: HardwareConfig
) -> np.ndarray:
    """Vectorized ``energy.layer_adc_conversions`` (int64)."""
    return (
        batch.net.mvm_ops
        * batch.used_columns_total
        * config.input_cycles
        * config.xbars_per_group
    )


def batch_dac_conversions(
    batch: MappingBatch, config: HardwareConfig
) -> np.ndarray:
    """Vectorized ``energy.layer_dac_conversions`` (int64)."""
    return (
        batch.net.mvm_ops
        * batch.used_rows_total
        * config.input_cycles
        * config.xbars_per_group
    )


def batch_layer_latency_ns(
    batch: MappingBatch, config: HardwareConfig
) -> np.ndarray:
    """Vectorized ``latency.layer_latency_ns`` over every layer."""
    net = batch.net
    const = network_constants(net, config)
    chain = np.minimum(
        config.adc_sharing, batch.used_columns_per_crossbar_max
    )
    analog_phase = (
        config.latency_dac_ns
        + config.latency_xbar_ns
        + chain * config.latency_adc_ns
        + config.latency_shift_add_ns
    )
    tree = batch.adder_tree_depth * config.latency_adder_ns
    out_bytes = net.out_channels
    movement = const.movement_buffer_ns + (
        net.in_bytes * batch.col_groups + out_bytes
    ) * config.latency_bus_ns_per_byte
    mvm_latency = (
        config.input_cycles * analog_phase
        + tree
        + movement
        + config.latency_control_ns
    )
    return net.mvm_ops * mvm_latency


def batch_tile_area_um2(
    rows: np.ndarray, cols: np.ndarray, config: HardwareConfig
) -> np.ndarray:
    """Vectorized ``area.tile_area_um2`` for per-layer crossbar geometry."""
    adcs = np.ceil(cols / config.adc_sharing)
    per_physical = (
        rows * cols * config.area_cell_um2
        + adcs * config.area_adc_um2()
        + rows * config.area_dac_um2
        + adcs * config.area_shift_add_um2
    )
    slot = per_physical * config.xbars_per_group
    return (
        config.logical_xbars_per_tile * slot
        + config.pes_per_tile * config.area_pe_overhead_um2
        + config.area_tile_overhead_um2
    )


def batch_utilization(batch: MappingBatch) -> np.ndarray:
    """Eq. 4 intra-array utilization per layer (``LayerMapping.utilization``)."""
    total_cells = batch.num_crossbars * (batch.rows * batch.cols)
    return batch.net.weight_counts / total_cells


def area_from_layer_runs(
    tile_areas: np.ndarray, counts: Sequence[int] | np.ndarray
) -> float:
    """``area.allocation_area_um2`` from per-layer tile counts.

    Occupied tiles are ordered by tile id, i.e. grouped into per-layer
    runs, so ``np.repeat`` expands each layer's tile area ``count`` times
    (zero counts drop out) and the cumsum left-folds the expansion one
    addition per tile, exactly like the reference's ``sum`` over tiles.
    """
    expanded = np.repeat(tile_areas, counts)
    if expanded.size == 0:
        return 0.0
    return float(np.cumsum(expanded)[-1])


def pooling_totals(
    net: NetworkArrays, config: HardwareConfig
) -> tuple[float, float]:
    """``(pooling energy nJ, pooling latency ns)`` for the whole network.

    Folds the memoised per-stage pooled-element counts in layer order,
    replaying ``energy.pooling_energy`` / ``latency.pooling_latency_ns``.
    Memoised per ``(net, config)`` via :func:`network_constants`.
    """
    const = network_constants(net, config)
    return const.pool_energy_nj, const.pool_latency_ns


# ----------------------------------------------------------------------
# Shape tables — per-(network, config) memoised kernel outputs
# ----------------------------------------------------------------------
#
# Every per-layer cost term above is *elementwise* in (layer, shape): no
# term couples two layers or two shapes.  So the full cost surface of a
# network under a candidate set is a (term, shape, layer) table, computed
# once per (network, config) by running the (S, L) batch kernels over
# uniform-shape rows — and evaluating a strategy collapses to one
# fancy-index gather of that table plus the fold kernels.  Gathering
# copies the exact float64 values the kernels produced, so the table path
# is bit-identical to computing each strategy from scratch.

#: Row names of :attr:`ShapeTable.floats`, in row order.  The parity
#: analyzer (PAR003) checks these registries against the ``_F_*`` /
#: ``_I_*`` index unpacks below, so adding a row in one place but not
#: the other fails ``repro check --kernel-parity``.
SHAPE_TABLE_FLOAT_ROWS: tuple[str, ...] = (
    "adc",
    "dac",
    "crossbar",
    "shift_add",
    "adder_tree",
    "buffer",
    "bus",
    "layer_latency_ns",
    "tile_area_um2",
    "utilization",
)
#: Row names of :attr:`ShapeTable.ints`, in row order.
SHAPE_TABLE_INT_ROWS: tuple[str, ...] = (
    "num_crossbars",
    "adc_conversions",
    "dac_conversions",
)

#: Row order of :attr:`ShapeTable.floats`.
(_F_ADC, _F_DAC, _F_XBAR, _F_SHIFT, _F_TREE, _F_BUF, _F_BUS,
 _F_LATENCY, _F_AREA, _F_UTIL) = range(10)
#: Row order of :attr:`ShapeTable.ints`.
(_I_XBARS, _I_ADC_CONV, _I_DAC_CONV) = range(3)


@dataclass(frozen=True, eq=False)
class ShapeTable:
    """Per-layer kernel outputs for every known crossbar shape.

    ``floats`` is ``(10, C, L)`` — the seven dynamic-energy components,
    layer latency, tile area, and Eq. 4 intra-array utilization;
    ``ints`` is ``(3, C, L)`` — crossbar counts and ADC/DAC conversion
    counts.  ``C`` indexes :attr:`shapes`; ``L`` is the layer axis.
    """

    shapes: tuple[CrossbarShape, ...]
    index: dict[CrossbarShape, int]
    floats: np.ndarray
    ints: np.ndarray


def _build_table(
    net: NetworkArrays, config: HardwareConfig, shapes: tuple[CrossbarShape, ...]
) -> ShapeTable:
    """Run the (C, L) batch kernels — shape ``c`` uniform across layers."""
    num = len(shapes)
    layers = net.num_layers
    rows = np.broadcast_to(
        np.fromiter((s.rows for s in shapes), np.int64, num)[:, None],
        (num, layers),
    )
    cols = np.broadcast_to(
        np.fromiter((s.cols for s in shapes), np.int64, num)[:, None],
        (num, layers),
    )
    row_groups, col_groups, kernel_split = _group_counts(net, rows, cols)
    batch = MappingBatch(
        net=net,
        rows=rows,
        cols=cols,
        row_groups=row_groups,
        col_groups=col_groups,
        kernel_split=kernel_split,
    )
    terms = batch_energy_terms(batch, config)
    floats = np.stack(
        (
            terms.adc,
            terms.dac,
            terms.crossbar,
            terms.shift_add,
            terms.adder_tree,
            terms.buffer,
            terms.bus,
            batch_layer_latency_ns(batch, config),
            batch_tile_area_um2(batch.rows, batch.cols, config),
            batch_utilization(batch),
        )
    )
    ints = np.stack(
        (
            batch.num_crossbars,
            batch_adc_conversions(batch, config),
            batch_dac_conversions(batch, config),
        )
    )
    return ShapeTable(
        shapes=shapes,
        index={shape: i for i, shape in enumerate(shapes)},
        floats=_frozen(floats),
        ints=_frozen(ints),
    )


def shape_table(
    net: NetworkArrays,
    config: HardwareConfig,
    shapes_needed: Sequence[CrossbarShape],
) -> ShapeTable:
    """The (extended-on-demand) shape table of one ``(net, config)`` pair.

    Tables are stashed on the net record keyed by config.  A strategy
    mentioning an unknown shape triggers a rebuild with the union of
    shapes — immutable snapshots swapped by a single dict assignment, so
    a concurrent rebuild is a benign lost update (both snapshots carry
    correct values; the loser's extra shapes are recomputed on next use).
    """
    tables: dict[HardwareConfig, ShapeTable]
    tables = net.__dict__.get("_shape_tables")  # type: ignore[assignment]
    if tables is None:
        tables = {}
        object.__setattr__(net, "_shape_tables", tables)
    table = tables.get(config)
    known = table.index if table is not None else {}
    missing = dict.fromkeys(s for s in shapes_needed if s not in known)
    if table is None or missing:
        shapes = (table.shapes if table is not None else ()) + tuple(missing)
        table = _build_table(net, config, shapes)
        if len(tables) >= 64:  # bound config-sweep workloads
            tables.clear()
        tables[config] = table
    return table


def _layer_range(net: NetworkArrays) -> np.ndarray:
    """Cached ``arange(L)`` used as the layer axis of table gathers."""
    rng = net.__dict__.get("_layer_range")
    if rng is None:
        rng = _frozen(np.arange(net.num_layers))
        object.__setattr__(net, "_layer_range", rng)
    return rng


def strategy_view(
    network: Network, strategy: Sequence[CrossbarShape], config: HardwareConfig
) -> tuple[NetworkArrays, np.ndarray, np.ndarray]:
    """Gather one strategy's per-layer kernel rows from the shape table.

    Returns ``(net, floats, ints)`` with ``floats`` of shape ``(10, L)``
    and ``ints`` of shape ``(3, L)`` (row order: the ``_F_*`` / ``_I_*``
    constants).
    """
    net = cached_network_arrays(network)
    if len(strategy) != net.num_layers:
        raise ValueError(
            f"strategy length {len(strategy)} != layer count {net.num_layers}"
        )
    tables = net.__dict__.get("_shape_tables")
    table = tables.get(config) if tables is not None else None
    if table is None:
        table = shape_table(net, config, strategy)
    try:
        idx = np.fromiter(
            (table.index[s] for s in strategy), np.int64, net.num_layers
        )
    except KeyError:
        # Unknown shape — extend the table once, then gather.
        table = shape_table(net, config, strategy)
        idx = np.fromiter(
            (table.index[s] for s in strategy), np.int64, net.num_layers
        )
    layer_axis = _layer_range(net)
    return net, table.floats[:, idx, layer_axis], table.ints[:, idx, layer_axis]


# ----------------------------------------------------------------------
# Metric assembly
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class InfeasibleScore:
    """A batch-scored strategy that overflows the bank.

    Carries the exact :class:`~repro.sim.simulator.CapacityError` message
    the scalar path would raise, so cached infeasible sentinels compare
    equal across paths.
    """

    message: str


def _leakage_energy_nj(
    occupied_tiles: np.ndarray | int,
    occupied_slots: np.ndarray | int,
    allocated_cells: np.ndarray | int,
    latency_ns: np.ndarray | float,
    config: HardwareConfig,
) -> np.ndarray | float:
    """``energy.leakage_energy``, elementwise over batch aggregates."""
    group = config.xbars_per_group
    power_nw = (
        occupied_slots * group * config.leak_xbar_nw
        + occupied_tiles * config.leak_tile_nw
        + allocated_cells * group * config.leak_cell_nw
    )
    return power_nw * latency_ns * NW_NS_TO_NJ


def _layer_costs(
    strategy: Sequence[CrossbarShape],
    net: NetworkArrays,
    floats: np.ndarray,
    ints: np.ndarray,
) -> tuple[LayerCost, ...]:
    """Per-layer ``LayerCost`` records from gathered ``(10/3, L)`` rows."""
    f = floats.tolist()
    n = ints.tolist()
    layer_indices = net.layer_indices.tolist()
    mvm_ops = net.mvm_ops.tolist()
    return tuple(
        LayerCost(
            layer_index=layer_indices[i],
            shape_str=str(strategy[i]),
            mvm_ops=mvm_ops[i],
            num_crossbars=n[_I_XBARS][i],
            adc_conversions=n[_I_ADC_CONV][i],
            dac_conversions=n[_I_DAC_CONV][i],
            energy=EnergyBreakdown(
                adc=f[_F_ADC][i],
                dac=f[_F_DAC][i],
                crossbar=f[_F_XBAR][i],
                shift_add=f[_F_SHIFT][i],
                adder_tree=f[_F_TREE][i],
                buffer=f[_F_BUF][i],
                bus=f[_F_BUS][i],
            ),
            latency_ns=f[_F_LATENCY][i],
            intra_utilization=f[_F_UTIL][i],
        )
        for i in range(net.num_layers)
    )


def _assemble_metrics(
    network: Network,
    strategy: Sequence[CrossbarShape],
    net: NetworkArrays,
    summary: AllocationSummary,
    totals: Sequence[float],
    floats: np.ndarray,
    ints: np.ndarray,
    config: HardwareConfig,
    *,
    tile_shared: bool,
    detailed: bool,
) -> SystemMetrics:
    """One strategy's :class:`SystemMetrics` from folded kernel rows.

    ``totals`` holds the eight folds (seven energy components + dynamic
    latency); ``floats``/``ints`` are the strategy's gathered per-layer
    rows.  Each rollup is bit-identical to the scalar loop.
    """
    (adc_t, dac_t, xbar_t, shift_t, tree_t, buf_t, bus_t,
     dynamic_latency) = totals
    pool_e, pool_t = pooling_totals(net, config)
    latency = dynamic_latency + pool_t
    leak = float(
        _leakage_energy_nj(
            summary.occupied_tiles,
            summary.total_crossbar_slots,
            summary.allocated_cells,
            latency,
            config,
        )
    )
    breakdown = EnergyBreakdown(
        adc=adc_t,
        dac=dac_t,
        crossbar=xbar_t,
        shift_add=shift_t,
        adder_tree=tree_t,
        buffer=buf_t,
        bus=bus_t,
        pooling=pool_e,
        leakage=leak,
    )
    layer_costs: tuple[LayerCost, ...] = ()
    if detailed:
        layer_costs = _layer_costs(strategy, net, floats, ints)
    return SystemMetrics(
        network_name=network.name,
        strategy=tuple(str(s) for s in strategy),
        utilization=summary.utilization,
        energy_nj=breakdown.total,
        latency_ns=latency,
        area_um2=area_from_layer_runs(
            floats[_F_AREA], summary.tiles_per_layer
        ),
        occupied_tiles=summary.occupied_tiles,
        occupied_crossbars=int(ints[_I_XBARS].sum()),
        empty_crossbars=summary.empty_crossbars,
        tile_shared=tile_shared,
        energy_breakdown=breakdown,
        layer_costs=layer_costs,
    )


def metrics_from_view(
    network: Network,
    strategy: Sequence[CrossbarShape],
    net: NetworkArrays,
    floats: np.ndarray,
    ints: np.ndarray,
    summary: AllocationSummary,
    config: HardwareConfig,
    *,
    tile_shared: bool,
    detailed: bool,
) -> SystemMetrics:
    """Assemble one strategy's :class:`SystemMetrics` from a gathered view.

    The vectorized equivalent of ``Simulator._evaluate_impl``'s cost
    rollup.  One stacked cumsum folds the seven component rows plus the
    latency row at once; each row folds independently, so the per-row
    result is the same strict left fold as eight separate scalar loops.
    """
    totals = left_fold(floats[:_F_AREA]).tolist()
    return _assemble_metrics(
        network,
        strategy,
        net,
        summary,
        totals,
        floats,
        ints,
        config,
        tile_shared=tile_shared,
        detailed=detailed,
    )


def score_strategy_batch(
    network: Network,
    strategies: Sequence[Sequence[CrossbarShape]],
    config: HardwareConfig,
    *,
    tile_shared: bool,
    enforce_capacity: bool,
    detailed: bool = False,
    tracer: Tracer = NULL_TRACER,
) -> list[SystemMetrics | InfeasibleScore]:
    """Score a whole candidate batch with ``(S, L)`` array gathers.

    One ``(10, S, L)`` table gather plus one stacked cumsum computes every
    layer cost and fold of every strategy; the allocation summary
    (Algorithm 1's memoised group outcomes) and the final
    :class:`SystemMetrics` assembly stay per-strategy.  Returns one entry
    per strategy, in order: a :class:`SystemMetrics`, or an
    :class:`InfeasibleScore` carrying the exact message the reference
    path's ``CapacityError`` would (``Simulator._capacity_check``'s
    format — the cached sentinels must compare equal across paths).
    """
    strategies = [tuple(s) for s in strategies]
    net = cached_network_arrays(network)
    for strategy in strategies:
        if len(strategy) != net.num_layers:
            raise ValueError(
                f"strategy length {len(strategy)} != layer count "
                f"{net.num_layers}"
            )
    table = shape_table(
        net, config, [s for strategy in strategies for s in strategy]
    )
    index = table.index
    idx = np.array(
        [[index[s] for s in strategy] for strategy in strategies],
        dtype=np.int64,
    ).reshape(len(strategies), net.num_layers)
    layer_axis = _layer_range(net)
    floats = table.floats[:, idx, layer_axis]   # (10, S, L)
    ints = table.ints[:, idx, layer_axis]       # (3, S, L)
    # (8, S) folds — each (strategy, component) row folds independently.
    totals = left_fold(floats[:_F_AREA])
    totals_rows = totals.T.tolist()
    counts_rows = ints[_I_XBARS].tolist()

    results: list[SystemMetrics | InfeasibleScore] = []
    for s, strategy in enumerate(strategies):
        summary = summarize_counts(
            strategy,
            tuple(counts_rows[s]),
            net.weight_cells_total,
            config.logical_xbars_per_tile,
            tile_shared=tile_shared,
            tracer=tracer,
        )
        if enforce_capacity and summary.occupied_tiles > config.tiles_per_bank:
            results.append(
                InfeasibleScore(
                    f"strategy needs {summary.occupied_tiles} tiles; one "
                    f"bank holds {config.tiles_per_bank}"
                )
            )
            continue
        results.append(
            _assemble_metrics(
                network,
                strategy,
                net,
                summary,
                totals_rows[s],
                floats[:, s],
                ints[:, s],
                config,
                tile_shared=tile_shared,
                detailed=detailed,
            )
        )
    return results
