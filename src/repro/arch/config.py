"""Hardware configuration for the heterogeneous ReRAM accelerator.

Two pieces live here:

* :class:`CrossbarShape` — the geometry of one crossbar array (``r x c``
  wordlines by bitlines).  The paper's candidates are square power-of-two
  crossbars (SXB) and rectangle crossbars whose height is a multiple of 9
  (RXB, §3.3).
* :class:`HardwareConfig` — every architectural parameter and per-component
  energy / area / latency constant of the behavioral simulator.

The constants are MNSIM-2.0 / ISAAC-inspired.  Absolute values are *not*
expected to match the authors' MNSIM checkout (which we cannot run here);
what matters for reproduction is the relational structure the paper's
conclusions rest on:

* ADC energy dominates dynamic energy and scales exponentially with
  resolution — so configurations that activate fewer ADC conversions win
  energy (paper Fig. 5).
* ADC area dominates peripheral area — so small crossbars, which need many
  more peripheral sets per stored cell, cost far more area (paper Table 5).
* Leakage scales with allocated hardware — so the tile-shared scheme's
  released tiles also save a little energy (paper Fig. 10, All vs +Hy).

Default architectural parameters follow §4.1: 8-bit weights, 1-bit cells
(hence a group of eight crossbars per PE representing one weight), 1-bit
DACs (hence eight bit-serial input cycles), 10-bit ADCs, four PEs per tile,
256x256 tiles per bank.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Iterable

from ..analysis.invariants import (
    InvariantViolation,
    adc_resolution_diagnostics,
    config_value_diagnostics,
    cost_constant_diagnostics,
    shape_dim_diagnostics,
)


@dataclass(frozen=True, order=True)
class CrossbarShape:
    """Geometry of one crossbar: ``rows`` wordlines x ``cols`` bitlines."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        # Same rule implementation (SHP001) as the static checker, so
        # construction-time and `repro check` validation cannot drift.
        diags = shape_dim_diagnostics(self.rows, self.cols, f"shape {self.rows}x{self.cols}")
        if diags:
            raise InvariantViolation(diags, "CrossbarShape")
        # Shapes are hashed and stringified on simulator hot paths
        # (grouping, shape-table gathers, SystemMetrics assembly);
        # precompute both.  ``hash((rows, cols))`` is exactly the value
        # the generated dataclass __hash__ would produce, and integer
        # tuple hashes are stable across processes, so the stash is safe
        # to pickle to pool workers.
        object.__setattr__(self, "_hash", hash((self.rows, self.cols)))
        object.__setattr__(self, "_str", f"{self.rows}x{self.cols}")

    @property
    def cells(self) -> int:
        """Memristor cell count of the array."""
        return self.rows * self.cols

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_rectangle(self) -> bool:
        """True for the paper's RXB shapes (height a multiple of 9, != width)."""
        return not self.is_square

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __str__(self) -> str:  # e.g. "64x64", "36x32"
        return self._str  # type: ignore[attr-defined]

    @staticmethod
    def parse(text: str) -> "CrossbarShape":
        """Parse ``"RxC"`` (also accepts the unicode multiplication sign)."""
        cleaned = text.lower().replace("×", "x").strip()
        try:
            r_str, c_str = cleaned.split("x")
            return CrossbarShape(int(r_str), int(c_str))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"cannot parse crossbar shape from {text!r}") from exc


# The five homogeneous baseline sizes (§4.1) ...
SQUARE_CANDIDATES: tuple[CrossbarShape, ...] = tuple(
    CrossbarShape(n, n) for n in (32, 64, 128, 256, 512)
)
# ... the five rectangle shapes of §4.3 (heights are multiples of 9) ...
RECTANGLE_CANDIDATES: tuple[CrossbarShape, ...] = tuple(
    CrossbarShape(r, c)
    for r, c in ((36, 32), (72, 64), (144, 128), (288, 256), (576, 512))
)
# ... and the default hybrid candidate set AutoHet searches over (§3.3):
# 32x32, 36x32, 72x64, 288x256, 576x512.
DEFAULT_CANDIDATES: tuple[CrossbarShape, ...] = (
    CrossbarShape(32, 32),
    CrossbarShape(36, 32),
    CrossbarShape(72, 64),
    CrossbarShape(288, 256),
    CrossbarShape(576, 512),
)


@dataclass(frozen=True)
class HardwareConfig:
    """All architectural and cost-model parameters of the simulator."""

    # ------------------------------------------------------------------
    # Precision / bit organisation (§4.1)
    # ------------------------------------------------------------------
    weight_bits: int = 8   #: quantized weight precision
    input_bits: int = 8    #: quantized activation precision
    cell_bits: int = 1     #: bits stored per memristor cell
    dac_bits: int = 1      #: DAC resolution (1 bit -> bit-serial inputs)
    adc_bits: int = 10     #: ADC resolution ("to support all heterogeneous sizes")

    # ------------------------------------------------------------------
    # Hierarchy (§4.1): bank -> tile -> PE -> crossbar-group
    # ------------------------------------------------------------------
    pes_per_tile: int = 4        #: PEs in one tile; one logical crossbar per PE
    tiles_per_bank: int = 256 * 256
    #: column-sharing factor of each ADC (1 = one ADC per bitline; >1 means
    #: a mux time-multiplexes that many bitlines onto one ADC).  The default
    #: of 1 reproduces the paper's setup: Fig. 5 counts one activated ADC
    #: per used bitline, and Table 5's area trend (small crossbars ~10x the
    #: area of large ones) requires per-bitline converters.
    adc_sharing: int = 1
    #: energy charged for an *idle* (weight-free) bitline/wordline of an
    #: occupied crossbar, as a fraction of an active line's conversion
    #: energy.  0.0 (default) charges only weight-holding lines — matching
    #: Fig. 5's activated-ADC counts; 1.0 charges every line of an
    #: occupied crossbar.  Kept as a knob for the accounting-convention
    #: ablation; the energy cost of wasted cells is instead captured by
    #: :attr:`leak_cell_nw`, which keeps homogeneous energy monotone in
    #: crossbar size (Fig. 9c) while still penalising low utilization
    #: (Fig. 3's Manual-Hetero ranking).
    idle_line_energy_fraction: float = 0.0
    #: fixed per-MVM control overhead of the Global Controller pipeline
    #: (instruction decode, buffer orchestration), in nanoseconds.
    latency_control_ns: float = 800.0

    # ------------------------------------------------------------------
    # Energy constants (nanojoules per event)
    # ------------------------------------------------------------------
    #: ADC energy per conversion at reference resolution (8 bits).  The
    #: effective per-conversion energy scales ~2^bits (SAR/flash trend used
    #: by MNSIM): e_adc(b) = energy_adc_8bit * 2^(b-8).
    energy_adc_8bit_nj: float = 2.0e-3
    #: DAC energy per 1-bit conversion.
    energy_dac_nj: float = 1.5e-5
    #: crossbar energy per active cell per analog read cycle.
    energy_cell_read_nj: float = 2.0e-7
    #: shift-and-add energy per partial-sum merge operation.
    energy_shift_add_nj: float = 2.0e-5
    #: adder-tree energy per partial-sum addition (inter-crossbar merge).
    energy_adder_nj: float = 1.0e-5
    #: buffer access energy per byte moved.
    energy_buffer_nj_per_byte: float = 6.0e-6
    #: bus/global-controller transfer energy per byte.
    energy_bus_nj_per_byte: float = 4.0e-6
    #: pooling-module energy per pooled element.
    energy_pool_nj: float = 5.0e-6
    #: leakage power per allocated crossbar's peripheral set (nW -> nJ/ns).
    leak_xbar_nw: float = 30.0
    #: leakage power per allocated tile's shared logic (buffers, control).
    leak_tile_nw: float = 120.0
    #: leakage power per allocated physical ReRAM cell (HRS sneak current
    #: plus its slice of wordline/bitline drivers).  Because every cell of
    #: an *allocated* crossbar leaks — holding a weight or not — this term
    #: makes wasted cells cost energy in proportion to (1/utilization),
    #: which is what lets a higher-utilization heterogeneous configuration
    #: beat the lowest-dynamic-energy homogeneous one on total energy
    #: (Fig. 3 / Fig. 10).
    leak_cell_nw: float = 0.1

    # ------------------------------------------------------------------
    # Latency constants (nanoseconds per event)
    # ------------------------------------------------------------------
    latency_dac_ns: float = 1.0        #: one DAC settle (per input bit cycle)
    latency_xbar_ns: float = 10.0      #: one analog crossbar evaluation
    latency_adc_ns: float = 1.0        #: one ADC conversion
    latency_shift_add_ns: float = 1.0  #: one shift-add stage
    latency_adder_ns: float = 1.0      #: one adder-tree level
    latency_pool_ns: float = 1.0       #: pooling per output element
    latency_buffer_ns_per_byte: float = 0.004
    latency_bus_ns_per_byte: float = 0.002

    # ------------------------------------------------------------------
    # Area constants (square micrometres)
    # ------------------------------------------------------------------
    #: one 1T1R ReRAM cell (~4F^2-ish at a 40 nm-class node).
    area_cell_um2: float = 0.0064
    #: ADC area at reference resolution (8 bits); scales ~2^(b-8) like energy.
    area_adc_8bit_um2: float = 1200.0
    #: one 1-bit DAC driver on a wordline.
    area_dac_um2: float = 0.17
    #: shift-and-add unit per ADC output.
    area_shift_add_um2: float = 60.0
    #: fixed per-tile overhead (control, buffers, pooling module).
    area_tile_overhead_um2: float = 15000.0
    #: fixed per-PE overhead (local registers, routing).
    area_pe_overhead_um2: float = 1500.0

    def __post_init__(self) -> None:
        # Construction-time validation reuses the CFG001-CFG003 and
        # CFG005 rule implementations of repro.analysis.invariants
        # verbatim; the static checker (`repro check --config`) runs the
        # same functions over serialized dicts, so the two can never
        # disagree.
        diags = config_value_diagnostics(
            weight_bits=self.weight_bits,
            input_bits=self.input_bits,
            cell_bits=self.cell_bits,
            dac_bits=self.dac_bits,
            adc_bits=self.adc_bits,
            pes_per_tile=self.pes_per_tile,
            tiles_per_bank=self.tiles_per_bank,
            adc_sharing=self.adc_sharing,
        )
        diags.extend(
            cost_constant_diagnostics(
                {name: getattr(self, name) for name in COST_CONSTANT_FIELDS}
            )
        )
        if diags:
            raise InvariantViolation(diags, "HardwareConfig")
        # Configs key several hot-path memos (shape tables, network
        # constants, pooling totals), so the 35-field tuple hash is paid
        # multiple times per Simulator.evaluate.  Stash it once; every
        # field is an int or float, whose hashes Python computes by a
        # deterministic numeric algorithm (no per-process randomisation),
        # so the stashed value survives pickling to pool workers.
        object.__setattr__(
            self,
            "_hash",
            hash(tuple(getattr(self, f.name) for f in fields(self))),
        )

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def validate_for_candidates(self, shapes: Iterable[CrossbarShape]) -> None:
        """Reject an ADC resolution inconsistent with the candidate rows.

        CFG004 needs the crossbar shapes the platform will drive, which a
        config alone does not know — call this wherever a (config,
        candidate-set) pair is fixed, e.g. at search-environment
        construction.  Raises :class:`InvariantViolation` on breach.
        """
        diags = [
            d
            for shape in shapes
            for d in adc_resolution_diagnostics(
                self.adc_bits, shape.rows, self.cell_bits, f"shape {shape}"
            )
        ]
        if diags:
            raise InvariantViolation(diags, "HardwareConfig")

    # ------------------------------------------------------------------
    # Derived organisation
    # ------------------------------------------------------------------
    @property
    def xbars_per_group(self) -> int:
        """Physical crossbars ganged to hold one logical weight array.

        With 8-bit weights and 1-bit cells, eight bit-slice crossbars form
        one *logical* crossbar ("we group eight crossbars in each PE to
        represent one weight data", §4.1).
        """
        return self.weight_bits // self.cell_bits

    @property
    def input_cycles(self) -> int:
        """Bit-serial input cycles per MVM (8 with 8-bit inputs, 1-bit DACs)."""
        return self.input_bits // self.dac_bits

    @property
    def logical_xbars_per_tile(self) -> int:
        """Logical crossbar slots per tile — the tile allocation granularity.

        One logical crossbar (a bit-slice group) per PE, so this equals
        ``pes_per_tile``; Fig. 4's "number of crossbars contained in one
        tile" varies exactly this quantity.
        """
        return self.pes_per_tile

    # ------------------------------------------------------------------
    # Resolution-dependent component models
    # ------------------------------------------------------------------
    def energy_adc_nj(self, bits: int | None = None) -> float:
        """Energy of one ADC conversion at ``bits`` resolution (default cfg)."""
        b = self.adc_bits if bits is None else bits
        return self.energy_adc_8bit_nj * 2.0 ** (b - 8)

    def area_adc_um2(self, bits: int | None = None) -> float:
        """Area of one ADC at ``bits`` resolution (default cfg)."""
        b = self.adc_bits if bits is None else bits
        return self.area_adc_8bit_um2 * 2.0 ** (b - 8)

    def with_(self, **kwargs) -> "HardwareConfig":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)


#: Every float field of :class:`HardwareConfig` — the cost constants
#: CFG005 holds to finite, non-negative values.
COST_CONSTANT_FIELDS: tuple[str, ...] = tuple(
    f.name for f in fields(HardwareConfig) if f.type == "float"
)

#: The paper's default platform (§4.1).
DEFAULT_CONFIG = HardwareConfig()


# ----------------------------------------------------------------------
# The unit table — the dimensional-analysis contract (UNI rules)
# ----------------------------------------------------------------------
#: Declared physical unit of every numeric field the cost model carries
#: that the ``*_nj`` / ``*_ns`` / ``*_nw`` / ``*_um2`` / ``*_bytes`` /
#: ``*_nj_per_byte`` / ``*_fraction`` naming convention does not already
#: cover, keyed by class name (plus the ``"obs.streams"`` pseudo-class
#: for ``repro.obs`` counter streams).  ``repro.analysis.units`` — the
#: UNI rules, ``repro check --units`` — reads this table to seed its
#: abstract interpretation and to prove coverage: an unsuffixed numeric
#: field of any class named here (or of any class that has suffix-united
#: fields) with no entry is UNI002, and so is an entry naming a field
#: that no longer exists.  Dimensionless tokens (``count``, ``bit``,
#: ``fraction``, ``percent``, ``flag``, ``1``) are interchangeable in
#: arithmetic; dimensioned tokens (``nJ``, ``ns``, ``nW``, ``um2``,
#: ``byte``) are not.  The catalogue lives in docs/cost_model.md; the
#: contract in docs/static_analysis.md.
UNIT_TABLE: dict[str, dict[str, str]] = {
    "CrossbarShape": {
        "rows": "count",
        "cols": "count",
        "cells": "count",
    },
    "HardwareConfig": {
        "weight_bits": "bit",
        "input_bits": "bit",
        "cell_bits": "bit",
        "dac_bits": "bit",
        "adc_bits": "bit",
        "pes_per_tile": "count",
        "tiles_per_bank": "count",
        "adc_sharing": "count",
        "xbars_per_group": "count",
        "input_cycles": "count",
        "logical_xbars_per_tile": "count",
    },
    "EnergyBreakdown": {
        "adc": "nJ",
        "dac": "nJ",
        "crossbar": "nJ",
        "shift_add": "nJ",
        "adder_tree": "nJ",
        "buffer": "nJ",
        "bus": "nJ",
        "pooling": "nJ",
        "leakage": "nJ",
        "total": "nJ",
    },
    "LayerCost": {
        "layer_index": "count",
        "mvm_ops": "count",
        "num_crossbars": "count",
        "adc_conversions": "count",
        "dac_conversions": "count",
        "intra_utilization": "fraction",
    },
    "SystemMetrics": {
        "utilization": "fraction",
        "occupied_tiles": "count",
        "occupied_crossbars": "count",
        "empty_crossbars": "count",
        "utilization_percent": "percent",
    },
    "AllocationSummary": {
        "tile_capacity": "count",
        "occupied_tiles": "count",
        "empty_crossbars": "count",
        "allocated_cells": "count",
        "weight_cells": "count",
        "tiles_per_layer": "count",
        "total_crossbar_slots": "count",
        "utilization": "fraction",
    },
    "NetworkArrays": {
        "num_layers": "count",
        "layer_indices": "count",
        "mvm_ops": "count",
        "in_channels": "count",
        "out_channels": "count",
        "kernel_elems": "count",
        "weight_counts": "count",
        "weight_cells_total": "count",
        "pooled_elems": "count",
    },
    "MappingBatch": {
        "rows": "count",
        "cols": "count",
        "row_groups": "count",
        "col_groups": "count",
        "kernel_split": "flag",
        "num_crossbars": "count",
        "used_columns_total": "count",
        "allocated_columns_total": "count",
        "used_rows_total": "count",
        "allocated_rows_total": "count",
        "partial_sum_adds": "count",
        "adder_tree_depth": "count",
        "used_columns_per_crossbar_max": "count",
    },
    "EnergyTerms": {
        "adc": "nJ",
        "dac": "nJ",
        "crossbar": "nJ",
        "shift_add": "nJ",
        "adder_tree": "nJ",
        "buffer": "nJ",
        "bus": "nJ",
    },
    "_NetworkConstants": {
        "phase_factor": "count",
    },
    "obs.streams": {
        "sim.utilization": "fraction",
        "sim.energy_nj": "nJ",
        "sim.latency_ns": "ns",
        "alloc.occupied_tiles": "count",
        "sim.layer.utilization": "fraction",
        "sim.layer.adc_conversions": "count",
        "cache.hit_rate": "fraction",
        "rl.reward": "1",
        "rl.critic_loss": "1",
        "rl.actor_loss": "1",
        "serve.latency_ns": "ns",
        "serve.wait_ns": "ns",
        "serve.queue_depth": "count",
        "serve.batch_size": "count",
        "serve.slo_attainment": "fraction",
        "serve.throughput_rps": "1/s",
    },
}
