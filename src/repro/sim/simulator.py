"""The behavioral accelerator simulator — the "hardware feedback" source.

:class:`Simulator.evaluate` takes a network and a *strategy* (one crossbar
shape per layer — the RL agent's action sequence, Fig. 6 step 4) and
returns :class:`~repro.sim.metrics.SystemMetrics`: utilization, energy,
latency, area, tile occupancy (steps 5-6).  This plays the role MNSIM 2.0
plays in the paper (§4.1); see DESIGN.md for the substitution rationale.

Evaluation is pure and deterministic: map every layer (Eq. 4 math),
allocate tiles (tile-based, optionally tile-shared per §3.4), then roll up
the analytic energy / latency / area models.

Because it is pure, evaluation is also *cacheable* — and the simulator is
the search-time bottleneck (§4.5 reports ~97% of AutoHet's wall clock
waiting on feedback).  Two layers attack that, both on by default:

* a strategy-level :class:`~repro.sim.cache.EvaluationCache` (bounded
  LRU, hit/miss counters) in front of :meth:`Simulator.evaluate`;
* the NumPy kernels (``repro.sim.kernels``) below it, which
  :meth:`Simulator.evaluate_many` runs over a whole ``(S, L)`` batch.

``Simulator(cache=None, reference=True)`` runs the materialised
Algorithm-1 reference instead: it builds and validates every tile and
sums the per-layer scalar cost models.  Results are bit-for-bit
identical either way (``tests/sim/test_vectorized_parity.py``).  See
``docs/performance.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..arch.config import DEFAULT_CONFIG, CrossbarShape, HardwareConfig
from ..arch.mapping import LayerMapping, map_layer
from ..core.allocation import (
    Allocation,
    allocate_tile_based,
    apply_tile_sharing,
)
from ..core.allocation.summary import summarize_counts
from ..models.graph import Network
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.trace import NULL_TRACER, Tracer
from . import kernels
from .area import allocation_area_um2
from .cache import EvaluationCache, _Infeasible
from .energy import (
    layer_adc_conversions,
    layer_dac_conversions,
    layer_dynamic_energy,
    leakage_energy,
    pooling_energy,
)
from .latency import layer_latency_ns, pooling_latency_ns
from .metrics import EnergyBreakdown, LayerCost, SystemMetrics

#: A crossbar-configuration strategy: one shape per weight layer.
Strategy = tuple[CrossbarShape, ...]


class CapacityError(RuntimeError):
    """Raised when a strategy needs more tiles than one bank provides."""


@dataclass(frozen=True)
class Simulator:
    """Deterministic behavioral model of the heterogeneous accelerator."""

    config: HardwareConfig = DEFAULT_CONFIG
    #: raise :class:`CapacityError` when the allocation exceeds one bank
    enforce_capacity: bool = True
    #: strategy-level result cache; pass ``None`` to disable
    cache: EvaluationCache | None = field(
        default_factory=EvaluationCache, compare=False
    )
    #: run the materialised Algorithm-1 reference (full tile plan plus
    #: the per-layer scalar cost models) instead of the NumPy kernels.
    #: Bit-identical results either way (``tests/sim/test_vectorized_parity.py``).
    reference: bool = False
    #: observability tracer; ``None`` (default) resolves the ambient
    #: tracer (``repro.obs.use_tracer``) at each call, which is the
    #: no-op ``NULL_TRACER`` unless tracing was explicitly enabled.
    #: Result-invariant by construction (``tests/obs`` proves it).
    tracer: Tracer | None = field(default=None, compare=False)

    @property
    def effective_tracer(self) -> Tracer:
        """The tracer evaluations use: :attr:`tracer`, else the ambient one."""
        return self.tracer if self.tracer is not None else obs_trace._AMBIENT

    # ------------------------------------------------------------------
    def map_network(
        self, network: Network, strategy: Sequence[CrossbarShape]
    ) -> tuple[LayerMapping, ...]:
        """Map every layer onto its assigned crossbar type."""
        layers = network.layers
        if len(strategy) != len(layers):
            raise ValueError(
                f"strategy length {len(strategy)} != layer count {len(layers)}"
            )
        return tuple(map_layer(layer, shape) for layer, shape in zip(layers, strategy))

    def allocate(
        self,
        mappings: Sequence[LayerMapping],
        *,
        tile_shared: bool,
        tracer: Tracer = NULL_TRACER,
    ) -> Allocation:
        """Tile allocation, optionally followed by Algorithm 1 remapping.

        Always materialises (and validates) the full tile plan — use this
        for deployable plans; :meth:`evaluate` calls it only when
        :attr:`reference` is set.
        """
        allocation = allocate_tile_based(
            mappings, self.config.logical_xbars_per_tile
        )
        if tile_shared:
            allocation = apply_tile_sharing(allocation, tracer=tracer)
        self._capacity_check(allocation.occupied_tiles)
        return allocation

    def _capacity_check(self, occupied_tiles: int) -> None:
        """Raise :class:`CapacityError` when the bank overflows.

        One formatting site for the error message — the cached
        ``_Infeasible`` sentinels store it verbatim, so every evaluation
        path (materialised, kernel, batch-scored) must
        produce the identical string.  ``kernels.score_strategy_batch``
        replicates this format; the parity analyzer (PAR003) checks the
        two f-strings against each other, and
        ``tests/sim/test_infeasible_messages.py`` proves the runtime
        strings byte-identical across paths.
        """
        if self.enforce_capacity and occupied_tiles > self.config.tiles_per_bank:
            raise CapacityError(
                f"strategy needs {occupied_tiles} tiles; one bank "
                f"holds {self.config.tiles_per_bank}"
            )

    # ------------------------------------------------------------------
    def evaluate(
        self,
        network: Network,
        strategy: Sequence[CrossbarShape],
        *,
        tile_shared: bool = True,
        detailed: bool = True,
    ) -> SystemMetrics:
        """Full evaluation of one (network, strategy) pair.

        Pure and deterministic; with a :attr:`cache` attached, repeat
        evaluations (including infeasible ones) return memoised results.
        """
        strategy = tuple(strategy)
        # Hot path: resolve the tracer with one field load and, for the
        # default ``tracer=None``, one module-attribute read — never a
        # function call (the cached-hit path budget is ~2µs).
        tracer = self.tracer
        if tracer is None:
            tracer = obs_trace._AMBIENT
        key = None
        if self.cache is not None:
            key = EvaluationCache.make_key(
                self.config,
                network,
                strategy,
                tile_shared=tile_shared,
                detailed=detailed,
                enforce_capacity=self.enforce_capacity,
            )
            hit = self.cache.get(key)
            if isinstance(hit, _Infeasible):
                if tracer.enabled:
                    tracer.event(
                        obs_metrics.EVENT_CACHE_HIT,
                        network=network.name,
                        infeasible=True,
                    )
                raise CapacityError(hit.message)
            if hit is not None:
                if self.cache.audit_due():
                    if tracer.enabled:
                        tracer.event(
                            obs_metrics.EVENT_CACHE_AUDIT, network=network.name
                        )
                    return self._audit_hit(
                        key, hit, network, strategy,
                        tile_shared=tile_shared, detailed=detailed,
                        tracer=tracer,
                    )
                if tracer.enabled:
                    tracer.event(obs_metrics.EVENT_CACHE_HIT, network=network.name)
                    obs_metrics.emit_system_metrics(
                        tracer, hit, network=network.name, include_layers=False
                    )
                return hit  # type: ignore[return-value]
            if tracer.enabled:
                tracer.event(obs_metrics.EVENT_CACHE_MISS, network=network.name)
        try:
            with tracer.span(
                obs_metrics.SPAN_EVALUATE,
                network=network.name,
                layers=len(strategy),
                tile_shared=tile_shared,
                detailed=detailed,
            ):
                metrics = self._evaluate_impl(
                    network, strategy, tile_shared=tile_shared, detailed=detailed,
                    tracer=tracer,
                )
        except CapacityError as exc:
            if tracer.enabled:
                tracer.event(
                    obs_metrics.EVENT_INFEASIBLE,
                    network=network.name,
                    message=str(exc),
                )
            if self.cache is not None:
                self.cache.put(key, _Infeasible(str(exc)))
            raise
        if self.cache is not None:
            self.cache.put(key, metrics)
        if tracer.enabled:
            obs_metrics.emit_system_metrics(tracer, metrics, network=network.name)
        return metrics

    def _audit_hit(
        self,
        key: object,
        hit: object,
        network: Network,
        strategy: Strategy,
        *,
        tile_shared: bool,
        detailed: bool,
        tracer: Tracer = NULL_TRACER,
    ) -> SystemMetrics:
        """Re-evaluate a sampled cache hit and cross-check the stored value.

        The runtime complement of ``repro check --cache-safety``: if the
        static key-coverage proof ever rots, a sampled hit whose fresh
        re-evaluation differs is recorded as a CAC004 diagnostic on the
        cache (never a crash) and the fresh value wins.
        """
        assert self.cache is not None
        try:
            fresh = self._evaluate_impl(
                network, strategy, tile_shared=tile_shared, detailed=detailed,
                tracer=tracer,
            )
        except CapacityError as exc:
            # The cache said feasible, the re-evaluation says not: still a
            # mismatch, still reported through the same channel.
            self.cache.record_audit(key, hit, _Infeasible(str(exc)))
            raise
        self.cache.record_audit(key, hit, fresh)
        return fresh

    def _evaluate_impl(
        self,
        network: Network,
        strategy: Strategy,
        *,
        tile_shared: bool,
        detailed: bool,
        tracer: Tracer = NULL_TRACER,
    ) -> SystemMetrics:
        cfg = self.config
        if not self.reference:
            # Kernel path: one fancy-index gather of the per-(network,
            # config) shape table (repro.sim.kernels) plus array folds,
            # never materialising LayerMapping objects.  Bit-identical to
            # the reference below — the parity battery is the proof.
            with tracer.span(obs_metrics.SPAN_MAP, network=network.name):
                net, floats, ints = kernels.strategy_view(
                    network, strategy, cfg
                )
            with tracer.span(obs_metrics.SPAN_ALLOCATE, mode="summary"):
                summary = summarize_counts(
                    strategy,
                    tuple(ints[kernels._I_XBARS].tolist()),
                    net.weight_cells_total,
                    cfg.logical_xbars_per_tile,
                    tile_shared=tile_shared,
                    tracer=tracer,
                )
                self._capacity_check(summary.occupied_tiles)
            with tracer.span(obs_metrics.SPAN_COST, layers=len(strategy)):
                return kernels.metrics_from_view(
                    network,
                    strategy,
                    net,
                    floats,
                    ints,
                    summary,
                    cfg,
                    tile_shared=tile_shared,
                    detailed=detailed,
                )

        # Reference path: materialise and validate the full tile plan.
        with tracer.span(obs_metrics.SPAN_MAP, network=network.name):
            mappings = self.map_network(network, strategy)
        with tracer.span(obs_metrics.SPAN_ALLOCATE, mode="materialized"):
            allocation = self.allocate(mappings, tile_shared=tile_shared, tracer=tracer)

        layer_costs: list[LayerCost] = []
        dynamic = EnergyBreakdown()
        latency = 0.0
        with tracer.span(obs_metrics.SPAN_COST, layers=len(mappings)):
            for mapping in mappings:
                e = layer_dynamic_energy(mapping, cfg)
                t = layer_latency_ns(mapping, cfg)
                dynamic = dynamic + e
                latency += t
                if detailed:
                    layer_costs.append(
                        LayerCost(
                            layer_index=mapping.layer.index,
                            shape_str=str(mapping.shape),
                            mvm_ops=mapping.layer.mvm_ops,
                            num_crossbars=mapping.num_crossbars,
                            adc_conversions=layer_adc_conversions(mapping, cfg),
                            dac_conversions=layer_dac_conversions(mapping, cfg),
                            energy=e,
                            latency_ns=t,
                            intra_utilization=mapping.utilization,
                        )
                    )

            pool_e = pooling_energy(network, cfg)
            latency += pooling_latency_ns(network, cfg)
            leak = leakage_energy(
                allocation.occupied_tiles,
                allocation.total_crossbar_slots,
                allocation.allocated_cells,
                latency,
                cfg,
            )
            breakdown = dynamic + EnergyBreakdown(pooling=pool_e, leakage=leak)

        return SystemMetrics(
            network_name=network.name,
            strategy=tuple(str(s) for s in strategy),
            utilization=allocation.utilization,
            energy_nj=breakdown.total,
            latency_ns=latency,
            area_um2=allocation_area_um2(allocation, cfg),
            occupied_tiles=allocation.occupied_tiles,
            occupied_crossbars=sum(m.num_crossbars for m in mappings),
            empty_crossbars=allocation.empty_crossbars,
            tile_shared=tile_shared,
            energy_breakdown=breakdown,
            layer_costs=tuple(layer_costs),
        )

    # ------------------------------------------------------------------
    def try_evaluate(
        self,
        network: Network,
        strategy: Sequence[CrossbarShape],
        *,
        tile_shared: bool = True,
        detailed: bool = True,
    ) -> SystemMetrics | None:
        """:meth:`evaluate`, but ``None`` for an infeasible strategy.

        The feasibility-tolerant entry point the search strategies use: a
        proposal that overflows the bank is a *skippable* point of the
        search space, not a crash.
        """
        try:
            return self.evaluate(
                network, strategy, tile_shared=tile_shared, detailed=detailed
            )
        except CapacityError:
            return None

    def evaluate_many(
        self,
        network: Network,
        strategies: Iterable[Sequence[CrossbarShape]],
        *,
        tile_shared: bool = True,
        detailed: bool = False,
        skip_infeasible: bool = True,
    ) -> list[SystemMetrics | None]:
        """Evaluate a batch of strategies.

        Returns one entry per strategy, in order; infeasible strategies
        yield ``None`` when ``skip_infeasible`` is set (default) and raise
        :class:`CapacityError` otherwise.
        """
        batch = [tuple(s) for s in strategies]
        tracer = self.tracer
        if tracer is None:
            tracer = obs_trace._AMBIENT
        # Batches take the (S, L) kernel scorer when nothing needs the
        # per-call evaluate machinery: no tracer events to interleave, no
        # audit sampling to replay, and infeasible entries collapse to
        # ``None`` (``skip_infeasible``).  Anything else falls through to
        # the loop below — results are bit-identical either way.
        if (
            not self.reference
            and skip_infeasible
            and len(batch) > 1
            and not tracer.enabled
            and (self.cache is None or self.cache.audit_interval <= 0)
        ):
            return self._evaluate_many_batched(
                network, batch, tile_shared=tile_shared, detailed=detailed
            )
        if skip_infeasible:
            return [
                self.try_evaluate(
                    network, s, tile_shared=tile_shared, detailed=detailed
                )
                for s in batch
            ]
        return [
            self.evaluate(network, s, tile_shared=tile_shared, detailed=detailed)
            for s in batch
        ]

    def _evaluate_many_batched(
        self,
        network: Network,
        batch: list[Strategy],
        *,
        tile_shared: bool,
        detailed: bool,
    ) -> list[SystemMetrics | None]:
        """Serial batch evaluation through the ``(S, L)`` kernel scorer.

        Replicates the serial loop's cache protocol — one lookup per
        strategy, one insert per cold unique strategy, duplicate
        occurrences resolving to hits — while scoring every cold strategy
        in a single kernel pass.
        """
        results: list[SystemMetrics | None] = [None] * len(batch)
        if self.cache is None:
            unique: dict[Strategy, list[int]] = {}
            for i, strategy in enumerate(batch):
                unique.setdefault(strategy, []).append(i)
            scored = kernels.score_strategy_batch(
                network,
                list(unique),
                self.config,
                tile_shared=tile_shared,
                enforce_capacity=self.enforce_capacity,
                detailed=detailed,
            )
            for positions, outcome in zip(unique.values(), scored):
                value = (
                    None
                    if isinstance(outcome, kernels.InfeasibleScore)
                    else outcome
                )
                for i in positions:
                    results[i] = value
            return results

        keys = [
            EvaluationCache.make_key(
                self.config,
                network,
                strategy,
                tile_shared=tile_shared,
                detailed=detailed,
                enforce_capacity=self.enforce_capacity,
            )
            for strategy in batch
        ]
        to_score: list[int] = []
        pending: set[object] = set()
        # Duplicates of a cold key defer their lookup until after the
        # scored results are inserted, so they register as cache hits
        # exactly like the serial loop's second visit would.
        deferred: list[int] = []
        for i, key in enumerate(keys):
            if key in pending:
                deferred.append(i)
                continue
            hit = self.cache.get(key)
            if isinstance(hit, _Infeasible):
                results[i] = None
            elif hit is not None:
                results[i] = hit  # type: ignore[assignment]
            else:
                pending.add(key)
                to_score.append(i)
        if to_score:
            scored = kernels.score_strategy_batch(
                network,
                [batch[i] for i in to_score],
                self.config,
                tile_shared=tile_shared,
                enforce_capacity=self.enforce_capacity,
                detailed=detailed,
            )
            for i, outcome in zip(to_score, scored):
                if isinstance(outcome, kernels.InfeasibleScore):
                    self.cache.put(keys[i], _Infeasible(outcome.message))
                    results[i] = None
                else:
                    self.cache.put(keys[i], outcome)
                    results[i] = outcome
        for i in deferred:
            hit = self.cache.get(keys[i])
            if hit is None:
                # Evicted between the insert and this lookup (a cache
                # smaller than the batch) — re-evaluate like the serial
                # loop would on its own miss.
                results[i] = self.try_evaluate(
                    network, batch[i], tile_shared=tile_shared, detailed=detailed
                )
            else:
                results[i] = None if isinstance(hit, _Infeasible) else hit  # type: ignore[assignment]
        return results

    # ------------------------------------------------------------------
    def evaluate_homogeneous(
        self, network: Network, shape: CrossbarShape, *, tile_shared: bool = False
    ) -> SystemMetrics:
        """Evaluate a homogeneous accelerator (the §4.1 baselines).

        Baselines use the conventional tile-based allocation, hence
        ``tile_shared=False`` by default.
        """
        strategy = tuple(shape for _ in network.layers)
        return self.evaluate(network, strategy, tile_shared=tile_shared)

    def cache_stats(self):
        """Snapshot of the attached cache's counters (``None`` if off)."""
        return self.cache.stats() if self.cache is not None else None
