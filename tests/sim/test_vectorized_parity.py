"""Differential battery: the vectorized kernel path vs the scalar reference.

The exactness contract of ``repro.sim.kernels`` is *bit-identical*
metrics — not approximately equal — because the NumPy kernels mirror the
scalar evaluation's arithmetic operation-for-operation (strict left
folds via ``cumsum``, identical association order, identical int→float
conversion points).  These tests enforce the contract three ways:

* a hypothesis battery over random networks × strategies × configs,
  comparing the two evaluation paths (``Simulator(reference=True)``,
  the materialising reference, and the default vectorized kernels),
  infeasible verdicts included;
* the paper workloads (VGG16 et al.) under the paper's strategies;
* the batched ``evaluate_many`` fast path against the serial loop,
  duplicates and infeasible entries included, cache counters and all.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.config import DEFAULT_CANDIDATES, CrossbarShape, HardwareConfig
from repro.arch.mapping import map_layer
from repro.models.datasets import CIFAR10
from repro.models.graph import Network
from repro.models.layers import LayerSpec, PoolSpec
from repro.sim import kernels
from repro.sim.simulator import CapacityError, Simulator

SHAPES = DEFAULT_CANDIDATES


def reference_sim(config=None):
    """The materialising scalar path — the semantic ground truth."""
    return Simulator(config=config or HardwareConfig(), cache=None, reference=True)


def vector_sim(config=None):
    """The NumPy kernel path under test."""
    return Simulator(config=config or HardwareConfig(), cache=None)


def outcome(sim, network, strategy, *, tile_shared, detailed):
    """Metrics on success, the CapacityError message on infeasibility."""
    try:
        return sim.evaluate(
            network, strategy, tile_shared=tile_shared, detailed=detailed
        )
    except CapacityError as exc:
        return ("infeasible", str(exc))


@st.composite
def network_and_strategy(draw):
    """A small random CONV/pool pipeline plus a per-layer shape choice."""
    depth = draw(st.integers(1, 5))
    items = []
    channels = CIFAR10.channels
    for _ in range(depth):
        out = draw(st.integers(1, 96))
        kernel = draw(st.sampled_from([1, 3]))
        items.append(
            LayerSpec.conv(
                channels, out, kernel, padding=1 if kernel == 3 else 0
            )
        )
        channels = out
        if draw(st.booleans()):
            items.append(PoolSpec(window=2, stride=2))
    network = Network.build("rand", CIFAR10, items)
    strategy = tuple(
        draw(st.sampled_from(SHAPES)) for _ in range(network.num_layers)
    )
    return network, strategy


class TestHypothesisDifferential:
    @settings(max_examples=60, deadline=None)
    @given(
        network_and_strategy(),
        st.booleans(),
        st.booleans(),
        # tiles_per_bank=6 makes a healthy fraction of draws infeasible,
        # so the CapacityError verdict (and message) parity is exercised
        # alongside the numeric parity.
        st.sampled_from([337, 6]),
    )
    def test_reference_and_kernels_agree_bit_for_bit(
        self, net_strat, tile_shared, detailed, tiles_per_bank
    ):
        network, strategy = net_strat
        config = HardwareConfig(tiles_per_bank=tiles_per_bank)
        expected, actual = (
            outcome(
                sim_factory(config),
                network,
                strategy,
                tile_shared=tile_shared,
                detailed=detailed,
            )
            for sim_factory in (reference_sim, vector_sim)
        )
        # Plain ==: SystemMetrics is a frozen dataclass of floats/ints,
        # so equality here means every field is bit-identical.
        assert actual == expected

    @settings(max_examples=30, deadline=None)
    @given(network_and_strategy())
    def test_strategy_batch_scorer_matches_evaluate(self, net_strat):
        network, strategy = net_strat
        config = HardwareConfig()
        scored = kernels.score_strategy_batch(
            network,
            [strategy],
            config,
            tile_shared=True,
            enforce_capacity=True,
            detailed=True,
        )[0]
        expected = outcome(
            reference_sim(config), network, strategy,
            tile_shared=True, detailed=True,
        )
        if isinstance(scored, kernels.InfeasibleScore):
            assert expected == ("infeasible", scored.message)
        else:
            assert scored == expected


class TestPaperWorkloads:
    @pytest.mark.parametrize("net_fixture", ["lenet_net", "tiny_net", "vgg_net"])
    @pytest.mark.parametrize("tile_shared", [True, False])
    def test_uniform_strategies_unchanged(
        self, net_fixture, tile_shared, request
    ):
        network = request.getfixturevalue(net_fixture)
        for shape in SHAPES:
            strategy = tuple(shape for _ in range(network.num_layers))
            assert outcome(
                vector_sim(), network, strategy,
                tile_shared=tile_shared, detailed=True,
            ) == outcome(
                reference_sim(), network, strategy,
                tile_shared=tile_shared, detailed=True,
            )

    def test_vgg16_manual_hetero_unchanged(self, vgg_net):
        from repro.core.search.strategies import manual_hetero_strategy

        strategy = manual_hetero_strategy(vgg_net)
        assert vector_sim().evaluate(vgg_net, strategy) == reference_sim().evaluate(
            vgg_net, strategy
        )


class TestBatchedEvaluateMany:
    def batch_for(self, network, count=8):
        return [
            tuple(
                SHAPES[(i + j) % len(SHAPES)]
                for j in range(network.num_layers)
            )
            for i in range(count)
        ]

    def test_matches_serial_with_duplicates(self, lenet_net):
        batch = self.batch_for(lenet_net) * 2  # every strategy twice
        serial = [
            Simulator().try_evaluate(
                lenet_net, s, detailed=False
            )
            for s in batch
        ]
        assert Simulator().evaluate_many(lenet_net, batch) == serial

    def test_cache_protocol_matches_serial(self, lenet_net):
        """Hit/miss/size counters replicate the serial loop exactly."""
        batch = self.batch_for(lenet_net, count=6) * 3
        serial_sim = Simulator()
        for s in batch:
            serial_sim.try_evaluate(lenet_net, s, detailed=False)
        batched_sim = Simulator()
        batched_sim.evaluate_many(lenet_net, batch)
        serial, batched = serial_sim.cache_stats(), batched_sim.cache_stats()
        assert (serial.hits, serial.misses, serial.size) == (
            batched.hits,
            batched.misses,
            batched.size,
        )

    def test_infeasible_entries_cached_and_reused(self, tiny_net):
        hopeless = Simulator(HardwareConfig(tiles_per_bank=1))
        batch = self.batch_for(tiny_net, count=4)
        assert hopeless.evaluate_many(tiny_net, batch) == [None] * 4
        stats = hopeless.cache_stats()
        assert stats.size == len(set(batch))
        assert hopeless.evaluate_many(tiny_net, batch) == [None] * 4
        after = hopeless.cache_stats()
        assert after.hits - stats.hits == len(batch)
        assert after.misses == stats.misses

    def test_infeasible_message_matches_serial(self, tiny_net):
        config = HardwareConfig(tiles_per_bank=1)
        strategy = self.batch_for(tiny_net, count=1)[0]
        with pytest.raises(CapacityError) as serial_exc:
            reference_sim(config).evaluate(tiny_net, strategy)
        scored = kernels.score_strategy_batch(
            tiny_net,
            [strategy],
            config,
            tile_shared=True,
            enforce_capacity=True,
        )[0]
        assert isinstance(scored, kernels.InfeasibleScore)
        assert scored.message == str(serial_exc.value)


class TestAdcChainInvariant:
    """Satellite: ``min(adc_sharing, used_columns_per_crossbar_max)``.

    The ADC chain length in :func:`repro.sim.latency.mvm_latency_ns`
    would silently zero the latency if a mapping could ever report zero
    used columns.  ``LayerMapping.__post_init__`` (MAP003) makes that
    state unconstructible — these tests pin both halves of the argument.
    """

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 512),
        st.integers(1, 512),
        st.sampled_from([1, 3, 5]),
        st.sampled_from(list(SHAPES)),
    )
    def test_mapped_layers_always_use_a_column(self, cin, cout, k, shape):
        mapping = map_layer(LayerSpec.conv(cin, cout, k, input_size=8), shape)
        assert mapping.used_columns_per_crossbar_max >= 1
        assert min(4, mapping.used_columns_per_crossbar_max) >= 1

    def test_degenerate_mapping_is_unconstructible(self):
        from repro.analysis.invariants import InvariantViolation
        from repro.arch.mapping import LayerMapping

        layer = LayerSpec.conv(3, 16, 3, input_size=8)
        with pytest.raises(InvariantViolation):
            LayerMapping(
                layer=layer,
                shape=CrossbarShape(64, 64),
                row_groups=0,
                col_groups=1,
                kernel_split=False,
            )
        with pytest.raises(InvariantViolation):
            LayerMapping(
                layer=layer,
                shape=CrossbarShape(64, 64),
                row_groups=1,
                col_groups=0,
                kernel_split=False,
            )
