"""The evaluation cache: LRU mechanics, keying, and — the load-bearing
contract — bit-for-bit parity between the cached fast path and the cold
reference simulator (docs/performance.md)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import DEFAULT_CANDIDATES, HardwareConfig
from repro.models import lenet, tiny_cnn
from repro.sim.cache import (
    CacheStats,
    EvaluationCache,
    config_fingerprint,
    network_fingerprint,
)
from repro.sim.simulator import CapacityError, Simulator


def reference_simulator(config=None, **kwargs):
    """The cold path: no result cache, materialised reference."""
    if config is not None:
        return Simulator(config, cache=None, reference=True, **kwargs)
    return Simulator(cache=None, reference=True, **kwargs)


# ----------------------------------------------------------------------
# LRU mechanics
# ----------------------------------------------------------------------
def test_cache_get_put_and_counters():
    cache = EvaluationCache(max_size=4)
    assert cache.get("a") is None
    cache.put("a", 1)
    assert cache.get("a") == 1
    stats = cache.stats()
    assert stats.hits == 1
    assert stats.misses == 1
    assert stats.lookups == 2
    assert stats.hit_rate == 0.5
    assert stats.size == 1
    assert stats.evictions == 0


def test_cache_evicts_least_recently_used():
    cache = EvaluationCache(max_size=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refresh "a" -> "b" is now LRU
    cache.put("c", 3)
    assert "b" not in cache
    assert "a" in cache and "c" in cache
    assert cache.stats().evictions == 1


def test_cache_put_refreshes_existing_key():
    cache = EvaluationCache(max_size=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)  # refresh, not insert -> no eviction
    assert len(cache) == 2
    assert cache.get("a") == 10
    assert cache.stats().evictions == 0


def test_cache_clear_resets_everything():
    cache = EvaluationCache(max_size=4)
    cache.put("a", 1)
    cache.get("a")
    cache.get("missing")
    cache.clear()
    assert len(cache) == 0
    assert cache.stats() == CacheStats(max_size=4)


def test_cache_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        EvaluationCache(max_size=0)


# ----------------------------------------------------------------------
# Keying
# ----------------------------------------------------------------------
def test_fingerprints_are_content_based():
    assert config_fingerprint(HardwareConfig()) == config_fingerprint(
        HardwareConfig()
    )
    assert config_fingerprint(HardwareConfig()) != config_fingerprint(
        HardwareConfig(pes_per_tile=8)
    )
    assert network_fingerprint(lenet()) == network_fingerprint(lenet())
    assert network_fingerprint(lenet()) != network_fingerprint(tiny_cnn())


def test_key_separates_flags_and_strategies(lenet_net):
    config = HardwareConfig()
    s1 = tuple(DEFAULT_CANDIDATES[0] for _ in lenet_net.layers)
    s2 = tuple(DEFAULT_CANDIDATES[1] for _ in lenet_net.layers)

    def key(strategy, **flags):
        defaults = dict(tile_shared=True, detailed=True, enforce_capacity=True)
        defaults.update(flags)
        return EvaluationCache.make_key(config, lenet_net, strategy, **defaults)

    base = key(s1)
    assert base == key(s1)
    assert base != key(s2)
    assert base != key(s1, tile_shared=False)
    assert base != key(s1, detailed=False)
    assert base != key(s1, enforce_capacity=False)


def test_simulator_counts_hits_across_repeat_evaluations(lenet_net):
    sim = Simulator()
    strategy = tuple(DEFAULT_CANDIDATES[2] for _ in lenet_net.layers)
    first = sim.evaluate(lenet_net, strategy)
    second = sim.evaluate(lenet_net, strategy)
    assert first is second  # the cached object itself comes back
    stats = sim.cache_stats()
    assert stats.hits == 1
    assert stats.misses == 1


# ----------------------------------------------------------------------
# Parity: cached fast path == cold reference, bit for bit
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(data=st.data(), tile_shared=st.booleans())
def test_cached_equals_uncached_on_random_strategies(
    data, tile_shared, lenet_net, simulator
):
    picks = data.draw(
        st.lists(
            st.sampled_from(DEFAULT_CANDIDATES),
            min_size=lenet_net.num_layers,
            max_size=lenet_net.num_layers,
        )
    )
    strategy = tuple(picks)
    cold = reference_simulator().evaluate(
        lenet_net, strategy, tile_shared=tile_shared
    )
    warm = simulator.evaluate(lenet_net, strategy, tile_shared=tile_shared)
    assert cold == warm  # frozen dataclass: every field, bit for bit


@pytest.mark.parametrize("tile_shared", [True, False])
def test_parity_on_tile_sharing_edge_cases(tile_shared):
    from repro.models import CIFAR10, LayerSpec, Network

    shape = DEFAULT_CANDIDATES[0]  # 32x32
    # Single tile: one layer, one crossbar -> a lone partially-filled tile.
    single = Network.build("single", CIFAR10, [LayerSpec.fc(3, 8)])
    # All-full group: each layer maps to exactly logical_xbars_per_tile
    # crossbars, so no tile has empties and Algorithm 1 merges nothing.
    full = Network.build(
        "full", CIFAR10, [LayerSpec.fc(3, 128), LayerSpec.fc(128, 32)]
    )
    for net in (single, full):
        strategy = tuple(shape for _ in net.layers)
        cold = reference_simulator().evaluate(
            net, strategy, tile_shared=tile_shared
        )
        warm = Simulator().evaluate(net, strategy, tile_shared=tile_shared)
        assert cold == warm


def test_parity_with_capacity_one_tiles(lenet_net):
    # pes_per_tile=1 -> one crossbar slot per tile: the degenerate group
    # where every occupied tile is full and sharing can release nothing.
    cfg = HardwareConfig(pes_per_tile=1)
    strategy = tuple(DEFAULT_CANDIDATES[1] for _ in lenet_net.layers)
    for tile_shared in (True, False):
        cold = reference_simulator(cfg).evaluate(
            lenet_net, strategy, tile_shared=tile_shared
        )
        warm = Simulator(cfg).evaluate(
            lenet_net, strategy, tile_shared=tile_shared
        )
        assert cold == warm


# ----------------------------------------------------------------------
# Infeasible strategies are cached too
# ----------------------------------------------------------------------
def test_infeasible_outcome_is_cached(lenet_net):
    cfg = HardwareConfig(tiles_per_bank=1)
    sim = Simulator(cfg)
    strategy = tuple(DEFAULT_CANDIDATES[0] for _ in lenet_net.layers)
    with pytest.raises(CapacityError) as first:
        sim.evaluate(lenet_net, strategy)
    with pytest.raises(CapacityError) as second:
        sim.evaluate(lenet_net, strategy)
    assert str(first.value) == str(second.value)
    stats = sim.cache_stats()
    assert stats.hits == 1 and stats.misses == 1
    assert sim.try_evaluate(lenet_net, strategy) is None


# ----------------------------------------------------------------------
# evaluate_many
# ----------------------------------------------------------------------
def strategies_for(network, count=8):
    shapes = DEFAULT_CANDIDATES
    return [
        tuple(shapes[(i + j) % len(shapes)] for j in range(network.num_layers))
        for i in range(count)
    ]


def test_evaluate_many_matches_serial_evaluate(lenet_net):
    batch = strategies_for(lenet_net)
    serial = [reference_simulator().evaluate(lenet_net, s, detailed=False)
              for s in batch]
    assert Simulator().evaluate_many(lenet_net, batch) == serial


def test_evaluate_many_skips_infeasible(lenet_net):
    cfg = HardwareConfig(tiles_per_bank=1)
    batch = strategies_for(lenet_net, count=4)
    results = Simulator(cfg).evaluate_many(lenet_net, batch)
    assert results == [None] * len(batch)
    with pytest.raises(CapacityError):
        Simulator(cfg).evaluate_many(lenet_net, batch, skip_infeasible=False)
