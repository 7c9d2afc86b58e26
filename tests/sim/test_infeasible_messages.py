"""Byte-identity of the infeasible verdict message across every path.

An infeasible strategy surfaces in three ways: the reference path raises
:class:`~repro.sim.simulator.CapacityError`; the batch kernel returns
:class:`~repro.sim.kernels.InfeasibleScore`; and the batched
``evaluate_many`` fast path caches an ``_Infeasible`` sentinel.  All
three carry the same message *string*, and it must stay byte-identical —
cached sentinels are shared between paths, so a reworded message on one
path would surface from the cache on another.  ``repro check --kernel-parity``
(PAR003) pins the two f-string formats statically; this is the runtime
witness.
"""

from __future__ import annotations

import pytest

from repro.arch.config import CrossbarShape, HardwareConfig
from repro.models.zoo import lenet
from repro.sim import kernels
from repro.sim.cache import EvaluationCache, _Infeasible
from repro.sim.simulator import CapacityError, Simulator

#: one bank of one tile — any real workload overflows it
TINY = HardwareConfig(tiles_per_bank=1)


@pytest.fixture()
def case():
    network = lenet()
    strategy = tuple(CrossbarShape(32, 32) for _ in network.layers)
    return network, strategy


def scalar_message(network, strategy) -> str:
    sim = Simulator(config=TINY, cache=None, reference=True)
    with pytest.raises(CapacityError) as excinfo:
        sim.evaluate(network, strategy)
    return str(excinfo.value)


class TestMessageByteIdentity:
    def test_vectorized_kernel_matches_scalar(self, case):
        network, strategy = case
        (outcome,) = kernels.score_strategy_batch(
            network, [strategy], TINY, tile_shared=True, enforce_capacity=True
        )
        assert isinstance(outcome, kernels.InfeasibleScore)
        assert outcome.message == scalar_message(network, strategy)

    def test_batched_cache_sentinel_matches_scalar(self, case):
        network, strategy = case
        cache = EvaluationCache()
        sim = Simulator(config=TINY, cache=cache)
        results = sim.evaluate_many(network, [strategy, strategy])
        assert results == [None, None]
        key = EvaluationCache.make_key(
            TINY, network, strategy,
            tile_shared=True, detailed=False, enforce_capacity=True,
        )
        sentinel = cache.get(key)
        assert isinstance(sentinel, _Infeasible)
        assert sentinel.message == scalar_message(network, strategy)

    def test_message_format_is_the_pinned_one(self, case):
        # The exact format PAR003 pins between Simulator._capacity_check
        # and kernels.score_strategy_batch.
        network, strategy = case
        message = scalar_message(network, strategy)
        assert "tiles; one bank holds 1" in message
        assert message.startswith("strategy needs ")
