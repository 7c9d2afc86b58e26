"""What crosses a process boundary, and the cache lock that stays in-process.

``autohet_multi_seed(max_workers=N)`` runs one seed per worker process:
the network, a cache-less tracer-less simulator and the candidates are
pickled out, and a :class:`SearchResult` is pickled back.  These tests
pin that every one of those objects survives a pickle round trip, that
the process fan-out reproduces the serial search seed for seed, and that
a tracer — which a worker cannot write to — is refused up front.

The last test keeps the :class:`EvaluationCache` lock honest: user code
may share one cache between threads, so concurrent ``get``/``put`` must
neither lose nor overfill entries, nor miscount lookups.
"""

from __future__ import annotations

import pickle
import sys
import threading
from dataclasses import replace

import pytest

from repro.arch.config import DEFAULT_CANDIDATES, CrossbarShape
from repro.core.autohet import autohet_multi_seed, autohet_search
from repro.models.zoo import lenet
from repro.obs import InMemorySink, Tracer, use_tracer
from repro.obs.trace import NULL_TRACER
from repro.sim.cache import EvaluationCache
from repro.sim.simulator import Simulator


def round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


def uniform(network, shape):
    return tuple(shape for _ in range(network.num_layers))


class TestPickleRoundTrip:
    def test_cacheless_worker_simulator(self):
        worker = replace(Simulator(), cache=None, tracer=NULL_TRACER)
        copy = round_trip(worker)
        assert copy == worker
        assert copy.cache is None

    def test_network_with_kernel_stashes(self):
        network = lenet()
        batch = [uniform(network, shape) for shape in DEFAULT_CANDIDATES]
        expected = Simulator(cache=None).evaluate_many(network, batch)
        arrays = network.__dict__["_kernel_arrays"]
        assert "_shape_tables" in arrays.__dict__
        copy = round_trip(network)
        assert copy == network
        assert "_shape_tables" in copy.__dict__["_kernel_arrays"].__dict__
        assert Simulator(cache=None).evaluate_many(copy, batch) == expected

    def test_search_result(self, tiny_net):
        result = autohet_search(tiny_net, rounds=2, seed=0)
        assert round_trip(result) == result


class TestMultiSeedProcesses:
    def test_matches_serial_seed_for_seed(self, tiny_net):
        _, serial = autohet_multi_seed(tiny_net, seeds=(0, 1), rounds=4)
        _, fanned = autohet_multi_seed(
            tiny_net, seeds=(0, 1), rounds=4, max_workers=2
        )
        assert len(fanned) == len(serial) == 2
        for s, f in zip(serial, fanned):
            assert f.reward_history == s.reward_history
            assert f.best_strategy == s.best_strategy
            assert f.best_metrics == s.best_metrics

    def test_explicit_tracer_is_refused(self, tiny_net):
        tracer = Tracer([InMemorySink()])
        with pytest.raises(ValueError, match="max_workers") as excinfo:
            autohet_multi_seed(
                tiny_net, seeds=(0, 1), rounds=1, max_workers=2, tracer=tracer
            )
        assert "tracer" in str(excinfo.value)

    def test_enabled_ambient_tracer_is_refused(self, tiny_net):
        with use_tracer(Tracer([InMemorySink()])):
            with pytest.raises(ValueError, match="max_workers") as excinfo:
                autohet_multi_seed(
                    tiny_net, seeds=(0, 1), rounds=1, max_workers=2
                )
        assert "tracer" in str(excinfo.value)


def test_cache_lock_keeps_counts_under_threads(tiny_net):
    threads_n, keys_per_thread, max_size = 8, 200, 50
    cache = EvaluationCache(max_size=max_size)
    shape = CrossbarShape(64, 64)
    keys = [
        EvaluationCache.make_key(
            Simulator().config,
            tiny_net,
            (shape,) * (i + 1),
            tile_shared=True,
            detailed=False,
            enforce_capacity=True,
        )
        for i in range(keys_per_thread)
    ]
    # Overlapping key sets: every key is looked up and inserted by all
    # eight threads, so hits, misses and evictions interleave on the same
    # entries.  Without the lock two puts can both pass the size check
    # and overfill the cache.
    start = threading.Barrier(threads_n)

    def worker(offset: int) -> None:
        start.wait(timeout=30)
        for i in range(keys_per_thread):
            key = keys[(i + offset) % keys_per_thread]
            if cache.get(key) is None:
                cache.put(key, key)

    threads = [
        threading.Thread(target=worker, args=(t * 25,)) for t in range(threads_n)
    ]
    # A short switch interval makes the threads interleave inside
    # get/put, where a missing lock would lose an update.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)

    stats = cache.stats()
    assert stats.hits + stats.misses == threads_n * keys_per_thread
    assert stats.size == len(cache) == max_size
    assert stats.size + stats.evictions <= stats.misses
    survivors = [key for key in keys if key in cache]
    assert len(survivors) == max_size
    assert all(cache.get(key) == key for key in survivors)
