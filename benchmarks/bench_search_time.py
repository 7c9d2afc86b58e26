"""§4.5 — RL search time, its decision/simulator split, and the
evaluation-cache speedup.

Regenerates the search-time discussion: total wall-clock for the VGG16
search and the share spent waiting for simulator feedback versus making
decisions and learning — measured on the *uncached* reference simulator,
where the paper's claim lives.

Expected shape (paper §4.5): the simulator dominates the search time (the
paper reports 97% on MNSIM; our analytic simulator is far cheaper than
MNSIM, so the measured share is lower — see EXPERIMENTS.md).

The second benchmark measures what the caching stack recovers: annealing
and coordinate-ascent searches on the default ``Simulator()`` must run
>= 10x faster than on the cold reference,
``Simulator(cache=None, reference=True)``, at paper scale (>= 2x on the tiny CI
smoke model) while reproducing its results bit-for-bit
(docs/performance.md).  ``REPRO_BENCH_MODEL`` selects the workload
(default ``vgg16``; CI's smoke job uses ``lenet``).

The third benchmark records the DDPG learner's cost: a lenet AutoHet
search repeated ``LEARNER_REPEATS`` times, publishing microseconds per
gradient update and the learner's share of search time.  It asserts
only that the repeats reproduce one reward history, never a wall-time
floor; the longitudinal record is ``BENCH_search_time.json``.
"""

import statistics

from conftest import run_once

from repro.bench import (
    default_rounds,
    print_search_cache,
    print_search_time,
    search_cache_profile,
    search_time_profile,
)
from repro.core.autohet import AutoHet
from repro.models import lenet

LEARNER_REPEATS = 3


def test_search_time_profile(benchmark):
    result = run_once(benchmark, search_time_profile)
    print_search_time(result)
    assert result.total_seconds > 0
    # On the uncached reference simulator, feedback remains the single
    # largest phase of the search loop.
    assert result.simulator_seconds > result.decision_seconds
    assert result.cache_stats is None
    assert len(result.reward_history) == result.rounds + result.seed_episodes


def test_search_cache_speedup(benchmark):
    comparisons = run_once(benchmark, search_cache_profile)
    print_search_cache(comparisons)
    benchmark.extra_info["baseline"] = "Simulator(cache=None, reference=True)"
    for comp in comparisons:
        benchmark.extra_info[f"{comp.label}_speedup"] = round(comp.speedup, 2)
        benchmark.extra_info[f"{comp.label}_hit_rate"] = round(
            comp.cache_stats.hit_rate, 4
        )
        benchmark.extra_info[f"{comp.label}_infeasible"] = comp.infeasible
        # The cache may never change results — only how fast they arrive.
        assert comp.identical, f"{comp.label}: cached result differs from cold"
        # The strategy-level cache must actually be exercised.
        assert comp.cache_stats.hits > 0, f"{comp.label}: no cache hits"
        assert comp.cache_stats.hit_rate > 0.0
        # On the paper-scale workload the caching + vectorized-kernel
        # stack must recover an order of magnitude (measured ~60-90x);
        # the CI smoke model (lenet) is too cheap per evaluation to
        # amortise the batch overheads that far, so it keeps the
        # original 2x floor.
        floor = 10.0 if comp.model == "vgg16" else 2.0
        assert comp.speedup >= floor, (
            f"{comp.label}: only {comp.speedup:.2f}x with cache enabled "
            f"(floor {floor}x on {comp.model})"
        )


def _learner_searches():
    """Repeat one lenet search; return (result, gradient updates) pairs."""
    runs = []
    for _ in range(LEARNER_REPEATS):
        autohet = AutoHet(lenet(), seed=0)
        result = autohet.search(rounds=default_rounds())
        # Every gradient update appends one critic loss.
        runs.append((result, len(autohet.agent.critic_losses)))
    return runs


def test_learner_update_profile(benchmark):
    runs = run_once(benchmark, _learner_searches)
    updates = runs[0][1]
    assert updates > 0
    update_us = [r.learning_seconds / n * 1e6 for r, n in runs]
    shares = [r.learning_seconds / r.total_seconds for r, _ in runs]
    benchmark.extra_info["learner_repeats"] = len(runs)
    benchmark.extra_info["learner_updates_per_search"] = updates
    benchmark.extra_info["learner_update_us_median"] = round(
        statistics.median(update_us), 1
    )
    benchmark.extra_info["learner_update_us_min"] = round(min(update_us), 1)
    benchmark.extra_info["learner_update_us_max"] = round(max(update_us), 1)
    benchmark.extra_info["learner_share_median"] = round(
        statistics.median(shares), 4
    )
    print(
        f"learner: {updates} updates/search, "
        f"median {statistics.median(update_us):.0f} us/update, "
        f"median share {statistics.median(shares):.1%} of search time"
    )
    # Speed work on the learner must never change what a search does.
    histories = {r.reward_history for r, _ in runs}
    assert len(histories) == 1, "repeated searches diverged"
