"""Vectorized cost-model kernels — batch throughput and exactness gates.

Pins the two performance contracts of ``repro.sim.kernels``
(docs/performance.md "Vectorized kernels"):

* a cold single-strategy evaluation (no evaluation-cache entry, warm
  shape tables — the search-loop steady state) completes in <= 100 us;
* scoring a batch of strategies through ``evaluate_many``'s kernel path
  beats the materialising reference loop,
  ``Simulator(cache=None, reference=True)``, by >= 10x end-to-end

while reproducing the reference results bit-for-bit, infeasible
verdicts included.  ``REPRO_BENCH_MODEL`` selects the workload (default
``vgg16``; CI's smoke job uses ``lenet``).
"""

from conftest import run_once

from repro.bench import print_vectorized_profile, vectorized_kernel_profile


def test_vectorized_kernels(benchmark):
    profile = run_once(benchmark, vectorized_kernel_profile)
    print_vectorized_profile(profile)
    benchmark.extra_info["baseline"] = "Simulator(cache=None, reference=True)"
    benchmark.extra_info["model"] = profile.model
    benchmark.extra_info["strategies"] = profile.strategies
    benchmark.extra_info["cold_single_us"] = round(profile.cold_single_us, 1)
    benchmark.extra_info["scalar_single_us"] = round(profile.scalar_single_us, 1)
    benchmark.extra_info["batch_speedup"] = round(profile.batch_speedup, 1)
    benchmark.extra_info["batched_us_per_strategy"] = round(
        profile.batched_us_per_strategy, 1
    )
    # The kernels may never change results — only how fast they arrive.
    assert profile.identical, "vectorized batch diverged from the reference"
    # Cold single-strategy evaluation: the per-iteration budget that keeps
    # annealing / coordinate-ascent / RL loops simulator-bound no more.
    assert profile.cold_single_us <= 100.0, (
        f"cold evaluate took {profile.cold_single_us:.1f} us (budget 100 us)"
    )
    # End-to-end batch scoring must be an order of magnitude ahead of the
    # reference loop, not a marginal win.
    assert profile.batch_speedup >= 10.0, (
        f"batched scoring only {profile.batch_speedup:.1f}x vs reference"
    )
