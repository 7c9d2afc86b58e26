"""The four benchmark workloads, each driven through public entry points.

A workload turns a benchmark ``--seed`` into a list of input keys,
builds the inputs for one key (``prepare``), runs the timed call, and
reduces the result to an :class:`Outcome`: the operations it performed,
the correctness problems it found, the values pinned in ``pins.json``,
and the simulated figures it reports.  ``repro`` is imported inside the
functions, never at module level, because the set-up measurement
re-imports the package.

Why each workload exists is written in ``README.md`` next to this file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

#: the paper's search length for VGG16 (§4.5)
SEARCH_ROUNDS = 300
#: annealing / random-search rounds per sweep call
SWEEP_ROUNDS = 1000
#: simulated horizon of serve-steady, ns (~122k requests)
STEADY_HORIZON_NS = 45e9


def digest(value) -> str:
    """Stable digest of a JSON-able value (floats keep every digit)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=12).hexdigest()


@dataclass
class Outcome:
    """What one workload call produced, reduced for checking and metrics."""

    ops: int
    #: operations that failed without a wrong result (rejected requests)
    rejected: int = 0
    problems: list[str] = field(default_factory=list)
    #: pin key -> value; equal keys must give equal values everywhere
    pins: dict[str, object] = field(default_factory=dict)
    #: simulated figures printed by name (they repeat exactly per input)
    sim: dict[str, float] = field(default_factory=dict)
    #: evaluation-cache counters, when the call has a ``Simulator``
    cache: dict[str, int] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)


def _cache_counts(simulator) -> dict[str, int]:
    # Plain ints only: an outcome outlives its call, and a repro object
    # would keep that call's whole module generation alive.
    stats = simulator.cache_stats()
    return {"hits": stats.hits, "misses": stats.misses,
            "evictions": stats.evictions}


def _strategy_str(strategy) -> str:
    return ",".join(str(shape) for shape in strategy)


def _reevaluate(network, strategy, expected) -> list[str]:
    """The best strategy must reproduce its metrics on an uncached simulator."""
    from repro.sim.simulator import Simulator

    fresh = Simulator(cache=None).evaluate(network, strategy, detailed=False)
    if fresh != expected:
        return [f"{network.name}: best strategy re-evaluates to other metrics"]
    return []


class Workload:
    """Defaults the workloads below share."""

    name = ""
    op_unit = ""

    @staticmethod
    def held_out(seed: int) -> list:
        """Inputs checked and reported apart from the timed comparison."""
        return []


class SearchVGG16(Workload):
    """``autohet_multi_seed`` on VGG16/CIFAR-10, 300 rounds, two seeds, serial."""

    name = "search-vgg16"
    op_unit = "episodes"

    @staticmethod
    def inputs(seed: int) -> list:
        return [(2 * seed, 2 * seed + 1)]

    @staticmethod
    def prepare(key):
        from repro.models.zoo import get_model
        from repro.sim.simulator import Simulator

        return {"network": get_model("vgg16"), "simulator": Simulator(),
                "seeds": key}

    @staticmethod
    def call(state):
        from repro.core import autohet

        return autohet.autohet_multi_seed(
            state["network"], seeds=state["seeds"], rounds=SEARCH_ROUNDS,
            simulator=state["simulator"],
        )

    @staticmethod
    def outcome(state, result) -> Outcome:
        best, per_seed = result
        network = state["network"]
        out = Outcome(ops=sum(len(r.reward_history) for r in per_seed),
                      cache=_cache_counts(state["simulator"]))
        for seed, r in zip(state["seeds"], per_seed):
            out.pins[f"{SearchVGG16.name}/{seed}"] = {
                "best_reward": r.best_metrics.reward,
                "best_strategy": _strategy_str(r.best_strategy),
                "reward_history": digest(list(r.reward_history)),
            }
            if r.best_reward_history[-1] != r.best_metrics.reward:
                out.problems.append(f"seed {seed}: best reward is not the "
                                    "last running best")
            out.problems += _reevaluate(network, r.best_strategy, r.best_metrics)
        if best.best_metrics.reward != max(r.best_metrics.reward for r in per_seed):
            out.problems.append("multi-seed best is not the best seed")
        out.sim["best_rue"] = best.best_metrics.rue
        return out


class SweepResNet152(Workload):
    """Annealing, then random search, on one shared ``Simulator``."""

    name = "sweep-resnet152"
    op_unit = "evaluations"

    @staticmethod
    def inputs(seed: int) -> list:
        return [4 * seed + i for i in range(4)]

    @staticmethod
    def prepare(key):
        from repro.models.zoo import get_model
        from repro.sim.simulator import Simulator

        return {"network": get_model("resnet152"), "simulator": Simulator(),
                "seed": key}

    @staticmethod
    def call(state):
        from repro.arch.config import DEFAULT_CANDIDATES
        from repro.core import search

        net, sim, seed = state["network"], state["simulator"], state["seed"]
        anneal = search.simulated_annealing(
            net, DEFAULT_CANDIDATES, sim, rounds=SWEEP_ROUNDS, seed=seed)
        rand = search.random_search(
            net, DEFAULT_CANDIDATES, sim, rounds=SWEEP_ROUNDS, seed=seed)
        return anneal, rand

    @staticmethod
    def outcome(state, result) -> Outcome:
        network = state["network"]
        out = Outcome(ops=sum(r.evaluations for r in result),
                      cache=_cache_counts(state["simulator"]))
        out.pins[f"{SweepResNet152.name}/{state['seed']}"] = [
            {
                "best_reward": r.metrics.reward,
                "best_strategy": digest(_strategy_str(r.strategy)),
                "evaluations": r.evaluations,
                "infeasible": r.infeasible,
            }
            for r in result
        ]
        for r in result:
            out.problems += _reevaluate(network, r.strategy, r.metrics)
        out.sim["best_rue"] = max(r.metrics.rue for r in result)
        return out


class _Serve(Workload):
    """Shared run and checks of the two serving workloads."""

    op_unit = "requests"

    @staticmethod
    def scenario(seed: int):
        raise NotImplementedError

    @classmethod
    def prepare(cls, key):
        return {"scenario": cls.scenario(key), "seed": key}

    @staticmethod
    def call(state):
        from repro import serve

        result = serve.simulate(state["scenario"])
        return result, serve.build_report(result)

    @classmethod
    def outcome(cls, state, result_report) -> Outcome:
        from repro.serve import validate_report

        result, report = result_report
        out = Outcome(ops=result.total_arrivals, rejected=result.total_rejected)
        out.problems += validate_report(report)
        in_flight = sum(t.in_flight for t in result.tenants)
        if result.total_arrivals != (
            result.total_completed + result.total_rejected + in_flight
        ):
            out.problems.append("arrivals != completed + rejected + in_flight")
        out.pins[f"{cls.name}/{state['seed']}"] = digest(report)
        tenants = report["tenants"].values()
        out.sim["slo_attainment"] = min(t["slo_attainment"] for t in tenants)
        out.sim["p99_sim_ms"] = max(t["p99_ns"] for t in tenants) / 1e6
        out.counts["serve.events"] = result.events_processed
        out.counts["serve.realloc_events"] = len(result.realloc_events)
        return out


class ServeDrift(_Serve):
    """The builtin two-tenant scenario: AlexNet+VGG16, mix inverts at 100 ms."""

    name = "serve-drift"

    # The number of re-packs the policy attempts depends on the arrival
    # stream (0.45-2.3 s per call across scenario seeds 0-47), so timed
    # comparisons always use scenario seed 0, the builtin default; each
    # run also checks and reports one held-out scenario seed.
    @staticmethod
    def inputs(seed: int) -> list:
        return [0]

    @staticmethod
    def held_out(seed: int) -> list:
        return [seed + 1]

    @staticmethod
    def scenario(seed: int):
        from repro.serve import two_tenant_scenario

        return two_tenant_scenario(seed=seed)


class ServeSteady(_Serve):
    """lenet+tinycnn at sustainable rates over a long horizon."""

    name = "serve-steady"

    # Failed re-pack attempts depend on the arrival stream too: one call
    # makes 24 to ~1100 allocate_multi_network calls across scenario
    # seeds 0-7 (1.0-2.6 s), so timed calls use scenario seed 0, as in
    # serve-drift, and each run checks and reports held-out seed s + 1.
    @staticmethod
    def inputs(seed: int) -> list:
        return [0]

    @staticmethod
    def held_out(seed: int) -> list:
        return [seed + 1]

    @staticmethod
    def scenario(seed: int):
        # The scenario of benchmarks/bench_serve.py, 5x its horizon.
        from repro.serve import ArrivalPhase, ReallocConfig, Scenario, TenantSpec

        return Scenario(
            name="serve-steady",
            duration_ns=STEADY_HORIZON_NS,
            seed=seed,
            max_batch=8,
            queue_cap=0,
            realloc=ReallocConfig(
                enabled=True, threshold=0.15, window=128, check_every=32,
                stall_ns=5e4, cooldown_ns=5e8, headroom=2.5,
            ),
            tenants=(
                TenantSpec(
                    name="lenet", model="lenet", shape="64x64",
                    rate_rps=1100.0,
                    phases=(ArrivalPhase(at_ns=4.5e9, rate_rps=2400.0),),
                    slo_ns=5e6,
                ),
                TenantSpec(
                    name="tinycnn", model="tinycnn", shape="64x64",
                    rate_rps=800.0,
                    phases=(ArrivalPhase(at_ns=4.5e9, rate_rps=400.0),),
                    slo_ns=8e6,
                ),
            ),
        )


WORKLOADS = {w.name: w for w in (SearchVGG16, SweepResNet152, ServeDrift, ServeSteady)}
