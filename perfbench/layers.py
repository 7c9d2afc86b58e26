"""Per-layer host-time attribution for the traced benchmark run.

The traced run wraps the public entry points of each layer at their
module (or class) bindings and times every call with a benchmark-local
clock and span stack.  It never installs a ``repro.obs`` tracer: an
enabled tracer sends ``Simulator.evaluate_many`` off the batched-kernel
path and adds a critic forward pass to every DDPG update, so the traced
run would time a different program.

Self time of a span is its duration minus the time covered by the spans
it encloses, so the self times of one call sum to its traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from collections.abc import Sized

#: (span name, defining module, attribute) for every wrapped entry point.
#: Module-level functions are patched at every ``repro.*`` binding that
#: holds them (``engine.py`` and ``policy.py`` import
#: ``allocate_multi_network`` by name); methods at their class.
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("rl.learn", "repro.core.rl.ddpg", "DDPGAgent.learn"),
    ("rl.replay_sample", "repro.core.rl.replay", "ExperiencePool.sample"),
    ("rl.mlp_backward", "repro.core.rl.networks", "MLP.backward"),
    ("rl.adam_step", "repro.core.rl.networks", "Adam.step"),
    ("rl.target_sync", "repro.core.rl.networks", "MLP.soft_update_from"),
    ("rl.act", "repro.core.rl.ddpg", "DDPGAgent.act"),
    ("rl.observe", "repro.core.rl.ddpg", "DDPGAgent.observe_episode"),
    ("env.step", "repro.core.rl.environment", "CrossbarSearchEnv.step"),
    ("env.finish", "repro.core.rl.environment", "CrossbarSearchEnv.finish"),
    ("sim.evaluate", "repro.sim.simulator", "Simulator.evaluate"),
    ("sim.evaluate_many", "repro.sim.simulator", "Simulator.evaluate_many"),
    ("search.anneal", "repro.core.search.annealing", "simulated_annealing"),
    ("search.random", "repro.core.search.strategies", "random_search"),
    ("alloc.multi_network", "repro.core.allocation.multi_model",
     "allocate_multi_network"),
    ("alloc.tile_based", "repro.core.allocation.tile_based",
     "allocate_tile_based"),
    ("alloc.tile_shared", "repro.core.allocation.tile_shared",
     "apply_tile_sharing"),
    ("alloc.check", "repro.analysis.checkers", "check_allocation"),
    ("serve.arrivals", "repro.serve.scenario", "generate_arrivals"),
    ("serve.policy_decide", "repro.serve.policy",
     "DriftReallocationPolicy.decide"),
    ("serve.loop", "repro.serve.engine", "simulate"),
    ("serve.report", "repro.serve.report", "build_report"),
)

#: span enclosing one whole workload call; its self time is the share of
#: the call no named layer covers.
ROOT = "workload"


class SpanRecorder:
    """Span stack plus per-name self time, inclusive time and call count."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.stack: list[list] = []  # [name, start, time covered by children]
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.calls: Counter = Counter()
        #: per-span work counts (strategies handed to ``evaluate_many``)
        self.items: Counter = Counter()

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, covered = self.stack.pop()
        duration = self.clock() - start
        self.self_s[name] += duration - covered
        self.total_s[name] += duration
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += duration

    def wrap(self, name: str, fn):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            recorder.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.exit()

        return traced

    def wrap_evaluate_many(self, name: str, fn):
        """Like :meth:`wrap`, also counting the strategies in each batch."""
        recorder = self

        @functools.wraps(fn)
        def traced(sim, network, strategies, *args, **kwargs):
            if not isinstance(strategies, Sized):
                strategies = tuple(strategies)
            recorder.items[name] += len(strategies)
            recorder.enter(name)
            try:
                return fn(sim, network, strategies, *args, **kwargs)
            finally:
                recorder.exit()

        return traced


def _bindings(module_name: str, attr: str) -> list[tuple[object, str, object]]:
    """Every ``(owner, name, original)`` binding to patch for one layer."""
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(module, cls_name)
        return [(cls, method, cls.__dict__[method])]
    original = getattr(module, attr)
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                found.append((mod, name, original))
    return found


class Instrumented:
    """Context manager: every layer in :data:`LAYERS` reports to ``recorder``."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> SpanRecorder:
        try:
            for span, module_name, attr in LAYERS:
                for owner, name, original in _bindings(module_name, attr):
                    if span == "sim.evaluate_many":
                        wrapped = self.recorder.wrap_evaluate_many(span, original)
                    else:
                        wrapped = self.recorder.wrap(span, original)
                    setattr(owner, name, wrapped)
                    self._undo.append((owner, name, original))
        except BaseException:
            self._restore()
            raise
        return self.recorder

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
