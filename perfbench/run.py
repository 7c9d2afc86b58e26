#!/usr/bin/env python3
"""Host-time benchmark of the AutoHet reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload search-vgg16 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process
    python3 perfbench/run.py --workload serve-drift --seed 3 --regen   # refresh pins

Each run imports ``repro`` from ``src/`` next to this directory, measures
set-up, calls the workload repeatedly until ``--seconds`` are spent, and
checks every call: simulated results are deterministic, so each must
match its pin in ``pins.json`` (when pinned), every other call on the
same input, and the workload's own invariants.  Call times are scaled to
a reference host speed measured around and during each call
(:class:`HostSpeed`).
``--trace 1`` runs each input untraced and traced and reports host time
per layer instead.

The last line of standard output is one JSON object; the exit code is 1
when any check failed and 2 when the package cannot be loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PINS = HERE / "pins.json"
#: fewest set-up samples a run reports the median of
SETUP_REPEATS = 15
#: time of the reference kernels (:func:`reference_s`) on the reference
#: host, a quiet stretch of the 2-vCPU machine the benchmark was tuned on
REFERENCE_S = 0.0055
#: seconds between the host-speed samples taken while a timed call runs
SAMPLE_PERIOD_S = 0.25
clock = time.perf_counter

#: end-to-end metrics: (name, unit); every workload reports all of them
END_TO_END = (
    ("setup_s", "s"),
    ("call_ref_s", "s"),
    ("ops_per_ref_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def _python_kernel() -> None:
    # Small tuples, lists and floats through a dict, as the simulator,
    # allocation and serving layers build them.
    table: dict = {}
    for i in range(12_000):
        key = (i & 255, i % 7)
        entry = table.get(key)
        if entry is None:
            table[key] = entry = []
        entry.append(i * 0.5)


_MATRICES = []


def _numpy_kernel() -> None:
    import numpy as np

    # Matrices the size of the DDPG layers: small enough that BLAS stays
    # on one thread, like the program it stands in for.
    if not _MATRICES:
        rng = np.random.default_rng(0)
        _MATRICES.extend(rng.standard_normal((64, 64)) for _ in range(2))
    a, b = _MATRICES
    for _ in range(150):
        (np.maximum(a @ b, 0.0).T @ a).sum(axis=0)


def reference_s(chunks: int = 5) -> float:
    """Host time of the fixed reference kernels, as the host runs now.

    The host the benchmark shares slows everything by up to 2x for
    stretches of seconds to minutes, and interpreter-bound and NumPy-bound
    code slow by different amounts, so this is the geometric mean of the
    median time of a pure-Python and of a small-matrix NumPy kernel.
    """
    times = {}
    for kernel in (_python_kernel, _numpy_kernel):
        samples = []
        for _ in range(chunks):
            start = clock()
            kernel()
            samples.append(clock() - start)
        times[kernel] = statistics.median(samples)
    return (times[_python_kernel] * times[_numpy_kernel]) ** 0.5


class HostSpeed:
    """Samples :func:`reference_s` before, after and during one call.

    The samples during the call come from a timer signal, whose handler
    runs between bytecodes of the main thread; the time they take is
    kept in ``paused`` and taken off the call's time.
    """

    def __enter__(self) -> HostSpeed:
        self.samples = [reference_s()]
        self.paused = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def _sample(self, signum, frame) -> None:
        start = clock()
        self.samples.append(reference_s(chunks=1))
        self.paused += clock() - start

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(reference_s())

    def scaled(self, seconds: float) -> float:
        """``seconds`` of the call, as the reference host would take them."""
        return seconds * REFERENCE_S / statistics.median(self.samples)


def fresh_prepare(workload, key):
    """Import ``repro`` afresh and build one input; returns ``(state, s)``.

    Every timed call starts from this state: a new import has empty
    module-level caches, and new inputs carry no instance stashes.
    """
    for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]
    # Free the previous generation of modules and results, so every call
    # also starts from the same heap and collector state.
    gc.collect()
    start = clock()
    state = workload.prepare(key)
    return state, clock() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checker:
    """Compares every outcome with the pins and with earlier calls."""

    def __init__(self, pins: dict) -> None:
        self.pins = pins
        self.seen: dict[str, object] = {}
        self.pinned = self.unpinned = 0

    def problems(self, outcome) -> list[str]:
        found = list(outcome.problems)
        for key, value in outcome.pins.items():
            # Round-trip through JSON so values compare as stored.
            value = json.loads(json.dumps(value))
            if key in self.pins:
                self.pinned += 1
                if self.pins[key] != value:
                    found.append(f"{key}: result differs from its pin")
            else:
                self.unpinned += 1
            if key in self.seen and self.seen[key] != value:
                found.append(f"{key}: result differs between calls")
            self.seen.setdefault(key, value)
        return found


class Tally:
    """Attempted and failed operations of one workload run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong_calls = 0  #: calls that raised or failed a check

    def add(self, outcome, problems: list[str]) -> None:
        self.attempted += outcome.ops
        # A wrong result fails the whole call; a rejected request is one
        # failed operation of a correct call.
        self.failed += outcome.ops if problems else outcome.rejected
        self.wrong_calls += bool(problems)


class _Raised:
    """Stand-in outcome of a call that raised: one failed operation."""

    ops = 1
    rejected = 0
    problems: list[str] = []
    pins: dict = {}
    sim: dict = {}
    cache: dict = {}
    counts: dict = {}


def run_call(workload, key, checker, tally, recorder=None, setups=None,
             speed=None):
    """Prepare, time and check one call; returns ``(seconds, outcome, ok)``.

    The set-up time is appended to ``setups`` when given; a
    :class:`HostSpeed` given as ``speed`` samples the untraced call.
    """
    from layers import ROOT, Instrumented

    try:
        state, setup_s = fresh_prepare(workload, key)
        if setups is not None:
            setups.append(setup_s)
        if recorder is None:
            with speed or contextlib.nullcontext():
                start = clock()
                result = workload.call(state)
                seconds = clock() - start
            if speed is not None:
                seconds -= speed.paused
        else:
            with Instrumented(recorder):
                before = recorder.total_s[ROOT]
                recorder.enter(ROOT)
                try:
                    result = workload.call(state)
                finally:
                    recorder.exit()
                seconds = recorder.total_s[ROOT] - before
        outcome = workload.outcome(state, result)
    except Exception:
        traceback.print_exc()
        tally.add(_Raised, ["raised"])
        return None, _Raised, False
    problems = checker.problems(outcome)
    for problem in problems:
        print(f"CHECK FAILED [{workload.name} input {key}]: {problem}",
              file=sys.stderr)
    tally.add(outcome, problems)
    return seconds, outcome, not problems


def _deadline_loop(keys, seconds: float, body) -> None:
    """Call ``body(key)`` over ``keys`` cyclically until ``seconds`` pass.

    A call starts only if the median call so far fits in the time left,
    so a run ends close to ``seconds``; at least one call always runs.
    """
    start = clock()
    durations: list[float] = []
    i = 0
    while True:
        t0 = clock()
        body(keys[i % len(keys)])
        durations.append(clock() - t0)
        i += 1
        if clock() - start + statistics.median(durations) > seconds:
            return


def _median_of(outcomes, name: str) -> float | None:
    values = [o.sim[name] for o in outcomes if name in o.sim]
    return statistics.median(values) if values else None


def run_untraced(workload, seed: int, seconds: float, checker) -> tuple[dict, Tally]:
    keys = workload.inputs(seed)
    tally = Tally()
    #: (host seconds, the same scaled to the reference host, outcome)
    calls: list[tuple[float, float, object]] = []
    setups: list[float] = []
    start = clock()
    # Held-out inputs run first and so also warm the process up.
    held_out = [(key, run_call(workload, key, checker, tally))
                for key in workload.held_out(seed)]

    def body(key):
        speed = HostSpeed()
        secs, outcome, ok = run_call(workload, key, checker, tally,
                                     setups=setups, speed=speed)
        if ok:
            calls.append((secs, speed.scaled(secs), outcome))

    _deadline_loop(keys, seconds - (clock() - start), body)
    while len(setups) < SETUP_REPEATS:
        setups.append(fresh_prepare(workload, keys[0])[1])
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    if calls:
        metrics["call_ref_s"] = statistics.median(ref for _, ref, _ in calls)
        metrics["ops_per_ref_s"] = statistics.median(o.ops / ref for _, ref, o in calls)
    _print_untraced(workload, seed, metrics, calls, tally)
    for key, (secs, outcome, ok) in held_out:
        if ok:
            print(f"  held-out input {key}: host call {secs:.6g} s, "
                  f"{outcome.ops / secs:.6g} {workload.op_unit}/s, "
                  + ", ".join(f"{k} {v:.10g}" for k, v in outcome.sim.items()))
    return metrics, tally


def per_layer_names() -> list[tuple[str, str]]:
    """``(name, unit)`` of every per-layer metric; a traced run reports all
    of them, 0 where a workload never enters the layer."""
    from layers import LAYERS

    names = []
    for span, _, _ in LAYERS:
        names += [(f"{span}.self_s", "s"), (f"{span}.calls", "count")]
    names += [
        ("sim.evaluate_many.strategies", "count"),
        ("sim.cache.hits", "count"),
        ("sim.cache.misses", "count"),
        ("sim.cache.evictions", "count"),
        ("sim.cache.hit_rate", "fraction"),
        ("serve.events", "count"),
        ("serve.realloc_events", "count"),
        ("unattributed", "fraction"),
        ("traced_call_s", "s"),
        ("trace_overhead", "ratio"),
    ]
    return names


def run_traced(workload, seed: int, seconds: float, checker) -> tuple[dict, Tally]:
    """Untraced and traced call on each input; per-layer means per call."""
    from layers import LAYERS, ROOT, SpanRecorder

    keys = workload.inputs(seed)
    tally = Tally()
    recorder = SpanRecorder(clock)
    plain_s: list[float] = []
    traced_s: list[float] = []
    traced: list[object] = []

    def body(key):
        # Alternate which of the pair runs first, so neither side always
        # pays for growing the process's memory.
        if len(traced) % 2:
            t_secs, outcome, t_ok = run_call(workload, key, checker, tally, recorder)
            secs, _, ok = run_call(workload, key, checker, tally)
        else:
            secs, _, ok = run_call(workload, key, checker, tally)
            t_secs, outcome, t_ok = run_call(workload, key, checker, tally, recorder)
        if ok and t_ok:
            plain_s.append(secs)
            traced_s.append(t_secs)
            traced.append(outcome)

    _deadline_loop(keys, seconds, body)
    n = max(len(traced), 1)
    metrics: dict[str, float] = {}
    for span, _, _ in LAYERS:
        metrics[f"{span}.self_s"] = recorder.self_s[span] / n
        metrics[f"{span}.calls"] = recorder.calls[span] / n
    metrics["sim.evaluate_many.strategies"] = (
        recorder.items["sim.evaluate_many"] / n
    )
    cache = Counter()
    for o in traced:
        cache.update(o.cache)
    for name in ("hits", "misses", "evictions"):
        metrics[f"sim.cache.{name}"] = cache[name] / n
    lookups = cache["hits"] + cache["misses"]
    metrics["sim.cache.hit_rate"] = cache["hits"] / lookups if lookups else 0.0
    for name in ("serve.events", "serve.realloc_events"):
        metrics[name] = sum(o.counts.get(name, 0) for o in traced) / n
    total = recorder.total_s[ROOT]
    metrics["unattributed"] = recorder.self_s[ROOT] / total if total else 0.0
    metrics["traced_call_s"] = statistics.median(traced_s) if traced_s else 0.0
    metrics["trace_overhead"] = sum(traced_s) / sum(plain_s) if plain_s else 0.0
    _print_traced(workload, seed, metrics, recorder, len(traced))
    return metrics, tally


# ----------------------------------------------------------------------
# human-readable report
# ----------------------------------------------------------------------
#: the workload-specific names of the generic end-to-end metrics
NAMED = {
    "search-vgg16": {"call_ref_s": ("search_s", "s")},
    "sweep-resnet152": {"ops_per_ref_s": ("sweep_evals_per_s", "1/s")},
    "serve-drift": {"ops_per_ref_s": ("serve_req_per_s", "1/s")},
    "serve-steady": {"ops_per_ref_s": ("serve_req_per_s", "1/s")},
}
SIM_UNITS = {"best_rue": "%/nJ", "slo_attainment": "fraction", "p99_sim_ms": "ms"}


def _print_untraced(workload, seed, metrics, calls, tally) -> None:
    print(f"== {workload.name} seed {seed}: {len(calls)} checked call(s), "
          f"{tally.attempted} {workload.op_unit}, {tally.failed} failed")
    for name, unit in END_TO_END:
        if name in metrics:
            alias = NAMED.get(workload.name, {}).get(name)
            label = f"{name} ({alias[0]})" if alias else name
            print(f"  {label:<32} {metrics[name]:.6g} {unit}")
    if calls:
        host = [secs for secs, _, _ in calls]
        print(f"  {'host call, median (fastest)':<32} "
              f"{statistics.median(host):.6g} ({min(host):.6g}) s")
    print(f"  {'failed_frac':<32} {tally.failed / tally.attempted:.6g} fraction")
    outcomes = [o for _, _, o in calls]
    for name, unit in SIM_UNITS.items():
        value = _median_of(outcomes, name)
        if value is not None:
            print(f"  {name + ' (simulated)':<32} {value:.10g} {unit}")


def _print_traced(workload, seed, metrics, recorder, n_calls) -> None:
    from layers import ROOT

    wall = recorder.total_s[ROOT]
    print(f"== {workload.name} seed {seed} traced: {n_calls} call pair(s), "
          f"overhead {metrics['trace_overhead']:.4f}x")
    rows = sorted(recorder.self_s.items(), key=lambda kv: -kv[1])
    for span, self_s in rows:
        label = "unattributed" if span == ROOT else span
        share = self_s / wall if wall else 0.0
        print(f"  {label:<24} {self_s / max(n_calls, 1):10.6f} s/call "
              f"{share:7.2%}  {recorder.calls[span] / max(n_calls, 1):10.1f} calls")


# ----------------------------------------------------------------------
def _load_repro() -> bool:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return False
    return True


def _regen(workload, seed: int) -> int:
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    checker = Checker({})
    tally = Tally()
    for key in workload.inputs(seed):
        _, outcome, ok = run_call(workload, key, checker, tally)
        if not ok:
            print(f"perfbench: {workload.name} input {key} failed its checks; "
                  "pins not written", file=sys.stderr)
            return 1
        pins.update(json.loads(json.dumps(outcome.pins)))
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {workload.name} seed {seed}: {len(workload.inputs(seed))} input(s)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen", action="store_true",
                        help="rewrite the pins of this seed's inputs")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not _load_repro():
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        selected = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        selected = [WORKLOADS[args.workload]]
    else:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)} or 'all'")
    if args.regen:
        return max(_regen(w, args.seed) for w in selected)

    checker = Checker(json.loads(PINS.read_text()) if PINS.exists() else {})
    attempted = failed = wrong_calls = 0
    metrics: dict[str, dict] = {}
    units = dict(per_layer_names() if args.trace else END_TO_END)
    for workload in selected:
        run = run_traced if args.trace else run_untraced
        values, tally = run(workload, args.seed, args.seconds, checker)
        attempted += tally.attempted
        failed += tally.failed
        wrong_calls += tally.wrong_calls
        prefix = "" if len(selected) == 1 else f"{workload.name}."
        for name, unit in units.items():
            if name in values:
                metrics[prefix + name] = {"value": values[name], "unit": unit}
    print(f"checks: {checker.pinned} pinned result(s) compared, "
          f"{checker.unpinned} unpinned")
    correct = wrong_calls == 0 and len(metrics) == len(units) * len(selected)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
