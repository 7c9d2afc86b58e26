"""Serving scenarios: tenants, arrival processes, SLOs, policy knobs.

A *scenario* is the complete, serializable description of one serving
run: which tenant models share the accelerator, how their requests
arrive (piecewise-constant Poisson rates or an explicit arrival-time
trace), what latency SLO each tenant promises, and how the re-allocation
policy is tuned.  Scenarios round-trip through plain JSON
(:func:`scenario_to_dict` / :func:`scenario_from_dict` /
:func:`load_scenario`) so the ``repro serve`` CLI takes a scenario file
in and emits a report out; :func:`two_tenant_scenario` is the checked-in
reference scenario (AlexNet + VGG16 with a mid-run traffic shift) the
golden tests and the CLI's ``two-tenant`` builtin share.

All times are nanoseconds — the native unit of the cost model — and the
file format spells that out (``duration_ns``, ``slo_ns``, ``at_ns``).
Rates are requests per second (``rate_rps``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from ..arch.config import CrossbarShape
from ..sim.units_constants import NS_PER_S


def _check_number(
    where: str, name: str, value: float, *, positive: bool = False
) -> None:
    """Reject NaN, inf and negative (or, if ``positive``, zero) values.

    ``nan < 0`` and ``nan <= 0`` are both False, so a plain sign check
    lets NaN through — a NaN SLO would silently report 0.0 attainment.
    """
    if not math.isfinite(value):
        raise ValueError(f"{where}{name} must be finite, got {value!r}")
    if value < 0 or (positive and value == 0):
        bound = "positive" if positive else "non-negative"
        raise ValueError(f"{where}{name} must be {bound}, got {value!r}")


@dataclass(frozen=True)
class ArrivalPhase:
    """One piecewise-constant segment of a tenant's Poisson arrival rate."""

    at_ns: float      #: phase start, relative to scenario start
    rate_rps: float   #: mean arrivals per second from ``at_ns`` on

    def __post_init__(self) -> None:
        _check_number("phase ", "at_ns", self.at_ns)
        _check_number("phase ", "rate_rps", self.rate_rps)


@dataclass(frozen=True)
class TenantSpec:
    """One co-located tenant model and its traffic contract.

    Exactly one arrival source applies: ``trace_ns`` (explicit arrival
    times, used verbatim) when non-empty, else a Poisson process whose
    rate starts at ``rate_rps`` and steps through ``phases``.  The
    per-layer crossbar strategy is ``strategy`` when given, else the
    homogeneous strategy of ``shape``.
    """

    name: str
    model: str                       #: workload name (see ``repro models``)
    shape: str = "64x64"             #: homogeneous crossbar shape
    strategy: tuple[str, ...] = ()   #: explicit per-layer shapes (optional)
    rate_rps: float = 500.0
    phases: tuple[ArrivalPhase, ...] = ()
    trace_ns: tuple[float, ...] = ()
    slo_ns: float = 5e6              #: latency objective per request

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        where = f"{self.name}: "
        _check_number(where, "rate_rps", self.rate_rps)
        _check_number(where, "slo_ns", self.slo_ns, positive=True)
        for t in self.trace_ns:
            _check_number(where, "trace_ns entry", t)
        if list(self.trace_ns) != sorted(self.trace_ns):
            raise ValueError(f"{self.name}: trace_ns must be sorted")
        starts = [p.at_ns for p in self.phases]
        if starts != sorted(starts):
            raise ValueError(f"{self.name}: phases must be time-ordered")

    def strategy_shapes(self, num_layers: int) -> tuple[CrossbarShape, ...]:
        """The per-layer crossbar shapes this tenant maps with."""
        if self.strategy:
            if len(self.strategy) != num_layers:
                raise ValueError(
                    f"{self.name}: strategy length {len(self.strategy)} != "
                    f"{num_layers} layers"
                )
            return tuple(CrossbarShape.parse(s) for s in self.strategy)
        return tuple([CrossbarShape.parse(self.shape)] * num_layers)


@dataclass(frozen=True)
class ReallocConfig:
    """Re-allocation policy knobs (see docs/serving.md for the contract)."""

    enabled: bool = True
    #: trigger when total-variation distance between the observed and
    #: the currently-provisioned arrival mix exceeds this
    threshold: float = 0.2
    window: int = 128        #: sliding window of arrivals defining the mix
    check_every: int = 32    #: policy consulted every this many arrivals
    stall_ns: float = 5e4    #: weight-rewrite stall applied on re-pack
    cooldown_ns: float = 1e7  #: minimum time between re-allocations
    headroom: float = 2.0    #: tile budget = headroom * initial tiles

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if self.window < 1 or self.check_every < 1:
            raise ValueError("window and check_every must be positive")
        if self.stall_ns < 0 or self.cooldown_ns < 0:
            raise ValueError("stall_ns and cooldown_ns must be non-negative")
        if self.headroom < 1.0:
            raise ValueError("headroom must be >= 1.0")


@dataclass(frozen=True)
class Scenario:
    """One complete serving run description."""

    name: str
    tenants: tuple[TenantSpec, ...]
    duration_ns: float = 2.5e8
    seed: int = 0
    max_batch: int = 8       #: requests admitted into the pipeline at once
    queue_cap: int = 0       #: per-tenant queue bound; 0 = unbounded
    drain: bool = False      #: keep serving queued work past the horizon
    realloc: ReallocConfig = field(default_factory=ReallocConfig)

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("scenario needs at least one tenant")
        _check_number("", "duration_ns", self.duration_ns, positive=True)
        if self.max_batch < 1:
            raise ValueError("max_batch must be positive")
        if self.queue_cap < 0:
            raise ValueError("queue_cap must be non-negative (0 = unbounded)")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")


# ----------------------------------------------------------------------
# JSON round-trip
# ----------------------------------------------------------------------
def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    """Plain-JSON form of a scenario (inverse of :func:`scenario_from_dict`)."""
    return {
        "name": scenario.name,
        "seed": scenario.seed,
        "duration_ns": scenario.duration_ns,
        "max_batch": scenario.max_batch,
        "queue_cap": scenario.queue_cap,
        "drain": scenario.drain,
        "realloc": {
            "enabled": scenario.realloc.enabled,
            "threshold": scenario.realloc.threshold,
            "window": scenario.realloc.window,
            "check_every": scenario.realloc.check_every,
            "stall_ns": scenario.realloc.stall_ns,
            "cooldown_ns": scenario.realloc.cooldown_ns,
            "headroom": scenario.realloc.headroom,
        },
        "tenants": [
            {
                "name": t.name,
                "model": t.model,
                "shape": t.shape,
                "strategy": list(t.strategy),
                "rate_rps": t.rate_rps,
                "phases": [
                    {"at_ns": p.at_ns, "rate_rps": p.rate_rps}
                    for p in t.phases
                ],
                "trace_ns": list(t.trace_ns),
                "slo_ns": t.slo_ns,
            }
            for t in scenario.tenants
        ],
    }


_KIND_NAMES = {float: "a number", int: "an integer", bool: "a boolean"}


def _typed(value: Any, kind: type, name: str) -> Any:
    """``value`` of field ``name``, held strictly to its JSON type.

    Nothing is coerced: a float field takes JSON numbers only (ints
    stay accepted), an int field integers only, a bool field ``true`` /
    ``false`` only.  ``bool`` is an ``int`` subclass in Python, so it is
    refused explicitly wherever a number is expected.
    """
    if kind is bool:
        ok = isinstance(value, bool)
    else:
        numeric = (int, float) if kind is float else int
        ok = isinstance(value, numeric) and not isinstance(value, bool)
    if not ok:
        raise ValueError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")
    return float(value) if kind is float else value


def scenario_from_dict(doc: dict[str, Any]) -> Scenario:
    """Build a :class:`Scenario` from its JSON form, validating as it goes.

    Numeric and boolean fields are strictly typed (see :func:`_typed`):
    ``"100"``, ``2.5`` for an integer, or ``"no"`` for a flag is a
    ``ValueError`` naming the field, never a silent coercion.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"scenario must be an object, got {type(doc).__name__}")
    unknown = set(doc) - {
        "name", "seed", "duration_ns", "max_batch", "queue_cap", "drain",
        "realloc", "tenants",
    }
    if unknown:
        raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
    tenants = []
    for i, entry in enumerate(doc.get("tenants", ())):
        where = f"tenants[{i}]"
        phases = tuple(
            ArrivalPhase(
                at_ns=_typed(p.get("at_ns"), float, f"{where}.phases[{j}].at_ns"),
                rate_rps=_typed(
                    p.get("rate_rps"), float, f"{where}.phases[{j}].rate_rps"
                ),
            )
            for j, p in enumerate(entry.get("phases", ()))
        )
        tenants.append(
            TenantSpec(
                name=str(entry["name"]),
                model=str(entry["model"]),
                shape=str(entry.get("shape", "64x64")),
                strategy=tuple(entry.get("strategy", ())),
                rate_rps=_typed(
                    entry.get("rate_rps", 500.0), float, f"{where}.rate_rps"
                ),
                phases=phases,
                trace_ns=tuple(
                    _typed(t, float, f"{where}.trace_ns[{k}]")
                    for k, t in enumerate(entry.get("trace_ns", ()))
                ),
                slo_ns=_typed(entry.get("slo_ns", 5e6), float, f"{where}.slo_ns"),
            )
        )
    rc = doc.get("realloc", {})
    realloc = ReallocConfig(
        enabled=_typed(rc.get("enabled", True), bool, "realloc.enabled"),
        threshold=_typed(rc.get("threshold", 0.2), float, "realloc.threshold"),
        window=_typed(rc.get("window", 128), int, "realloc.window"),
        check_every=_typed(rc.get("check_every", 32), int, "realloc.check_every"),
        stall_ns=_typed(rc.get("stall_ns", 5e4), float, "realloc.stall_ns"),
        cooldown_ns=_typed(rc.get("cooldown_ns", 1e7), float, "realloc.cooldown_ns"),
        headroom=_typed(rc.get("headroom", 2.0), float, "realloc.headroom"),
    )
    return Scenario(
        name=str(doc.get("name", "scenario")),
        tenants=tuple(tenants),
        duration_ns=_typed(doc.get("duration_ns", 2.5e8), float, "duration_ns"),
        seed=_typed(doc.get("seed", 0), int, "seed"),
        max_batch=_typed(doc.get("max_batch", 8), int, "max_batch"),
        queue_cap=_typed(doc.get("queue_cap", 0), int, "queue_cap"),
        drain=_typed(doc.get("drain", False), bool, "drain"),
        realloc=realloc,
    )


def load_scenario(path: str | Path) -> Scenario:
    """Read a scenario JSON file."""
    return scenario_from_dict(json.loads(Path(path).read_text()))


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    """Write a scenario as reviewable JSON."""
    Path(path).write_text(
        json.dumps(scenario_to_dict(scenario), indent=2) + "\n"
    )


# ----------------------------------------------------------------------
# Reference scenarios
# ----------------------------------------------------------------------
def two_tenant_scenario(
    *,
    seed: int = 0,
    duration_ns: float = 2.5e8,
    realloc: bool = True,
) -> Scenario:
    """The checked-in two-tenant reference scenario.

    AlexNet and VGG16 co-located on one accelerator; at 100 ms the
    traffic mix inverts — AlexNet jumps from 400 to 1800 req/s (past its
    single-copy pipeline bandwidth of ~1386 req/s on 64x64 crossbars)
    while VGG16 falls from 700 to 300 req/s.  With re-allocation enabled
    the drift policy re-packs the accelerator with a second AlexNet
    weight copy, halving its bottleneck; with it disabled the AlexNet
    queue grows without bound and its SLO attainment collapses.
    """
    return Scenario(
        name="two-tenant",
        seed=seed,
        duration_ns=duration_ns,
        max_batch=8,
        queue_cap=512,
        realloc=ReallocConfig(
            enabled=realloc,
            threshold=0.15,
            window=128,
            check_every=32,
            stall_ns=5e4,
            cooldown_ns=2e7,
            headroom=2.0,
        ),
        tenants=(
            TenantSpec(
                name="alex",
                model="alexnet",
                shape="64x64",
                rate_rps=400.0,
                phases=(ArrivalPhase(at_ns=1e8, rate_rps=1800.0),),
                slo_ns=5e6,
            ),
            TenantSpec(
                name="vgg",
                model="vgg16",
                shape="128x128",
                rate_rps=700.0,
                phases=(ArrivalPhase(at_ns=1e8, rate_rps=300.0),),
                slo_ns=8e6,
            ),
        ),
    )


#: builtin scenarios the CLI accepts by name instead of a file path
BUILTIN_SCENARIOS = {
    "two-tenant": two_tenant_scenario,
}


def generate_arrivals(
    tenant: TenantSpec, duration_ns: float, seed: int
) -> list[float]:
    """Deterministic arrival times (ns) for one tenant over the horizon.

    An explicit ``trace_ns`` is used verbatim (clipped to the horizon).
    Otherwise a piecewise-constant Poisson process: exponential gaps at
    the rate of the phase the current time falls in.  The RNG stream is
    derived from ``(seed, tenant.name)`` through blake2b so it is stable
    across processes and independent of other tenants — adding a tenant
    never perturbs another tenant's arrivals.
    """
    if tenant.trace_ns:
        return [t for t in tenant.trace_ns if t < duration_ns]
    import hashlib
    import random

    digest = hashlib.blake2b(
        f"serve-arrivals:{seed}:{tenant.name}".encode(), digest_size=8
    ).digest()
    rng = random.Random(int.from_bytes(digest, "big"))

    # Rate schedule: [(start_ns, rate_rps)] with the base rate first.
    schedule = [(0.0, tenant.rate_rps)] + [
        (p.at_ns, p.rate_rps) for p in tenant.phases
    ]
    arrivals: list[float] = []
    now = 0.0
    segment = 0
    while now < duration_ns:
        while (
            segment + 1 < len(schedule) and now >= schedule[segment + 1][0]
        ):
            segment += 1
        rate = schedule[segment][1]
        if rate <= 0.0:
            # Dead segment: jump to the next phase boundary, if any.
            if segment + 1 < len(schedule):
                now = schedule[segment + 1][0]
                continue
            break
        gap_ns = rng.expovariate(rate) * NS_PER_S
        now += gap_ns
        if now >= duration_ns:
            break
        if (
            segment + 1 < len(schedule)
            and now >= schedule[segment + 1][0]
        ):
            # The gap crossed a rate boundary; restart the wait at the
            # boundary with the new rate (memorylessness makes this
            # exact for the piecewise process).
            now = schedule[segment + 1][0]
            segment += 1
            continue
        arrivals.append(now)
    return arrivals
