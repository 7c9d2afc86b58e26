"""Evaluation caching for the behavioral simulator (the §4.5 hot path).

The paper measures ~97% of AutoHet's search time waiting on simulator
feedback, and every search strategy in this repo — DDPG, annealing,
coordinate ascent, random, exhaustive — revisits whole strategies and
per-layer shapes constantly.  Since :meth:`Simulator.evaluate
<repro.sim.simulator.Simulator.evaluate>` is pure and deterministic, its
results can be memoised outright:

* :class:`EvaluationCache` — a bounded, thread-safe LRU over full
  ``(config, network, strategy, tile_shared, detailed)`` evaluations,
  with hit / miss / eviction counters.  Infeasible strategies (those that
  raise :class:`~repro.sim.simulator.CapacityError`) are cached too, so a
  search random-walking near a capacity cliff does not re-pay the failed
  allocation every round.
* process-stable content fingerprints for :class:`HardwareConfig` and
  :class:`Network` (blake2b over a canonical field tuple), so cache keys
  survive object identity churn *and* are comparable across interpreter
  runs and worker processes (``autohet_multi_seed(max_workers=N)``)
  regardless of ``PYTHONHASHSEED``.

The fingerprint coverage is a checked contract, not a convention:
:data:`FINGERPRINTED_FIELDS` declares exactly which fields each key
component folds in, and ``repro check --cache-safety``
(:func:`repro.analysis.dataflow.analyze_cache_safety`) statically proves
that the evaluation reads nothing outside it.  Extend the fingerprints
and the table together — the analyzer fails the build when they drift.

See ``docs/performance.md`` for the keying rules and usage guidance.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, fields
from enum import Enum
from functools import lru_cache
from hashlib import blake2b
from typing import Hashable, Mapping

from ..analysis.invariants import CAC004, Diagnostic
from ..arch.config import CrossbarShape, HardwareConfig
from ..models.graph import Network

#: A cache key: every component pre-reduced to a compact hashable value.
CacheKey = Hashable

# ----------------------------------------------------------------------
# Fingerprint coverage contract
# ----------------------------------------------------------------------

#: Every :class:`HardwareConfig` field participates in the key — the
#: evaluation reads essentially all of them (energy/latency/area tables,
#: bit widths, tile geometry), so the fingerprint folds the whole record.
_CONFIG_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(HardwareConfig))

#: Mapping-relevant identity of one layer.  Derived properties
#: (``kernel_elems``, ``weight_count``, ``mvm_ops``, ``output_size``) are
#: pure functions of these, so folding the base fields covers them.
_LAYER_FIELDS: tuple[str, ...] = (
    "index",
    "layer_type",
    "in_channels",
    "out_channels",
    "kernel_size",
    "stride",
    "padding",
    "input_size",
)

#: class simple name -> fields folded into the cache key.  This is the
#: machine-checked half of the keying contract: ``repro check
#: --cache-safety`` extracts the attribute read-set of the memoized
#: evaluation and fails on any read outside these tables.
FINGERPRINTED_FIELDS: Mapping[str, tuple[str, ...]] = {
    "HardwareConfig": _CONFIG_FIELDS,
    "LayerSpec": _LAYER_FIELDS,
    "PoolSpec": ("window", "stride"),
    "Stage": ("layer", "pool"),
    "Network": ("name", "stages"),
    "CrossbarShape": ("rows", "cols"),
    "Simulator": ("config", "enforce_capacity"),
}

#: Fields the evaluation reads that are declared *result-invariant*:
#: they change how a result is computed (which path, which cache), never
#: what it is — the kernel/reference parity tests are the evidence.
RESULT_INVARIANT_FIELDS: Mapping[str, tuple[str, ...]] = {
    # ``tracer`` only observes the evaluation (spans/events/counters);
    # the trace-invariance battery in ``tests/obs`` is the evidence that
    # it never changes a metric bit.  ``reference`` selects the
    # materialised Algorithm-1 path, which is bit-identical to the NumPy
    # kernels (``tests/sim/test_vectorized_parity.py``).
    "Simulator": ("cache", "reference", "tracer"),
    # ``_hash`` / ``_str`` are ``__post_init__`` stashes derived purely
    # from ``rows`` and ``cols``, which *are* fingerprinted — two shapes
    # with equal fingerprints carry equal stashes by construction.
    "CrossbarShape": ("_hash", "_str"),
}


def _canonical(value: object) -> object:
    """Reduce a field value to a deterministic, repr-stable form."""
    if isinstance(value, Enum):
        return (type(value).__name__, value.name)
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, (tuple, list)):
        return tuple(_canonical(item) for item in value)
    raise TypeError(
        f"cannot canonicalise {type(value).__name__!r} for fingerprinting"
    )


def _stable_digest(payload: object) -> int:
    """blake2b digest of a canonical tuple, independent of PYTHONHASHSEED."""
    encoded = repr(_canonical(payload)).encode("utf-8")
    return int.from_bytes(blake2b(encoded, digest_size=16).digest(), "big")


@lru_cache(maxsize=1024)
def config_fingerprint(config: HardwareConfig) -> int:
    """Stable content fingerprint of a hardware configuration.

    Two configs with equal fields share a fingerprint even when they are
    distinct objects (e.g. round-tripped through JSON), and the digest is
    identical across processes and interpreter runs.
    """
    return _stable_digest(
        tuple(getattr(config, name) for name in _CONFIG_FIELDS)
    )


@lru_cache(maxsize=1024)
def network_fingerprint(network: Network) -> int:
    """Stable content fingerprint of a network's search-relevant identity.

    Folds the name plus every *stage* — each layer's full mapping- and
    cost-relevant spec (:data:`FINGERPRINTED_FIELDS`'s ``LayerSpec`` row,
    including ``input_size`` / ``stride`` / ``padding``) and each pooling
    stage's window geometry.  Two structurally identical builds of the
    same model share a fingerprint; two models differing only in
    feature-map size do not.
    """
    entries: list[tuple[object, ...]] = []
    for stage in network.stages:
        if stage.layer is not None:
            entries.append(
                ("L",)
                + tuple(getattr(stage.layer, name) for name in _LAYER_FIELDS)
            )
        if stage.pool is not None:
            entries.append(("P", stage.pool.window, stage.pool.stride))
    return _stable_digest((network.name, tuple(entries)))


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of one cache's counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    max_size: int = 0
    audited: int = 0
    audit_failures: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups; 0.0 before the first lookup."""
        return self.hits / self.lookups if self.lookups else 0.0

    def summary(self) -> str:
        line = (
            f"cache: {self.hits} hits / {self.lookups} lookups "
            f"({self.hit_rate:.1%}), {self.size}/{self.max_size} entries, "
            f"{self.evictions} evictions"
        )
        if self.audited:
            line += (
                f", {self.audited} audited "
                f"({self.audit_failures} mismatches)"
            )
        return line


class _Infeasible:
    """Cached outcome of a strategy that overflows the bank."""

    __slots__ = ("message",)

    def __init__(self, message: str) -> None:
        self.message = message


class EvaluationCache:
    """Bounded LRU cache over pure simulator evaluations.

    Thread-safe: :meth:`get` / :meth:`put` / :meth:`stats` hold an
    internal lock, so user code may share one cache between threads (two
    threads missing the same key concurrently both evaluate it; the
    second insert refreshes an equal value).  Values are immutable
    (:class:`~repro.sim.metrics.SystemMetrics` is frozen), so cached
    objects are shared, never copied.

    **Audit mode** (``audit_interval=N``) is the runtime complement of
    the static cache-safety proof: every Nth hit is re-evaluated from
    scratch and the cached value must compare equal to the fresh one.  A
    mismatch is recorded as a CAC004 :class:`Diagnostic` (see
    :attr:`audit_findings`), counted in :meth:`stats`, and the stale
    entry is replaced — the caller always receives the fresh value, never
    a crash.  Sampling is a deterministic hit counter, *not* a RNG: the
    audit must not itself introduce the nondeterminism it polices.
    """

    def __init__(self, max_size: int = 100_000, audit_interval: int = 0) -> None:
        if max_size <= 0:
            raise ValueError("max_size must be positive")
        if audit_interval < 0:
            raise ValueError("audit_interval must be >= 0 (0 disables audits)")
        self.max_size = max_size
        self.audit_interval = audit_interval
        self._entries: OrderedDict[CacheKey, object] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._audit_clock = 0
        self._audited = 0
        self._audit_failures = 0
        self._audit_findings: list[Diagnostic] = []

    # ------------------------------------------------------------------
    @staticmethod
    def make_key(
        config: HardwareConfig,
        network: Network,
        strategy: tuple[CrossbarShape, ...],
        *,
        tile_shared: bool,
        detailed: bool,
        enforce_capacity: bool,
    ) -> CacheKey:
        """The canonical key of one evaluation.

        Everything :meth:`Simulator.evaluate` reads goes in: the config
        and network content fingerprints, the per-layer shapes, and the
        flags that change the result (``tile_shared``, ``detailed``) or
        the feasibility verdict (``enforce_capacity``).
        """
        return (
            config_fingerprint(config),
            network_fingerprint(network),
            tuple((s.rows, s.cols) for s in strategy),
            tile_shared,
            detailed,
            enforce_capacity,
        )

    # ------------------------------------------------------------------
    def get(self, key: CacheKey) -> object | None:
        """The cached value, or ``None`` on a miss (counts either way)."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: CacheKey, value: object) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail if full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                return
            if len(self._entries) >= self.max_size:
                self._entries.popitem(last=False)
                self._evictions += 1
            self._entries[key] = value

    # ------------------------------------------------------------------
    def audit_due(self) -> bool:
        """Whether the hit just served should be re-evaluated and checked.

        Deterministic every-Nth-hit sampling driven by an internal
        counter; always ``False`` when ``audit_interval`` is 0.
        """
        if self.audit_interval <= 0:
            return False
        with self._lock:
            self._audit_clock += 1
            return self._audit_clock % self.audit_interval == 0

    def record_audit(
        self, key: CacheKey, cached: object, fresh: object
    ) -> Diagnostic | None:
        """Compare a cached value against its re-evaluation.

        On a mismatch: counts the failure, records a CAC004 diagnostic,
        and replaces the stale entry with the fresh value.  Returns the
        diagnostic (``None`` when the values agree).
        """
        with self._lock:
            self._audited += 1
            if cached == fresh:
                return None
            self._audit_failures += 1
            diagnostic = CAC004.diag(
                f"cache-key {key!r}",
                "cache audit mismatch: cached value differs from "
                "re-evaluation — the key does not cover every input",
                hint="run `repro check --cache-safety` to find the "
                "unfingerprinted read, then clear() this cache",
            )
            self._audit_findings.append(diagnostic)
            if key in self._entries:
                self._entries[key] = fresh
            return diagnostic

    @property
    def audit_findings(self) -> tuple[Diagnostic, ...]:
        """All CAC004 mismatch diagnostics recorded so far."""
        with self._lock:
            return tuple(self._audit_findings)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = self._evictions = 0
            self._audit_clock = self._audited = self._audit_failures = 0
            self._audit_findings.clear()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                max_size=self.max_size,
                audited=self._audited,
                audit_failures=self._audit_failures,
            )
