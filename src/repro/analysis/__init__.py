"""Static verification of configs, mappings, model graphs, and plans.

``repro.analysis`` rejects invalid artifacts *before* anything expensive
runs — an RL search must not burn simulator episodes on a plan that
violates Eq. 4 bounds or Algorithm 1's accounting.  Three layers:

* :mod:`repro.analysis.invariants` — the rule registry, `Diagnostic`
  results, and the shared scalar rule implementations that
  construction-time validation (``arch/config.py``) reuses.
* :mod:`repro.analysis.checkers` — structural checks over
  `HardwareConfig`, `CrossbarShape` candidate sets, `LayerMapping`,
  `Network` graphs, and allocation plans (object- and dict-level).
* :mod:`repro.analysis.lint` — project-specific AST lint rules for the
  source tree itself.
* :mod:`repro.analysis.callgraph` / :mod:`repro.analysis.dataflow` — the
  interprocedural cache-key soundness and purity analysis behind
  ``repro check --cache-safety`` (CAC/PUR rule families).
* :mod:`repro.analysis.numeric` — NumPy-aware numeric-safety pass over
  ``sim/`` behind ``repro check --numeric`` (NUM rule family).
* :mod:`repro.analysis.kernel_parity` — scalar-vs-vectorized read-set
  parity behind ``repro check --kernel-parity`` (PAR rule family).
* :mod:`repro.analysis.units` — dimensional analysis of the cost model
  behind ``repro check --units`` (UNI rule family).

``repro check`` (see :mod:`repro.cli`) drives all three and exits
nonzero on ERROR diagnostics; `docs/static_analysis.md` catalogues every
rule id with its paper anchor.

Only :mod:`~repro.analysis.invariants` names are imported eagerly here —
it is dependency-free, so ``arch/config.py`` can import it during its own
module initialisation without a cycle.  The checker/lint entry points are
provided lazily via module ``__getattr__``.
"""

from __future__ import annotations

from typing import Any

from .invariants import (
    RULES,
    Diagnostic,
    InvariantViolation,
    Report,
    Rule,
    Severity,
    rule,
)

__all__ = [
    "RULES",
    "Diagnostic",
    "InvariantViolation",
    "Report",
    "Rule",
    "Severity",
    "rule",
    # lazy (see __getattr__):
    "check_allocation",
    "check_candidate_set",
    "check_config",
    "check_config_dict",
    "check_mapping",
    "check_mappings",
    "check_network",
    "check_plan_dict",
    "check_shape",
    "lint_source",
    "lint_tree",
    "analyze_cache_safety",
    "analyze_memoized",
    "analyze_numeric",
    "numeric_findings",
    "analyze_kernel_parity",
    "analyze_kernel_parity_tree",
    "kernel_parity_contract",
    "analyze_units",
    "units_findings",
]

_CHECKER_NAMES = frozenset(
    {
        "check_allocation",
        "check_candidate_set",
        "check_config",
        "check_config_dict",
        "check_mapping",
        "check_mappings",
        "check_network",
        "check_plan_dict",
        "check_shape",
    }
)
_LINT_NAMES = frozenset({"lint_source", "lint_tree", "lint_path"})
_DATAFLOW_NAMES = frozenset(
    {"analyze_cache_safety", "analyze_memoized", "simulator_contract"}
)
_NUMERIC_NAMES = frozenset({"analyze_numeric", "numeric_findings"})
_KERNEL_PARITY_NAMES = frozenset(
    {
        "analyze_kernel_parity",
        "analyze_kernel_parity_tree",
        "kernel_parity_contract",
        "ParityContract",
    }
)
_UNITS_NAMES = frozenset(
    {"analyze_units", "units_findings", "load_tables", "UnitTables"}
)


def __getattr__(name: str) -> Any:
    if name in _CHECKER_NAMES:
        from . import checkers

        return getattr(checkers, name)
    if name in _LINT_NAMES:
        from . import lint

        return getattr(lint, name)
    if name in _DATAFLOW_NAMES:
        from . import dataflow

        return getattr(dataflow, name)
    if name in _NUMERIC_NAMES:
        from . import numeric

        return getattr(numeric, name)
    if name in _KERNEL_PARITY_NAMES:
        from . import kernel_parity

        return getattr(kernel_parity, name)
    if name in _UNITS_NAMES:
        from . import units

        return getattr(units, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
