"""Kernel parity analysis — the reference cost path vs. the batch kernels.

The simulator has two evaluation paths that must agree bit-for-bit: the
materialised reference that ``Simulator(reference=True)`` runs (the
scalar cost models in ``sim/energy.py`` / ``sim/latency.py`` /
``sim/area.py`` over a full tile plan, walked from
:meth:`~repro.sim.simulator.Simulator.evaluate`) and the default NumPy
path in :mod:`repro.sim.kernels`.  Runtime parity tests sample that
contract; this module proves its *input* half
statically, the way :mod:`repro.analysis.dataflow` proves cache-key
coverage: the dataflow interpreter extracts the attribute read-set of
the scalar path, and the declared coverage tables
(:data:`repro.sim.kernels.KERNEL_COVERAGE` /
:data:`~repro.sim.kernels.KERNEL_DERIVED_COLUMNS`) must tile it exactly
against the columns the kernels actually define.

========  =============================================================
PAR001    scalar read with no (live) kernel column behind it (ERROR)
PAR002    dead kernel column / dangling coverage declaration (WARNING)
PAR003    replicated kernel constant diverging from its scalar
          source of truth — row registries vs. index unpacks, derived
          MappingBatch columns vs. LayerMapping members, the kernels'
          replica of a scalar error-message format string (ERROR)
========  =============================================================

Entry points: :func:`analyze_kernel_parity_tree` (generic, over any
:class:`~repro.analysis.callgraph.ModuleIndex`) and
:func:`analyze_kernel_parity` (the repro tree's own contract, wired into
``repro check --kernel-parity``).  See docs/static_analysis.md ("The
kernel coverage-table contract").
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .callgraph import ClassInfo, ModuleIndex, ModuleInfo
from .dataflow import MemoContract, _Analyzer
from .invariants import PAR001, PAR002, PAR003, Diagnostic

#: Coverage targets that name no column: ``"builder"`` marks a value the
#: batch scorer passes through itself; ``"shared"`` marks an attribute
#: both paths reach through the same shared code on the same object.
SENTINEL_TARGETS: frozenset[str] = frozenset({"builder", "shared"})


@dataclass(frozen=True)
class ParityContract:
    """What to analyze and what the kernel coverage tables claim."""

    #: scalar entry points, ``"module:Class.method"`` / ``"module:func"``
    roots: tuple[str, ...]
    #: dotted name of the kernels module inside the analyzed index
    kernel_module: str
    #: scalar class -> field -> kernel columns (``"Class.column"``) or
    #: sentinel targets; the PAR001 side of the contract
    coverage: Mapping[str, Mapping[str, tuple[str, ...]]]
    #: kernel class -> columns derived from covered ones; the PAR002 side
    derived: Mapping[str, tuple[str, ...]]
    #: kernel class -> ((registry constant, index-unpack prefix), ...) for
    #: classes whose columns are named by row registries (ShapeTable)
    registries: Mapping[str, tuple[tuple[str, str], ...]] = ()  # type: ignore[assignment]
    #: kernel class -> scalar class its derived columns must mirror
    mirrors: Mapping[str, str] = ()  # type: ignore[assignment]
    #: (reference function, replica function) pairs whose f-string
    #: formats must agree (the CapacityError / InfeasibleScore message)
    message_pairs: tuple[tuple[str, str], ...] = ()
    #: module-name prefixes excluded from the scalar traversal (the
    #: kernels themselves, the cache, observability, this analyzer)
    boundary_modules: tuple[str, ...] = ()


# ----------------------------------------------------------------------
# Kernel column extraction
# ----------------------------------------------------------------------


def _registry_names(
    module: ModuleInfo, const_name: str
) -> tuple[str, ...] | None:
    """The string entries of a module-level registry tuple, or None."""
    const = module.constants.get(const_name)
    if const is None or const.value is None:
        return None
    try:
        value = ast.literal_eval(const.value)
    except (ValueError, SyntaxError):
        return None
    if isinstance(value, (tuple, list)) and all(
        isinstance(item, str) for item in value
    ):
        return tuple(value)
    return None


def _class_columns(cls: ClassInfo) -> frozenset[str]:
    """Data columns of a kernel class: annotated fields + properties."""
    return frozenset(cls.fields) | frozenset(cls.properties)


def _index_unpacks(module: ModuleInfo) -> dict[str, tuple[int, int, int]]:
    """``(_F_A, _F_B, ...) = range(N)`` unpacks, keyed by name prefix.

    Tuple unpacks never reach :attr:`ModuleInfo.constants` (the indexer
    only records single-name assigns), so the row-index registries are
    recovered from a raw walk.  Returns prefix ->
    ``(name count, range argument, line)``; the range argument is -1
    when the right-hand side is not a literal ``range(N)``.
    """
    out: dict[str, tuple[int, int, int]] = {}
    for node in ast.walk(module.node):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if not (
            isinstance(target, ast.Tuple)
            and target.elts
            and all(isinstance(e, ast.Name) for e in target.elts)
        ):
            continue
        names = [e.id for e in target.elts if isinstance(e, ast.Name)]
        prefix = _common_prefix(names)
        if not prefix:
            continue
        arg = -1
        value = node.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "range"
            and len(value.args) == 1
            and isinstance(value.args[0], ast.Constant)
            and isinstance(value.args[0].value, int)
        ):
            arg = value.args[0].value
        out[prefix] = (len(names), arg, node.lineno)
    return out


def _common_prefix(names: list[str]) -> str:
    """Shared ``_X_`` naming prefix of an index unpack, or ``""``."""
    first = names[0]
    if not first.startswith("_") or first.count("_") < 2:
        return ""
    prefix = first[: first.index("_", 1) + 1]
    if all(name.startswith(prefix) for name in names):
        return prefix
    return ""


# ----------------------------------------------------------------------
# f-string format parity
# ----------------------------------------------------------------------


def _fstring_signature(node: ast.JoinedStr) -> str:
    """An f-string's static text with every interpolation as ``{}``.

    Adjacent f-string literals parse as one ``JoinedStr``, so the
    two-part capacity message normalizes to a single signature.
    """
    parts = []
    for value in node.values:
        if isinstance(value, ast.Constant):
            parts.append(str(value.value))
        else:
            parts.append("{}")
    return "".join(parts)


def _fstring_signatures(node: ast.AST) -> set[str]:
    return {
        _fstring_signature(sub)
        for sub in ast.walk(node)
        if isinstance(sub, ast.JoinedStr)
    }


# ----------------------------------------------------------------------
# The analysis
# ----------------------------------------------------------------------


def analyze_kernel_parity_tree(
    index: ModuleIndex, contract: ParityContract
) -> list[Diagnostic]:
    """Run the kernel-parity analysis over an indexed tree.

    Returns PAR001/PAR002/PAR003 diagnostics ordered by rule id then
    location.  Raises :class:`ValueError` when a root or message-pair
    function cannot be resolved — a silent no-op analysis would report a
    clean bill it never earned.
    """
    diagnostics: list[Diagnostic] = []

    # ---- scalar read-set via the dataflow interpreter ----------------
    analyzer = _Analyzer(
        index,
        # Parity only needs the read-set; with no coverage classes the
        # interpreter tracks no purity targets, and its effects list
        # (sinks, mutations) stays the cache-safety pass's business.
        MemoContract(
            roots=(),
            coverage={},
            boundary_modules=contract.boundary_modules,
        ),
    )
    for root in contract.roots:
        func = index.resolve_qualname(root)
        if func is None:
            raise ValueError(f"cannot resolve analysis root {root!r}")
        analyzer.analyze_root(func)

    # ---- kernel columns as the analyzed source defines them ----------
    kmod = index.modules.get(contract.kernel_module)
    if kmod is None:
        raise ValueError(
            f"kernel module {contract.kernel_module!r} is not in the index"
        )
    columns: dict[str, frozenset[str]] = {}
    registries = dict(contract.registries or {})
    for cls_name, cls in kmod.classes.items():
        if cls_name in registries:
            continue
        columns[cls_name] = _class_columns(cls)
    for cls_name, specs in registries.items():
        rows: set[str] = set()
        for const_name, _prefix in specs:
            names = _registry_names(kmod, const_name)
            if names is None:
                diagnostics.append(
                    PAR003.diag(
                        f"{contract.kernel_module}:{const_name}",
                        f"row registry {const_name} is missing or is not a "
                        "literal tuple of row names",
                        hint="declare the registry next to the index unpack "
                        "it names",
                    )
                )
                continue
            rows.update(names)
        columns[cls_name] = frozenset(rows)

    # ---- PAR001: every in-scope scalar read needs a live column ------
    targeted: set[str] = set()
    for cls_name, fields in contract.coverage.items():
        for _field_name, targets in fields.items():
            targeted.update(t for t in targets if t not in SENTINEL_TARGETS)

    def column_exists(target: str) -> bool:
        owner, _, column = target.partition(".")
        return column in columns.get(owner, frozenset())

    for (cls_name, attr), location in sorted(analyzer.reads.items()):
        fields = contract.coverage.get(cls_name)
        if fields is None:
            continue  # not a class the kernels restructure into arrays
        targets = fields.get(attr)
        if targets is None:
            diagnostics.append(
                PAR001.diag(
                    location,
                    f"scalar cost path reads {cls_name}.{attr} but "
                    "KERNEL_COVERAGE maps it to no kernel column — the "
                    "vectorized path cannot see this input",
                    hint=f"fold {attr} into a NetworkArrays/MappingBatch/"
                    "ShapeTable column and declare it in KERNEL_COVERAGE",
                )
            )
            continue
        for target in targets:
            if target in SENTINEL_TARGETS:
                continue
            if not column_exists(target):
                diagnostics.append(
                    PAR001.diag(
                        location,
                        f"{cls_name}.{attr} is declared covered by kernel "
                        f"column {target}, which does not exist",
                        hint="restore the column or update KERNEL_COVERAGE",
                    )
                )

    # ---- PAR002: every kernel column needs a reason to exist ---------
    derived = {k: tuple(v) for k, v in contract.derived.items()}
    declared_classes = {
        t.partition(".")[0] for t in targeted
    } | set(derived)
    for cls_name in sorted(declared_classes):
        if cls_name not in columns:
            diagnostics.append(
                PAR002.diag(
                    f"{contract.kernel_module}:{cls_name}",
                    f"coverage tables reference kernel class {cls_name}, "
                    "which the kernels module does not define",
                    hint="restore the class or update the coverage tables",
                )
            )
            continue
        for column in sorted(columns[cls_name]):
            qualified = f"{cls_name}.{column}"
            if qualified in targeted or column in derived.get(cls_name, ()):
                continue
            diagnostics.append(
                PAR002.diag(
                    qualified,
                    "kernel column is neither a KERNEL_COVERAGE target nor "
                    "declared in KERNEL_DERIVED_COLUMNS — a dead column "
                    "that can drift from the scalar source of truth",
                    hint="declare its scalar provenance, or delete it",
                )
            )
        for column in derived.get(cls_name, ()):
            if column not in columns[cls_name]:
                diagnostics.append(
                    PAR002.diag(
                        f"{cls_name}.{column}",
                        "declared derived in KERNEL_DERIVED_COLUMNS but no "
                        "such kernel column exists",
                        hint="restore the column or drop the declaration",
                    )
                )

    read_classes = {cls_name for cls_name, _ in analyzer.reads}
    for cls_name in sorted(contract.coverage):
        if cls_name not in read_classes:
            # The class never materialised in the traversal; per-field
            # "never read" noise would just repeat that.
            continue
        for field_name in sorted(contract.coverage[cls_name]):
            if (cls_name, field_name) not in analyzer.reads:
                diagnostics.append(
                    PAR002.diag(
                        f"{cls_name}.{field_name}",
                        "declared in KERNEL_COVERAGE but the scalar cost "
                        "path never reads it — a dead coverage entry",
                        hint="drop the entry, or wire the field into the "
                        "scalar evaluation",
                    )
                )

    # ---- PAR003a: row registries vs. their index unpacks -------------
    unpacks = _index_unpacks(kmod)
    for cls_name, specs in sorted(registries.items()):
        for const_name, prefix in specs:
            names = _registry_names(kmod, const_name)
            if names is None:
                continue  # already reported above
            unpack = unpacks.get(prefix)
            if unpack is None:
                diagnostics.append(
                    PAR003.diag(
                        f"{contract.kernel_module}:{const_name}",
                        f"no ``({prefix}...) = range(N)`` index unpack "
                        f"found for registry {const_name}",
                        hint="keep the registry and its index unpack "
                        "side by side",
                    )
                )
                continue
            count, range_arg, lineno = unpack
            if len(names) != count or (range_arg >= 0 and range_arg != count):
                diagnostics.append(
                    PAR003.diag(
                        f"{contract.kernel_module}:{lineno}",
                        f"{const_name} declares {len(names)} row(s) but the "
                        f"{prefix}* index unpack binds {count} name(s) over "
                        f"range({range_arg}) — the registry and the row "
                        "indices have diverged",
                        hint="add/remove the row in both places",
                    )
                )

    # ---- PAR003b: derived columns must mirror the scalar class -------
    for kernel_cls, scalar_cls_name in sorted(dict(contract.mirrors or {}).items()):
        scalar_cls = index.find_class(scalar_cls_name)
        if scalar_cls is None:
            diagnostics.append(
                PAR003.diag(
                    f"{kernel_cls} -> {scalar_cls_name}",
                    f"mirror class {scalar_cls_name} is not in the index",
                    hint="fix the mirrors declaration",
                )
            )
            continue
        members = (
            frozenset(scalar_cls.fields)
            | frozenset(scalar_cls.properties)
            | frozenset(scalar_cls.methods)
        )
        for column in derived.get(kernel_cls, ()):
            if column not in members:
                diagnostics.append(
                    PAR003.diag(
                        f"{kernel_cls}.{column}",
                        f"derived kernel column has no same-named "
                        f"{scalar_cls_name} member to mirror — the scalar "
                        "source of truth is gone",
                        hint=f"keep {scalar_cls_name}.{column} and the "
                        "kernel column in lockstep, or rename both",
                    )
                )

    # ---- PAR003c: replicated message formats -------------------------
    for ref_qual, rep_qual in contract.message_pairs:
        ref = index.resolve_qualname(ref_qual)
        rep = index.resolve_qualname(rep_qual)
        if ref is None or rep is None:
            missing = ref_qual if ref is None else rep_qual
            raise ValueError(f"cannot resolve message-pair function {missing!r}")
        ref_sigs = _fstring_signatures(ref.node)
        rep_sigs = _fstring_signatures(rep.node)
        for signature in sorted(ref_sigs - rep_sigs):
            diagnostics.append(
                PAR003.diag(
                    f"{rep.module.name}:{rep.node.lineno}",
                    f"{rep_qual} no longer replicates the "
                    f"{ref_qual} message format {signature!r} — cached "
                    "infeasible sentinels would diverge between paths",
                    hint="keep the two f-strings byte-identical "
                    "(tests/sim/test_infeasible_messages.py is the "
                    "runtime witness)",
                )
            )

    diagnostics.sort(key=lambda d: (d.rule_id, d.location, d.message))
    return diagnostics


# ----------------------------------------------------------------------
# The repro tree's own contract
# ----------------------------------------------------------------------


def kernel_parity_contract() -> ParityContract:
    """The repro tree's kernel-parity contract.

    Coverage comes from the declarations in :mod:`repro.sim.kernels`
    (:data:`~repro.sim.kernels.KERNEL_COVERAGE` /
    :data:`~repro.sim.kernels.KERNEL_DERIVED_COLUMNS`) — the same tables
    documented next to the kernels, so the analyzer checks what the
    kernels declare, while column *existence* resolves against whatever
    source tree is being analyzed (which is what lets the tamper tests
    delete a field from the real sources and watch PAR001 fire).
    """
    from ..sim.kernels import KERNEL_COVERAGE, KERNEL_DERIVED_COLUMNS

    return ParityContract(
        roots=(
            "repro.sim.simulator:Simulator.evaluate",
            "repro.sim.simulator:Simulator.try_evaluate",
        ),
        kernel_module="repro.sim.kernels",
        coverage=KERNEL_COVERAGE,
        derived=KERNEL_DERIVED_COLUMNS,
        registries={
            "ShapeTable": (
                ("SHAPE_TABLE_FLOAT_ROWS", "_F_"),
                ("SHAPE_TABLE_INT_ROWS", "_I_"),
            ),
        },
        mirrors={"MappingBatch": "LayerMapping"},
        message_pairs=(
            (
                "repro.sim.simulator:Simulator._capacity_check",
                "repro.sim.kernels:score_strategy_batch",
            ),
        ),
        # The kernels are the *subject* of the comparison, not part of
        # the scalar walk; cache/obs/analysis are boundaries for the
        # same reasons as in the cache-safety contract.
        boundary_modules=(
            "repro.sim.kernels",
            "repro.sim.cache",
            "repro.obs",
            "repro.analysis",
        ),
    )


def analyze_kernel_parity(root: Path | None = None) -> list[Diagnostic]:
    """Prove (or refute) the scalar/kernel input-parity contract.

    Indexes the installed ``repro`` package (or an explicit source tree
    rooted at ``root``) and runs :func:`analyze_kernel_parity_tree` with
    the contract of :func:`kernel_parity_contract`.  An empty result is
    the theorem: every attribute the scalar cost path reads is carried
    by a live kernel column, no kernel column lacks a declared scalar
    provenance, and every replicated constant matches its source.
    """
    base = root if root is not None else Path(__file__).resolve().parent.parent
    index = ModuleIndex.from_package(Path(base), "repro")
    return analyze_kernel_parity_tree(index, kernel_parity_contract())
