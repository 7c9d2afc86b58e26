"""Dimensional analysis of the cost model (UNI rules).

The cost path mixes nanojoules, nanoseconds, nanowatts, square microns,
bytes, and plain counts in ordinary Python floats; nothing at runtime
stops ``energy_nj + latency_ns`` from producing a well-formed number
with no meaning.  This pass runs the shared
:class:`~repro.analysis.walker.Walker` over the cost-model modules with
a lattice of *physical units* instead of values, and flags dimensional
nonsense statically.

Unit facts come from three sources, in priority order per name:

1. **Conversion constants** — module constants declared in
   ``repro.sim.units_constants.CONVERSION_UNITS`` (``NW_NS_TO_NJ`` is
   ``nJ/(nW*ns)``); multiplying by one *changes* the unit, checkably.
2. **Naming convention** — suffixes on variables, parameters, fields,
   attributes, and function names: ``*_nj``, ``*_ns``, ``*_nw``,
   ``*_um2``, ``*_bytes``, ``*_nj_per_byte``, ``*_fraction``.
3. **The UNIT_TABLE** — ``repro.arch.config.UNIT_TABLE`` declares the
   unit of every unsuffixed numeric field of the config/result classes,
   the kernel batch columns, and the ``repro.obs`` metric streams.

Units propagate through arithmetic: add/sub/compare/min/max require
equal units (UNI001), mul/div compose exponents, ``sum``/``cumsum``/
``float()`` preserve.  Dimensionless quantities (counts, fractions,
bits, flags) are *unit-polymorphic*: a count may scale or join any
dimension without a finding, because ``mvm_ops * energy_per_op`` is the
whole point of a count.  The interpreter is likewise optimistic about
unknowns — values it cannot type produce no findings, so the real tree
stays clean and findings come only from positive evidence.

========  =============================================================
UNI001    add/sub/compare/min/max mixing two *known, different* units
UNI002    numeric field with neither suffix nor UNIT_TABLE entry, or a
          table entry naming a member that no longer exists
UNI003    bare power-of-ten literal scaling a unit-bearing value — an
          undeclared conversion; name it in repro.sim.units_constants
UNI004    value flowing into a declared slot (suffix-named binding or
          return, constructor keyword) with a different inferred unit
UNI005    value emitted to a repro.obs counter stream whose declared
          unit (UNIT_TABLE["obs.streams"]) disagrees
========  =============================================================

Deliberate exceptions are waived in place with ``# unit-ok: UNIxxx
(reason)`` on the offending line.  Entry points:
:func:`units_findings` (one source text) and :func:`analyze_units`
(the cost-model module set, wired into ``repro check --units``).
"""

from __future__ import annotations

import ast
import math
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .invariants import UNI001, UNI002, UNI003, UNI004, UNI005, Diagnostic
from .walker import Walker, scan

#: A unit is a sorted tuple of (dimension, exponent) pairs; ``()`` is
#: dimensionless and ``Unit | None`` uses ``None`` for unknown.
Unit = tuple[tuple[str, int], ...]

#: Spec atoms that mean "dimensionless" — interchangeable with each
#: other and polymorphic against every real dimension.
DIMENSIONLESS_TOKENS = frozenset({"", "1", "count", "fraction", "percent",
                                  "bit", "flag"})

#: Name-suffix convention, longest suffix first so ``_nj_per_byte``
#: wins over ``_nj``.
SUFFIX_UNITS: tuple[tuple[str, str], ...] = (
    ("_nj_per_byte", "nJ/byte"),
    ("_ns_per_byte", "ns/byte"),
    ("_nj", "nJ"),
    ("_ns", "ns"),
    ("_nw", "nW"),
    ("_um2", "um2"),
    ("_bytes", "byte"),
    ("_fraction", "1"),
)

#: The modules the cost path flows through — the analysis scope, as
#: paths relative to the ``repro`` package root.
SCOPE_MODULES: tuple[str, ...] = (
    "arch/config.py",
    "core/allocation/summary.py",
    "obs/metrics.py",
    "sim/area.py",
    "sim/energy.py",
    "sim/kernels.py",
    "sim/latency.py",
    "sim/metrics.py",
    "sim/simulator.py",
    "sim/units_constants.py",
)


# ----------------------------------------------------------------------
# Unit algebra
# ----------------------------------------------------------------------
def parse_unit(spec: str) -> Unit:
    """Parse a unit spec (``"nJ"``, ``"nJ/(nW*ns)"``, ``"count"``).

    ``*`` composes, the first ``/`` divides (everything after any ``/``
    lands in the denominator), parentheses group, and dimensionless
    tokens vanish.  The result is canonical: sorted, zero exponents
    dropped, so equal units compare equal as tuples.
    """
    exps: dict[str, int] = {}
    for slot, part in enumerate(spec.split("/")):
        sign = 1 if slot == 0 else -1
        for atom in part.strip().strip("()").split("*"):
            atom = atom.strip()
            if atom in DIMENSIONLESS_TOKENS:
                continue
            exps[atom] = exps.get(atom, 0) + sign
    return tuple(sorted((d, e) for d, e in exps.items() if e))


def format_unit(unit: Unit | None) -> str:
    """Human-readable form: ``None`` -> ``"?"``, ``()`` -> ``"1"``."""
    if unit is None:
        return "?"
    if not unit:
        return "1"
    num = [d if e == 1 else f"{d}^{e}" for d, e in unit if e > 0]
    den = [d if e == -1 else f"{d}^{-e}" for d, e in unit if e < 0]
    head = "*".join(num) if num else "1"
    if not den:
        return head
    tail = den[0] if len(den) == 1 else "(" + "*".join(den) + ")"
    return f"{head}/{tail}"


def unit_mul(a: Unit | None, b: Unit | None) -> Unit | None:
    """Compose units under multiplication.

    One unknown operand passes the *known, dimensioned* side through
    (``count * x_nj`` is nJ even when the count is untyped); an unknown
    meeting a dimensionless value stays unknown — claiming
    dimensionless there would later flag against real units.
    """
    if a is None or b is None:
        known = a if b is None else b
        return known if known else None
    exps = dict(a)
    for d, e in b:
        exps[d] = exps.get(d, 0) + e
    return tuple(sorted((d, e) for d, e in exps.items() if e))


def unit_inv(a: Unit | None) -> Unit | None:
    if a is None:
        return None
    return tuple(sorted((d, -e) for d, e in a))


def unit_div(a: Unit | None, b: Unit | None) -> Unit | None:
    return unit_mul(a, unit_inv(b))


def unit_pow(a: Unit | None, n: int) -> Unit | None:
    if a is None:
        return None
    exps = {d: e * n for d, e in a}
    return tuple(sorted((d, e) for d, e in exps.items() if e))


def units_conflict(a: Unit | None, b: Unit | None) -> bool:
    """Two *known, dimensioned, different* units — the only combination
    that is positive evidence of nonsense.  Unknown (``None``) and
    dimensionless (``()``) are polymorphic and never conflict."""
    return bool(a) and bool(b) and a != b


def suffix_unit(name: str) -> Unit | None:
    """Unit declared by a name's suffix, or ``None``."""
    low = name.lower()
    for suffix, spec in SUFFIX_UNITS:
        if low.endswith(suffix):
            return parse_unit(spec)
    return None


# ----------------------------------------------------------------------
# Declared-unit tables
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class UnitTables:
    """Parsed unit declarations the interpreter resolves names against."""

    #: class name -> field/property name -> unit (from UNIT_TABLE)
    classes: dict[str, dict[str, Unit]]
    #: attribute-name fallback: the union over all classes, with names
    #: whose declared units disagree across classes dropped entirely
    attrs: dict[str, Unit]
    #: conversion-constant name -> unit (from CONVERSION_UNITS)
    conversions: dict[str, Unit]
    #: obs counter stream name -> unit (from UNIT_TABLE["obs.streams"])
    streams: dict[str, Unit]


def load_tables() -> UnitTables:
    """Build :class:`UnitTables` from the *real* installed declarations.

    Like the kernel-parity contract, the tables always come from the
    importable ``repro`` package even under ``--source`` — the contract
    is the real one; only the scanned sources vary.
    """
    from ..arch.config import UNIT_TABLE
    from ..sim.units_constants import CONVERSION_UNITS

    classes: dict[str, dict[str, Unit]] = {}
    streams: dict[str, Unit] = {}
    for cls_name, fields_map in UNIT_TABLE.items():
        parsed = {f: parse_unit(u) for f, u in fields_map.items()}
        if cls_name == "obs.streams":
            streams = parsed
        else:
            classes[cls_name] = parsed
    attrs: dict[str, Unit] = {}
    conflicted: set[str] = set()
    for fields_map in classes.values():
        for name, unit in fields_map.items():
            if name in attrs and attrs[name] != unit:
                conflicted.add(name)
            attrs.setdefault(name, unit)
    for name in conflicted:
        attrs.pop(name, None)
    conversions = {n: parse_unit(u) for n, u in CONVERSION_UNITS.items()}
    return UnitTables(
        classes=classes, attrs=attrs, conversions=conversions, streams=streams
    )


# ----------------------------------------------------------------------
# Transfer functions
# ----------------------------------------------------------------------
#: builtins / helpers that return their first argument's unit unchanged
_PRESERVE_BUILTINS = frozenset({"float", "int", "abs", "round", "left_fold"})
#: numpy functions that preserve the unit of their first argument
_NP_PRESERVE = frozenset(
    {"sum", "cumsum", "abs", "ceil", "floor", "rint", "repeat", "asarray",
     "ascontiguousarray", "broadcast_to", "ravel", "reshape", "copy",
     "concatenate", "maximum_sctype"}
)
#: method names that preserve their receiver's unit
_METHOD_PRESERVE = frozenset(
    {"sum", "cumsum", "astype", "copy", "item", "tolist", "reshape",
     "max", "min", "clip"}
)
#: annotation texts that mark a field as carrying a number
_NUMERIC_ANN = ("int", "float")


def _is_numeric_annotation(ann: ast.expr | None) -> bool:
    if ann is None:
        return False
    text = ast.unparse(ann)
    if text in _NUMERIC_ANN:
        return True
    if "ndarray" in text:
        return True
    return text.startswith("tuple[int") or text.startswith("tuple[float")


class _UnitWalker(Walker["Unit | None"]):
    """One module's dimensional walk."""

    tag = "unit"
    top = None

    def __init__(self, source: str, rel_path: str, tables: UnitTables) -> None:
        super().__init__(source, rel_path)
        self.tables = tables
        #: module-level string constants (stream-name resolution, UNI005)
        self.str_constants: dict[str, str] = {}
        for node in self.tree.body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            ):
                self.str_constants[node.targets[0].id] = node.value.value
            elif (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            ):
                self.str_constants[node.target.id] = node.value.value
        #: class currently being walked (for self.<field> resolution)
        self.cls_name: str | None = None
        #: the function being walked and its declared return unit (UNI004)
        self.func_name = ""
        self.return_unit: Unit | None = None

    def findings(self) -> list[Diagnostic]:
        self._check_classes()
        return super().findings()

    # -- UNI002: class field coverage ----------------------------------
    def _check_classes(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ClassDef):
                self._check_one_class(node)

    def _check_one_class(self, node: ast.ClassDef) -> None:
        entry = self.tables.classes.get(node.name)
        ann_fields: list[tuple[str, ast.expr | None, int]] = []
        members: set[str] = set()
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                ann_fields.append((stmt.target.id, stmt.annotation, stmt.lineno))
                members.add(stmt.target.id)
            elif isinstance(stmt, ast.Assign):
                for t in stmt.targets:
                    if isinstance(t, ast.Name):
                        members.add(t.id)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                members.add(stmt.name)
        numeric = [
            (name, ann, lineno)
            for name, ann, lineno in ann_fields
            if _is_numeric_annotation(ann)
        ]
        suffixed = any(suffix_unit(name) is not None for name, _, _ in numeric)
        # A class participates in the units contract when the table names
        # it or when at least one field opted in via suffix; classes with
        # neither (e.g. ShapeTable's packed rows) are out of scope.
        if entry is None and not suffixed:
            return
        covered = entry or {}
        for name, _, lineno in numeric:
            if suffix_unit(name) is not None or name in covered:
                continue
            self._flag(
                UNI002,
                lineno,
                f"numeric field '{node.name}.{name}' has no unit suffix and "
                f"no UNIT_TABLE entry",
                hint=f"rename with a unit suffix or add "
                f"UNIT_TABLE[{node.name!r}][{name!r}]",
            )
        for name in sorted(covered):
            if name not in members:
                self._flag(
                    UNI002,
                    node.lineno,
                    f"UNIT_TABLE[{node.name!r}] covers '{name}' but the class "
                    f"has no such member",
                    hint="drop the stale entry or restore the field",
                )

    # -- scopes and bindings -------------------------------------------
    @contextmanager
    def enter_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[dict[str, Unit | None]]:
        outer = (self.func_name, self.return_unit)
        declared = suffix_unit(node.name)
        if declared is None and self.cls_name is not None:
            declared = self.tables.classes.get(self.cls_name, {}).get(node.name)
        self.func_name, self.return_unit = node.name, declared
        yield {}
        self.func_name, self.return_unit = outer

    @contextmanager
    def enter_class(self, node: ast.ClassDef) -> Iterator[None]:
        outer = self.cls_name
        self.cls_name = node.name
        yield
        self.cls_name = outer

    def bind(
        self, name: str, value: Unit | None, env: dict[str, Unit | None], lineno: int
    ) -> None:
        declared = self._declared_for_name(name)
        if declared is not None:
            if units_conflict(declared, value):
                self._flag(
                    UNI004,
                    lineno,
                    f"'{name}' declares unit {format_unit(declared)} but is "
                    f"bound to a value of unit {format_unit(value)}",
                    hint="convert the value or rename the variable",
                    data=(
                        ("inferred", format_unit(value)),
                        ("declared", format_unit(declared)),
                    ),
                )
            env[name] = declared  # the declaration wins downstream
        elif value is not None:
            env[name] = value
        else:
            env.pop(name, None)

    def on_return(self, node: ast.Return, value: Unit | None) -> None:
        declared = self.return_unit
        if units_conflict(declared, value):
            self._flag(
                UNI004,
                node.lineno,
                f"'{self.func_name}' declares return unit "
                f"{format_unit(declared)} but returns {format_unit(value)}",
                hint="convert the value or rename the function",
                data=(
                    ("inferred", format_unit(value)),
                    ("declared", format_unit(declared)),
                ),
            )

    # -- name / attribute resolution -----------------------------------
    def _declared_for_name(self, name: str) -> Unit | None:
        declared = self.tables.conversions.get(name)
        if declared is None:
            declared = suffix_unit(name)
        return declared

    def name(self, name: str, env: dict[str, Unit | None]) -> Unit | None:
        if name in env:
            return env[name]
        return self._declared_for_name(name)

    def attribute(self, node: ast.Attribute, base: Unit | None) -> Unit | None:
        unit = suffix_unit(node.attr)
        if (
            unit is None
            and self.cls_name is not None
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            unit = self.tables.classes.get(self.cls_name, {}).get(node.attr)
        if unit is None:
            unit = self.tables.attrs.get(node.attr)
        return unit

    # -- expressions ---------------------------------------------------
    def join(self, a: Unit | None, b: Unit | None) -> Unit | None:
        if a == b:
            return a
        if a is None or b is None:
            known = a if b is None else b
            return known if known else None
        return None

    def _merge_add(
        self, a: Unit | None, b: Unit | None, lineno: int, kind: str
    ) -> Unit | None:
        if units_conflict(a, b):
            self._flag(
                UNI001,
                lineno,
                f"{kind} mixes units {format_unit(a)} and {format_unit(b)}",
                hint="convert one operand via a named constant in "
                "repro.sim.units_constants",
            )
            return None
        if a is None or b is None:
            known = a if b is None else b
            return known if known else None
        if not a:
            return b
        return a

    def _bare_conversion(
        self, node: ast.expr, other: Unit | None, lineno: int
    ) -> None:
        if not isinstance(node, ast.Constant):
            return
        value = node.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return
        if value <= 0 or math.isinf(value) or math.isnan(value):
            return
        exponent = math.log10(value)
        if abs(exponent - round(exponent)) > 1e-9 or abs(round(exponent)) < 3:
            return
        if not other:  # unknown or dimensionless partner: no conversion
            return
        self._flag(
            UNI003,
            lineno,
            f"bare literal {value!r} scales a value of unit "
            f"{format_unit(other)} — an undeclared unit conversion",
            hint="name the factor in repro.sim.units_constants and declare "
            "it in CONVERSION_UNITS",
        )

    def unary(self, node: ast.UnaryOp, operand: Unit | None) -> Unit | None:
        return () if isinstance(node.op, ast.Not) else operand

    def boolop(self, node: ast.BoolOp, values: list[Unit | None]) -> Unit | None:
        first = values[0]
        return first if all(u == first for u in values) else None

    def compare(self, node: ast.Compare, operands: list[Unit | None]) -> Unit | None:
        running = operands[0]
        for op, other in zip(node.ops, operands[1:]):
            if isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)):
                running = self._merge_add(running, other, node.lineno, "comparison")
            else:
                running = None
        return ()

    def subscript(self, node: ast.Subscript, base: Unit | None) -> Unit | None:
        return base  # indexing an array/sequence of X yields X

    def binop(
        self, node: ast.BinOp | ast.AugAssign, left: Unit | None, right: Unit | None
    ) -> Unit | None:
        op = node.op
        if isinstance(node, ast.AugAssign):
            if isinstance(op, (ast.Add, ast.Sub)):
                return self._merge_add(left, right, node.lineno, "augmented add/sub")
            if isinstance(op, ast.Mult):
                return unit_mul(left, right)
            if isinstance(op, (ast.Div, ast.FloorDiv)):
                return unit_div(left, right)
            return None
        if isinstance(op, (ast.Add, ast.Sub)):
            return self._merge_add(
                left, right, node.lineno,
                "addition" if isinstance(op, ast.Add) else "subtraction",
            )
        if isinstance(op, ast.Mult):
            self._bare_conversion(node.left, right, node.lineno)
            self._bare_conversion(node.right, left, node.lineno)
            return unit_mul(left, right)
        if isinstance(op, (ast.Div, ast.FloorDiv)):
            self._bare_conversion(node.right, left, node.lineno)
            return unit_div(left, right)
        if isinstance(op, ast.Mod):
            if left == right:
                return left
            return left if right is None else None
        if isinstance(op, ast.Pow):
            if isinstance(node.right, ast.Constant) and isinstance(
                node.right.value, int
            ):
                return unit_pow(left, node.right.value)
            return () if left == () else None
        if isinstance(op, ast.MatMult):
            return unit_mul(left, right)
        return None

    def call(
        self,
        node: ast.Call,
        receiver: Unit | None,
        args: list[Unit | None],
        keywords: list[tuple[str | None, Unit | None]],
        env: dict[str, Unit | None],
    ) -> Unit | None:
        func = node.func
        # --- UNI005: tracer stream emission -------------------------------
        if isinstance(func, ast.Attribute) and func.attr == "counter" and len(args) >= 2:
            self._counter_call(node, args[1])
            return None
        # --- min/max/np.minimum/np.maximum/np.where: unit merge -----------
        if isinstance(func, ast.Name) and func.id in ("min", "max"):
            return self._merge_all(args, node.lineno, func.id)
        self._keyword_check(node, keywords)
        np_name = self.np_attr(node)
        if np_name is not None:
            return self._np_call(np_name, node, args)
        if isinstance(func, ast.Name):
            name = func.id
            if name in _PRESERVE_BUILTINS:
                return args[0] if args else None
            if name == "sum" and node.args:
                first = node.args[0]
                if isinstance(first, (ast.GeneratorExp, ast.ListComp)):
                    return self.comprehension(first, env)
                return args[0]
            if name in self.tables.classes:
                return None  # composite result object
            return receiver
        if isinstance(func, ast.Attribute):
            if func.attr in _METHOD_PRESERVE:
                return receiver
            return self.attribute(func, receiver)
        return None

    def _np_call(
        self, attr: str, node: ast.Call, args: list[Unit | None]
    ) -> Unit | None:
        if attr in ("minimum", "maximum"):
            return self._merge_all(args, node.lineno, f"np.{attr}")
        if attr == "where":
            return self._merge_all(args[1:], node.lineno, "np.where")
        if attr == "dot":
            if len(args) >= 2:
                return unit_mul(args[0], args[1])
            return None
        if attr in _NP_PRESERVE:
            return args[0] if args else None
        return None

    def _merge_all(
        self, units: list[Unit | None], lineno: int, kind: str
    ) -> Unit | None:
        running: Unit | None = None
        for unit in units:
            running = self._merge_add(running, unit, lineno, kind)
        return running

    def _keyword_check(
        self, node: ast.Call, keywords: list[tuple[str | None, Unit | None]]
    ) -> None:
        """UNI004 on constructor/call keywords with declared units."""
        callee = None
        if isinstance(node.func, ast.Name):
            callee = node.func.id
        elif isinstance(node.func, ast.Attribute):
            callee = node.func.attr
        table = self.tables.classes.get(callee or "", {})
        for arg, inferred in keywords:
            if arg is None:
                continue
            declared = table.get(arg)
            if declared is None:
                declared = suffix_unit(arg)
            if units_conflict(declared, inferred):
                self._flag(
                    UNI004,
                    node.lineno,
                    f"keyword '{arg}' of {callee or 'call'} declares unit "
                    f"{format_unit(declared)} but receives "
                    f"{format_unit(inferred)}",
                    hint="convert the value before passing it",
                    data=(
                        ("inferred", format_unit(inferred)),
                        ("declared", format_unit(declared)),
                    ),
                )

    def _counter_call(self, node: ast.Call, inferred: Unit | None) -> None:
        stream_node = node.args[0]
        stream: str | None = None
        if isinstance(stream_node, ast.Constant) and isinstance(
            stream_node.value, str
        ):
            stream = stream_node.value
        elif isinstance(stream_node, ast.Name):
            stream = self.str_constants.get(stream_node.id)
        if stream is None:
            return
        declared = self.tables.streams.get(stream)
        if units_conflict(declared, inferred):
            self._flag(
                UNI005,
                node.lineno,
                f"stream '{stream}' declares unit {format_unit(declared)} "
                f"but the emitted value has unit {format_unit(inferred)}",
                hint="emit the declared dimension or register a new stream "
                "in UNIT_TABLE['obs.streams']",
                data=(
                    ("inferred", format_unit(inferred)),
                    ("declared", format_unit(declared)),
                ),
            )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def units_findings(
    source: str, rel_path: str, *, tables: UnitTables | None = None
) -> list[Diagnostic]:
    """Run the dimensional walk over one module's source text."""
    if tables is None:
        tables = load_tables()
    return _UnitWalker(source, rel_path, tables).findings()


def _conversion_drift(
    tree: ast.Module, rel: str, tables: UnitTables
) -> list[Diagnostic]:
    """UNI002 both ways between CONVERSION_UNITS and the module's
    numeric constants — an undeclared conversion factor is exactly as
    unverifiable as a bare literal."""
    present: dict[str, int] = {}
    table_lineno = 1
    for node in tree.body:
        target = None
        value = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value = node.target, node.value
        if not isinstance(target, ast.Name):
            continue
        if target.id == "CONVERSION_UNITS":
            table_lineno = node.lineno
        if (
            isinstance(value, ast.Constant)
            and isinstance(value.value, (int, float))
            and not isinstance(value.value, bool)
        ):
            present[target.id] = node.lineno
    out: list[Diagnostic] = []
    for name, lineno in sorted(present.items()):
        if name not in tables.conversions:
            out.append(
                UNI002.diag(
                    f"{rel}:{lineno}",
                    f"conversion constant '{name}' has no CONVERSION_UNITS "
                    f"entry",
                    hint="declare its unit in CONVERSION_UNITS",
                )
            )
    for name in sorted(set(tables.conversions) - set(present)):
        out.append(
            UNI002.diag(
                f"{rel}:{table_lineno}",
                f"CONVERSION_UNITS declares '{name}' which is not a module "
                f"constant",
                hint="drop the stale entry or restore the constant",
            )
        )
    return out


def analyze_units(root: Path | None = None) -> list[Diagnostic]:
    """Run the dimensional-analysis pass over the cost-model modules.

    ``root`` defaults to the installed ``repro`` package directory; pass
    a fixture tree (or ``repro check --units --source <dir>``) to scan
    another layout with the same module paths.  Only the
    :data:`SCOPE_MODULES` files are read.  The unit *declarations*
    (UNIT_TABLE, CONVERSION_UNITS) always come from the installed
    package — the contract is fixed; only the scanned sources vary.
    Raises :class:`ValueError` when none of the scope modules exist
    under ``root`` — a silent no-op would report a clean bill it never
    earned.
    """
    base = Path(root) if root is not None else Path(__file__).resolve().parent.parent
    paths = [base / rel for rel in SCOPE_MODULES if (base / rel).is_file()]
    if not paths:
        raise ValueError(f"no cost-model modules to analyze under {base}")
    tables = load_tables()

    def module_findings(source: str, rel: str) -> list[Diagnostic]:
        walker = _UnitWalker(source, rel, tables)
        diagnostics = walker.findings()
        if rel == "sim/units_constants.py":
            diagnostics.extend(_conversion_drift(walker.tree, rel, tables))
        return diagnostics

    return scan(base, paths, module_findings)
