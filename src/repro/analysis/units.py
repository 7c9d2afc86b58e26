"""Dimensional analysis of the cost model (UNI rules).

The cost path mixes nanojoules, nanoseconds, nanowatts, square microns,
bytes, and plain counts in ordinary Python floats; nothing at runtime
stops ``energy_nj + latency_ns`` from producing a well-formed number
with no meaning.  This pass runs a small abstract interpreter over the
cost-model modules, tracking *physical units* instead of values, and
flags dimensional nonsense statically.

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
import re
from dataclasses import dataclass
from pathlib import Path

from .callgraph import ModuleIndex, ModuleInfo
from .invariants import UNI001, UNI002, UNI003, UNI004, UNI005, Diagnostic

_SUPPRESS_RE = re.compile(r"#\s*unit-ok:\s*(UNI\d{3})")

#: A unit is a sorted tuple of (dimension, exponent) pairs; ``()`` is
#: dimensionless and ``None`` is unknown.
Unit = "tuple[tuple[str, int], ...]"

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

#: The modules the cost path flows through — the analysis scope.
SCOPE_MODULES: tuple[tuple[str, str], ...] = (
    ("repro.arch.config", "arch/config.py"),
    ("repro.core.allocation.summary", "core/allocation/summary.py"),
    ("repro.obs.metrics", "obs/metrics.py"),
    ("repro.sim.area", "sim/area.py"),
    ("repro.sim.energy", "sim/energy.py"),
    ("repro.sim.kernels", "sim/kernels.py"),
    ("repro.sim.latency", "sim/latency.py"),
    ("repro.sim.metrics", "sim/metrics.py"),
    ("repro.sim.simulator", "sim/simulator.py"),
    ("repro.sim.units_constants", "sim/units_constants.py"),
)


# ----------------------------------------------------------------------
# Unit algebra
# ----------------------------------------------------------------------
def parse_unit(spec: str) -> tuple:
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


def format_unit(unit: tuple | None) -> str:
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


def unit_mul(a: tuple | None, b: tuple | None) -> tuple | None:
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


def unit_inv(a: tuple | None) -> tuple | None:
    if a is None:
        return None
    return tuple(sorted((d, -e) for d, e in a))


def unit_div(a: tuple | None, b: tuple | None) -> tuple | None:
    return unit_mul(a, unit_inv(b))


def unit_pow(a: tuple | None, n: int) -> tuple | None:
    if a is None:
        return None
    exps = {d: e * n for d, e in a}
    return tuple(sorted((d, e) for d, e in exps.items() if e))


def units_conflict(a: tuple | None, b: tuple | None) -> bool:
    """Two *known, dimensioned, different* units — the only combination
    that is positive evidence of nonsense.  Unknown (``None``) and
    dimensionless (``()``) are polymorphic and never conflict."""
    return bool(a) and bool(b) and a != b


def suffix_unit(name: str) -> tuple | None:
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
    classes: dict[str, dict[str, tuple]]
    #: attribute-name fallback: the union over all classes, with names
    #: whose declared units disagree across classes dropped entirely
    attrs: dict[str, tuple]
    #: conversion-constant name -> unit (from CONVERSION_UNITS)
    conversions: dict[str, tuple]
    #: obs counter stream name -> unit (from UNIT_TABLE["obs.streams"])
    streams: dict[str, tuple]


def load_tables() -> UnitTables:
    """Build :class:`UnitTables` from the *real* installed declarations.

    Like the kernel-parity contract, the tables always come from the
    importable ``repro`` package even under ``--source`` — the contract
    is the real one; only the scanned sources vary.
    """
    from ..arch.config import UNIT_TABLE
    from ..sim.units_constants import CONVERSION_UNITS

    classes: dict[str, dict[str, tuple]] = {}
    streams: dict[str, tuple] = {}
    for cls_name, fields_map in UNIT_TABLE.items():
        parsed = {f: parse_unit(u) for f, u in fields_map.items()}
        if cls_name == "obs.streams":
            streams = parsed
        else:
            classes[cls_name] = parsed
    attrs: dict[str, tuple] = {}
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
# The abstract interpreter
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


class _Checker:
    """One module's dimensional walk."""

    def __init__(self, source: str, rel_path: str, tables: UnitTables) -> None:
        self.rel_path = rel_path
        self.tables = tables
        self.tree = ast.parse(source, filename=rel_path)
        self.diags: list[Diagnostic] = []
        self.suppressed: dict[int, set[str]] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            rules = set(_SUPPRESS_RE.findall(line))
            if rules:
                self.suppressed[lineno] = rules
        #: local names bound to the numpy module
        self.np_names: set[str] = set()
        #: module-level string constants (stream-name resolution, UNI005)
        self.str_constants: dict[str, str] = {}
        for node in self.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy":
                        self.np_names.add(alias.asname or "numpy")
            elif (
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

    # -- driver --------------------------------------------------------
    def run(self) -> list[Diagnostic]:
        self._check_classes()
        module_env: dict[str, tuple] = {}
        for stmt in self.tree.body:
            self._stmt(stmt, module_env)
        self.diags.sort(key=lambda d: (d.rule_id, d.location, d.message))
        return self.diags

    def _flag(
        self,
        rule,
        lineno: int,
        message: str,
        hint: str = "",
        data: tuple[tuple[str, str], ...] = (),
    ) -> None:
        if rule.rule_id in self.suppressed.get(lineno, set()):
            return
        self.diags.append(
            rule.diag(f"{self.rel_path}:{lineno}", message, hint=hint, data=data)
        )

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

    # -- statements ----------------------------------------------------
    def _stmt(self, node: ast.stmt, env: dict[str, tuple]) -> None:
        if isinstance(node, ast.Assign):
            self._assign(node, env)
        elif isinstance(node, ast.AnnAssign):
            unit = self._infer(node.value, env) if node.value else None
            if isinstance(node.target, ast.Name):
                self._bind_name(node.target.id, unit, env, node.lineno)
        elif isinstance(node, ast.AugAssign):
            self._augassign(node, env)
        elif isinstance(node, ast.Return):
            self._return(node, env)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._check_function(node)
        elif isinstance(node, ast.ClassDef):
            outer = self.cls_name
            self.cls_name = node.name
            for stmt in node.body:
                self._stmt(stmt, {})
            self.cls_name = outer
        elif isinstance(node, (ast.If, ast.While)):
            self._infer(node.test, env)
            for stmt in node.body + node.orelse:
                self._stmt(stmt, env)
        elif isinstance(node, ast.For):
            self._infer(node.iter, env)
            for name in _target_names(node.target):
                env.pop(name, None)
            for stmt in node.body + node.orelse:
                self._stmt(stmt, env)
        elif isinstance(node, ast.With):
            for item in node.items:
                self._infer(item.context_expr, env)
            for stmt in node.body:
                self._stmt(stmt, env)
        elif isinstance(node, ast.Try):
            for stmt in node.body + node.orelse + node.finalbody:
                self._stmt(stmt, env)
            for handler in node.handlers:
                for stmt in handler.body:
                    self._stmt(stmt, env)
        elif isinstance(node, ast.Expr):
            self._infer(node.value, env)
        elif isinstance(node, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._infer(child, env)

    def _assign(self, node: ast.Assign, env: dict[str, tuple]) -> None:
        # Elementwise tuple-assign keeps each binding precise:
        # ``energy, latency_ns = e_nj, t_ns``.
        if (
            len(node.targets) == 1
            and isinstance(node.targets[0], ast.Tuple)
            and isinstance(node.value, ast.Tuple)
            and len(node.targets[0].elts) == len(node.value.elts)
        ):
            for tgt, val in zip(node.targets[0].elts, node.value.elts):
                unit = self._infer(val, env)
                if isinstance(tgt, ast.Name):
                    self._bind_name(tgt.id, unit, env, node.lineno)
                else:
                    for name in _target_names(tgt):
                        env.pop(name, None)
            return
        unit = self._infer(node.value, env)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._bind_name(target.id, unit, env, node.lineno)
            else:
                for name in _target_names(target):
                    env.pop(name, None)

    def _augassign(self, node: ast.AugAssign, env: dict[str, tuple]) -> None:
        value = self._infer(node.value, env)
        current = (
            self._name_unit(node.target.id, env)
            if isinstance(node.target, ast.Name)
            else self._infer(node.target, env)
        )
        if isinstance(node.op, (ast.Add, ast.Sub)):
            result = self._merge_add(current, value, node.lineno,
                                     "augmented add/sub")
        elif isinstance(node.op, ast.Mult):
            result = unit_mul(current, value)
        elif isinstance(node.op, (ast.Div, ast.FloorDiv)):
            result = unit_div(current, value)
        else:
            result = None
        if isinstance(node.target, ast.Name):
            self._bind_name(node.target.id, result, env, node.lineno)

    def _bind_name(
        self, name: str, unit: tuple | None, env: dict[str, tuple], lineno: int
    ) -> None:
        declared = self._declared_for_name(name)
        if declared is not None:
            if units_conflict(declared, unit):
                self._flag(
                    UNI004,
                    lineno,
                    f"'{name}' declares unit {format_unit(declared)} but is "
                    f"bound to a value of unit {format_unit(unit)}",
                    hint="convert the value or rename the variable",
                    data=(
                        ("inferred", format_unit(unit)),
                        ("declared", format_unit(declared)),
                    ),
                )
            env[name] = declared  # the declaration wins downstream
        elif unit is not None:
            env[name] = unit
        else:
            env.pop(name, None)

    def _return(self, node: ast.Return, env: dict[str, tuple]) -> None:
        inferred = self._infer(node.value, env) if node.value else None
        declared = self._current_return_unit
        if units_conflict(declared, inferred):
            self._flag(
                UNI004,
                node.lineno,
                f"'{self._current_func}' declares return unit "
                f"{format_unit(declared)} but returns "
                f"{format_unit(inferred)}",
                hint="convert the value or rename the function",
                data=(
                    ("inferred", format_unit(inferred)),
                    ("declared", format_unit(declared)),
                ),
            )

    _current_return_unit: tuple | None = None
    _current_func: str = ""

    def _check_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        env: dict[str, tuple] = {}
        args = node.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            declared = self._declared_for_name(arg.arg)
            if declared is not None:
                env[arg.arg] = declared
        outer_ret = self._current_return_unit
        outer_func = self._current_func
        declared_ret = suffix_unit(node.name)
        if declared_ret is None and self.cls_name is not None:
            declared_ret = self.tables.classes.get(self.cls_name, {}).get(node.name)
        self._current_return_unit = declared_ret
        self._current_func = node.name
        outer_cls = self.cls_name
        for stmt in node.body:
            self._stmt(stmt, env)
        self.cls_name = outer_cls
        self._current_return_unit = outer_ret
        self._current_func = outer_func

    # -- name / attribute resolution -----------------------------------
    def _declared_for_name(self, name: str) -> tuple | None:
        declared = self.tables.conversions.get(name)
        if declared is None:
            declared = suffix_unit(name)
        return declared

    def _name_unit(self, name: str, env: dict[str, tuple]) -> tuple | None:
        if name in env:
            return env[name]
        return self._declared_for_name(name)

    def _attr_unit(self, node: ast.Attribute) -> tuple | None:
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
    def _merge_add(
        self, a: tuple | None, b: tuple | None, lineno: int, kind: str
    ) -> tuple | None:
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
        self, node: ast.expr, other: tuple | None, lineno: int
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

    def _infer(self, node: ast.expr | None, env: dict[str, tuple]) -> tuple | None:
        if node is None:
            return None
        if isinstance(node, ast.Constant):
            return None  # literals are unit-polymorphic
        if isinstance(node, ast.Name):
            return self._name_unit(node.id, env)
        if isinstance(node, ast.Attribute):
            self._infer(node.value, env)
            return self._attr_unit(node)
        if isinstance(node, ast.BinOp):
            return self._binop(node, env)
        if isinstance(node, ast.UnaryOp):
            inner = self._infer(node.operand, env)
            if isinstance(node.op, ast.Not):
                return ()
            return inner
        if isinstance(node, ast.Compare):
            running = self._infer(node.left, env)
            for op, comparator in zip(node.ops, node.comparators):
                other = self._infer(comparator, env)
                if isinstance(
                    op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)
                ):
                    running = self._merge_add(
                        running, other, node.lineno, "comparison"
                    )
                else:
                    running = None
            return ()
        if isinstance(node, ast.BoolOp):
            units = [self._infer(v, env) for v in node.values]
            first = units[0]
            return first if all(u == first for u in units) else None
        if isinstance(node, ast.IfExp):
            self._infer(node.test, env)
            body = self._infer(node.body, env)
            orelse = self._infer(node.orelse, env)
            if body == orelse:
                return body
            if body is None or orelse is None:
                known = body if orelse is None else orelse
                return known if known else None
            return None
        if isinstance(node, ast.Call):
            return self._call(node, env)
        if isinstance(node, ast.Subscript):
            # Indexing an array/sequence of X yields X.
            unit = self._infer(node.value, env)
            self._infer(node.slice, env)
            return unit
        if isinstance(node, ast.Starred):
            return self._infer(node.value, env)
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    self._infer(value.value, env)
            return None
        if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            self._comp_elt_unit(node, env)
            return None
        if isinstance(node, ast.DictComp):
            child = self._comp_env(node.generators, env)
            self._infer(node.key, child)
            self._infer(node.value, child)
            return None
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for elt in node.elts:
                self._infer(elt, env)
            return None
        if isinstance(node, ast.Dict):
            for value in node.values:
                self._infer(value, env)
            return None
        return None

    def _binop(self, node: ast.BinOp, env: dict[str, tuple]) -> tuple | None:
        left = self._infer(node.left, env)
        right = self._infer(node.right, env)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            return self._merge_add(
                left, right, node.lineno,
                "addition" if isinstance(node.op, ast.Add) else "subtraction",
            )
        if isinstance(node.op, ast.Mult):
            self._bare_conversion(node.left, right, node.lineno)
            self._bare_conversion(node.right, left, node.lineno)
            return unit_mul(left, right)
        if isinstance(node.op, (ast.Div, ast.FloorDiv)):
            self._bare_conversion(node.right, left, node.lineno)
            return unit_div(left, right)
        if isinstance(node.op, ast.Mod):
            if left == right:
                return left
            return left if right is None else None
        if isinstance(node.op, ast.Pow):
            if isinstance(node.right, ast.Constant) and isinstance(
                node.right.value, int
            ):
                return unit_pow(left, node.right.value)
            return () if left == () else None
        if isinstance(node.op, ast.MatMult):
            return unit_mul(left, right)
        return None

    def _comp_env(
        self, generators: list[ast.comprehension], env: dict[str, tuple]
    ) -> dict[str, tuple]:
        child = dict(env)
        for gen in generators:
            self._infer(gen.iter, env)
            for name in _target_names(gen.target):
                child.pop(name, None)
        return child

    def _comp_elt_unit(
        self,
        node: "ast.GeneratorExp | ast.ListComp | ast.SetComp",
        env: dict[str, tuple],
    ) -> tuple | None:
        child = self._comp_env(node.generators, env)
        return self._infer(node.elt, child)

    def _call(self, node: ast.Call, env: dict[str, tuple]) -> tuple | None:
        func = node.func
        # --- UNI005: tracer stream emission -------------------------------
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "counter"
            and len(node.args) >= 2
        ):
            self._infer(func.value, env)
            self._infer(node.args[0], env)
            for extra in node.args[2:]:
                self._infer(extra, env)
            for kw in node.keywords:
                self._infer(kw.value, env)
            self._counter_call(node, env)
            return None
        # --- min/max/np.minimum/np.maximum/np.where: unit merge -----------
        if isinstance(func, ast.Name) and func.id in ("min", "max"):
            return self._merge_args(node.args, env, node.lineno, func.id)
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self.np_names
        ):
            return self._np_call(func.attr, node, env)
        arg_units = [self._infer(a, env) for a in node.args]
        self._keyword_check(node, env)
        if isinstance(func, ast.Name):
            name = func.id
            if name in _PRESERVE_BUILTINS:
                return arg_units[0] if arg_units else None
            if name == "sum" and node.args:
                first = node.args[0]
                if isinstance(first, (ast.GeneratorExp, ast.ListComp)):
                    return self._comp_elt_unit(first, env)
                return arg_units[0]
            if name in self.tables.classes:
                return None  # composite result object
            return self._name_unit(name, env)
        if isinstance(func, ast.Attribute):
            receiver = self._infer(func.value, env)
            if func.attr in _METHOD_PRESERVE:
                return receiver
            return self._attr_unit(func)
        return None

    def _np_call(
        self, attr: str, node: ast.Call, env: dict[str, tuple]
    ) -> tuple | None:
        arg_units = [self._infer(a, env) for a in node.args]
        self._keyword_check(node, env)
        if attr in ("minimum", "maximum"):
            return self._merge_args(node.args, env, node.lineno, f"np.{attr}",
                                    precomputed=arg_units)
        if attr == "where":
            return self._merge_args(
                node.args[1:], env, node.lineno, "np.where",
                precomputed=arg_units[1:],
            )
        if attr == "dot":
            if len(arg_units) >= 2:
                return unit_mul(arg_units[0], arg_units[1])
            return None
        if attr in _NP_PRESERVE:
            return arg_units[0] if arg_units else None
        return None

    def _merge_args(
        self,
        args: list[ast.expr],
        env: dict[str, tuple],
        lineno: int,
        kind: str,
        precomputed: "list[tuple | None] | None" = None,
    ) -> tuple | None:
        units = (
            precomputed
            if precomputed is not None
            else [self._infer(a, env) for a in args]
        )
        running: tuple | None = None
        for unit in units:
            running = self._merge_add(running, unit, lineno, kind)
        return running

    def _keyword_check(self, node: ast.Call, env: dict[str, tuple]) -> None:
        """UNI004 on constructor/call keywords with declared units."""
        callee = None
        if isinstance(node.func, ast.Name):
            callee = node.func.id
        elif isinstance(node.func, ast.Attribute):
            callee = node.func.attr
        table = self.tables.classes.get(callee or "", {})
        for kw in node.keywords:
            inferred = self._infer(kw.value, env)
            if kw.arg is None:
                continue
            declared = table.get(kw.arg)
            if declared is None:
                declared = suffix_unit(kw.arg)
            if units_conflict(declared, inferred):
                self._flag(
                    UNI004,
                    node.lineno,
                    f"keyword '{kw.arg}' of {callee or 'call'} declares unit "
                    f"{format_unit(declared)} but receives "
                    f"{format_unit(inferred)}",
                    hint="convert the value before passing it",
                    data=(
                        ("inferred", format_unit(inferred)),
                        ("declared", format_unit(declared)),
                    ),
                )

    def _counter_call(self, node: ast.Call, env: dict[str, tuple]) -> None:
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
        inferred = self._infer(node.args[1], env)
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


def _target_names(node: ast.expr) -> list[str]:
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, (ast.Tuple, ast.List)):
        names: list[str] = []
        for elt in node.elts:
            names.extend(_target_names(elt))
        return names
    if isinstance(node, ast.Starred):
        return _target_names(node.value)
    return []


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def units_findings(
    source: str, rel_path: str, *, tables: UnitTables | None = None
) -> list[Diagnostic]:
    """Run the dimensional walk over one module's source text."""
    if tables is None:
        tables = load_tables()
    return _Checker(source, rel_path, tables).run()


def _conversion_drift(mod: ModuleInfo, rel: str, tables: UnitTables) -> list[Diagnostic]:
    """UNI002 both ways between CONVERSION_UNITS and the module's
    numeric constants — an undeclared conversion factor is exactly as
    unverifiable as a bare literal."""
    present: dict[str, int] = {}
    table_lineno = 1
    for node in mod.node.body:
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
    another layout with the same module paths.  The unit *declarations*
    (UNIT_TABLE, CONVERSION_UNITS) always come from the installed
    package — the contract is fixed; only the scanned sources vary.
    Raises :class:`ValueError` when none of the scope modules exist
    under ``root`` — a silent no-op would report a clean bill it never
    earned.
    """
    base = root if root is not None else Path(__file__).resolve().parent.parent
    tables = load_tables()
    index = ModuleIndex.from_package(Path(base), "repro")
    diagnostics: list[Diagnostic] = []
    found = False
    for dotted, rel in SCOPE_MODULES:
        module = index.modules.get(dotted)
        if module is None:
            continue
        found = True
        diagnostics.extend(units_findings(module.source, rel, tables=tables))
        if dotted == "repro.sim.units_constants":
            diagnostics.extend(_conversion_drift(module, rel, tables))
    if not found:
        raise ValueError(f"no cost-model modules to analyze under {base}")
    diagnostics.sort(key=lambda d: (d.rule_id, d.location, d.message))
    return diagnostics
