"""AST module index and name resolution for interprocedural analysis.

The cache-safety pass (:mod:`repro.analysis.dataflow`) needs to follow a
call from ``Simulator.evaluate`` into ``repro.sim.energy`` and back: that
requires knowing, for every module, which names are functions, classes,
imports, module constants, or aliases — and being able to resolve a
dotted reference (``EvaluationCache.make_key``, ``math.ceil``) to its
definition *without importing anything*.  This module builds that index
from source text alone:

* :class:`ModuleIndex` — parse a package tree (or an in-memory mapping of
  sources, for tests) into :class:`ModuleInfo` records.
* :class:`ModuleInfo` / :class:`ClassInfo` / :class:`FunctionInfo` — the
  per-module symbol tables: functions, classes (with their dataclass
  fields, properties, and methods), imports (absolute and relative),
  ``cached_f = lru_cache(...)(f)``-style aliases, type aliases, and
  module constants.
* :meth:`ModuleIndex.resolve` — chase a dotted name through import
  chains and re-exports to its defining entity, or to an
  :class:`External` marker for names outside the index (``math``,
  ``random.random``) — the hook the sink rules (CAC003) key on.

Everything here is pure bookkeeping; the actual abstract interpretation
lives in :mod:`repro.analysis.dataflow`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Union


@dataclass(eq=False)
class FunctionInfo:
    """One function, method, or lambda definition."""

    module: "ModuleInfo"
    name: str       #: simple name, e.g. ``"evaluate"`` (``"<lambda>"`` for lambdas)
    qualname: str   #: e.g. ``"repro.sim.simulator:Simulator.evaluate"``
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]
    cls: "ClassInfo | None" = None
    is_property: bool = False
    is_staticmethod: bool = False
    is_classmethod: bool = False

    @property
    def lineno(self) -> int:
        return self.node.lineno


@dataclass(eq=False)
class ClassInfo:
    """One class definition and its member tables."""

    module: "ModuleInfo"
    name: str
    qualname: str
    node: ast.ClassDef
    #: annotated fields (``name: ann [= default]`` in the class body)
    fields: dict[str, ast.expr] = field(default_factory=dict)
    #: plain class-level assignments (enum members, class constants)
    class_attrs: set[str] = field(default_factory=set)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    properties: dict[str, FunctionInfo] = field(default_factory=dict)
    base_names: tuple[str, ...] = ()

    @property
    def is_enum(self) -> bool:
        return any("Enum" in b or "Flag" in b for b in self.base_names)


@dataclass(frozen=True)
class ImportedName:
    """``from <module> import <name> as <alias>`` (name may be a submodule)."""

    module: str
    name: str


@dataclass(frozen=True)
class ImportedModule:
    """``import <module> [as <alias>]``."""

    module: str


@dataclass(frozen=True)
class External:
    """A dotted name defined outside the indexed package (stdlib, deps)."""

    qualname: str


@dataclass(eq=False)
class TypeAlias:
    """``Name = tuple[X, ...]``-style module-level type alias."""

    module: "ModuleInfo"
    name: str
    expr: ast.expr


@dataclass(eq=False)
class ModuleConstant:
    """A module-level value binding that is neither def, class, nor alias."""

    module: "ModuleInfo"
    name: str
    value: ast.expr | None
    annotation: ast.expr | None


#: What a name can resolve to.
Entity = Union[
    FunctionInfo, ClassInfo, "ModuleInfo", External, TypeAlias, ModuleConstant
]


@dataclass(eq=False)
class ModuleInfo:
    """The symbol table of one parsed module."""

    name: str
    is_package: bool
    node: ast.Module
    #: the raw source text — kept so comment-borne contracts (the
    #: ``# unit-ok:`` waivers the units analyzer reads) can be
    #: recovered; comments never reach the AST
    source: str = ""
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    imports: dict[str, Union[ImportedName, ImportedModule]] = field(
        default_factory=dict
    )
    #: ``cached_f = lru_cache(...)(f)`` / ``g = f`` aliases (local names)
    aliases: dict[str, str] = field(default_factory=dict)
    type_aliases: dict[str, TypeAlias] = field(default_factory=dict)
    constants: dict[str, ModuleConstant] = field(default_factory=dict)

    @property
    def package(self) -> str:
        """The package this module's relative imports resolve against."""
        if self.is_package:
            return self.name
        return self.name.rpartition(".")[0]


def _base_name(expr: ast.expr) -> str:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Subscript):
        return _base_name(expr.value)
    return ""


def _decorator_name(dec: ast.expr) -> str:
    if isinstance(dec, ast.Call):
        return _decorator_name(dec.func)
    if isinstance(dec, ast.Attribute):
        return dec.attr
    if isinstance(dec, ast.Name):
        return dec.id
    return ""


def _index_class(module: ModuleInfo, node: ast.ClassDef) -> ClassInfo:
    info = ClassInfo(
        module=module,
        name=node.name,
        qualname=f"{module.name}:{node.name}",
        node=node,
        base_names=tuple(_base_name(b) for b in node.bases),
    )
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            info.fields[stmt.target.id] = stmt.annotation
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    info.class_attrs.add(target.id)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            decorators = {_decorator_name(d) for d in stmt.decorator_list}
            finfo = FunctionInfo(
                module=module,
                name=stmt.name,
                qualname=f"{module.name}:{node.name}.{stmt.name}",
                node=stmt,
                cls=info,
                is_property="property" in decorators
                or "cached_property" in decorators,
                is_staticmethod="staticmethod" in decorators,
                is_classmethod="classmethod" in decorators,
            )
            if finfo.is_property:
                info.properties[stmt.name] = finfo
            else:
                info.methods[stmt.name] = finfo
    return info


def _resolve_relative(module: ModuleInfo, node: ast.ImportFrom) -> str:
    """Absolute module path an ``ImportFrom`` refers to."""
    if node.level == 0:
        return node.module or ""
    parts = module.package.split(".") if module.package else []
    # level=1 is the current package; each extra level strips one parent.
    keep = len(parts) - (node.level - 1)
    base = parts[: max(keep, 0)]
    if node.module:
        base.append(node.module)
    return ".".join(base)


def _index_module(name: str, source: str, is_package: bool) -> ModuleInfo:
    tree = ast.parse(source, filename=name)
    module = ModuleInfo(name=name, is_package=is_package, node=tree, source=source)

    # Imports anywhere in the module (incl. inside function bodies — lazy
    # imports are common in this tree) feed the module-wide alias table.
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                target = alias.name if alias.asname else alias.name.partition(".")[0]
                module.imports.setdefault(bound, ImportedModule(target))
        elif isinstance(node, ast.ImportFrom):
            target_mod = _resolve_relative(module, node)
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                module.imports.setdefault(
                    bound, ImportedName(target_mod, alias.name)
                )

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            module.functions[stmt.name] = FunctionInfo(
                module=module,
                name=stmt.name,
                qualname=f"{name}:{stmt.name}",
                node=stmt,
            )
        elif isinstance(stmt, ast.ClassDef):
            module.classes[stmt.name] = _index_class(module, stmt)
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = stmt.value
            if isinstance(value, ast.Name):
                # plain re-binding: ``g = f``
                module.aliases[target.id] = value.id
            elif (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Call)
                and len(value.args) == 1
                and isinstance(value.args[0], ast.Name)
            ):
                # decorator-as-call: ``cached_f = lru_cache(maxsize=N)(f)``
                module.aliases[target.id] = value.args[0].id
            elif isinstance(value, ast.Subscript):
                # ``Strategy = tuple[CrossbarShape, ...]``
                module.type_aliases[target.id] = TypeAlias(
                    module=module, name=target.id, expr=value
                )
            else:
                module.constants[target.id] = ModuleConstant(
                    module=module, name=target.id, value=value, annotation=None
                )
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            module.constants[stmt.target.id] = ModuleConstant(
                module=module,
                name=stmt.target.id,
                value=stmt.value,
                annotation=stmt.annotation,
            )
    return module


class ModuleIndex:
    """All parsed modules of one package, with cross-module resolution."""

    def __init__(self, modules: Mapping[str, ModuleInfo]) -> None:
        self.modules: dict[str, ModuleInfo] = dict(modules)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_package(cls, root: Path, package: str) -> "ModuleIndex":
        """Index every ``*.py`` under ``root`` as package ``package``."""
        modules: dict[str, ModuleInfo] = {}
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root)
            parts = list(rel.parts)
            is_package = parts[-1] == "__init__.py"
            if is_package:
                parts = parts[:-1]
            else:
                parts[-1] = parts[-1][:-3]
            name = ".".join([package, *parts]) if parts else package
            modules[name] = _index_module(
                name, path.read_text(), is_package or name == package
            )
        return cls(modules)

    @classmethod
    def from_sources(cls, sources: Mapping[str, str]) -> "ModuleIndex":
        """Index an in-memory ``{dotted_name: source}`` mapping (tests).

        A name is treated as a package when any other indexed name nests
        under it (``pkg`` is a package if ``pkg.mod`` exists).
        """
        modules: dict[str, ModuleInfo] = {}
        names = set(sources)
        for name, source in sources.items():
            is_package = any(other.startswith(name + ".") for other in names)
            modules[name] = _index_module(name, source, is_package)
        return cls(modules)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve(
        self, module: ModuleInfo, name: str, _seen: frozenset[str] = frozenset()
    ) -> Entity | None:
        """Resolve a simple name in a module's top-level scope.

        Chases imports and local aliases across modules; names that leave
        the index become :class:`External`.  Returns ``None`` for names
        with no module-level binding (builtins, true locals).
        """
        guard = f"{module.name}:{name}"
        if guard in _seen:
            return None
        seen = _seen | {guard}

        if name in module.functions:
            return module.functions[name]
        if name in module.classes:
            return module.classes[name]
        if name in module.aliases:
            return self.resolve(module, module.aliases[name], seen)
        if name in module.type_aliases:
            return module.type_aliases[name]
        if name in module.constants:
            return module.constants[name]
        if name in module.imports:
            return self._resolve_import(module.imports[name], seen)
        # ``repro.sim`` package implicitly exposes its submodules.
        child = f"{module.name}.{name}"
        if module.is_package and child in self.modules:
            return self.modules[child]
        return None

    def _resolve_import(
        self, imp: Union[ImportedName, ImportedModule], seen: frozenset[str]
    ) -> Entity:
        if isinstance(imp, ImportedModule):
            return self.modules.get(imp.module) or External(imp.module)
        submodule = f"{imp.module}.{imp.name}"
        if submodule in self.modules:
            return self.modules[submodule]
        target = self.modules.get(imp.module)
        if target is None:
            return External(submodule)
        resolved = self.resolve(target, imp.name, seen)
        return resolved if resolved is not None else External(submodule)

    def resolve_qualname(self, qualname: str) -> FunctionInfo | None:
        """Resolve ``"module:func"`` / ``"module:Class.method"`` to a function."""
        module_name, _, rest = qualname.partition(":")
        module = self.modules.get(module_name)
        if module is None or not rest:
            return None
        cls_name, _, method = rest.partition(".")
        if method:
            cls = module.classes.get(cls_name)
            if cls is None:
                return None
            return cls.methods.get(method) or cls.properties.get(method)
        return module.functions.get(rest)

    def find_class(self, simple_name: str) -> ClassInfo | None:
        """First class with this simple name anywhere in the index."""
        for name in sorted(self.modules):
            cls = self.modules[name].classes.get(simple_name)
            if cls is not None:
                return cls
        return None
