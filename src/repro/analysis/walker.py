"""One intraprocedural abstract-interpretation walker for NUM and UNI.

The numeric-safety pass (:mod:`repro.analysis.numeric`, an
``_Info`` dtype/zero/taint lattice) and the dimensional pass
(:mod:`repro.analysis.units`, unit exponents) interpret the same Python
the same way; only the abstract value and the rules differ.
:class:`Walker` owns everything they share — parsing, the per-line
``# <tag>-ok: XXXnnn`` waiver map, the numpy alias set, finding
collection, and the statement/expression walk — and each analyzer plugs
in its lattice through hooks (``constant``, ``name``, ``attribute``,
``unary``, ``binop``, ``boolop``, ``compare``, ``call``, ``subscript``,
``join``, ``bind``, ``guard``, ``enter_function``, ``on_return``,
``enter_class``).

One statement policy serves both lattices:

* ``if``: each branch walks a copy of the env and the copies are joined
  name by name (a name bound in one branch only joins with what a lookup
  of it returns).  A body ending in ``return``/``raise``/``continue``/
  ``break`` is an early exit: the walk continues with the else-env
  narrowed by the negated guard instead.
* ``a, b = x, y`` binds element by element; other destructuring binds
  every element to the lattice's top.
* functions and lambdas evaluate in a fresh env; class bodies walk each
  statement in a fresh env; decorators, default arguments and parameter
  annotations evaluate in the enclosing env.
* every other statement kind (``try``, ``while``, ``match``, ...) and
  every expression kind without a hook has its children visited in
  order, and an unhooked expression yields the lattice's top.  Nothing
  is skipped, so a hazard nested anywhere is seen.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Generic, TypeVar

from .invariants import Diagnostic, Rule

V = TypeVar("V")

#: statements after which control never falls through
_EXITS = (ast.Return, ast.Raise, ast.Continue, ast.Break)


def _finding_order(diag: Diagnostic) -> tuple[str, str, str]:
    """The report order shared by the NUM and UNI passes."""
    return (diag.rule_id, diag.location, diag.message)


class Walker(Generic[V]):
    """One module's walk over an abstract value ``V``.

    Subclasses set :attr:`tag` (the waiver comment's ``<tag>-ok``) and
    :attr:`top` (the value the walker knows nothing about) and override
    the hooks whose defaults below do not fit their lattice.
    """

    tag: str
    top: V

    def __init__(self, source: str, rel_path: str) -> None:
        self.rel_path = rel_path
        self.tree = ast.parse(source, filename=rel_path)
        self.diags: list[Diagnostic] = []
        waiver = re.compile(rf"#\s*{self.tag}-ok:\s*([A-Z]{{3}}\d{{3}})")
        self.suppressed: dict[int, set[str]] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            rules = set(waiver.findall(line))
            if rules:
                self.suppressed[lineno] = rules
        #: local names bound to the numpy module (``import numpy as np``)
        self.np_names: set[str] = {
            alias.asname or "numpy"
            for node in ast.walk(self.tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name == "numpy"
        }

    def findings(self) -> list[Diagnostic]:
        """Walk the module once and return its sorted findings."""
        self.walk(self.tree.body, {})
        self.diags.sort(key=_finding_order)
        return self.diags

    def _flag(
        self,
        rule: Rule,
        lineno: int,
        message: str,
        hint: str = "",
        data: tuple[tuple[str, str], ...] = (),
    ) -> None:
        if rule.rule_id in self.suppressed.get(lineno, ()):
            return
        self.diags.append(
            rule.diag(f"{self.rel_path}:{lineno}", message, hint=hint, data=data)
        )

    def np_attr(self, call: ast.Call) -> str | None:
        """``"zeros"`` for ``np.zeros(...)``; ``None`` for non-numpy calls."""
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self.np_names
        ):
            return func.attr
        return None

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def walk(self, stmts: list[ast.stmt], env: dict[str, V]) -> None:
        for stmt in stmts:
            self.statement(stmt, env)

    def statement(self, stmt: ast.stmt, env: dict[str, V]) -> None:
        if isinstance(stmt, ast.Assign):
            target, value = stmt.targets[0], stmt.value
            if (
                len(stmt.targets) == 1
                and isinstance(target, ast.Tuple)
                and isinstance(value, ast.Tuple)
                and len(target.elts) == len(value.elts)
            ):
                values = [self.eval(elt, env) for elt in value.elts]
                for elt, result in zip(target.elts, values):
                    self._bind(elt, result, env, stmt.lineno)
            else:
                result = self.eval(value, env)
                for target in stmt.targets:
                    self._bind(target, result, env, stmt.lineno)
        elif isinstance(stmt, ast.AnnAssign):
            result = self.top if stmt.value is None else self.eval(stmt.value, env)
            self._bind(stmt.target, result, env, stmt.lineno)
        elif isinstance(stmt, ast.AugAssign):
            operand = self.eval(stmt.value, env)
            current = self.eval(stmt.target, env)
            self._bind(
                stmt.target, self.binop(stmt, current, operand), env, stmt.lineno
            )
        elif isinstance(stmt, ast.Return):
            self.on_return(
                stmt, self.top if stmt.value is None else self.eval(stmt.value, env)
            )
        elif isinstance(stmt, ast.If):
            self._if(stmt, env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.eval(stmt.iter, env)
            self._bind(stmt.target, self.top, env, stmt.lineno)
            self.walk(stmt.body, env)
            self.walk(stmt.orelse, env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, self.top, env, stmt.lineno)
            self.walk(stmt.body, env)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._visit_children(stmt.args, env)
            for decorator in stmt.decorator_list:
                self.eval(decorator, env)
            with self.enter_function(stmt) as scope:
                self.walk(stmt.body, scope)
        elif isinstance(stmt, ast.ClassDef):
            for expr in (
                *stmt.decorator_list,
                *stmt.bases,
                *(kw.value for kw in stmt.keywords),
            ):
                self.eval(expr, env)
            with self.enter_class(stmt):
                for member in stmt.body:
                    self.statement(member, {})
        else:
            self._visit_children(stmt, env)

    def _if(self, stmt: ast.If, env: dict[str, V]) -> None:
        self.eval(stmt.test, env)
        body = dict(env)
        self.guard(stmt.test, body, negated=False)
        self.walk(stmt.body, body)
        orelse = dict(env)
        self.walk(stmt.orelse, orelse)
        if stmt.body and isinstance(stmt.body[-1], _EXITS):
            # ``if d == 0: raise`` — only the negated test survives.
            env.clear()
            env.update(orelse)
            self.guard(stmt.test, env, negated=True)
            return
        for name in body.keys() | orelse.keys():
            env[name] = self.join(self.name(name, body), self.name(name, orelse))

    def _bind(self, target: ast.expr, value: V, env: dict[str, V], lineno: int) -> None:
        if isinstance(target, ast.Name):
            self.bind(target.id, value, env, lineno)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, self.top, env, lineno)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, self.top, env, lineno)
        # Attribute / Subscript stores: no tracking.

    def _visit_children(self, node: ast.AST, env: dict[str, V]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self.statement(child, env)
            elif isinstance(child, ast.expr):
                self.eval(child, env)
            else:
                self._visit_children(child, env)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def eval(self, expr: ast.expr, env: dict[str, V]) -> V:
        if isinstance(expr, ast.Constant):
            return self.constant(expr)
        if isinstance(expr, ast.Name):
            return self.name(expr.id, env)
        if isinstance(expr, ast.Attribute):
            return self.attribute(expr, self.eval(expr.value, env))
        if isinstance(expr, ast.UnaryOp):
            return self.unary(expr, self.eval(expr.operand, env))
        if isinstance(expr, ast.BinOp):
            left = self.eval(expr.left, env)
            return self.binop(expr, left, self.eval(expr.right, env))
        if isinstance(expr, ast.BoolOp):
            return self.boolop(expr, [self.eval(v, env) for v in expr.values])
        if isinstance(expr, ast.Compare):
            operands = [expr.left, *expr.comparators]
            return self.compare(expr, [self.eval(e, env) for e in operands])
        if isinstance(expr, ast.Call):
            func = expr.func
            receiver = self.eval(
                func.value if isinstance(func, ast.Attribute) else func, env
            )
            args = [self.eval(a, env) for a in expr.args]
            keywords = [(kw.arg, self.eval(kw.value, env)) for kw in expr.keywords]
            return self.call(expr, receiver, args, keywords, env)
        if isinstance(expr, ast.Subscript):
            base = self.eval(expr.value, env)
            self.eval(expr.slice, env)
            return self.subscript(expr, base)
        if isinstance(expr, ast.IfExp):
            self.eval(expr.test, env)
            body = self.eval(expr.body, env)
            return self.join(body, self.eval(expr.orelse, env))
        if isinstance(expr, ast.Starred):
            return self.eval(expr.value, env)
        if isinstance(expr, ast.NamedExpr):
            value = self.eval(expr.value, env)
            self._bind(expr.target, value, env, expr.lineno)
            return value
        if isinstance(expr, ast.Lambda):
            self._visit_children(expr.args, env)
            self.eval(expr.body, {})
            return self.top
        if isinstance(
            expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            self.comprehension(expr, env)
            return self.top
        self._visit_children(expr, env)
        return self.top

    def comprehension(
        self,
        expr: ast.ListComp | ast.SetComp | ast.GeneratorExp | ast.DictComp,
        env: dict[str, V],
    ) -> V:
        """Walk a comprehension in its own scope; the element's value
        (a dict comprehension's value) is returned."""
        scope = dict(env)
        for gen in expr.generators:
            self.eval(gen.iter, scope)
            self._bind(gen.target, self.top, scope, expr.lineno)
            for cond in gen.ifs:
                self.eval(cond, scope)
        if isinstance(expr, ast.DictComp):
            self.eval(expr.key, scope)
            return self.eval(expr.value, scope)
        return self.eval(expr.elt, scope)

    # ------------------------------------------------------------------
    # hooks: the lattice plugs in here
    # ------------------------------------------------------------------
    def join(self, a: V, b: V) -> V:
        """Least upper bound of two branch values."""
        raise NotImplementedError

    def constant(self, node: ast.Constant) -> V:
        return self.top

    def name(self, name: str, env: dict[str, V]) -> V:
        return env.get(name, self.top)

    def attribute(self, node: ast.Attribute, base: V) -> V:
        return self.top

    def unary(self, node: ast.UnaryOp, operand: V) -> V:
        return self.top

    def binop(self, node: ast.BinOp | ast.AugAssign, left: V, right: V) -> V:
        """``node.op`` applied to ``left`` and ``right`` (an ``x op= y``
        statement arrives as its :class:`ast.AugAssign`)."""
        return self.top

    def boolop(self, node: ast.BoolOp, values: list[V]) -> V:
        return self.top

    def compare(self, node: ast.Compare, operands: list[V]) -> V:
        return self.top

    def call(
        self,
        node: ast.Call,
        receiver: V,
        args: list[V],
        keywords: list[tuple[str | None, V]],
        env: dict[str, V],
    ) -> V:
        """``receiver`` is the value of ``f`` in ``f(...)``, or of ``x``
        in ``x.m(...)``; ``keywords`` pairs ``None`` with ``**kwargs``."""
        return self.top

    def subscript(self, node: ast.Subscript, base: V) -> V:
        return self.top

    def bind(self, name: str, value: V, env: dict[str, V], lineno: int) -> None:
        env[name] = value

    def guard(self, test: ast.expr, env: dict[str, V], *, negated: bool) -> None:
        """Narrow ``env`` by ``test`` (or by ``not test`` when
        ``negated``) on the branch it dominates."""

    @contextmanager
    def enter_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[dict[str, V]]:
        """Context for walking a function body; yields its fresh env."""
        yield {}

    def on_return(self, node: ast.Return, value: V) -> None:
        """Called with the value of each ``return`` statement."""

    @contextmanager
    def enter_class(self, node: ast.ClassDef) -> Iterator[None]:
        """Context for walking a class body."""
        yield


def scan(
    base: Path,
    paths: Iterable[Path],
    check: Callable[[str, str], list[Diagnostic]],
) -> list[Diagnostic]:
    """Run ``check(source, rel_path)`` over each file under ``base``."""
    diagnostics: list[Diagnostic] = []
    for path in paths:
        diagnostics.extend(check(path.read_text(), path.relative_to(base).as_posix()))
    return sorted(diagnostics, key=_finding_order)
