"""Tests for the module index / call-resolution layer."""

from pathlib import Path

import repro
from repro.analysis.callgraph import (
    External,
    FunctionInfo,
    ModuleIndex,
)

FIXTURE_TREE = Path(__file__).parent / "fixtures" / "unsound_tree"


def small_index():
    return ModuleIndex.from_sources(
        {
            "pkg": "",
            "pkg.util": (
                "import math\n"
                "def helper(x):\n"
                "    return math.sqrt(x)\n"
                "class Thing:\n"
                "    size: int\n"
                "    KIND = 'fixed'\n"
                "    def area(self):\n"
                "        return self.size * self.size\n"
                "    @property\n"
                "    def doubled(self):\n"
                "        return self.size * 2\n"
                "    @staticmethod\n"
                "    def zero():\n"
                "        return 0\n"
            ),
            "pkg.main": (
                "from .util import Thing, helper\n"
                "renamed = helper\n"
                "def entry(t):\n"
                "    return helper(t.size)\n"
            ),
        }
    )


class TestIndexing:
    def test_functions_and_classes_indexed(self):
        index = small_index()
        util = index.modules["pkg.util"]
        assert "helper" in util.functions
        assert "Thing" in util.classes

    def test_class_members_partitioned(self):
        cls = small_index().modules["pkg.util"].classes["Thing"]
        assert "size" in cls.fields
        assert "KIND" in cls.class_attrs
        assert "area" in cls.methods
        assert "doubled" in cls.properties
        assert cls.methods["zero"].is_staticmethod

    def test_qualnames(self):
        util = small_index().modules["pkg.util"]
        assert util.functions["helper"].qualname == "pkg.util:helper"
        assert (
            util.classes["Thing"].methods["area"].qualname
            == "pkg.util:Thing.area"
        )


class TestResolution:
    def test_resolve_local_function(self):
        index = small_index()
        entity = index.resolve(index.modules["pkg.util"], "helper")
        assert isinstance(entity, FunctionInfo)

    def test_resolve_through_relative_import(self):
        index = small_index()
        entity = index.resolve(index.modules["pkg.main"], "Thing")
        assert entity is index.modules["pkg.util"].classes["Thing"]

    def test_resolve_through_local_alias(self):
        index = small_index()
        entity = index.resolve(index.modules["pkg.main"], "renamed")
        assert entity is index.modules["pkg.util"].functions["helper"]

    def test_external_import_becomes_external(self):
        index = small_index()
        entity = index.resolve(index.modules["pkg.util"], "math")
        assert isinstance(entity, External)
        assert entity.qualname == "math"

    def test_unknown_name_is_none(self):
        index = small_index()
        assert index.resolve(index.modules["pkg.util"], "nonexistent") is None

    def test_resolve_qualname_method(self):
        index = small_index()
        func = index.resolve_qualname("pkg.util:Thing.area")
        assert isinstance(func, FunctionInfo)
        assert func.name == "area"

    def test_find_class_by_simple_name(self):
        index = small_index()
        assert index.find_class("Thing").qualname == "pkg.util:Thing"


class TestFromPackage:
    def test_fixture_tree_indexes_with_repro_names(self):
        index = ModuleIndex.from_package(FIXTURE_TREE, "repro")
        assert "repro" in index.modules
        assert "repro.sim.simulator" in index.modules
        assert index.resolve_qualname("repro.sim.simulator:Simulator.evaluate")

    def test_real_package_indexes_every_module(self):
        root = Path(repro.__file__).resolve().parent
        index = ModuleIndex.from_package(root, "repro")
        assert "repro.sim.simulator" in index.modules
        assert "repro.arch.config" in index.modules
        assert index.modules["repro.sim"].is_package

    def test_lru_cache_wrapper_alias_indexed(self):
        # ``cached = lru_cache(N)(f)`` must resolve to the wrapped
        # function, so the CAC/PAR walks follow a memo wrapper into the
        # code it wraps.
        index = ModuleIndex.from_sources(
            {
                "pkg": "",
                "pkg.costs": (
                    "from functools import lru_cache\n"
                    "def f(x):\n"
                    "    return x.size\n"
                    "cached = lru_cache(maxsize=8)(f)\n"
                ),
            }
        )
        entity = index.resolve(index.modules["pkg.costs"], "cached")
        assert isinstance(entity, FunctionInfo)
        assert entity.name == "f"
