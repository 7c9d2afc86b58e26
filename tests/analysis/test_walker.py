"""The shared NUM/UNI walker sees hazards under every syntax kind.

Each case hides one hazard under a construct that a hand-written
per-kind walker can skip: a ``match`` arm, an ``async for`` body, a
walrus value, a lambda body, a slice bound, a decorator, a default
argument, an ``except*`` handler.  The walker's generic child traversal
must reach all of them for both analyzers.
"""

from __future__ import annotations

import sys

import pytest

from repro.analysis.numeric import numeric_findings
from repro.analysis.units import units_findings

NUM_HAZARD = "1.0 / np.zeros(3)"  # NUM003
UNI_HAZARD = "c.energy_adc_nj + c.latency_adc_ns"  # UNI001

needs_except_star = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="except* is Python 3.11+ syntax"
)

#: hazards both hand-written walkers skipped (``{h}`` marks the spot)
BOTH = [
    pytest.param(
        "def f(c, x):\n    match x:\n        case 1:\n            return {h}\n",
        id="match_arm",
    ),
    pytest.param("@register({h})\ndef f():\n    pass\n", id="decorator"),
    pytest.param("def f(x={h}):\n    return x\n", id="default_argument"),
    pytest.param(
        "def f(c):\n    try:\n        pass\n    except* ValueError:\n"
        "        y = {h}\n",
        id="except_star",
        marks=needs_except_star,
    ),
]
#: hazards only the units walker skipped
UNITS_ONLY = [
    pytest.param(
        "async def f(c, xs):\n    async for x in xs:\n        y = {h}\n",
        id="async_for",
    ),
    pytest.param(
        "async def f(c, ctx):\n    async with ctx:\n        y = {h}\n",
        id="async_with",
    ),
    pytest.param(
        "def f(c):\n    if (y := {h}):\n        return y\n", id="walrus_value"
    ),
    pytest.param("def f(c):\n    return lambda: {h}\n", id="lambda_body"),
    pytest.param("def f(c, xs):\n    return xs[1:{h}]\n", id="slice_bound"),
]


def _source(template: str, hazard: str) -> str:
    return "import numpy as np\n" + template.format(h=hazard)


@pytest.mark.parametrize("template", BOTH)
def test_numeric_sees_hazard(template):
    found = numeric_findings(_source(template, NUM_HAZARD), "sim/mod.py")
    assert [d.rule_id for d in found] == ["NUM003"]


@pytest.mark.parametrize("template", BOTH + UNITS_ONLY)
def test_units_sees_hazard(template):
    found = units_findings(_source(template, UNI_HAZARD), "sim/mod.py")
    assert [d.rule_id for d in found] == ["UNI001"]
