"""Scenario boundary checks: NaN, inf and negative values are refused.

``nan < 0`` and ``nan <= 0`` are both False, so sign checks alone let
NaN through; a NaN SLO used to report 0.0 attainment without complaint.
Every rejection names the offending field.
"""

from __future__ import annotations

import math

import pytest

from repro.serve import BUILTIN_SCENARIOS
from repro.serve.scenario import (
    ArrivalPhase,
    Scenario,
    TenantSpec,
    scenario_from_dict,
    scenario_to_dict,
)

NON_FINITE = [math.nan, math.inf, -math.inf]


def tenant(**overrides) -> TenantSpec:
    return TenantSpec(**{"name": "t", "model": "lenet", **overrides})


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("field", ["at_ns", "rate_rps"])
def test_phase_rejects_non_finite(field, value):
    kwargs = {"at_ns": 1e6, "rate_rps": 100.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ArrivalPhase(**kwargs)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("field", ["rate_rps", "slo_ns"])
def test_tenant_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=f"t: {field} must be finite"):
        tenant(**{field: value})


@pytest.mark.parametrize(
    ("field", "value", "bound"),
    [
        ("rate_rps", -1.0, "non-negative"),
        ("slo_ns", -1.0, "positive"),
        ("slo_ns", 0.0, "positive"),
    ],
)
def test_tenant_rejects_out_of_range(field, value, bound):
    with pytest.raises(ValueError, match=f"{field} must be {bound}"):
        tenant(**{field: value})


def test_phase_rejects_negative_start():
    with pytest.raises(ValueError, match="at_ns must be non-negative"):
        ArrivalPhase(at_ns=-1.0, rate_rps=100.0)


@pytest.mark.parametrize("trace", [(-1.0, 5.0), (1.0, math.nan), (1.0, math.inf)])
def test_tenant_rejects_bad_trace_entry(trace):
    with pytest.raises(ValueError, match="trace_ns entry must be"):
        tenant(trace_ns=trace)


@pytest.mark.parametrize("value", [*NON_FINITE, 0.0, -1.0])
def test_scenario_rejects_bad_duration(value):
    with pytest.raises(ValueError, match="duration_ns must be"):
        Scenario(name="s", tenants=(tenant(),), duration_ns=value)


def test_json_nan_slo_is_rejected():
    doc = scenario_to_dict(BUILTIN_SCENARIOS["two-tenant"]())
    doc["tenants"][0]["slo_ns"] = math.nan
    with pytest.raises(ValueError, match="slo_ns must be finite"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_builtin_scenarios_still_load(name):
    scenario = BUILTIN_SCENARIOS[name]()
    assert scenario_from_dict(scenario_to_dict(scenario)) == scenario


def two_tenant_doc() -> dict:
    return scenario_to_dict(BUILTIN_SCENARIOS["two-tenant"]())


def set_path(doc: dict, path: tuple, value) -> dict:
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


#: (path into the JSON document, mistyped value, field named in the error)
MISTYPED = [
    # float fields: JSON numbers only, never strings or bools
    (("tenants", 0, "rate_rps"), "100", "tenants[0].rate_rps"),
    (("tenants", 0, "slo_ns"), True, "tenants[0].slo_ns"),
    (("tenants", 0, "phases", 0, "at_ns"), "1e8", "tenants[0].phases[0].at_ns"),
    (("tenants", 1, "phases", 0, "rate_rps"), None, "tenants[1].phases[0].rate_rps"),
    (("tenants", 0, "trace_ns"), [1.0, "2"], "tenants[0].trace_ns[1]"),
    (("duration_ns",), "2.5e8", "duration_ns"),
    (("realloc", "threshold"), False, "realloc.threshold"),
    (("realloc", "headroom"), "2", "realloc.headroom"),
    # int fields: integers only, never floats or bools
    (("max_batch",), 2.5, "max_batch"),
    (("max_batch",), 8.0, "max_batch"),
    (("queue_cap",), "512", "queue_cap"),
    (("seed",), True, "seed"),
    (("realloc", "window"), 128.0, "realloc.window"),
    (("realloc", "check_every"), False, "realloc.check_every"),
    # bool fields: true/false only
    (("drain",), "no", "drain"),
    (("drain",), 0, "drain"),
    (("realloc", "enabled"), 1, "realloc.enabled"),
]


@pytest.mark.parametrize(
    ("path", "value", "name"), MISTYPED, ids=[m[2] + "=" + repr(m[1]) for m in MISTYPED]
)
def test_mistyped_field_is_rejected_by_name(path, value, name):
    doc = set_path(two_tenant_doc(), path, value)
    with pytest.raises(ValueError) as exc:
        scenario_from_dict(doc)
    assert str(exc.value).startswith(f"{name} must be ")


def test_integers_stay_accepted_for_float_fields():
    doc = two_tenant_doc()
    doc["duration_ns"] = 250_000_000
    doc["tenants"][0]["rate_rps"] = 400
    scenario = scenario_from_dict(doc)
    assert scenario.duration_ns == 2.5e8
    assert isinstance(scenario.duration_ns, float)
    assert scenario.tenants[0].rate_rps == 400.0
    assert isinstance(scenario.tenants[0].rate_rps, float)
    assert scenario == BUILTIN_SCENARIOS["two-tenant"]()
