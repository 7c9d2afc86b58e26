"""Dimensional scaling laws of the cost model.

The unit declarations (``UNIT_TABLE``, the ``*_nj``/``*_nw`` suffixes)
are only honest if the model *behaves* dimensionally: scaling every
energy-dimension constant by a factor must scale reported energy by
exactly that factor and leave every other dimension untouched.  Doubling
is IEEE-exact (multiplying a float by 2.0 never rounds, and scaling by a
power of two commutes with addition's rounding), so the laws hold
bit-for-bit — on the reference and the vectorized path alike.

Leakage makes the field set subtle: it is ``power_nw * latency_ns *
NW_NS_TO_NJ``, so the energy *output* dimension is reached through the
``_nw`` fields too.  The scaled config therefore doubles every ``_nj``,
``_nj_per_byte``, and ``_nw`` field; latency and area fields stay put.
"""

from __future__ import annotations

from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.config import DEFAULT_CANDIDATES, DEFAULT_CONFIG, HardwareConfig
from repro.models import lenet
from repro.sim.simulator import CapacityError, Simulator

NETWORK = lenet()

ENERGY_SUFFIXES = ("_nj", "_nj_per_byte", "_nw")

ENERGY_COMPONENTS = (
    "adc", "dac", "crossbar", "shift_add", "adder_tree",
    "buffer", "bus", "pooling", "leakage", "total",
)


def doubled_energy_config(base: HardwareConfig = DEFAULT_CONFIG) -> HardwareConfig:
    scaled = {
        f.name: getattr(base, f.name) * 2.0
        for f in fields(base)
        if f.name.endswith(ENERGY_SUFFIXES)
    }
    assert scaled, "no energy-dimension fields found on HardwareConfig"
    return base.with_(**scaled)


strategies_for_network = st.lists(
    st.sampled_from(DEFAULT_CANDIDATES),
    min_size=NETWORK.num_layers,
    max_size=NETWORK.num_layers,
).map(tuple)


@pytest.mark.parametrize("reference", [True, False], ids=["scalar", "vectorized"])
@settings(max_examples=15, deadline=None)
@given(strategy=strategies_for_network)
def test_doubling_energy_constants_exactly_doubles_energy(reference, strategy):
    base = Simulator(config=DEFAULT_CONFIG, reference=reference)
    doubled = Simulator(config=doubled_energy_config(), reference=reference)
    m1 = base.evaluate(NETWORK, strategy)
    m2 = doubled.evaluate(NETWORK, strategy)
    assert m2.energy_nj == 2.0 * m1.energy_nj
    for name in ENERGY_COMPONENTS:
        assert getattr(m2.energy_breakdown, name) == 2.0 * getattr(
            m1.energy_breakdown, name
        ), name


@pytest.mark.parametrize("reference", [True, False], ids=["scalar", "vectorized"])
@settings(max_examples=15, deadline=None)
@given(strategy=strategies_for_network)
def test_doubling_energy_constants_leaves_other_dimensions_bit_identical(
    reference, strategy
):
    base = Simulator(config=DEFAULT_CONFIG, reference=reference)
    doubled = Simulator(config=doubled_energy_config(), reference=reference)
    m1 = base.evaluate(NETWORK, strategy)
    m2 = doubled.evaluate(NETWORK, strategy)
    assert m2.latency_ns == m1.latency_ns
    assert m2.area_um2 == m1.area_um2
    assert m2.utilization == m1.utilization
    assert m2.occupied_tiles == m1.occupied_tiles
    for lc1, lc2 in zip(m1.layer_costs, m2.layer_costs):
        assert lc2.latency_ns == lc1.latency_ns
        assert lc2.intra_utilization == lc1.intra_utilization
        assert lc2.num_crossbars == lc1.num_crossbars


@pytest.mark.parametrize("reference", [True, False], ids=["scalar", "vectorized"])
def test_scaling_law_survives_infeasibility(reference):
    """An infeasible pair stays infeasible — with the *same* message —
    under the scaled config: capacity is a count, not an energy."""
    strategy = tuple([DEFAULT_CANDIDATES[0]] * NETWORK.num_layers)
    tiny = DEFAULT_CONFIG.with_(tiles_per_bank=1)
    base = Simulator(config=tiny, reference=reference)
    doubled = Simulator(config=doubled_energy_config(tiny), reference=reference)
    with pytest.raises(CapacityError) as exc1:
        base.evaluate(NETWORK, strategy)
    with pytest.raises(CapacityError) as exc2:
        doubled.evaluate(NETWORK, strategy)
    assert str(exc1.value) == str(exc2.value)


@pytest.mark.parametrize("reference", [True, False], ids=["scalar", "vectorized"])
def test_scalar_and_vectorized_agree_on_the_scaled_config(reference):
    """The doubled config is an ordinary config: both evaluation paths
    must still agree bit-for-bit on it (reference is the outer compare)."""
    strategy = tuple([DEFAULT_CANDIDATES[1]] * NETWORK.num_layers)
    cfg = doubled_energy_config()
    m_this = Simulator(config=cfg, reference=reference).evaluate(NETWORK, strategy)
    m_other = Simulator(config=cfg, reference=not reference).evaluate(
        NETWORK, strategy
    )
    assert m_this.energy_nj == m_other.energy_nj
    assert m_this.latency_ns == m_other.latency_ns
    assert m_this.area_um2 == m_other.area_um2
