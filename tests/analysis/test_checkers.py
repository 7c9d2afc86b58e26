"""Per-rule tests for the structural checkers: one valid and one
violating fixture per rule id."""

import dataclasses

import pytest

from repro.analysis.checkers import (
    check_allocation,
    check_candidate_set,
    check_config,
    check_config_dict,
    check_mapping,
    check_network,
    check_plan_dict,
    check_shape,
)
from repro.analysis.invariants import InvariantViolation
from repro.arch.config import (
    DEFAULT_CANDIDATES,
    DEFAULT_CONFIG,
    CrossbarShape,
    HardwareConfig,
)
from repro.arch.mapping import map_layer
from repro.core.allocation import Tile, allocate_tile_based, apply_tile_sharing
from repro.models.datasets import CIFAR10
from repro.models.graph import Network
from repro.models.layers import LayerSpec, Stage
from repro.models.zoo import get_model, lenet, resnet152, vgg16
from repro.models.transformer import transformer_lm


def rule_ids(diags):
    return sorted({d.rule_id for d in diags})


# ----------------------------------------------------------------------
# Shapes / candidate sets
# ----------------------------------------------------------------------
class TestShapeChecks:
    def test_default_candidates_clean(self):
        assert check_candidate_set(DEFAULT_CANDIDATES) == []

    def test_rxb_height_not_multiple_of_9(self):
        assert rule_ids(check_shape(CrossbarShape(35, 32))) == ["SHP002"]

    def test_sxb_not_power_of_two(self):
        assert rule_ids(check_shape(CrossbarShape(48, 48))) == ["SHP003"]

    def test_candidate_set_aggregates(self):
        diags = check_candidate_set(
            (CrossbarShape(35, 32), CrossbarShape(48, 48), CrossbarShape(64, 64))
        )
        assert rule_ids(diags) == ["SHP002", "SHP003"]


# ----------------------------------------------------------------------
# Configs
# ----------------------------------------------------------------------
class TestConfigChecks:
    def test_default_config_clean(self):
        assert check_config(DEFAULT_CONFIG, DEFAULT_CANDIDATES) == []

    def test_under_resolved_adc_flagged(self):
        cfg = HardwareConfig(adc_bits=8)
        assert rule_ids(check_config(cfg, DEFAULT_CANDIDATES)) == ["CFG004"]

    def test_construction_rejects_what_checker_flags(self):
        # Runtime and static validation share rule implementations: the
        # same violation either raises at construction or is reported
        # from the dict checker, with the same rule id.
        with pytest.raises(InvariantViolation) as exc:
            HardwareConfig(weight_bits=7, cell_bits=2)
        assert "CFG002" in exc.value.rule_ids
        assert rule_ids(
            check_config_dict({"weight_bits": 7, "cell_bits": 2})
        ) == ["CFG002"]

    def test_config_dict_partial_and_defaults(self):
        assert check_config_dict({}) == []
        assert rule_ids(check_config_dict({"pes_per_tile": 0})) == ["CFG001"]
        assert rule_ids(check_config_dict({"input_bits": 8, "dac_bits": 3})) == [
            "CFG003"
        ]

    def test_config_dict_non_integer_value(self):
        assert rule_ids(check_config_dict({"adc_bits": "lots"})) == ["CFG001"]

    def test_config_dict_adc_vs_shapes(self):
        diags = check_config_dict({"adc_bits": 6}, (CrossbarShape(576, 512),))
        assert rule_ids(diags) == ["CFG004"]


BROKEN_COST_CONSTANTS = [
    # A negative ADC energy made LeNet's energy_nj about -4.15e6.
    ("energy_adc_8bit_nj", -1.0),
    ("energy_adc_8bit_nj", float("nan")),
    ("latency_control_ns", float("inf")),
    ("area_cell_um2", -0.1),
    ("leak_cell_nw", float("-inf")),
    ("idle_line_energy_fraction", 1.5),
]


class TestCostConstants:
    """CFG005: finite, non-negative cost constants."""

    @pytest.mark.parametrize("name, value", BROKEN_COST_CONSTANTS)
    def test_construction_rejects_and_names_the_field(self, name, value):
        with pytest.raises(InvariantViolation) as exc:
            HardwareConfig(**{name: value})
        assert exc.value.rule_ids == ("CFG005",)
        assert name in str(exc.value)

    @pytest.mark.parametrize("name, value", BROKEN_COST_CONSTANTS)
    def test_dict_checker_flags_the_same_values(self, name, value):
        diags = check_config_dict({name: value})
        assert rule_ids(diags) == ["CFG005"]
        assert name in diags[0].message

    @pytest.mark.parametrize("value", ["1e-3", True, None])
    def test_dict_checker_rejects_non_numbers(self, value):
        diags = check_config_dict({"energy_dac_nj": value})
        assert rule_ids(diags) == ["CFG005"]
        assert "energy_dac_nj" in diags[0].message

    def test_with_rejects_a_broken_constant(self):
        with pytest.raises(InvariantViolation, match="latency_xbar_ns"):
            DEFAULT_CONFIG.with_(latency_xbar_ns=-10.0)

    def test_boundary_values_are_valid(self):
        zeros = {
            f.name: 0.0
            for f in dataclasses.fields(HardwareConfig)
            if f.type == "float"
        }
        cfg = HardwareConfig(**{**zeros, "idle_line_energy_fraction": 1.0})
        assert check_config(cfg, DEFAULT_CANDIDATES) == []
        # Integer values for float fields stay accepted.
        assert check_config(HardwareConfig(latency_control_ns=800)) == []

    def test_every_float_field_is_checked(self):
        floats = [
            f.name for f in dataclasses.fields(HardwareConfig) if f.type == "float"
        ]
        assert floats
        for name in floats:
            with pytest.raises(InvariantViolation, match=name):
                HardwareConfig(**{name: -1.0})


# ----------------------------------------------------------------------
# Mappings (Eq. 4)
# ----------------------------------------------------------------------
def _conv(cin=12, cout=128, k=3):
    return LayerSpec.conv(cin, cout, k, input_size=32)


class TestMappingChecks:
    def test_valid_mappings_clean(self):
        for shape in DEFAULT_CANDIDATES:
            assert check_mapping(map_layer(_conv(), shape)) == []

    def test_kernel_split_mapping_clean(self):
        # 7x7 stem on a 32-row crossbar engages the fallback — still valid.
        stem = LayerSpec.conv(3, 64, 7, stride=2, padding=3, input_size=224)
        mapping = map_layer(stem, CrossbarShape(32, 32))
        assert mapping.kernel_split
        assert check_mapping(mapping) == []

    def test_map001_utilization_out_of_bounds(self):
        good = map_layer(_conv(), CrossbarShape(72, 64))
        # num_crossbars shrunk below what the weights need -> u > 1.
        bad = dataclasses.replace(good, row_groups=1, col_groups=1)
        ids = rule_ids(check_mapping(bad))
        assert "MAP001" in ids and "MAP003" in ids

    def test_map002_kernel_split_flag_flipped(self):
        good = map_layer(_conv(), CrossbarShape(72, 64))
        bad = dataclasses.replace(good, kernel_split=True)
        assert "MAP002" in rule_ids(check_mapping(bad))

    def test_map003_group_arithmetic_drift(self):
        good = map_layer(_conv(), CrossbarShape(72, 64))
        bad = dataclasses.replace(good, row_groups=good.row_groups + 3)
        assert "MAP003" in rule_ids(check_mapping(bad))


# ----------------------------------------------------------------------
# Model graphs
# ----------------------------------------------------------------------
class TestNetworkChecks:
    @pytest.mark.parametrize(
        "name",
        ["lenet", "alexnet", "vgg16", "resnet152", "tiny_cnn", "transformer"],
    )
    def test_zoo_models_clean(self, name):
        assert check_network(get_model(name)) == []

    def test_net001_index_desync(self):
        net = lenet()
        stages = tuple(
            Stage(layer=s.layer.with_index(s.layer.index + 1))
            if s.layer is not None
            else s
            for s in net.stages
        )
        broken = Network(name="Broken", dataset=net.dataset, stages=stages)
        assert "NET001" in rule_ids(check_network(broken))

    def test_net002_dangling_layer(self):
        layers = [
            LayerSpec.conv(3, 64, 3, input_size=32, name="c1").with_index(0),
            # consumes 57 channels nothing produces:
            LayerSpec.conv(57, 64, 3, input_size=32, name="c2").with_index(1),
        ]
        broken = Network(
            name="Dangling",
            dataset=CIFAR10,
            stages=tuple(Stage(layer=l) for l in layers),
        )
        assert "NET002" in rule_ids(check_network(broken))

    def test_net003_kernel_exceeds_padded_input(self):
        layers = [
            LayerSpec.conv(3, 8, 7, input_size=4, padding=0, name="huge").with_index(0)
        ]
        broken = Network(
            name="BigKernel",
            dataset=CIFAR10,
            stages=tuple(Stage(layer=l) for l in layers),
        )
        assert "NET003" in rule_ids(check_network(broken))

    def test_branchy_topologies_not_misflagged(self):
        # ResNet's projection shortcuts and the transformer's flat FC
        # stack are built without sequential chaining; the producible-
        # width rule must accept both.
        assert check_network(resnet152()) == []
        assert check_network(transformer_lm(num_blocks=2, d_model=64)) == []


# ----------------------------------------------------------------------
# Allocation plans (object level)
# ----------------------------------------------------------------------
def small_allocation(tile_shared=False):
    net = vgg16()
    mappings = [map_layer(l, CrossbarShape(64, 64)) for l in net.layers[:4]]
    alloc = allocate_tile_based(mappings, 4)
    return apply_tile_sharing(alloc) if tile_shared else alloc


class TestAllocationChecks:
    def test_tile_based_plan_clean(self):
        assert check_allocation(small_allocation()) == []

    def test_tile_shared_plan_clean(self):
        assert check_allocation(small_allocation(tile_shared=True)) == []

    def test_alc003_dropped_tile(self):
        alloc = small_allocation()
        broken = dataclasses.replace(alloc, tiles=alloc.tiles[:-1])
        assert "ALC003" in rule_ids(check_allocation(broken))

    def test_alc002_double_booked_layer(self):
        alloc = small_allocation()
        extra = Tile(999, alloc.tiles[0].shape, alloc.tile_capacity)
        extra.add(0, 1)  # layer 0's crossbars are already fully placed
        broken = dataclasses.replace(alloc, tiles=alloc.tiles + (extra,))
        assert "ALC002" in rule_ids(check_allocation(broken))

    def test_alc004_geometry_mismatch(self):
        alloc = small_allocation()
        rogue = Tile(999, CrossbarShape(128, 128), alloc.tile_capacity)
        rogue.add(0, 1)
        broken = dataclasses.replace(alloc, tiles=alloc.tiles + (rogue,))
        ids = rule_ids(check_allocation(broken))
        assert "ALC004" in ids and "ALC002" in ids

    def test_alc006_absorbed_tile_still_present(self):
        shared = small_allocation(tile_shared=True)
        if not shared.comb_map:
            pytest.skip("no merges occurred for this fixture")
        head_id, tail_ids = next(iter(shared.comb_map.items()))
        ghost = Tile(tail_ids[0], shared.tiles[0].shape, shared.tile_capacity)
        broken = dataclasses.replace(shared, tiles=shared.tiles + (ghost,))
        assert "ALC006" in rule_ids(check_allocation(broken))

    def test_alc007_capacity_drift(self):
        alloc = small_allocation()
        odd = Tile(999, alloc.tiles[0].shape, alloc.tile_capacity + 2)
        broken = dataclasses.replace(alloc, tiles=alloc.tiles + (odd,))
        assert "ALC007" in rule_ids(check_allocation(broken))

    def test_validate_raises_with_rule_ids(self):
        alloc = small_allocation()
        broken = dataclasses.replace(alloc, tiles=alloc.tiles[:-1])
        with pytest.raises(InvariantViolation) as exc:
            broken.validate()
        assert "ALC003" in exc.value.rule_ids


# ----------------------------------------------------------------------
# Allocation plans (dict level)
# ----------------------------------------------------------------------
class TestPlanDictChecks:
    def plan(self, **overrides):
        base = {
            "tile_capacity": 4,
            "layers": [
                {"index": 0, "shape": "64x64", "num_crossbars": 4},
                {"index": 1, "shape": "64x64", "num_crossbars": 2},
            ],
            "tiles": [
                {
                    "tile_id": 0,
                    "shape": "64x64",
                    "capacity": 4,
                    "occupants": {"0": 4},
                },
                {
                    "tile_id": 1,
                    "shape": "64x64",
                    "capacity": 4,
                    "occupants": {"1": 2},
                },
            ],
            "comb_map": {},
        }
        base.update(overrides)
        return base

    def test_clean_plan(self):
        assert check_plan_dict(self.plan()) == []

    def test_alc001_over_capacity_tile(self):
        plan = self.plan()
        plan["tiles"][0]["occupants"] = {"0": 4, "1": 2}
        ids = rule_ids(check_plan_dict(plan))
        assert "ALC001" in ids and "ALC002" in ids

    def test_alc005_zero_count_occupant(self):
        plan = self.plan()
        plan["tiles"][1]["occupants"] = {"1": 2, "0": 0}
        assert "ALC005" in rule_ids(check_plan_dict(plan))

    def test_alc006_comb_map_mismatch(self):
        plan = self.plan(comb_map={"0": [1]})  # tile 1 still present
        assert "ALC006" in rule_ids(check_plan_dict(plan))

    def test_unknown_layer_reference(self):
        plan = self.plan()
        plan["tiles"][1]["occupants"] = {"7": 2}
        ids = rule_ids(check_plan_dict(plan))
        assert "ALC002" in ids and "ALC003" in ids
