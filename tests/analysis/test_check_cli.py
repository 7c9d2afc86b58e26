"""End-to-end tests for the ``repro check`` CLI subcommand."""

import json

import pytest

from repro.arch.config import CrossbarShape
from repro.arch.mapping import map_layer
from repro.cli import main
from repro.core.allocation import allocate_tile_based, apply_tile_sharing
from repro.models.zoo import lenet
from repro.serialize import save_plan, save_strategy


class TestCheckDefaults:
    def test_default_invocation_passes(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "check passed" in out

    def test_good_shapes_pass(self, capsys):
        assert main(["check", "--shapes", "32x32,36x32,576x512"]) == 0

    def test_bad_shape_fails_with_rule_id(self, capsys):
        # The acceptance fixture: a 35-row RXB.
        assert main(["check", "--shapes", "35x32"]) == 1
        assert "SHP002" in capsys.readouterr().out


class TestCheckConfig:
    def test_good_config_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"adc_bits": 10, "weight_bits": 8}))
        assert main(["check", "--config", str(path)]) == 0

    def test_broken_config_file_nonzero(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"weight_bits": 7, "cell_bits": 2}))
        assert main(["check", "--config", str(path)]) == 1
        assert "CFG002" in capsys.readouterr().out

    def test_config_checked_against_shapes(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"adc_bits": 6}))
        assert main(["check", "--config", str(path), "--shapes", "576x512"]) == 1
        assert "CFG004" in capsys.readouterr().out

    def test_broken_cost_constant_nonzero(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        # json.dumps writes the non-standard NaN literal json.loads reads.
        path.write_text(
            json.dumps({"energy_adc_8bit_nj": -1.0, "area_cell_um2": float("nan")})
        )
        assert main(["check", "--config", str(path)]) == 1
        out = capsys.readouterr().out
        assert "CFG005" in out
        assert "energy_adc_8bit_nj" in out and "area_cell_um2" in out


class TestCheckModelStrategy:
    def test_good_model_and_strategy(self, tmp_path, capsys):
        net = lenet()
        path = tmp_path / "strategy.json"
        save_strategy([CrossbarShape(64, 64)] * net.num_layers, path)
        assert main(["check", "--model", "lenet", "--strategy", str(path)]) == 0
        assert "check passed" in capsys.readouterr().out

    def test_model_alone_checks_graph(self, capsys):
        assert main(["check", "--model", "vgg16"]) == 0

    def test_strategy_without_model_rejected(self, tmp_path):
        path = tmp_path / "strategy.json"
        path.write_text("[]")
        with pytest.raises(SystemExit):
            main(["check", "--strategy", str(path)])

    def test_wrong_length_strategy_rejected(self, tmp_path):
        path = tmp_path / "strategy.json"
        save_strategy([CrossbarShape(64, 64)], path)
        with pytest.raises(SystemExit, match="length"):
            main(["check", "--model", "lenet", "--strategy", str(path)])


class TestCheckPlan:
    def make_plan(self, tmp_path, mutate=None):
        net = lenet()
        mappings = [map_layer(l, CrossbarShape(64, 64)) for l in net.layers]
        alloc = apply_tile_sharing(allocate_tile_based(mappings, 4))
        from repro.serialize import plan_to_dict

        doc = plan_to_dict(alloc)
        if mutate:
            mutate(doc)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        return path

    def test_round_tripped_plan_passes(self, tmp_path, capsys):
        path = self.make_plan(tmp_path)
        assert main(["check", "--plan", str(path)]) == 0

    def test_over_capacity_tile_flagged(self, tmp_path, capsys):
        def overfill(doc):
            tile = doc["tiles"][0]
            layer = next(iter(tile["occupants"]))
            tile["occupants"][layer] += tile["capacity"]

        path = self.make_plan(tmp_path, overfill)
        assert main(["check", "--plan", str(path)]) == 1
        assert "ALC001" in capsys.readouterr().out

    def test_double_booked_plan_flagged(self, tmp_path, capsys):
        def double_book(doc):
            doc["tiles"].append(
                {
                    "tile_id": 999,
                    "shape": doc["tiles"][0]["shape"],
                    "capacity": doc["tile_capacity"],
                    "occupants": {"0": 1},
                }
            )

        path = self.make_plan(tmp_path, double_book)
        assert main(["check", "--plan", str(path)]) == 1
        assert "ALC002" in capsys.readouterr().out


class TestCheckSource:
    def test_source_tree_clean(self, capsys):
        assert main(["check", "--source"]) == 0

    def test_explicit_dirty_tree(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("def f(x={}):\n    return x\n")
        assert main(["check", "--source", str(tmp_path)]) == 1
        assert "LNT002" in capsys.readouterr().out


class TestCheckCacheSafety:
    FIXTURE_TREE = "tests/analysis/fixtures/unsound_tree"

    def test_real_tree_is_cache_safe(self, capsys):
        # The shipped simulator satisfies its own keying contract.
        assert main(["check", "--cache-safety"]) == 0
        assert "check passed" in capsys.readouterr().out

    def test_unsound_fixture_reports_cac001(self, capsys):
        from pathlib import Path

        fixture = Path(__file__).parent / "fixtures" / "unsound_tree"
        assert main(["check", "--cache-safety", "--source", str(fixture)]) == 1
        out = capsys.readouterr().out
        assert "CAC001" in out
        assert "undocumented_knob" in out
        assert "CAC003" in out
        assert "PUR001" in out

    def test_default_invocation_includes_cache_safety(self, capsys):
        assert main(["check"]) == 0
        assert "cache-key soundness" in capsys.readouterr().out


class TestCheckNumeric:
    FIXTURE = "tests/analysis/fixtures/unsafe_numeric_tree"

    def test_real_tree_is_numerically_clean(self, capsys):
        assert main(["check", "--numeric"]) == 0
        out = capsys.readouterr().out
        assert "numeric safety" in out
        assert "check passed" in out

    def test_unsafe_fixture_reports_every_num_rule(self, capsys):
        from pathlib import Path

        fixture = Path(__file__).parent / "fixtures" / "unsafe_numeric_tree"
        assert main(["check", "--numeric", "--source", str(fixture)]) == 1
        out = capsys.readouterr().out
        for rule in ("NUM001", "NUM002", "NUM003", "NUM004", "NUM005"):
            assert rule in out

    def test_default_invocation_includes_numeric(self, capsys):
        assert main(["check"]) == 0
        assert "numeric safety" in capsys.readouterr().out


class TestCheckKernelParity:
    def test_real_tree_satisfies_parity(self, capsys):
        assert main(["check", "--kernel-parity"]) == 0
        out = capsys.readouterr().out
        assert "kernel parity" in out
        assert "check passed" in out

    def test_divergent_fixture_reports_par_rules(self, capsys):
        from pathlib import Path

        fixture = Path(__file__).parent / "fixtures" / "divergent_kernel_tree"
        assert main(["check", "--kernel-parity", "--source", str(fixture)]) == 1
        out = capsys.readouterr().out
        assert "PAR001" in out
        assert "PAR002" in out
        assert "PAR003" in out

    def test_default_invocation_includes_kernel_parity(self, capsys):
        assert main(["check"]) == 0
        assert "kernel parity" in capsys.readouterr().out

    def test_parity_warnings_ratchet_even_at_zero_exit(self, tmp_path, capsys):
        # PAR002 is a WARNING (exit 0 alone) but the shared zero-baseline
        # ratchet still fails the build on it; prove the wiring end to
        # end on the divergent fixture where errors already force exit 1
        # and the ratchet lines name every PAR rule.
        from pathlib import Path

        fixture = Path(__file__).parent / "fixtures" / "divergent_kernel_tree"
        baseline = tmp_path / "ratchet.json"
        baseline.write_text(json.dumps({}))
        args = [
            "check", "--kernel-parity", "--source", str(fixture),
            "--ratchet", str(baseline),
        ]
        assert main(args) == 1
        out = capsys.readouterr().out
        assert "ratchet: PAR002" in out


class TestCheckUnits:
    def test_real_tree_is_dimensionally_clean(self, capsys):
        assert main(["check", "--units"]) == 0
        out = capsys.readouterr().out
        assert "dimensional consistency" in out
        assert "check passed" in out

    def test_mixed_units_fixture_reports_every_uni_rule(self, capsys):
        from pathlib import Path

        fixture = Path(__file__).parent / "fixtures" / "mixed_units_tree"
        assert main(["check", "--units", "--source", str(fixture)]) == 1
        out = capsys.readouterr().out
        for rule in ("UNI001", "UNI002", "UNI003", "UNI004", "UNI005"):
            assert rule in out

    def test_default_invocation_includes_units(self, capsys):
        assert main(["check"]) == 0
        assert "dimensional consistency" in capsys.readouterr().out


class TestCheckJsonFormat:
    def run_json(self, capsys, args):
        code = main(args)
        out = capsys.readouterr().out
        return code, json.loads(out)  # exactly one JSON document on stdout

    def test_clean_tree_emits_single_ok_document(self, capsys):
        code, doc = self.run_json(capsys, ["check", "--format", "json"])
        assert code == 0
        assert doc["ok"] is True
        assert doc["findings"] == []
        assert doc["summary"] == {"errors": 0, "warnings": 0, "total": 0}
        assert doc["ratchet_violations"] == []

    def test_no_progress_narration_in_json_mode(self, capsys):
        code = main(["check", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        assert "check passed" not in out
        assert "dimensional consistency" not in out

    def test_findings_carry_structured_fields(self, capsys):
        from pathlib import Path

        fixture = Path(__file__).parent / "fixtures" / "mixed_units_tree"
        code, doc = self.run_json(
            capsys,
            ["check", "--units", "--source", str(fixture), "--format", "json"],
        )
        assert code == 1
        assert doc["ok"] is False
        rules = [f["rule"] for f in doc["findings"]]
        assert set(rules) == {"UNI001", "UNI002", "UNI003", "UNI004", "UNI005"}
        for finding in doc["findings"]:
            assert finding["severity"] == "error"
            assert ":" in finding["location"]
            assert finding["message"]
            assert finding["hint"]
        uni004 = next(f for f in doc["findings"] if f["rule"] == "UNI004")
        assert uni004["data"] == {"inferred": "nJ", "declared": "ns"}
        assert doc["summary"]["errors"] == len(doc["findings"])
        assert doc["summary"]["total"] == len(doc["findings"])

    def test_ratchet_violations_surface_in_json(self, tmp_path, capsys):
        from pathlib import Path

        fixture = Path(__file__).parent / "fixtures" / "mixed_units_tree"
        baseline = tmp_path / "ratchet.json"
        baseline.write_text(json.dumps({}))
        code, doc = self.run_json(
            capsys,
            [
                "check", "--units", "--source", str(fixture),
                "--format", "json", "--ratchet", str(baseline),
            ],
        )
        assert code == 1
        assert any("UNI001" in v for v in doc["ratchet_violations"])


class TestListRules:
    def test_text_catalogue_lists_every_uni_rule(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("UNI001", "UNI002", "UNI003", "UNI004", "UNI005"):
            assert rule in out
        assert "units contract" in out

    def test_json_catalogue_is_structured(self, capsys):
        assert main(["check", "--list-rules", "--format", "json"]) == 0
        rules = json.loads(capsys.readouterr().out)
        by_id = {r["rule"]: r for r in rules}
        assert by_id["UNI001"]["severity"] == "error"
        assert by_id["UNI001"]["anchor"] == "units contract"
        assert by_id["UNI001"]["title"]

    def test_list_rules_runs_no_passes(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "check passed" not in out
        assert "dimensional consistency" not in out

    def test_docs_catalogue_matches_registry(self, capsys):
        """Every registered rule id appears in docs/static_analysis.md and
        the docs never cite a rule id the registry does not know."""
        import re
        from pathlib import Path

        assert main(["check", "--list-rules", "--format", "json"]) == 0
        registered = {r["rule"] for r in json.loads(capsys.readouterr().out)}
        docs = (
            Path(__file__).resolve().parents[2] / "docs" / "static_analysis.md"
        ).read_text()
        documented = set(re.findall(r"\b[A-Z]{3}\d{3}\b", docs))
        assert registered <= documented, sorted(registered - documented)
        assert documented <= registered, sorted(documented - registered)


class TestCheckRatchet:
    def write_baseline(self, tmp_path, mapping):
        path = tmp_path / "ratchet.json"
        path.write_text(json.dumps(mapping))
        return path

    def test_zero_baseline_passes_on_clean_tree(self, tmp_path, capsys):
        path = self.write_baseline(tmp_path, {"_comment": "zero tolerance"})
        args = ["check", "--source", "--cache-safety", "--ratchet", str(path)]
        assert main(args) == 0
        assert "check passed" in capsys.readouterr().out

    def test_unlisted_rule_defaults_to_zero(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("def f(x={}):\n    return x\n")
        path = self.write_baseline(tmp_path, {})
        args = ["check", "--source", str(tmp_path), "--ratchet", str(path)]
        assert main(args) == 1
        out = capsys.readouterr().out
        assert "ratchet: LNT002" in out

    def test_grandfathered_count_passes(self, tmp_path, capsys):
        (tmp_path / "legacy.py").write_text("print('grandfathered')\n")
        path = self.write_baseline(tmp_path, {"LNT001": 1})
        args = ["check", "--source", str(tmp_path), "--ratchet", str(path)]
        assert main(args) == 1  # LNT001 is an ERROR rule -> still exit 1
        assert "ratchet" not in capsys.readouterr().out

    def test_exceeding_grandfathered_count_reports(self, tmp_path, capsys):
        (tmp_path / "legacy.py").write_text("print('a')\nprint('b')\n")
        path = self.write_baseline(tmp_path, {"LNT001": 1})
        args = ["check", "--source", str(tmp_path), "--ratchet", str(path)]
        assert main(args) == 1
        out = capsys.readouterr().out
        assert "ratchet: LNT001 has 2 finding(s), baseline allows 1" in out

    def test_repo_ratchet_file_is_current(self, capsys):
        # The committed CI baseline must hold against the shipped tree.
        from pathlib import Path

        ratchet = (
            Path(__file__).resolve().parents[2]
            / ".github"
            / "diagnostic-ratchet.json"
        )
        args = [
            "check", "--source", "--cache-safety", "--numeric",
            "--kernel-parity", "--units", "--ratchet", str(ratchet),
        ]
        assert main(args) == 0


class TestPlanSerialization:
    def test_save_plan_round_trips(self, tmp_path):
        from repro.serialize import load_plan_dict

        net = lenet()
        mappings = [map_layer(l, CrossbarShape(72, 64)) for l in net.layers]
        alloc = allocate_tile_based(mappings, 4)
        path = tmp_path / "plan.json"
        save_plan(alloc, path)
        doc = load_plan_dict(path)
        assert doc["tile_capacity"] == 4
        assert len(doc["layers"]) == net.num_layers
        assert sum(len(t["occupants"]) for t in doc["tiles"]) >= net.num_layers

    def test_load_plan_rejects_non_object(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            __import__("repro.serialize", fromlist=["load_plan_dict"]).load_plan_dict(path)
