"""Golden findings for the NUM and UNI abstract interpreters.

``golden_walker.json`` pins the full ``(rule_id, location, message,
hint, data)`` list that :func:`repro.analysis.numeric.numeric_findings`
and :func:`repro.analysis.units.units_findings` report over

* every ``.py`` file of the four ``fixtures/`` trees, and
* ``fixtures/walker_corpus.py``, which places one NUM and one UNI hazard
  under every statement and expression kind the walker handles.

Any change to how the shared walker visits code — statement order,
branch joins, comprehension scopes, guard handling — shows up here as
a diff.  A change that is meant to alter findings must regenerate the
snapshot in the same commit::

    PYTHONPATH=src python tests/analysis/test_walker_golden.py --regen

and the JSON diff is the claimed behaviour change.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.numeric import numeric_findings
from repro.analysis.units import units_findings

GOLDEN_PATH = Path(__file__).with_name("golden_walker.json")
FIXTURES = Path(__file__).parent / "fixtures"
TREES = (
    "divergent_kernel_tree",
    "mixed_units_tree",
    "unsafe_numeric_tree",
    "unsound_tree",
)
CORPUS = FIXTURES / "walker_corpus.py"


def _rows(diags):
    return [
        [d.rule_id, d.location, d.message, d.hint, [list(kv) for kv in d.data]]
        for d in diags
    ]


def _findings(paths):
    numeric, units = [], []
    for path in paths:
        rel = path.relative_to(FIXTURES).as_posix()
        source = path.read_text()
        numeric.extend(_rows(numeric_findings(source, rel)))
        units.extend(_rows(units_findings(source, rel)))
    return {"numeric": numeric, "units": units}


def collect():
    tree_files = sorted(p for t in TREES for p in (FIXTURES / t).rglob("*.py"))
    return {
        "fixture_trees": _findings(tree_files),
        "walker_corpus": _findings([CORPUS]),
    }


def render(findings) -> str:
    return json.dumps(findings, indent=1, ensure_ascii=False) + "\n"


class TestWalkerGolden:
    def test_findings_match_snapshot(self):
        current = render(collect())
        if current == GOLDEN_PATH.read_text():
            return
        golden, now = json.loads(GOLDEN_PATH.read_text()), json.loads(current)
        drift = [
            f"{section}/{analyzer}: missing {[r for r in want if r not in got]}"
            f", extra {[r for r in got if r not in want]}"
            for section, analyzers in golden.items()
            for analyzer, want in analyzers.items()
            for got in [now.get(section, {}).get(analyzer, [])]
        ]
        raise AssertionError(
            f"findings drifted from {GOLDEN_PATH.name}:\n  "
            + "\n  ".join(drift)
            + "\nIf the change is intended, regenerate with PYTHONPATH=src "
            "python tests/analysis/test_walker_golden.py --regen"
        )

    def test_corpus_exercises_every_rule(self):
        """The corpus carries evidence for both analyzers, not one."""
        corpus = json.loads(GOLDEN_PATH.read_text())["walker_corpus"]
        assert {row[0] for row in corpus["numeric"]} >= {
            "NUM001", "NUM003", "NUM004",
        }
        assert {row[0] for row in corpus["units"]} >= {"UNI001", "UNI004"}


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("usage: python tests/analysis/test_walker_golden.py --regen")
    GOLDEN_PATH.write_text(render(collect()))
    print(f"wrote {GOLDEN_PATH}")
