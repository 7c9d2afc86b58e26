"""Golden seed-for-seed regression test for the AutoHet RL search.

``golden_search.json`` pins short, fixed-seed searches — DDPG and TD3 on
lenet (bandit and bootstrapped critic targets) plus a short VGG16 run —
by their episode reward history, best strategy and final network
parameters.  The learner's hot path (replay sampling, MLP forward and
backward passes, Adam, Polyak target sync) may be restructured for
speed, but every search must stay **bit-identical**: the same RNG draws
in the same order and the same float operations.  So the snapshot is
compared exactly, through blake2b digests of the raw float64 bytes.

Regenerate with::

    PYTHONPATH=src python tests/paper/test_golden_search.py --regen

and review the JSON diff — a changed digest means a search now explores
differently, which a pure speed change must never do.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.autohet import AutoHet
from repro.core.rl.ddpg import DDPGConfig
from repro.core.rl.td3 import TD3Config
from repro.models import lenet, vgg16

GOLDEN_PATH = Path(__file__).with_name("golden_search.json")

#: case name -> (model factory, agent config, RL rounds)
CASES = {
    "ddpg_lenet": (lenet, DDPGConfig(seed=0), 40),
    "ddpg_lenet_bootstrap": (lenet, DDPGConfig(seed=1, bootstrap=True), 30),
    "td3_lenet": (lenet, TD3Config(seed=0), 40),
    "td3_lenet_bootstrap": (lenet, TD3Config(seed=1, bootstrap=True), 30),
    "ddpg_vgg16": (vgg16, DDPGConfig(seed=0), 20),
}

#: agent attributes holding networks, digested when the agent has them
NETWORKS = (
    "actor",
    "critic",
    "actor_target",
    "critic_target",
    "critic2",
    "critic2_target",
)


def digest_floats(values) -> str:
    data = np.ascontiguousarray(np.asarray(values, dtype=np.float64)).tobytes()
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def digest_network(net) -> str:
    h = hashlib.blake2b(digest_size=16)
    for p in net.parameters():
        h.update(np.ascontiguousarray(p, dtype=np.float64).tobytes())
    return h.hexdigest()


def run_case(name):
    factory, config, rounds = CASES[name]
    autohet = AutoHet(factory(), agent_config=config)
    result = autohet.search(rounds=rounds)
    agent = autohet.agent
    return {
        "episodes": len(result.reward_history),
        "reward_history_blake2b": digest_floats(result.reward_history),
        "best_reward": result.best_reward_history[-1],
        "best_strategy": [str(s) for s in result.best_strategy],
        "params_blake2b": {
            attr: digest_network(getattr(agent, attr))
            for attr in NETWORKS
            if hasattr(agent, attr)
        },
    }


@pytest.fixture(scope="module")
def golden():
    assert GOLDEN_PATH.exists(), (
        "golden search snapshot missing — regenerate with "
        "PYTHONPATH=src python tests/paper/test_golden_search.py --regen"
    )
    return json.loads(GOLDEN_PATH.read_text())


def test_case_set_matches_snapshot(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_search_matches_snapshot(golden, name):
    expected = golden[name]
    actual = run_case(name)
    mismatches = [
        f"{field}: {actual[field]!r} != {want!r}"
        for field, want in expected.items()
        if actual.get(field) != want
    ]
    assert not mismatches, (
        f"search {name} drifted from the golden trajectory:\n  "
        + "\n  ".join(mismatches)
    )


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("usage: python tests/paper/test_golden_search.py --regen")
    GOLDEN_PATH.write_text(
        json.dumps({n: run_case(n) for n in CASES}, indent=2, sort_keys=True)
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
