"""The JSON examples in docs/config_reference.md load as the files they show."""

import json
import re
from pathlib import Path

from hydropinn.scenario import scenario_from_dict
from hydropinn.training import TrainConfig, load_train_config

ROOT = Path(__file__).resolve().parents[1]


def _example(heading: str) -> dict:
    """The first ```json block of the reference section `heading`."""
    text = (ROOT / "docs" / "config_reference.md").read_text()
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return json.loads(re.search(r"```json\n(.*?)\n```", section, re.S).group(1))


def test_scenario_example_loads():
    scenario = scenario_from_dict(_example("Scenario file"))
    assert scenario.pipe.length == 50_000.0
    assert scenario.offtake.position == 25_000.0


def test_training_example_is_the_shipped_kih_config():
    cfg = TrainConfig.from_dict(_example("Training config"))
    assert cfg == load_train_config(ROOT / "configs" / "kih.json")
