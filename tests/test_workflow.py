"""The CI workflow is valid YAML, and its tier-1 step runs ROADMAP's tier-1 command.

A plain scalar holding ": " once made the whole workflow invalid, and
nothing noticed until the file was read by a YAML parser."""

import re
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent


def test_workflow_steps_and_tier1_command():
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    assert set(workflow[True]) == {"push", "pull_request"}  # YAML 1.1 reads `on` as True
    steps = workflow["jobs"]["tests"]["steps"]
    for step in steps:
        assert ("run" in step) != ("uses" in step), step
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`",
                      (ROOT / "ROADMAP.md").read_text()).group(1)
    runs = [step["run"] for step in steps if step.get("name") == "Tier-1 tests"]
    assert len(runs) == 1 and runs[0].startswith(tier1 + " "), runs
