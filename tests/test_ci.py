"""The CI workflow file parses, and every step runs something."""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def test_workflow_parses_and_every_step_runs_something():
    doc = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    # YAML 1.1 reads the bare key `on` as the boolean true
    assert True in doc
    steps = doc["jobs"]["tests"]["steps"]
    assert steps
    for step in steps:
        assert "uses" in step or isinstance(step.get("run"), str), step


def test_no_step_pins_a_node_count():
    # tests/data/oracle_pins.json is the one home of a per-case node count
    doc = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    for step in doc["jobs"]["tests"]["steps"]:
        assert "nodes_explored" not in step.get("run", ""), step["name"]
