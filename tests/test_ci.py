"""The CI workflow parses, bounds its tier-1 job's time, and names the
same steps as ci/checks.sh."""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_workflow_runs_each_step_once_in_order():
    checks = (ROOT / "ci" / "checks.sh").read_text()
    steps = re.search(r"^STEPS=\(([^)]*)\)", checks, re.M).group(1).split()
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    runs = re.findall(r"^\s*run: bash ci/checks\.sh (\S+)\s*$", workflow, re.M)
    assert runs == steps


def test_tier1_job_has_a_timeout():
    # The workflow runs only on a CI runner, so a test checks that it
    # parses; a job without timeout-minutes runs for 6 hours if a sweep
    # hangs.
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" /
                               "tests.yml").read_text())
    assert workflow["jobs"]["tier1"]["timeout-minutes"] == 30
