"""The CI workflow and ci/checks.sh name the same steps."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_workflow_runs_each_step_once_in_order():
    checks = (ROOT / "ci" / "checks.sh").read_text()
    steps = re.search(r"^STEPS=\(([^)]*)\)", checks, re.M).group(1).split()
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    runs = re.findall(r"^\s*run: bash ci/checks\.sh (\S+)\s*$", workflow, re.M)
    assert runs == steps
