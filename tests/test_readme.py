"""The README's Library example runs as written, so it cannot name an export
the package no longer has, and CI runs the tier-1 command that ROADMAP.md
names."""
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert len(namespace["result"].indices) == 100


def test_ci_runs_the_roadmap_tier1_command_verbatim():
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]*)`", (ROOT / "ROADMAP.md").read_text())
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    runs = re.findall(r"^ +run: (.*)$", workflow, re.M)
    assert tier1 and runs[-1] == tier1.group(1)
    assert 'python-version: "3.11"' in workflow
    assert "cancel-in-progress: true" in workflow
    assert ("pip install numpy==2.4.6 scipy==1.17.1 pytest==9.0.3 hypothesis==6.155.2"
            in runs[0])
