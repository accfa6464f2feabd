"""The README's Library example runs as written, so it cannot name an export
the package no longer has."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert len(namespace["result"].indices) == 100
