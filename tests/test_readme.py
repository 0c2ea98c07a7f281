"""The README's library quickstart runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_source() -> str:
    """The first python code block under the "Library quickstart" heading."""
    text = README.read_text()
    section = text.split("\n## Library quickstart\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert blocks, "no python block under '## Library quickstart'"
    return blocks[0]


def test_readme_quickstart_runs(capsys):
    exec(compile(quickstart_source(), str(README), "exec"), {"__name__": "quickstart"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2  # the batch and the streaming estimate
    for line in lines:
        position = np.array(line.strip("[] ").split(), dtype=float)
        assert position.shape == (3,) and np.all(np.isfinite(position))
