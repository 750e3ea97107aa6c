"""The README's library example runs as written."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_python_example_runs(capsys):
    with open(README) as f:
        blocks = re.findall(r"```python\n(.*?)```", f.read(), re.S)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, README, "exec"), {})
    energy, bound = capsys.readouterr().out.split()
    assert float(energy) >= 0 and float(bound) > 1
