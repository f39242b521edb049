"""The README runs as written and its Layout table names every module."""

import contextlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def test_python_block_runs_and_prints_an_amota():
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme"})
    assert 0.0 <= float(out.getvalue()) <= 1.0


def test_layout_lists_exactly_the_modules():
    layout = README.split("## Layout", 1)[1].split("```")[1]
    listed = re.findall(r"^  (\w+)\.py ", layout, re.MULTILINE)
    modules = {path.stem for path in (ROOT / "src" / "mot3d").glob("*.py")}
    assert sorted(listed) == sorted(modules - {"__init__", "__main__"})
