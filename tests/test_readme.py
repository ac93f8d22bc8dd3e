"""The README's library sketch runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["ab", "True"]
    assert lines[2].startswith("FAILS")
    assert lines[-1] == "summary: 14 pass, 0 fail, 0 skipped, 0 budget"
