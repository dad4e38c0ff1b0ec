"""Every fenced ``python`` block of README.md runs to completion against the
source tree, each block as its own script."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
# (line of the opening fence, code) for each ```python block
BLOCKS = [
    (README.count("\n", 0, m.start()) + 1, m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```", README, re.M | re.S)
]


def test_blocks_found():
    assert BLOCKS


@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"line-{b[0]}" for b in BLOCKS])
def test_block_runs(line, code, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, f"README.md line {line}:\n{done.stderr[-4000:]}"
