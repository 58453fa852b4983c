"""README.md's quick start runs against the library as it is."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_quick_start_prints_its_frequency():
    """The README's one Python block, run from the repository root as a
    reader would run it, prints the ground-state frequency of its seed."""
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", blocks[0]], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "0.994\n"
