"""tools/size_table.py: README's per-size table is regenerated from the repo."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "size_table.py"


def test_small_sizes_print_their_sectors():
    """One row per asked qubit count, each measured in its own process, with
    the four sectors of the spin swap and the chain mirror."""
    out = subprocess.run([sys.executable, str(TOOL), "--qubits", "4", "8"],
                         capture_output=True, text=True, check=True).stdout
    rows = [[cell.strip() for cell in line.split("|")[1:-1]]
            for line in out.splitlines()[3:]]
    assert [(r[0], r[5]) for r in rows] == [("4", "7 / 3 / 3 / 3"), ("8", "76 / 60 / 60 / 60")]
    for r in rows:
        assert all(cell.endswith(" s") and float(cell[:-2]) > 0 for cell in r[1:5])
        assert r[6].endswith(" MB")
