"""tools/zeno_steps.py: the timed Zeno step loop keeps its results."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import zeno_steps  # noqa: E402


@pytest.mark.parametrize("name, want", [
    ("h2_0.7414", "cf199d805aed"),
    ("h5", "8ecb1c2c4ec4"),
    ("h5_alpha0", "dc5e0d370ca6"),
])
def test_setting_keeps_its_digest(name, want):
    """These settings start from a diagonal H(0), so their ranks do not
    depend on which eigenvectors LAPACK returns; h2_2.8's threefold
    non-diagonal ground level would make its digest build-dependent."""
    seconds, finals = zeno_steps.time_setting(*zeno_steps.SETTINGS[name], repeats=1)
    assert len(seconds) == 1
    assert zeno_steps.digest(finals) == want
