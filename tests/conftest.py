import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mczeno.pauli import parse_hamiltonian

DATA_DIR = Path(__file__).parent.parent / "src" / "mczeno" / "data"

TOY_TEXT = """\
# two-qubit demonstration Hamiltonian
2.0 II
3.0 IX
-4.0 IZ
5.0 ZI
"""


def same_bits(ours: np.ndarray, theirs: np.ndarray) -> bool:
    """Equal in dtype, in value and in the sign of every zero, real and
    imaginary."""
    return (ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
            and all(np.array_equal(np.signbit(a), np.signbit(b))
                    for a, b in ((ours.real, theirs.real), (ours.imag, theirs.imag))))


@pytest.fixture(scope="session")
def toy_hamiltonian():
    """The 2-qubit demonstration Hamiltonian 2 II + 3 IX - 4 IZ + 5 ZI."""
    return parse_hamiltonian(TOY_TEXT)


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance-criteria verdict lines after the test run."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)
