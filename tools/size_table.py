"""Regenerate README.md's per-size timing table, one fresh process per size.

Run from anywhere inside a checkout:

    python tools/size_table.py                     # 4, 6, 8 and 10 qubits
    python tools/size_table.py --qubits 4 8 12     # 12 qubits: ~8 s, ~0.8 GB

mczeno is imported from the checkout's src/.  Each qubit count is measured
in its own interpreter, so its peak RSS (VmHWM) is its own.  Its columns:

- sparse assembly: ham_matrix of perfbench/synthetic.synthetic_hamiltonian
  (20 real terms per qubit) at SEED;
- one dense eigh of that matrix;
- sector build: PathHamiltonian.sectors, shared pattern included, on a fresh
  path between two sums fixed by the spin swap and the chain mirror
  (symmetric_sum: 5n random products, each with its three images);
- symmetry sectors: one sectored solve of that path's H(0.5) in the calling
  thread, each sector's p.matrix(0.5, sector) plus its eigh;
- the sector dimensions, and the peak RSS.

The first two columns are perfbench/child.sweep, the benchmark's
qubit-count sweep, itself.  Each time is the median of the calls made within
one second, at most five (perfbench/child.median_time).  The table is printed as Markdown, after one line naming the
machine, numpy and the BLAS thread setting.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from mczeno.path import PathHamiltonian  # noqa: E402
from mczeno.pauli import PauliHamiltonian, PauliTerm  # noqa: E402

SEED = 0

HEADER = ("| qubits | sparse assembly (`ham_matrix`) | one dense `eigh` | sector build "
          "| symmetry sectors | sector dimensions | peak RSS |\n"
          "|-------:|-------------------------------:|-----------------:|-------------:"
          "|-----------------:|:------------------|---------:|")


def spin_swap(n: int) -> np.ndarray:
    return (np.arange(n) + n // 2) % n


def chain_mirror(n: int) -> np.ndarray:
    q, m = np.arange(n), n // 2
    return m - 1 - q % m + m * (q // m)


def permuted(mask: int, perm: np.ndarray) -> int:
    return sum(1 << int(target) for q, target in enumerate(perm) if mask >> q & 1)


def symmetric_sum(n: int, seed: int, odd_y: bool, n_terms: int = 40) -> PauliHamiltonian:
    """n_terms random Pauli products on n qubits, each with its images under
    the spin swap, the chain mirror and both at the same coefficient; terms
    with an odd number of Y factors only when odd_y is set."""
    rng = np.random.default_rng([seed, n, odd_y])
    swap, mirror = spin_swap(n), chain_mirror(n)
    terms = []
    while len(terms) < 4 * n_terms:
        x, z = (int(v) for v in rng.integers(0, 1 << n, 2))
        if (x & z).bit_count() % 2 and not odd_y:
            continue
        c = float(rng.normal())
        for perms in ((), (swap,), (mirror,), (swap, mirror)):
            image_x, image_z = x, z
            for perm in perms:
                image_x, image_z = permuted(image_x, perm), permuted(image_z, perm)
            terms.append(PauliTerm(n, image_x, image_z, c))
    return PauliHamiltonian(n, terms)


def measure(n_qubits: int) -> dict:
    """One row of the table, measured in this process."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from child import median_time, peak_rss_mb, sweep

    dense = sweep(n_qubits, SEED)
    assert dense["ok"], f"dense eigensolve of {n_qubits} qubits failed its check"
    h_i, h_p = (symmetric_sum(n_qubits, 2 * SEED + k, False, 5 * n_qubits) for k in (1, 2))
    sectors_s, p = median_time(sectored_path, h_i, h_p)
    solve_s, _ = median_time(lambda: [np.linalg.eigh(p.matrix(0.5, c)) for c in p.sectors])
    return {"qubits": n_qubits, "ham_matrix_s": dense["ham_matrix_s"], "eigh_s": dense["eigh_s"],
            "sectors_s": sectors_s, "solve_s": solve_s,
            "dimensions": [c.dimension for c in p.sectors], "peak_rss_mb": peak_rss_mb()}


def sectored_path(h_i: PauliHamiltonian, h_p: PauliHamiltonian) -> PathHamiltonian:
    """A fresh path from h_i to h_p at alpha 0.5, its sectors built."""
    p = PathHamiltonian(h_i, h_p, alpha=0.5)
    p.sectors
    return p


def row(m: dict) -> str:
    times = (np.format_float_positional(m[key], precision=2, fractional=False, trim="-")
             for key in ("ham_matrix_s", "eigh_s", "sectors_s", "solve_s"))
    dimensions = " / ".join(map(str, m["dimensions"]))
    return (f"| {m['qubits']} | " + "".join(f"{t} s | " for t in times)
            + f"{dimensions} | {m['peak_rss_mb']:.0f} MB |")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--qubits", type=int, nargs="+", default=[4, 6, 8, 10])
    parser.add_argument("--measure", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure is not None:
        print(json.dumps(measure(args.measure)))
        return 0
    print(f"{platform.machine()}, {os.cpu_count()} cores, numpy {np.__version__}, "
          f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}, "
          f"seed {SEED}")
    print(HEADER)
    for n_qubits in args.qubits:
        out = subprocess.run([sys.executable, __file__, "--measure", str(n_qubits)],
                             capture_output=True, text=True, check=True).stdout
        print(row(json.loads(out)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
