"""Time the Zeno step loop alone, on the benchmark's qzp settings.

Run from anywhere inside a checkout:

    python tools/zeno_steps.py --repeats 50

mczeno is imported from the checkout's src/.  For each setting the path's
grid is solved by qzp.zeno_grid, as a driver run solves it, and the draw
table is computed by one untimed call inside a qzp._shared_draws scope, so
each timed call of qzp._final_ranks is the projection and Born-rule steps
of every trial and nothing else.  The first settings are the benchmark's:

- h2_<bond>: each bundled H2 STO-3G FCIDUMP bond, alpha 0.5, 40 steps,
  1,000 trials from rank 0, seed 7 (the qzp stage of one h2_scan point);
- h5: the 10-qubit H5 chain, alpha 0.5, 10 steps, 200 trials from rank 0,
  seed 13 (the qzp stage of h5_qzp).

The last is no benchmark setting:

- h5_alpha0: the H5 chain at alpha 0, 40 steps, 300 trials from rank 2,
  seed 13.  Its trials land on degenerate levels at every step, so it
  times the carry of in-level columns, which no benchmark workload runs.

One line per setting gives the median and quartiles of the call in ms,
the trials that reached rank 0, and the first 12 hex digits of the
SHA-256 of the final ranks (int64), which a change that keeps the results
must keep.
"""

from __future__ import annotations

import argparse
import hashlib
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from mczeno import qzp  # noqa: E402
from mczeno.clique import build_graph, greedy_max_clique, mc_hamiltonian  # noqa: E402
from mczeno.driver import load_qubit_hamiltonian  # noqa: E402
from mczeno.path import PathHamiltonian  # noqa: E402

DATA = ROOT / "src" / "mczeno" / "data"
SETTINGS = {
    **{f"h2_{bond}": (f"h2_sto3g_{bond}.fcidump", 0.5, 40, 1000, 0, 7)
       for bond in ("0.7414", "1.2", "2.8")},
    "h5": ("h5_chain_sto3g_1.00.fcidump", 0.5, 10, 200, 0, 13),
    "h5_alpha0": ("h5_chain_sto3g_1.00.fcidump", 0.0, 40, 300, 2, 13),
}
"""name: (fixture, alpha, steps, trials, start rank, seed)."""


def time_setting(fixture: str, alpha: float, n_steps: int, trials: int, initial_index: int,
                 seed: int, repeats: int) -> tuple[list[float], np.ndarray]:
    """Seconds of each timed _final_ranks call, and its final ranks."""
    h, _ = load_qubit_hamiltonian(str(DATA / fixture))
    p = PathHamiltonian(mc_hamiltonian(h, greedy_max_clique(build_graph(h))), h, alpha=alpha)
    grid = qzp.zeno_grid(p, n_steps, [initial_index])
    args = (grid.solutions, grid.initial_indices, np.zeros(trials, np.intp), seed, range(trials))
    seconds = []
    with qzp._shared_draws():
        finals = qzp._final_ranks(*args)
        for _ in range(repeats):
            begin = time.perf_counter()
            qzp._final_ranks(*args)
            seconds.append(time.perf_counter() - begin)
    return seconds, finals


def digest(finals: np.ndarray) -> str:
    """The first 12 hex digits of the SHA-256 of the final ranks as int64."""
    return hashlib.sha256(finals.astype(np.int64).tobytes()).hexdigest()[:12]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=50,
                        help="timed calls per setting (default 50)")
    parser.add_argument("--setting", choices=sorted(SETTINGS), action="append",
                        help="time only this setting (repeatable; default all)")
    args = parser.parse_args(argv)
    if args.repeats < 4:
        parser.error("--repeats must be at least 4, for quartiles")
    print(f"{'setting':9} {'median_ms':>9} {'q1_ms':>7} {'q3_ms':>7} {'ground':>6}  sha256")
    for name in args.setting or SETTINGS:
        seconds, finals = time_setting(*SETTINGS[name], args.repeats)
        q1, median, q3 = (1e3 * q for q in statistics.quantiles(seconds, n=4))
        ground = int(np.sum(finals == 0))
        print(f"{name:9} {median:9.2f} {q1:7.2f} {q3:7.2f} {ground:6d}  {digest(finals)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
