"""Fresh-process probes: set-up time, and one size of the qubit-count sweep.

run.py starts each probe in a new interpreter, so that import cost and peak
memory belong to the probe alone:

    python3 perfbench/child.py setup FIXTURE [FIXTURE ...]
    python3 perfbench/child.py sweep N_QUBITS SEED

mczeno must be importable (run.py puts the checkout's src/ on PYTHONPATH).
Each probe prints one JSON object.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB.

    VmHWM starts afresh when a program is executed; ru_maxrss does not, so
    it would also report the memory of the parent the process forked from.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def setup(sources: list[str]) -> dict:
    """Import mczeno, load and map each fixture, and extract its clique.

    The clock starts before the import, so setup_s is what a fresh
    process pays before a method can run.
    """
    from mczeno.clique import build_graph, greedy_max_clique, mc_hamiltonian
    from mczeno.driver import load_qubit_hamiltonian

    inputs = []
    for source in sources:
        h, _ = load_qubit_hamiltonian(source)
        mc = mc_hamiltonian(h, greedy_max_clique(build_graph(h)))
        inputs.append([h.n_qubits, len(h.terms), len(mc.terms)])
    return {"setup_s": time.perf_counter() - START, "inputs": inputs}


SWEEP_REPEAT_S = 1.0
SWEEP_MAX_CALLS = 5


def median_time(fn, *args):
    """Median time of fn(*args) over calls made until SWEEP_REPEAT_S has
    passed (at most SWEEP_MAX_CALLS), with the last result.

    A single call would carry first-call costs such as BLAS thread start-up.
    """
    times = []
    start = time.perf_counter()
    while not times or (time.perf_counter() - start < SWEEP_REPEAT_S
                        and len(times) < SWEEP_MAX_CALLS):
        t0 = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def sweep(n_qubits: int, seed: int) -> dict:
    """Time sparse assembly and the dense eigensolve of one synthetic size.

    The lowest and highest eigenpairs and the trace are checked against
    the matrix itself, so a wrong eigensolve reports ok = false.
    """
    import numpy as np

    from mczeno.pauli import ham_matrix
    from synthetic import synthetic_hamiltonian

    h = synthetic_hamiltonian(n_qubits, seed)
    np.linalg.eigh(np.eye(4))  # load LAPACK and start BLAS threads untimed
    ham_matrix_s, sparse = median_time(ham_matrix, h)
    dense = sparse.toarray()
    eigh_s, (values, vectors) = median_time(np.linalg.eigh, dense)

    scale = max(1.0, float(np.abs(values).max()))
    residual = max(
        float(np.linalg.norm(dense @ vectors[:, j] - values[j] * vectors[:, j]))
        for j in (0, -1)
    )
    trace_gap = abs(float(values.sum()) - float(np.trace(dense).real))
    ok = (
        dense.dtype == np.float64
        and residual < 1e-8 * scale
        and trace_gap < 1e-8 * scale * dense.shape[0]
    )
    return {
        "ham_matrix_s": ham_matrix_s,
        "eigh_s": eigh_s,
        "peak_rss_mb": peak_rss_mb(),
        "n_terms": len(h.terms),
        "ok": bool(ok),
    }


def main(argv: list[str]) -> int:
    if len(argv) >= 2 and argv[0] == "setup":
        result = setup(argv[1:])
    elif len(argv) == 3 and argv[0] == "sweep":
        result = sweep(int(argv[1]), int(argv[2]))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
