"""Benchmark of mczeno's public entry points on three fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The checkout that holds this file is benchmarked: mczeno is imported from
its src/ directory, never from an installed copy, and the run fails at once
when src/mczeno is absent.  BLAS runs with as many threads as this process
may use CPUs.

--trace 0 measures the end-to-end metrics, with nothing wrapped:
  run_s                 median wall time of one driver.run()/scan() call,
                        over the calls made in --seconds, in a warm process;
  setup_s               median over SETUP_RUNS fresh processes of importing
                        mczeno, loading and mapping the fixtures and
                        extracting their cliques;
  peak_rss_mb           peak resident memory of the measuring process;
  energy_error_hartree  the method's energy minus the exact ground energy
                        (workloads.energy_error_hartree).
--trace 1 measures every per-layer metric (layers.py) and a qubit-count
sweep over synthetic Hamiltonians generated from --seed, one fresh process
per size.

Fixtures and method seeds belong to each workload, so every call's counts
and energies are checked against the recorded digest; a call that raises
or mismatches counts as failed.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The
lines before it give provenance, each metric with its unit, the failed
fraction, and the workload's ground-state probability.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).with_name("child.py")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_RUNS = 5
SWEEP_QUBITS = (4, 6, 8, 10, 12)
UNMEASURED_QUBITS = 14
"""Not swept: one dense float64 matrix of 2**14 rows takes 2 GiB."""
CHILD_TIMEOUT_S = 120
SHOWN_PROBLEMS = 10


class ChildFailed(RuntimeError):
    """A fresh-process probe exited with an error or printed no result."""


def run_child(args: list[str]) -> dict:
    """Run child.py in a fresh interpreter and return its JSON result."""
    try:
        done = subprocess.run(
            [sys.executable, str(CHILD), *args], cwd=ROOT, capture_output=True,
            text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child {args[:2]} timed out after {exc.timeout} s") from exc
    if done.returncode != 0:
        raise ChildFailed(f"child {args[:2]} exited {done.returncode}: "
                          f"{done.stderr.strip()[-500:]}")
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise ChildFailed(f"child {args[:2]} printed no result") from exc


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
        "seed": seed,
    }


def warm_up(workload, data_dir: Path) -> None:
    """A tiny qzp run and one eigensolve per fixture, untimed.

    The timed calls then find every module loaded, BLAS threads started
    and the allocator already holding blocks of the workload's matrix size;
    without this the first call reads up to 10% slower.
    """
    from mczeno import driver
    from mczeno.spectral import eig

    driver.run(driver.RunConfig(source=str(data_dir / "h2_sto3g_0.7414.fcidump"),
                                method="qzp", alpha=0.5, n_steps=2, trials=2))
    for _, fixture in workload.points:
        eig(driver.load_qubit_hamiltonian(str(data_dir / fixture))[0])


def end_to_end(workload, data_dir: Path, expected: dict, seconds: float):
    """Set-up probes, then driver calls for `seconds`; returns the outcome."""
    from child import peak_rss_mb
    from layers import timed
    from workloads import energy_error_hartree, mismatches

    attempted = failed = 0
    problems: list[str] = []
    setup_times = []
    sources = [str(data_dir / fixture) for _, fixture in workload.points]
    for _ in range(SETUP_RUNS):
        attempted += 1
        try:
            out = run_child(["setup", *sources])
        except ChildFailed as exc:
            failed += 1
            problems.append(str(exc))
            continue
        setup_times.append(out["setup_s"])
        lines = mismatches(out["inputs"], expected["setup"], "setup")
        failed += bool(lines)
        problems.extend(lines)

    configs = workload.configs(data_dir)
    warm_up(workload, data_dir)
    run_times = []
    digest = None
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        attempted += 1
        try:
            call_s, result = timed(workload.call, configs)
        except Exception:  # counted as failed; the loop measures on
            failed += 1
            problems.append(traceback.format_exc(limit=4))
            continue
        run_times.append(call_s)
        digest = workload.digest(result)
        lines = mismatches(digest, expected["result"])
        failed += bool(lines)
        problems.extend(lines)

    if not run_times or not setup_times:
        return attempted, failed, problems, None, []
    metrics = {
        "run_s": statistics.median(run_times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "energy_error_hartree": energy_error_hartree(workload, digest, data_dir),
    }
    notes = [
        f"run_s: median of {len(run_times)} calls, "
        f"min {min(run_times):.4f} s, max {max(run_times):.4f} s",
        f"setup_s: median of {len(setup_times)} fresh processes, "
        f"min {min(setup_times):.4f} s, max {max(setup_times):.4f} s",
    ]
    if workload.method == "qzp":
        notes.append(f"ground_frequency {digest['ground_frequency']} (checked by the gate)")
    if workload.method == "qae":
        notes.append(f"ground_fidelity {digest['ground_fidelity']} (checked by the gate)")
    return attempted, failed, problems, metrics, notes


def traced(workload, data_dir: Path, expected: dict, seed: int):
    """Per-layer metrics, then the qubit-count sweep, one process per size."""
    from layers import traced_metrics

    attempted, failed = 1, 0
    warm_up(workload, data_dir)
    metrics, problems = traced_metrics(workload, data_dir, expected["result"])
    failed += bool(problems)
    for n_qubits in SWEEP_QUBITS:
        attempted += 1
        try:
            out = run_child(["sweep", str(n_qubits), str(seed)])
        except ChildFailed as exc:
            failed += 1
            problems.append(str(exc))
            continue
        if not out["ok"]:
            failed += 1
            problems.append(f"sweep q{n_qubits}: eigensolution failed its check")
        for key in ("ham_matrix_s", "eigh_s", "peak_rss_mb"):
            metrics[f"sweep.{key}.q{n_qubits}"] = out[key]
    notes = [
        f"sweep q{UNMEASURED_QUBITS}: unmeasured; one dense 2**{UNMEASURED_QUBITS} "
        "float64 matrix alone takes 2 GiB",
        "qzp.project_gbps is computed: eigenvector and state bytes per projection "
        "over its time",
    ]
    return attempted, failed, problems, metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="h5_qzp, h5_qae or h2_scan")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mczeno" / "__init__.py").is_file():
        print(f"error: {SRC / 'mczeno'} is missing; run the benchmark inside a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy loads, so set it before any
    # import of numpy, here and in every child process.
    threads = str(len(os.sched_getaffinity(0)))
    os.environ.update({var: threads for var in BLAS_THREAD_VARS})
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))

    import mczeno
    from workloads import WORKLOADS, load_expected

    if Path(mczeno.__file__).resolve().parent != SRC / "mczeno":
        print(f"error: imported mczeno from {mczeno.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    expected = load_expected()[args.workload]
    data_dir = Path(mczeno.__file__).parent / "data"
    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    if args.trace:
        outcome = traced(workload, data_dir, expected, args.seed)
    else:
        outcome = end_to_end(workload, data_dir, expected, args.seconds)
    attempted, failed, problems, metrics, notes = outcome

    for line in problems[:SHOWN_PROBLEMS]:
        print(f"problem: {line}", file=sys.stderr)
    if metrics is None:
        print("error: no call completed, so no metric was measured", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"error: measured metrics {sorted(set(metrics) ^ set(units))} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 1

    print(f"workload {workload.name}, trace {args.trace}, seed {args.seed}")
    for name in units:
        print(f"  {name} {metrics[name]:.6g} {units[name]}")
    for note in notes:
        print(f"  {note}")
    print(f"  failed_fraction {failed / attempted:.6g} ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
