"""Per-layer metrics of one workload, measured from outside the library.

The traced run calls each layer's public functions directly on the
workload's fixtures, with the workload's path settings, and times them.  It
then makes one real call of the workload through the driver with
numpy.linalg.eigh wrapped, which counts the eigensolves a real run makes.
No library code is changed.

path, pauli, spectral, qzp and qae times are per unit of work (path point,
projection, draw, trial, qae step or call), as medians pooled over the
workload's fixtures; fermion, clique and driver times are totals over its
fixtures.  driver.traced_run_s minus the untraced run_s is the tracing
overhead.  qzp.trial_steps and qae.steps count the work of one real call
and are 0 where the workload does not run that method; the qzp and qae
probes still run on its fixtures, so every metric is measured on every
workload.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from mczeno import driver
from mczeno.clique import build_graph, greedy_max_clique, mc_hamiltonian
from mczeno.fermion import jordan_wigner, load_fcidump
from mczeno.path import PathHamiltonian, discretize
from mczeno.pauli import ham_matrix, is_all_z
from mczeno.qae import energy_expectation, evolve, ground_space_fidelity
from mczeno.qzp import initial_eigenstate, project, step_rng, zeno_run
from mczeno.spectral import eig

from workloads import Workload, mismatches

PROBE_SECONDS = 0.5
"""Time each repeated probe may spend per fixture, after its first pass."""
RNG_DRAWS = 1000
HAM_MATRIX_POINTS = 3
"""Path points, evenly spaced from s = 0 to 1, whose assembly is timed alone."""


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


@contextmanager
def counting_eigh():
    """Wrap numpy.linalg.eigh; yields a dict with its calls and seconds."""
    original = np.linalg.eigh
    counter = {"calls": 0, "seconds": 0.0}

    def eigh(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            counter["seconds"] += time.perf_counter() - start
            counter["calls"] += 1

    np.linalg.eigh = eigh
    try:
        yield counter
    finally:
        np.linalg.eigh = original


def _setup_layers(sources: list[str], metrics: dict) -> list:
    """Time parse, mapping and clique stages; returns (h, mc) per fixture."""
    totals = dict.fromkeys(
        ("fermion.load_fcidump_s", "fermion.jordan_wigner_s",
         "driver.load_qubit_hamiltonian_s", "clique.build_graph_s",
         "clique.greedy_max_clique_s", "clique.mc_hamiltonian_s"), 0.0)
    counts = dict.fromkeys(("fermion.n_terms", "clique.n_terms",
                            "clique.initial_diagonal"), 0)
    pairs = []
    for source in sources:
        seconds, integrals = timed(load_fcidump, source)
        totals["fermion.load_fcidump_s"] += seconds
        seconds, _ = timed(jordan_wigner, integrals)
        totals["fermion.jordan_wigner_s"] += seconds
        seconds, (h, _) = timed(driver.load_qubit_hamiltonian, source)
        totals["driver.load_qubit_hamiltonian_s"] += seconds
        seconds, graph = timed(build_graph, h)
        totals["clique.build_graph_s"] += seconds
        seconds, clique = timed(greedy_max_clique, graph)
        totals["clique.greedy_max_clique_s"] += seconds
        seconds, mc = timed(mc_hamiltonian, h, clique)
        totals["clique.mc_hamiltonian_s"] += seconds
        counts["fermion.n_terms"] += len(h.terms)
        counts["clique.n_terms"] += len(mc.terms)
        counts["clique.initial_diagonal"] += int(is_all_z(mc))
        pairs.append((h, mc))
    metrics.update(totals)
    metrics.update(counts)
    return pairs


def _driver_layer(workload: Workload, configs, expected: dict, metrics: dict,
                  problems: list[str]) -> None:
    """One real call with eigh counted; its digest must still match."""
    with counting_eigh() as counter:
        seconds, result = timed(workload.call, configs)
    problems.extend(mismatches(workload.digest(result), expected))
    metrics["driver.traced_run_s"] = seconds
    metrics["kernel.eigh_calls"] = counter["calls"]
    metrics["kernel.eigh_s"] = counter["seconds"]
    metrics["kernel.eigh_share"] = counter["seconds"] / seconds
    metrics["qzp.trial_steps"] = workload.qzp_trial_steps()
    metrics["qae.steps"] = workload.qae_steps()


def _repeat(probe, minimum: int) -> list[float]:
    """Times from probe(trial) for trial = 0, 1, ... until at least
    `minimum` trials have run and PROBE_SECONDS have passed."""
    times: list[float] = []
    trial = 0
    start = time.perf_counter()
    while trial < minimum or time.perf_counter() - start < PROBE_SECONDS:
        times.extend(probe(trial))
        trial += 1
    return times


def _path_and_qzp_layers(p: PathHamiltonian, settings: dict, samples: dict) -> None:
    """Per-point assembly and eigensolve along the qzp grid, then projection."""
    n_steps, seed = settings["n_steps"], settings["seed"]
    seconds, hamiltonians = timed(discretize, p, n_steps)
    samples["path.discretize_s"].append(seconds / len(hamiltonians))
    picks = np.linspace(0, n_steps, HAM_MATRIX_POINTS).round().astype(int)
    samples["pauli.ham_matrix_s"].extend(
        timed(ham_matrix, hamiltonians[k])[0] for k in picks)
    solutions = []
    for h_k in hamiltonians:
        seconds, solution = timed(eig, h_k)
        samples["spectral.eig_s"].append(seconds)
        solutions.append(solution)

    def project_trial(trial: int) -> list[float]:
        psi = initial_eigenstate(p, 0)
        times = []
        for k in range(1, n_steps + 1):
            rng = step_rng(seed, trial, k)
            seconds, (_, psi) = timed(project, psi, solutions[k], rng)
            times.append(seconds)
            # computed bytes: the eigenvector matrix once, the state in and out
            moved = solutions[k].eigenvectors.nbytes + 2 * psi.nbytes
            samples["qzp.project_gbps"].append(moved / seconds / 1e9)
        return times

    samples["qzp.project_s"].extend(_repeat(project_trial, 1))
    samples["qzp.step_rng_s"].extend(
        timed(step_rng, seed, draw, 1)[0] for draw in range(RNG_DRAWS))
    samples["qzp.zeno_run_s"].extend(_repeat(
        lambda trial: [timed(zeno_run, p, n_steps, 0, seed, trial_number=trial,
                             eigensolutions=solutions)[0]], 3))


def _qae_layers(p: PathHamiltonian, h, settings: dict, samples: dict) -> None:
    """One full evolution, then its two final observables timed alone.

    qae.evolve_s is the evolve() call over its step count, so it includes
    the final energy and fidelity that evolve() computes once.
    """
    seconds, result = timed(evolve, p, settings["delta_t"], initial_eigenstate(p, 0))
    samples["qae.evolve_s"].append(seconds / result.step_count)
    samples["qae.energy_expectation_s"].append(
        timed(energy_expectation, result.final_state, h)[0])
    samples["qae.ground_space_fidelity_s"].append(
        timed(ground_space_fidelity, result.final_state, h)[0])


def traced_metrics(workload: Workload, data_dir: Path, expected: dict
                   ) -> tuple[dict, list[str]]:
    """Every per-layer metric of the workload, and the digest problems."""
    metrics: dict = {}
    problems: list[str] = []
    configs = workload.configs(data_dir)
    pairs = _setup_layers([config.source for _, config in configs], metrics)
    _driver_layer(workload, configs, expected, metrics, problems)

    samples: dict[str, list[float]] = {name: [] for name in (
        "path.discretize_s", "pauli.ham_matrix_s", "spectral.eig_s",
        "qzp.project_s", "qzp.project_gbps", "qzp.step_rng_s", "qzp.zeno_run_s",
        "qae.evolve_s", "qae.energy_expectation_s", "qae.ground_space_fidelity_s")}
    settings = workload.settings
    for h, mc in pairs:
        p = PathHamiltonian(mc, h, alpha=settings["alpha"],
                            total_time=settings["total_time"])
        _path_and_qzp_layers(p, settings, samples)
        _qae_layers(p, h, settings, samples)
    metrics.update({name: statistics.median(values) for name, values in samples.items()})
    return metrics, problems
