"""End-to-end acceptance gate: ten numbered criteria.

Each test computes its quantities, prints one PASS/FAIL line with the
measured values, and asserts against pinned tolerances.  The lines are
echoed in the terminal summary.  A FAIL line means the library missed
the bar, never that a threshold was adjusted to fit.
"""

import time

import numpy as np
import pytest

from mczeno.clique import (
    brute_force_max_clique,
    build_graph,
    greedy_max_clique,
    mc_hamiltonian,
)
from mczeno.driver import RunConfig, scan
from mczeno.fermion import FermionIntegrals, jordan_wigner, parity_map
from mczeno.pauli import load_hamiltonian
from mczeno.path import PathHamiltonian, discretize
from mczeno.qae import evolve
from mczeno.qzp import initial_eigenstate, zeno_grid, zeno_run, zeno_statistics
from mczeno.spectral import eig, path_spectrum
from oracles import fock_hamiltonian, random_spatial_integrals

RESULTS: list[str] = []


def check(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


def mc_path(h, alpha=0.0, total_time=10.0):
    mc = mc_hamiltonian(h, greedy_max_clique(build_graph(h)))
    return PathHamiltonian(mc, h, alpha=alpha, total_time=total_time)


@pytest.fixture(scope="module")
def gapped(data_dir):
    return load_hamiltonian(data_dir / "gapped_four_qubit.txt")


@pytest.fixture(scope="module")
def stretched(data_dir):
    return load_hamiltonian(data_dir / "h2_2.8_jw.txt")


@pytest.fixture(scope="module")
def stretched_ground_frequency(stretched):
    """Ground-landing frequency of the stretched-bond fixture by alpha."""
    frequencies = {}
    for alpha in (0.0, 0.5):
        p = mc_path(stretched, alpha=alpha)
        dist = zeno_statistics(zeno_grid(p, 20, [0]), 1000, rng_seed=7)[0]
        frequencies[alpha] = dist.counts.get(0, 0) / 1000
    return frequencies


def test_criterion_01_golden_clique(data_dir):
    started = time.perf_counter()
    h = load_hamiltonian(data_dir / "toy_two_qubit.txt")
    graph = build_graph(h)
    greedy = greedy_max_clique(graph)
    exact = brute_force_max_clique(graph)
    greedy_labels = sorted(h.terms[v].label for v in greedy.vertices)
    exact_labels = sorted(h.terms[v].label for v in exact.vertices)
    alternative = sum(
        abs(h.coefficient_of(label)) for label in ("II", "IX", "ZI")
    )
    elapsed = time.perf_counter() - started
    ok = (
        greedy_labels == ["II", "IZ", "ZI"]
        and exact_labels == ["II", "IZ", "ZI"]
        and greedy.weight == 11.0
        and exact.weight == 11.0
        and alternative == 10.0
        and elapsed < 1.0
    )
    check(
        1,
        ok,
        f"greedy and exact clique {{II,IZ,ZI}} weight {greedy.weight:g}, "
        f"alternative {{II,IX,ZI}} weight {alternative:g}, {elapsed:.2f}s",
    )


def test_criterion_02_mapping_soundness():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    sets = 20
    for _ in range(sets):
        h_spatial, g_chemist, core = random_spatial_integrals(2, rng)
        reference = np.linalg.eigvalsh(fock_hamiltonian(h_spatial, g_chemist, core))
        integrals = FermionIntegrals.from_spatial(h_spatial, g_chemist, core)
        for mapping in (jordan_wigner, parity_map):
            spectrum = eig(mapping(integrals)).eigenvalues
            worst = max(worst, float(np.abs(spectrum - reference).max()))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8 and elapsed < 30.0
    check(
        2,
        ok,
        f"jw+parity vs Fock oracle on {sets} random integral sets: "
        f"max |dE| = {worst:.2e} (tol 1e-08), {elapsed:.1f}s (limit 30s)",
    )


def test_criterion_03_projection_exactness(data_dir):
    pauli_fixtures = [
        "toy_two_qubit.txt",
        "gapped_four_qubit.txt",
        "h2_0.7414_jw.txt",
        "h2_1.2_jw.txt",
        "h2_2.8_jw.txt",
        "h2_0.7414_parity.txt",
    ]
    worst = 0.0
    ten_qubit_elapsed = None
    for name in pauli_fixtures + ["h5_chain_sto3g_1.00.fcidump"]:
        started = time.perf_counter()
        if name.endswith(".fcidump"):
            from mczeno.driver import load_qubit_hamiltonian

            h, _ = load_qubit_hamiltonian(str(data_dir / name))
        else:
            h = load_hamiltonian(data_dir / name)
        p = mc_path(h, alpha=0.5)
        reference = eig(p.h_final).eigenvalues
        solutions = [eig(step) for step in discretize(p, 10)]
        for trial_number in range(1000):
            trial = zeno_run(
                p, 10, 0, rng_seed=13,
                trial_number=trial_number,
                eigensolutions=solutions,
            )
            deviation = float(np.abs(reference - trial.final_energy).min())
            worst = max(worst, deviation)
        if h.n_qubits == 10:
            ten_qubit_elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and ten_qubit_elapsed < 120.0
    check(
        3,
        ok,
        f"1000 trials x {len(pauli_fixtures) + 1} fixtures: max deviation of "
        f"final energy from spectrum = {worst:.1e} (tol 1e-10); "
        f"10-qubit fixture {ten_qubit_elapsed:.0f}s (limit 120s)",
    )


def test_criterion_04_zeno_convergence(gapped):
    p = mc_path(gapped)
    spectrum = path_spectrum(p, 201, 2)
    min_gap = float((spectrum.levels[:, 1] - spectrum.levels[:, 0]).min())
    frequencies = {}
    for n_steps in (5, 20, 80):
        dist = zeno_statistics(zeno_grid(p, n_steps, [0]), 1000, rng_seed=11)[0]
        frequencies[n_steps] = dist.counts.get(0, 0) / 1000
    monotone = all(
        frequencies[hi]
        >= frequencies[lo] - 2 * np.sqrt(frequencies[lo] * (1 - frequencies[lo]) / 1000)
        for lo, hi in ((5, 20), (20, 80))
    )
    ok = min_gap >= 0.5 and frequencies[20] >= 0.9 and monotone
    check(
        4,
        ok,
        f"min path gap {min_gap:.3f} (>= 0.5); ground success "
        f"N=5/20/80: {frequencies[5]:.3f}/{frequencies[20]:.3f}/"
        f"{frequencies[80]:.3f} (N=20 >= 0.9, non-decreasing within 2 sigma)",
    )


def test_criterion_05_alpha_improvement(stretched_ground_frequency):
    at_zero = stretched_ground_frequency[0.0]
    at_half = stretched_ground_frequency[0.5]
    ok = at_half > at_zero
    check(
        5,
        ok,
        f"degenerate-ground fixture, 1000 trials: ground frequency "
        f"{at_half:.3f} at alpha=0.5 > {at_zero:.3f} at alpha=0",
    )


def test_criterion_06_adiabatic_accuracy(gapped):
    exact = eig(gapped).eigenvalues[0]
    errors = {}
    drift = 0.0
    for total_time in (10.0, 40.0):
        p = mc_path(gapped, total_time=total_time)
        result = evolve(p, 0.5, initial_eigenstate(p, 0))
        errors[total_time] = result.final_energy - exact
        drift = max(drift, abs(float(np.linalg.norm(result.final_state)) - 1.0))
    ok = errors[10.0] <= 1e-2 and errors[40.0] < errors[10.0] and drift <= 1e-9
    check(
        6,
        ok,
        f"energy error {errors[10.0]:.2e} Ha at T=10 (tol 1e-02), "
        f"{errors[40.0]:.2e} Ha at T=40 (strictly smaller); "
        f"norm drift {drift:.1e} (tol 1e-09)",
    )


def test_criterion_07_degenerate_adiabatic_failure(
    stretched, stretched_ground_frequency
):
    p = mc_path(stretched, alpha=0.0, total_time=160.0)
    fidelity = evolve(p, 0.5, initial_eigenstate(p, 0)).ground_fidelity
    projection_succeeds = (
        stretched_ground_frequency[0.5] > stretched_ground_frequency[0.0]
    )
    ok = fidelity < 0.99 and projection_succeeds
    check(
        7,
        ok,
        f"adiabatic ground fidelity {fidelity:.3f} at T=160, alpha=0 (< 0.99) "
        f"while projection at alpha=0.5 reaches "
        f"{stretched_ground_frequency[0.5]:.3f}",
    )


def test_criterion_08_excited_states(gapped):
    """Ten runs from each of the four lowest H(0) ranks: the four lowest
    distinct final levels they reach must be the four lowest eigenvalues."""
    p = mc_path(gapped)
    grid = zeno_grid(p, 20, range(4))
    distributions = zeno_statistics(grid, 10, rng_seed=3)
    reached = sorted({rank for d in distributions for rank in d.counts})[:4]
    energies = grid.solutions[-1].eigenvalues[reached]
    reference = eig(gapped).eigenvalues[:4]
    deviation = float(np.abs(energies - reference).max()) if len(reached) == 4 else np.inf
    ok = len(reached) == 4 and deviation <= 1e-10
    check(
        8,
        ok,
        f"lowest 4 energies from 40 repeated runs match the exact spectrum "
        f"to {deviation:.1e} (tol 1e-10)",
    )


def test_criterion_09_endpoint_invariants(gapped):
    mc = mc_hamiltonian(gapped, greedy_max_clique(build_graph(gapped)))
    initial_reference = eig(mc).eigenvalues[:4]
    final_reference = eig(gapped).eigenvalues[:4]
    worst = 0.0
    for alpha in (0.0, 0.1, 0.5, 1.0):
        p = PathHamiltonian(mc, gapped, alpha=alpha, total_time=10.0)
        spectrum = path_spectrum(p, 3, 4)
        worst = max(
            worst,
            float(np.abs(spectrum.levels[0] - initial_reference).max()),
            float(np.abs(spectrum.levels[-1] - final_reference).max()),
        )
    ok = worst <= 1e-10
    check(
        9,
        ok,
        f"path endpoints match the endpoint spectra for alpha in "
        f"{{0, 0.1, 0.5, 1}}: max deviation {worst:.1e} (tol 1e-10)",
    )


def test_criterion_10_supplied_integral_scan(data_dir):
    points = [
        (
            bond,
            RunConfig(
                source=str(data_dir / f"h2_sto3g_{bond}.fcidump"),
                method="scan",
                mapping="jw",
                alpha=0.5,
                n_steps=10,
                trials=200,
                seed=7,
            ),
        )
        for bond in (0.7414, 1.2, 2.8)
    ]
    result = scan(points, methods=("exact", "qzp"))
    statuses = [row.status for row in result.rows]
    worst = max(abs(row.errors["qzp"]) for row in result.rows)
    ok = statuses == ["ok", "ok", "ok"] and worst <= 1e-10
    check(
        10,
        ok,
        f"projection scan over supplied integral files coincides with exact "
        f"diagonalization: max |error| = {worst:.1e} (tol 1e-10); larger "
        f"molecules reproduce the same way only with externally generated "
        f"integral files",
    )
