"""Molecular ground and excited states from maximum-commuting Hamiltonians.

The pipeline: map second-quantized integrals to a qubit Hamiltonian,
extract the maximum-commuting sub-Hamiltonian by a greedy weighted-clique
search, then carry its ground (or low-lying) eigenstate to the full
problem along an interpolated path, either by discretized adiabatic
evolution or by successive eigenbasis projections.
"""

from mczeno.clique import (
    CliqueResult,
    CommutationGraph,
    build_graph,
    greedy_max_clique,
    mc_hamiltonian,
)
from mczeno.driver import RunConfig, ScanResult, StageError, run, scan
from mczeno.fermion import FermionIntegrals, jordan_wigner, load_fcidump, parity_map
from mczeno.path import PathHamiltonian, discretize, h_at, x_driver
from mczeno.pauli import (
    PauliHamiltonian,
    PauliTerm,
    commutes,
    ham_matrix,
    is_all_z,
    load_hamiltonian,
    parse_hamiltonian,
    parse_pauli,
    save_hamiltonian,
    serialize_pauli,
)
from mczeno.qae import QaeResult, energy_expectation, evolve, ground_space_fidelity
from mczeno.qzp import (
    ZenoDistribution,
    ZenoGrid,
    ZenoTrial,
    initial_eigenstate,
    zeno_grid,
    zeno_run,
    zeno_statistics,
)
from mczeno.spectral import EigenSolution, PathSpectrum, eig, path_spectrum

__all__ = [
    "CliqueResult",
    "CommutationGraph",
    "EigenSolution",
    "FermionIntegrals",
    "PathHamiltonian",
    "PathSpectrum",
    "PauliHamiltonian",
    "PauliTerm",
    "QaeResult",
    "RunConfig",
    "ScanResult",
    "StageError",
    "ZenoDistribution",
    "ZenoGrid",
    "ZenoTrial",
    "build_graph",
    "commutes",
    "discretize",
    "eig",
    "energy_expectation",
    "evolve",
    "greedy_max_clique",
    "ground_space_fidelity",
    "h_at",
    "ham_matrix",
    "initial_eigenstate",
    "is_all_z",
    "jordan_wigner",
    "load_fcidump",
    "load_hamiltonian",
    "mc_hamiltonian",
    "parity_map",
    "parse_hamiltonian",
    "parse_pauli",
    "path_spectrum",
    "run",
    "save_hamiltonian",
    "scan",
    "serialize_pauli",
    "x_driver",
    "zeno_grid",
    "zeno_run",
    "zeno_statistics",
]

__version__ = "0.1.0"
