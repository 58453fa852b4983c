"""Seeded synthetic qubit Hamiltonians for the qubit-count sweep.

Every term has an even number of Y factors, as every term of the bundled
molecular fixtures does, so the matrices are real and the sweep times the
same real dense eigensolver that the molecular workloads use.
"""

from __future__ import annotations

import numpy as np

from mczeno.pauli import PauliHamiltonian, PauliTerm

TERMS_PER_QUBIT = 20
"""Term count per qubit; 10 qubits give 200 terms, near the H2 to H5 range."""


def synthetic_hamiltonian(n_qubits: int, seed: int) -> PauliHamiltonian:
    """A random real Pauli sum on n_qubits, fixed by (seed, n_qubits)."""
    rng = np.random.default_rng([seed, n_qubits])
    full = (1 << n_qubits) - 1
    terms = []
    while len(terms) < TERMS_PER_QUBIT * n_qubits:
        x_mask = int(rng.integers(0, full + 1))
        z_mask = int(rng.integers(0, full + 1))
        if (x_mask & z_mask).bit_count() % 2:
            continue
        terms.append(PauliTerm(n_qubits, x_mask, z_mask, float(rng.normal())))
    return PauliHamiltonian(n_qubits, terms)
