"""Discretized adiabatic evolution along a path Hamiltonian.

The evolved state is the product of exact per-step propagators

    |psi(T)> = e^{-i H(T) dT} e^{-i H(T - dT) dT} ... e^{-i H(dT) dT} |psi(0)>

with each factor computed through the eigendecomposition of the
instantaneous Hamiltonian, so the only approximation is the step
discretization itself.  The factor list starts at t = dT; the step at
t = k dT uses H evaluated there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mczeno.pauli import PauliHamiltonian
from mczeno.path import PathHamiltonian, s_grid
from mczeno.spectral import dense_matrix, eig, path_eigensolutions

DEGENERACY_TOL = 1e-9
"""Eigenvalues closer than this are treated as one degenerate level."""


@dataclass(frozen=True)
class QaeResult:
    """Final state with its energy against H_p and ground-space fidelity."""

    final_state: np.ndarray
    final_energy: float
    ground_fidelity: float
    step_count: int


def basis_state(n_qubits: int, index: int) -> np.ndarray:
    """Computational basis state |index> as a complex amplitude vector."""
    dim = 1 << n_qubits
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} outside 0..{dim - 1}")
    psi = np.zeros(dim, dtype=complex)
    psi[index] = 1.0
    return psi


def _check_state(psi: np.ndarray, n_qubits: int, tol: float = 1e-9) -> None:
    if psi.shape != (1 << n_qubits,):
        raise ValueError(
            f"state has dimension {psi.shape}, expected {(1 << n_qubits,)}"
        )
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > tol:
        raise ValueError(f"state is not normalized (norm {norm})")


def energy_expectation(psi: np.ndarray, h: PauliHamiltonian) -> float:
    """Real part of <psi|H|psi>; complains about imaginary residue."""
    _check_state(psi, h.n_qubits, tol=1e-6)
    value = complex(np.vdot(psi, dense_matrix(h) @ psi))
    if abs(value.imag) > 1e-10:
        raise ValueError(
            f"expectation has imaginary residue {value.imag:g}, H not Hermitian"
        )
    return value.real


def ground_space_fidelity(psi: np.ndarray, h: PauliHamiltonian) -> float:
    """Squared overlap with the (possibly degenerate) ground eigenspace."""
    solution = eig(h)
    values = solution.eigenvalues
    ground = values <= values[0] + DEGENERACY_TOL
    overlaps = solution.eigenvectors[:, ground].conj().T @ psi
    return float(np.sum(np.abs(overlaps) ** 2))


def evolve(p: PathHamiltonian, delta_t: float, psi0: np.ndarray) -> QaeResult:
    """Run the discretized evolution over total time p.total_time.

    Requires total_time / delta_t to be a whole number of steps and psi0
    normalized; preserves the norm to 1e-9 by construction.
    """
    if delta_t <= 0:
        raise ValueError(f"delta_t must be positive, got {delta_t}")
    ratio = p.total_time / delta_t
    n_steps = round(ratio)
    if n_steps < 1 or abs(ratio - n_steps) > 1e-9 * max(ratio, 1.0):
        raise ValueError(
            f"total_time/delta_t = {ratio} is not a positive integer"
        )
    _check_state(psi0, p.n_qubits)

    psi = psi0.astype(complex)
    for solution in path_eigensolutions(p, s_grid(n_steps)[1:]):
        phases = np.exp(-1j * solution.eigenvalues * delta_t)
        amplitudes = np.conj(psi.conj() @ solution.eigenvectors)
        psi = solution.eigenvectors @ (phases * amplitudes)

    # The last step's eigenbasis is that of H(1) = H_p; phases keep the weights.
    values = solution.eigenvalues
    weights = np.abs(amplitudes) ** 2
    return QaeResult(
        final_state=psi,
        final_energy=float(values @ weights),
        ground_fidelity=float(weights[values <= values[0] + DEGENERACY_TOL].sum()),
        step_count=n_steps,
    )
