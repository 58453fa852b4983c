"""Interpolated path Hamiltonians with an optional X-driver envelope.

H(s) = (1 - s) H_i + s H_p + alpha s (1 - s) H_X, where H_X is the sum
of single-qubit X operators.  The quadratic envelope vanishes at both
endpoints, so s = 0 and s = 1 reproduce the initial and final
Hamiltonians term for term.  PathHamiltonian builds the sparse H_i, H_p
and H_X matrices once and forms every dense H(s) from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from mczeno.pauli import PauliHamiltonian, PauliTerm, combine, ham_matrix
from mczeno.spectral import densify


@dataclass(frozen=True)
class PathHamiltonian:
    """The (H_i, H_p, alpha, T) bundle describing one evolution path."""

    h_initial: PauliHamiltonian
    h_final: PauliHamiltonian
    alpha: float = 0.0
    total_time: float = 10.0

    def __post_init__(self) -> None:
        if self.h_initial.n_qubits != self.h_final.n_qubits:
            raise ValueError("initial and final Hamiltonians differ in qubit count")
        if self.alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        if self.total_time <= 0:
            raise ValueError(f"total_time must be positive, got {self.total_time}")

    @property
    def n_qubits(self) -> int:
        return self.h_final.n_qubits

    def weights(self, s: float) -> tuple[float, float, float]:
        """Weights of H_i, H_p and H_X in H(s)."""
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"s must lie in [0, 1], got {s}")
        return 1.0 - s, s, self.alpha * s * (1.0 - s)

    @cached_property
    def _matrices(self):
        """Sparse matrices of H_i, H_p and H_X, built on first use."""
        parts = (self.h_initial, self.h_final, x_driver(self.n_qubits))
        return [ham_matrix(h) for h in parts]

    def matrix(self, s: float) -> np.ndarray:
        """Dense H(s); zero-weight parts are left out, so H(0) and H(1) are
        bit-identical to the dense matrices of H_i and H_p."""
        parts = [w * m for w, m in zip(self.weights(s), self._matrices) if w != 0.0]
        return densify(sum(parts[1:], parts[0]))


def x_driver(n_qubits: int) -> PauliHamiltonian:
    """H_X = sum over qubits of a unit-weight single-qubit X."""
    return PauliHamiltonian(
        n_qubits,
        [PauliTerm(n_qubits, 1 << q, 0, 1.0) for q in range(n_qubits)],
    )


def h_at(p: PathHamiltonian, s: float) -> PauliHamiltonian:
    """Instantaneous Hamiltonian at path parameter s in [0, 1]."""
    parts = zip(p.weights(s), (p.h_initial, p.h_final, x_driver(p.n_qubits)))
    return combine([(w, h) for w, h in parts if w != 0.0])


def s_grid(n_steps: int) -> list[float]:
    """The N+1 path parameters s_k = k/N for k = 0..N."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    return [k / n_steps for k in range(n_steps + 1)]


def discretize(p: PathHamiltonian, n_steps: int) -> list[PauliHamiltonian]:
    """The N+1 Hamiltonians H_k = H(k/N) for k = 0..N."""
    return [h_at(p, s) for s in s_grid(n_steps)]
