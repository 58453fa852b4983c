"""Interpolated path Hamiltonians with an optional X-driver envelope.

H(s) = (1 - s) H_i + s H_p + alpha s (1 - s) H_X, where H_X is the sum
of single-qubit X operators.  The quadratic envelope vanishes at both
endpoints, so s = 0 and s = 1 reproduce the initial and final
Hamiltonians term for term.  PathHamiltonian builds H_i, H_p and H_X once,
on one shared sparsity pattern, so that any sparse or dense H(s) is one
weighted sum of their value arrays.  It also records whether every H(s)
commutes with the swap of qubits q and q + n/2, which exchanges the
spin-up and spin-down halves of a Jordan-Wigner register.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np
import scipy.sparse

from mczeno.pauli import PauliHamiltonian, PauliTerm, combine, is_all_z, sparse_parts
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
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not 0 < self.total_time < math.inf:
            raise ValueError(f"total_time must be finite and > 0, got {self.total_time}")

    @property
    def n_qubits(self) -> int:
        return self.h_final.n_qubits

    def weights(self, s: float) -> tuple[float, float, float]:
        """Weights of H_i, H_p and H_X in H(s)."""
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"s must lie in [0, 1], got {s}")
        return 1.0 - s, s, self.alpha * s * (1.0 - s)

    def is_diagonal(self, s: float) -> bool:
        """True when every part of nonzero weight at s is all-Z."""
        w_i, w_p, w_x = self.weights(s)
        return (w_x == 0.0 and (w_i == 0.0 or is_all_z(self.h_initial))
                and (w_p == 0.0 or is_all_z(self.h_final)))

    @cached_property
    def spin_flip_symmetric(self) -> bool:
        """True when H_i and H_p, and so every H(s), are invariant under the
        qubit permutation q <-> q + n/2; H_X always is.  False for odd n."""
        return self.n_qubits % 2 == 0 and all(
            _halves_swap_symmetric(h) for h in (self.h_initial, self.h_final))

    @cached_property
    def _pattern(self):
        """(indptr, indices, data) of H_i, H_p and H_X on one shared CSR
        pattern, built on first use: one row of data per part."""
        return sparse_parts((self.h_initial, self.h_final, x_driver(self.n_qubits)))

    @cached_property
    def _gershgorin(self):
        """Each part's diagonal and off-diagonal absolute row sums."""
        indptr, indices, data = self._pattern
        dim = len(indptr) - 1
        rows = np.repeat(np.arange(dim), np.diff(indptr))
        on_diagonal = rows == indices
        diagonals = np.zeros((len(data), dim))
        diagonals[:, rows[on_diagonal]] = data[:, on_diagonal].real
        off = ~on_diagonal
        off_sums = [np.bincount(rows[off], weights=np.abs(d[off]), minlength=dim)
                    for d in data]
        return diagonals, np.array(off_sums)

    def _combine(self, s: float, parts: np.ndarray) -> np.ndarray:
        """Sum of w * part over the parts of nonzero weight at s, in order."""
        weighted = [w * part for w, part in zip(self.weights(s), parts) if w != 0.0]
        return reduce(operator.add, weighted)

    def sparse_matrix(self, s: float) -> scipy.sparse.csr_matrix:
        """Sparse H(s) on the shared pattern, in real storage when exactly
        real; zero-weight parts are left out, so H(0) and H(1) hold
        exactly the values of H_i and H_p."""
        indptr, indices, data = self._pattern
        values = self._combine(s, data)
        if np.iscomplexobj(values) and not values.imag.any():
            values = values.real
        dim = 1 << self.n_qubits
        return scipy.sparse.csr_matrix((values, indices, indptr), shape=(dim, dim))

    def matrix(self, s: float) -> np.ndarray:
        """Dense H(s), bit-identical at s = 0 and 1 to the dense matrices
        of H_i and H_p."""
        return densify(self.sparse_matrix(s))

    def spectral_bounds(self, s: float) -> tuple[float, float]:
        """Gershgorin interval [lo, hi] holding every eigenvalue of H(s).

        The weights are non-negative, so the weighted sums of the parts'
        diagonals and off-diagonal absolute row sums bound those of H(s).
        """
        diagonals, off_sums = self._gershgorin
        centres = self._combine(s, diagonals)
        radii = self._combine(s, off_sums)
        return float((centres - radii).min()), float((centres + radii).max())


def _halves_swap_symmetric(h: PauliHamiltonian, tol: float = 1e-12) -> bool:
    """True when each term's image under the swap of the low and high qubit
    halves has the same coefficient within tol, a missing term counting as 0."""
    half = h.n_qubits // 2
    low = (1 << half) - 1

    def swapped(mask: int) -> int:
        return (mask & low) << half | mask >> half

    coefficients = {(t.x_mask, t.z_mask): t.coefficient for t in h.terms}
    return all(abs(c - coefficients.get((swapped(x), swapped(z)), 0.0)) <= tol
               for (x, z), c in coefficients.items())


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
