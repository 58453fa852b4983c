"""Exact eigensolutions of small Hamiltonians and spectra along a path."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
import scipy.sparse

from mczeno.pauli import (
    DIMENSION_CAP,
    PauliHamiltonian,
    _check_cap,
    diagonal_entries,
    ham_matrix,
    is_all_z,
)


@dataclass(frozen=True)
class EigenSolution:
    """Ascending eigenvalues with column-aligned orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class PathSpectrum:
    """Lowest-k levels along the path, levels[i] at s_values[i], ascending."""

    s_values: np.ndarray
    levels: np.ndarray


def densify(m: scipy.sparse.spmatrix) -> np.ndarray:
    """Dense copy of a sparse matrix, dropped to real storage when exactly real."""
    dense = m.toarray()
    if np.all(dense.imag == 0.0):
        return np.ascontiguousarray(dense.real)
    return dense


def dense_matrix(h: PauliHamiltonian, cap: int = DIMENSION_CAP) -> np.ndarray:
    """Dense Hermitian matrix, dropped to real storage when exactly real."""
    return densify(ham_matrix(h, cap))


def eig(h: PauliHamiltonian, cap: int = DIMENSION_CAP) -> EigenSolution:
    """Full dense Hermitian eigendecomposition."""
    m = dense_matrix(h, cap)
    residue = np.abs(m - m.conj().T).max() if m.size else 0.0
    if residue > 1e-12:
        raise ValueError(f"matrix is not Hermitian (residue {residue:g})")
    return EigenSolution(*np.linalg.eigh(m))


def path_eigensolutions(
    p, s_values: Iterable[float], cap: int = DIMENSION_CAP
) -> Iterator[EigenSolution]:
    """Eigensolutions of p.matrix(s) for each s in s_values, solved lazily.

    H(s) is a real-weighted sum of the H_i, H_p and H_X values on one
    pattern, each exactly Hermitian as pauli.sparse_parts builds it, so no
    point is checked again.
    """
    _check_cap(p.n_qubits, cap)
    return (EigenSolution(*np.linalg.eigh(p.matrix(float(s)))) for s in s_values)


def lowest_k(h: PauliHamiltonian, k: int, cap: int = DIMENSION_CAP) -> EigenSolution:
    """First k entries of eig(h)."""
    dim = 1 << h.n_qubits
    if not 1 <= k <= dim:
        raise ValueError(f"k must be in 1..{dim}, got {k}")
    full = eig(h, cap)
    return EigenSolution(full.eigenvalues[:k], full.eigenvectors[:, :k])


def diagonal_basis_order(h: PauliHamiltonian, cap: int = DIMENSION_CAP) -> np.ndarray:
    """Basis indices of an all-Z Hamiltonian sorted by (energy, index).

    The stable sort makes eigenstate ranks of a degenerate diagonal
    spectrum well-defined: ties go to the lower basis index.
    """
    if not is_all_z(h):
        raise ValueError("Hamiltonian is not diagonal")
    return np.argsort(diagonal_entries(h, cap), kind="stable")


def path_spectrum(p, n_points: int, k: int, cap: int = DIMENSION_CAP) -> PathSpectrum:
    """Lowest k levels at n_points equally spaced s values in [0, 1]."""
    if n_points < 2:
        raise ValueError(f"n_points must be at least 2, got {n_points}")
    dim = 1 << p.n_qubits
    if not 1 <= k <= dim:
        raise ValueError(f"k must be in 1..{dim}, got {k}")
    s_values = np.array([j / (n_points - 1) for j in range(n_points)])
    solutions = path_eigensolutions(p, s_values, cap)
    levels = np.array([es.eigenvalues[:k] for es in solutions])
    return PathSpectrum(s_values, levels)


def spectrum_csv(spectrum: PathSpectrum) -> str:
    """CSV rendering: header names columns and units, floats via repr."""
    k = spectrum.levels.shape[1]
    header = "s," + ",".join(f"E{i}_hartree" for i in range(k))
    rows = [header]
    for s, level in zip(spectrum.s_values, spectrum.levels):
        rows.append(",".join([repr(float(s))] + [repr(float(e)) for e in level]))
    return "\n".join(rows) + "\n"
