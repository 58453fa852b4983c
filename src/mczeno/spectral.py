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

SPIN_FLIP_DIMENSION = 256
"""Smallest dimension whose path points are solved in the two blocks of the
spin-flip symmetry: at 64 (6 qubits) gathering the blocks costs as much
as the half-size eigensolves save, at 256 they take ~0.8 of one full
eigh, and at 1024 ~0.5."""


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
    point is checked again.  A diagonal H(s) is sorted, not diagonalized.
    When p is spin-flip symmetric (p.spin_flip_symmetric) and H(s) has at
    least SPIN_FLIP_DIMENSION rows, the point is solved in the symmetric
    and antisymmetric blocks of that symmetry (spin_flip_eigh), except at
    s = 0: there the eigenvectors seed initial states by rank, so H(0)
    keeps the basis of one full eigh.  Elsewhere only the eigenvalues and
    the eigenspaces of levels are used, and neither depends on the basis.
    """
    _check_cap(p.n_qubits, cap)
    return (_solve_point(p, float(s)) for s in s_values)


def _solve_point(p, s: float) -> EigenSolution:
    if p.is_diagonal(s):
        diagonal = p.sparse_matrix(s).diagonal()
        order = np.argsort(diagonal, kind="stable")
        return EigenSolution(diagonal[order], np.eye(len(order))[:, order])
    h = p.matrix(s)
    if s == 0.0 or len(h) < SPIN_FLIP_DIMENSION or not p.spin_flip_symmetric:
        return EigenSolution(*np.linalg.eigh(h))
    return spin_flip_eigh(h)


def _spin_flip_classes(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed basis indices F of b -> (b_low << n/2) | (b >> n/2) on
    dim = 2**n states, the lower member L of each swapped pair, and its
    image pi(L)."""
    half = (dim.bit_length() - 1) // 2
    b = np.arange(dim)
    image = (b & ((1 << half) - 1)) << half | b >> half
    lower = b < image
    return b[b == image], b[lower], image[lower]


def spin_flip_eigh(h: np.ndarray) -> EigenSolution:
    """Eigensolution of a Hermitian h that commutes with the half-swap
    permutation pi of its 2**n basis states (n even), from two half-size
    eigensolves.

    In the basis e_F, (e_L + e_piL)/sqrt2 of pi-symmetric states, h is
    [[H_FF, sqrt2 H_FL], [sqrt2 H_LF, H_LL + H_L,piL]]; in the basis
    (e_L - e_piL)/sqrt2 of antisymmetric ones it is H_LL - H_L,piL.  The
    eigenvectors map back to rows F, L and pi(L), in the columns of the
    stable ascending merge of both blocks' eigenvalues.  The blocks are
    the spin-flip analogue of symmetry tapering (Bravyi, Gambetta,
    Mezzacapo & Temme, arXiv:1701.08213).
    """
    fixed, low, high = _spin_flip_classes(len(h))
    n_fixed, n_sym = len(fixed), len(fixed) + len(low)
    root2 = np.sqrt(2.0)
    symmetric = h[np.ix_(np.r_[fixed, low], np.r_[fixed, low])]
    symmetric[:n_fixed, n_fixed:] *= root2
    symmetric[n_fixed:, :n_fixed] *= root2
    cross = h[np.ix_(low, high)]
    symmetric[n_fixed:, n_fixed:] += cross
    sym_values, sym_vectors = np.linalg.eigh(symmetric)
    anti_values, anti_vectors = np.linalg.eigh(h[np.ix_(low, low)] - cross)

    values = np.concatenate((sym_values, anti_values))
    rank = np.argsort(np.argsort(values, kind="stable"))
    sym_cols, anti_cols = np.split(rank, [n_sym])
    vectors = np.zeros(h.shape, dtype=np.result_type(sym_vectors, anti_vectors))
    vectors[fixed[:, None], sym_cols] = sym_vectors[:n_fixed]
    paired, anti = sym_vectors[n_fixed:] / root2, anti_vectors / root2
    vectors[low[:, None], sym_cols] = paired
    vectors[high[:, None], sym_cols] = paired
    vectors[low[:, None], anti_cols] = anti
    vectors[high[:, None], anti_cols] = -anti
    return EigenSolution(np.sort(values), vectors)


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
