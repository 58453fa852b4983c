"""Exact eigensolutions of small Hamiltonians and spectra along a path."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np
import scipy.sparse

from mczeno.pauli import PauliHamiltonian, _check_cap, ham_matrix

SECTOR_DIMENSION = 256
"""Smallest dimension whose path points are solved in symmetry sectors.  On
synthetic paths fixed by the spin swap and the chain mirror, one full eigh
against the four sectors took 0.03 against 0.11 ms at 16 rows, 0.33
against 0.37 ms at 64, 5.8 against 2.0 ms at 256 and 0.18 against 0.036 s
at 1024; at 64 rows the sectors are no faster and cost ~5 ms per path to
build."""

DEGENERACY_TOL = 1e-9
"""Largest step between successive eigenvalues of one degenerate level."""


class EigenSolution:
    """Ascending eigenvalues with column-aligned orthonormal eigenvectors.

    The eigenvectors are held in a frame: the standard basis (frame None)
    or a path's symmetry sectors (frame p.sectors, path.Sector), whose
    isometries U_c side by side form an orthogonal Q.  A state in frame
    coordinates is Q^T psi, each sector's rows stacked in sector order.
    blocks holds each sector's eigenvectors W_c (d_c x d_c), acting on its
    rows, and columns the rank of each stacked eigenvector among all
    eigenvalues: eigenvector columns[i] is Q W e_i.  In the standard basis,
    EigenSolution(values, vectors) holds the dense eigenvectors as its one
    block with columns None, and a diagonal H holds no blocks (W = I) and
    the rank of each basis state.  The dense eigenvectors, 2**n x 2**n, are
    formed only when read.
    """

    def __init__(self, eigenvalues: np.ndarray, eigenvectors: np.ndarray | None = None,
                 *, frame: tuple | None = None, blocks: tuple = (),
                 columns: np.ndarray | None = None):
        self.eigenvalues = eigenvalues
        self.frame, self.columns = frame, columns
        self.blocks = blocks if eigenvectors is None else (eigenvectors,)

    @cached_property
    def level_ends(self) -> np.ndarray:
        """End rank of each degenerate level, ascending.  A level is a run of
        eigenvalues whose successive steps are at most DEGENERACY_TOL, so
        rank 0 through level_ends[0] - 1 is the ground level."""
        steps = np.diff(self.eigenvalues)
        return np.append(np.flatnonzero(steps > DEGENERACY_TOL) + 1, len(self.eigenvalues))

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """The eigenvectors as dense columns, formed on first read."""
        if self.columns is None:
            return self.blocks[0]
        return self.vectors(np.arange(len(self.eigenvalues)))

    def vectors(self, ranks) -> np.ndarray:
        """The standard-basis eigenvectors of the given ranks as columns of a
        new array, in Fortran order unless the eigenvectors are held dense."""
        if self.columns is None:
            return self.blocks[0][:, ranks]
        stacked = self.by_rank(np.arange(len(self.columns)))[ranks]
        vectors = np.zeros((len(self.columns), len(stacked)), order="F",
                           dtype=np.result_type(float, *self.blocks))
        if not self.blocks:  # stacked rows are basis states
            vectors[stacked, np.arange(len(stacked))] = 1.0
        for sector, (rows, w) in zip(self.frame or (), self._pieces()):
            mine = (stacked >= rows.start) & (stacked < rows.stop)
            vectors[:, mine] = sector.basis @ w[:, stacked[mine] - rows.start]
        return vectors

    def _pieces(self) -> list[tuple[slice, np.ndarray]]:
        """(rows, W_c) of each block, rows being its stacked rows."""
        ends = np.cumsum([len(w) for w in self.blocks])
        return [(slice(end - len(w), end), w) for end, w in zip(ends, self.blocks)]

    def apply(self, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """W x, or when adjoint W^H x (x's amplitude on each eigenvector, in
        stacked order), for x in frame coordinates; a new array."""
        if not self.blocks:
            return x.copy()
        out = np.empty(x.shape, dtype=np.result_type(x, *self.blocks))
        for rows, w in self._pieces():
            out[rows] = (w.conj().T if adjoint else w) @ x[rows]
        return out

    def by_rank(self, x: np.ndarray) -> np.ndarray:
        """The rows of x, one per stacked eigenvector, in rank order."""
        if self.columns is None:
            return x
        ranked = np.empty_like(x)
        ranked[self.columns] = x
        return ranked

    def weights(self, psi: np.ndarray) -> np.ndarray:
        """|<v_r|psi>|^2 of a full-space state psi for each rank r."""
        return self.by_rank(np.abs(self.apply(to_frame(self.frame, psi), adjoint=True)) ** 2)


def to_frame(frame: tuple | None, psi: np.ndarray) -> np.ndarray:
    """psi's coordinates in frame: psi in the standard basis (frame None),
    else Q^T psi, Q being the sectors' isometries side by side."""
    return psi if frame is None else _isometries(frame).T @ psi


def from_frame(frame: tuple | None, x: np.ndarray) -> np.ndarray:
    """The full-space state whose coordinates in frame are x."""
    return x if frame is None else _isometries(frame) @ x


def _isometries(frame: tuple) -> scipy.sparse.csr_matrix:
    return scipy.sparse.hstack([sector.basis for sector in frame], format="csr")


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


def dense_matrix(h: PauliHamiltonian) -> np.ndarray:
    """Dense Hermitian matrix, dropped to real storage when exactly real."""
    return densify(ham_matrix(h))


def eig(h: PauliHamiltonian) -> EigenSolution:
    """Full dense Hermitian eigendecomposition."""
    m = dense_matrix(h)
    residue = np.abs(m - m.conj().T).max() if m.size else 0.0
    if residue > 1e-12:
        raise ValueError(f"matrix is not Hermitian (residue {residue:g})")
    return EigenSolution(*np.linalg.eigh(m))


def path_eigensolutions(p, s_values: Iterable[float]) -> Iterator[EigenSolution]:
    """Eigensolutions of p.matrix(s) for each s in s_values, solved lazily.

    H(s) is a real-weighted sum of the H_i, H_p and H_X values on one
    pattern, each exactly Hermitian as pauli.sparse_parts builds it, so no
    point is checked again.  A diagonal H(s) is sorted, not diagonalized.
    When H(s) has at least SECTOR_DIMENSION rows and p has symmetry
    sectors (p.sectors), the point is solved sector by sector
    (sector_eigh), except at s = 0: there the eigenvectors seed initial
    states by rank, so H(0) keeps the basis of one full eigh.  Elsewhere
    only the eigenvalues and the eigenspaces of levels are used, and
    neither depends on the basis.
    """
    _check_cap(p.n_qubits)
    return (_solve_point(p, float(s)) for s in s_values)


def symmetry_sectors(p) -> tuple:
    """The sectors that solve p's points: p.sectors from SECTOR_DIMENSION
    rows, else (), so that smaller paths never build them."""
    return p.sectors if 1 << p.n_qubits >= SECTOR_DIMENSION else ()


def _solve_point(p, s: float) -> EigenSolution:
    if p.is_diagonal(s):
        diagonal = p.sparse_matrix(s).diagonal()
        order = np.argsort(diagonal, kind="stable")
        return EigenSolution(diagonal[order], columns=np.argsort(order))
    if s == 0.0 or not symmetry_sectors(p):
        return EigenSolution(*np.linalg.eigh(p.matrix(s)))
    return sector_eigh(p, s)


def sector_eigh(p, s: float) -> EigenSolution:
    """Eigensolution of H(s) in the frame of p's sectors (p.sectors), from
    one eigh per sector.

    Sector chi's d x d block U^T H(s) U is summed from its sparse parts and
    densified alone, so no dense H(s) is formed.  Its eigenvectors W stay
    d x d blocks, and their columns land in the stable ascending merge of
    every sector's eigenvalues.  This is symmetry tapering (Bravyi,
    Gambetta, Mezzacapo & Temme, arXiv:1701.08213) by a group of qubit
    permutations.
    """
    solved = [np.linalg.eigh(p.sector_matrix(sector, s)) for sector in p.sectors]
    values = np.concatenate([v for v, _ in solved])
    return EigenSolution(np.sort(values), frame=p.sectors,
                         blocks=tuple(w for _, w in solved),
                         columns=np.argsort(np.argsort(values, kind="stable")))


def lowest_k(h: PauliHamiltonian, k: int) -> EigenSolution:
    """First k entries of eig(h)."""
    dim = 1 << h.n_qubits
    if not 1 <= k <= dim:
        raise ValueError(f"k must be in 1..{dim}, got {k}")
    full = eig(h)
    return EigenSolution(full.eigenvalues[:k], full.eigenvectors[:, :k])


def path_spectrum(p, n_points: int, k: int) -> PathSpectrum:
    """Lowest k levels at n_points equally spaced s values in [0, 1]."""
    if n_points < 2:
        raise ValueError(f"n_points must be at least 2, got {n_points}")
    dim = 1 << p.n_qubits
    if not 1 <= k <= dim:
        raise ValueError(f"k must be in 1..{dim}, got {k}")
    s_values = np.array([j / (n_points - 1) for j in range(n_points)])
    solutions = path_eigensolutions(p, s_values)
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
