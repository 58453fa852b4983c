"""Interpolated path Hamiltonians with an optional X-driver envelope.

H(s) = (1 - s) H_i + s H_p + alpha s (1 - s) H_X, where H_X is the sum
of single-qubit X operators.  The quadratic envelope vanishes at both
endpoints, so s = 0 and s = 1 reproduce the initial and final
Hamiltonians term for term.  PathHamiltonian builds H_i, H_p and H_X once,
on one shared sparsity pattern, so that any sparse or dense H(s) is one
weighted sum of their value arrays.  It also finds the qubit permutations
that fix every H(s) (the swap of the spin-up and spin-down halves of a
Jordan-Wigner register, and the mirror of a chain's spatial orbitals), and
the sectors of the group they generate, in which H(s) is block diagonal.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from mczeno.pauli import PauliHamiltonian, PauliTerm, densify, is_all_z, sparse_parts


@dataclass(frozen=True)
class Sector:
    """One block of H(s) in an orthonormal basis U of a subspace that every
    H(s) leaves invariant, held as index arrays.

    Column j of U is one orbit of the symmetry group: members[j] lists the
    orbit's least state's images under every group element, ascending, so a
    state of an orbit smaller than the group repeats.  weights[j, k] is U's
    entry chi / sqrt(orbit size) at members[j, k], and project_weights is
    weights with each repeat after the first set to 0.  parts holds one row
    per P = H_i, H_p and H_X, in that order: the entries of the d x d block
    U^T P U at the flat positions a * d + b in entries, ascending; every
    other entry of the block is zero.
    """

    members: np.ndarray
    weights: np.ndarray
    project_weights: np.ndarray
    entries: np.ndarray
    parts: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.members)

    def project(self, x: np.ndarray) -> np.ndarray:
        """U^T x for standard-basis states x, a vector or columns."""
        return np.einsum("jk,jk...->j...", self.project_weights, x[self.members])

    def embed(self, z: np.ndarray, out: np.ndarray) -> None:
        """Add U z, the standard-basis states of sector coordinates z, into
        out; a repeated member gets the same sum at each of its places, so
        it is added once."""
        out[self.members] += np.einsum("jk,j...->jk...", self.weights, z)


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
    def symmetries(self) -> tuple[np.ndarray, ...]:
        """The qubit permutations, as target qubit per qubit, that fix H_i
        and H_p and so every H(s); H_X is fixed by every one.  The candidates
        are the spin swap q <-> q + n/2 and the mirror of the spatial orbitals
        inside each half, q <-> (M-1-q mod M) + M floor(q/M) with M = n/2;
        one that is the identity is skipped, and odd n has none."""
        n = self.n_qubits
        if n % 2:
            return ()
        q, m = np.arange(n), n // 2
        candidates = ((q + m) % n, m - 1 - q % m + m * (q // m))
        return tuple(perm for perm in candidates if not np.array_equal(perm, q) and
                     all(_invariant(h, perm) for h in (self.h_initial, self.h_final)))

    @cached_property
    def sectors(self) -> tuple[Sector, ...]:
        """One Sector per character of the group the symmetries generate,
        built on first use; () when there is no symmetry.  The characters go
        in lexicographic order of their signs on the symmetries, + first.

        Of k symmetries, symmetry k-1-j is applied by the group elements g
        with bit j set, and has sign -1 in the characters c with bit j set:
        chi_c(g) = (-1)**popcount(g & c).  A basis state's orbit lies in the
        sector of chi unless an element of chi(g) = -1 fixes the state, and
        U's column for the orbit holds chi(g) / sqrt(orbit size) at each
        state that g maps to the orbit's least member.  Entry (a, b) of each
        part sums chi chi' P_ij over the pattern entries (i, j) with i in
        orbit a and j in orbit b, in pattern order, and is then divided by
        sqrt(|a| |b|) for the orbit sizes |a| and |b|.  The orbit pairs that
        the pattern holds are numbered once per path by a bitmap over pairs of
        orbits, and each part is one np.bincount over them, so the build takes
        memory in proportion to the pattern's entries, not to d * d.
        On the diagonal that is the integer |a|, so an energy shared by an
        orbit's states stays exact, and exact ties across sectors survive.
        """
        if not self.symmetries:
            return ()
        indptr, indices, data = self._pattern
        states = np.arange(len(indptr) - 1)
        images = [states]
        for perm in reversed(self.symmetries):
            moved = _permute_bits(states, perm)
            images += [moved[image] for image in images]
        images = np.array(images)
        least = images.min(axis=0)
        size = 1 + np.count_nonzero(np.diff(np.sort(images, axis=0), axis=0), axis=0)
        to_least = np.argmax(images == least, axis=0).astype(np.uint8)  # of 4 elements at most
        # each pattern entry (i, j) by the number of its pair of orbits among
        # the pairs held, and by the pair of elements taking i and j to them
        counts, leasts = np.diff(indptr), np.flatnonzero(least == states).astype(np.int32)
        orbit = np.searchsorted(leasts, least)
        keys = np.repeat(orbit * len(leasts), counts) + orbit[indices]
        held = np.bincount(keys, minlength=len(leasts) ** 2) > 0
        pair_of = (np.cumsum(held) - 1)[keys]
        pair_a, pair_b = (leasts[k] for k in np.divmod(np.flatnonzero(held), len(leasts)))
        del keys, held
        moves = np.repeat(to_least * len(images), counts) + to_least[indices]
        fixed = images[:, leasts] == leasts  # one stabilizer per orbit: the group is abelian

        def sector(c: int) -> Sector:  # its arrays die with the call
            chi = np.array([(-1.0) ** (g & c).bit_count() for g in range(len(images))])
            columns = leasts[~(fixed & (chi[:, None] < 0)).any(axis=0)]
            column_of = np.full(len(states), -1)
            column_of[columns] = np.arange(len(columns))
            signs = np.outer(chi, chi).ravel()
            sums = np.array([_sum_at(pair_of, v, signs, moves, len(pair_a)) for v in data])
            kept = (column_of[pair_a] >= 0) & (column_of[pair_b] >= 0) & sums.any(axis=0)
            a, b = pair_a[kept], pair_b[kept]
            sums = sums[:, kept]  # the parts, divided in place
            sums /= np.sqrt(size[a] * size[b])
            members = np.sort(images[:, columns], axis=0).T
            weights = chi[to_least[members]] / np.sqrt(size[members])
            return Sector(members, weights, np.where(np.diff(members, prepend=-1), weights, 0.0),
                          column_of[a] * len(columns) + column_of[b], sums)
        return tuple(map(sector, range(len(images))))

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

    def _combine(self, s: float, parts) -> np.ndarray:
        """Sum of w * part over the parts of nonzero weight at s, in order,
        in real storage when exactly real."""
        weighted = [w * part for w, part in zip(self.weights(s), parts) if w != 0.0]
        values = reduce(operator.add, weighted)
        if np.iscomplexobj(values) and not values.imag.any():
            return values.real
        return values

    def sparse_matrix(self, s: float, sector: Sector | None = None) -> scipy.sparse.csr_matrix:
        """Sparse H(s) on the shared pattern, or given one of self.sectors
        its U^T H(s) U on the sector's entries, in real storage when exactly
        real; zero-weight parts are left out, so H(0) and H(1) hold
        exactly the values of H_i and H_p.  The one method of a path that
        imports scipy."""
        import scipy.sparse

        if sector is not None:
            d, values = sector.dimension, self._combine(s, sector.parts)
            return scipy.sparse.csr_matrix((values, np.divmod(sector.entries, d)), shape=(d, d))
        indptr, indices, data = self._pattern
        dim = 1 << self.n_qubits
        return scipy.sparse.csr_matrix((self._combine(s, data), indices, indptr),
                                       shape=(dim, dim))

    def matrix(self, s: float, sector: Sector | None = None) -> np.ndarray:
        """Dense H(s), densified from the shared pattern, bit-identical at
        s = 0 and 1 to the dense matrices of H_i and H_p; or given one of
        self.sectors its U^T H(s) U, the weighted sum of its parts placed
        at their entries, real when exactly real."""
        if sector is None:
            indptr, indices, data = self._pattern
            return densify(indptr, indices, self._combine(s, data))
        values = self._combine(s, sector.parts)
        block = np.zeros(sector.dimension ** 2, dtype=values.dtype)
        block[sector.entries] = values
        return block.reshape(sector.dimension, sector.dimension)

    def diagonal(self, s: float) -> np.ndarray:
        """The real diagonal of H(s): the weighted sum of the parts'
        diagonals, entry for entry that of sparse_matrix(s)."""
        return self._combine(s, self._gershgorin[0])

    def spectral_bounds(self, s: float) -> tuple[float, float]:
        """Gershgorin interval [lo, hi] holding every eigenvalue of H(s).

        The weights are non-negative, so the weighted sums of the parts'
        diagonals and off-diagonal absolute row sums bound those of H(s).
        """
        centres, radii = self.diagonal(s), self._combine(s, self._gershgorin[1])
        return float((centres - radii).min()), float((centres + radii).max())


def _sum_at(keys: np.ndarray, values: np.ndarray, signs: np.ndarray, moves: np.ndarray,
            size: int) -> np.ndarray:
    """The sum of values * signs[moves] at each key in range(size), by one
    np.bincount of products formed in place (two for complex values)."""
    if np.iscomplexobj(values):
        return (_sum_at(keys, values.real, signs, moves, size)
                + 1j * _sum_at(keys, values.imag, signs, moves, size))
    weighted = signs[moves]
    weighted *= values
    return np.bincount(keys, weights=weighted, minlength=size)


def _permute_bits(masks: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """masks with bit q moved to bit perm[q]."""
    moved = np.zeros_like(masks)
    for q, target in enumerate(perm):
        moved |= (masks >> q & 1) << target
    return moved


def _invariant(h: PauliHamiltonian, perm: np.ndarray, tol: float = 1e-12) -> bool:
    """True when each term's image under the qubit permutation perm has the
    same coefficient within tol, a missing term counting as 0."""
    masks = np.array([(t.z_mask, t.x_mask) for t in h.terms], dtype=np.int64)
    masks = masks.reshape(-1, 2)
    coefficients = np.array([t.coefficient for t in h.terms])
    # terms are sorted by (z_mask, x_mask), so the keys ascend
    keys, image = (m[:, 0] << h.n_qubits | m[:, 1]
                   for m in (masks, _permute_bits(masks, perm)))
    at = np.minimum(np.searchsorted(keys, image), len(keys) - 1)
    matched = np.where(keys[at] == image, coefficients[at], 0.0)
    return bool(np.all(np.abs(coefficients - matched) <= tol))


def x_driver(n_qubits: int) -> PauliHamiltonian:
    """H_X = sum over qubits of a unit-weight single-qubit X."""
    return PauliHamiltonian(
        n_qubits,
        [PauliTerm(n_qubits, 1 << q, 0, 1.0) for q in range(n_qubits)],
    )


def h_at(p: PathHamiltonian, s: float) -> PauliHamiltonian:
    """Instantaneous Hamiltonian at path parameter s in [0, 1]."""
    parts = zip(p.weights(s), (p.h_initial, p.h_final, x_driver(p.n_qubits)))
    return PauliHamiltonian(p.n_qubits, [t.scaled(w) for w, h in parts if w for t in h.terms])


def s_grid(n_steps: int) -> list[float]:
    """The N+1 path parameters s_k = k/N for k = 0..N."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    return [k / n_steps for k in range(n_steps + 1)]


def discretize(p: PathHamiltonian, n_steps: int) -> list[PauliHamiltonian]:
    """The N+1 Hamiltonians H_k = H(k/N) for k = 0..N."""
    return [h_at(p, s) for s in s_grid(n_steps)]
