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
A path solved in those sectors (symmetry_sectors) builds them, and its
Gershgorin bounds, from one row of each part per orbit, never the pattern.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from mczeno.pauli import (PauliHamiltonian, PauliTerm, _check_cap, densify, is_all_z, sparse_parts,
                          sparse_rows)


SECTOR_DIMENSION = 256
"""Smallest dimension whose path points are solved in symmetry sectors.  On
random paths fixed by the spin swap and the chain mirror, at alpha 0.5, one
full eigh of H(0.5) against the eighs of its four sectors took 0.03-0.05
against 0.03-0.06 ms at 16 rows, 0.27-0.50 against 0.14 ms at 64, 4.9-6.4
against 1.3-1.7 ms at 256 and 0.14-0.24 against 0.019-0.027 s at 1024, and
building the path's sectors, from one row per orbit, took 0.9-1.0, 1.2-1.3,
3.1-3.3 and 21-24 ms (two runs each with 1 and 2 OpenBLAS 0.3.31 threads on
a shared 2-core x86_64 machine; the thread counts differed by no more than
the runs did, except one 2-thread run whose 64-row full eigh took 48 ms).
At 64 rows a point saves 0.1-0.4 ms, so the build takes 3-13 sectored
points to repay; at 256 rows one point repays it.  Smaller paths keep the
whole-space pattern, and build no orbit rows."""


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
        state that g maps to the orbit's least member.  Every part commutes
        with the group, so entry (a, b) of U^T P U, for orbits a and b of
        sizes |a| and |b|, is sqrt(|a| / |b|) sum_j chi(g_j) P_(a0, j) over
        the states j of b, read from the row of a's least state a0 alone
        (_orbit_rows): each part is one np.bincount of those rows' entries,
        in row then column order, over the orbit pairs a <= b that they
        hold.  Each block is that upper triangle mirrored, conjugated, with
        the real part on the diagonal, so it is exactly Hermitian.  On the
        diagonal sqrt(|a| / |a|) is exactly 1, so orbit a's entry is P_(a0,
        a0) plus a's in-orbit entries, each with its sign: where those are
        zero, as on a diagonal H(s), an energy shared by the orbit's states
        is the same number in every sector that holds the orbit, and exact
        ties across sectors survive.
        """
        if not self.symmetries:
            return ()
        images, leasts, orbit, rows, columns, values = self._orbit_rows
        size = 1 + np.count_nonzero(np.diff(np.sort(images[:, leasts], axis=0), axis=0), axis=0)
        # the element taking each state to its orbit's least: of 4 at most
        to_least = np.argmax(images == leasts[orbit], axis=0).astype(np.uint8)
        across = orbit[columns]
        upper = across >= rows
        a, b, n_orbits = rows[upper], across[upper], len(leasts)
        # the orbit pairs (a, b) of the upper triangle and their mirrors
        # (b, a), numbered in ascending order by a bitmap over pairs of orbits
        held = np.zeros((n_orbits, n_orbits), dtype=bool)
        held[a, b] = held[b, a] = True
        pairs = np.flatnonzero(held)
        number = np.empty(n_orbits**2, dtype=np.intp)
        number[pairs] = np.arange(len(pairs))
        pair_a, pair_b = np.divmod(pairs, n_orbits)
        below, on_diagonal = np.flatnonzero(pair_a > pair_b), np.flatnonzero(pair_a == pair_b)
        mirror = number[pair_b[below] * n_orbits + pair_a[below]]
        pair_of, moves = number[a * n_orbits + b], to_least[columns[upper]]
        values = np.compress(upper, values, axis=1)
        scale = np.sqrt(size[pair_a] / size[pair_b])
        del held, number
        fixed = images[:, leasts] == leasts  # one stabilizer per orbit: the group is abelian

        def sector(c: int) -> Sector:  # its arrays die with the call
            chi = np.array([(-1.0) ** (g & c).bit_count() for g in range(len(images))])
            inside = ~(fixed & (chi[:, None] < 0)).any(axis=0)
            sums = np.array([_sum_at(pair_of, v, chi, moves, len(pairs)) for v in values])
            sums *= scale
            for part in sums:
                part[below] = part[mirror].conj()
                if np.iscomplexobj(part):
                    part.imag[on_diagonal] = 0.0
            kept = inside[pair_a] & inside[pair_b] & sums.any(axis=0)
            column_of, d = np.cumsum(inside) - 1, np.count_nonzero(inside)
            members = np.sort(images[:, leasts[inside]], axis=0).T
            weights = chi[to_least[members]] / np.sqrt(size[inside])[:, None]
            return Sector(members, weights, np.where(np.diff(members, prepend=-1), weights, 0.0),
                          column_of[pair_a[kept]] * d + column_of[pair_b[kept]],
                          np.compress(kept, sums, axis=1))
        return tuple(map(sector, range(len(images))))

    @cached_property
    def _orbit_rows(self):
        """The orbits of the symmetry group and one row of each part per
        orbit, built on first use: (images, leasts, orbit, rows, columns,
        values).  images[g, i] is basis state i's image under group element
        g, leasts the least state of each orbit, ascending, and orbit the
        index in leasts of each state's orbit.  H_i, H_p and H_X, one row of
        values each, hold values[:, e] at (leasts[rows[e]], columns[e]), in
        row then column order, and no other nonzero entry in those rows;
        sparse_rows sums them, entry for entry as in the shared pattern."""
        _check_cap(self.n_qubits)
        states = np.arange(1 << self.n_qubits)
        images = [states]
        for perm in reversed(self.symmetries):
            moved = _permute_bits(states, perm)
            images += [moved[image] for image in images]
        images = np.array(images)
        least = images.min(axis=0)
        leasts = np.flatnonzero(least == states)
        masks, block = sparse_rows(self._parts, leasts)
        rows, at = np.nonzero((block != 0).any(axis=0).T)
        columns = leasts[rows] ^ masks[at]
        order = np.argsort(rows * len(states) + columns)
        rows, at = rows[order], at[order]
        return (images, leasts, np.searchsorted(leasts, least), rows, columns[order],
                block[:, at, rows])

    @cached_property
    def _parts(self) -> tuple[PauliHamiltonian, ...]:
        """H_i, H_p and H_X, in the order of every part row."""
        return self.h_initial, self.h_final, x_driver(self.n_qubits)

    @cached_property
    def _pattern(self):
        """(indptr, indices, data) of H_i, H_p and H_X on one shared CSR
        pattern, built on first use: one row of data per part.  Only points
        solved on the whole space read it."""
        return sparse_parts(self._parts)

    @cached_property
    def _diagonals(self) -> np.ndarray:
        """Each part's diagonal: its all-Z terms summed at every basis state
        by sparse_rows, so equal, bit for bit, to the shared pattern's."""
        n = self.n_qubits
        all_z = [PauliHamiltonian(n, [t for t in h.terms if not t.x_mask]) for h in self._parts]
        return sparse_rows(all_z, np.arange(1 << n))[1].sum(axis=1)

    @cached_property
    def _off_sums(self) -> np.ndarray:
        """Each part's off-diagonal absolute row sums: on a path solved in
        sectors (symmetry_sectors), those of the row of each orbit's least
        state, which the orbit's states share; else the shared pattern's."""
        if symmetry_sectors(self):
            _, leasts, share, rows, columns, values = self._orbit_rows
            off, n_rows = columns != leasts[rows], len(leasts)
        else:
            indptr, columns, values = self._pattern
            n_rows, share = len(indptr) - 1, slice(None)
            rows = np.repeat(np.arange(n_rows), np.diff(indptr))
            off = rows != columns
        return np.array([np.bincount(rows[off], weights=np.abs(v[off]), minlength=n_rows)
                         for v in values])[:, share]

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
        return self._combine(s, self._diagonals)

    def spectral_bounds(self, s: float) -> tuple[float, float]:
        """Gershgorin interval [lo, hi] holding every eigenvalue of H(s).

        The weights are non-negative, so the weighted sums of the parts'
        diagonals and off-diagonal absolute row sums bound those of H(s).
        """
        centres, radii = self.diagonal(s), self._combine(s, self._off_sums)
        return float((centres - radii).min()), float((centres + radii).max())


def symmetry_sectors(p) -> tuple:
    """The sectors that solve p's points: p.sectors from SECTOR_DIMENSION
    rows, else (), so that smaller paths never build them.  The one rule for
    whether a path is solved in sectors, which its Gershgorin radii read too."""
    return p.sectors if 1 << p.n_qubits >= SECTOR_DIMENSION else ()


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
