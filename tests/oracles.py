"""Independent reference implementations used only by the test suite.

Most of this is built from first principles (explicit Kronecker
products, occupation-number ladder matrices) so it shares no code path
with the package under test.  sequential_ham_matrix, eigh_evolve,
dict_jordan_wigner / dict_parity_map, full_eigh_solutions,
dict_invariant, diagonal_entries, sandwich_sectors, unique_sectors,
dict_sparse_parts and full_space_evolve are the package's earlier, slower
algorithms (a term-by-term sparse sum, per-step diagonalization, complex
dict-of-masks ladder products, one full eigh per path point, a per-term
symmetry check, a term-by-term all-Z diagonal, sparse S^T P S sector
parts, orbit pairs found by a sort, per-term parity folds summed in a
dict, and qae steps on the whole space), kept so that the faster ones can
be held to them.  complete_grid wraps such a list of whole solutions as the
ZenoGrid that zeno_statistics runs, and zeno_law is the exact outcome law
of the trials zeno_statistics samples from such a grid.  split_eigh solves
a block in the components of its entries above the rounding bound, found
by scipy.sparse.csgraph, with one eigh per component, as the reference for
spectral's split solve of points without the X driver.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

from mczeno.fermion import FermionIntegrals
from mczeno.path import Sector, _permute_bits, x_driver
from mczeno.pauli import (DIMENSION_CAP, PauliHamiltonian, PauliTerm, ham_matrix, parity,
                          sparse_parts)
from mczeno.qae import chebyshev_step
from mczeno.qzp import ZenoGrid, _check_complete, _check_initial_indices
from mczeno.spectral import EigenSolution

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_term(label: str, coeff: float = 1.0) -> np.ndarray:
    """Dense matrix of a Pauli label, leftmost character = highest qubit."""
    out = np.array([[coeff]], dtype=complex)
    for char in label:
        out = np.kron(out, PAULI_1Q[char])
    return out


def kron_hamiltonian(terms: list[tuple[float, str]]) -> np.ndarray:
    """Dense matrix of a weighted Pauli sum given as (coeff, label) pairs."""
    n = len(terms[0][1])
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    for coeff, label in terms:
        out += kron_term(label, coeff)
    return out


def annihilation_matrix(mode: int, n_modes: int) -> np.ndarray:
    """Fock-space matrix of a_mode with sign (-1)**(occupied modes below).

    Basis state j has mode q occupied when bit q of j is set.
    """
    dim = 1 << n_modes
    out = np.zeros((dim, dim))
    for j in range(dim):
        if (j >> mode) & 1:
            sign = -1.0 if (j & ((1 << mode) - 1)).bit_count() & 1 else 1.0
            out[j ^ (1 << mode), j] = sign
    return out


def fock_hamiltonian(h_spatial: np.ndarray, g_chemist: np.ndarray,
                     core: float) -> np.ndarray:
    """Brute-force second-quantized Hamiltonian over 2*M spin orbitals.

    Takes spatial integrals: h_spatial[p, q] one-body, g_chemist[p, q, r, s]
    the chemist-paired two-electron integral (pq|rs).  Spin orbitals are
    blocked, up spins first.  Builds

        H = sum h_pq a+_ps a_qs
          + 1/2 sum (pq|rs) a+_ps a+_rt a_st a_qs'   (s, t spin labels)
          + core

    directly from ladder matrices.
    """
    m = h_spatial.shape[0]
    n = 2 * m
    dim = 1 << n
    a = [annihilation_matrix(q, n) for q in range(n)]
    ad = [mat.T for mat in a]

    def so(p: int, spin: int) -> int:
        return p + spin * m

    out = core * np.eye(dim)
    for p in range(m):
        for q in range(m):
            if h_spatial[p, q] == 0.0:
                continue
            for spin in (0, 1):
                out += h_spatial[p, q] * ad[so(p, spin)] @ a[so(q, spin)]
    for p in range(m):
        for q in range(m):
            for r in range(m):
                for s in range(m):
                    g = g_chemist[p, q, r, s]
                    if g == 0.0:
                        continue
                    for spin1 in (0, 1):
                        for spin2 in (0, 1):
                            al = so(p, spin1)
                            be = so(q, spin1)
                            ga = so(r, spin2)
                            de = so(s, spin2)
                            out += 0.5 * g * ad[al] @ ad[ga] @ a[de] @ a[be]
    return out


def random_spatial_integrals(m: int, rng: np.random.Generator):
    """Random one- and two-body spatial integrals with molecular symmetry.

    The two-body tensor carries the full 8-fold real-orbital symmetry of
    chemist-paired integrals.
    """
    h = rng.normal(size=(m, m))
    h = 0.5 * (h + h.T)
    g = rng.normal(size=(m, m, m, m))
    g = g + g.transpose(1, 0, 2, 3)
    g = g + g.transpose(0, 1, 3, 2)
    g = g + g.transpose(2, 3, 0, 1)
    core = float(rng.normal())
    return h, g, core


# The dict-of-masks fermion mapping the package used before its array
# form, kept verbatim as the reference for term sets and coefficients.
_COEFF_DROP = 1e-12
_IMAG_LIMIT = 1e-12

# A Pauli mask pair (x, z) names the Hermitian product with Y where both
# bits overlap; products accumulate exact powers of i.
_Operator = dict[tuple[int, int], complex]


def _pauli_product(
    x1: int, z1: int, c1: complex, x2: int, z2: int, c2: complex
) -> tuple[int, int, complex]:
    x3, z3 = x1 ^ x2, z1 ^ z2
    phase_power = (
        (x1 & z1).bit_count() + (x2 & z2).bit_count() - (x3 & z3).bit_count()
    ) % 4
    coeff = c1 * c2 * (1j ** phase_power)
    if (z1 & x2).bit_count() & 1:
        coeff = -coeff
    return x3, z3, coeff


def _multiply(left: _Operator, right: _Operator) -> _Operator:
    out: _Operator = {}
    for (x1, z1), c1 in left.items():
        for (x2, z2), c2 in right.items():
            x3, z3, c3 = _pauli_product(x1, z1, c1, x2, z2, c2)
            key = (x3, z3)
            out[key] = out.get(key, 0.0) + c3
    return out


def _ladders(keys) -> tuple[list[_Operator], list[_Operator]]:
    """Annihilators (X + iY)/2 and creators (X - iY)/2 of each mode, from
    the (x, z) masks of its X-like and Y-like Pauli parts."""
    annihilate = [{x_key: 0.5, y_key: 0.5j} for x_key, y_key in keys]
    create = [{x_key: 0.5, y_key: -0.5j} for x_key, y_key in keys]
    return annihilate, create


def _jw_ladders(n: int) -> tuple[list[_Operator], list[_Operator]]:
    """Annihilators and creators with Z strings on the lower modes."""
    keys = []
    for p in range(n):
        bit, lower = 1 << p, (1 << p) - 1
        keys.append(((bit, lower), (bit, lower | bit)))
    return _ladders(keys)


def _parity_ladders(n: int) -> tuple[list[_Operator], list[_Operator]]:
    """Ladders in the parity basis: X on all higher modes, Z on one lower."""
    full = (1 << n) - 1
    keys = []
    for p in range(n):
        bit = 1 << p
        x_mask = full & ~(bit - 1)  # this mode and all higher ones
        keys.append(((x_mask, bit >> 1), (x_mask, bit)))
    return _ladders(keys)


def _assemble(f: FermionIntegrals, ladders, cap: int) -> PauliHamiltonian:
    n = f.n_orbitals
    if n > cap:
        raise ValueError(f"{n} spin orbitals exceeds the dimension cap of {cap}")
    annihilate, create = ladders(n)
    acc: _Operator = {(0, 0): complex(f.core_energy)}

    def add(op: _Operator, scale: float) -> None:
        for key, coeff in op.items():
            acc[key] = acc.get(key, 0.0) + scale * coeff

    for p, q in np.argwhere(np.abs(f.one_body) > 0.0):
        add(_multiply(create[p], annihilate[q]), float(f.one_body[p, q]))

    pair_cache: dict[tuple[int, int], _Operator] = {}
    for p, q, r, s in np.argwhere(np.abs(f.two_body) > 0.0):
        head = pair_cache.get((p, q))
        if head is None:
            head = _multiply(create[p], create[q])
            pair_cache[(p, q)] = head
        tail = _multiply(annihilate[s], annihilate[r])
        add(_multiply(head, tail), 0.5 * float(f.two_body[p, q, r, s]))

    worst_imag = max((abs(c.imag) for c in acc.values()), default=0.0)
    if worst_imag > _IMAG_LIMIT:
        raise ValueError(
            f"mapping left imaginary weight {worst_imag:g}, input not Hermitian"
        )
    terms = [
        PauliTerm(n, x, z, float(c.real))
        for (x, z), c in acc.items()
        if abs(c.real) > _COEFF_DROP
    ]
    return PauliHamiltonian(n, terms)


def dict_jordan_wigner(f: FermionIntegrals, cap: int = DIMENSION_CAP) -> PauliHamiltonian:
    """Jordan-Wigner mapping by exact complex Pauli-mask products."""
    return _assemble(f, _jw_ladders, cap)


def dict_parity_map(f: FermionIntegrals, cap: int = DIMENSION_CAP) -> PauliHamiltonian:
    """Parity mapping by exact complex Pauli-mask products."""
    return _assemble(f, _parity_ladders, cap)


ZENO_DEGENERACY_TOL = 1e-9
"""Eigenvalues closer than this form one degenerate measurement outcome."""


def philox_draw(seed: int, trial: int, step: int) -> float:
    """The uniform draw of one projection event, Philox keyed by (seed, trial, step)."""
    sequence = np.random.SeedSequence(entropy=(seed, trial, step))
    return float(np.random.Generator(np.random.Philox(sequence)).random())


def zeno_project(psi: np.ndarray, values: np.ndarray, vectors: np.ndarray,
                 draw: float) -> tuple[int, np.ndarray]:
    """One Born-rule projection of one state, in complex arithmetic.

    The draw scaled by the total weight picks a degenerate level by its
    cumulative weight; the state collapses onto that level's whole
    eigenspace.  Returns the level's lowest rank and the collapsed state.
    """
    psi = np.asarray(psi, dtype=complex)
    amplitudes = np.conj(psi.conj() @ vectors)
    weights = np.abs(amplitudes) ** 2
    starts = np.concatenate(
        ([0], np.flatnonzero(np.diff(values) > ZENO_DEGENERACY_TOL) + 1))
    probs = np.add.reduceat(weights, starts)
    chosen = int(np.searchsorted(np.cumsum(probs), draw * probs.sum(), side="right"))
    chosen = min(chosen, len(starts) - 1)
    a = int(starts[chosen])
    b = int(starts[chosen + 1]) if chosen + 1 < len(starts) else len(weights)
    collapsed = vectors[:, a:b] @ amplitudes[a:b]
    return a, collapsed / np.linalg.norm(collapsed)


def zeno_trajectory(solutions, psi: np.ndarray, seed: int, trial: int) -> tuple[int, ...]:
    """Ranks sampled by one trial from psi, an eigenvector of solutions[0],
    projected through solutions[1:] one state at a time, with the draw of
    (seed, trial, step) at each step."""
    ranks = []
    for step in range(1, len(solutions)):
        es = solutions[step]
        rank, psi = zeno_project(psi, es.eigenvalues, es.eigenvectors,
                                 philox_draw(seed, trial, step))
        ranks.append(rank)
    return tuple(ranks)


def zeno_law(grid: ZenoGrid, rank: int) -> tuple[dict[int, float], list[float]]:
    """The exact law of a Zeno run from the H(0) eigenvector of the given
    rank through grid, by its density matrix rho in the rank basis of each
    point: the start's amplitudes at the first step, rho <- O rho O^H with
    O the overlap of consecutive bases at each later one, and after every
    step the entries between different levels zeroed (the measurement).

    Returns the probability of every final level, keyed by its lowest rank
    as ZenoDistribution.counts is, and the ground level's weight after
    each step."""
    solutions = grid.solutions
    a = solutions[1].overlap(solutions[0], [rank])[:, 0]
    rho = np.outer(a, a.conj())
    ground = []
    for k in range(1, len(solutions)):
        previous, es = solutions[k - 1], solutions[k]
        if k > 1:
            o = es.overlap(previous, np.arange(len(previous.eigenvalues)))
            rho = o @ rho @ o.conj().T
        level = np.searchsorted(es.level_ends, np.arange(len(es.eigenvalues)), "right")
        rho[level[:, None] != level] = 0
        ground.append(float(np.trace(rho[:es.level_ends[0], :es.level_ends[0]]).real))
    firsts = np.append(0, es.level_ends[:-1])
    law = np.add.reduceat(np.diagonal(rho).real, firsts)
    return dict(zip(firsts.tolist(), law.tolist())), ground


def sequential_ham_matrix(h) -> scipy.sparse.csr_matrix:
    """Sparse matrix of a Pauli sum as the running sum of its term matrices,
    one sparse addition per term, in term order."""
    dim = 1 << h.n_qubits
    if not h.terms:
        return scipy.sparse.csr_matrix((dim, dim))
    total = ham_matrix(PauliHamiltonian(h.n_qubits, h.terms[:1]))
    for t in h.terms[1:]:
        total = total + ham_matrix(PauliHamiltonian(h.n_qubits, [t]))
    return total.tocsr()


def diagonal_entries(h: PauliHamiltonian) -> np.ndarray:
    """Diagonal of an all-Z Hamiltonian over all 2**n basis states, summed
    term by term: coeff * (-1)**popcount(z & j) at basis state j."""
    if any(t.x_mask for t in h.terms):
        raise ValueError("Hamiltonian has X or Y factors, diagonal undefined")
    states = np.arange(1 << h.n_qubits, dtype=np.int64)
    diag = np.zeros(len(states))
    for t in h.terms:
        bits = (states[:, None] & t.z_mask) >> np.arange(h.n_qubits) & 1
        diag += t.coefficient * (1.0 - 2.0 * (bits.sum(axis=1) & 1))
    return diag


def full_eigh_solutions(p, s_values) -> list:
    """One full dense eigh of p.matrix(s) per path point, as (values,
    vectors) EigenSolutions, with no diagonal or block shortcut."""
    return [EigenSolution(*np.linalg.eigh(p.matrix(float(s)))) for s in s_values]


def complete_grid(solutions, initial_indices) -> ZenoGrid:
    """A ZenoGrid of a list of complete bases, one per path point (say
    full_eigh_solutions'), for runs from the given ranks of its first
    point, checked as zeno_grid checks them."""
    _check_complete(len(solutions) - 1, solutions)
    _check_initial_indices(list(initial_indices), solutions[0].dimension)
    return ZenoGrid(tuple(solutions), tuple(initial_indices))


def scattered_sector_eigh(p, s: float, solve=None) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and dense eigenvectors of H(s) from one solve per sector
    of p, by default eigh: each sector's U W is written into the columns of
    the stable ascending merge of every sector's eigenvalues, in a
    Fortran-order array."""
    sectors = p.sectors
    solved = [(solve or np.linalg.eigh)(p.matrix(s, sector)) for sector in sectors]
    values = np.concatenate([v for v, _ in solved])
    columns = np.split(np.argsort(np.argsort(values, kind="stable")),
                       np.cumsum([sector.dimension for sector in sectors[:-1]]))
    vectors = np.zeros((len(values), len(values)), order="F",
                       dtype=np.result_type(*(w for _, w in solved)))
    for sector, (_, w), at in zip(sectors, solved, columns):
        vectors[:, at] = sector_basis(sector, len(values)) @ w
    return np.sort(values), vectors


def split_components(block: np.ndarray) -> list[np.ndarray]:
    """The rows of each connected component of the entries of a Hermitian
    d x d block above the rounding bound d * eps * max|B_ij|, found by
    scipy.sparse.csgraph: ascending in each component, the components by
    size and then least row."""
    magnitude = np.abs(block)
    coupled = magnitude > len(block) * np.finfo(float).eps * magnitude.max()
    _, labels = scipy.sparse.csgraph.connected_components(scipy.sparse.csr_matrix(coupled),
                                                          directed=False)
    components = [np.flatnonzero(labels == k) for k in range(labels.max() + 1)]
    return sorted(components, key=lambda rows: (len(rows), rows[0]))


def split_eigh(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a Hermitian block from one eigh per
    component of split_components, each component's W written into the
    block's rows of that component and the columns of the stable ascending
    merge of every component's eigenvalues, in split_components' order."""
    components = split_components(block)
    solved = [np.linalg.eigh(block[np.ix_(rows, rows)]) for rows in components]
    values = np.concatenate([v for v, _ in solved])
    columns = np.split(np.argsort(np.argsort(values, kind="stable")),
                       np.cumsum([len(rows) for rows in components[:-1]]))
    vectors = np.zeros_like(block)
    for rows, (_, w), at in zip(components, solved, columns):
        vectors[np.ix_(rows, at)] = w
    return np.sort(values), vectors


def split_eigh_shapes(block: np.ndarray) -> list[tuple[int, ...]]:
    """The shapes of the eigh calls that split a block: the block's own when
    it is one component of split_components, else (count, size, size) for
    each component size, one stacked call each."""
    components = split_components(block)
    if len(components) == 1:
        return [block.shape]
    return [(count, size, size) for size, count in Counter(map(len, components)).items()]


def sector_basis(sector, dim: int) -> np.ndarray:
    """The sector's isometry U as a dense dim x d matrix."""
    u = np.zeros((dim, sector.dimension))
    u[sector.members, np.arange(sector.dimension)[:, None]] = sector.weights
    return u


def sector_part(sector, k: int) -> np.ndarray:
    """Part k (H_i, H_p or H_X) of the sector as a dense d x d block."""
    block = np.zeros(sector.dimension ** 2, dtype=sector.parts.dtype)
    block[sector.entries] = sector.parts[k]
    return block.reshape(sector.dimension, sector.dimension)


def solved_sectors(solution, p) -> list:
    """The index in p.sectors of each block's sector, in block order, None
    for a block on standard-basis rows."""
    return [next((c for c, sector in enumerate(p.sectors) if rows is sector), None)
            for rows, _, _ in solution.blocks]


def _orbits(p):
    """(states, images, least, size, to_least, fixed) of p's symmetry group:
    the image of every basis state under each group element, each state's
    orbit's least member and size, the element taking it there, and which
    elements fix it, by the rules of PathHamiltonian.sectors."""
    states = np.arange(1 << p.n_qubits)
    images = [states]
    for perm in reversed(p.symmetries):
        moved = _permute_bits(states, perm)
        images += [moved[image] for image in images]
    images = np.array(images)
    least = images.min(axis=0)
    size = 1 + np.count_nonzero(np.diff(np.sort(images, axis=0), axis=0), axis=0)
    to_least = np.argmax(images == least, axis=0)
    return states, images, least, size, to_least, images == states


def unique_sectors(p) -> tuple:
    """p's Sectors by the rule of PathHamiltonian.sectors, from the shared
    pattern's rows of each orbit's least state a0: the orbit pairs (a, b)
    with a <= b that those rows hold, found by np.unique, and each part's
    entry sqrt(|a| / |b|) sum_j chi(g_j) P_(a0, j), summed by one
    np.bincount in pattern order, mirrored below the diagonal as its
    conjugate, with the real part on the diagonal; each column's members
    gathered from the states inside the sector."""
    if not p.symmetries:
        return ()
    indptr, indices, data = sparse_parts((p.h_initial, p.h_final, x_driver(p.n_qubits)))
    states, images, least, size, to_least, fixed = _orbits(p)
    rows = np.repeat(states, np.diff(indptr))
    upper = (least[rows] == rows) & (least[indices] >= rows)
    rows, columns, data = rows[upper], indices[upper], data[:, upper]
    pairs, pair_of = np.unique(rows * len(states) + least[columns], return_inverse=True)
    a, b = np.divmod(pairs, len(states))

    def sum_at(values):
        if np.iscomplexobj(values):
            return sum_at(values.real) + 1j * sum_at(values.imag)
        return np.bincount(pair_of, weights=values, minlength=len(pairs))

    sectors = []
    for c in range(len(images)):
        chi = np.array([(-1) ** (g & c).bit_count() for g in range(len(images))])
        inside = np.flatnonzero(~(fixed & (chi[:, None] < 0)).any(axis=0))
        orbits, columns_of_inside = np.unique(least[inside], return_inverse=True)
        d = len(orbits)
        column_of = np.full(len(states), -1)
        column_of[inside] = columns_of_inside
        sums = np.array([sum_at(values * chi[to_least[columns]]) for values in data])
        sums = sums * np.sqrt(size[a] / size[b])
        if np.iscomplexobj(sums):
            sums.imag[:, a == b] = 0.0
        kept = (column_of[a] >= 0) & (column_of[b] >= 0) & sums.any(axis=0)
        ca, cb, parts = column_of[a[kept]], column_of[b[kept]], sums[:, kept]
        off = ca != cb
        entries = np.concatenate([ca * d + cb, cb[off] * d + ca[off]])
        parts = np.concatenate([parts, parts[:, off].conj()], axis=1)
        order = np.argsort(entries)
        # each inside state once per group element that maps its orbit's
        # least member to it, grouped by column: the member table
        repeats = len(images) // size[inside]
        member_order = np.argsort(np.repeat(columns_of_inside, repeats), kind="stable")
        members, weights = (np.repeat(v, repeats)[member_order].reshape(d, -1) for v in
                            (inside, chi[to_least[inside]] / np.sqrt(size[inside])))
        first = np.zeros(len(member_order), dtype=bool)
        first[np.cumsum(repeats) - repeats] = True
        sectors.append(Sector(members, weights,
                              np.where(first[member_order].reshape(d, -1), weights, 0.0),
                              entries[order], parts[:, order]))
    return tuple(sectors)


def sandwich_sectors(p) -> list:
    """(U, parts) for each character of p's symmetry group, in p.sectors
    order, as sparse scipy matrices: the orbit and character rules of
    PathHamiltonian.sectors, with each part formed as S^T P S for S the +-1
    pattern of U and entry (a, b) then divided by sqrt(|a| |b|) for the two
    orbit sizes."""
    indptr, indices, data = p._pattern
    states, images, least, size, to_least, fixed = _orbits(p)
    matrices = [scipy.sparse.csr_matrix((values, indices, indptr), shape=(len(states),) * 2)
                for values in data]
    sectors = []
    for c in range(len(images)):
        chi = np.array([(-1) ** (g & c).bit_count() for g in range(len(images))])
        inside = np.flatnonzero(~(fixed & (chi[:, None] < 0)).any(axis=0))
        orbits, columns = np.unique(least[inside], return_inverse=True)
        basis = scipy.sparse.csr_matrix(
            (chi[to_least[inside]] / np.sqrt(size[inside]), (inside, columns)),
            shape=(len(states), len(orbits)))
        signs, sizes = basis.sign(), size[orbits]
        signs_t = signs.T.tocsr()
        parts = []
        for matrix in matrices:
            part = (signs_t @ matrix @ signs).tocoo()
            part.data /= np.sqrt(sizes[part.row] * sizes[part.col])
            parts.append(part.tocsr())
        sectors.append((basis, parts))
    return sectors


def dict_invariant(h, perm, tol: float = 1e-12) -> bool:
    """True when each term's image under the qubit permutation perm (qubit q
    to qubit perm[q]) has the same coefficient within tol, a missing term
    counting as 0; one dict lookup per term."""

    def moved(mask: int) -> int:
        return sum(1 << int(perm[q]) for q in range(h.n_qubits) if mask >> q & 1)

    coefficients = {(t.x_mask, t.z_mask): t.coefficient for t in h.terms}
    return all(abs(c - coefficients.get((moved(x), moved(z)), 0.0)) <= tol
               for (x, z), c in coefficients.items())


def eigh_evolve(p, delta_t: float, psi0: np.ndarray):
    """Discretized adiabatic evolution with every step's propagator taken
    from a full eigendecomposition of the dense H(s).

    Returns the final state, its energy and its ground-level weight, all
    read in the eigenbasis of the last step's H(1); the ground level is the
    run of eigenvalues from the lowest whose steps are at most
    ZENO_DEGENERACY_TOL.
    """
    n_steps = round(p.total_time / delta_t)
    psi = np.asarray(psi0, dtype=complex)
    for k in range(1, n_steps + 1):
        values, vectors = np.linalg.eigh(p.matrix(k / n_steps))
        amplitudes = vectors.conj().T @ psi
        psi = vectors @ (np.exp(-1j * values * delta_t) * amplitudes)
    weights = np.abs(amplitudes) ** 2
    ground = np.r_[0, np.cumsum(np.diff(values) > ZENO_DEGENERACY_TOL)] == 0
    return psi, float(values @ weights), float(weights[ground].sum())


def _term_values(t: PauliTerm, cols: np.ndarray) -> np.ndarray:
    """Entry (c ^ x_mask, c) of the term's matrix for each column c in cols:
    coeff * i**n_Y * (-1)**popcount(z & c), real when n_Y is even."""
    signs = 1.0 - 2.0 * parity(cols & t.z_mask, t.n_qubits)
    n_y = (t.x_mask & t.z_mask).bit_count()
    data = (t.coefficient * 1j ** n_y) * signs
    return data.real if n_y % 2 == 0 else data


def dict_sparse_parts(hs):
    """pauli.sparse_parts with each term's signs folded by its own parity
    call and each sum's terms of one x-mask summed in a dict, in term order,
    before they are placed in the (parts x masks x dim) block."""
    n = hs[0].n_qubits
    dim = 1 << n
    cols = np.arange(dim, dtype=np.int64)
    values: dict[tuple[int, int], np.ndarray] = {}
    for part, h in enumerate(hs):
        for t in h.terms:
            key = (t.x_mask, part)
            data = _term_values(t, cols)
            values[key] = values[key] + data if key in values else data
    masks = {x: i for i, x in enumerate(dict.fromkeys(x for x, _ in values))}
    block = np.zeros((len(hs), len(masks), dim),
                     dtype=np.result_type(float, *values.values()))
    for (x, part), data in values.items():
        block[part, masks[x]] = data
    flat = np.flatnonzero((block != 0).any(axis=0))
    col_at = flat & (dim - 1)
    rows = col_at ^ np.array(list(masks), dtype=np.int64)[flat >> n]
    order = np.argsort(rows << n | col_at)
    index = np.int32 if max(dim, len(flat)) < 2**31 else np.int64
    indptr = np.r_[0, np.bincount(rows, minlength=dim).cumsum()].astype(index)
    return (indptr, col_at[order].astype(index),
            block.reshape(len(hs), -1)[:, flat[order]])


def full_space_evolve(p, delta_t: float, psi0: np.ndarray) -> np.ndarray:
    """The final state of qae's Chebyshev steps taken on the whole 2**n
    space, through the sparse H(s) of every step, with no symmetry sectors."""
    n_steps = round(p.total_time / delta_t)
    psi = np.asarray(psi0, dtype=complex)
    for k in range(1, n_steps + 1):
        s = k / n_steps
        psi = chebyshev_step(p.sparse_matrix(s), p.spectral_bounds(s), delta_t, psi)
    return psi
