"""Independent reference implementations used only by the test suite.

Most of this is built from first principles (explicit Kronecker
products, occupation-number ladder matrices) so it shares no code path
with the package under test.  sequential_ham_matrix, eigh_evolve,
dict_jordan_wigner / dict_parity_map, full_eigh_solutions,
dict_invariant and diagonal_entries are the package's earlier, slower
algorithms (a term-by-term sparse sum, per-step diagonalization, complex
dict-of-masks ladder products, one full eigh per path point, a per-term
symmetry check and a term-by-term all-Z diagonal), kept so that the
faster ones can be held to them.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from mczeno.fermion import FermionIntegrals
from mczeno.pauli import DIMENSION_CAP, PauliHamiltonian, PauliTerm, term_matrix
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


def zeno_trajectory(solutions, psi: np.ndarray, seed: int, trial: int,
                    first_step: int) -> tuple[int, ...]:
    """Ranks sampled by one trial projected through solutions[first_step:],
    one state at a time, with the draw of (seed, trial, step) at each step."""
    ranks = []
    for step in range(first_step, len(solutions)):
        es = solutions[step]
        rank, psi = zeno_project(psi, es.eigenvalues, es.eigenvectors,
                                 philox_draw(seed, trial, step))
        ranks.append(rank)
    return tuple(ranks)


def sequential_ham_matrix(h) -> scipy.sparse.csr_matrix:
    """Sparse matrix of a Pauli sum as the running sum of its term matrices,
    one sparse addition per term, in term order."""
    dim = 1 << h.n_qubits
    if not h.terms:
        return scipy.sparse.csr_matrix((dim, dim))
    total = term_matrix(h.terms[0])
    for t in h.terms[1:]:
        total = total + term_matrix(t)
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


def scattered_sector_eigh(p, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and dense eigenvectors of H(s) from one eigh per sector of
    p: each sector's U W is written into the columns of the stable ascending
    merge of every sector's eigenvalues, in a Fortran-order array."""
    sectors = p.sectors
    solved = [np.linalg.eigh(p.sector_matrix(sector, s)) for sector in sectors]
    values = np.concatenate([v for v, _ in solved])
    columns = np.split(np.argsort(np.argsort(values, kind="stable")),
                       np.cumsum([sector.dimension for sector in sectors[:-1]]))
    vectors = np.zeros((len(values), len(values)), order="F",
                       dtype=np.result_type(*(w for _, w in solved)))
    for sector, (_, w), at in zip(sectors, solved, columns):
        vectors[:, at] = sector.basis @ w
    return np.sort(values), vectors


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
