"""Eigensolutions, truncation, and path spectra."""

import sys
from pathlib import Path

import numpy as np
import pytest

from mczeno.clique import build_graph, greedy_max_clique, mc_hamiltonian
from mczeno.driver import load_qubit_hamiltonian
from mczeno.fermion import FermionIntegrals, jordan_wigner
from mczeno.pauli import PauliHamiltonian, PauliTerm, is_all_z, parse_hamiltonian
from mczeno.path import PathHamiltonian, s_grid
from mczeno.qzp import zeno_statistics
from mczeno.spectral import (
    DEGENERACY_TOL,
    EigenSolution,
    eig,
    lowest_k,
    path_eigensolutions,
    path_spectrum,
    sector_eigh,
    spectrum_csv,
)
from oracles import diagonal_entries, full_eigh_solutions, scattered_sector_eigh

MINUS_Z = parse_hamiltonian("-1.0 Z")
MINUS_X = parse_hamiltonian("-1.0 X")


def check_invariants(h, solution):
    from mczeno.spectral import dense_matrix

    values, vectors = solution.eigenvalues, solution.eigenvectors
    assert np.all(np.diff(values) >= -1e-12)
    m = dense_matrix(h)
    scale = max(np.abs(values).max(), 1.0)
    for i in range(len(values)):
        residual = np.linalg.norm(m @ vectors[:, i] - values[i] * vectors[:, i])
        assert residual <= 1e-9 * scale
    overlaps = np.abs(vectors.conj().T @ vectors - np.eye(vectors.shape[1]))
    assert overlaps.max() <= 1e-9


class TestEig:
    def test_demo_spectrum(self, toy_hamiltonian):
        """Kronecker-oracle reference spectrum {-8, 2, 2, 12}."""
        solution = eig(toy_hamiltonian)
        assert np.allclose(solution.eigenvalues, [-8.0, 2.0, 2.0, 12.0], atol=1e-12)
        check_invariants(toy_hamiltonian, solution)

    def test_identity_multiple(self):
        h = parse_hamiltonian("0.3 II")
        solution = eig(h)
        assert np.allclose(solution.eigenvalues, 0.3)
        check_invariants(h, solution)

    def test_single_x(self):
        solution = eig(parse_hamiltonian("1.0 X"))
        assert np.allclose(solution.eigenvalues, [-1.0, 1.0])
        ground = solution.eigenvectors[:, 0]
        expected = np.array([1.0, -1.0]) / np.sqrt(2)
        assert abs(abs(ground @ expected) - 1.0) < 1e-12

    def test_reordering_invariance(self):
        a = parse_hamiltonian("1.0 XY\n0.5 ZZ\n-0.25 YI")
        b = parse_hamiltonian("-0.25 YI\n1.0 XY\n0.5 ZZ")
        assert np.allclose(eig(a).eigenvalues, eig(b).eigenvalues, atol=1e-10)

    def test_complex_terms_handled(self):
        h = parse_hamiltonian("0.5 XY\n0.25 YZ\n1.0 ZI")
        check_invariants(h, eig(h))


    def test_non_hermitian_matrix_rejected(self, monkeypatch):
        import mczeno.spectral

        monkeypatch.setattr(mczeno.spectral, "dense_matrix",
                            lambda h: np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="not Hermitian"):
            eig(MINUS_X)


class TestLowestK:
    def test_demo_ground(self, toy_hamiltonian):
        solution = lowest_k(toy_hamiltonian, 1)
        assert np.allclose(solution.eigenvalues, [-8.0], atol=1e-12)

    def test_full_k_equals_eig(self, toy_hamiltonian):
        assert np.allclose(
            lowest_k(toy_hamiltonian, 4).eigenvalues,
            eig(toy_hamiltonian).eigenvalues,
        )

    def test_identity_k3(self):
        h = parse_hamiltonian("0.7 II")
        assert np.allclose(lowest_k(h, 3).eigenvalues, [0.7, 0.7, 0.7])

    def test_k_out_of_range(self, toy_hamiltonian):
        with pytest.raises(ValueError, match="k must be in"):
            lowest_k(toy_hamiltonian, 5)
        with pytest.raises(ValueError, match="k must be in"):
            lowest_k(toy_hamiltonian, 0)


class TestPathSpectrum:
    def test_two_level_closed_form(self):
        """-Z to -X: endpoint levels {-1, 1}, midpoint +-sqrt(2)/2."""
        p = PathHamiltonian(MINUS_Z, MINUS_X)
        spectrum = path_spectrum(p, 3, 2)
        assert np.allclose(spectrum.s_values, [0.0, 0.5, 1.0])
        root_half = np.sqrt(2) / 2
        assert np.allclose(spectrum.levels[0], [-1.0, 1.0], atol=1e-12)
        assert np.allclose(spectrum.levels[1], [-root_half, root_half], atol=1e-12)
        assert np.allclose(spectrum.levels[2], [-1.0, 1.0], atol=1e-12)

    def test_constant_path_flat(self):
        h = parse_hamiltonian("1.0 ZZ\n0.3 XI")
        p = PathHamiltonian(h, h)
        spectrum = path_spectrum(p, 5, 1)
        assert np.ptp(spectrum.levels[:, 0]) < 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 0.5, 1.0])
    def test_endpoints_match_eig_for_all_alpha(self, toy_hamiltonian, alpha):
        h_i = parse_hamiltonian("2.0 II\n-4.0 IZ\n5.0 ZI")
        p = PathHamiltonian(h_i, toy_hamiltonian, alpha=alpha)
        spectrum = path_spectrum(p, 11, 4)
        assert np.allclose(spectrum.levels[0], eig(h_i).eigenvalues, atol=1e-10)
        assert np.allclose(spectrum.levels[-1], eig(toy_hamiltonian).eigenvalues,
                           atol=1e-10)

    def test_n_points_validation(self, toy_hamiltonian):
        p = PathHamiltonian(toy_hamiltonian, toy_hamiltonian)
        with pytest.raises(ValueError, match="n_points"):
            path_spectrum(p, 1, 2)

    def test_csv_shape_and_determinism(self):
        p = PathHamiltonian(MINUS_Z, MINUS_X)
        spectrum = path_spectrum(p, 4, 2)
        text = spectrum_csv(spectrum)
        lines = text.strip().split("\n")
        assert lines[0] == "s,E0_hartree,E1_hartree"
        assert len(lines) == 5
        assert text == spectrum_csv(path_spectrum(p, 4, 2))


def clique_path(data_dir, name: str, alpha: float) -> PathHamiltonian:
    h, _ = load_qubit_hamiltonian(str(data_dir / name))
    mc = mc_hamiltonian(h, greedy_max_clique(build_graph(h)))
    return PathHamiltonian(mc, h, alpha=alpha)


def spin_swap(n: int) -> np.ndarray:
    return (np.arange(n) + n // 2) % n


def chain_mirror(n: int) -> np.ndarray:
    q, m = np.arange(n), n // 2
    return m - 1 - q % m + m * (q // m)


def permuted(mask: int, perm: np.ndarray) -> int:
    return sum(1 << int(target) for q, target in enumerate(perm) if mask >> q & 1)


def symmetric_sum(n: int, seed: int, odd_y: bool, n_terms: int = 40):
    """n_terms random Pauli products on n qubits, each with its images under
    the spin swap, the chain mirror and both at the same coefficient; terms
    with an odd number of Y factors only when odd_y is set."""
    rng = np.random.default_rng([seed, n, odd_y])
    swap, mirror = spin_swap(n), chain_mirror(n)
    terms = []
    while len(terms) < 4 * n_terms:
        x, z = (int(v) for v in rng.integers(0, 1 << n, 2))
        if (x & z).bit_count() % 2 and not odd_y:
            continue
        c = float(rng.normal())
        for perms in ((), (swap,), (mirror,), (swap, mirror)):
            image_x, image_z = x, z
            for perm in perms:
                image_x, image_z = permuted(image_x, perm), permuted(image_z, perm)
            terms.append(PauliTerm(n, image_x, image_z, c))
    return PauliHamiltonian(n, terms)


@pytest.fixture(scope="module")
def chain_paths():
    """Clique paths of generated H4 chains: a palindromic one (fixed by the
    spin swap and the chain mirror) and one fixed by the spin swap only."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
    from gen_fixtures import chain_integrals

    paths = {}
    for name, spacings in [("palindromic", [1.0, 1.2, 1.0]),
                           ("asymmetric", [1.0, 1.2, 1.4])]:
        h = jordan_wigner(FermionIntegrals.from_spatial(*chain_integrals(spacings)))
        mc = mc_hamiltonian(h, greedy_max_clique(build_graph(h)))
        paths[name] = PathHamiltonian(mc, h, alpha=0.5)
    return paths


@pytest.fixture
def eigh_shapes(monkeypatch):
    """The shapes of the matrices numpy.linalg.eigh is called on."""
    calls = []
    original = np.linalg.eigh

    def counting_eigh(m):
        calls.append(m.shape)
        return original(m)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls


def level_labels(values: np.ndarray) -> np.ndarray:
    return np.r_[0, np.cumsum(np.diff(values) > DEGENERACY_TOL)]


def check_against_full_eigh(h: np.ndarray, solution: EigenSolution) -> None:
    """Residue, orthonormality, eigenvalues and DEGENERACY_TOL level
    projectors of solution against one full eigh of h.

    A level's projector is determined by any backward-stable solver only to
    about eps * ||h|| / gap, where gap is its distance to the nearest other
    level; so the 1e-10 bound applies to levels at least 1e-4 from their
    neighbours, and nearer ones are held to distance * gap <= 1e-13.
    """
    values, vectors = solution.eigenvalues, solution.eigenvectors
    full_values, full_vectors = np.linalg.eigh(h)
    assert np.linalg.norm(h @ vectors - vectors * values, axis=0).max() <= 1e-12
    assert np.abs(vectors.conj().T @ vectors - np.eye(len(h))).max() <= 1e-12
    assert np.abs(values - full_values).max() <= 1e-12
    labels = level_labels(full_values)
    assert np.array_equal(level_labels(values), labels)
    # ||P_g - P'_g||_F**2 is twice the weight of V'_g outside level g of V
    overlap = np.abs(full_vectors.conj().T @ vectors) ** 2
    outside = (overlap * (labels[:, None] != labels)).sum(axis=0)
    distance = np.sqrt(2 * np.bincount(labels, weights=outside))
    levels = full_values[np.r_[0, np.flatnonzero(np.diff(labels)) + 1]]
    gap = np.fmin(np.r_[np.inf, np.diff(levels)], np.r_[np.diff(levels), np.inf])
    assert distance[gap >= 1e-4].max(initial=0.0) <= 1e-10
    assert (distance * gap)[gap < 1e-4].max(initial=0.0) <= 1e-13


H5_SECTORS = [(288, 288), (240, 240), (256, 256), (240, 240)]


class TestSectorSolve:
    H5 = "h5_chain_sto3g_1.00.fcidump"

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_h5_path_points(self, data_dir, eigh_shapes, alpha):
        p = clique_path(data_dir, self.H5, alpha)
        assert len(p.symmetries) == 2 and is_all_z(p.h_initial)
        grid = s_grid(4)
        solutions = list(path_eigensolutions(p, grid))
        # s = 0 is sorted; every other point is solved in four sectors
        assert eigh_shapes == H5_SECTORS * 4
        for s, solution in zip(grid, solutions):
            check_against_full_eigh(p.matrix(s), solution)

    @pytest.mark.parametrize("name, dimensions", [
        ("palindromic", [76, 60, 60, 60]), ("asymmetric", [136, 120]),
    ])
    def test_generated_chains(self, chain_paths, eigh_shapes, name, dimensions):
        p = chain_paths[name]
        assert [sector.dimension for sector in p.sectors] == dimensions
        for s in (0.25, 0.5, 1.0):
            eigh_shapes.clear()
            solution = next(path_eigensolutions(p, [s]))
            assert eigh_shapes == [(d, d) for d in dimensions]
            check_against_full_eigh(p.matrix(s), solution)

    @pytest.mark.parametrize("n", [6, 8])
    @pytest.mark.parametrize("odd_y", [False, True], ids=["real", "odd_y"])
    def test_random_symmetric_paths(self, n, odd_y):
        p = PathHamiltonian(symmetric_sum(n, 1, odd_y), symmetric_sum(n, 2, odd_y),
                            alpha=0.5)
        assert len(p.symmetries) == 2 and len(p.sectors) == 4
        for s in (0.3, 0.7, 1.0):
            h = p.matrix(s)
            assert np.iscomplexobj(h) == odd_y
            check_against_full_eigh(h, sector_eigh(p, s))

    def test_sector_bases(self, data_dir):
        """Each U is orthonormal with entries +-1/sqrt(orbit size), the
        sectors split the space, and sum_chi U_chi (U^T H U) U^T = H."""
        p = clique_path(data_dir, self.H5, 0.5)
        bases = [sector.basis.toarray() for sector in p.sectors]
        for u in bases:
            assert np.abs(u.T @ u - np.eye(u.shape[1])).max() <= 1e-15
            assert set(np.round(np.abs(u[u != 0]) ** -2, 12)) <= {1.0, 2.0, 4.0}
        stacked = np.hstack(bases)
        assert np.abs(stacked.T @ stacked - np.eye(1 << p.n_qubits)).max() <= 1e-15
        h = p.matrix(0.5)
        rebuilt = sum(u @ p.sector_matrix(sector, 0.5) @ u.T
                      for sector, u in zip(p.sectors, bases))
        assert np.abs(rebuilt - h).max() <= 1e-13

    def test_dimension_threshold(self, eigh_shapes):
        """Eight qubits (dim 256) take the sectors, six (dim 64) one eigh."""
        for n, shapes in [(6, [(64, 64)]), (8, [(76, 76), (60, 60), (60, 60), (60, 60)])]:
            eigh_shapes.clear()
            h = symmetric_sum(n, 3, False)
            next(path_eigensolutions(PathHamiltonian(h, h), [0.5]))
            assert eigh_shapes == shapes

    def test_exact_ties_merge_stably(self):
        """At equal eigenvalues the columns of earlier sectors come first.
        sum_q Z_q is fixed by every qubit permutation, and its integer
        levels tie across all four sectors."""
        n = 8
        h = PauliHamiltonian(n, [PauliTerm(n, 0, 1 << q, 1.0) for q in range(n)])
        p = PathHamiltonian(h, h)
        solution = sector_eigh(p, 0.5)
        check_against_full_eigh(p.matrix(0.5), solution)
        assert np.array_equal(solution.eigenvalues, np.sort(np.diag(p.matrix(0.5))))
        weights = np.array([np.linalg.norm(sector.basis.T @ solution.eigenvectors, axis=0)
                            for sector in p.sectors])
        assert np.abs(weights.max(axis=0) - 1.0).max() <= 1e-12
        labels = weights.argmax(axis=0)
        assert len(set(labels[solution.eigenvalues == 0.0])) == 4
        for value in np.unique(solution.eigenvalues):
            in_level = labels[solution.eigenvalues == value]
            assert np.array_equal(in_level, np.sort(in_level))

    def test_zeno_counts_match_full_eigh_path(self, data_dir):
        p = clique_path(data_dir, self.H5, 0.5)
        n_steps = 4
        reference = full_eigh_solutions(p, s_grid(n_steps))
        ours = zeno_statistics(p, n_steps, [0, 1], 100, 11)
        theirs = zeno_statistics(p, n_steps, [0, 1], 100, 11, eigensolutions=reference)
        assert [d.counts for d in ours] == [d.counts for d in theirs]

    def test_small_dimensions_keep_full_eigh(self, data_dir, eigh_shapes):
        p = clique_path(data_dir, "h2_2.8_jw.txt", 0.5)
        assert p.symmetries
        grid = s_grid(4)
        solutions = list(path_eigensolutions(p, grid))
        assert eigh_shapes == [(16, 16)] * 5
        assert "sectors" not in vars(p)  # never built below SECTOR_DIMENSION
        for s, solution in zip(grid, solutions):
            values, vectors = np.linalg.eigh(p.matrix(s))
            assert np.array_equal(solution.eigenvalues, values)
            assert np.array_equal(solution.eigenvectors, vectors)


def sectored_path(data_dir, name: str) -> PathHamiltonian:
    """H5's clique path at alpha 0.5, or a random 8-qubit path fixed by the
    spin swap and the chain mirror ("real" or "odd_y")."""
    if name == "h5":
        return clique_path(data_dir, TestSectorSolve.H5, 0.5)
    odd_y = name == "odd_y"
    return PathHamiltonian(symmetric_sum(8, 1, odd_y), symmetric_sum(8, 2, odd_y),
                           alpha=0.5)


class TestSectorFrame:
    """Sectored points keep one eigenvector block per sector; the dense
    eigenvectors are formed only when read."""

    @pytest.mark.parametrize("name", ["h5", "real", "odd_y"])
    def test_eigenvectors_equal_dense_scatter(self, data_dir, name):
        p = sectored_path(data_dir, name)
        for s in (0.5, 1.0):
            solution = next(path_eigensolutions(p, [s]))
            assert solution.frame is p.sectors
            assert [w.shape for w in solution.blocks] == [
                (sector.dimension,) * 2 for sector in p.sectors]
            assert "eigenvectors" not in vars(solution)
            values, vectors = scattered_sector_eigh(p, s)
            assert np.array_equal(solution.eigenvalues, values)
            assert solution.eigenvectors.dtype == vectors.dtype
            assert solution.eigenvectors.flags.f_contiguous
            assert np.array_equal(solution.eigenvectors, vectors)

    @pytest.mark.parametrize("name, s", [("dense", 0.5), ("h5", 0.0), ("h5", 0.5),
                                         ("odd_y", 0.5)])
    def test_vectors_are_eigenvector_columns(self, data_dir, name, s):
        """vectors(ranks) of a dense, a sorted-diagonal and a sectored point
        equals the columns of eigenvectors bit for bit, in any rank order."""
        if name == "dense":
            solution = EigenSolution(*np.linalg.eigh(sectored_path(data_dir, "real").matrix(s)))
        else:
            solution = next(path_eigensolutions(sectored_path(data_dir, name), [s]))
        assert (solution.columns is None) == (name == "dense")
        assert bool(solution.blocks) == (s > 0.0)
        ranks = np.random.default_rng(3).permutation(len(solution.eigenvalues))[:40]
        ranks = [*ranks, ranks[0], 0, len(solution.eigenvalues) - 1]
        vectors = solution.vectors(ranks)
        assert "eigenvectors" not in vars(solution)
        assert vectors.dtype == solution.eigenvectors.dtype
        assert np.array_equal(vectors, solution.eigenvectors[:, ranks])

    def test_diagonal_point_forms_permutation_on_read(self, data_dir):
        p = sectored_path(data_dir, "h5")
        solution = next(path_eigensolutions(p, [0.0]))
        assert solution.frame is None and solution.blocks == ()
        assert "eigenvectors" not in vars(solution)
        order = np.argsort(diagonal_entries(p.h_initial), kind="stable")
        assert np.array_equal(solution.eigenvectors, np.eye(len(order))[:, order])

    def test_given_eigenvectors_are_kept(self):
        values, vectors = np.linalg.eigh(np.diag([2.0, 1.0]) + 0.5)
        solution = EigenSolution(values, vectors)
        assert solution.frame is None and solution.columns is None
        assert solution.eigenvectors is vectors


DIAGONAL_CLIQUE_FIXTURES = [
    "gapped_four_qubit.txt", "h2_0.7414_jw.txt", "h2_0.7414_parity.txt",
    "h2_1.2_jw.txt", "h2_sto3g_0.7414.fcidump", "h2_sto3g_1.2.fcidump",
    "h5_chain_sto3g_1.00.fcidump", "toy_two_qubit.txt",
]


class TestDiagonalPoints:
    @pytest.mark.parametrize("name", DIAGONAL_CLIQUE_FIXTURES)
    def test_sorted_diagonal_equals_eigh(self, data_dir, monkeypatch, name):
        p = clique_path(data_dir, name, 0.5)
        assert is_all_z(p.h_initial)
        calls = []
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m))
        solution = next(path_eigensolutions(p, [0.0]))
        assert calls == []
        monkeypatch.undo()
        values, _ = np.linalg.eigh(p.matrix(0.0))
        assert np.array_equal(solution.eigenvalues, values)
        order = np.argsort(diagonal_entries(p.h_initial), kind="stable")
        assert np.array_equal(solution.eigenvectors, np.eye(len(order))[:, order])

    def test_interior_point_of_diagonal_path(self, eigh_shapes):
        p = PathHamiltonian(parse_hamiltonian("1.0 ZI\n0.5 IZ"),
                            parse_hamiltonian("-1.0 ZZ\n0.25 IZ"))
        assert p.is_diagonal(0.5)
        solution = next(path_eigensolutions(p, [0.5]))
        assert eigh_shapes == []
        assert np.array_equal(solution.eigenvalues,
                              np.sort(np.diag(p.matrix(0.5)), kind="stable"))

    def test_driver_makes_point_non_diagonal(self):
        p = PathHamiltonian(parse_hamiltonian("1.0 ZI"), parse_hamiltonian("-1.0 ZZ"),
                            alpha=0.5)
        assert p.is_diagonal(0.0) and p.is_diagonal(1.0)
        assert not p.is_diagonal(0.5)
