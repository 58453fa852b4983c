"""Eigensolutions, complete bases, and path spectra."""

import dataclasses
import functools
import multiprocessing
import os
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from mczeno.clique import build_graph, greedy_max_clique, mc_hamiltonian
from mczeno.driver import RunConfig, load_qubit_hamiltonian, run
from mczeno.fermion import FermionIntegrals, jordan_wigner
from mczeno.pauli import PauliHamiltonian, PauliTerm, ham_matrix, is_all_z, parse_hamiltonian
from mczeno.path import PathHamiltonian, s_grid, symmetry_sectors
from mczeno import qzp, spectral
from mczeno.qzp import zeno_grid, zeno_statistics
from mczeno.spectral import (
    DEGENERACY_TOL,
    EigenSolution,
    eig,
    path_eigensolutions,
    path_spectrum,
    sector_weights,
)
from oracles import (
    complete_grid,
    diagonal_entries,
    full_eigh_solutions,
    sandwich_sectors,
    scattered_sector_eigh,
    sector_basis,
    solved_sectors,
    split_components,
    split_eigh,
    split_eigh_shapes,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from gen_fixtures import chain_integrals  # noqa: E402
from size_table import symmetric_sum  # noqa: E402

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


class TestEigenSolution:
    def test_solution_needs_eigenvectors(self):
        with pytest.raises(ValueError, match="eigenvectors or blocks"):
            EigenSolution(np.array([0.0, 1.0]))

    @pytest.mark.parametrize("k", [1, 3])
    def test_truncated_eigenvectors_rejected(self, toy_hamiltonian, k):
        """Every solution is a complete basis: k < n columns do not make one."""
        full = eig(toy_hamiltonian)
        with pytest.raises(ValueError, match=r"not square with the 4 eigenvalues"):
            EigenSolution(full.eigenvalues, full.eigenvectors[:, :k])
        with pytest.raises(ValueError, match=r"not square with the 2 eigenvalues"):
            EigenSolution(full.eigenvalues[:2], full.eigenvectors[:, :2])


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

    def test_csv_shape_and_determinism(self, data_dir, tmp_path):
        """The driver's spectrum table: a header, then one row per point."""
        texts = []
        for name in ("a.csv", "b.csv"):
            run(RunConfig(source=str(data_dir / "toy_two_qubit.txt"), method="spectrum",
                          k=2, n_points=4, output=str(tmp_path / name)))
            texts.append((tmp_path / name).read_text())
        lines = texts[0].strip().split("\n")
        assert lines[0] == "s,E0_hartree,E1_hartree"
        assert len(lines) == 5
        assert texts[0] == texts[1]


def clique_path(data_dir, name: str, alpha: float) -> PathHamiltonian:
    h, _ = load_qubit_hamiltonian(str(data_dir / name))
    mc = mc_hamiltonian(h, greedy_max_clique(build_graph(h)))
    return PathHamiltonian(mc, h, alpha=alpha)


@pytest.fixture(scope="module")
def chain_paths():
    """Clique paths of generated H4 chains: a palindromic one (fixed by the
    spin swap and the chain mirror) and one fixed by the spin swap only."""
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


def point_eigh_shapes(p, s: float) -> list[tuple[int, ...]]:
    """The shapes of the eigh calls that solve a sectored point s of p in all
    its sectors: one per sector, or at a point without the X driver those of
    each sector's split solve (oracles.split_eigh_shapes)."""
    blocks = [p.matrix(s, sector) for sector in p.sectors]
    if p.weights(s)[2] != 0.0:
        return [block.shape for block in blocks]
    return [shape for block in blocks for shape in split_eigh_shapes(block)]


class TestSectorSolve:
    H5 = "h5_chain_sto3g_1.00.fcidump"

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_h5_path_points(self, data_dir, eigh_shapes, alpha):
        p = clique_path(data_dir, self.H5, alpha)
        assert len(p.symmetries) == 2 and is_all_z(p.h_initial)
        grid = s_grid(4)
        shapes = [shape for s in grid[1:] for shape in point_eigh_shapes(p, s)]
        # a stacked call per component size where the X driver vanishes
        assert (shapes.count((256, 256)), shapes.count((288, 288))) == (
            (0, 0) if alpha == 0.0 else (3, 3))
        solutions = list(path_eigensolutions(p, grid))
        # s = 0 is sorted; every other point is solved in four sectors
        assert sorted(eigh_shapes) == sorted(shapes)
        for s, solution in zip(grid, solutions):
            check_against_full_eigh(p.matrix(s), solution)

    @pytest.mark.parametrize("name, dimensions", [
        ("palindromic", [76, 60, 60, 60]), ("asymmetric", [136, 120]),
    ])
    def test_generated_chains(self, chain_paths, eigh_shapes, name, dimensions):
        p = chain_paths[name]
        assert [sector.dimension for sector in p.sectors] == dimensions
        for s in (0.25, 0.5, 1.0):
            shapes = point_eigh_shapes(p, s)
            assert (shapes == [(d, d) for d in dimensions]) == (s < 1.0)
            eigh_shapes.clear()
            solution = next(path_eigensolutions(p, [s]))
            assert sorted(eigh_shapes) == sorted(shapes)
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
            check_against_full_eigh(h, spectral._send_sectors(p, s, None)())

    def test_sector_bases(self, data_dir):
        """Each U is orthonormal with entries +-1/sqrt(orbit size), the
        sectors split the space, and sum_chi U_chi (U^T H U) U^T = H."""
        p = clique_path(data_dir, self.H5, 0.5)
        bases = [sector_basis(sector, 1 << p.n_qubits) for sector in p.sectors]
        for u in bases:
            assert np.abs(u.T @ u - np.eye(u.shape[1])).max() <= 1e-15
            assert set(np.round(np.abs(u[u != 0]) ** -2, 12)) <= {1.0, 2.0, 4.0}
        stacked = np.hstack(bases)
        reference = [basis.toarray() for basis, _ in sandwich_sectors(p)]
        assert np.array_equal(stacked, np.hstack(reference))
        assert np.abs(stacked.T @ stacked - np.eye(1 << p.n_qubits)).max() <= 1e-15
        h = p.matrix(0.5)
        rebuilt = sum(u @ p.matrix(0.5, sector) @ u.T
                      for sector, u in zip(p.sectors, bases))
        assert np.abs(rebuilt - h).max() <= 1e-13

    def test_dimension_threshold(self, eigh_shapes):
        """Eight qubits (dim 256) take the sectors, six (dim 64) one eigh."""
        for n, shapes in [(6, [(64, 64)]), (8, [(76, 76), (60, 60), (60, 60), (60, 60)])]:
            eigh_shapes.clear()
            h = symmetric_sum(n, 3, False)
            next(path_eigensolutions(PathHamiltonian(h, h), [0.5]))
            assert sorted(eigh_shapes) == sorted(shapes)

    def test_exact_ties_merge_stably(self):
        """At equal eigenvalues the columns of earlier sectors come first.
        sum_q Z_q is fixed by every qubit permutation, and its integer
        levels tie across all four sectors."""
        n = 8
        h = PauliHamiltonian(n, [PauliTerm(n, 0, 1 << q, 1.0) for q in range(n)])
        p = PathHamiltonian(h, h)
        solution = spectral._send_sectors(p, 0.5, None)()
        check_against_full_eigh(p.matrix(0.5), solution)
        assert np.array_equal(solution.eigenvalues, np.sort(np.diag(p.matrix(0.5))))
        weights = np.array([np.linalg.norm(sector_basis(sector, 1 << n).T
                                           @ solution.eigenvectors, axis=0)
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
        ours = zeno_statistics(zeno_grid(p, n_steps, [0, 1]), 100, 11)
        theirs = zeno_statistics(complete_grid(reference, [0, 1]), 100, 11)
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
    """Sectored points keep one eigenvector block per sector, each applied
    through its own sector; the dense eigenvectors are formed only when
    read."""

    @pytest.mark.parametrize("name", ["h5", "real", "odd_y"])
    def test_eigenvectors_equal_dense_scatter(self, data_dir, name):
        """At s = 1 each sector is split (oracles.split_eigh), which on the
        random paths leaves one component, one eigh."""
        p = sectored_path(data_dir, name)
        for s, solve in ((0.5, None), (1.0, split_eigh)):
            solution = next(path_eigensolutions(p, [s]))
            assert solved_sectors(solution, p) == [0, 1, 2, 3]
            assert [w.shape for _, _, w in solution.blocks] == [
                (sector.dimension,) * 2 for sector in p.sectors]
            assert "eigenvectors" not in vars(solution)
            values, vectors = scattered_sector_eigh(p, s, solve)
            assert np.array_equal(solution.eigenvalues, values)
            assert solution.eigenvectors.dtype == vectors.dtype
            assert solution.eigenvectors.flags.f_contiguous
            assert np.array_equal(solution.eigenvectors, vectors)

    @pytest.mark.parametrize("name, s", [("dense", 0.5), ("h5", 0.0), ("h5", 0.5),
                                         ("odd_y", 0.5)])
    def test_vectors_are_eigenvector_columns(self, data_dir, name, s):
        """vectors(ranks) of a dense, a sorted-diagonal and a sectored point
        equals the columns of eigenvectors bit for bit, in any rank order."""
        solution = rank_order_solution(data_dir, name, s)
        ranks = np.random.default_rng(3).permutation(len(solution.eigenvalues))[:40]
        ranks = [*ranks, ranks[0], 0, len(solution.eigenvalues) - 1]
        held = set(vars(solution))  # a dense solution holds its given eigenvectors
        vectors = solution.vectors(ranks)
        assert set(vars(solution)) == held
        assert vectors.dtype == solution.eigenvectors.dtype
        assert np.array_equal(vectors, solution.eigenvectors[:, ranks])

    def test_diagonal_point_forms_permutation_on_read(self, data_dir):
        p = sectored_path(data_dir, "h5")
        solution = next(path_eigensolutions(p, [0.0]))
        assert solved_sectors(solution, p) == [None]
        assert [w for _, _, w in solution.blocks] == [None]  # W = I: a gather by rank
        assert "eigenvectors" not in vars(solution)
        order = np.argsort(diagonal_entries(p.h_initial), kind="stable")
        assert np.array_equal(solution.eigenvectors, np.eye(len(order))[:, order])

    def test_given_eigenvectors_are_kept(self):
        values, vectors = np.linalg.eigh(np.diag([2.0, 1.0]) + 0.5)
        solution = EigenSolution(values, vectors)
        assert [rows for rows, _, _ in solution.blocks] == [slice(None)]
        assert solution.eigenvectors is vectors


class TestStateLength:
    """apply, and so weights, vectors and every caller, takes a state of
    dimension rows on the adjoint and one row per level on the forward map:
    a longer state would be truncated by a gather, and a one-row one would
    broadcast."""

    @pytest.fixture(scope="class")
    def h5_points(self, data_dir):
        """H5's sorted-diagonal H(0), sectored H(1), and the interior point of
        the zeno_grid of rank 0 at two steps, which solves 544 levels."""
        p = sectored_path(data_dir, "h5")
        h0, h1 = path_eigensolutions(p, [0.0, 1.0])
        return {"h0": h0, "h1": h1, "interior": zeno_grid(p, 2, [0]).solutions[1]}

    @pytest.mark.parametrize("point, rows", [("h0", 1025), ("h1", 2048), ("interior", 2048)])
    def test_adjoint_needs_dimension_rows(self, h5_points, point, rows):
        solution = h5_points[point]
        psi = np.zeros(rows)
        psi[0] = 1.0
        message = f"^state dimension {rows} does not match basis 1024$"
        with pytest.raises(ValueError, match=message):
            solution.weights(psi)
        with pytest.raises(ValueError, match=message):
            solution.apply(psi[:, None], adjoint=True)
        assert solution.weights(psi[:1024]).sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("point, rows, levels", [("h0", 1, 1024), ("interior", 1024, 544)])
    def test_forward_needs_one_row_per_level(self, h5_points, point, rows, levels):
        solution = h5_points[point]
        assert len(solution.eigenvalues) == levels and solution.dimension == 1024
        message = f"^state dimension {rows} does not match basis {levels}$"
        with pytest.raises(ValueError, match=message):
            solution.apply(np.ones(rows))
        with pytest.raises(ValueError, match=message):
            solution.apply(np.ones((rows, 2)))
        assert solution.apply(np.eye(levels)[:, :2]).shape == (1024, 2)


def rank_order_solution(data_dir, name: str, s: float) -> EigenSolution:
    """A dense solution of the random 8-qubit path's H(s) ("dense"), else
    path_eigensolutions' solution of sectored_path(name) at s."""
    if name == "dense":
        return EigenSolution(*np.linalg.eigh(sectored_path(data_dir, "real").matrix(s)))
    return next(path_eigensolutions(sectored_path(data_dir, name), [s]))


class TestReachedSectorSolve:
    """With a start, points with 0 < s < 1 solve only the sectors where a
    start state has a nonzero amplitude: a complete basis of those sectors."""

    @staticmethod
    def sector_state(p, c: int, seed: int) -> np.ndarray:
        """A random unit state inside sector c."""
        u = sector_basis(p.sectors[c], 1 << p.n_qubits)
        psi = u @ np.random.default_rng(seed).normal(size=u.shape[1])
        return psi / np.linalg.norm(psi)

    @pytest.mark.parametrize("name", ["h5", "odd_y"])
    def test_residue_in_every_sector_solves_every_sector(self, data_dir, eigh_shapes, name):
        p = sectored_path(data_dir, name)
        dim = 1 << p.n_qubits
        residue = 1e-17 * np.random.default_rng(2).normal(size=(dim, 1))
        start = self.sector_state(p, 0, 1)[:, None] + residue
        assert 0.0 < sector_weights(p, start)[1:].max() < 1e-30
        whole = next(path_eigensolutions(p, [0.5]))
        eigh_shapes.clear()
        solution = next(path_eigensolutions(p, [0.5], start=start))
        assert sorted(eigh_shapes) == sorted((sector.dimension,) * 2 for sector in p.sectors)
        assert np.array_equal(solution.eigenvalues, whole.eigenvalues)
        assert np.array_equal(solution.eigenvectors, whole.eigenvectors)

    @pytest.mark.parametrize("name", ["h5", "odd_y"])
    def test_start_in_two_sectors(self, data_dir, eigh_shapes, name):
        """Sectors 1 and 3 are solved at s = 0.5 alone; s = 0 and s = 1 are
        solved whole.  The solution is a complete basis of those sectors.
        A calling-thread eigh of H(0) may start between the pool's solves of
        s = 0.5, so the run's shapes are compared as a multiset."""
        p = sectored_path(data_dir, name)
        dim = 1 << p.n_qubits
        start = np.column_stack([self.sector_state(p, c, c) for c in (1, 3)])
        assert np.abs(sector_weights(p, start) - [[0, 0], [1, 0], [0, 0], [0, 1]]).max() <= 1e-15
        dimensions = [sector.dimension for sector in p.sectors]
        h0_shapes = [] if p.is_diagonal(0.0) else [(dim, dim)]
        shapes = h0_shapes + [(dimensions[c],) * 2 for c in (1, 3)] + point_eigh_shapes(p, 1.0)
        eigh_shapes.clear()
        h0, solution, h1 = path_eigensolutions(p, [0.0, 0.5, 1.0], start=start)
        assert sorted(eigh_shapes) == sorted(shapes)
        assert len(h0.eigenvalues) == len(h1.eigenvalues) == dim
        blocks = [np.linalg.eigh(p.matrix(0.5, p.sectors[c]))[0] for c in (1, 3)]
        assert np.array_equal(solution.eigenvalues, np.sort(np.concatenate(blocks)))
        assert solved_sectors(solution, p) == [1, 3]
        assert solution.dimension == dim and "eigenvectors" not in vars(solution)
        vectors = solution.eigenvectors
        assert vectors.shape == (dim, dimensions[1] + dimensions[3])
        assert np.abs(vectors.conj().T @ vectors - np.eye(vectors.shape[1])).max() <= 1e-12
        h = p.matrix(0.5)
        assert np.abs(h @ vectors - vectors * solution.eigenvalues).max() <= 1e-10
        unsolved = np.hstack([sector_basis(p.sectors[c], dim) for c in (0, 2)])
        assert np.abs(unsolved.T @ vectors).max() <= 1e-15  # never embedded
        amplitudes = solution.apply(start, adjoint=True)
        assert np.abs(solution.apply(amplitudes) - start).max() <= 1e-12
        assert len(solution.level_ends) and solution.level_ends[-1] == vectors.shape[1]

    def test_sector_weights_are_sector_projections(self, data_dir):
        p = sectored_path(data_dir, "h5")
        psi = np.random.default_rng(2).normal(size=(1 << p.n_qubits, 3))
        psi /= np.linalg.norm(psi, axis=0)
        want = [np.linalg.norm(sector_basis(sector, len(psi)).T @ psi, axis=0) ** 2
                for sector in p.sectors]
        got = sector_weights(p, psi)
        assert np.abs(got - want).max() <= 1e-14
        assert np.abs(got.sum(axis=0) - 1.0).max() <= 1e-14
        assert np.abs(sector_weights(p, psi[:, 0]) - got[:, 0]).max() <= 1e-15

    def test_paths_without_sectors(self, data_dir, eigh_shapes):
        p = clique_path(data_dir, "h2_2.8_jw.txt", 0.5)
        start = np.eye(16)[:, :2]
        assert sector_weights(p, start).shape == (0, 2)
        solution = next(path_eigensolutions(p, [0.5], start=start))
        assert eigh_shapes == [(16, 16)] and len(solution.eigenvalues) == 16
        assert "sectors" not in vars(p)

    @pytest.mark.parametrize("rows", [1000, 2048])
    def test_states_of_wrong_length_raise(self, data_dir, rows):
        """A longer state would be truncated by the sectors' gathers, and a
        shorter one would index past its end."""
        p = sectored_path(data_dir, "h5")
        psi = np.zeros((rows, 1))
        psi[0] = 1.0
        message = f"states of {rows} rows do not match the 1024 of a 10-qubit path"
        with pytest.raises(ValueError, match=message):
            sector_weights(p, psi)
        with pytest.raises(ValueError, match=message):
            sector_weights(p, psi[:, 0])
        with pytest.raises(ValueError, match=message):
            path_eigensolutions(p, [0.5], start=psi)

    def test_unsectored_states_of_wrong_length_raise(self, data_dir):
        p = clique_path(data_dir, "h2_2.8_jw.txt", 0.5)
        with pytest.raises(ValueError, match="states of 8 rows do not match the 16"):
            sector_weights(p, np.eye(8)[:, 0])
        with pytest.raises(ValueError, match="states of 8 rows do not match the 16"):
            path_eigensolutions(p, [0.5], start=np.eye(8)[:, :1])

    def test_start_reaching_no_sector_raises(self, data_dir):
        p = sectored_path(data_dir, "h5")
        start = np.zeros((1 << p.n_qubits, 2))
        with pytest.raises(ValueError, match="no amplitude in any symmetry sector"):
            path_eigensolutions(p, [0.5], start=start)
        start[992, 1] = 1.0  # one state that reaches sectors 0 and 2 is enough
        solution = next(path_eigensolutions(p, [0.5], start=start))
        assert solved_sectors(solution, p) == [0, 2]


RANK_ORDER_POINTS = [("dense", 0.5), ("h5", 0.0), ("h5", 0.5), ("odd_y", 0.5)]
"""A dense, a sorted-diagonal and two sectored points."""


class TestRankOrder:
    """apply and weights map standard-basis states to amplitudes in rank
    order and back, whatever the form in which a solution holds its
    eigenvectors."""

    @pytest.mark.parametrize("name, s", RANK_ORDER_POINTS)
    def test_apply_is_eigenvector_product(self, data_dir, name, s):
        """apply(a) is V a and apply(x, adjoint=True) is V^H x for
        standard-basis x, V being the dense eigenvectors."""
        solution = rank_order_solution(data_dir, name, s)
        rng = np.random.default_rng(4)
        a, x = (rng.normal(size=(len(solution.eigenvalues), 3))
                + 1j * rng.normal(size=(len(solution.eigenvalues), 3)) for _ in range(2))
        vectors = solution.eigenvectors
        assert np.abs(solution.apply(a) - vectors @ a).max() <= 1e-12
        assert np.abs(solution.apply(x, adjoint=True) - vectors.conj().T @ x).max() <= 1e-12

    @pytest.mark.parametrize("name, s", RANK_ORDER_POINTS)
    def test_apply_inverts_its_adjoint(self, data_dir, name, s):
        solution = rank_order_solution(data_dir, name, s)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(len(solution.eigenvalues), 3)) + 1j * rng.normal(
            size=(len(solution.eigenvalues), 3))
        back = solution.apply(solution.apply(x, adjoint=True))
        assert np.abs(back - x).max() <= 1e-12

    @pytest.mark.parametrize("name, s", RANK_ORDER_POINTS)
    def test_weights_are_born_weights_by_rank(self, data_dir, name, s):
        solution = rank_order_solution(data_dir, name, s)
        rng = np.random.default_rng(6)
        psi = rng.normal(size=len(solution.eigenvalues)) + 1j * rng.normal(
            size=len(solution.eigenvalues))
        psi /= np.linalg.norm(psi)
        weights = solution.weights(psi)
        want = np.abs(solution.eigenvectors.conj().T @ psi) ** 2
        assert np.abs(weights - want).max() <= 1e-12
        # rank r carries eigenvalue r: the weights give <psi|H|psi>
        h = sectored_path(data_dir, "real" if name == "dense" else name).matrix(s)
        assert abs(weights @ solution.eigenvalues - np.vdot(psi, h @ psi).real) <= 1e-10

    @pytest.mark.parametrize("name, s", RANK_ORDER_POINTS)
    def test_adjoint_reads_amplitudes_by_rank(self, data_dir, name, s):
        """The adjoint maps the eigenvector of rank r to e_r."""
        solution = rank_order_solution(data_dir, name, s)
        ranks = [0, 7, len(solution.eigenvalues) - 1]
        amplitudes = solution.apply(solution.vectors(ranks), adjoint=True)
        want = np.zeros_like(amplitudes)
        want[ranks, range(len(ranks))] = 1.0
        assert np.abs(amplitudes - want).max() <= 1e-12


class TestOverlap:
    """overlap(previous, ranks) is V^H V'[:, ranks], the amplitudes that the
    Zeno sampler carries from one grid point to the next, for every pair of
    points it meets."""

    H5 = "h5_chain_sto3g_1.00.fcidump"
    TOL = 1e-13

    @staticmethod
    def check(solution: EigenSolution, previous: EigenSolution, ranks) -> np.ndarray:
        got = solution.overlap(previous, ranks)
        want = solution.apply(previous.vectors(ranks), adjoint=True)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.abs(got - want).max() <= TestOverlap.TOL
        return got

    @staticmethod
    def some_ranks(solution: EigenSolution) -> list[int]:
        n = len(solution.eigenvalues)
        return [0, 1, 5, n // 2, n - 2, n - 1, 3]

    @pytest.fixture(scope="class")
    def h5(self, data_dir):
        return clique_path(data_dir, self.H5, 0.5)

    @pytest.mark.parametrize("starts, reached", [((0,), [0, 2]), ((0, 1, 2, 3), [0, 1, 2, 3])])
    def test_h5_zeno_grid(self, h5, monkeypatch, starts, reached):
        """Sorted-diagonal H(0) against the first point, interior points
        restricted to the reached sectors against the next, and the last
        interior point against the whole s = 1 point.  Sectored pairs make
        no standard-basis vector."""
        grid = zeno_grid(h5, 4, list(starts)).solutions
        assert [solved_sectors(es, h5) for es in grid] == (
            [[None]] + [reached] * 3 + [[0, 1, 2, 3]])
        self.check(grid[1], grid[0], list(starts))
        self.check(grid[1], grid[0], self.some_ranks(grid[0]))
        for previous, solution in zip(grid[1:], grid[2:]):
            self.check(solution, previous, self.some_ranks(previous))
            monkeypatch.setattr(EigenSolution, "vectors", lambda *a: pytest.fail("vectors"))
            solution.overlap(previous, self.some_ranks(previous))
            monkeypatch.undo()

    def test_complex_sectored_points(self, data_dir):
        """A random 8-qubit path with odd-Y terms: H(0) by one full eigh
        beside the first sectored point, then complex sector blocks."""
        p = sectored_path(data_dir, "odd_y")
        solutions = list(path_eigensolutions(p, s_grid(3)))
        assert [solved_sectors(es, p) for es in solutions] == [[None]] + [[0, 1, 2, 3]] * 3
        for previous, solution in zip(solutions, solutions[1:]):
            got = self.check(solution, previous, self.some_ranks(previous))
            assert np.iscomplexobj(got)

    def test_rank_of_an_unsolved_sector_gives_a_zero_column(self, h5):
        """An interior point solved for rank 0 holds sectors 0 and 2 only;
        the ranks of a whole point that lie in sectors 1 and 3 have no
        amplitude there."""
        whole = next(path_eigensolutions(h5, [0.5]))
        restricted = zeno_grid(h5, 4, [0]).solutions[3]
        block, _ = whole._rank_columns
        outside = [b for b, (sector, _, _) in enumerate(whole.blocks)
                   if not any(sector is rows for rows, _, _ in restricted.blocks)]
        assert len(outside) == 2
        ranks = self.some_ranks(whole)
        got = self.check(restricted, whole, ranks)
        missing = np.isin(block[ranks], outside)
        assert missing.any() and not missing.all()
        assert not got[:, missing].any()
        assert np.abs(np.linalg.norm(got[:, ~missing], axis=0) - 1).max() <= 1e-12

    def test_run_through_an_unsolved_sector_is_not_normalized(self, h5):
        """A trial carried as a rank into a point that did not solve its
        sector meets the normalization check; its weight is not dropped.
        Half of rank 2's weight lies outside rank 0's two sectors."""
        grid = zeno_grid(h5, 3, [0]).solutions
        whole = next(path_eigensolutions(h5, [s_grid(3)[1]]))
        solutions = [grid[0], whole, grid[2], grid[3]]
        trials = 40
        args = (solutions, [2], np.zeros(trials, np.intp), 1, range(trials))
        with pytest.raises(ValueError, match=r"state is not normalized \(total weight 0\.0\)"):
            qzp._final_ranks(*args)

    @pytest.mark.parametrize("name", ["h2_2.8", "odd_y"])
    def test_dense_points(self, data_dir, monkeypatch, name):
        """Consecutive dense points, H(0) included (not diagonal on either
        path), pair as one product; the odd-Y path is complex."""
        from test_path import odd_y_path  # test_path imports this module

        p = clique_path(data_dir, "h2_2.8_jw.txt", 0.5) if name == "h2_2.8" else odd_y_path()
        solutions = list(path_eigensolutions(p, s_grid(5)))
        assert all(len(es.blocks) == 1 and es.blocks[0][2] is not None for es in solutions)
        for previous, solution in zip(solutions, solutions[1:]):
            n = len(previous.eigenvalues)
            got = self.check(solution, previous, [n - 1, 0, 1, n - 1])
            assert np.iscomplexobj(got) == (name == "odd_y")
            monkeypatch.setattr(EigenSolution, "vectors", lambda *a: pytest.fail("vectors"))
            solution.overlap(previous, [0, 1])
            monkeypatch.undo()

    def test_dense_beside_sectored(self, h5):
        """A dense point beside a sectored one goes through apply, either way."""
        sectored = next(path_eigensolutions(h5, [0.5]))
        dense = EigenSolution(sectored.eigenvalues, sectored.eigenvectors)
        ranks = self.some_ranks(sectored)
        self.check(dense, sectored, ranks)
        got = self.check(sectored, dense, ranks)
        units = np.zeros_like(got)
        units[ranks, range(len(ranks))] = 1.0
        assert np.abs(got - units).max() <= 1e-12


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


def point_blocks(p, s: float) -> list[np.ndarray]:
    """The blocks that solve point s of p: one per sector of
    symmetry_sectors(p), else the whole matrix."""
    return [p.matrix(s, sector) for sector in symmetry_sectors(p)] or [p.matrix(s)]


def check_split(block: np.ndarray) -> int:
    """_split_eigh of a Hermitian block against one full eigvalsh, for
    orthonormal W and a small residue ||BW - W Lambda||_F, and bit for bit
    against oracles.split_eigh; returns the block's component count."""
    values, vectors = spectral._split_eigh(block)
    assert np.abs(values - np.linalg.eigvalsh(block)).max() <= 1e-13
    assert np.abs(vectors.conj().T @ vectors - np.eye(len(block))).max() <= 1e-12
    assert np.linalg.norm(block @ vectors - vectors * values) <= 1e-12
    want_values, want_vectors = split_eigh(block)
    assert np.array_equal(values, want_values) and np.array_equal(vectors, want_vectors)
    return len(split_components(block))


def number_labels(states: np.ndarray, n: int, mapping: str) -> tuple[np.ndarray, np.ndarray]:
    """(N_up, N_down) of each basis state: under Jordan-Wigner bits 0..M-1
    count N_up and bits M..2M-1 N_down; parity's occupations decode as
    b ^ (b << 1), masked to n bits."""
    occupations = states if mapping == "jw" else (states ^ states << 1) & ((1 << n) - 1)
    m = n // 2
    up = sum(occupations >> q & 1 for q in range(m))
    return up, sum(occupations >> q & 1 for q in range(m, n))


class TestSplitSolve:
    """A point without the X driver (0 < s, alpha s (1 - s) = 0) on a path
    of SECTOR_DIMENSION rows or more is solved in the components of each
    block's entries above d * eps * max|B_ij|: one stacked eigh per
    component size (spectral._split_eigh)."""

    def test_zero_x_points_of_bundled_fixtures(self, data_dir):
        """Every point with s > 0 of each fixture's clique path at alpha 0,
        in its sectors or whole.  The molecular ones split into components."""
        for source in sorted(data_dir.iterdir()):
            h, _ = load_qubit_hamiltonian(str(source))
            p = PathHamiltonian(mc_hamiltonian(h, greedy_max_clique(build_graph(h))), h)
            counts = [check_split(block) for s in s_grid(4)[1:] for block in point_blocks(p, s)]
            assert min(counts) > 1 or not source.name.startswith(("h2", "h5")), source.name

    @pytest.mark.parametrize("n, odd_y", [
        pytest.param(n, odd_y, id=f"{n}-{'odd_y' if odd_y else 'real'}")
        for n in (4, 6, 8, 10, 12) for odd_y in (False, True) if n < 12 or not odd_y
    ])
    def test_random_symmetric_paths(self, n, odd_y):
        """s = 1 of random paths fixed by the spin swap and the chain mirror,
        of 3 random terms and their images each.  The odd-Y ones of 8 or more
        qubits and the real 12-qubit one split into three components per
        sector; the others are one component, one eigh.  (The 12-qubit odd-Y
        path, of four complex sectors of 1008-1072 rows, takes ~5 s.)"""
        p = PathHamiltonian(symmetric_sum(n, 1, odd_y, 3), symmetric_sum(n, 2, odd_y, 3),
                            alpha=0.5)
        counts = [check_split(block) for block in point_blocks(p, 1.0)]
        assert set(counts) == {3 if n == 12 or odd_y and n >= 8 else 1}

    def test_parity_h5(self, data_dir, eigh_shapes):
        """Parity-mapped H5 has no qubit-permutation symmetry, so its s = 1
        is split on the whole 1024-row space, and its s = 0.5 at alpha 0.5
        is one eigh."""
        h, _ = load_qubit_hamiltonian(str(data_dir / TestSectorSolve.H5), "parity")
        p = PathHamiltonian(mc_hamiltonian(h, greedy_max_clique(build_graph(h))), h, alpha=0.5)
        assert not p.symmetries
        h1 = p.matrix(1.0)
        shapes = split_eigh_shapes(h1)
        eigh_shapes.clear()
        _, solution = path_eigensolutions(p, [0.5, 1.0])
        assert eigh_shapes == [(1024, 1024)] + shapes and len(shapes) > 1
        assert [rows for rows, _, _ in solution.blocks] == [slice(None)]
        check_against_full_eigh(h1, solution)
        assert check_split(h1) > 1

    def test_real_coupling_is_not_split(self, eigh_shapes):
        """Three random blocks of 5, 5 and 7 rows, shuffled: 1e-17 entries
        between them leave three components, the two of 5 rows stacked in
        one eigh; 1e-8 ones join all three into one eigh of the whole."""
        rng = np.random.default_rng(5)
        block = np.zeros((17, 17))
        for rows in (slice(0, 5), slice(5, 10), slice(10, 17)):
            part = rng.normal(size=(rows.stop - rows.start,) * 2)
            block[rows, rows] = part + part.T
        order = rng.permutation(17)
        for entry, components, shapes in ((1e-17, 3, [(2, 5, 5), (1, 7, 7)]),
                                          (1e-8, 1, [(17, 17)])):
            coupled = block.copy()
            coupled[0, 16] = coupled[16, 0] = coupled[4, 9] = coupled[9, 4] = entry
            coupled = coupled[np.ix_(order, order)]
            eigh_shapes.clear()
            spectral._split_eigh(coupled)
            assert sorted(eigh_shapes) == sorted(shapes)
            assert check_split(coupled) == components


class TestNumberResidue:
    """H_p conserves (N_up, N_down), and its entries that join
    different numbers are rounding residues of cancelling Pauli strings,
    which is what lets a point without the X driver split."""

    @pytest.mark.parametrize("mapping", ["jw", "parity"])
    def test_entries_between_numbers_are_residues(self, data_dir, mapping):
        h, _ = load_qubit_hamiltonian(str(data_dir / TestSectorSolve.H5), mapping)
        up, down = number_labels(np.arange(1 << h.n_qubits), h.n_qubits, mapping)
        entries = ham_matrix(h).tocoo()
        between = (up[entries.row] != up[entries.col]) | (down[entries.row] != down[entries.col])
        assert np.abs(entries.data[between]).max() <= 1e-16
        assert np.abs(entries.data[~between]).min() > 1e-16
        assert between.any()

    def test_sector_components_hold_one_number_pair(self, data_dir):
        """Each component of H5's H(1) in each sector holds the states of one
        unordered {N_up, N_down} pair: the sectors mix the spin swap's
        images, so (3, 2) and (2, 3) share an orbit."""
        p = clique_path(data_dir, TestSectorSolve.H5, 0.5)
        up, down = number_labels(np.arange(1 << p.n_qubits), p.n_qubits, "jw")
        pair = np.minimum(up, down) * p.n_qubits + np.maximum(up, down)
        for sector in p.sectors:
            components = split_components(p.matrix(1.0, sector))
            assert len(components) > 1
            for rows in components:
                assert len(np.unique(pair[sector.members[rows]])) == 1


@pytest.fixture
def sector_pool():
    """The pool that solves sectors; skipped where no loaded OpenBLAS can set
    a thread's own thread count, so sectors are solved in the calling thread."""
    pool = spectral._sector_pool()
    if pool is None:
        pytest.skip("no loaded OpenBLAS exports openblas_set_num_threads_local")
    return pool


def _check_child_sector_solve(p, want) -> None:
    """Run in a forked child: a sector solve after the parent's."""
    assert np.array_equal(next(path_eigensolutions(p, [0.5])).eigenvalues, want)


class TestSectorPool:
    """Sectored points are solved on a pool of one-BLAS-thread workers, one
    point ahead, with the same results as in the calling thread."""

    @pytest.mark.parametrize("name, alpha", [
        ("h5", 0.5), ("odd_y", 0.5), ("h5", 0.0), ("odd_y", 0.0),
    ], ids=["h5", "odd_y", "h5-alpha0", "odd_y-alpha0"])
    def test_pool_and_calling_thread_agree(self, data_dir, sector_pool, monkeypatch, name,
                                           alpha):
        """Both solve every point but s = 0, s = 1 and, at alpha 0, every
        interior one by the split solve."""
        p = dataclasses.replace(sectored_path(data_dir, name), alpha=alpha)
        n_steps = 10

        def solve():
            grid = zeno_grid(p, n_steps, [0, 1])
            counts = [d.counts for d in zeno_statistics(grid, 200, 3)]
            whole = list(path_eigensolutions(p, s_grid(4)))
            return counts, [es.eigenvalues for es in [*grid.solutions, *whole]]

        counts, values = solve()
        with monkeypatch.context() as m:
            m.setattr(spectral, "_sector_pool", functools.cache(spectral._sector_pool.__wrapped__))
            m.setattr(spectral, "_openblas_thread_setters", lambda: [])
            their_counts, their_values = solve()
            assert spectral._sector_pool() is None
        assert counts == their_counts
        for ours, theirs in zip(values, their_values, strict=True):
            assert np.abs(ours - theirs).max() <= 1e-13

    def test_blocks_keep_sector_order_when_the_first_is_delayed(
            self, data_dir, sector_pool, monkeypatch):
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("one worker solves the sectors in order")
        p = sectored_path(data_dir, "h5")
        first = p.sectors[0].dimension
        assert first not in [sector.dimension for sector in p.sectors[1:]]
        ended = []
        original = np.linalg.eigh

        def first_delayed(m):
            if len(m) == first:
                time.sleep(0.2)
            result = original(m)
            ended.append(len(m))
            return result

        monkeypatch.setattr(np.linalg, "eigh", first_delayed)
        solution = next(path_eigensolutions(p, [0.5]))
        monkeypatch.setattr(np.linalg, "eigh", original)
        assert ended[-1] == first
        assert solved_sectors(solution, p) == [0, 1, 2, 3]
        for sector, ranks, _ in solution.blocks:
            values = np.linalg.eigh(p.matrix(0.5, sector))[0]
            assert np.abs(solution.eigenvalues[ranks] - values).max() <= 1e-13
        check_against_full_eigh(p.matrix(0.5), solution)

    def test_large_sectors_stay_in_the_calling_thread(self, data_dir, sector_pool, monkeypatch):
        """A point that solves a sector of POOL_DIMENSION rows or more is
        solved in the calling thread; one whose sectors are all smaller, on
        the pool."""
        p = sectored_path(data_dir, "h5")
        assert [sector.dimension for sector in p.sectors] == [288, 240, 256, 240]
        caller, in_caller = threading.current_thread(), []
        original = np.linalg.eigh

        def recording_eigh(m):
            in_caller.append(threading.current_thread() is caller)
            return original(m)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        monkeypatch.setattr(spectral, "POOL_DIMENSION", 256)
        next(path_eigensolutions(p, [0.5]))
        assert in_caller == [True] * 4
        in_caller.clear()
        spectral._send_sectors(p, 0.5, [False, True, False, True])()
        assert in_caller == [False] * 2

    @pytest.mark.parametrize("solve", [
        lambda p: zeno_grid(p, 3, [0]),
        lambda p: list(path_eigensolutions(p, [1.0, 0.0])),
    ], ids=["zeno_grid", "path_eigensolutions"])
    def test_h0_eigh_runs_after_h1_sector_solves(self, data_dir, sector_pool, monkeypatch,
                                                 solve):
        """The ends are solved H(1) first: H(0)'s full eigh, 1024 rows in the
        calling thread, starts after every eigh of H(1)'s four pooled sector
        solves, split by component size, has ended, and runs beside no
        pooled solve."""
        h, _ = load_qubit_hamiltonian(str(data_dir / TestSectorSolve.H5))
        p = PathHamiltonian(h, h, alpha=0.5)
        assert not p.is_diagonal(0.0) and len(p.sectors) == 4
        h1_calls = len(point_eigh_shapes(p, 1.0))  # H(1) = H_p is split
        caller, calls = threading.current_thread(), []
        original = np.linalg.eigh

        def timed_eigh(m):
            begin = time.perf_counter()
            result = original(m)
            calls.append((threading.current_thread() is caller, len(m), begin,
                          time.perf_counter()))
            return result

        monkeypatch.setattr(np.linalg, "eigh", timed_eigh)
        solve(p)
        monkeypatch.setattr(np.linalg, "eigh", original)
        [(begin, end)] = [(b, e) for c, n, b, e in calls if n == 1024 and c]
        pooled = [(b, e) for c, _, b, e in calls if not c]
        assert sum(e < begin for _, e in pooled) == h1_calls > 4
        assert all(e < begin or b > end for b, e in pooled)

    def test_one_point_ahead(self, data_dir, sector_pool, monkeypatch):
        """The first next() sends the first two points, and no later one."""
        p = sectored_path(data_dir, "h5")
        grid = [0.2, 0.4, 0.6, 0.8, 1.0]
        sent, started = [], []
        send, solve = spectral._send_sectors, spectral._solve_sector
        monkeypatch.setattr(spectral, "_send_sectors",
                            lambda p, s, reached: sent.append(s) or send(p, s, reached))
        monkeypatch.setattr(spectral, "_solve_sector",
                            lambda p, sector, s: started.append(s) or solve(p, sector, s))
        points = path_eigensolutions(p, grid)
        assert sent == []
        next(points)
        assert sent == grid[:2]
        assert set(started) <= set(grid[:2])
        rest = list(points)
        assert len(rest) == 4 and sent == grid
        assert Counter(started) == {s: len(p.sectors) for s in grid}

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork start method")
    def test_forked_child_makes_its_own_pool(self, data_dir, sector_pool):
        """A forked child's copy of the pool has no workers; the child drops
        it, so its sector solve must end."""
        p = sectored_path(data_dir, "h5")
        want = next(path_eigensolutions(p, [0.5])).eigenvalues
        child = multiprocessing.get_context("fork").Process(
            target=_check_child_sector_solve, args=(p, want))
        child.start()
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0
