"""Eigensolutions, truncation, and path spectra."""

import numpy as np
import pytest

from mczeno.pauli import PauliHamiltonian, parse_hamiltonian
from mczeno.path import PathHamiltonian
from mczeno.spectral import (
    EigenSolution,
    diagonal_basis_order,
    eig,
    lowest_k,
    path_spectrum,
    spectrum_csv,
)

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
                            lambda h, cap: np.array([[0.0, 1.0], [0.0, 0.0]]))
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


class TestDiagonalBasisOrder:
    def test_demo_mc(self):
        h = parse_hamiltonian("2.0 II\n-4.0 IZ\n5.0 ZI")
        order = diagonal_basis_order(h)
        # diagonal entries: j=0 -> 3, j=1 -> 11, j=2 -> -7, j=3 -> 1
        assert list(order) == [2, 3, 0, 1]

    def test_degenerate_ties_to_lower_index(self):
        h = parse_hamiltonian("1.0 ZZ")
        order = diagonal_basis_order(h)
        # diag = [1, -1, -1, 1]; ties resolved by basis index
        assert list(order) == [1, 2, 0, 3]

    def test_non_diagonal_rejected(self, toy_hamiltonian):
        with pytest.raises(ValueError, match="not diagonal"):
            diagonal_basis_order(toy_hamiltonian)


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
