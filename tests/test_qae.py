"""Discretized adiabatic evolution."""

import numpy as np
import pytest

from mczeno.clique import build_graph, greedy_max_clique, mc_hamiltonian
from mczeno.pauli import load_hamiltonian, parse_hamiltonian
from mczeno.path import PathHamiltonian
from mczeno.qae import basis_state, energy_expectation, evolve, ground_space_fidelity
from mczeno.qzp import initial_eigenstate
from mczeno.spectral import eig


@pytest.fixture(scope="module")
def gapped(data_dir):
    h = load_hamiltonian(data_dir / "gapped_four_qubit.txt")
    mc = mc_hamiltonian(h, greedy_max_clique(build_graph(h)))
    return h, mc


class TestEnergyExpectation:
    def test_basis_state_on_minus_z(self):
        h = parse_hamiltonian("-1.0 Z")
        assert energy_expectation(basis_state(1, 0), h) == pytest.approx(-1.0)

    def test_ground_eigenvector_consistency(self, toy_hamiltonian):
        solution = eig(toy_hamiltonian)
        ground = solution.eigenvectors[:, 0].astype(complex)
        value = energy_expectation(ground, toy_hamiltonian)
        assert value == pytest.approx(solution.eigenvalues[0], abs=1e-10)

    def test_uniform_superposition_demo(self, toy_hamiltonian):
        """Only II and IX survive in the uniform state: 2 + 3 = 5."""
        psi = np.full(4, 0.5, dtype=complex)
        assert energy_expectation(psi, toy_hamiltonian) == pytest.approx(5.0, abs=1e-12)

    def test_dimension_mismatch(self, toy_hamiltonian):
        with pytest.raises(ValueError, match="dimension"):
            energy_expectation(np.ones(8, dtype=complex) / np.sqrt(8), toy_hamiltonian)

    def test_unnormalized_rejected(self, toy_hamiltonian):
        with pytest.raises(ValueError, match="not normalized"):
            energy_expectation(np.ones(4, dtype=complex), toy_hamiltonian)


class TestEvolve:
    def test_stationary_state_on_constant_path(self, toy_hamiltonian):
        p = PathHamiltonian(toy_hamiltonian, toy_hamiltonian, total_time=10.0)
        ground = eig(toy_hamiltonian).eigenvectors[:, 0].astype(complex)
        result = evolve(p, 0.5, ground)
        overlap = abs(np.vdot(ground, result.final_state))
        assert overlap == pytest.approx(1.0, abs=1e-9)
        assert result.ground_fidelity == pytest.approx(1.0, abs=1e-9)
        assert result.step_count == 20

    def test_single_qubit_rotation(self):
        """-Z to -X over T=50: fidelity reference 0.99999 (small-step oracle)."""
        p = PathHamiltonian(
            parse_hamiltonian("-1.0 Z"), parse_hamiltonian("-1.0 X"), total_time=50.0
        )
        result = evolve(p, 0.5, basis_state(1, 0))
        assert result.ground_fidelity >= 0.999

    def test_default_parameters_on_gapped_fixture(self, gapped):
        """T=10, dT=0.5 lands within 1e-2 Ha; T=40 is strictly better."""
        h, mc = gapped
        exact = eig(h).eigenvalues[0]
        errors = {}
        for total_time in (10.0, 40.0):
            p = PathHamiltonian(mc, h, alpha=0.0, total_time=total_time)
            result = evolve(p, 0.5, initial_eigenstate(p, 0))
            errors[total_time] = result.final_energy - exact
            assert abs(np.linalg.norm(result.final_state) - 1.0) <= 1e-9
        assert errors[10.0] <= 1e-2
        assert errors[40.0] < errors[10.0]

    def test_fidelity_weakly_increasing_in_t(self, gapped):
        h, mc = gapped
        fidelities = []
        for total_time in (10.0, 40.0, 160.0):
            p = PathHamiltonian(mc, h, alpha=0.0, total_time=total_time)
            fidelities.append(evolve(p, 0.5, initial_eigenstate(p, 0)).ground_fidelity)
        assert fidelities[0] <= fidelities[1] + 1e-6
        assert fidelities[1] <= fidelities[2] + 1e-6

    def test_variational_bound(self, gapped):
        h, mc = gapped
        exact = eig(h).eigenvalues[0]
        p = PathHamiltonian(mc, h, alpha=0.5, total_time=10.0)
        result = evolve(p, 0.5, initial_eigenstate(p, 0))
        assert result.final_energy >= exact - 1e-9

    def test_non_integer_step_count_rejected(self, toy_hamiltonian):
        p = PathHamiltonian(toy_hamiltonian, toy_hamiltonian, total_time=10.0)
        with pytest.raises(ValueError, match="not a positive integer"):
            evolve(p, 0.3, basis_state(2, 0))

    def test_dimension_mismatch_rejected(self, toy_hamiltonian):
        p = PathHamiltonian(toy_hamiltonian, toy_hamiltonian, total_time=10.0)
        with pytest.raises(ValueError, match="dimension"):
            evolve(p, 0.5, basis_state(3, 0))

    def test_unnormalized_initial_state_rejected(self, toy_hamiltonian):
        p = PathHamiltonian(toy_hamiltonian, toy_hamiltonian, total_time=10.0)
        with pytest.raises(ValueError, match="not normalized"):
            evolve(p, 0.5, np.full(4, 0.9, dtype=complex))


class TestFinalObservables:
    """evolve() reads them from its last step; the Pauli-level references agree."""

    @pytest.mark.parametrize("fixture,alpha", [
        ("gapped_four_qubit.txt", 0.0), ("h2_2.8_jw.txt", 0.5),
    ])
    def test_match_references(self, data_dir, fixture, alpha):
        h = load_hamiltonian(data_dir / fixture)
        mc = mc_hamiltonian(h, greedy_max_clique(build_graph(h)))
        p = PathHamiltonian(mc, h, alpha=alpha, total_time=10.0)
        result = evolve(p, 0.5, initial_eigenstate(p, 0))
        psi = result.final_state
        assert abs(result.final_energy - energy_expectation(psi, h)) <= 1e-12
        assert abs(result.ground_fidelity - ground_space_fidelity(psi, h)) <= 1e-12


class TestGroundSpaceFidelity:
    def test_degenerate_ground_space_counts_fully(self):
        """ZZ has a two-fold ground space; any mix of |01> and |10> is in it."""
        h = parse_hamiltonian("1.0 ZZ")
        psi = (basis_state(2, 1) + basis_state(2, 2)) / np.sqrt(2)
        assert ground_space_fidelity(psi, h) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_state_scores_zero(self):
        h = parse_hamiltonian("1.0 ZZ")
        assert ground_space_fidelity(basis_state(2, 0), h) == pytest.approx(0.0, abs=1e-12)
