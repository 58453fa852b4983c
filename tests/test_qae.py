"""Discretized adiabatic evolution."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings, strategies as st

import mczeno
import mczeno.qae
from mczeno.clique import build_graph, greedy_max_clique, mc_hamiltonian
from mczeno.pauli import (
    PauliHamiltonian,
    PauliTerm,
    ham_matrix,
    load_hamiltonian,
    parse_hamiltonian,
)
from mczeno.path import PathHamiltonian
from mczeno.qae import (
    DENSE_STEP_DIMENSION,
    _bessel_j,
    chebyshev_coefficients,
    chebyshev_step,
    energy_expectation,
    evolve,
    ground_space_fidelity,
)
from mczeno.qzp import initial_eigenstate
from mczeno.spectral import EigenSolution, eig, path_eigensolutions, sector_weights
from oracles import eigh_evolve, full_eigh_solutions, full_space_evolve
from test_path import odd_y_path
from test_spectral import sectored_path


@pytest.fixture(scope="module")
def gapped(data_dir):
    h = load_hamiltonian(data_dir / "gapped_four_qubit.txt")
    mc = mc_hamiltonian(h, greedy_max_clique(build_graph(h)))
    return h, mc


class TestEnergyExpectation:
    def test_basis_state_on_minus_z(self):
        h = parse_hamiltonian("-1.0 Z")
        assert energy_expectation(np.eye(1 << 1, dtype=complex)[0], h) == pytest.approx(-1.0)

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
        with pytest.raises(ValueError, match="^state has dimension"):
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
        result = evolve(p, 0.5, np.eye(1 << 1, dtype=complex)[0])
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
            evolve(p, 0.3, np.eye(1 << 2, dtype=complex)[0])

    def test_dimension_mismatch_rejected(self, toy_hamiltonian):
        p = PathHamiltonian(toy_hamiltonian, toy_hamiltonian, total_time=10.0)
        with pytest.raises(ValueError, match="^state has dimension"):
            evolve(p, 0.5, np.eye(1 << 3, dtype=complex)[0])

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


class TestGroundLevel:
    """The ground level is a chain of eigenvalue steps of at most
    DEGENERACY_TOL (EigenSolution.level_ends), as a Zeno projection groups
    levels, even where the chain spans more than DEGENERACY_TOL."""

    VALUES = (0.0, 6e-10, 1.2e-9, 1.0)

    def test_evolve_reads_the_chained_ground_level(self, toy_hamiltonian):
        final = EigenSolution(np.array(self.VALUES), np.eye(4))
        p = PathHamiltonian(toy_hamiltonian, toy_hamiltonian, total_time=10.0)
        result = evolve(p, 0.5, np.full(4, 0.5, dtype=complex), final)
        weights = np.abs(result.final_state) ** 2
        assert weights[3] > 1e-3
        assert result.ground_fidelity == pytest.approx(weights[:3].sum(), abs=1e-15)
        assert final.level_ends.tolist() == [3, 4]

    def test_ground_space_fidelity_reads_the_chained_ground_level(self):
        v = np.array(self.VALUES)  # on |00>, |01>, |10>, |11>
        d, a, b, c = map(float, np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1],
                                          [1, -1, -1, 1]]) @ v / 4)
        h = parse_hamiltonian(f"{d!r} II\n{a!r} ZI\n{b!r} IZ\n{c!r} ZZ")
        assert np.abs(eig(h).eigenvalues - v).max() <= 1e-15
        psi = np.full(4, 0.5, dtype=complex)
        assert ground_space_fidelity(psi, h) == pytest.approx(0.75, abs=1e-12)


class TestGroundSpaceFidelity:
    def test_degenerate_ground_space_counts_fully(self):
        """ZZ has a two-fold ground space; any mix of |01> and |10> is in it."""
        h = parse_hamiltonian("1.0 ZZ")
        psi = (np.eye(1 << 2, dtype=complex)[1] + np.eye(1 << 2, dtype=complex)[2]) / np.sqrt(2)
        assert ground_space_fidelity(psi, h) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_state_scores_zero(self):
        h = parse_hamiltonian("1.0 ZZ")
        assert ground_space_fidelity(np.eye(1 << 2, dtype=complex)[0], h) == pytest.approx(0.0, abs=1e-12)

    def test_unnormalized_rejected(self, data_dir):
        """Twice the ground eigenvector would score 4."""
        h = load_hamiltonian(data_dir / "h2_0.7414_jw.txt")
        ground = eig(h).eigenvectors[:, 0]
        assert ground_space_fidelity(ground, h) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError, match="not normalized"):
            ground_space_fidelity(2.0 * ground, h)

    def test_dimension_mismatch(self, data_dir):
        h = load_hamiltonian(data_dir / "h2_0.7414_jw.txt")
        with pytest.raises(ValueError, match="^state has dimension"):
            ground_space_fidelity(np.ones(8) / np.sqrt(8), h)


def _reference_case(name, data_dir):
    """(path, delta_t, initial state) of one propagator reference case."""
    if name == "odd_y":
        return odd_y_path(), 0.5, np.eye(1 << 2, dtype=complex)[1]
    if name == "proportional_to_identity":
        p = PathHamiltonian(parse_hamiltonian("1.5 II"), parse_hamiltonian("-0.5 II"))
        return p, 0.5, np.full(4, 0.5, dtype=complex)
    if name.startswith(("eight_qubits", "nine_qubits")):
        # no symmetry: the whole space is stepped, dense at 8 qubits, sparse at 9
        n = 8 if name.startswith("eight") else 9
        rng = np.random.default_rng(5)
        terms = [PauliTerm(n, int(x), int(z), float(rng.normal()))
                 for x, z in rng.integers(0, 1 << n, size=(40, 2))]
        if name.endswith("real"):  # even Y counts only
            terms = [t for t in terms if (t.x_mask & t.z_mask).bit_count() % 2 == 0]
        h = PauliHamiltonian(n, terms)
        assert np.iscomplexobj(ham_matrix(h)) != name.endswith("real")
        mc = mc_hamiltonian(h, greedy_max_clique(build_graph(h)))
        p = PathHamiltonian(mc, h, alpha=0.5, total_time=10.0)
        assert not p.symmetries
        assert (1 << p.n_qubits > DENSE_STEP_DIMENSION) == (n == 9)
        return p, 0.5, initial_eigenstate(p, 0)
    fixture, alpha, delta_t = {
        "gapped_alpha0": ("gapped_four_qubit.txt", 0.0, 0.5),
        "h2_2.8_alpha0.5": ("h2_2.8_jw.txt", 0.5, 0.5),
        "one_long_step": ("gapped_four_qubit.txt", 0.5, 10.0),
    }[name]
    h = load_hamiltonian(data_dir / fixture)
    mc = mc_hamiltonian(h, greedy_max_clique(build_graph(h)))
    p = PathHamiltonian(mc, h, alpha=alpha, total_time=10.0)
    return p, delta_t, initial_eigenstate(p, 0)


class TestFinalDistribution:
    """The qae record reads the distribution over final levels exactly, as
    final.weights of the evolved state."""

    @pytest.mark.parametrize("name", ["gapped_alpha0", "h2_2.8_alpha0.5", "odd_y"])
    def test_level_weights_match_full_eigh(self, data_dir, name):
        p, delta_t, psi0 = _reference_case(name, data_dir)
        psi = evolve(p, delta_t, psi0).final_state
        final = next(path_eigensolutions(p, [1.0]))
        reference = full_eigh_solutions(p, [1.0])[0]
        starts = np.append(0, reference.level_ends[:-1])
        assert np.array_equal(final.level_ends, reference.level_ends)
        got = np.add.reduceat(final.weights(psi), starts)
        want = np.add.reduceat(np.abs(reference.eigenvectors.conj().T @ psi) ** 2, starts)
        assert np.abs(got - want).max() <= 1e-12
        assert got.sum() == pytest.approx(1.0, abs=1e-12)

    def test_constant_path_from_ground_weighs_only_the_ground_level(self, toy_hamiltonian):
        p = PathHamiltonian(toy_hamiltonian, toy_hamiltonian, total_time=10.0)
        psi = evolve(p, 0.5, initial_eigenstate(p, 0)).final_state
        weights = next(path_eigensolutions(p, [1.0])).weights(psi)
        assert weights[0] == pytest.approx(1.0, abs=1e-9)
        assert weights[1:].sum() == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_ground_level_keeps_its_whole_weight(self):
        """ZZ has a two-fold ground level; a mix of |01> and |10> stays in it."""
        h = parse_hamiltonian("1.0 ZZ")
        p = PathHamiltonian(h, h, total_time=10.0)
        psi0 = (np.eye(1 << 2, dtype=complex)[1] + np.eye(1 << 2, dtype=complex)[2]) / np.sqrt(2)
        result = evolve(p, 0.5, psi0)
        final = next(path_eigensolutions(p, [1.0]))
        assert final.level_ends[0] == 2
        assert final.weights(result.final_state)[:2].sum() == pytest.approx(1.0, abs=1e-12)
        assert result.ground_fidelity == pytest.approx(1.0, abs=1e-12)
        assert result.final_energy == pytest.approx(-1.0, abs=1e-12)


class TestChebyshevPropagator:
    """evolve() against per-step diagonalization (oracles.eigh_evolve)."""

    @pytest.mark.parametrize("name", [
        "gapped_alpha0", "h2_2.8_alpha0.5", "odd_y", "proportional_to_identity",
        "one_long_step", "eight_qubits_complex", "eight_qubits_real",
        "nine_qubits_complex", "nine_qubits_real",
    ])
    def test_matches_per_step_diagonalization(self, data_dir, name):
        p, delta_t, psi0 = _reference_case(name, data_dir)
        state, energy, fidelity = eigh_evolve(p, delta_t, psi0)
        result = evolve(p, delta_t, psi0)
        assert np.abs(result.final_state - state).max() <= 1e-12
        assert abs(result.final_energy - energy) <= 1e-12
        assert abs(result.ground_fidelity - fidelity) <= 1e-12

    def test_long_step_needs_a_long_series(self, data_dir):
        p, delta_t, _ = _reference_case("one_long_step", data_dir)
        lo, hi = p.spectral_bounds(1.0)
        assert len(chebyshev_coefficients((hi - lo) / 2 * delta_t)) > 50

    def test_given_final_solution_is_used(self, data_dir):
        p, delta_t, psi0 = _reference_case("h2_2.8_alpha0.5", data_dir)
        final = next(path_eigensolutions(p, [1.0]))
        given, solved = evolve(p, delta_t, psi0, final), evolve(p, delta_t, psi0)
        assert np.array_equal(given.final_state, solved.final_state)
        assert given.final_energy == solved.final_energy
        assert given.ground_fidelity == solved.ground_fidelity
        shifted = type(final)(final.eigenvalues + 1.0, final.eigenvectors)
        moved = evolve(p, delta_t, psi0, shifted).final_energy
        assert moved == pytest.approx(evolve(p, delta_t, psi0).final_energy + 1.0)

    @pytest.mark.parametrize("n, x", [(30, 1e-8), (42, 0.5), (72, 10.0), (111, 33.3),
                                      (199, 100.0)])
    def test_bessel_values(self, n, x):
        reference = scipy.special.jv(np.arange(n), x)
        assert np.abs(_bessel_j(n, x) - reference).max() <= 1e-14

    def test_import_leaves_scipy_special_unloaded(self):
        """_bessel_j stands in for scipy.special.jv: importing scipy.special
        alone raised an H2 scan's peak RSS from 58.3 to 64.5 MB.  No scipy
        module at all is loaded by the import, by an H2 scan with exact, qae
        and qzp, by H5 qzp at the benchmark's settings, by spectrum runs on
        H5 and H2, by a clique run on H5, or by H5 qae, whose sectors are
        stepped dense; the sparse calls still work, each loading scipy
        itself, and so does qae on a path without sectors above
        DENSE_STEP_DIMENSION rows.  Neither the import nor the H2 scan, which
        solves no sectored point, loads concurrent.futures: only the pool of
        sector solves imports it (an eager import read +4% setup_s and
        +0.55 MB peak RSS on an H2 scan)."""
        scipy_free = """
from mczeno import driver
def check(stage, unpooled=False):
    loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'
                    or unpooled and m == 'concurrent.futures')
    assert not loaded, (stage, loaded)
check('import', unpooled=True)
points = [(r, driver.RunConfig(source=data + f'/h2_sto3g_{r}.fcidump', method='qzp',
                               alpha=0.5, n_steps=40, trials=1000, seed=7))
          for r in (0.7414, 1.2, 2.8)]
result = driver.scan(points, ('exact', 'qae', 'qzp'))
assert all(row.status == 'ok' for row in result.rows), result
check('h2 scan', unpooled=True)
driver.run(driver.RunConfig(source=data + '/h5_chain_sto3g_1.00.fcidump', method='qzp',
                            alpha=0.5, n_steps=10, trials=200, seed=13))
check('h5 qzp')
driver.run(driver.RunConfig(source=data + '/h5_chain_sto3g_1.00.fcidump', method='spectrum',
                            alpha=0.5, n_points=5, k=3))
check('h5 spectrum')
driver.run(driver.RunConfig(source=data + '/h2_2.8_jw.txt', method='spectrum', alpha=0.5))
check('h2 spectrum')
driver.run(driver.RunConfig(source=data + '/h5_chain_sto3g_1.00.fcidump', method='clique'))
check('h5 clique')
driver.run(driver.RunConfig(source=data + '/h5_chain_sto3g_1.00.fcidump', method='qae',
                            alpha=0.5, total_time=1.0, delta_t=0.5))
check('h5 qae')
"""
        loading = {
            "ham_matrix": "mczeno.ham_matrix(mczeno.load_hamiltonian(data + '/h2_2.8_jw.txt'))",
            "sparse_matrix": "mczeno.PathHamiltonian(mczeno.x_driver(3), mczeno.x_driver(3))"
                             ".sparse_matrix(0.5)",
            "nine-qubit qae": "mczeno.evolve(mczeno.PathHamiltonian(mczeno.x_driver(9), "
                              "mczeno.x_driver(9), total_time=0.5), 0.5, "
                              "np.eye(1 << 9, dtype=complex)[0])",
        }
        checks = [scipy_free] + [f"""
from mczeno import driver
assert 'scipy.sparse' not in sys.modules
{call}
assert 'scipy.sparse' in sys.modules
""" for call in loading.values()]
        src = Path(mczeno.__file__).resolve().parent.parent
        data = Path(mczeno.__file__).resolve().parent / "data"
        for check in checks:
            code = (f"import sys, numpy as np, mczeno, mczeno.cli\ndata = {str(data)!r}\n{check}"
                    "print('scipy.special' in sys.modules)")
            done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                  text=True, env={**os.environ, "PYTHONPATH": str(src)})
            assert done.returncode == 0, done.stderr
            assert done.stdout.strip() == "False"

    def test_zero_argument_series_is_one(self):
        assert np.array_equal(chebyshev_coefficients(0.0), [1.0])

    def test_series_cut_below_double_precision(self):
        coefficients = chebyshev_coefficients(3.0)
        k = np.arange(len(coefficients) + 40)
        full = 2.0 * np.abs(scipy.special.jv(k, 3.0))
        assert full[len(coefficients):].sum() <= np.finfo(float).eps
        assert full[len(coefficients) - 1] > 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        n_qubits=st.integers(1, 4),
        data=st.data(),
        delta_t=st.floats(0.01, 20.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_step_is_matrix_exponential(self, n_qubits, data, delta_t, seed):
        """One step of e^{-i H dt}, with H dense or sparse, against expm."""
        masks = st.integers(0, (1 << n_qubits) - 1)
        terms = data.draw(st.lists(
            st.tuples(masks, masks, st.floats(-3.0, 3.0, allow_subnormal=False)),
            max_size=8,
        ))
        h = PauliHamiltonian(n_qubits, [PauliTerm(n_qubits, x, z, c) for x, z, c in terms])
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
        psi /= np.linalg.norm(psi)
        m = ham_matrix(h)
        expected = scipy.linalg.expm(-1j * m.toarray() * delta_t) @ psi
        bounds = PathHamiltonian(h, h).spectral_bounds(1.0)
        for form in (m, m.toarray()):
            got = chebyshev_step(form, bounds, delta_t, psi)
            assert np.abs(got - expected).max() <= 1e-12
        p = PathHamiltonian(h, h, total_time=delta_t)
        assert np.abs(evolve(p, delta_t, psi).final_state - expected).max() <= 1e-12


class TestSectoredEvolve:
    """evolve steps only the symmetry sectors its start reaches, each as its
    own block, and agrees with stepping the whole space
    (oracles.full_space_evolve) in state, energy and ground fidelity."""

    @pytest.fixture(params=["dense", "sparse"])
    def form(self, request, monkeypatch):
        """Steps sector blocks dense (H5's and the 8-qubit blocks are below
        DENSE_STEP_DIMENSION), or sparse with the threshold at 0 rows."""
        if request.param == "sparse":
            monkeypatch.setattr(mczeno.qae, "DENSE_STEP_DIMENSION", 0)
        return request.param

    @staticmethod
    def stepped_sectors(p, monkeypatch) -> list:
        """The dimension of the block of each step evolve takes on p."""
        blocks = []
        original = mczeno.qae._block_matrix

        def recording(path, sector, s):
            blocks.append(sector.dimension)
            return original(path, sector, s)

        monkeypatch.setattr(mczeno.qae, "_block_matrix", recording)
        return blocks

    @staticmethod
    def assert_matches_full_space(p, delta_t, psi0):
        result = evolve(p, delta_t, psi0)
        state = full_space_evolve(p, delta_t, psi0)
        final = next(path_eigensolutions(p, [1.0]))
        weights = final.weights(state)
        assert np.abs(result.final_state - state).max() <= 1e-12
        assert abs(result.final_energy - final.eigenvalues @ weights) <= 1e-12
        assert abs(result.ground_fidelity - weights[:final.level_ends[0]].sum()) <= 1e-12
        return result

    def test_h5_rank_0_steps_its_two_sectors(self, data_dir, form, monkeypatch):
        p = sectored_path(data_dir, "h5")
        psi0 = initial_eigenstate(p, 0)
        assert np.flatnonzero(sector_weights(p, psi0)).tolist() == [0, 2]
        blocks = self.stepped_sectors(p, monkeypatch)
        result = self.assert_matches_full_space(p, 0.5, psi0)
        assert blocks == [288, 256] * result.step_count

    def test_random_start_reaches_every_sector(self, data_dir, form):
        h5 = sectored_path(data_dir, "h5")
        p = PathHamiltonian(h5.h_initial, h5.h_final, alpha=0.5, total_time=2.0)
        rng = np.random.default_rng(3)
        psi0 = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        psi0 /= np.linalg.norm(psi0)
        assert np.all(sector_weights(p, psi0) > 0.1)
        self.assert_matches_full_space(p, 0.5, psi0)

    def test_complex_sectored_path(self, data_dir, form):
        p = sectored_path(data_dir, "odd_y")
        p = PathHamiltonian(p.h_initial, p.h_final, alpha=0.5, total_time=4.0)
        assert all(np.iscomplexobj(p.matrix(0.5, sector)) for sector in p.sectors)
        rng = np.random.default_rng(4)
        psi0 = initial_eigenstate(p, 0) + initial_eigenstate(p, 5)
        psi0 = psi0 * np.exp(1j * rng.uniform(0, 2 * np.pi)) / np.linalg.norm(psi0)
        self.assert_matches_full_space(p, 0.5, psi0)

    def test_unreached_sectors_stay_exactly_zero(self, data_dir, form):
        """A start inside one sector keeps exactly zero amplitude in every
        other; the whole-space steps leave rounding there."""
        h5 = sectored_path(data_dir, "h5")
        p = PathHamiltonian(h5.h_initial, h5.h_final, alpha=0.5, total_time=2.0)
        psi0 = np.zeros(1024, dtype=complex)
        rng = np.random.default_rng(5)
        p.sectors[1].embed(rng.standard_normal(p.sectors[1].dimension), psi0)
        psi0 /= np.linalg.norm(psi0)
        final_state = self.assert_matches_full_space(p, 0.5, psi0).final_state
        for c, sector in enumerate(p.sectors):
            assert np.any(sector.project(final_state) != 0) == (c == 1)
        leaked = [sector.project(full_space_evolve(p, 0.5, psi0)) for sector in p.sectors]
        assert any(np.any(z != 0) for c, z in enumerate(leaked) if c != 1)


class TestEigensolveCount:
    def test_evolve_solves_final_hamiltonian_once(self, gapped, monkeypatch):
        h, mc = gapped
        p = PathHamiltonian(mc, h, alpha=0.5, total_time=10.0)
        psi0 = initial_eigenstate(p, 0)
        calls = []
        original = np.linalg.eigh

        def counting_eigh(m):
            calls.append(m.shape)
            return original(m)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        evolve(p, 0.5, psi0)
        assert calls == [(16, 16)]
