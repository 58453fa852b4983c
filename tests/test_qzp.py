"""Projection-driven evolution and its sampling statistics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from mczeno.clique import build_graph, greedy_max_clique, mc_hamiltonian
from mczeno.driver import load_qubit_hamiltonian
from mczeno.pauli import is_all_z, load_hamiltonian, parse_hamiltonian
from mczeno.path import PathHamiltonian
from mczeno.qae import evolve
from mczeno.qzp import (
    ZenoDistribution,
    distribution_csv,
    initial_eigenstate,
    lowest_k_energies,
    project,
    qae_then_project,
    step_draws,
    step_rng,
    zeno_run,
    zeno_statistics,
)
from mczeno.path import s_grid
from mczeno.spectral import EigenSolution, eig, path_eigensolutions
from oracles import (
    diagonal_entries,
    full_eigh_solutions,
    philox_draw,
    zeno_project,
    zeno_trajectory,
)
from test_path import odd_y_path
from test_spectral import sectored_path


def fixture_path(data_dir, name, alpha):
    h = load_hamiltonian(data_dir / name)
    mc = mc_hamiltonian(h, greedy_max_clique(build_graph(h)))
    return PathHamiltonian(mc, h, alpha=alpha, total_time=10.0)


def bundled_all_z_paths():
    """The clique path at alpha 0.5 of each bundled fixture whose clique
    is all-Z, FCIDUMP files under both mappings, named by file and mapping."""
    from conftest import DATA_DIR

    out = []
    for path in sorted(DATA_DIR.iterdir()):
        for mapping in ("jw", "parity") if path.suffix == ".fcidump" else ("none",):
            h, _ = load_qubit_hamiltonian(str(path), mapping)
            mc = mc_hamiltonian(h, greedy_max_clique(build_graph(h)))
            if is_all_z(mc):
                out.append(pytest.param(PathHamiltonian(mc, h, alpha=0.5),
                                        id=f"{path.name}:{mapping}"))
    return out


@pytest.fixture(scope="module")
def gapped_path(data_dir):
    return fixture_path(data_dir, "gapped_four_qubit.txt", 0.0)


@pytest.fixture(scope="module")
def single_qubit_path():
    return PathHamiltonian(
        parse_hamiltonian("-1.0 Z"), parse_hamiltonian("-1.0 X"), total_time=10.0
    )


def two_level_chain_probability(n_steps: int) -> float:
    """Exact ground-success probability for the -Z to -X path.

    Independent reference: the trial is a Markov chain whose step matrix
    holds the squared overlaps between consecutive eigenbases.
    """

    def ham(s):
        return np.array([[-(1.0 - s), -s], [-s, 1.0 - s]])

    dist = np.array([1.0, 0.0])
    prev = np.linalg.eigh(ham(0.0))[1]
    for k in range(1, n_steps + 1):
        vecs = np.linalg.eigh(ham(k / n_steps))[1]
        dist = (np.abs(vecs.conj().T @ prev) ** 2) @ dist
        prev = vecs
    return float(dist[0])


class TestStepRng:
    def test_same_key_same_stream(self):
        assert step_rng(3, 7, 2).random() == step_rng(3, 7, 2).random()

    def test_distinct_keys_distinct_streams(self):
        base = step_rng(0, 0, 0).random()
        assert step_rng(1, 0, 0).random() != base
        assert step_rng(0, 1, 0).random() != base
        assert step_rng(0, 0, 1).random() != base


def reference_draws(seed, trials, step):
    return np.array([philox_draw(seed, t, step) for t in trials])


class TestStepDraws:
    """Batched draws equal each (seed, trial, step) Philox stream bit for bit."""

    @pytest.mark.parametrize(
        "seed, trials, step",
        [
            (0, range(3000), 1),
            (0, range(200), 0),
            (2**32 + 5, range(300), 3),
            (2**64 + 1, range(300), 2),
            (2**70 + 1, range(300), 7),
            (11, range(300), 2**33),
            (4, range(2**32 - 150, 2**32 + 150), 5),
            (9, range(2**64 - 100, 2**64 + 100), 1),
            (2**80, [3, 2**40, 0, 2**90, 2**32 - 1, 2**32], 2**64),
        ],
    )
    def test_equals_each_stream(self, seed, trials, step):
        got = step_draws(seed, trials, step)
        assert np.array_equal(got, reference_draws(seed, trials, step))

    def test_integer_array_of_trials(self):
        trials = np.array([[0, 5], [2**33, 7]], dtype=np.uint64)
        expected = reference_draws(13, trials.ravel().tolist(), 4).reshape(2, 2)
        assert np.array_equal(step_draws(13, trials, 4), expected)

    def test_steps_broadcast_against_trials(self):
        trials, steps = [0, 5, 2**32 + 1, 2**70], [0, 3, 2**33]
        expected = np.array([reference_draws(9, trials, s) for s in steps])
        got = step_draws(9, trials, np.array(steps, dtype=np.uint64)[:, None])
        assert np.array_equal(got, expected)

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            step_draws(0, [1.5], 0)

    def test_empty_trials(self):
        assert step_draws(0, range(0), 1).shape == (0,)

    @pytest.mark.parametrize(
        "seed, trials, step",
        [(-1, range(3), 0), (0, [2, -1], 0), (0, range(3), -2), (0, [2**70, -5], 1)],
    )
    def test_negative_input_raises(self, seed, trials, step):
        with pytest.raises(ValueError, match="non-negative"):
            step_draws(seed, trials, step)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**96 - 1),
        st.lists(st.integers(0, 2**96 - 1), min_size=1, max_size=8),
        st.integers(0, 2**96 - 1),
    )
    def test_matches_streams_below_2_96(self, seed, trials, step):
        got = step_draws(seed, trials, step)
        assert np.array_equal(got, reference_draws(seed, trials, step))


class TestProject:
    def test_eigenstate_is_fixed_point(self, toy_hamiltonian):
        sol = eig(toy_hamiltonian)
        ground = sol.eigenvectors[:, 0].astype(complex)
        index, collapsed = project(ground, sol, step_rng(0, 0, 0))
        assert index == 0
        assert abs(np.vdot(ground, collapsed)) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_span_is_preserved(self, toy_hamiltonian):
        """A state inside the two-fold level collapses onto itself."""
        sol = eig(toy_hamiltonian)
        v1 = sol.eigenvectors[:, 1].astype(complex)
        v2 = sol.eigenvectors[:, 2].astype(complex)
        psi = (v1 + 2j * v2) / np.sqrt(5)
        index, collapsed = project(psi, sol, step_rng(0, 0, 0))
        assert index == 1
        assert abs(np.vdot(psi, collapsed)) == pytest.approx(1.0, abs=1e-12)

    def test_reported_index_is_group_lowest_rank(self, toy_hamiltonian):
        sol = eig(toy_hamiltonian)
        v2 = sol.eigenvectors[:, 2].astype(complex)
        index, _ = project(v2, sol, step_rng(0, 0, 0))
        assert index == 1

    def test_born_frequencies_match_weights(self, toy_hamiltonian):
        """Uniform state: level weights are exactly 0.1 / 0.5 / 0.4."""
        sol = eig(toy_hamiltonian)
        psi = np.full(4, 0.5, dtype=complex)
        counts = {}
        for t in range(2000):
            index, _ = project(psi, sol, step_rng(5, t, 0))
            counts[index] = counts.get(index, 0) + 1
        assert counts == {0: 191, 1: 1028, 3: 781}
        expected = {0: 0.1, 1: 0.5, 3: 0.4}
        tv = 0.5 * sum(abs(counts[i] / 2000 - expected[i]) for i in expected)
        assert tv <= 0.05
        p_value = stats.chisquare(
            [counts[i] for i in sorted(expected)],
            [expected[i] * 2000 for i in sorted(expected)],
        ).pvalue
        assert p_value > 0.01

    def test_equal_superposition_splits_evenly(self, toy_hamiltonian):
        sol = eig(toy_hamiltonian)
        v0 = sol.eigenvectors[:, 0].astype(complex)
        v1 = sol.eigenvectors[:, 1].astype(complex)
        psi = (v0 + v1) / np.sqrt(2)
        hits = sum(
            project(psi, sol, step_rng(9, t, 0))[0] == 0 for t in range(1000)
        )
        assert hits == 516
        assert abs(hits / 1000 - 0.5) <= 0.05

    def test_dimension_mismatch(self, toy_hamiltonian):
        sol = eig(toy_hamiltonian)
        with pytest.raises(ValueError, match="does not match basis"):
            project(np.ones(8, dtype=complex) / np.sqrt(8), sol, step_rng(0, 0, 0))

    def test_unnormalized_rejected(self, toy_hamiltonian):
        sol = eig(toy_hamiltonian)
        psi = 0.5 * sol.eigenvectors[:, 0].astype(complex)
        with pytest.raises(ValueError, match="not normalized"):
            project(psi, sol, step_rng(0, 0, 0))


class TestInitialEigenstate:
    def test_diagonal_initial_is_basis_state(self, gapped_path):
        """All Z couplings positive, so the rank-0 state is |1111>."""
        psi = initial_eigenstate(gapped_path, 0)
        assert psi[15] == pytest.approx(1.0)
        assert np.linalg.norm(psi) == pytest.approx(1.0)

    def test_diagonal_ranks_order_basis_states_by_energy(self):
        """2 II - 4 IZ + 5 ZI has diagonal [3, 11, -7, 1]."""
        h = parse_hamiltonian("2.0 II\n-4.0 IZ\n5.0 ZI")
        p = PathHamiltonian(h, h)
        ranks = [np.argmax(initial_eigenstate(p, rank)) for rank in range(4)]
        assert ranks == [2, 3, 0, 1]

    def test_degenerate_diagonal_ranks_enumerate_lexicographically(self):
        """1.0 ZZ has diagonal [1, -1, -1, 1]: ties go to the lower index."""
        h = parse_hamiltonian("1.0 ZZ")
        p = PathHamiltonian(h, h, total_time=10.0)
        ranks = [np.argmax(initial_eigenstate(p, rank)) for rank in range(4)]
        assert ranks == [1, 2, 0, 3]

    def test_general_initial_satisfies_eigenequation(self, toy_hamiltonian):
        from mczeno.spectral import dense_matrix

        p = PathHamiltonian(toy_hamiltonian, toy_hamiltonian, total_time=10.0)
        v = initial_eigenstate(p, 2)
        value = eig(toy_hamiltonian).eigenvalues[2]
        residual = dense_matrix(toy_hamiltonian) @ v - value * v
        assert np.linalg.norm(residual) <= 1e-9

    def test_index_out_of_range(self, gapped_path):
        with pytest.raises(ValueError, match="outside"):
            initial_eigenstate(gapped_path, 16)

    @pytest.mark.parametrize("p", bundled_all_z_paths())
    def test_diagonal_bit_equal_to_term_by_term_sum(self, p):
        """The diagonal that ranks the initial states is the all-Z sum,
        bit for bit, so the stable order of tied states is unchanged."""
        diagonal = p.sparse_matrix(0.0).diagonal()
        reference = diagonal_entries(p.h_initial)
        assert diagonal.dtype == reference.dtype
        assert np.array_equal(diagonal, reference)
        order = np.argsort(reference, kind="stable")
        for rank in (0, 1, len(order) - 1):
            assert np.argmax(initial_eigenstate(p, rank)) == order[rank]


class TestZenoRun:
    def test_constant_path_never_leaves_eigenstate(self, toy_hamiltonian):
        p = PathHamiltonian(toy_hamiltonian, toy_hamiltonian, total_time=10.0)
        trial = zeno_run(p, 8, 0, rng_seed=4)
        assert trial.trajectory == (0,) * 8
        assert trial.final_index == 0
        assert trial.final_energy == pytest.approx(-8.0, abs=1e-9)

    def test_seeded_determinism(self, single_qubit_path):
        a = zeno_run(single_qubit_path, 20, 0, rng_seed=12, trial_number=3)
        b = zeno_run(single_qubit_path, 20, 0, rng_seed=12, trial_number=3)
        assert a == b

    def test_final_energy_is_exact_eigenvalue(self, gapped_path):
        values = eig(gapped_path.h_final).eigenvalues
        for t in range(20):
            trial = zeno_run(gapped_path, 10, 0, rng_seed=21, trial_number=t)
            assert abs(trial.final_energy - values[trial.final_index]) <= 1e-10

    def test_supplied_state_consumes_step_zero(self, toy_hamiltonian):
        p = PathHamiltonian(toy_hamiltonian, toy_hamiltonian, total_time=10.0)
        psi = np.full(4, 0.5, dtype=complex)
        trial = zeno_run(p, 5, 0, rng_seed=2, initial_state=psi)
        assert len(trial.trajectory) == 6
        assert trial.trajectory[0] in {0, 1, 3}
        plain = zeno_run(p, 5, 0, rng_seed=2)
        assert len(plain.trajectory) == 5

    def test_step_count_validation(self, single_qubit_path):
        with pytest.raises(ValueError, match="at least 1"):
            zeno_run(single_qubit_path, 0, 0, rng_seed=0)

    def test_eigensolution_list_length_validation(self, single_qubit_path):
        sols = [eig(single_qubit_path.h_initial)] * 3
        with pytest.raises(ValueError, match="does not match"):
            zeno_run(single_qubit_path, 5, 0, rng_seed=0, eigensolutions=sols)


class TestZenoStatistics:
    def test_single_qubit_matches_exact_chain(self, single_qubit_path):
        """Sampled ground frequency vs the closed two-level chain."""
        chain = two_level_chain_probability(20)
        assert chain == pytest.approx(0.9688497405948653, abs=1e-12)
        dist = zeno_statistics(single_qubit_path, 20, [0], 1000, rng_seed=0)[0]
        freq = dist.counts.get(0, 0) / dist.trials
        assert freq == 0.958
        sigma = np.sqrt(chain * (1.0 - chain) / 1000)
        assert abs(freq - chain) <= 3 * sigma

    def test_success_non_decreasing_in_step_count(self, gapped_path):
        freqs = {}
        for n_steps in (5, 20, 80):
            dist = zeno_statistics(gapped_path, n_steps, [0], 1000, rng_seed=11)[0]
            freqs[n_steps] = dist.counts.get(0, 0) / 1000
        assert freqs == {5: 0.976, 20: 0.994, 80: 0.998}
        # two-sigma slack on the frequency differences
        for lo, hi in ((5, 20), (20, 80)):
            sigma = np.sqrt(freqs[lo] * (1 - freqs[lo]) / 1000)
            assert freqs[hi] >= freqs[lo] - 2 * sigma

    def test_first_slot_independent_of_later_ones(self, single_qubit_path):
        both = zeno_statistics(single_qubit_path, 5, [0, 1], 40, rng_seed=6)
        alone = zeno_statistics(single_qubit_path, 5, [0], 40, rng_seed=6)
        assert both[0] == alone[0]
        assert both[1].initial_index == 1

    def test_trial_count_validation(self, single_qubit_path):
        with pytest.raises(ValueError, match="at least 1"):
            zeno_statistics(single_qubit_path, 5, [0], 0, rng_seed=0)


class TestLowestKEnergies:
    def test_recovers_four_lowest_exactly(self, gapped_path):
        values = eig(gapped_path.h_final).eigenvalues
        result = lowest_k_energies(gapped_path, 20, k=4, repetitions=40, rng_seed=3)
        assert result.complete
        assert [count for _, count in result.energies] == [10, 10, 10, 10]
        for (energy, _), expected in zip(result.energies, values[:4]):
            assert abs(energy - expected) <= 1e-10

    def test_constant_path_single_level(self, toy_hamiltonian):
        p = PathHamiltonian(toy_hamiltonian, toy_hamiltonian, total_time=10.0)
        result = lowest_k_energies(p, 4, k=1, repetitions=3, rng_seed=0)
        assert result.complete
        assert len(result.energies) == 1
        energy, count = result.energies[0]
        assert energy == pytest.approx(-8.0, abs=1e-9)
        assert count == 3

    def test_degenerate_funnel_flags_incomplete(self):
        """Both starting levels land in the same degenerate final group."""
        h = parse_hamiltonian("1.0 ZZ")
        p = PathHamiltonian(h, h, total_time=10.0)
        result = lowest_k_energies(p, 2, k=2, repetitions=4, rng_seed=0)
        assert not result.complete
        assert result.energies == ((-1.0, 4),)

    def test_k_validation(self, toy_hamiltonian):
        p = PathHamiltonian(toy_hamiltonian, toy_hamiltonian, total_time=10.0)
        with pytest.raises(ValueError, match="k must be in"):
            lowest_k_energies(p, 4, k=5, repetitions=10, rng_seed=0)
        with pytest.raises(ValueError, match="at least k"):
            lowest_k_energies(p, 4, k=3, repetitions=2, rng_seed=0)


class TestQaeThenProject:
    def test_constant_path_from_ground_always_lands_ground(self, toy_hamiltonian):
        p = PathHamiltonian(toy_hamiltonian, toy_hamiltonian, total_time=10.0)
        dist = qae_then_project(p, 0.5, 0, trials=50, rng_seed=1)
        assert dist.counts == {0: 50}
        assert dist.trials == 50

    def test_seeded_determinism(self, single_qubit_path):
        a = qae_then_project(single_qubit_path, 0.5, 0, trials=30, rng_seed=8)
        b = qae_then_project(single_qubit_path, 0.5, 0, trials=30, rng_seed=8)
        assert a == b


class TestDistributionCsv:
    def test_exact_layout(self):
        rows = [
            ZenoDistribution(counts={2: 3, 0: 1}, trials=4, initial_index=1),
            ZenoDistribution(counts={1: 2}, trials=2, initial_index=0),
        ]
        assert distribution_csv(rows) == (
            "initial_index,final_index,count\n1,0,1\n1,2,3\n0,1,2\n"
        )

    def test_count_total_validated(self):
        with pytest.raises(ValueError, match="do not sum"):
            ZenoDistribution(counts={0: 1}, trials=2, initial_index=0)


class TestEigensolveCount:
    def test_zeno_statistics_solves_each_grid_point_once(self, data_dir, monkeypatch):
        """The non-diagonal H(0) eigenvector comes from the grid's first point."""
        h = load_hamiltonian(data_dir / "h2_2.8_jw.txt")
        mc = mc_hamiltonian(h, greedy_max_clique(build_graph(h)))
        assert not is_all_z(mc)
        p = PathHamiltonian(mc, h, alpha=0.5)
        calls = []
        original = np.linalg.eigh

        def counting_eigh(m):
            calls.append(m.shape)
            return original(m)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        n_steps = 10
        for trials in (1, 30):
            calls.clear()
            zeno_statistics(p, n_steps, [0, 1], trials, 5)
            assert calls == [(16, 16)] * (n_steps + 1)


class TestNonDiagonalInitialBasis:
    def test_h0_keeps_full_eigh_basis_when_sectors_are_available(
        self, data_dir, monkeypatch
    ):
        """H(0) of h2_sto3g_2.8's clique is non-diagonal with a threefold
        ground level, so the rank-0 initial state is whichever vector LAPACK
        picks (e_3 with one OpenBLAS build; the spin-swap sectors would give
        (e_3 + e_12)/sqrt2).  It must stay the full eigh's, whatever
        dimension the sectors start at.
        """
        import mczeno.spectral as spectral
        from mczeno.driver import load_qubit_hamiltonian

        monkeypatch.setattr(spectral, "SECTOR_DIMENSION", 1)
        h, _ = load_qubit_hamiltonian(str(data_dir / "h2_sto3g_2.8.fcidump"))
        mc = mc_hamiltonian(h, greedy_max_clique(build_graph(h)))
        p = PathHamiltonian(mc, h, alpha=0.5)
        assert len(p.sectors) == 2 and not is_all_z(mc)
        values, vectors = np.linalg.eigh(p.matrix(0.0))
        assert np.ptp(values[:3]) < 1e-9 < values[3] - values[2]
        h0 = next(path_eigensolutions(p, [0.0]))
        assert np.array_equal(h0.eigenvalues, values)
        assert np.array_equal(h0.eigenvectors, vectors)
        for rank in range(3):
            assert np.array_equal(initial_eigenstate(p, rank), vectors[:, rank])
        # every other point is solved in the spin-swap sectors of 10 and 6
        shapes = []
        original = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: shapes.append(m.shape)
                            or original(m))
        next(path_eigensolutions(p, [1.0]))
        assert shapes == [(10, 10), (6, 6)]


class TestInitialStateCost:
    def test_diagonal_read_once_per_initial_index(self, gapped_path, monkeypatch):
        """Given the grid's solutions, the start states are read from the s = 0
        solution: H(0) is not read again, per initial index or per trial."""
        solutions = list(path_eigensolutions(gapped_path, s_grid(5)))
        calls = []
        original = PathHamiltonian.sparse_matrix

        def counting_matrix(p, s):
            calls.append(s)
            return original(p, s)

        monkeypatch.setattr(PathHamiltonian, "sparse_matrix", counting_matrix)
        zeno_statistics(gapped_path, 5, [0, 1], 30, rng_seed=2,
                        eigensolutions=solutions)
        assert calls == []


class TestMatchesPerTrialReference:
    """Block projection against the one-state-at-a-time complex reference."""

    N_STEPS = 10

    @pytest.fixture(params=["gapped_alpha0", "h2_2.8_alpha0.5", "odd_y"])
    def path(self, request, data_dir):
        if request.param == "odd_y":
            return odd_y_path()
        if request.param == "gapped_alpha0":
            return fixture_path(data_dir, "gapped_four_qubit.txt", 0.0)
        return fixture_path(data_dir, "h2_2.8_jw.txt", 0.5)

    def solutions(self, p):
        return list(path_eigensolutions(p, s_grid(self.N_STEPS)))

    def test_state_storage_follows_the_hamiltonian(self, path):
        complex_path = np.iscomplexobj(path.matrix(0.0))
        assert np.iscomplexobj(initial_eigenstate(path, 0)) == complex_path
        solution = self.solutions(path)[1]
        _, collapsed = project(initial_eigenstate(path, 0), solution, step_rng(0, 0, 1))
        assert np.iscomplexobj(collapsed) == complex_path

    def test_statistics_counts(self, path):
        trials, seed = 150, 17
        solutions = self.solutions(path)
        got = zeno_statistics(path, self.N_STEPS, [0, 1], trials, rng_seed=seed)
        for slot, initial_index in enumerate([0, 1]):
            psi = initial_eigenstate(path, initial_index)
            expected: dict[int, int] = {}
            for t in range(trials):
                final = zeno_trajectory(
                    solutions, psi, seed, slot * trials + t, 1)[-1]
                expected[final] = expected.get(final, 0) + 1
            assert got[slot].counts == expected

    @pytest.mark.parametrize("draws_per_call", [1, 25])
    def test_statistics_counts_with_draws_split_over_calls(
        self, path, monkeypatch, draws_per_call
    ):
        import mczeno.qzp as qzp

        monkeypatch.setattr(qzp, "_DRAWS_PER_CALL", draws_per_call)
        trials, seed = 12, 4
        solutions = self.solutions(path)
        got = zeno_statistics(path, self.N_STEPS, [1], trials, rng_seed=seed)[0]
        psi = initial_eigenstate(path, 1)
        expected: dict[int, int] = {}
        for t in range(trials):
            final = zeno_trajectory(solutions, psi, seed, t, 1)[-1]
            expected[final] = expected.get(final, 0) + 1
        assert got.counts == expected

    def test_run_trajectories(self, path):
        solutions = self.solutions(path)
        for t in range(20):
            trial = zeno_run(path, self.N_STEPS, 1, 5, trial_number=t,
                             eigensolutions=solutions)
            psi = initial_eigenstate(path, 1)
            assert trial.trajectory == zeno_trajectory(solutions, psi, 5, t, 1)

    def test_run_from_user_state_draws_step_zero(self, path):
        dim = 1 << path.n_qubits
        rng = np.random.default_rng(4)
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        solutions = self.solutions(path)
        for t in range(20):
            trial = zeno_run(path, self.N_STEPS, 0, 9, trial_number=t,
                             initial_state=psi, eigensolutions=solutions)
            assert trial.trajectory == zeno_trajectory(solutions, psi, 9, t, 0)

    def test_lowest_k_energies(self, path):
        k, repetitions, seed = 3, 60, 8
        solutions = self.solutions(path)
        observed: dict[int, int] = {}
        for r in range(repetitions):
            psi = initial_eigenstate(path, r % k)
            final = zeno_trajectory(solutions, psi, seed, r, 1)[-1]
            observed[final] = observed.get(final, 0) + 1
        values = solutions[-1].eigenvalues
        expected = tuple((float(values[i]), observed[i]) for i in sorted(observed)[:k])
        got = lowest_k_energies(path, self.N_STEPS, k, repetitions, rng_seed=seed)
        assert got.energies == expected

    def test_qae_then_project(self, path):
        trials, seed = 200, 3
        final_state = evolve(path, 0.5, initial_eigenstate(path, 0)).final_state
        final = next(path_eigensolutions(path, [1.0]))
        expected: dict[int, int] = {}
        for t in range(trials):
            rank, _ = zeno_project(final_state, final.eigenvalues, final.eigenvectors,
                                   philox_draw(seed, t, 0))
            expected[rank] = expected.get(rank, 0) + 1
        got = qae_then_project(path, 0.5, 0, trials=trials, rng_seed=seed)
        assert got.counts == expected


@pytest.fixture(scope="module", params=["h5", "real", "odd_y"])
def sectored(request, data_dir):
    """A 10- or 8-qubit path whose points with s > 0 are solved in four
    sectors: H5 (H(0) sorted) or a random path (H(0) by one full eigh)."""
    return sectored_path(data_dir, request.param)


def random_state(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


class TestSectorFrameProjection:
    """Trials at sectored points are projected in sector coordinates, and no
    dense 2**n x 2**n eigenvector matrix is formed for them."""

    N_STEPS = 5

    @pytest.mark.parametrize("name", ["real", "odd_y"])
    def test_statistics_counts_match_full_eigh(self, data_dir, name):
        """H5's counts are held to the same reference by test_spectral's
        TestSectorSolve::test_zeno_counts_match_full_eigh_path."""
        p = sectored_path(data_dir, name)
        grid = s_grid(self.N_STEPS)
        solutions = list(path_eigensolutions(p, grid))
        ours = zeno_statistics(p, self.N_STEPS, [0, 1], 100, 11, eigensolutions=solutions)
        assert not any("eigenvectors" in vars(es) for es in solutions[1:])
        theirs = zeno_statistics(p, self.N_STEPS, [0, 1], 100, 11,
                                 eigensolutions=full_eigh_solutions(p, grid))
        assert [d.counts for d in ours] == [d.counts for d in theirs]

    def test_run_from_user_state(self, sectored):
        """Step 0 projects in the standard basis, the rest in the sectors."""
        solutions = list(path_eigensolutions(sectored, s_grid(self.N_STEPS)))
        assert solutions[0].frame is None
        assert all(es.frame is sectored.sectors for es in solutions[1:])
        psi = random_state(1 << sectored.n_qubits, 5)
        trials = [zeno_run(sectored, self.N_STEPS, 0, 9, trial_number=t,
                           initial_state=psi, eigensolutions=solutions)
                  for t in range(10)]
        assert not any("eigenvectors" in vars(es) for es in solutions[1:])
        for t, trial in enumerate(trials):
            assert trial.trajectory == zeno_trajectory(solutions, psi, 9, t, 0)

    def test_project_matches_dense_solution(self, sectored):
        solution = next(path_eigensolutions(sectored, [0.5]))
        dense = EigenSolution(solution.eigenvalues, solution.eigenvectors)
        psi = random_state(1 << sectored.n_qubits, 6)
        for t in range(5):
            rank, collapsed = project(psi, solution, step_rng(3, t, 1))
            dense_rank, dense_collapsed = project(psi, dense, step_rng(3, t, 1))
            assert rank == dense_rank
            assert np.abs(collapsed - dense_collapsed).max() <= 1e-12

    def test_evolve_matches_dense_solution(self, sectored):
        p = PathHamiltonian(sectored.h_initial, sectored.h_final, alpha=0.5,
                            total_time=1.0)
        final = next(path_eigensolutions(p, [1.0]))
        assert final.frame is p.sectors
        psi0 = initial_eigenstate(p, 0)
        got = evolve(p, 0.5, psi0, final)
        assert "eigenvectors" not in vars(final)
        want = evolve(p, 0.5, psi0, EigenSolution(final.eigenvalues, final.eigenvectors))
        assert abs(got.final_energy - want.final_energy) <= 1e-12
        assert abs(got.ground_fidelity - want.ground_fidelity) <= 1e-12
