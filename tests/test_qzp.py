"""Projection-driven evolution and its sampling statistics."""

import contextlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from mczeno.clique import build_graph, greedy_max_clique, mc_hamiltonian
from mczeno.driver import RunConfig, load_qubit_hamiltonian, run
from mczeno.pauli import is_all_z, load_hamiltonian, parse_hamiltonian
from mczeno.path import PathHamiltonian
from mczeno.qae import evolve
import mczeno.qzp as qzp
from mczeno.qzp import (
    ZenoDistribution,
    ZenoGrid,
    initial_eigenstate,
    project,
    step_draws,
    step_rng,
    zeno_run,
    zeno_grid,
    zeno_statistics,
)
from mczeno.path import s_grid
from mczeno.spectral import EigenSolution, eig, path_eigensolutions
from oracles import (
    complete_grid,
    diagonal_entries,
    full_eigh_solutions,
    philox_draw,
    solved_sectors,
    zeno_law,
    zeno_project,
    zeno_trajectory,
)
from test_path import odd_y_path
from test_spectral import clique_path, point_eigh_shapes, sectored_path


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

    def test_step_count_validation(self, single_qubit_path):
        with pytest.raises(ValueError, match="at least 1"):
            zeno_run(single_qubit_path, 0, 0, rng_seed=0)

    @pytest.mark.parametrize("arguments, error, message", [
        ((2, 0), ValueError, "^initial_index 2 outside 0..1$"),
        ((-1, 0), ValueError, "^initial_index -1 outside 0..1$"),
        ((1.0, 0), TypeError, "^initial_index 1.0 is not an integer$"),
        ((True, 0), TypeError, "^initial_index True is a bool, not an integer$"),
        ((0, True), TypeError, "^rng_seed True is a bool, not an integer$"),
        ((0, 0, True), TypeError, "^trial_number True is a bool, not an integer$"),
        ((0, 1.0), TypeError, "^rng_seed 1.0 is not an integer$"),
        ((0, 0, 0.5), TypeError, "^trial_number 0.5 is not an integer$"),
    ], ids=["rank-2", "rank-negative", "rank-float", "rank-True", "seed-True", "trial-True",
            "seed-float", "trial-float"])
    def test_argument_validation(self, single_qubit_path, arguments, error, message):
        """A rank, seed or trial number is checked before it is run, and
        refused by name: a rank outside the basis, or any of them not an
        integer, a bool included, which would otherwise be read as one (a
        seed of True would run seed 1's trajectory and report seed=True)."""
        with pytest.raises(error, match=message):
            zeno_run(single_qubit_path, 3, *arguments)

    def test_eigensolution_list_length_validation(self, single_qubit_path):
        sols = [eig(single_qubit_path.h_initial)] * 3
        with pytest.raises(ValueError, match="does not match"):
            zeno_run(single_qubit_path, 5, 0, rng_seed=0, eigensolutions=sols)


class TestZenoStatistics:
    def test_single_qubit_matches_exact_chain(self, single_qubit_path):
        """Sampled ground frequency vs the closed two-level chain."""
        chain = two_level_chain_probability(20)
        assert chain == pytest.approx(0.9688497405948653, abs=1e-12)
        dist = zeno_statistics(zeno_grid(single_qubit_path, 20, [0]), 1000, rng_seed=0)[0]
        freq = dist.counts.get(0, 0) / dist.trials
        assert freq == 0.958
        sigma = np.sqrt(chain * (1.0 - chain) / 1000)
        assert abs(freq - chain) <= 3 * sigma

    def test_success_non_decreasing_in_step_count(self, gapped_path):
        freqs = {}
        for n_steps in (5, 20, 80):
            dist = zeno_statistics(zeno_grid(gapped_path, n_steps, [0]), 1000, rng_seed=11)[0]
            freqs[n_steps] = dist.counts.get(0, 0) / 1000
        assert freqs == {5: 0.976, 20: 0.994, 80: 0.998}
        # two-sigma slack on the frequency differences
        for lo, hi in ((5, 20), (20, 80)):
            sigma = np.sqrt(freqs[lo] * (1 - freqs[lo]) / 1000)
            assert freqs[hi] >= freqs[lo] - 2 * sigma

    def test_first_slot_independent_of_later_ones(self, single_qubit_path):
        both = zeno_statistics(zeno_grid(single_qubit_path, 5, [0, 1]), 40, rng_seed=6)
        alone = zeno_statistics(zeno_grid(single_qubit_path, 5, [0]), 40, rng_seed=6)
        assert both[0] == alone[0]
        assert both[1].initial_index == 1

    def test_initial_indices_share_one_block(self, gapped_path, monkeypatch):
        """Every initial index is sampled in one _trajectories call, as trial
        numbers 0..3 * trials - 1 with one start rank per index."""
        import mczeno.qzp as qzp

        calls = []
        original = qzp._trajectories

        def recording_trajectories(eigensolutions, ranks, owner, *args):
            calls.append((list(ranks), owner.tolist(), args))
            return original(eigensolutions, ranks, owner, *args)

        monkeypatch.setattr(qzp, "_trajectories", recording_trajectories)
        got = zeno_statistics(zeno_grid(gapped_path, 5, [0, 1, 2]), 4, rng_seed=3)
        assert calls == [([0, 1, 2], [0] * 4 + [1] * 4 + [2] * 4, (3, range(12)))]
        assert [d.initial_index for d in got] == [0, 1, 2]
        assert all(d.trials == 4 for d in got)

    @pytest.mark.parametrize("indices, error, message", [
        ([], ValueError, "^initial_indices must hold at least one index$"),
        ([0, False], TypeError, "^initial_index False is a bool, not an integer$"),
        ([True], TypeError, "^initial_index True is a bool, not an integer$"),
    ], ids=["empty", "with-False", "True"])
    @pytest.mark.parametrize("name", ["h2_2.8_jw.txt", "h5"])
    def test_refused_initial_indices(self, data_dir, name, indices, error, message):
        """An empty start list, or one holding a bool, is refused by name when
        its grid is solved: not answered with a grid of no starts, a
        complaint about symmetry sectors, a grid that runs rank 0 twice or
        numpy's boolean-mask error."""
        p = (sectored_path(data_dir, name) if name == "h5"
             else fixture_path(data_dir, name, 0.5))
        with pytest.raises(error, match=message):
            zeno_grid(p, 3, indices)

    @pytest.mark.parametrize("trials, seed, error, message", [
        (0, 0, ValueError, "^trials_per_initial must be at least 1$"),
        (True, 0, TypeError, "^trials_per_initial True is a bool, not an integer$"),
        (3, True, TypeError, "^rng_seed True is a bool, not an integer$"),
        (2.0, 0, TypeError, "^trials_per_initial 2.0 is not an integer$"),
        (3, 0.5, TypeError, "^rng_seed 0.5 is not an integer$"),
    ], ids=["zero", "trials-True", "seed-True", "trials-float", "seed-float"])
    def test_trial_count_validation(self, single_qubit_path, trials, seed, error, message):
        """A bool trial count or seed is refused by name, not read as 1 (a
        seed of True would give seed 1's counts) or left to fail inside
        numpy."""
        with pytest.raises(error, match=message):
            zeno_statistics(zeno_grid(single_qubit_path, 5, [0]), trials, seed)

    def test_zero_steps_rejected_with_given_solutions(self, single_qubit_path):
        """A one-point list matches n_steps 0 in length, but no step is left
        to project: zeno_run refuses it, as zeno_grid refuses n_steps 0."""
        h0 = next(path_eigensolutions(single_qubit_path, [0.0]))
        message = "n_steps must be at least 1, got 0"
        with pytest.raises(ValueError, match=message):
            zeno_grid(single_qubit_path, 0, [0])
        with pytest.raises(ValueError, match=message):
            zeno_run(single_qubit_path, 0, 0, rng_seed=1, eigensolutions=[h0])


class TestDistributionCsv:
    def test_exact_layout(self, data_dir, tmp_path):
        """The driver's qzp table: the starts in the order given, each with
        one row per final index it reached, sorted, though rank 1's first
        trial ends on rank 1."""
        out = tmp_path / "dist.csv"
        run(RunConfig(source=str(data_dir / "toy_two_qubit.txt"), method="qzp", n_steps=1,
                      trials=4, initial_indices=(1, 0), seed=3, output=str(out)))
        assert out.read_text() == (
            "initial_index,final_index,count\n1,0,1\n1,1,3\n0,0,3\n0,1,1\n"
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
            zeno_statistics(zeno_grid(p, n_steps, [0, 1]), trials, 5)
            assert calls == [(16, 16)] * (n_steps + 1)

    @pytest.mark.parametrize("n_steps", [1, 2, 10])
    def test_zeno_grid_solves_both_ends_once(self, data_dir, monkeypatch, n_steps):
        """Given the pair of H(0) and H(1) solutions, zeno_grid solves only
        the n - 1 interior points and returns the pair as its ends; without
        it, one path_eigensolutions call solves H(1) and then H(0), the full
        eigh of h2_2.8_jw's non-diagonal clique."""
        p = fixture_path(data_dir, "h2_2.8_jw.txt", 0.5)
        assert not p.is_diagonal(0.0)
        ends = next(path_eigensolutions(p, [0.0])), next(path_eigensolutions(p, [1.0]))
        solved = []
        original = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: solved.append(m) or original(m))
        grid = zeno_grid(p, n_steps, [0, 1], ends)
        interior = [p.matrix(k / n_steps) for k in range(1, n_steps)]
        assert len(solved) == n_steps - 1
        assert all(map(np.array_equal, solved, interior))
        solutions = grid.solutions
        assert solutions[0] is ends[0] and solutions[-1] is ends[1]
        assert len(solutions) == n_steps + 1 and grid.initial_indices == (0, 1)
        solved.clear()
        unsolved = zeno_grid(p, n_steps, [0, 1])
        assert len(solved) == n_steps + 1
        assert all(map(np.array_equal, solved, [p.matrix(1.0), p.matrix(0.0), *interior]))
        assert np.array_equal(unsolved.solutions[0].vectors([0, 1]), ends[0].vectors([0, 1]))
        assert all(np.array_equal(a.eigenvalues, b.eigenvalues)
                   for a, b in zip(unsolved.solutions, solutions))


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
        import mczeno.path as path
        from mczeno.driver import load_qubit_hamiltonian

        monkeypatch.setattr(path, "SECTOR_DIMENSION", 1)
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
        for name in ("diagonal", "matrix"):
            original = getattr(PathHamiltonian, name)
            monkeypatch.setattr(PathHamiltonian, name, lambda p, s, read=original:
                                calls.append(s) or read(p, s))
        zeno_statistics(complete_grid(solutions, [0, 1]), 30, rng_seed=2)
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

    @pytest.mark.parametrize("starts", [[0, 1], [1, 3]], ids=["ranks01", "ranks13"])
    def test_statistics_counts(self, path, starts):
        """Start slot i, trial t is trial number i * trials + t."""
        trials, seed = 150, 17
        solutions = self.solutions(path)
        got = zeno_statistics(zeno_grid(path, self.N_STEPS, starts), trials, rng_seed=seed)
        for slot, initial_index in enumerate(starts):
            psi = initial_eigenstate(path, initial_index)
            expected: dict[int, int] = {}
            for t in range(trials):
                final = zeno_trajectory(solutions, psi, seed, slot * trials + t)[-1]
                expected[final] = expected.get(final, 0) + 1
            assert got[slot].counts == expected

    @pytest.mark.parametrize("draws_per_call, shared", [(1, False), (25, False), (25, True)],
                             ids=["1", "25", "25-shared"])
    def test_statistics_counts_with_draws_split_over_calls(
        self, path, monkeypatch, draws_per_call, shared
    ):
        """shared: two runs in one _shared_draws scope, the first drawing
        the table and the second reading it."""
        import mczeno.qzp as qzp

        monkeypatch.setattr(qzp, "_DRAWS_PER_CALL", draws_per_call)
        trials, seed = 12, 4
        solutions = self.solutions(path)
        with qzp._shared_draws() if shared else contextlib.nullcontext():
            got = [zeno_statistics(zeno_grid(path, self.N_STEPS, [1]), trials, rng_seed=seed)[0]
                   for _ in range(1 + shared)]
        psi = initial_eigenstate(path, 1)
        expected: dict[int, int] = {}
        for t in range(trials):
            final = zeno_trajectory(solutions, psi, seed, t)[-1]
            expected[final] = expected.get(final, 0) + 1
        assert [g.counts for g in got] == [expected] * (1 + shared)

    def test_run_trajectories(self, path):
        solutions = self.solutions(path)
        for t in range(20):
            trial = zeno_run(path, self.N_STEPS, 1, 5, trial_number=t,
                             eigensolutions=solutions)
            psi = initial_eigenstate(path, 1)
            assert trial.trajectory == zeno_trajectory(solutions, psi, 5, t)

    def test_project_evolved_state(self, path):
        """Born-rule projections of the adiabatically evolved state, as the
        qae record's distribution would be sampled."""
        trials, seed = 200, 3
        final_state = evolve(path, 0.5, initial_eigenstate(path, 0)).final_state
        final = next(path_eigensolutions(path, [1.0]))
        for t in range(trials):
            rank, collapsed = project(final_state, final, step_rng(seed, t, 0))
            want_rank, want = zeno_project(final_state, final.eigenvalues,
                                           final.eigenvectors, philox_draw(seed, t, 0))
            assert rank == want_rank
            assert np.abs(collapsed - want).max() <= 1e-12


def fixed_path_solutions(bases, values):
    """EigenSolutions of a path given point by point, as eigenvector
    columns and eigenvalues."""
    return [EigenSolution(np.asarray(v, dtype=float), b) for b, v in zip(bases, values)]


def random_degenerate_solutions(dtype) -> list[EigenSolution]:
    """Seven points of eight-dimensional random bases, real or complex, after
    the standard basis, whose levels are one-, two- and threefold, so trials
    meet on degenerate levels from many states."""
    rng = np.random.default_rng(12)
    bases = [np.eye(8)]
    for _ in range(6):
        m = rng.normal(size=(8, 8))
        if dtype is complex:
            m = m + 1j * rng.normal(size=(8, 8))
        bases.append(np.linalg.qr(m)[0])
    return fixed_path_solutions(bases, [[0, 0, 1, 2, 2, 2, 3, 4]] * len(bases))


class TestDistinctStates:
    """Trials share a state column while their states are equal, and a
    degenerate level keeps the state each trial collapsed."""

    def test_two_states_collapse_onto_one_degenerate_level(self, toy_hamiltonian):
        """From e_0, step 1 lands on (e_0 + e_1)/sqrt2 or (e_0 - e_1)/sqrt2.
        Step 2's twofold level holds both whole, so each survives, and step
        3 measures which one it was.  Trials that met on that level must not
        share one collapsed state."""
        p = PathHamiltonian(toy_hamiltonian, toy_hamiltonian)
        plus, minus = np.array([1, 1, 0, 0]) / np.sqrt(2), np.array([1, -1, 0, 0]) / np.sqrt(2)
        split = np.column_stack([plus, minus, np.eye(4)[:, 2], np.eye(4)[:, 3]])
        solutions = fixed_path_solutions(
            [np.eye(4), split, np.eye(4), split],
            [[0, 1, 2, 3], [0, 1, 2, 3], [0, 0, 1, 2], [0, 1, 2, 3]])
        trials, seed = 100, 6
        got = zeno_statistics(complete_grid(solutions, [0]), trials, seed)[0]
        step_1 = [zeno_trajectory(solutions, np.eye(4)[:, 0], seed, t)[0]
                  for t in range(trials)]
        assert got.counts == {0: step_1.count(0), 1: step_1.count(1)}
        assert 0 < got.counts[0] < trials

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_random_degenerate_path_matches_reference(self, dtype):
        solutions = random_degenerate_solutions(dtype)
        trials, seed = 300, 21
        got = zeno_statistics(complete_grid(solutions, [2]), trials, seed)
        psi = np.eye(8)[:, 2]
        expected: dict[int, int] = {}
        for t in range(trials):
            final = zeno_trajectory(solutions, psi, seed, t)[-1]
            expected[final] = expected.get(final, 0) + 1
        assert got[0].counts == expected

    def test_draw_calls_bounded(self, gapped_path, monkeypatch):
        """Every step_draws call makes at most _DRAWS_PER_CALL draws, however
        many trials share a step."""
        import mczeno.qzp as qzp

        sizes = []
        original = qzp.step_draws

        def recording_draws(run_seed, trials, step):
            draws = original(run_seed, trials, step)
            sizes.append(draws.size)
            return draws

        monkeypatch.setattr(qzp, "step_draws", recording_draws)
        monkeypatch.setattr(qzp, "_DRAWS_PER_CALL", 7)
        zeno_statistics(zeno_grid(gapped_path, 4, [0, 1]), 20, 9)
        assert max(sizes) <= 7 and sum(sizes) == 2 * 20 * 4


class TestDrawRows:
    """_draws streams its rows outside a _shared_draws scope and draws a
    whole table before its first row inside one; either way the rows are
    step_draws' and read-only."""

    TRIALS, STEPS, SEED = np.arange(5), np.arange(1, 8), 3

    @pytest.fixture
    def events(self, monkeypatch):
        """A log of ("call", step) for each step_draws call, to which the
        tests add ("row", k) as they read row k, at 10 draws a call."""
        log = []
        original = qzp.step_draws

        def recording(run_seed, trials, step):
            log.append(("call", np.asarray(step).ravel().tolist()))
            return original(run_seed, trials, step)

        monkeypatch.setattr(qzp, "step_draws", recording)
        monkeypatch.setattr(qzp, "_DRAWS_PER_CALL", 10)
        return log

    def read(self, events):
        rows = []
        for k, row in enumerate(qzp._draws(self.SEED, self.TRIALS, self.STEPS)):
            events.append(("row", k))
            rows.append(row)
        return rows

    def check_rows(self, rows):
        assert len(rows) == len(self.STEPS)
        for k, row in zip(self.STEPS, rows):
            assert np.array_equal(row, step_draws(self.SEED, self.TRIALS, k))
            assert not row.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 0.5

    def test_rows_stream_outside_a_scope(self, events):
        rows = self.read(events)
        kinds = [kind for kind, _ in events]
        assert kinds.index("row") < len(kinds) - 1 - kinds[::-1].index("call")
        assert [s for kind, s in events if kind == "call"] == [[1, 2], [3, 4], [5, 6], [7]]
        self.check_rows(rows)

    def test_scope_draws_every_row_before_the_first(self, events):
        with qzp._shared_draws():
            first = self.read(events)
            calls = [s for kind, s in events if kind == "call"]
            assert [kind for kind, _ in events] == ["call"] * 4 + ["row"] * 7
            events.clear()
            again = self.read(events)
        assert calls == [[1, 2], [3, 4], [5, 6], [7]]
        assert events == [("row", k) for k in range(7)]
        assert all(a is b for a, b in zip(first, again))
        self.check_rows(again)


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
    """Trials at sectored points are projected through the sector blocks,
    and no dense 2**n x 2**n eigenvector matrix is formed for them."""

    N_STEPS = 5

    @pytest.mark.parametrize("name", ["real", "odd_y"])
    def test_statistics_counts_match_full_eigh(self, data_dir, name):
        """H5's counts are held to the same reference by test_spectral's
        TestSectorSolve::test_zeno_counts_match_full_eigh_path."""
        p = sectored_path(data_dir, name)
        grid = s_grid(self.N_STEPS)
        solutions = list(path_eigensolutions(p, grid))
        ours = zeno_statistics(complete_grid(solutions, [0, 1]), 100, 11)
        assert not any("eigenvectors" in vars(es) for es in solutions[1:])
        theirs = zeno_statistics(complete_grid(full_eigh_solutions(p, grid), [0, 1]), 100, 11)
        assert [d.counts for d in ours] == [d.counts for d in theirs]

    def test_run_from_start_rank(self, sectored):
        """H(0) is one standard-basis solution and the later points are
        sectored; a run from a start rank steps through the sector blocks."""
        solutions = list(path_eigensolutions(sectored, s_grid(self.N_STEPS)))
        assert solved_sectors(solutions[0], sectored) == [None]
        assert all(solved_sectors(es, sectored) == [0, 1, 2, 3] for es in solutions[1:])
        trials = [zeno_run(sectored, self.N_STEPS, 1, 9, trial_number=t,
                           eigensolutions=solutions)
                  for t in range(10)]
        assert not any("eigenvectors" in vars(es) for es in solutions[1:])
        psi = initial_eigenstate(sectored, 1)
        for t, trial in enumerate(trials):
            assert trial.trajectory == zeno_trajectory(solutions, psi, 9, t)

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
        assert solved_sectors(final, p) == [0, 1, 2, 3]
        psi0 = initial_eigenstate(p, 0)
        got = evolve(p, 0.5, psi0, final)
        assert "eigenvectors" not in vars(final)
        want = evolve(p, 0.5, psi0, EigenSolution(final.eigenvalues, final.eigenvectors))
        assert abs(got.final_energy - want.final_energy) <= 1e-12
        assert abs(got.ground_fidelity - want.ground_fidelity) <= 1e-12


class TestReachedSectors:
    """Interior points of a Zeno grid solve only the symmetry sectors its
    starts reach; the counts and energies equal those of a grid solved
    whole.  At alpha 0 H5's H(s) has many degenerate levels, where a level
    could chain through an unreached sector's eigenvalue."""

    H5 = "h5_chain_sto3g_1.00.fcidump"
    TRIALS, SEED = 200, 5
    EVERY_SECTOR = (0, 1, 2, 3)
    """H(0) ranks whose states reach all four of H5's sectors."""

    @pytest.fixture(scope="class")
    def cache(self):
        """Paths by alpha and complete grids by (alpha, n_steps), shared by
        the parameters of one class run."""
        return {}

    def complete_grid(self, data_dir, cache, alpha: float, n_steps: int):
        """H5's path at alpha, and the zeno_grid of EVERY_SECTOR at n_steps.
        Its starts reach every sector, so every point is solved whole: the
        reference of a grid that solves fewer."""
        if alpha not in cache:
            cache[alpha] = clique_path(data_dir, self.H5, alpha)
        p = cache[alpha]
        if (alpha, n_steps) not in cache:
            grid = zeno_grid(p, n_steps, list(self.EVERY_SECTOR))
            assert all(len(es.eigenvalues) == es.dimension for es in grid.solutions)
            cache[alpha, n_steps] = grid
        return p, cache[alpha, n_steps]

    @pytest.mark.parametrize("starts", [(0,), EVERY_SECTOR])
    @pytest.mark.parametrize("n_steps", [10, 40])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    def test_restricted_grid_matches_complete(self, data_dir, cache, alpha, n_steps, starts):
        p, complete = self.complete_grid(data_dir, cache, alpha, n_steps)
        grid = complete if starts == self.EVERY_SECTOR else zeno_grid(p, n_steps, list(starts))
        reached = [0, 2] if starts == (0,) else [0, 1, 2, 3]  # rank 0 reaches two sectors
        assert all(solved_sectors(es, p) == reached for es in grid.solutions[1:-1])
        assert solved_sectors(grid.solutions[-1], p) == [0, 1, 2, 3]
        assert solved_sectors(grid.solutions[0], p) == [None]
        assert np.array_equal(grid.solutions[0].vectors(list(starts)),
                              complete.solutions[0].vectors(list(starts)))
        if grid is complete:
            return
        results = [zeno_statistics(ZenoGrid(solutions, grid.initial_indices), self.TRIALS, self.SEED)
                   for solutions in (grid.solutions, complete.solutions)]
        assert results[0] == results[1]

    def test_zeno_statistics_solves_reached_sectors(self, data_dir, monkeypatch):
        """zeno_grid solves H(1) in four sectors, each split by component
        size, then the interior points in the two the start reaches, each
        compared as a multiset, since sectors are solved on a pool."""
        p = clique_path(data_dir, self.H5, 0.5)
        h1 = point_eigh_shapes(p, 1.0)
        shapes = []
        original = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: shapes.append(m.shape) or original(m))
        zeno_statistics(zeno_grid(p, 3, [0]), 10, 1)
        assert len(shapes) == len(h1) + 4
        assert [sorted(shapes[:len(h1)]), sorted(shapes[len(h1):])] == [
            sorted(h1), sorted([(288, 288), (256, 256)] * 2)]

    def test_zeno_run_rejects_restricted_grid(self, data_dir):
        """A plain list given to zeno_run must hold a complete basis at every
        point, interior or last, and the refusal names the restricted step:
        the interior points of a zeno_grid grid count only the reached
        sectors' levels.  With whole interior points the grid's ends run, and
        a trajectory reports every step's rank."""
        p = clique_path(data_dir, self.H5, 0.5)
        grid = zeno_grid(p, 3, [0])
        h0, restricted, _, h1 = grid.solutions
        whole = list(path_eigensolutions(p, s_grid(3)))
        for solutions, step in ((grid.solutions, 1), ([h0, *whole[1:3], restricted], 3)):
            with pytest.raises(ValueError, match=f"^the eigensolution of step {step} holds "
                               "544 of 1024 levels, not a complete basis$"):
                zeno_run(p, 3, 0, 0, eigensolutions=list(solutions))
        trajectories = [zeno_run(p, 3, 0, seed, eigensolutions=[h0, *whole[1:3], h1]).trajectory
                        for seed in range(3)]
        assert trajectories == [(320, 313, 244), (257, 268, 348), (85, 100, 58)]

    def test_given_grid_is_not_read_again(self, data_dir, monkeypatch):
        """zeno_statistics runs its ZenoGrid as it is: no point is checked by
        weights, and the only vectors read is the first step's overlap of the
        start ranks, from H5's sorted-diagonal H(0) beside a sectored point."""
        p = clique_path(data_dir, self.H5, 0.5)
        grid = zeno_grid(p, 3, [0])
        calls = Counter()
        for name in ("weights", "vectors"):
            original = getattr(EigenSolution, name)
            monkeypatch.setattr(EigenSolution, name, lambda *args, name=name, original=original:
                                calls.update([name]) or original(*args))
        assert zeno_statistics(grid, 50, 1)
        assert calls == Counter({"vectors": 1})

    def test_wrong_length_state_raises_against_restricted_solution(self, data_dir):
        p = clique_path(data_dir, self.H5, 0.5)
        grid = zeno_grid(p, 2, [0])
        solution = grid.solutions[1]
        assert len(solution.eigenvalues) == 544 and solution.dimension == 1024
        rank, collapsed = project(grid.solutions[0].vectors([0])[:, 0], solution,
                                  step_rng(1, 0, 1))
        assert collapsed.shape == (1024,)
        with pytest.raises(ValueError, match="state dimension 544 does not match basis 1024"):
            project(np.eye(544)[:, 0], solution, step_rng(1, 0, 1))


class TestDegenerateLevelAcrossSectors:
    """On the constant path H(s) = H5 the two-fold ground level of every
    point is split over two solved sectors, so a trial from rank 0 or 1
    lands on it at every step and is carried as its in-level amplitude
    column, by the overlap of the level's ranks, not as a rank."""

    def test_counts_match_per_trial_reference(self, data_dir, monkeypatch):
        h, _ = load_qubit_hamiltonian(str(data_dir / "h5_chain_sto3g_1.00.fcidump"))
        p = PathHamiltonian(h, h)
        n_steps, trials, seed = 4, 12, 3
        grid = zeno_grid(p, n_steps, [0, 1, 2])
        solutions, psi = grid.solutions, grid.solutions[0].vectors([0, 1, 2])
        for es in solutions:
            assert np.diff(es.level_ends[:3], prepend=0).tolist() == [2, 1, 2]
        assert all(solved_sectors(es, p) == [0, 1, 2, 3] for es in solutions[1:])
        ground_blocks = {id(solutions[1].blocks[b][0]) for b in solutions[1]._rank_columns[0][:2]}
        assert len(ground_blocks) == 2
        collapsed = []
        original = qzp._collapse
        monkeypatch.setattr(qzp, "_collapse", lambda *args: collapsed.append(
            args[0].shape[1]) or original(*args))
        got = zeno_statistics(grid, trials, seed)
        assert collapsed == [2] * (n_steps - 1)
        for slot, initial_index in enumerate([0, 1, 2]):
            expected: dict[int, int] = {}
            for t in range(trials):
                final = zeno_trajectory(solutions, psi[:, slot], seed, slot * trials + t)[-1]
                expected[final] = expected.get(final, 0) + 1
            assert got[slot].counts == expected
        assert [d.counts for d in got] == [{0: trials}, {0: trials}, {2: trials}]

    def test_alpha0_clique_path_carries_columns_by_overlap(self, data_dir, monkeypatch):
        """At alpha 0 trials from H5's ranks 2 and 5 land on degenerate
        levels at every step.  Their in-level columns are carried by
        overlaps alone: the one forward apply is the first step's, which
        reads the start ranks from the sorted-diagonal H(0)."""
        p = clique_path(data_dir, "h5_chain_sto3g_1.00.fcidump", 0.0)
        n_steps, trials, seed = 10, 20, 13
        grid = zeno_grid(p, n_steps, [2, 5])
        adjoints, collapsed = [], []
        apply, collapse = EigenSolution.apply, qzp._collapse
        monkeypatch.setattr(EigenSolution, "apply", lambda es, x, adjoint=False:
                            adjoints.append(adjoint) or apply(es, x, adjoint))
        monkeypatch.setattr(qzp, "_collapse", lambda *args: collapsed.append(
            args[0].shape[1]) or collapse(*args))
        got = zeno_statistics(grid, trials, seed)
        monkeypatch.undo()
        assert adjoints.count(False) <= 1
        assert len(collapsed) == n_steps - 1
        solutions, psi = grid.solutions, grid.solutions[0].vectors([2, 5])
        for slot in range(2):
            expected = Counter(
                zeno_trajectory(solutions, psi[:, slot], seed, slot * trials + t)[-1]
                for t in range(trials))
            assert got[slot].counts == expected
        assert [d.counts for d in got] == [{8: 8, 20: 7, 80: 1, 86: 2, 122: 2},
                                           {8: 4, 20: 6, 43: 3, 80: 2, 86: 5}]


class TestExactLaw:
    """oracles.zeno_law, the exact outcome law of a Zeno run, against a
    closed chain and measured figures, and zeno_statistics' counts against
    it by chi-squared."""

    P_MIN = 1e-6
    """Smallest chi-squared p-value accepted; the seeds below are fixed."""
    SUPPORT = 1e-12
    """A level of lower probability is outside the law's support."""
    H5 = "h5_chain_sto3g_1.00.fcidump"
    CASES = ["single_qubit", "gapped", "h2", "h2_alpha0", "h5", "h5_alpha0", "odd_y",
             "random_float", "random_complex"]

    @pytest.fixture(scope="class")
    def laws(self, data_dir, single_qubit_path):
        """A function of a case name giving its grid and law, each made on
        first use and shared by the class's tests.  A case is a path, a step
        count and a start rank."""
        cache = {}

        def grid_of(name):
            if name.startswith("random"):
                return complete_grid(random_degenerate_solutions(
                    complex if name.endswith("complex") else float), [2])
            path, n_steps, rank = {
                "single_qubit": (lambda: single_qubit_path, 20, 0),
                "gapped": (lambda: fixture_path(data_dir, "gapped_four_qubit.txt", 0.5), 20, 0),
                "h2": (lambda: fixture_path(data_dir, "h2_2.8_jw.txt", 0.5), 20, 0),
                "h2_alpha0": (lambda: fixture_path(data_dir, "h2_2.8_jw.txt", 0.0), 20, 0),
                "h5": (lambda: clique_path(data_dir, self.H5, 0.5), 10, 0),
                "h5_alpha0": (lambda: clique_path(data_dir, self.H5, 0.0), 10, 2),
                "odd_y": (odd_y_path, 10, 0),
            }[name]
            return zeno_grid(path(), n_steps, [rank])

        def law(name):
            if name not in cache:
                grid = grid_of(name)
                cache[name] = grid, *zeno_law(grid, grid.initial_indices[0])
            return cache[name]

        return law

    def test_two_level_chain(self, laws):
        _, law, _ = laws("single_qubit")
        chain = two_level_chain_probability(20)
        assert abs(law[0] - chain) <= 1e-12
        assert abs(law[1] - (1 - chain)) <= 1e-12

    @pytest.mark.parametrize("name", CASES)
    def test_sums_to_one(self, laws, name):
        _, law, ground = laws(name)
        assert abs(sum(law.values()) - 1) <= 1e-12
        assert min(law.values()) >= -1e-15
        assert abs(ground[-1] - law[0]) <= 1e-15

    @pytest.mark.parametrize("name, level, probability", [
        ("h5", 0, 0.0830), ("h2", 0, 0.2915), ("gapped", 0, 0.9836), ("random_float", 3, 0.3805),
    ])
    def test_measured_figures(self, laws, name, level, probability):
        _, law, _ = laws(name)
        assert abs(law[level] - probability) <= 1e-4

    def test_h5_first_step_ground_weight(self, laws):
        _, _, ground = laws("h5")
        assert len(ground) == 10
        assert abs(ground[0] - 0.0152) <= 1e-4

    def test_degenerate_level_needs_coherence(self, laws):
        """The Markov chain of squared overlaps, p <- |O|^2 p, drops the
        coherence a degenerate level keeps: on the random path it gives the
        threefold level 0.3743, not the law's 0.3805."""
        grid, law, _ = laws("random_float")
        solutions = grid.solutions
        p = np.abs(solutions[1].overlap(solutions[0], [2])[:, 0]) ** 2
        for previous, es in zip(solutions[1:], solutions[2:]):
            p = np.abs(es.overlap(previous, np.arange(8))) ** 2 @ p
        markov = p[3:6].sum()
        assert abs(markov - 0.3743) <= 1e-4
        assert abs(law[3] - markov) > 5e-3

    def test_alpha0_never_reaches_the_ground_level(self, laws):
        """README's stretched-bond fixture at alpha 0, exactly."""
        _, law, _ = laws("h2_alpha0")
        assert law[0] <= 1e-15

    @pytest.mark.parametrize("name, trials, seed", [
        ("gapped", 20_000, 5), ("h2", 20_000, 5), ("h5", 20_000, 5), ("h5", 200, 13),
        ("h5_alpha0", 20_000, 5), ("odd_y", 20_000, 5), ("random_float", 20_000, 5),
        ("random_complex", 20_000, 5),
    ], ids=["gapped", "h2", "h5", "h5_qzp", "h5_alpha0", "odd_y", "random_float",
            "random_complex"])
    def test_sampler_follows_law(self, laws, name, trials, seed):
        """h5_qzp is the benchmark workload's own 200 trials."""
        grid, law, _ = laws(name)
        counts = zeno_statistics(grid, trials, seed)[0].counts
        support = {rank for rank, probability in law.items() if probability > self.SUPPORT}
        assert set(counts) <= support
        ranks = sorted(law)
        expected = np.array([law[rank] for rank in ranks]) * trials
        observed = np.array([counts.get(rank, 0) for rank in ranks])
        assert self.chi_squared_p(observed, expected) >= self.P_MIN

    @staticmethod
    def chi_squared_p(observed, expected) -> float:
        """The chi-squared p-value of observed counts against expected ones,
        with the bins of fewer than 5 expected counts pooled into one, and
        that one into the smallest other bin while it has fewer than 5."""
        small = expected < 5
        observed = np.append(observed[~small], observed[small].sum())
        expected = np.append(expected[~small], expected[small].sum())
        if expected[-1] < 5:
            smallest = np.argmin(expected[:-1])
            observed[smallest] += observed[-1]
            expected[smallest] += expected[-1]
            observed, expected = observed[:-1], expected[:-1]
        return stats.chisquare(observed, expected).pvalue
