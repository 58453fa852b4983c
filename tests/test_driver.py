"""Pipeline configuration, execution, persistence, and scans."""

import dataclasses
import itertools
import math
import re
import threading
import tracemalloc

import numpy as np
import pytest

from mczeno.clique import build_graph, greedy_max_clique, mc_hamiltonian
from mczeno.driver import (
    RunConfig,
    StageError,
    config_from_dict,
    load_qubit_hamiltonian,
    load_result,
    run,
    save_result,
    scan,
    scan_csv,
)
from mczeno.pauli import is_all_z, load_hamiltonian
from mczeno import driver, qzp
from mczeno import path as path_module
from mczeno import spectral
from mczeno.path import PathHamiltonian
from mczeno.qae import evolve
from mczeno.qzp import initial_eigenstate, zeno_grid, zeno_statistics
from mczeno.spectral import eig
from test_spectral import point_eigh_shapes


def sector_dimensions(name: str) -> list[int]:
    """The symmetry_sectors of a run record: H5's four sectors, and none on
    the 16-dimensional fixtures."""
    return [288, 240, 256, 240] if name.startswith("h5") else []


def h1_eigh_shapes(data_dir, name: str) -> list[tuple[int, ...]]:
    """The shapes of the eigh calls that solve H(1) of a fixture's clique
    path: one 16-row eigh, or on H5 every sector split by component size."""
    h, _ = load_qubit_hamiltonian(str(data_dir / name))
    if not name.startswith("h5"):
        return [(16, 16)]
    mc = mc_hamiltonian(h, greedy_max_clique(build_graph(h)))
    return point_eigh_shapes(PathHamiltonian(mc, h, alpha=0.5), 1.0)


class TestRunConfig:
    def test_defaults_complete(self):
        config = RunConfig(source="x.txt", method="qzp")
        assert config.seed == 0
        assert config.n_steps == 20
        assert config.trials == 1000
        assert config.alpha == 0.0
        assert config.initial_indices == (0,)

    def test_method_validation(self):
        with pytest.raises(ValueError, match="method must be one of"):
            RunConfig(source="x.txt", method="anneal")

    def test_mapping_validation(self):
        with pytest.raises(ValueError, match="mapping must be one of"):
            RunConfig(source="x.txt", method="qae", mapping="bravyi")

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="total_time"):
            RunConfig(source="x.txt", method="qae", total_time=0.0)
        with pytest.raises(ValueError, match="trials"):
            RunConfig(source="x.txt", method="qzp", trials=0)
        with pytest.raises(ValueError, match="initial_indices"):
            RunConfig(source="x.txt", method="qzp", initial_indices=())
        with pytest.raises(ValueError, match="alpha"):
            RunConfig(source="x.txt", method="qzp", alpha=-0.1)

    @pytest.mark.parametrize("name", ["alpha", "total_time", "delta_t"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_fields_rejected_before_any_stage(self, data_dir, name, value):
        source = str(data_dir / "toy_two_qubit.txt")
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            run(RunConfig(source=source, method="qzp", **{name: value}))

    @pytest.mark.parametrize("seed", [-1, 1.5, "3"])
    def test_seed_validation(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            RunConfig(source="x.txt", method="qzp", seed=seed)

    @pytest.mark.parametrize("name", ["n_steps", "trials", "k", "n_points"])
    @pytest.mark.parametrize("value", [2.5, 3.0, "3", None])
    def test_integer_fields_validated(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            RunConfig(source="x.txt", method="qzp", **{name: value})

    @pytest.mark.parametrize("name", ["n_steps", "trials", "k", "n_points", "seed"])
    @pytest.mark.parametrize("value", [True, False])
    def test_booleans_rejected_as_integers(self, name, value):
        """bool is an int subclass: trials=True would run one trial."""
        with pytest.raises(ValueError, match=f"^{name} must be a"):
            RunConfig(source="x.txt", method="qzp", **{name: value})

    @pytest.mark.parametrize("indices", [(True,), (0, False)])
    def test_boolean_initial_indices_rejected(self, indices):
        with pytest.raises(ValueError, match="^initial_indices must be non-negative"):
            RunConfig(source="x.txt", method="qzp", initial_indices=indices)

    @pytest.mark.parametrize("name", ["alpha", "total_time", "delta_t"])
    @pytest.mark.parametrize("value", [True, "0.5", None, [1.0]])
    def test_non_numbers_rejected(self, name, value):
        """bool is an int subclass: alpha=True would run at alpha 1."""
        with pytest.raises(ValueError, match=f"^{name} must be a number, got"):
            RunConfig(source="x.txt", method="qzp", **{name: value})

    @pytest.mark.parametrize("indices", [0, "0", None, {0: 1}])
    def test_initial_indices_must_be_a_sequence(self, indices):
        with pytest.raises(ValueError, match="^initial_indices must be a list"):
            RunConfig(source="x.txt", method="qzp", initial_indices=indices)

    @pytest.mark.parametrize("total_time, delta_t", [(10.0, 3.0), (1.0, 2.0)])
    def test_qae_step_count_checked_on_construction(self, total_time, delta_t):
        """qae steps total_time in whole steps of delta_t; a config that
        cannot is refused before any stage runs, with evolve's message.  The
        other methods never step, so the same times are accepted for them."""
        with pytest.raises(ValueError, match=f"^total_time/delta_t = "
                           f"{re.escape(repr(total_time / delta_t))} is not a positive"):
            RunConfig(source="x.txt", method="qae", total_time=total_time, delta_t=delta_t)
        config = RunConfig(source="x.txt", method="qzp", total_time=total_time,
                           delta_t=delta_t)
        assert config.delta_t == delta_t
        assert RunConfig(source="x.txt", method="qae", total_time=10.0, delta_t=2.5)

    def test_qae_takes_one_initial_index(self):
        """qae evolves one state; a second index would be silently ignored."""
        with pytest.raises(ValueError, match="^initial_indices must hold one index "
                                             "for method 'qae', got \\(1, 2\\)"):
            RunConfig(source="x.txt", method="qae", initial_indices=(1, 2))
        assert RunConfig(source="x.txt", method="qae", initial_indices=[1]).initial_indices == (1,)

    @pytest.mark.parametrize("source", ["h2_2.8_jw.txt", "h5_chain_sto3g_1.00.fcidump"])
    @pytest.mark.parametrize("indices", [(0, 0), (1, 0, 1)])
    def test_repeated_initial_indices_rejected(self, data_dir, tmp_path, source, indices):
        """A repeated index would write its distribution twice, from two
        trial blocks, with nothing to tell the rows apart."""
        output = tmp_path / "d.csv"
        with pytest.raises(ValueError, match="^initial_indices must not repeat an index, "
                                             f"got {re.escape(repr(indices))}$"):
            run(RunConfig(source=str(data_dir / source), method="qzp",
                          initial_indices=indices, output=str(output)))
        assert not output.exists()

    def test_initial_indices_list_accepted(self):
        config = RunConfig(source="x.txt", method="qzp", initial_indices=[0, 2])
        assert config.initial_indices == (0, 2)

    @pytest.mark.parametrize("data", [[1, 2], "qzp", 3, None])
    def test_config_from_dict_rejects_non_objects(self, data):
        with pytest.raises(ValueError, match="^config must be a JSON object"):
            config_from_dict(data, source="x.txt", method="qae")

    def test_non_integer_trials_rejected_before_any_stage(self, data_dir):
        source = str(data_dir / "toy_two_qubit.txt")
        with pytest.raises(ValueError, match="trials must be an integer, got 2.5"):
            run(RunConfig(source=source, method="qzp", trials=2.5))

    def test_config_from_dict_overrides(self):
        data = {"alpha": 0.5, "trials": 7}
        config = config_from_dict(data, source="x.txt", method="qzp", seed=3)
        assert config.alpha == 0.5
        assert config.trials == 7
        assert config.seed == 3

    def test_config_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys: bogus"):
            config_from_dict({"bogus": 1}, source="x.txt", method="qae")


class TestLoadQubitHamiltonian:
    def test_pauli_file_auto(self, data_dir):
        h, mapping = load_qubit_hamiltonian(str(data_dir / "toy_two_qubit.txt"))
        assert mapping == "none"
        assert h.n_qubits == 2

    def test_fcidump_auto_uses_jw(self, data_dir):
        h, mapping = load_qubit_hamiltonian(
            str(data_dir / "h2_sto3g_0.7414.fcidump")
        )
        assert mapping == "jw"
        assert h.n_qubits == 4

    def test_explicit_parity(self, data_dir):
        h, mapping = load_qubit_hamiltonian(
            str(data_dir / "h2_sto3g_0.7414.fcidump"), "parity"
        )
        assert mapping == "parity"
        assert eig(h).eigenvalues[0] == pytest.approx(-1.137270, abs=5e-5)


class TestRun:
    def test_clique_record(self, data_dir):
        record = run(RunConfig(source=str(data_dir / "toy_two_qubit.txt"), method="clique"))
        assert record["weight"] == pytest.approx(11.0)
        assert record["members"] == ["II", "IZ", "ZI"]
        assert record["size"] == 3
        assert record["n_terms"] == 4

    COMMON_KEYS = {"method", "source", "mapping", "n_qubits", "seed"}
    PATH_KEYS = COMMON_KEYS | {"alpha", "symmetry_sectors"}
    RECORD_KEYS = {
        "clique": COMMON_KEYS | {"n_terms", "size", "weight", "members"},
        "spectrum": PATH_KEYS | {"k", "n_points", "initial_ground_hartree",
                                 "final_ground_hartree", "min_gap_hartree"},
        "qae": PATH_KEYS | {"exact_ground_hartree", "initial_index", "total_time", "delta_t",
                            "step_count", "final_energy_hartree", "ground_fidelity",
                            "error_hartree", "sector_weights"},
        "qzp": PATH_KEYS | {"exact_ground_hartree", "n_steps", "trials", "initial_indices",
                            "best_energy_hartree", "distributions"},
    }
    DISTRIBUTION_KEYS = {"initial_index", "trials", "ground_frequency", "counts",
                         "sector_weights"}

    @pytest.mark.parametrize("method", ["clique", "spectrum", "qae", "qzp"])
    def test_record_keys(self, data_dir, method):
        """The record schema: a field added or dropped changes these sets."""
        short = {"initial_indices": (0, 1), "n_steps": 5, "trials": 20} if method == "qzp" else {}
        record = run(RunConfig(source=str(data_dir / "h2_2.8_jw.txt"), method=method, **short))
        assert set(record) == self.RECORD_KEYS[method]
        for distribution in record.get("distributions", []):
            assert set(distribution) == self.DISTRIBUTION_KEYS
        assert method != "qzp" or len(record["distributions"]) == 2

    def test_qzp_delegates_to_statistics(self, data_dir):
        source = str(data_dir / "gapped_four_qubit.txt")
        record = run(
            RunConfig(source=source, method="qzp", n_steps=5, trials=40, seed=2)
        )
        h = load_hamiltonian(source)
        mc = mc_hamiltonian(h, greedy_max_clique(build_graph(h)))
        p = PathHamiltonian(mc, h, alpha=0.0, total_time=10.0)
        direct = zeno_statistics(zeno_grid(p, 5, [0]), 40, 2)[0]
        assert record["distributions"][0]["counts"] == [
            [i, direct.counts[i]] for i in sorted(direct.counts)
        ]
        assert record["distributions"][0]["trials"] == 40

    H5_QZP_PEAK_BYTES = 60e6
    """Traced peak of one H5 qzp run at the benchmark's settings, with 200 or
    5,000 trials.  With every sectored point kept as its four blocks (2.1 MB
    a point) and one state column per distinct state, it reads about 27 and
    37 MB; a dense 1024 x 1024 eigenvector matrix per grid point (8.4 MB
    each, eleven held at once) takes it past 100 MB, and one state column
    per trial takes 5,000 trials past 300 MB."""

    @staticmethod
    def h5_qzp_peak(data_dir, trials: int) -> int:
        config = RunConfig(source=str(data_dir / "h5_chain_sto3g_1.00.fcidump"),
                           method="qzp", alpha=0.5, n_steps=10, trials=trials, seed=13)
        tracemalloc.start()
        try:
            run(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_h5_qzp_builds_sectors_once(self, data_dir, monkeypatch):
        """Three initial indices and ten sectored points share one build of
        H5's four sectors."""
        calls = []
        built = path_module.Sector
        monkeypatch.setattr(path_module, "Sector", lambda *a: calls.append("Sector") or built(*a))
        run(RunConfig(source=str(data_dir / "h5_chain_sto3g_1.00.fcidump"),
                      method="qzp", alpha=0.5, n_steps=10, trials=20, seed=13,
                      initial_indices=(0, 1, 2)))
        assert calls == ["Sector"] * 4

    def test_h5_qzp_peak_memory(self, data_dir):
        assert self.h5_qzp_peak(data_dir, 200) < self.H5_QZP_PEAK_BYTES

    def test_h5_qzp_peak_memory_grows_with_distinct_states_not_trials(self, data_dir):
        assert self.h5_qzp_peak(data_dir, 5000) < self.H5_QZP_PEAK_BYTES

    @pytest.mark.parametrize("name, shapes", [
        ("gapped_four_qubit.txt", [(16, 16)] * 5),
        ("h2_2.8_jw.txt", [(16, 16)] * 6),
        ("h5_chain_sto3g_1.00.fcidump", [(288, 288), (256, 256)] * 5),
    ])
    def test_qzp_solves_each_grid_point_once(self, data_dir, monkeypatch, name, shapes):
        """The exact stage's H(1) solution is the last grid point of qzp.  A
        diagonal H(0) (gapped, H5) is sorted, not diagonalized; H5's H(1) is
        solved in all four symmetry sectors, each split by component size,
        and each interior point only in the two that the rank-0 start
        reaches.  Sector solves run on a pool, so the shapes of the exact
        stage and of the grid are compared as multisets."""
        h1 = h1_eigh_shapes(data_dir, name)
        shapes = h1 + shapes
        calls = []
        original = np.linalg.eigh

        def counting_eigh(m):
            calls.append(m.shape)
            return original(m)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        config = RunConfig(source=str(data_dir / name), method="qzp", alpha=0.5,
                           n_steps=6, trials=20, seed=1)
        record = run(config)
        exact = len(h1) if sector_dimensions(name) else 0
        assert sorted(calls[:exact]) == sorted(shapes[:exact])
        assert sorted(calls[exact:]) == sorted(shapes[exact:])
        assert record["symmetry_sectors"] == sector_dimensions(name)
        monkeypatch.setattr(np.linalg, "eigh", original)
        h, _ = load_qubit_hamiltonian(str(data_dir / name))
        mc = mc_hamiltonian(h, greedy_max_clique(build_graph(h)))
        p = PathHamiltonian(mc, h, alpha=0.5, total_time=10.0)
        direct = zeno_statistics(zeno_grid(p, 6, [0]), 20, 1)[0]
        assert record["distributions"][0]["counts"] == [
            [i, direct.counts[i]] for i in sorted(direct.counts)
        ]

    @pytest.mark.parametrize("failing, stage", [(1, "exact"), (6, "qzp")])
    def test_worker_linalg_error_names_its_stage(self, data_dir, monkeypatch, failing, stage):
        """A LinAlgError in a pool worker's eigh comes out of run() as the
        StageError of the stage whose point it solved: the exact stage's
        H(1), or the last interior point of the grid, which was sent one
        point ahead.  H5's 256-row sector is solved once at H(1), split by
        component size, and at each of the 5 interior points; every eigh of
        the failing solve of that sector raises."""
        if spectral._sector_pool() is None:
            pytest.skip("no loaded OpenBLAS exports openblas_set_num_threads_local")
        solves, solving = itertools.count(1), threading.local()
        solve_sector, original = spectral._solve_sector, np.linalg.eigh

        def counted_solve(p, sector, s):
            solving.fails = sector.dimension == 256 and next(solves) == failing
            return solve_sector(p, sector, s)

        def failing_eigh(m):
            if getattr(solving, "fails", False):
                assert threading.current_thread() is not threading.main_thread()
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return original(m)

        monkeypatch.setattr(spectral, "_solve_sector", counted_solve)
        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        config = RunConfig(source=str(data_dir / "h5_chain_sto3g_1.00.fcidump"), method="qzp",
                           alpha=0.5, n_steps=6, trials=20, seed=1)
        with pytest.raises(StageError, match=f"stage '{stage}' failed") as error:
            run(config)
        assert error.value.stage == stage
        assert isinstance(error.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.parametrize("name, shapes", [
        ("gapped_four_qubit.txt", []),
        ("h5_chain_sto3g_1.00.fcidump", []),
        ("h2_2.8_jw.txt", [(16, 16)]),
    ])
    def test_qae_solves_only_the_endpoints(self, data_dir, monkeypatch, name, shapes):
        """The exact stage's H(1) solution gives qae its final observables,
        and the steps diagonalize nothing.  H(0) is solved too only when the
        clique is not diagonal (h2_2.8_jw), for the initial eigenstate; H5's
        H(1) is solved in four symmetry sectors, each split by component
        size, on a pool, so in any order."""
        shapes = h1_eigh_shapes(data_dir, name) + shapes
        calls = []
        original = np.linalg.eigh

        def counting_eigh(m):
            calls.append(m.shape)
            return original(m)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        record = run(RunConfig(source=str(data_dir / name), method="qae", alpha=0.5))
        assert sorted(calls) == sorted(shapes)
        assert record["symmetry_sectors"] == sector_dimensions(name)
        monkeypatch.setattr(np.linalg, "eigh", original)
        h, _ = load_qubit_hamiltonian(str(data_dir / name))
        mc = mc_hamiltonian(h, greedy_max_clique(build_graph(h)))
        assert is_all_z(mc) == (name != "h2_2.8_jw.txt")
        p = PathHamiltonian(mc, h, alpha=0.5, total_time=10.0)
        direct = evolve(p, 0.5, initial_eigenstate(p, 0))
        assert record["final_energy_hartree"] == direct.final_energy
        assert record["ground_fidelity"] == direct.ground_fidelity

    def test_qae_record_names_its_initial_index(self, data_dir):
        source = str(data_dir / "gapped_four_qubit.txt")
        records = [run(RunConfig(source=source, method="qae", initial_indices=(index,)))
                   for index in (0, 1)]
        assert [record["initial_index"] for record in records] == [0, 1]
        assert records[0]["final_energy_hartree"] != records[1]["final_energy_hartree"]

    def test_sectors_leave_non_diagonal_h0_on_full_eigh(self, data_dir, monkeypatch):
        """With the symmetry sectors available at every dimension, a
        non-diagonal H(0) is still solved by one full eigh: its eigenvectors
        pick the initial state, and a sector basis there moves this qae
        energy from -0.6793 to -0.5651 Ha."""
        import mczeno.path as path

        config = RunConfig(source=str(data_dir / "h2_sto3g_2.8.fcidump"), method="qae",
                           alpha=0.5)
        default = run(config)
        monkeypatch.setattr(path, "SECTOR_DIMENSION", 1)
        sectors = run(config)  # H(1) is solved in sectors, in another basis
        for key in ("final_energy_hartree", "ground_fidelity"):
            assert sectors[key] == pytest.approx(default[key], abs=1e-12)

    def test_spectrum_csv_row_count(self, data_dir, tmp_path):
        out = tmp_path / "levels.csv"
        record = run(
            RunConfig(
                source=str(data_dir / "toy_two_qubit.txt"),
                method="spectrum",
                k=2,
                n_points=11,
                output=str(out),
            )
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "s,E0_hartree,E1_hartree"
        assert len(lines) == 12
        assert record["initial_ground_hartree"] == pytest.approx(-7.0)
        assert record["final_ground_hartree"] == pytest.approx(-8.0)
        assert record["symmetry_sectors"] == []

    @pytest.mark.parametrize("name, weights", [
        ("h5_chain_sto3g_1.00.fcidump", [[0.5, 0.0, 0.5, 0.0], [0.25] * 4]),
        ("h2_2.8_jw.txt", [[], []]),
    ])
    def test_records_give_start_sector_weights(self, data_dir, name, weights):
        """Each qzp distribution and the qae record give the start's weight
        in each of symmetry_sectors.  H5's rank-0 start, basis state 992, is
        split evenly by the chain mirror and fixed by the spin swap; its
        rank-2 start is fixed by neither."""
        source = str(data_dir / name)
        record = run(RunConfig(source=source, method="qzp", alpha=0.5, n_steps=2,
                               trials=5, initial_indices=(0, 2)))
        for distribution, want in zip(record["distributions"], weights, strict=True):
            assert distribution["sector_weights"] == pytest.approx(want, abs=1e-15)
        record = run(RunConfig(source=source, method="qae", alpha=0.5, delta_t=5.0))
        assert record["sector_weights"] == pytest.approx(weights[0], abs=1e-15)

    def test_spectrum_record_names_sectors(self, data_dir):
        record = run(RunConfig(source=str(data_dir / "h5_chain_sto3g_1.00.fcidump"),
                               method="spectrum", alpha=0.5, k=2, n_points=2))
        assert record["symmetry_sectors"] == [288, 240, 256, 240]

    def test_qae_record_error_versus_exact(self, data_dir):
        record = run(
            RunConfig(
                source=str(data_dir / "gapped_four_qubit.txt"),
                method="qae",
                total_time=10.0,
                delta_t=0.5,
            )
        )
        assert record["step_count"] == 20
        assert record["error_hartree"] == pytest.approx(9.485239e-4, abs=1e-9)
        assert record["final_energy_hartree"] == pytest.approx(
            record["exact_ground_hartree"] + record["error_hartree"]
        )

    @pytest.mark.parametrize("method, indices, bad", [
        ("qzp", (0, 2000), 2000), ("qzp", (1024,), 1024), ("qae", (1024,), 1024)])
    def test_start_out_of_range_refused_before_any_solve(self, data_dir, monkeypatch,
                                                         method, indices, bad):
        """A start rank past 2**n fails in its method's stage right after the
        load stage: before the clique, the symmetry sectors or any eigh."""
        monkeypatch.setattr(np.linalg, "eigh", lambda m: pytest.fail("eigh"))
        monkeypatch.setattr(PathHamiltonian, "sectors",
                            property(lambda self: pytest.fail("sectors")))
        monkeypatch.setattr(driver, "greedy_max_clique", lambda g: pytest.fail("clique"))
        config = RunConfig(source=str(data_dir / "h5_chain_sto3g_1.00.fcidump"),
                           method=method, alpha=0.5, initial_indices=indices)
        with pytest.raises(StageError, match=f"^stage '{method}' failed for .*: "
                           f"initial_index {bad} outside 0..1023$"):
            run(config)

    def test_missing_file_names_load_stage(self):
        with pytest.raises(StageError, match="stage 'load' failed for /nope.txt"):
            run(RunConfig(source="/nope.txt", method="clique"))

    def test_symmetric_input_past_the_cap_names_path_stage(self, tmp_path):
        """The path's symmetry sectors are built in a stage of their own, so
        an input past the dimension cap fails there, before any solve."""
        source = tmp_path / "sixteen.txt"
        source.write_text("1.0 " + "Z" * 16 + "\n")
        with pytest.raises(StageError, match="stage 'path' failed .* dimension cap"):
            run(RunConfig(source=str(source), method="qae"))

    def test_csv_output_rejected_for_clique(self, data_dir, tmp_path):
        config = RunConfig(
            source=str(data_dir / "toy_two_qubit.txt"),
            method="clique",
            output=str(tmp_path / "out.csv"),
        )
        with pytest.raises(StageError, match="stage 'write'"):
            run(config)

    def test_scan_method_rejected(self):
        with pytest.raises(ValueError, match="executed by scan"):
            run(RunConfig(source="x.txt", method="scan"))

    def test_record_round_trip(self, data_dir, tmp_path):
        record = run(
            RunConfig(
                source=str(data_dir / "toy_two_qubit.txt"),
                method="qzp",
                n_steps=3,
                trials=20,
            )
        )
        path = tmp_path / "record.json"
        save_result(record, str(path))
        assert load_result(str(path)) == record


class TestScan:
    def _points(self, data_dir, **kw):
        defaults = dict(
            method="scan", mapping="jw", alpha=0.5, n_steps=10, trials=100, seed=7
        )
        defaults.update(kw)
        return [
            (
                bond,
                RunConfig(
                    source=str(data_dir / f"h2_sto3g_{bond}.fcidump"), **defaults
                ),
            )
            for bond in (0.7414, 1.2, 2.8)
        ]

    def test_qzp_errors_vanish_on_bond_scan(self, data_dir):
        result = scan(self._points(data_dir), methods=("exact", "qzp"))
        assert [row.status for row in result.rows] == ["ok", "ok", "ok"]
        for row in result.rows:
            assert abs(row.errors["qzp"]) <= 1e-10

    def test_single_point(self, data_dir):
        result = scan(self._points(data_dir)[:1])
        assert len(result.rows) == 1
        assert result.rows[0].status == "ok"

    def test_missing_file_flagged_others_intact(self, data_dir):
        points = self._points(data_dir)
        points[1] = (
            1.2,
            RunConfig(source=str(data_dir / "absent.fcidump"), method="scan"),
        )
        result = scan(points)
        assert [row.status for row in result.rows] == ["ok", "missing", "ok"]
        assert result.rows[1].energies == {}

    def test_failed_point_keeps_its_cause(self, data_dir, tmp_path):
        bad = tmp_path / "bad.fcidump"
        bad.write_text("NORB=2\n 0.5 1 1 0 0\n")
        points = self._points(data_dir)
        points[1] = (1.2, RunConfig(source=str(bad), method="scan"))
        result = scan(points)
        assert [row.status for row in result.rows] == ["ok", "failed: load", "ok"]
        assert "malformed FCIDUMP header" in result.rows[1].message
        assert result.rows[0].message == result.rows[2].message == ""
        assert scan_csv(result).splitlines()[2] == "1.2,,,,failed: load"

    def test_start_out_of_range_fails_its_point_before_any_solve(self, data_dir, monkeypatch):
        """qae evolves the first start, which is in range, so the point fails
        in the qzp stage, on the second, before any eigh."""
        monkeypatch.setattr(np.linalg, "eigh", lambda m: pytest.fail("eigh"))
        points = self._points(data_dir, initial_indices=(0, 16))[2:]
        result = scan(points, methods=("exact", "qae", "qzp"))
        assert [row.status for row in result.rows] == ["failed: qzp"]
        assert result.rows[0].message.endswith("initial_index 16 outside 0..15")

    def test_repeated_methods_rejected_before_any_point(self, data_dir, monkeypatch):
        """A repeated method would repeat its energy and error columns."""
        calls = []
        monkeypatch.setattr(driver, "_execute", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="each named once, got "
                                             r"\['exact', 'qzp', 'qzp'\]$"):
            scan(self._points(data_dir), ("exact", "qzp", "qzp"))
        assert calls == []

    def test_coordinates_must_increase(self, data_dir):
        points = self._points(data_dir)
        points[1], points[0] = points[0], points[1]
        with pytest.raises(ValueError, match="strictly increasing"):
            scan(points)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_coordinates_must_be_finite(self, data_dir, bad):
        """NaN fails every ordering test and inf passes it as the last point,
        so each is rejected by name."""
        points = self._points(data_dir)
        points[-1] = (bad, points[-1][1])
        with pytest.raises(ValueError, match=f"^scan coordinate {bad!r} is not finite$"):
            scan(points)

    @pytest.mark.parametrize("at", [0, 2])
    def test_point_that_sets_an_output_is_refused(self, data_dir, tmp_path, monkeypatch, at):
        """A scan writes one table, so a point's own output would be
        silently ignored: the scan refuses it before it runs any point."""
        points = self._points(data_dir)
        written = tmp_path / "point.json"
        coordinate, config = points[at]
        points[at] = (coordinate, dataclasses.replace(config, output=str(written)))
        monkeypatch.setattr(driver, "_execute", lambda *args: pytest.fail("ran a point"))
        with pytest.raises(ValueError, match=f"^scan point {coordinate!r} sets output"):
            scan(points)
        assert not written.exists()

    def test_methods_validation(self, data_dir):
        with pytest.raises(ValueError, match="must include 'exact'"):
            scan(self._points(data_dir), methods=("qzp",))
        with pytest.raises(ValueError, match="subset"):
            scan(self._points(data_dir), methods=("exact", "vqe"))

    def test_csv_is_deterministic(self, data_dir):
        points = self._points(data_dir)[:1]
        first = scan_csv(scan(points, methods=("exact", "qae", "qzp")))
        second = scan_csv(scan(points, methods=("exact", "qae", "qzp")))
        assert first == second
        header = first.splitlines()[0]
        assert header == (
            "coordinate,exact_hartree,qae_hartree,qzp_hartree,"
            "qae_error_hartree,qzp_error_hartree,status"
        )

    def test_qae_column_evolves_the_first_initial_index(self, data_dir):
        """A scan's qzp column reads every initial index, its qae column the
        first one."""
        points = self._points(data_dir, initial_indices=(1, 2))[2:]
        row = scan(points, methods=("exact", "qae")).rows[0]
        config = dataclasses.replace(points[0][1], method="qae", initial_indices=(1,))
        assert row.energies["qae"] == run(config)["final_energy_hartree"]

    def test_csv_missing_row_has_empty_cells(self, data_dir):
        points = [
            (1.0, RunConfig(source=str(data_dir / "absent.fcidump"), method="scan"))
        ]
        text = scan_csv(scan(points))
        assert text.splitlines()[1] == "1.0,,,,missing"


H2_SCAN_SETTINGS = dict(alpha=0.5, n_steps=40, trials=1000, seed=7, total_time=10.0,
                        delta_t=0.5)
"""The settings of the benchmark's H2 bond scan."""
SCAN_METHODS = ("exact", "qae", "qzp")


class TestScanDrawTables:
    """A scan's qzp runs that draw for one seed, trial numbers and steps read
    one table of draws, drawn by the first of them and dropped when scan()
    returns."""

    def _points(self, data_dir, *settings):
        return [(bond, RunConfig(source=str(data_dir / f"h2_sto3g_{bond}.fcidump"),
                                 method="scan", **{**H2_SCAN_SETTINGS, **kw}))
                for bond, kw in zip((0.7414, 1.2, 2.8), settings)]

    @staticmethod
    def _standalone(points):
        """The qzp distributions of a run() of each point's config."""
        return [run(dataclasses.replace(config, method="qzp"))["distributions"]
                for _, config in points]

    @staticmethod
    def _record_draws(monkeypatch, fail_at=None):
        """The (run_seed, trials, steps) of every step_draws call; call
        number fail_at raises."""
        calls = []
        original = qzp.step_draws

        def recording(run_seed, trials, step):
            calls.append((run_seed, np.asarray(trials).tolist(), np.asarray(step).tolist()))
            if len(calls) == fail_at:
                raise RuntimeError("draw failed")
            return original(run_seed, trials, step)

        monkeypatch.setattr(qzp, "step_draws", recording)
        return calls

    @staticmethod
    def _record_distributions(monkeypatch):
        """The qzp distributions of every point a scan completes."""
        records = []
        original = driver._execute

        def recording(config, methods):
            record, csv_text = original(config, methods)
            records.append(record["distributions"])
            return record, csv_text

        monkeypatch.setattr(driver, "_execute", recording)
        return records

    def test_points_sharing_a_key_draw_one_table(self, data_dir, monkeypatch):
        """At the benchmark's settings three points make the calls of one
        run, 10 calls of 4 steps of 1,000 trials; a second scan makes them
        again."""
        points = self._points(data_dir, {}, {}, {})
        calls = self._record_draws(monkeypatch)
        run(dataclasses.replace(points[0][1], method="qzp"))
        one_table = calls[:]
        assert len(one_table) == 10
        calls.clear()
        scan(points, SCAN_METHODS)
        assert calls == one_table
        scan(points, SCAN_METHODS)
        assert calls == one_table * 2

    def test_points_with_other_seeds_or_steps_draw_their_own(self, data_dir, monkeypatch):
        """The last point shares its seed with the first and its steps with
        the second, and matches neither table."""
        points = self._points(data_dir, {"n_steps": 20}, {"seed": 8}, {})
        calls = self._record_draws(monkeypatch)
        expected = self._standalone(points)
        standalone_calls = calls[:]
        calls.clear()
        records = self._record_distributions(monkeypatch)
        result = scan(points, SCAN_METHODS)
        assert [row.status for row in result.rows] == ["ok"] * 3
        assert calls == standalone_calls
        assert records == expected

    def test_counts_match_standalone_runs_after_a_failed_draw(self, data_dir, monkeypatch):
        """The first point fails halfway through drawing its table, so the
        next point draws the table again, and the last reads it."""
        points = self._points(data_dir, {}, {}, {})
        expected = self._standalone(points)
        calls = self._record_draws(monkeypatch, fail_at=5)
        records = self._record_distributions(monkeypatch)
        result = scan(points, SCAN_METHODS)
        assert [row.status for row in result.rows] == ["failed: qzp", "ok", "ok"]
        assert "draw failed" in result.rows[0].message
        assert len(calls) == 5 + 10
        assert records == expected[1:]

    def test_scope_closes_when_scan_returns_or_raises(self, data_dir, monkeypatch):
        points = self._points(data_dir, {})
        scan(points, SCAN_METHODS)
        assert qzp._DRAW_TABLES.get() is None
        seen = []

        def interrupted(config, methods):
            seen.append(qzp._DRAW_TABLES.get())
            raise RuntimeError("interrupted")

        monkeypatch.setattr(driver, "_execute", interrupted)
        with pytest.raises(RuntimeError, match="interrupted"):
            scan(points, SCAN_METHODS)
        assert seen == [{}]
        assert qzp._DRAW_TABLES.get() is None


class TestScanEnds:
    """A scan point solves its H(1) once, and its H(0) once after it when qae
    or qzp runs: both methods start from that H(0), and qzp's grid ends on
    that H(1)."""

    BONDS = (0.7414, 1.2, 2.8)

    def _points(self, data_dir):
        return [(bond, RunConfig(source=str(data_dir / f"h2_sto3g_{bond}.fcidump"),
                                 method="scan", **H2_SCAN_SETTINGS))
                for bond in self.BONDS]

    @staticmethod
    def _paths(points):
        paths = []
        for _, config in points:
            h, _ = load_qubit_hamiltonian(config.source)
            mc = mc_hamiltonian(h, greedy_max_clique(build_graph(h)))
            paths.append(PathHamiltonian(mc, h, alpha=config.alpha,
                                         total_time=config.total_time))
        return paths

    @staticmethod
    def _record_eigh(monkeypatch):
        solved = []
        original = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: solved.append(m) or original(m))
        return solved

    def test_each_end_solved_once(self, data_dir, monkeypatch):
        """At the benchmark's settings each bond solves H(1), then H(0) when
        its clique is not diagonal (the 2.8 A bond's threefold-degenerate
        one), then the 39 interior points of the qzp grid: 121 eigh calls
        in all."""
        points = self._points(data_dir)
        paths = self._paths(points)
        assert [p.is_diagonal(0.0) for p in paths] == [True, True, False]
        solved = self._record_eigh(monkeypatch)
        result = scan(points, SCAN_METHODS)
        monkeypatch.undo()
        assert [row.status for row in result.rows] == ["ok"] * 3
        n = H2_SCAN_SETTINGS["n_steps"]
        expected = [m for p in paths for m in (
            p.matrix(1.0), *[p.matrix(0.0)] * (not p.is_diagonal(0.0)),
            *(p.matrix(k / n) for k in range(1, n)))]
        assert len(solved) == len(expected) == 121
        assert all(map(np.array_equal, solved, expected))

    def test_exact_only_scan_solves_no_initial_hamiltonian(self, data_dir, monkeypatch):
        points = self._points(data_dir)
        solved = self._record_eigh(monkeypatch)
        result = scan(points, ("exact",))
        monkeypatch.undo()
        assert [row.status for row in result.rows] == ["ok"] * 3
        assert len(solved) == 3
        assert all(map(np.array_equal, solved, [p.matrix(1.0) for p in self._paths(points)]))

    @pytest.mark.parametrize("delta_t", [3.0, 20.0])
    def test_qae_step_count_refused_before_any_point(self, data_dir, monkeypatch, delta_t):
        """A qae scan whose last point cannot step total_time in whole steps
        of delta_t names that point before the first runs; without qae the
        same points run."""
        points = self._points(data_dir)
        coordinate, config = points[-1]
        points[-1] = coordinate, dataclasses.replace(config, delta_t=delta_t)
        monkeypatch.setattr(driver, "_execute", lambda *args: pytest.fail("ran a point"))
        message = (f"^scan point {coordinate!r}: total_time/delta_t = "
                   f"{re.escape(repr(10.0 / delta_t))} is not a positive integer$")
        with pytest.raises(ValueError, match=message):
            scan(points, SCAN_METHODS)
        monkeypatch.undo()
        result = scan(points, ("exact", "qzp"))
        assert [row.status for row in result.rows] == ["ok"] * 3
