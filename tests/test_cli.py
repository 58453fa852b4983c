"""Command-line interface behavior."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mczeno
from mczeno import spectral
from mczeno.cli import main
from mczeno.pauli import load_hamiltonian


class TestMethodCommands:
    def test_clique_reports_members(self, data_dir, capsys):
        assert main(["clique", str(data_dir / "toy_two_qubit.txt")]) == 0
        out = capsys.readouterr().out
        assert "weight 11.0" in out
        assert "II IZ ZI" in out

    def test_clique_reads_upper_case_json_suffix(self, data_dir, tmp_path, capsys):
        source = tmp_path / "g.JSON"
        doc = {"n_qubits": 2, "terms": [
            {"label": label, "coeff": coeff}
            for coeff, label in [(2.0, "II"), (3.0, "IX"), (-4.0, "IZ"), (5.0, "ZI")]]}
        source.write_text(json.dumps(doc))
        assert main(["clique", str(source)]) == 0
        out = capsys.readouterr().out
        assert "weight 11.0" in out
        assert "II IZ ZI" in out

    def test_qae_reports_energy(self, data_dir, capsys):
        code = main(
            ["qae", str(data_dir / "gapped_four_qubit.txt"), "--T", "10", "--dt", "0.5"]
        )
        assert code == 0
        assert "final energy" in capsys.readouterr().out

    def test_qae_step_count_refused_before_the_source_is_read(self, tmp_path, capsys):
        """A --dt that does not divide the total time is named, not the
        missing file that a run would have failed to load first."""
        code = main(["qae", str(tmp_path / "missing.txt"), "--dt", "3"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: total_time/delta_t = 3.3333333333333335 is not a positive integer\n"

    def test_qzp_writes_distribution_csv(self, data_dir, tmp_path, capsys):
        out = tmp_path / "dist.csv"
        code = main(
            [
                "qzp",
                str(data_dir / "gapped_four_qubit.txt"),
                "--steps",
                "3",
                "--trials",
                "10",
                "--seed",
                "4",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == "initial_index,final_index,count"
        assert "ground frequency" in capsys.readouterr().out

    def test_spectrum_writes_csv(self, data_dir, tmp_path):
        out = tmp_path / "levels.csv"
        code = main(
            [
                "spectrum",
                str(data_dir / "toy_two_qubit.txt"),
                "--k",
                "2",
                "--points",
                "3",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_text() == (
            "s,E0_hartree,E1_hartree\n"
            "0.0,-7.0,1.0\n"
            "0.5,-7.272001872658765,1.2720018726587656\n"
            "1.0,-8.0,2.0\n"
        )

    def test_config_file_with_flag_override(self, data_dir, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"trials": 5, "n_steps": 2, "seed": 9}))
        code = main(
            [
                "qzp",
                str(data_dir / "gapped_four_qubit.txt"),
                "--config",
                str(config),
                "--trials",
                "3",
            ]
        )
        assert code == 0
        assert "over 3 trials" in capsys.readouterr().out

    def test_negative_seed_exits_nonzero(self, data_dir, capsys):
        code = main(["qzp", str(data_dir / "gapped_four_qubit.txt"), "--seed", "-1"])
        assert code == 1
        assert "error: seed must be a non-negative integer" in capsys.readouterr().err

    def test_nan_alpha_exits_nonzero(self, data_dir, capsys):
        code = main(["qzp", str(data_dir / "gapped_four_qubit.txt"), "--alpha", "nan"])
        assert code == 1
        assert "error: alpha must be finite and >= 0, got nan" in capsys.readouterr().err

    def test_non_integer_initial_exits_nonzero(self, data_dir, capsys):
        code = main(["qzp", str(data_dir / "gapped_four_qubit.txt"), "--initial", "a,b"])
        assert code == 1
        assert ("error: --initial must be comma-separated integers, got 'a,b'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("source", ["h2_2.8_jw.txt", "h5_chain_sto3g_1.00.fcidump"])
    def test_repeated_initial_exits_nonzero(self, data_dir, tmp_path, capsys, source):
        out = tmp_path / "d.csv"
        code = main(["qzp", str(data_dir / source), "--initial", "0,0", "-o", str(out)])
        assert code == 1
        assert ("error: initial_indices must not repeat an index, got (0, 0)"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_non_integer_trials_in_config_exits_nonzero(self, data_dir, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"trials": 2.5}))
        code = main(["qzp", str(data_dir / "gapped_four_qubit.txt"), "--config", str(config)])
        assert code == 1
        assert "error: trials must be an integer, got 2.5" in capsys.readouterr().err

    @pytest.mark.parametrize("data, message", [
        ({"trials": True}, "trials must be an integer, got True"),
        ({"seed": True}, "seed must be a non-negative integer, got True"),
        ({"initial_indices": [True]}, "initial_indices must be non-negative integers"),
    ])
    def test_boolean_integers_in_config_exit_nonzero(self, data_dir, tmp_path, capsys,
                                                     data, message):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(data))
        code = main(["qzp", str(data_dir / "gapped_four_qubit.txt"), "--config", str(config)])
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("data, message", [
        ({"initial_indices": 0}, "initial_indices must be a list"),
        ({"alpha": "0.5"}, "alpha must be a number, got '0.5'"),
        ({"total_time": "10"}, "total_time must be a number, got '10'"),
        ({"alpha": True}, "alpha must be a number, got True"),
        ([1, 2], "config must be a JSON object"),
    ])
    def test_wrong_value_types_in_config_exit_nonzero(self, data_dir, tmp_path, capsys,
                                                      data, message):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(data))
        code = main(["qae", str(data_dir / "toy_two_qubit.txt"), "--config", str(config)])
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_load_failure_exits_nonzero(self, capsys):
        assert main(["clique", "/nope.txt"]) == 1
        assert "error: stage 'load'" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ({"n_qubits": 1, "terms": [{"label": "Z", "coeff": True}]},
         "term 0 coeff must be a JSON number, got True"),
        ({"n_qubits": "1", "terms": [{"label": "Z", "coeff": 1.0}]},
         "n_qubits must be a JSON integer, got '1'"),
    ])
    def test_loose_json_hamiltonian_exits_nonzero(self, tmp_path, capsys, doc, message):
        source = tmp_path / "ham.json"
        source.write_text(json.dumps(doc))
        assert main(["clique", str(source)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: stage 'load' failed for {source}: {message}\n"

    def test_non_finite_fcidump_record_exits_nonzero(self, data_dir, tmp_path, capsys):
        text = (data_dir / "h2_sto3g_0.7414.fcidump").read_text()
        first = "6.7448875894435101e-01   1   1   1   1"
        assert first in text
        source = tmp_path / "nan.fcidump"
        source.write_text(text.replace(first, "nan 1 1 1 1"))
        assert main(["qzp", str(source)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: stage 'load' failed for {source}: {source}: "
                                "non-finite value in record 'nan 1 1 1 1'\n")


class TestBlasThreadCount:
    def test_h5_records_do_not_depend_on_it(self, data_dir, tmp_path):
        """Sector solves run on workers with one OpenBLAS thread each, so an
        H5 qzp or qae record is byte-identical under 1 and 2 threads."""
        if not spectral._openblas_thread_setters():
            pytest.skip("no loaded OpenBLAS exports openblas_set_num_threads_local")
        src = str(Path(mczeno.__file__).resolve().parent.parent)
        h5 = str(data_dir / "h5_chain_sto3g_1.00.fcidump")
        for method, flags in [("qzp", ["--steps", "10", "--trials", "200"]), ("qae", [])]:
            records = []
            for threads in ("1", "2"):
                out = tmp_path / f"{method}-{threads}.json"
                subprocess.run([sys.executable, "-m", "mczeno.cli", method, h5, "--alpha", "0.5",
                                *flags, "-o", str(out)], check=True, capture_output=True,
                               env={**os.environ, "PYTHONPATH": src,
                                    "OPENBLAS_NUM_THREADS": threads})
                records.append(out.read_bytes())
            assert records[0] == records[1], method


class TestModuleEntryPoint:
    def test_python_m_mczeno_runs_the_cli(self, data_dir):
        """python -m mczeno is the mczeno command, exit code included."""
        src = str(Path(mczeno.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-m", "mczeno", "clique",
                               str(data_dir / "toy_two_qubit.txt")],
                              capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
        assert "members: II IZ ZI" in done.stdout
        failed = subprocess.run([sys.executable, "-m", "mczeno", "clique", "absent.txt"],
                                capture_output=True, text=True, env=env)
        assert failed.returncode == 1
        assert failed.stderr.startswith("error: ")


class TestHamCommand:
    def test_fcidump_conversion(self, data_dir, tmp_path, capsys):
        out = tmp_path / "h2.txt"
        code = main(
            [
                "ham",
                str(data_dir / "h2_sto3g_0.7414.fcidump"),
                "--mapping",
                "jw",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        h = load_hamiltonian(out)
        assert h.n_qubits == 4
        assert len(h.terms) == 15
        assert "wrote 15 terms (jw)" in capsys.readouterr().out


class TestScanCommand:
    def test_bond_scan_csv(self, data_dir, tmp_path, capsys):
        config = tmp_path / "scan.json"
        config.write_text(
            json.dumps(
                {
                    "methods": ["exact", "qzp"],
                    "defaults": {
                        "mapping": "jw",
                        "alpha": 0.5,
                        "n_steps": 5,
                        "trials": 50,
                        "seed": 7,
                    },
                    "points": [
                        {
                            "coordinate": bond,
                            "source": str(data_dir / f"h2_sto3g_{bond}.fcidump"),
                        }
                        for bond in (0.7414, 1.2, 2.8)
                    ],
                }
            )
        )
        out = tmp_path / "curve.csv"
        assert main(["scan", str(config), "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("coordinate,exact_hartree,qzp_hartree")
        printed = capsys.readouterr().out
        assert "0.7414: ok" in printed

    def test_relative_sources_resolve_against_config(self, data_dir, tmp_path):
        (tmp_path / "problem.txt").write_text(
            (data_dir / "toy_two_qubit.txt").read_text()
        )
        config = tmp_path / "scan.json"
        config.write_text(
            json.dumps(
                {
                    "defaults": {"n_steps": 2, "trials": 5},
                    "points": [{"coordinate": 1.0, "source": "problem.txt"}],
                }
            )
        )
        assert main(["scan", str(config)]) == 0

    def test_all_points_missing_exits_nonzero(self, tmp_path, capsys):
        config = tmp_path / "scan.json"
        config.write_text(
            json.dumps({"points": [{"coordinate": 1.0, "source": "absent.txt"}]})
        )
        assert main(["scan", str(config)]) == 1
        assert "missing" in capsys.readouterr().out

    def test_failed_point_prints_its_cause(self, tmp_path, capsys):
        (tmp_path / "bad.fcidump").write_text("NORB=2\n 0.5 1 1 0 0\n")
        config = tmp_path / "scan.json"
        config.write_text(
            json.dumps({"points": [{"coordinate": 1.0, "source": "bad.fcidump"}]})
        )
        assert main(["scan", str(config), "-o", str(tmp_path / "out.csv")]) == 1
        out = capsys.readouterr().out
        assert "1.0: failed: load (stage 'load' failed for" in out
        assert "malformed FCIDUMP header" in out

    @pytest.mark.parametrize("point, missing", [
        ({"source": "problem.txt"}, "coordinate"), ({"coordinate": 2.0}, "source"),
    ])
    def test_point_without_a_required_key_exits_nonzero(self, tmp_path, capsys,
                                                         point, missing):
        config = tmp_path / "scan.json"
        config.write_text(json.dumps(
            {"points": [{"coordinate": 1.0, "source": "problem.txt"}, point]}
        ))
        assert main(["scan", str(config)]) == 1
        assert f"error: scan point 1 has no '{missing}'" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["defaults", "points"])
    def test_point_that_sets_an_output_exits_nonzero(self, data_dir, tmp_path, capsys,
                                                     where):
        """A spec's "output", in its defaults or in a point, would go
        unwritten: the scan refuses it, runs no point and writes nothing."""
        written = tmp_path / "point.json"
        points = [{"coordinate": 1.0, "source": str(data_dir / "h2_2.8_jw.txt")},
                  {"coordinate": 2.0, "source": str(data_dir / "h2_1.2_jw.txt")}]
        spec = {"defaults": {"n_steps": 3, "trials": 5}, "points": points}
        (spec["defaults"] if where == "defaults" else points[1])["output"] = str(written)
        config = tmp_path / "scan.json"
        config.write_text(json.dumps(spec))
        table = tmp_path / "curve.csv"
        assert main(["scan", str(config), "-o", str(table)]) == 1
        captured = capsys.readouterr()
        coordinate = 1.0 if where == "defaults" else 2.0
        assert f"error: scan point {coordinate!r} sets output" in captured.err
        assert captured.out == ""
        assert not written.exists() and not table.exists()

    @pytest.mark.parametrize("spec, message", [
        ([1, 2], "scan spec must be a JSON object, got [1, 2]"),
        ({"points": [3]}, "scan point 0 must be a JSON object, got 3"),
        ({"defaults": 5, "points": [{"coordinate": 1.0, "source": "problem.txt"}]},
         "scan defaults must be a JSON object, got 5"),
        ({"points": [{"coordinate": 1.0, "source": 5}]},
         "scan point 0: expected str, bytes or os.PathLike object, not int"),
        ({"points": [{"coordinate": None, "source": "problem.txt"}]},
         "scan point 0: coordinate must be a JSON number, got None"),
        ({"points": [{"coordinate": True, "source": "problem.txt"}]},
         "scan point 0: coordinate must be a JSON number, got True"),
        ({"points": [{"coordinate": "1.2", "source": "problem.txt"}]},
         "scan point 0: coordinate must be a JSON number, got '1.2'"),
        ({"points": [{"coordinate": float("nan"), "source": "problem.txt"},
                     {"coordinate": float("nan"), "source": "problem.txt"}]},
         "scan coordinate nan is not finite"),
        ({"points": [{"coordinate": 10**400, "source": "problem.txt"}]},
         "scan point 0: int too large to convert to float"),
        ({"points": 5}, "scan points must be a JSON array, got 5"),
        ({"points": [{"coordinate": 1.0, "source": "problem.txt", "trials": 0}]},
         "scan point 0: trials must be at least 1, got 0"),
        ({"methods": [["exact"]]}, "methods must be a non-empty subset of"),
        ({"methods": ["exact", "qzp", "qzp"]},
         "methods must be a non-empty subset of ['exact', 'qae', 'qzp'], each named once, "
         "got ['exact', 'qzp', 'qzp']"),
    ], ids=["top_level_list", "point_not_object", "defaults_not_object",
            "source_not_string", "coordinate_null", "coordinate_bool",
            "coordinate_string", "coordinate_nan", "coordinate_too_large",
            "points_not_list", "bad_field", "methods_not_names", "methods_repeated"])
    def test_malformed_spec_exits_nonzero(self, tmp_path, capsys, spec, message):
        """A malformed spec is reported on one error line, never a traceback."""
        config = tmp_path / "scan.json"
        config.write_text(json.dumps(spec))
        assert main(["scan", str(config)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
