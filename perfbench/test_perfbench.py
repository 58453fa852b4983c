"""The benchmark's own tests: python3 -m pytest perfbench"""

import copy
import json
import re
from pathlib import Path

import numpy as np

import run
from layers import counting_eigh
from synthetic import synthetic_hamiltonian
from workloads import DIGEST_TOL, WORKLOADS, load_expected, mismatches

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_metric_names_are_plain_and_unique():
    for kind in ("end_to_end", "per_layer"):
        names = [metric["name"] for metric in BENCHMARK[kind]]
        assert len(names) == len(set(names))
        for name in names:
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    per_layer = {metric["name"] for metric in BENCHMARK["per_layer"]}
    for n_qubits in run.SWEEP_QUBITS:
        for key in ("ham_matrix_s", "eigh_s", "peak_rss_mb"):
            assert f"sweep.{key}.q{n_qubits}" in per_layer


def test_workloads_match_benchmark_json():
    declared = [workload["name"] for workload in BENCHMARK["workloads"]]
    assert declared == list(WORKLOADS)
    assert set(load_expected()) == set(WORKLOADS)


def test_synthetic_inputs_are_deterministic_in_their_seed():
    first = synthetic_hamiltonian(6, seed=3)
    assert first == synthetic_hamiltonian(6, seed=3)
    assert first != synthetic_hamiltonian(6, seed=4)
    assert first != synthetic_hamiltonian(8, seed=3)
    assert first.n_qubits == 6
    assert all((t.x_mask & t.z_mask).bit_count() % 2 == 0 for t in first.terms)


def test_digest_gate_rejects_one_changed_count():
    recorded = load_expected()["h5_qzp"]["result"]
    assert mismatches(copy.deepcopy(recorded), recorded) == []
    changed = copy.deepcopy(recorded)
    changed["counts"][3][1] += 1
    assert mismatches(changed, recorded) == ["digest.counts[3][1]: 17 != 16"]


def test_digest_gate_tolerates_only_tiny_energy_changes():
    recorded = load_expected()["h2_scan"]["result"]
    near = copy.deepcopy(recorded)
    near["rows"][2]["energies"]["qae"] += DIGEST_TOL / 10
    assert mismatches(near, recorded) == []
    far = copy.deepcopy(recorded)
    far["rows"][2]["energies"]["qae"] += DIGEST_TOL * 10
    assert len(mismatches(far, recorded)) == 1
    dropped = copy.deepcopy(recorded)
    del dropped["rows"][0]["errors"]["qzp"]
    assert len(mismatches(dropped, recorded)) == 1


def test_counting_eigh_counts_and_restores():
    original = np.linalg.eigh
    with counting_eigh() as counter:
        np.linalg.eigh(np.eye(3))
        np.linalg.eigh(np.eye(2))
    assert counter["calls"] == 2
    assert counter["seconds"] > 0
    assert np.linalg.eigh is original
