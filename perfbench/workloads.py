"""The benchmark's workloads, their recorded result digests, and the gate.

Each workload is a closed loop in one process: the next call starts when
the previous one has returned.  Fixtures and method seeds are part of the
workload, so its result is fixed.  The digests in expected.json were recorded
when the benchmark was introduced; a qzp count that differs, or an energy
that moves by more than 1e-10 Ha, fails the call.

Which per-layer metric should move which end-to-end metric:

- qzp.project_s, qzp.project_gbps: run_s on h5_qzp; no effect on h5_qae,
  which never projects.
- qzp.step_rng_s, qzp.zeno_run_s, qzp.trial_steps: run_s on h2_scan, where
  per-trial Python dominates; under 1% of h5_qzp.
- pauli.ham_matrix_s, path.discretize_s, spectral.eig_s: run_s on h5_qae
  (nearly all of it) and h5_qzp (about half); negligible on h2_scan.
- kernel.eigh_calls, kernel.eigh_s, kernel.eigh_share: run_s on h5_qae and
  h2_scan, where repeated eigensolves show.
- qae.*: run_s on h5_qae.
- fermion.*, clique.*, driver.load_qubit_hamiltonian_s: setup_s on h5_*.
- peak_rss_mb must stay flat when eigensolutions are cached over the grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from mczeno import driver
from mczeno.driver import RunConfig
from mczeno.spectral import eig

DIGEST_TOL = 1e-10
"""Largest energy or probability difference the gate accepts."""

H5 = "h5_chain_sto3g_1.00.fcidump"
H2_POINTS = (
    (0.7414, "h2_sto3g_0.7414.fcidump"),
    (1.2, "h2_sto3g_1.2.fcidump"),
    (2.8, "h2_sto3g_2.8.fcidump"),
)
H5_SETTINGS = {"alpha": 0.5, "n_steps": 10, "trials": 200, "seed": 13,
               "total_time": 10.0, "delta_t": 0.5}
H2_SETTINGS = {"alpha": 0.5, "n_steps": 40, "trials": 1000, "seed": 7,
               "total_time": 10.0, "delta_t": 0.5}
SCAN_METHODS = ("exact", "qae", "qzp")


@dataclass(frozen=True)
class Workload:
    """One fixed workload: fixtures, method and the settings of the path.

    method is "qzp" or "qae" for one driver.run() call, or "scan" for one
    driver.scan() over every point with SCAN_METHODS.  The traced run
    reuses settings for its layer probes on the same fixtures.
    """

    name: str
    method: str
    points: tuple[tuple[float, str], ...]
    settings: dict

    def configs(self, data_dir: Path) -> list[tuple[float, RunConfig]]:
        # scan() ignores RunConfig.method, which must still name a method
        method = "qzp" if self.method == "scan" else self.method
        return [
            (coordinate, RunConfig(source=str(data_dir / fixture), method=method,
                                   initial_indices=(0,), **self.settings))
            for coordinate, fixture in self.points
        ]

    def call(self, configs: list[tuple[float, RunConfig]]):
        """The timed public entry point: driver.run() or driver.scan()."""
        if self.method == "scan":
            return driver.scan(configs, SCAN_METHODS)
        return driver.run(configs[0][1])

    def digest(self, result) -> dict:
        """The counts and energies of a result that the gate compares."""
        if self.method == "scan":
            return {"rows": [
                {"coordinate": row.coordinate, "status": row.status,
                 "energies": dict(row.energies), "errors": dict(row.errors)}
                for row in result.rows
            ]}
        if self.method == "qae":
            keys = ("exact_ground_hartree", "final_energy_hartree",
                    "error_hartree", "ground_fidelity", "step_count")
            return {key: result[key] for key in keys}
        distribution = result["distributions"][0]
        return {
            "exact_ground_hartree": result["exact_ground_hartree"],
            "best_energy_hartree": result["best_energy_hartree"],
            "ground_frequency": distribution["ground_frequency"],
            "counts": distribution["counts"],
        }

    def qzp_trial_steps(self) -> int:
        """Projections one call makes: trials times steps, per qzp point."""
        if self.method == "qae":
            return 0
        return len(self.points) * self.settings["trials"] * self.settings["n_steps"]

    def qae_steps(self) -> int:
        """Adiabatic steps one call makes, over every qae point."""
        if self.method == "qzp":
            return 0
        per_point = round(self.settings["total_time"] / self.settings["delta_t"])
        return len(self.points) * per_point


WORKLOADS = {
    "h5_qzp": Workload("h5_qzp", "qzp", ((1.0, H5),), H5_SETTINGS),
    "h5_qae": Workload("h5_qae", "qae", ((1.0, H5),), H5_SETTINGS),
    "h2_scan": Workload("h2_scan", "scan", H2_POINTS, H2_SETTINGS),
}


def energy_error_hartree(workload: Workload, digest: dict, data_dir: Path) -> float:
    """The method's energy minus the exact ground energy.

    qae: the evolved energy.  h2_scan: the largest error over points and
    methods.  qzp: the mean over trials of the final level's energy, since
    the best level reached is the exact ground level and its error is 0.
    """
    if workload.method == "qae":
        return digest["error_hartree"]
    if workload.method == "scan":
        return max(e for row in digest["rows"] for e in row["errors"].values())
    h, _ = driver.load_qubit_hamiltonian(str(data_dir / workload.points[0][1]))
    levels = eig(h).eigenvalues
    trials = sum(count for _, count in digest["counts"])
    return float(sum(count * (levels[index] - levels[0])
                     for index, count in digest["counts"]) / trials)


def mismatches(actual, expected, path: str = "digest") -> list[str]:
    """Differences between a digest and its record, one line each.

    Floats match within DIGEST_TOL; integers, strings and structure
    must match exactly.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path}: keys {sorted(actual) if isinstance(actual, dict) else actual!r}"
                    f" != {sorted(expected)}"]
        return [line for key in expected
                for line in mismatches(actual[key], expected[key], f"{path}.{key}")]
    if isinstance(expected, list):
        if not isinstance(actual, (list, tuple)) or len(actual) != len(expected):
            return [f"{path}: {actual!r} != {expected!r}"]
        return [line for i, (a, e) in enumerate(zip(actual, expected))
                for line in mismatches(a, e, f"{path}[{i}]")]
    if isinstance(expected, float):
        if (isinstance(actual, (int, float)) and not isinstance(actual, bool)
                and math.isfinite(actual) and abs(actual - expected) <= DIGEST_TOL):
            return []
        return [f"{path}: {actual!r} != {expected!r} (tolerance {DIGEST_TOL})"]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def load_expected() -> dict[str, dict]:
    """The recorded digests, by workload name.

    Per workload, "setup" holds [qubits, qubit terms, clique terms] per
    fixture as the set-up probe reports them, and "result" is
    Workload.digest() of one call.
    """
    with open(Path(__file__).with_name("expected.json")) as handle:
        return json.load(handle)
