"""Pipeline orchestration: configuration, execution, persistence, scans.

A RunConfig names a Hamiltonian source and a method; run() drives the
stages (load, optional fermion-to-qubit mapping, commuting-subset
extraction, the path's symmetry sectors, then the method itself) and
returns a JSON-native result record.  scan() repeats the pipeline over a geometry coordinate and
collects energy and error columns.  Any stage failure is re-raised as a
StageError naming the stage and the offending input.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

from mczeno.clique import build_graph, greedy_max_clique, mc_hamiltonian
from mczeno.fermion import jordan_wigner, load_fcidump, parity_map
from mczeno.pauli import PauliHamiltonian, _json, load_hamiltonian, save_hamiltonian
from mczeno.path import PathHamiltonian
from mczeno.qae import evolve, step_count
from mczeno.qzp import (
    _check_initial_indices,
    _initial_block,
    _shared_draws,
    zeno_grid,
    zeno_statistics,
)
from mczeno.spectral import (
    path_eigensolutions,
    path_spectrum,
    sector_weights,
    symmetry_sectors,
)

METHODS = ("qae", "qzp", "spectrum", "clique", "scan")
MAPPINGS = ("auto", "none", "jw", "parity")
_SCAN_COLUMNS = {
    "exact": "exact_ground_hartree",
    "qae": "final_energy_hartree",
    "qzp": "best_energy_hartree",
}


class StageError(RuntimeError):
    """A pipeline failure carrying the stage name and the input at fault."""

    def __init__(self, stage: str, source: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed for {source}: {cause}")
        self.stage = stage
        self.source = source
        self.cause = cause


@contextmanager
def _stage(name: str, source: str):
    try:
        yield
    except Exception as exc:
        raise StageError(name, source, exc) from exc


@dataclass(frozen=True)
class RunConfig:
    """One pipeline invocation: source, method, and method parameters.

    Defaults make every parameter set complete; n_steps 20, 1000 trials,
    and the quadratic-driver weight alpha 0 follow the library-wide
    conventions.  The seed is always present so results are reproducible
    by construction.
    """

    source: str
    method: str
    mapping: str = "auto"
    alpha: float = 0.0
    total_time: float = 10.0
    delta_t: float = 0.5
    n_steps: int = 20
    trials: int = 1000
    k: int = 8
    n_points: int = 101
    initial_indices: tuple[int, ...] = (0,)
    seed: int = 0
    output: str | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.mapping not in MAPPINGS:
            raise ValueError(
                f"mapping must be one of {MAPPINGS}, got {self.mapping!r}"
            )
        if not isinstance(self.initial_indices, (list, tuple)):
            raise ValueError("initial_indices must be a list of non-negative integers, "
                             f"got {self.initial_indices!r}")
        object.__setattr__(self, "initial_indices", tuple(self.initial_indices))
        if not self.initial_indices or any(
            not _is_integer(i) or i < 0 for i in self.initial_indices
        ):
            raise ValueError("initial_indices must be non-negative integers, "
                             f"got {self.initial_indices!r}")
        if len(set(self.initial_indices)) < len(self.initial_indices):
            raise ValueError("initial_indices must not repeat an index, "
                             f"got {self.initial_indices!r}")
        if self.method == "qae" and len(self.initial_indices) > 1:
            raise ValueError("initial_indices must hold one index for method 'qae', "
                             f"got {self.initial_indices!r}")
        for name, least in {"n_steps": 1, "trials": 1, "k": 1, "n_points": 2}.items():
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
        for name, relation in {"alpha": ">=", "total_time": ">", "delta_t": ">"}.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not 0 <= value < math.inf or relation == ">" and value == 0:
                raise ValueError(f"{name} must be finite and {relation} 0, got {value}")
        if self.method == "qae":
            step_count(self.total_time, self.delta_t)
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


def _is_integer(value) -> bool:
    """True for an int that is not a bool, which Python counts as one."""
    return isinstance(value, int) and not isinstance(value, bool)


def config_from_dict(data: dict, **overrides) -> RunConfig:
    """Build a RunConfig from parsed config-file data plus overrides."""
    _json(data, dict, "config")
    known = {f.name for f in fields(RunConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    merged = dict(data)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**merged)


def load_qubit_hamiltonian(
    source: str, mapping: str = "auto"
) -> tuple[PauliHamiltonian, str]:
    """Load a qubit Hamiltonian, mapping fermionic sources as needed.

    mapping "auto" treats a .fcidump suffix as a fermionic source (then
    mapped with the Jordan-Wigner transform) and anything else as a
    Pauli text or JSON file; "jw"/"parity" force an FCIDUMP parse with
    that mapping; "none" forces a Pauli file parse.  Returns the
    Hamiltonian and the mapping actually applied.
    """
    if mapping == "auto":
        is_fermionic = os.path.splitext(source)[1].lower() == ".fcidump"
        mapping = "jw" if is_fermionic else "none"
    if mapping == "none":
        return load_hamiltonian(source), "none"
    integrals = load_fcidump(source)
    if mapping == "jw":
        return jordan_wigner(integrals), "jw"
    return parity_map(integrals), "parity"


def _execute(config: RunConfig, methods: tuple[str, ...]):
    """Staged pipeline for the given methods: returns (record, csv text or None)."""
    with _stage("load", config.source):
        h, mapping = load_qubit_hamiltonian(config.source, config.mapping)
    # a start rank out of range fails in its method's stage before any work
    for method, indices in (("qae", config.initial_indices[:1]), ("qzp", config.initial_indices)):
        if method in methods:
            with _stage(method, config.source):
                _check_initial_indices(indices, 1 << h.n_qubits)
    with _stage("clique", config.source):
        clique = greedy_max_clique(build_graph(h))
        mc = mc_hamiltonian(h, clique)
    record = {
        "method": config.method,
        "source": config.source,
        "mapping": mapping,
        "n_qubits": h.n_qubits,
        "seed": config.seed,
    }

    if "clique" in methods:
        record.update(
            {
                "n_terms": len(h.terms),
                "size": len(clique.vertices),
                "weight": float(clique.weight),
                "members": [term.label for term in mc.terms],
            }
        )
        return record, None

    p = PathHamiltonian(
        mc, h, alpha=config.alpha, total_time=config.total_time
    )
    record["alpha"] = config.alpha
    with _stage("path", config.source):
        record["symmetry_sectors"] = [sector.dimension for sector in symmetry_sectors(p)]

    if "spectrum" in methods:
        with _stage("spectrum", config.source):
            spectrum = path_spectrum(p, config.n_points, config.k)
        record.update(
            {
                "k": config.k,
                "n_points": config.n_points,
                "initial_ground_hartree": float(spectrum.levels[0, 0]),
                "final_ground_hartree": float(spectrum.levels[-1, 0]),
                "min_gap_hartree": float(
                    (spectrum.levels[:, 1] - spectrum.levels[:, 0]).min()
                )
                if config.k >= 2
                else None,
            }
        )
        header = ["s", *(f"E{i}_hartree" for i in range(config.k))]
        rows = zip(spectrum.s_values.tolist(), spectrum.levels.tolist())
        return record, _csv(header, ([s, *levels] for s, levels in rows))

    with _stage("exact", config.source):  # H(1), then the H(0) that starts qae and qzp
        final, *initial = path_eigensolutions(p, [1.0] if methods == ("exact",) else [1.0, 0.0])
    exact = final.eigenvalues
    record["exact_ground_hartree"] = float(exact[0])

    if "qae" in methods:
        with _stage("qae", config.source):
            psi0 = _initial_block([config.initial_indices[0]], *initial)[:, 0]
            result = evolve(p, config.delta_t, psi0, final)
        record.update(
            {
                "initial_index": config.initial_indices[0],
                "total_time": config.total_time,
                "delta_t": config.delta_t,
                "step_count": result.step_count,
                "final_energy_hartree": result.final_energy,
                "ground_fidelity": result.ground_fidelity,
                "error_hartree": result.final_energy - float(exact[0]),
                "sector_weights": sector_weights(p, psi0).tolist(),
            }
        )

    if "qzp" not in methods:
        return record, None
    with _stage("qzp", config.source):
        grid = zeno_grid(p, config.n_steps, list(config.initial_indices), (*initial, final))
        distributions = zeno_statistics(grid, config.trials, config.seed)
        weights = sector_weights(p, _initial_block(grid.initial_indices, *initial)).T.tolist()
    best_index = min(min(d.counts) for d in distributions)
    record.update(
        {
            "n_steps": config.n_steps,
            "trials": config.trials,
            "initial_indices": list(config.initial_indices),
            "best_energy_hartree": float(exact[best_index]),
            "distributions": [
                {
                    "initial_index": d.initial_index,
                    "trials": d.trials,
                    "ground_frequency": d.counts.get(0, 0) / d.trials,
                    "counts": [[i, d.counts[i]] for i in sorted(d.counts)],
                    "sector_weights": w,
                }
                for d, w in zip(distributions, weights)
            ],
        }
    )
    return record, _csv(["initial_index", "final_index", "count"], (
        [d.initial_index, i, d.counts[i]] for d in distributions for i in sorted(d.counts)))


def _csv(header: list[str], rows) -> str:
    """CSV text of the header and each row of cells, the cells joined by
    commas through str (a Python float's round-trip repr), each line ended
    by a newline."""
    return "".join(",".join(map(str, cells)) + "\n" for cells in [header, *rows])


def run(config: RunConfig) -> dict:
    """Execute one configured pipeline and return its result record.

    The record is JSON-native; when config.output is set it is written
    there, as CSV if the path ends in .csv (spectrum and qzp only) and
    as a JSON record otherwise.
    """
    if config.method == "scan":
        raise ValueError("scan configs are executed by scan(), not run()")
    record, csv_text = _execute(config, (config.method,))
    if config.output:
        with _stage("write", config.output):
            if config.output.lower().endswith(".csv"):
                if csv_text is None:
                    raise ValueError(
                        f"method {config.method!r} has no CSV form; use .json"
                    )
                with open(config.output, "w") as handle:
                    handle.write(csv_text)
            else:
                save_result(record, config.output)
    return record


def save_result(record: dict, path: str) -> None:
    """Persist a result record as JSON."""
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_result(path: str) -> dict:
    """Re-load a persisted result record."""
    with open(path) as handle:
        return json.load(handle)


@dataclass(frozen=True)
class ScanRow:
    """One geometry point: method energies and deviations from exact."""

    coordinate: float
    status: str
    energies: dict[str, float] = field(default_factory=dict)
    errors: dict[str, float] = field(default_factory=dict)
    message: str = ""  # cause of a failed or missing point; empty when ok


@dataclass(frozen=True)
class ScanResult:
    """Energy-versus-coordinate table for a fixed method selection."""

    methods: tuple[str, ...]
    rows: tuple[ScanRow, ...]


def scan(
    points: list[tuple[float, RunConfig]],
    methods: tuple[str, ...] = ("exact", "qzp"),
) -> ScanResult:
    """Run the pipeline per geometry point and tabulate energies.

    Coordinates must be finite and strictly increasing, no point may set
    an output (the scan's one table is its result), and with qae each
    point's total_time must be a whole number of delta_t steps
    (qae.step_count); all are checked before any point runs.  The exact
    column is the reference; qae reports the evolved final energy and qzp
    the lowest eigenvalue reached over its trials.  A point whose file is
    missing (or whose pipeline fails) is flagged in its row, with the
    cause in its message, and the scan continues.  The points' qzp runs
    that draw for the same seed, trial numbers and steps read one table
    of draws, computed by the first of them and dropped when the scan
    returns.
    """
    if (not methods or not all(isinstance(m, str) and m in _SCAN_COLUMNS for m in methods)
            or len(set(methods)) < len(methods)):
        raise ValueError(f"methods must be a non-empty subset of {sorted(_SCAN_COLUMNS)}, "
                         f"each named once, got {list(methods)!r}")
    if "exact" not in methods:
        raise ValueError("methods must include 'exact' to define error columns")
    coordinates = [c for c, _ in points]
    for c, config in points:
        if not math.isfinite(c):
            raise ValueError(f"scan coordinate {c!r} is not finite")
        if config.output:
            raise ValueError(f"scan point {c!r} sets output {config.output!r}, but a scan "
                             "writes one table and its points none")
        if "qae" in methods:
            try:
                step_count(config.total_time, config.delta_t)
            except ValueError as error:
                raise ValueError(f"scan point {c!r}: {error}") from None
    if any(b <= a for a, b in zip(coordinates, coordinates[1:])):
        raise ValueError("scan coordinates must be strictly increasing")

    rows = []
    with _shared_draws():
        for coordinate, config in points:
            if not os.path.exists(config.source):
                rows.append(ScanRow(coordinate, "missing", message="no such file"))
                continue
            try:
                record, _ = _execute(config, methods)
            except StageError as error:
                status = f"failed: {error.stage}"
                rows.append(ScanRow(coordinate, status, message=str(error)))
                continue
            energies = {m: record[_SCAN_COLUMNS[m]] for m in methods}
            errors = {m: e - energies["exact"] for m, e in energies.items() if m != "exact"}
            rows.append(ScanRow(coordinate, "ok", energies, errors))
    return ScanResult(tuple(methods), tuple(rows))


def scan_csv(result: ScanResult) -> str:
    """CSV rendering: coordinate, per-method Hartree columns, status."""
    error_methods = [m for m in result.methods if m != "exact"]
    header = ["coordinate", *(f"{m}_hartree" for m in result.methods),
              *(f"{m}_error_hartree" for m in error_methods), "status"]
    return _csv(header, (
        [float(row.coordinate), *(row.energies.get(m, "") for m in result.methods),
         *(row.errors.get(m, "") for m in error_methods), row.status] for row in result.rows))


def convert_hamiltonian(source: str, mapping: str, output: str) -> PauliHamiltonian:
    """Map a fermionic integral file to a qubit Hamiltonian file."""
    with _stage("load", source):
        h, _ = load_qubit_hamiltonian(source, mapping)
    with _stage("write", output):
        save_hamiltonian(h, output)
    return h
