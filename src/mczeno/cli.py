"""Command-line entry points for the simulation pipeline.

Subcommands mirror the library: ham converts integral files to qubit
Hamiltonians, clique reports the maximum commuting subset, spectrum
tabulates levels along the interpolation path, qae and qzp run the two
evolution methods, and scan sweeps a geometry coordinate over
pre-generated per-point files.  A JSON config file may supply any run
parameter; command-line flags override it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from mczeno.driver import (
    MAPPINGS,
    RunConfig,
    StageError,
    config_from_dict,
    convert_hamiltonian,
    run,
    scan,
    scan_csv,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("source", help="Pauli text/JSON file or FCIDUMP")
    parser.add_argument("--config", help="JSON file with run parameters")
    parser.add_argument("--mapping", choices=MAPPINGS)
    parser.add_argument("--alpha", type=float, help="transverse driver weight")
    parser.add_argument("--seed", type=int, help="random seed (default 0)")
    parser.add_argument("-o", "--output", help="result file (.json or .csv)")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mczeno",
        description="Commuting-subset initial Hamiltonians with adiabatic "
        "or projection-driven evolution to the molecular ground state.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ham = sub.add_parser("ham", help="convert an FCIDUMP to a qubit Hamiltonian")
    ham.add_argument("source", help="FCIDUMP file")
    ham.add_argument("--mapping", choices=["jw", "parity"], default="jw")
    ham.add_argument("-o", "--output", required=True, help="Pauli file to write")

    clique = sub.add_parser("clique", help="report the maximum commuting subset")
    _add_common(clique)

    spectrum = sub.add_parser("spectrum", help="levels along the path, as CSV")
    _add_common(spectrum)
    spectrum.add_argument("--k", type=int, help="number of levels (default 8)")
    spectrum.add_argument(
        "--points", type=int, dest="n_points", help="s samples (default 101)"
    )

    qae = sub.add_parser("qae", help="discretized adiabatic evolution")
    _add_common(qae)
    qae.add_argument("--T", type=float, dest="total_time", help="total time")
    qae.add_argument("--dt", type=float, dest="delta_t", help="step length")

    qzp = sub.add_parser("qzp", help="projection-driven evolution")
    _add_common(qzp)
    qzp.add_argument("--steps", type=int, dest="n_steps", help="path steps")
    qzp.add_argument("--trials", type=int, help="trials per initial state")
    qzp.add_argument(
        "--initial", help="comma-separated initial eigenstate ranks (default 0)"
    )

    scan_cmd = sub.add_parser("scan", help="energy curve over a geometry scan")
    scan_cmd.add_argument("config", help="JSON scan description")
    scan_cmd.add_argument("--seed", type=int, help="random seed override")
    scan_cmd.add_argument("-o", "--output", help="CSV file to write")
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    keys = {f.name for f in fields(RunConfig)} - {"source", "method"}
    out = {k: v for k, v in vars(args).items() if k in keys and v is not None}
    if getattr(args, "initial", None) is not None:
        out["initial_indices"] = tuple(
            int(part) for part in args.initial.split(",") if part.strip()
        )
    return out


def _run_method(args: argparse.Namespace) -> int:
    data = {}
    if args.config:
        with open(args.config) as handle:
            data = json.load(handle)
    config = config_from_dict(
        data, source=args.source, method=args.command, **_overrides(args)
    )
    record = run(config)
    _report(record, config.output)
    return 0


def _report(record: dict, output: str | None) -> None:
    method = record["method"]
    if method == "clique":
        print(
            f"commuting subset: weight {record['weight']!r}, "
            f"{record['size']} of {record['n_terms']} terms"
        )
        print("members: " + " ".join(record["members"]))
    elif method == "spectrum":
        gap = record["min_gap_hartree"]
        print(
            f"spectrum: {record['n_points']} points, k={record['k']}, "
            f"ground {record['initial_ground_hartree']!r} -> "
            f"{record['final_ground_hartree']!r} Ha"
            + (f", min gap {gap!r} Ha" if gap is not None else "")
        )
    elif method == "qae":
        print(
            f"qae: final energy {record['final_energy_hartree']!r} Ha, "
            f"error {record['error_hartree']:.3e} Ha, "
            f"ground fidelity {record['ground_fidelity']:.6f}"
        )
    elif method == "qzp":
        for dist in record["distributions"]:
            print(
                f"qzp initial {dist['initial_index']}: "
                f"ground frequency {dist['ground_frequency']:.3f} "
                f"over {dist['trials']} trials"
            )
        print(
            f"best energy {record['best_energy_hartree']!r} Ha "
            f"(exact ground {record['exact_ground_hartree']!r} Ha)"
        )
    if output:
        print(f"wrote {output}")


def _json(value, kind: type, what: str):
    """value, or a ValueError naming what unless it is a JSON object or array."""
    if not isinstance(value, kind):
        name = "object" if kind is dict else "array"
        raise ValueError(f"{what} must be a JSON {name}, got {value!r}")
    return value


def _run_scan(args: argparse.Namespace) -> int:
    with open(args.config) as handle:
        spec = _json(json.load(handle), dict, "scan spec")
    methods = tuple(_json(spec.get("methods", ["exact", "qzp"]), list, "scan methods"))
    defaults = _json(spec.get("defaults", {}), dict, "scan defaults")
    base = os.path.dirname(os.path.abspath(args.config))
    points = []
    for position, entry in enumerate(_json(spec.get("points", []), list, "scan points")):
        data = {**defaults, **_json(entry, dict, f"scan point {position}")}
        for key in ("coordinate", "source"):
            if key not in data:
                raise ValueError(f"scan point {position} has no {key!r}")
        data.setdefault("method", "scan")
        overrides = {"seed": args.seed} if args.seed is not None else {}
        try:
            coordinate = float(data.pop("coordinate"))
            if not os.path.isabs(data["source"]):
                data["source"] = os.path.join(base, data["source"])
            points.append((coordinate, config_from_dict(data, **overrides)))
        except (TypeError, ValueError) as error:
            raise ValueError(f"scan point {position}: {error}") from None
    result = scan(points, methods)
    text = scan_csv(result)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        print(text, end="")
    for row in result.rows:  # to stderr when the CSV itself is on stdout
        cause = f" ({row.message})" if row.message else ""
        report = sys.stdout if args.output else sys.stderr
        print(f"{row.coordinate!r}: {row.status}{cause}", file=report)
    if args.output:
        print(f"wrote {args.output}")
    return 0 if any(row.status == "ok" for row in result.rows) else 1


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "ham":
            h = convert_hamiltonian(args.source, args.mapping, args.output)
            print(f"wrote {len(h.terms)} terms ({args.mapping}) to {args.output}")
            return 0
        if args.command == "scan":
            return _run_scan(args)
        return _run_method(args)
    except (StageError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
