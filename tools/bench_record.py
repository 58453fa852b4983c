"""Record the benchmark's end-to-end results in BENCH_<pr>.json.

Run from anywhere inside a checkout:

    python tools/bench_record.py --pr 12 --seed 0 --seconds 20

perfbench/run.py runs unchanged with --trace 0, once per workload that
BENCHMARK.json declares, each in its own process.  BENCH_<pr>.json, at
the repository root, holds each workload's last output line (the object
with correct, attempted, failed and metrics), the provenance line that
run.py prints (python, numpy, scipy and BLAS versions, nproc), the seed,
the seconds per workload and the git HEAD (suffixed -dirty when tracked
files differ from it).  The file is written either way; the exit status
is 1 unless every workload reads correct: true with 0 failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
PROVENANCE = "provenance "


def run_workload(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(last-line object, provenance) of one run.py call.  A call that exits
    with an error or prints no result reads correct: false."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    provenance = next((json.loads(line[len(PROVENANCE):]) for line in lines
                       if line.startswith(PROVENANCE)), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "error": f"run.py exited {done.returncode}: "
                                             f"{done.stderr.strip()[-500:]}"}
    return result, provenance


def passed(result: dict) -> bool:
    return result.get("correct") is True and result.get("failed") == 0


def git_head() -> str:
    """The checked-out commit, suffixed -dirty when tracked files differ from it."""
    done = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def record(names: list[str], seed: int, seconds: float, run=run_workload) -> dict:
    """The BENCH record of the named workloads, each run by run()."""
    workloads, provenance = {}, {}
    for name in names:
        workloads[name], provenance = run(name, seed, seconds)
        print(f"{name}: {json.dumps(workloads[name])}", flush=True)
    return {"git_head": git_head(), "provenance": provenance, "seed": seed,
            "seconds": seconds, "workloads": workloads}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, help="names the output, BENCH_<pr>.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    out = record([w["name"] for w in declared], args.seed, args.seconds)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    failing = [name for name, result in out["workloads"].items() if not passed(result)]
    print(f"wrote {path.name}; " + (f"failing: {', '.join(failing)}" if failing
                                    else "every workload correct with 0 failed"))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
