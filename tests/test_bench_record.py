"""tools/bench_record.py: the BENCH_<pr>.json record and its verdict."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_record  # noqa: E402


def fake_run(results):
    def run(name, seed, seconds):
        return results[name], {"numpy": "x", "nproc": 2, "seed": seed}
    return run


def test_record_keeps_each_last_line_and_the_provenance():
    results = {"a": {"correct": True, "attempted": 3, "failed": 0, "metrics": {}},
               "b": {"correct": True, "attempted": 2, "failed": 0, "metrics": {}}}
    out = bench_record.record(["a", "b"], 4, 5.0, run=fake_run(results))
    assert out["workloads"] == results
    assert out["provenance"] == {"numpy": "x", "nproc": 2, "seed": 4}
    assert (out["seed"], out["seconds"]) == (4, 5.0)
    assert out["git_head"]


@pytest.mark.parametrize("result, ok", [
    ({"correct": True, "failed": 0}, True),
    ({"correct": True, "failed": 1}, False),
    ({"correct": False, "failed": 0}, False),
    ({"correct": False, "error": "run.py exited 2"}, False),
])
def test_passed_needs_correct_and_no_failure(result, ok):
    assert bench_record.passed(result) is ok


def test_a_run_that_prints_no_result_reads_incorrect():
    result, provenance = bench_record.run_workload("no_such_workload", 0, 0.1)
    assert result["correct"] is False and "exited 2" in result["error"]
    assert provenance == {}
