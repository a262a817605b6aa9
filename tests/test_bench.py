"""``tools/bench.py``, the before/after record, runs in its shortest mode.

The tool times two trees with ``tools/interleave.py`` and counts each tree's
Python calls per item; these tests run it on this checkout's ``src``
against itself, one workload and a few items, and check the record's keys,
that two runs count the same calls, and that every committed
``BENCH_*.json`` has the same keys.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROVENANCE = {"base", "new", "cpu_model", "cpus_usable", "python", "numpy", "PYTHONDONTWRITEBYTECODE", "PYTHONHASHSEED",
              "date_utc", "workloads", "seeds", "in_process_items", "in_process_rounds", "count_items", "count_seed"}
TREE = {"arg", "commit", "nvgates_sha256", "nvgates_py_lines"}
PAIR = {"workload", "seed", "items", "rounds", "outputs_differ", "median_new_old", "median_aa_old"}


def check_record(record: dict) -> None:
    assert record.keys() == {"provenance", "in_process", "calls_per_item"}
    prov = record["provenance"]
    assert prov.keys() == PROVENANCE and prov["base"].keys() == prov["new"].keys() == TREE
    pairs = {(pair["workload"], pair["seed"]) for pair in record["in_process"]}
    assert pairs == {(w, s) for w in prov["workloads"] for s in prov["seeds"]}
    for pair in record["in_process"]:
        assert pair.keys() == PAIR and len(pair["rounds"]) == prov["in_process_rounds"]
    assert record["calls_per_item"].keys() == set(prov["workloads"])
    for counts in record["calls_per_item"].values():
        assert counts.keys() == {"base", "new", "repeat_equal"} and counts["repeat_equal"] is True


def test_bench_writes_its_record_and_two_runs_count_the_same_calls(tmp_path):
    records = []
    for run in ("first", "again"):
        out = tmp_path / f"{run}.json"
        argv = [sys.executable, "tools/bench.py", "src", "src", "--workload", "netlist-oneshot", "--seed", "11",
                "--items", "2", "--rounds", "1", "--count-items", "3", "--out", str(out)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"{out}\n"
        records.append(json.loads(out.read_text()))
    for record in records:
        check_record(record)
        (pair,) = record["in_process"]
        assert pair["outputs_differ"] == 0
        prov = record["provenance"]
        assert prov["base"] == prov["new"] and prov["base"]["commit"] is None
        counts = record["calls_per_item"]["netlist-oneshot"]
        assert counts["base"] == counts["new"] > 0
    assert records[0]["calls_per_item"] == records[1]["calls_per_item"]


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_records_have_the_record_keys(path):
    check_record(json.loads(path.read_text()))
