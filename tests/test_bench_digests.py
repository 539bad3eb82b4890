"""The seed-0 outputs of both workloads must keep the digests bench/expected.json records."""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from monodromy.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def check_seed0_digests(monkeypatch, workload):
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    expected = json.loads((BENCH / "expected.json").read_text())[workload]
    tasks = workloads.build(workload, 0)
    assert [task.argv for task in tasks] == [e["argv"] for e in expected]
    for task, e in zip(tasks, expected):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(list(task.argv))
        assert (rc, workloads.digest(rc, out.getvalue())) == (e["rc"], e["sha256"]), task.argv


def test_seed0_pipeline_outputs_match_recorded_digests(monkeypatch):
    # the benchmark's digest gate, run in-process: a change to any printed
    # byte of report, homology, act, matrix or basis on these inputs fails here
    check_seed0_digests(monkeypatch, "pipeline")


def test_seed0_verify_output_matches_recorded_digest(monkeypatch):
    # every criterion's verdict and detail text, as `verify` prints them
    check_seed0_digests(monkeypatch, "verify")
