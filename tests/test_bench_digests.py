"""The seed-0 `pipeline` outputs must keep the digests bench/expected.json records."""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from monodromy.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_seed0_pipeline_outputs_match_recorded_digests(monkeypatch):
    # the benchmark's digest gate, run in-process: a change to any printed
    # byte of report, homology, act, matrix or basis on these inputs fails here
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    expected = json.loads((BENCH / "expected.json").read_text())["pipeline"]
    tasks = workloads.build("pipeline", 0)
    assert [task.argv for task in tasks] == [e["argv"] for e in expected]
    for task, e in zip(tasks, expected):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(list(task.argv))
        assert (rc, workloads.digest(rc, out.getvalue())) == (e["rc"], e["sha256"]), task.argv
