"""Benchmark entry point: one workload, one result line.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 60 --trace 0

``--trace 0`` launches the workload worker a few times for set-up only,
then once to measure; it prints the end-to-end metrics.  ``--trace 1``
launches one traced worker and prints the per-layer metrics.  The last
line of stdout is the JSON result; lines before it are notes for a human.
``--record`` re-records the default-seed output digests (bench/expected.json)
after checking every task against its oracle.

Run it from a source checkout: the package is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_LAUNCHES = 9   # including the measuring launch
DEADLINE_S = 170     # the whole command must end within 180 s


class WorkerError(RuntimeError):
    pass


def launch(args: list[str], deadline: float) -> tuple[float, str]:
    """Run the worker; return launch-to-ready seconds and its last stdout line.

    The worker is killed at `deadline` (a perf_counter reading).
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-s", str(WORKER), *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"worker {args} exited {proc.returncode}")
    lines = rest.splitlines()
    return setup_s, lines[-1] if lines else ""


def metric_spec(key: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def result_line(record: dict, metrics: dict, units: dict) -> str:
    if set(metrics) != set(units):
        raise WorkerError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    correct = record["failed"] == 0 and not record["self_check_missed"]
    return json.dumps({"correct": correct, "attempted": record["attempted"],
                       "failed": record["failed"],
                       "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}})


def bench(args) -> str:
    deadline = perf_counter() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        _, line = launch([*common, "--mode", "trace"], deadline)
        record = json.loads(line)
        layers = dict(record["layers"], **{"host.calib_s": statistics.mean(record["calib_s"])})
        print(f"# spans written to {record['spans_file']}")
        return result_line(record, layers, metric_spec("per_layer"))
    # Set-up launches straddle the measuring launch, so that one slow host
    # phase does not cover all of them.
    setups = [launch([*common, "--mode", "setup"], deadline)[0]
              for _ in range(SETUP_LAUNCHES // 2)]
    setup_s, line = launch([*common, "--mode", "run", "--seconds", str(args.seconds)], deadline)
    setups += [setup_s] + [launch([*common, "--mode", "setup"], deadline)[0]
                           for _ in range(SETUP_LAUNCHES - len(setups) - 1)]
    record = json.loads(line)
    print(f"# {args.workload} seed={args.seed}: {record['passes']} passes, fastest per task "
          f"{[round(t, 4) for t in record['task_s']]} s, sum of per-task medians "
          f"{record['wall_median_s']:.4f} s, host calib before/after "
          f"{[round(c, 4) for c in record['calib_s']]} s")
    for failure in record["failures"] + [f"self-check missed {m}" for m in record["self_check_missed"]]:
        print(f"# FAIL {failure}")
    metrics = {"wall_s": record["wall_s"], "peak_rss_mib": record["peak_rss_mib"],
               "setup_s": statistics.median(setups)}
    return result_line(record, metrics, metric_spec("end_to_end"))


def record_expected() -> None:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    deadline = perf_counter() + DEADLINE_S * len(WORKLOADS)
    expected = {w: json.loads(launch(["--workload", w, "--seed", "0", "--mode", "record"],
                                     deadline)[1])
                for w in WORKLOADS}
    body = ",\n".join(f" {json.dumps(w)}: [\n" + ",\n".join(f"  {json.dumps(e)}" for e in entries)
                      + "\n ]" for w, entries in expected.items())
    (HERE / "expected.json").write_text("{\n" + body + "\n}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "monodromy" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        if args.record:
            record_expected()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        print(bench(args))
    except (WorkerError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
