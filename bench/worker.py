"""One workload in one fresh interpreter; launched by run.py.

Protocol: after importing the package and generating the inputs the worker
prints ``ready``; the launcher times launch-to-ready as set-up.  In
``setup`` mode it then exits.  In ``run`` and ``trace`` mode it prints one
JSON line with its measurements and exits.  Every task goes through
``monodromy.cli.main(argv)`` in this process with stdout captured.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import monodromy.cli as cli  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
MIN_PASSES = 3
TRACE_PAIRS = 1
CALIB_LOOPS = 1_000_000


def spin() -> float:
    """A fixed pure-Python loop; its time tracks the host's current speed."""
    t0 = perf_counter()
    x = 0
    for i in range(CALIB_LOOPS):
        x = (x * 31 + i) & 0xFFFF
    return perf_counter() - t0


def run_pass(tasks, tracer=None):
    times, results = [], []
    for i, task in enumerate(tasks):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.task = i
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = cli.main(list(task.argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a traceback is a failed task, not a crash
                rc, out = -1, io.StringIO(f"{type(exc).__name__}: {exc}")
            times.append(perf_counter() - t0)
        results.append((rc, out.getvalue()))
    return times, results


def gate(tasks, results, expected):
    """Per-task failure reason (None when the task passes) and missed self-checks."""
    outputs = {(t.kind, t.argv[2]): out for t, (rc, out) in zip(tasks, results)}
    if expected is not None and [e["argv"] for e in expected] != [t.argv for t in tasks]:
        return ["inputs differ from the recorded default-seed inputs"] * len(tasks), []
    digests = [e["sha256"] for e in expected] if expected is not None else [None] * len(tasks)
    reasons = [workloads.check(t, rc, out, outputs, d)
               for t, (rc, out), d in zip(tasks, results, digests)]
    return reasons, workloads.self_check(tasks, results, outputs, expected)


def expected_for(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    return json.loads((HERE / "expected.json").read_text())[workload]


def digests(results):
    return [workloads.digest(rc, out) for rc, out in results]


def measure(tasks, seconds):
    """Repeat the task list for `seconds` (at least MIN_PASSES times).

    Returns the first pass's outputs and each pass's (task times, output
    digests).  Later passes keep only digests, so that peak memory does not
    grow with the number of passes a host manages.
    """
    start = perf_counter()
    times, first = run_pass(tasks)
    passes = [(times, digests(first))]
    while len(passes) < MIN_PASSES or \
            perf_counter() - start + statistics.mean(sum(t) for t, _ in passes) <= seconds:
        times, results = run_pass(tasks)
        passes.append((times, digests(results)))
    return first, passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "run", "trace", "record"), required=True)
    args = ap.parse_args(argv)

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported monodromy from {cli.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    tasks = workloads.build(args.workload, args.seed)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    if args.mode == "record":
        if args.seed != DEFAULT_SEED:
            print("error: record only at the default seed", file=sys.stderr)
            return 2
        _, results = run_pass(tasks)
        reasons, _ = gate(tasks, results, None)
        if any(reasons):
            print(f"error: oracle failures, not recording: {reasons}", file=sys.stderr)
            return 1
        print(json.dumps([{"argv": t.argv, "rc": rc, "sha256": workloads.digest(rc, out)}
                          for t, (rc, out) in zip(tasks, results)]))
        return 0

    expected = expected_for(args.workload, args.seed)
    calib = [spin()]
    if args.mode == "run":
        first, passes = measure(tasks, args.seconds)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        calib.append(spin())
        pass_digests = [d for _, d in passes]
        per_task = [[times[i] for times, _ in passes] for i in range(len(tasks))]
        # On a shared VM the host has slow phases, from seconds to minutes
        # long, that add 30-60 % to every pass; a task's fastest pass in the
        # run is the reading they disturb least.
        task_s = [min(t) for t in per_task]
        record = {"task_s": task_s, "wall_s": sum(task_s),
                  "wall_median_s": sum(statistics.median(t) for t in per_task),
                  "peak_rss_mib": rss_mib}
    else:
        import tracemalloc

        from spans import Tracer

        # Alternate plain and traced passes and keep the faster of each, so a
        # slow host phase does not pass for tracing overhead; the spans come
        # from the faster traced pass.
        first, pass_digests, plain, traced = None, [], [], []
        for _ in range(TRACE_PAIRS):
            times, results = run_pass(tasks)
            first = first or results
            plain.append(times)
            pass_digests.append(digests(results))
            tracer = Tracer()
            tracer.install()
            try:
                times, results = run_pass(tasks, tracer)
            finally:
                tracer.uninstall()
            traced.append((times, tracer))
            pass_digests.append(digests(results))
        tracemalloc.start()
        try:
            _, results = run_pass(tasks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pass_digests.append(digests(results))
        calib.append(spin())
        plain_times = min(plain, key=sum)
        traced_times, tracer = min(traced, key=lambda p: sum(p[0]))
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_file)
        layers = tracer.layer_metrics()
        layers["mem.traced_peak_mib"] = peak / 2**20
        layers["trace.overhead_frac"] = sum(traced_times) / sum(plain_times) - 1
        record = {"task_s": plain_times, "layers": layers,
                  "spans_file": str(spans_file.relative_to(ROOT))}

    # the first pass is gated; every later pass must reproduce it exactly
    reasons, missed = gate(tasks, first, expected)
    reference = pass_digests[0]
    failed = sum(1 for d in pass_digests for i, r in enumerate(reasons)
                 if r or d[i] != reference[i])
    reasons = [r or ("output differs between passes"
                     if any(d[i] != reference[i] for d in pass_digests) else None)
               for i, r in enumerate(reasons)]
    record.update({
        "passes": len(pass_digests),
        "attempted": len(tasks) * len(pass_digests),
        "failed": failed,
        "failures": sorted({f"{tasks[i].argv[0]}#{i}: {r}" for i, r in enumerate(reasons) if r}),
        "self_check_missed": missed,
        "calib_s": calib,
    })
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
