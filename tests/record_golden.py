"""Record the golden CLI corpus, tests/golden.json.

Each command runs in-process through `monodromy.cli.main`, from this
directory, so fixture paths are relative and every error line that names
one reads the same in any checkout.  An entry holds the argv, the
MONODROMY_CELL_CAP it runs under (null: unset), the sha256 of stdout, the
exact stderr and the exit code.  Recording refuses if any command raises:
a traceback is never part of the CLI's contract.  A re-record changes
pinned test data, so name each changed argv and why when you commit it.

    PYTHONPATH=src python tests/record_golden.py
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from monodromy.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
CAP = "MONODROMY_CELL_CAP"


def _forms(*argv):
    """The command in text and in JSON."""
    return [list(argv), [*argv, "--format", "json"]]


def commands() -> list[tuple[list[str], str | None]]:
    """(argv, cell cap) for every corpus entry, in order."""
    ok: list[list[str]] = []
    for groups in ("C2,C6", "C1,C3", "S3,D4", "C2,C2,C2,C2", "C1,C2,C1,C3"):
        ok += _forms("rank", "--groups", groups)
    ok.append(["rank", "--groups", "table:fixtures/c2_table.json,C3"])
    for groups in ("C2,C3", "C1,C2,C3", "S3,D4", "C2,C2,C2,C2"):
        ok += _forms("graph", "--groups", groups)
    ok += [["graph", "--groups", "C2,C2", "--emit", "dot"],
           ["graph", "--groups", "C1,C3,C2", "--emit", "dot"],
           # names with a quote and a backslash, escaped in the DOT labels
           ["graph", "--groups", "table:fixtures/quoted_names.json,C2", "--emit", "dot"]]
    for groups, basis in (("C2,C3", "algebraic"), ("C2,C3", "tree"), ("S3,C2", "auto"),
                          ("S3,C2", "tree"), ("D4,C2", "algebraic"), ("C1,C3,C2", "tree"),
                          ("C2,C2,C2,C2", "auto"), ("table:fixtures/c2_table.json,C3", "tree"),
                          # C3 named 1, x^2, x: names that read back only as s1:<name>
                          ("table:fixtures/c3_x_names.json,C2", "tree")):
        ok += _forms("basis", "--groups", groups, "--basis", basis)
    for groups, element, basis in (
            ("C2,C3", "x1", "algebraic"), ("C2,C3", "x2", "tree"), ("C2,C3", "e", "auto"),
            ("S3,C4", "s1:(12)*x2", "algebraic"), ("S3,C4", "s1:(123)*x2^-1", "tree"),
            ("D4,C3", "s1:rs*x2", "tree"), ("D4,C3", "s1:r^3*x2*s1:s", "algebraic"),
            ("C1,C3,C2", "x2*x3", "tree"), ("C2,C2,C2,C2", "x1*x4*x2", "tree"),
            ("C8,C3", "x1^99999999999999", "auto"),
            ("table:fixtures/c2_table.json,C3", "s1:a*x2", "tree"),
            ("table:fixtures/c3_x_names.json,C2", "s1:x*x2*s1:x^2", "tree"),
            # ending in coordinate 1, a kernel element, and rank 0 (a blank line)
            ("C4,C3,C2", "x2*x3*x1", "tree"), ("C3,C3", "x1*x2*x1^-1*x2^-1", "tree"),
            ("D4,C3,C2", "s1:rs*x3*s1:r", "tree"), ("C1,C2", "x2", "tree")):
        ok += _forms("act", "--groups", groups, "--element", element, "--basis", basis)
    for groups, element, basis in (
            ("C2,C3", "x1", "auto"), ("C2,C3", "x2", "tree"), ("C3,C3", "x1*x2", "algebraic"),
            ("S3,D4", "s1:(13)*s2:rs", "auto"), ("S3,C2", "s1:(132)", "tree"),
            ("C1,C3,C2", "x2*x3", "tree"), ("C2,C2,C2,C2", "x1*x3", "tree"),
            ("C3,C3,C3", "x1*x2^2*x3", "tree")):
        ok += _forms("matrix", "--groups", groups, "--element", element, "--basis", basis)
    for groups, seed in (("C2,C3", "0"), ("C3,C4", "7"), ("C2,C2", "0"), ("S3,C2", "0"),
                         ("D4,C3", "3"), ("S3,D4", "0")):
        ok += _forms("report", "--groups", groups, "--seed", seed)
    for groups, trials, depth in (("C3,C4", "30", "5"), ("C2,C3,C2", "20", "3"),
                                  ("S3,C2", "10", "9")):
        ok += _forms("lemma-check", "--groups", groups, "--trials", trials, "--depth", depth)
    for groups, spec in (("C2,C2,C2", "K={1,2;3}"), ("C2,C2,C2", "K={1;2;3}"),
                         ("S3,D4", "K={1;2}"), ("C2,C2,C2,C2", "K={1,2,3,4}"),
                         ("C1,C2,C3", "K={1,2;2,3}"), ("C2,C2,C2", "@fixtures/k_triangle.txt"),
                         ("C3,C2,C2,C2", "@fixtures/k_edge_and_points.txt")):
        ok += _forms("homology", "--groups", groups, "--complex", spec)
    ok += _forms("verify")

    refused = [
        ["rank", "--groups", "C2,Q8"], ["rank", "--groups", "C0"],
        ["rank", "--groups", "C2, S0"], ["rank", "--groups", "C2,C3,D00"],
        ["rank", "--groups", ""], ["rank", "--groups", "S" + "9" * 12],
        ["rank", "--groups", "C" + "9" * 5000],
        ["rank", "--groups", "table:fixtures/missing.json"],
        ["rank", "--groups", "table:fixtures/not_a_group.json"],
        ["rank", "--groups", "table:fixtures/not_json.json"],
        ["rank", "--groups", "table:fixtures/missing_field.json"],
        # names a word cannot read back: a duplicate, one with '*', one with spaces
        ["rank", "--groups", "table:fixtures/duplicate_names.json"],
        ["rank", "--groups", "table:fixtures/star_name.json"],
        ["rank", "--groups", "table:fixtures/spaced_name.json"],
        ["act", "--groups", "C2,C3", "--element", "x9"],
        ["act", "--groups", "C2,C3", "--element", "x1-2"],
        ["act", "--groups", "C3,C4", "--element", "x1^"],
        ["act", "--groups", "C3,C4", "--element", "s1:q"],
        ["act", "--groups", "C1,C3", "--element", "x1"],
        ["act", "--groups", "C1,C3", "--element", "x2"],
        ["act", "--groups", "C2,C1", "--element", "x1", "--format", "json"],
        ["act", "--groups", "C2,C2,C2", "--element", "x1", "--basis", "algebraic"],
        ["act", "--groups", "C3,C4", "--element", "x1^" + "9" * 5000],
        ["matrix", "--basis", "tree", "--groups", "C1,C3", "--element", "x2"],
        ["matrix", "--groups", "C2", "--element", "x1"],
        ["matrix", "--groups", "C10,C10,C10,C10", "--element", "x1", "--basis", "tree"],
        ["matrix", "--groups", "C10,C10,C10,C10", "--element", "x9"],
        ["report", "--groups", "C2,C2,C2"], ["report", "--groups", "C3"],
        ["report", "--groups", "C1,C3"], ["report", "--groups", "C3,C1"],
        ["report", "--groups", "C101,C100"],
        ["lemma-check", "--groups", "C3,C4", "--trials", "-5"],
        ["lemma-check", "--groups", "C3,C4", "--depth", "-2"],
        ["lemma-check", "--groups", "C3,C4", "--trials", "100000000"],
        ["homology", "--groups", "C2,C3", "--complex", "K={1,2,3}"],
        ["homology", "--groups", "C2,C2", "--complex", "K={1;2;1,x}"],
        ["homology", "--groups", "C2,C2", "--complex", "K={1;2;1," + "9" * 5000 + "}"],
        ["homology", "--groups", "C2,C2", "--complex", "K={1;2;x" + "9" * 5000 + "}"],
        ["homology", "--groups", "C2,C2", "--complex", "K={+1;2}"],
        ["homology", "--groups", "C2,C2", "--complex", "K={1;0_2}"],
        ["homology", "--groups", "C2,C2", "--complex", "K={\u0661;\u0662}"],
        ["homology", "--groups", "C2,C2", "--complex", "@fixtures/k_bad_vertex.txt"],
        ["homology", "--groups", "C2,C2", "--complex", "@fixtures/k_non_integer.txt"],
        ["homology", "--groups", "C2,C2", "--complex", "@fixtures/missing.txt"],
        # each typed value, or count computed from one, echoed cut to 20 characters
        ["homology", "--groups", "C2,C2", "--complex", "K={1;2;1," + "9" * 4000 + "}"],
        ["homology", "--groups", "C2,C2", "--complex", "K={1;2;-" + "9" * 4000 + "}"],
        ["rank", "--groups", "Q" * 40], ["rank", "--groups", "C" + "0" * 40],
        ["rank", "--groups", "C" + "9" * 40], ["rank", "--groups", "S" + "9" * 40],
        ["rank", "--groups", "D" + "9" * 40],
        ["rank", "--groups", "table:fixtures/order_over_cap.json"],
        ["act", "--groups", "C2,C3", "--element", "s1:" + "Q" * 40],
        ["act", "--groups", "C2,C3", "--element", "Q" * 40],
        ["act", "--groups", "C2,C3", "--element", "x" + "9" * 40],
        ["lemma-check", "--groups", "C3,C4", "--trials", "-" + "9" * 40],
        ["lemma-check", "--groups", "C3,C4", "--depth", "-" + "9" * 40],
        ["lemma-check", "--groups", "C3,C4", "--trials", "9" * 40],
        ["report", "--groups", ",".join(["C2"] * 8)],
        ["matrix", "--groups", ",".join(["C1"] * 8), "--element", "e"],
        ["homology", "--groups", ",".join(["C2"] * 12), "--complex", "K={1}"],
        ["matrix", "--groups", ",".join(["C2"] * 80), "--element", "x1"],
        ["graph", "--groups", ",".join(["C2"] * 70)],
        ["homology", "--groups", ",".join(["C100"] * 12),
         "--complex", "K={" + ";".join(map(str, range(1, 13))) + "}"],
        # counts, a rank and an order of more digits than str() writes
        ["graph", "--groups", ",".join(["C8"] * 5000)],
        ["matrix", "--groups", ",".join(["C8"] * 5000), "--element", "x1"],
        ["homology", "--groups", ",".join(["C8"] * 5000),
         "--complex", "K={" + ";".join(map(str, range(1, 5001))) + "}"],
        ["rank", "--groups", ",".join(["C8"] * 5000)],
        ["rank", "--groups", "D" + "9" * 4300],
    ]
    capped = [
        (["graph", "--groups", "C2,C3"], "5"), (["graph", "--groups", "C2,C2,C2"], "5"),
        (["rank", "--groups", "C50"], "100"), (["rank", "--groups", "S4"], "100"),
        (["rank", "--groups", "D8"], "100"),
        (["basis", "--groups", "C2,C3,C2", "--basis", "tree"], "abc"),
        (["homology", "--groups", "C2,C3", "--complex", "K={1,2}"], "0"),
        (["matrix", "--groups", "C3,C3", "--element", "x1"], "16"),
        (["matrix", "--groups", "C2,C2,C2", "--element", "x1"], "16"),
        (["homology", "--groups", "C3,C3,C3", "--complex", "K={1,2,3}"], "20"),
        (["rank", "--groups", "table:fixtures/c2_table.json,C2"], "3"),
        (["rank", "--groups", "C2"], "x" * 40), (["rank", "--groups", "C" + "9" * 40], "9" * 30),
    ]
    return [(argv, None) for argv in ok + refused] + capped


def capture(argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def entry(argv: list[str], cap: str | None, result: tuple[int, str, str]) -> dict:
    code, out, err = result
    return {"argv": argv, "cell_cap": cap, "exit": code, "stderr": err,
            "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()}


def record() -> list[dict]:
    os.chdir(HERE)
    saved = os.environ.pop(CAP, None)
    entries = []
    try:
        for argv, cap in commands():
            if cap is not None:
                os.environ[CAP] = cap
            try:
                result = capture(argv)
            except (Exception, SystemExit) as exc:  # argparse exits on a usage error
                raise SystemExit(f"refusing to record: {argv} raised {exc!r}") from exc
            finally:
                os.environ.pop(CAP, None)
            if "Traceback" in result[1] + result[2]:
                raise SystemExit(f"refusing to record: {argv} printed a traceback")
            entries.append(entry(argv, cap, result))
    finally:
        if saved is not None:
            os.environ[CAP] = saved
    return entries


if __name__ == "__main__":
    entries = record()
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"recorded {len(entries)} commands to {GOLDEN}", file=sys.stderr)
