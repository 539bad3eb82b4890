"""The golden CLI corpus: every recorded command prints the same bytes and exit code.

tests/golden.json pins, for each argv, the sha256 of stdout, the exact
stderr and the exit code; `record_golden.py` writes it and lists the
commands.  A refactor that keeps the CLI's output leaves this test green.
"""

import json

from record_golden import CAP, GOLDEN, HERE, capture, commands, entry


def test_golden_corpus_lists_the_recorded_commands():
    assert [(e["argv"], e["cell_cap"]) for e in json.loads(GOLDEN.read_text())] == commands()


def test_cli_output_matches_the_golden_corpus(monkeypatch):
    monkeypatch.chdir(HERE)  # fixture paths are relative to tests/
    failures = []
    for want in json.loads(GOLDEN.read_text()):
        if want["cell_cap"] is None:
            monkeypatch.delenv(CAP, raising=False)
        else:
            monkeypatch.setenv(CAP, want["cell_cap"])
        got = entry(want["argv"], want["cell_cap"], capture(want["argv"]))
        if got != want:
            failures.append((want["argv"], want["cell_cap"]))
    assert not failures, failures
