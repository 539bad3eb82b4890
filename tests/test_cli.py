import gc
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from monodromy.cli import _dumps, main
from monodromy.commutators import MAX_LEMMA_TRIALS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rank_text(capsys):
    code, out, _ = run(capsys, "rank", "--groups", "C2,C6")
    assert code == 0
    assert out.strip() == "5"


def test_rank_json(capsys):
    code, out, _ = run(capsys, "rank", "--groups", "C2,C2,C2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"orders": [2, 2, 2], "rank": 5, "schema": 1}


def test_main_leaves_no_cyclic_garbage(capsys):
    # the parser is built on the first call and kept, so a later call leaves
    # nothing that only a full collection would free
    run(capsys, "rank", "--groups", "C2,C3")
    gc.collect()
    assert run(capsys, "rank", "--groups", "C2,C3") == (0, "2\n", "")
    assert gc.collect() == 0


def test_graph_counts_and_dot(capsys):
    code, out, _ = run(capsys, "graph", "--groups", "C2,C3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == 6 and payload["edges"] == 7
    assert payload["betti_one"] == 2

    code, out, _ = run(capsys, "graph", "--groups", "C2,C2", "--emit", "dot")
    assert code == 0
    assert out.startswith("graph fibre {")


def test_basis_listing(capsys):
    code, out, _ = run(capsys, "basis", "--groups", "C2,C3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "algebraic-n2"
    assert payload["symbols"] == ["w[1,1]", "w[1,2]"]
    assert len(payload["witnesses"]) == 2

    code, out, _ = run(capsys, "basis", "--groups", "C2,C2,C2")
    assert code == 0
    assert len(out.strip().splitlines()) == 5


def test_act_images(capsys):
    code, out, _ = run(capsys, "act", "--groups", "C2,C3",
                       "--element", "x1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload["images"]) == {"w[1,1]", "w[1,2]"}
    for img in payload["images"].values():
        assert "w[" in img


def test_act_huge_exponent_is_reduced(capsys):
    # the exponent is reduced modulo the element order, not looped over
    start = time.perf_counter()
    code, out, _ = run(capsys, "act", "--groups", "C8,C3",
                       "--element", "x1^1000000000001")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert (code, out) == run(capsys, "act", "--groups", "C8,C3", "--element", "x1^1")[:2]


def test_matrix_negative_identity(capsys):
    code, out, _ = run(capsys, "matrix", "--groups", "C2,S3",
                       "--element", "s1:x", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    neg_id5 = [[-1 if i == j else 0 for j in range(5)] for i in range(5)]
    assert payload["entries"] == neg_id5
    assert payload["convention"] == "columns-as-images"


def test_matrix_c2_c3_generators(capsys):
    code, out, _ = run(capsys, "matrix", "--groups", "C2,C3",
                       "--element", "x2", "--format", "json")
    assert code == 0
    assert json.loads(out)["entries"] == [[-1, -1], [1, 0]]


def test_report_good_pair(capsys):
    code, out, _ = run(capsys, "report", "--groups", "C2,C3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["faithful"] and payload["schema"] == 1


def test_report_degenerate_pair_fails(capsys):
    code, out, _ = run(capsys, "report", "--groups", "C2,C2", "--format", "json")
    assert code == 1
    assert json.loads(out)["faithful"] is False


def test_report_wrong_arity(capsys):
    code, _, err = run(capsys, "report", "--groups", "C2,C2,C2")
    assert code == 2
    assert "two groups" in err


def test_report_size_guard_names_the_pair(capsys):
    # 101 * 100 = 10100 is over the 10^4 limit on |G| |H|
    code, out, err = run(capsys, "report", "--groups", "C101,C100")
    assert code == 2 and out == ""
    line = err.strip()
    assert line.startswith("error:") and "10100" in line
    assert "101" in line and "100" in line and "10000" in line


def test_lemma_check(capsys):
    code, out, _ = run(capsys, "lemma-check", "--groups", "C3,C4",
                       "--trials", "50", "--seed", "9")
    assert code == 0
    assert "delta-identity: 50/50" in out
    assert "product-expansion: 50/50" in out


def test_lemma_check_rejects_negative_counts(capsys):
    # a usage error (exit 2) naming the flag, not a failed check (exit 1)
    for flag, value in (("--trials", "-5"), ("--depth", "-2")):
        code, out, err = run(capsys, "lemma-check", "--groups", "C3,C4", flag, value)
        assert (code, out) == (2, "")
        assert err == f"error: {flag} must be non-negative, got {value}\n"


def test_lemma_check_caps_trials(capsys):
    # the work is bounded by the cap, not by the number typed
    start = time.perf_counter()
    code, out, err = run(capsys, "lemma-check", "--groups", "C3,C4", "--trials", "100000000")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: --trials must be at most {MAX_LEMMA_TRIALS}, got 100000000\n"


def test_homology_inline_and_file(capsys, tmp_path):
    code, out, _ = run(capsys, "homology", "--groups", "C2,C2,C2",
                       "--complex", "K={1,2;3}", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["betti"] == 3 and payload["torsion"] == []

    p = tmp_path / "k.txt"
    p.write_text("1,2\n2,3\n1,3\n")
    code, out, _ = run(capsys, "homology", "--groups", "C2,C2,C2",
                       "--complex", f"@{p}")
    assert code == 0
    assert "betti=0" in out


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "rank", "--groups", "C2,Q8")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "act", "--groups", "C2,C3", "--element", "x9")
    assert code == 2
    code, _, err = run(capsys, "homology", "--groups", "C2,C3",
                       "--complex", "K={1,2,3}")
    assert code == 2


def test_seed_determinism(capsys):
    _, out1, _ = run(capsys, "report", "--groups", "C3,C4",
                     "--seed", "7", "--format", "json")
    _, out2, _ = run(capsys, "report", "--groups", "C3,C4",
                     "--seed", "7", "--format", "json")
    assert out1 == out2


def test_missing_input_files_exit_2(capsys, tmp_path):
    missing = tmp_path / "nonexistent.json"
    code, out, err = run(capsys, "rank", "--groups", f"table:{missing}")
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(missing) in err
    assert "Traceback" not in err

    missing = tmp_path / "nonexistent"
    code, out, err = run(capsys, "homology", "--groups", "C2,C2",
                         "--complex", f"@{missing}")
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(missing) in err
    assert "Traceback" not in err


def test_malformed_powers_exit_2(capsys):
    # the caret comes exactly when an exponent follows
    for token in ("x1-2", "x1^"):
        code, out, err = run(capsys, "act", "--groups", "C3,C4", "--element", token)
        assert (code, out) == (2, "")
        assert err == f"error: cannot parse word token {token!r}\n"


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["schema"] == 1 and payload["ok"] is False
    names = [c["name"] for c in payload["criteria"]]
    assert len(names) == 10 and names[3] == "4-cyclic-pairs"
    failing = [c for c in payload["criteria"] if not c["ok"]]
    assert failing == [{"name": "4-cyclic-pairs", "ok": False,
                        "detail": "faithfulness fails at (2,2) i=1 j=1"}]


def test_bad_cell_cap_names_the_variable(capsys, monkeypatch):
    for raw in ("abc", "0", "-5", "1.5"):
        monkeypatch.setenv("MONODROMY_CELL_CAP", raw)
        for argv in (("basis", "--groups", "C2,C3,C2", "--basis", "tree"),
                     ("homology", "--groups", "C2,C3", "--complex", "K={1,2}")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == f"error: MONODROMY_CELL_CAP must be a positive integer, got {raw!r}\n"
    monkeypatch.setenv("MONODROMY_CELL_CAP", "5")
    # C3's table of 9 entries is refused before the graph's 6 vertices
    code, _, err = run(capsys, "graph", "--groups", "C2,C3")
    assert code == 2
    assert err == "error: C3 has order 3: its table of order^2 entries exceeds cap 5\n"
    code, _, err = run(capsys, "graph", "--groups", "C2,C2,C2")
    assert code == 2 and err == "error: vertex count 8 exceeds cap 5\n"



def test_table_cap_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("MONODROMY_CELL_CAP", "100")
    code, out, err = run(capsys, "rank", "--groups", "C50")
    assert (code, out) == (2, "")
    assert err == "error: C50 has order 50: its table of order^2 entries exceeds cap 100\n"


def test_matrix_refuses_rank_squared_over_the_cap(capsys, monkeypatch):
    # rank 26,001: the dense matrix would hold 676,052,001 entries
    began = time.perf_counter()
    code, out, err = run(capsys, "matrix", "--basis", "tree", "--groups", "C10,C10,C10,C10",
                         "--element", "x1")
    assert time.perf_counter() - began < 2
    assert (code, out) == (2, "")
    assert err == "error: rank 26001: its matrix of rank^2 = 676052001 entries exceeds cap 1000000\n"
    # the element is parsed first, so a malformed one keeps its own error
    code, out, err = run(capsys, "matrix", "--groups", "C10,C10,C10,C10", "--element", "x9")
    assert (code, out) == (2, "")
    assert err == "error: coordinate 9 out of range in token 'x9'\n"
    monkeypatch.setenv("MONODROMY_CELL_CAP", "16")
    code, out, _ = run(capsys, "matrix", "--groups", "C3,C3", "--element", "x1")  # rank 4
    assert code == 0 and len(out.splitlines()) == 4
    code, out, err = run(capsys, "matrix", "--groups", "C2,C2,C2", "--element", "x1")
    assert (code, out) == (2, "")
    assert err == "error: rank 5: its matrix of rank^2 = 25 entries exceeds cap 16\n"


def test_matrix_refuses_rank_zero_naming_the_groups(capsys):
    # a trivial kernel: the refusal names the rank and the --groups text
    for groups, element in (("C1,C3", "x2"), ("C2", "x1"), ("C1,C1", "e")):
        code, out, err = run(capsys, "matrix", "--basis", "tree", "--groups", groups,
                             "--element", element)
        assert (code, out) == (2, "")
        assert err == f"error: rank 0 for --groups {groups}: a trivial kernel has no matrix\n"


def test_python_m_monodromy_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))

    def python_m(*argv):
        return subprocess.run([sys.executable, "-m", "monodromy", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    done = python_m("rank", "--groups", "C2,C3")
    assert (done.returncode, done.stdout, done.stderr) == (0, "2\n", "")
    done = python_m("rank", "--groups", "C0")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: group item 'C0' needs an index of at least 1 (at position 0)\n"


def test_order_below_one_names_the_group_item(capsys):
    for spec, item, pos in (("C0", "C0", 0), ("C2, S0", "S0", 3), ("C2,C3,D00", "D00", 6)):
        code, out, err = run(capsys, "rank", "--groups", spec)
        assert (code, out) == (2, "")
        assert err == f"error: group item {item!r} needs an index of at least 1 (at position {pos})\n"


def test_commutator_basis_names_the_trivial_factor(capsys):
    # --basis auto picks the commutator basis for two groups; report always does
    for argv, k in ((("act", "--groups", "C1,C3", "--element", "x2"), 1),
                    (("report", "--groups", "C1,C3"), 1),
                    (("report", "--groups", "C3,C1"), 2),
                    (("act", "--groups", "C2,C1", "--element", "x1", "--format", "json"), 2)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == (f"error: the commutator basis needs two nontrivial factors: "
                       f"factor {k} has order 1\n"), argv


TABLE_BODIES = ("5", '"x"', "[]", "not json", '{"order": 2}',
                '{"order": 1, "names": ["1"], "table": 5}',
                '{"order": [1], "names": ["1"], "table": [[0]]}',
                '{"order": 1, "names": 7, "table": [[0]]}',
                '{"order": 1, "names": ["1"], "table": [[0.5]]}',
                '{"order": 1, "names": ["1"], "table": [[0], 3]}',
                '{"order": 9, "names": ["1"], "table": [[0]]}',
                '{"order": 2, "names": ["1", "a"], "table": [[0, 1], [1, 1]]}',
                '{"order": 2, "names": ["1", "a"], "table": [[0, 1], [1, 0]]}')


def test_seeded_parser_fuzz(capsys, monkeypatch, tmp_path):
    """Random group specs, words and complex specs: exit 0, 1 or 2, no traceback."""
    monkeypatch.setenv("MONODROMY_CELL_CAP", "400")
    tables = []
    for k, body in enumerate(TABLE_BODIES):
        path = tmp_path / f"t{k}.json"
        path.write_text(body)
        tables.append(f"table:{path}")
    good = ["C1", "C2", "C3", "C4", "S3", "D2", "D3", " C2 ", "C20", "D10"]
    bad = ["C0", "S0", "D0", "Q8", "C", "C-1", "C2.5", "", "C21", "S4", "D11",
           "C" + "9" * 40, "S" + "9" * 12, "D99999999",
           f"table:{tmp_path / 'missing.json'}"] + tables
    good_tokens = ["x1", "x2^3", "x1^-1", "x2^-7", "x1^99999999999999", "s1:1", "s2:x",
                   "s1:(12)", "s1:r", "e"]
    bad_tokens = ["x0", "x9", "s9:1", "s2:q", "", "x1^", "y2", "x1^x", "s1:", "x1^^2"]
    bad_facets = ["0", "9", "1,,2", "a", "", "-1", "9" * 20]
    commands = ["rank", "graph", "basis", "act", "matrix", "report", "homology", "lemma-check"]
    rng = random.Random(8)

    def pick(k, ok, wrong):
        out = rng.choices(ok, k=k)
        if rng.random() < 0.3:
            out[rng.randrange(k)] = rng.choice(wrong)
        return out

    began = time.perf_counter()
    for _ in range(200):
        cmd = rng.choice(commands)
        n = 2 if cmd == "report" and rng.random() < 0.8 else rng.randint(1, 3)
        argv = [cmd, "--groups", ",".join(pick(n, good, bad))]
        if cmd in ("basis", "act", "matrix"):
            argv += ["--basis", rng.choice(["tree", "algebraic", "auto"])]
        if cmd in ("act", "matrix"):
            argv += ["--element", "*".join(pick(rng.randint(1, 4), good_tokens, bad_tokens))]
        if cmd == "homology":
            faces = [",".join(map(str, rng.sample(range(1, n + 1), rng.randint(1, n))))
                     for _ in range(3)]
            spec = "K={" + ";".join(map(str, range(1, n + 1))) + ";" \
                + ";".join(pick(3, faces, bad_facets)) + "}"
            argv += ["--complex", rng.choice([spec] * 5 + [spec[3:], spec[:-1], "@" + spec])]
        if cmd == "lemma-check":
            argv += ["--trials", rng.choice(["-1", "0", "3", "999999999", "x"]), "--depth", "2"]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert "Traceback" not in out + err, argv
    assert time.perf_counter() - began < 20


def test_lemma_check_json(capsys):
    argv = ["lemma-check", "--groups", "C3,C4", "--trials", "20", "--depth", "3", "--seed", "9"]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"delta_identity": {"passed": 20, "total": 20},
                               "product_expansion": {"passed": 20, "total": 20},
                               "magnus_weights": {"passed": 3, "total": 3},
                               "schema": 1}
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (0, "delta-identity: 20/20\nproduct-expansion: 20/20\n"
                              "magnus-weights (k<= 3): 3/3\n")


JSON_COMMANDS = [
    ("rank", "--groups", "C2,C3,C4"),
    ("graph", "--groups", "S3,C2"),
    ("basis", "--groups", "C3,C4", "--basis", "algebraic"),
    ("basis", "--groups", "S3,C2,C2", "--basis", "tree"),
    ("act", "--groups", "S3,C4", "--element", "s1:(12)*x2"),
    ("act", "--groups", "C3,C2,C2", "--element", "x1*x3", "--basis", "tree"),
    ("matrix", "--groups", "C2,C3", "--element", "x1*x2"),
    ("matrix", "--groups", "C3,C3,C2", "--element", "x1*x2", "--basis", "tree"),
    ("report", "--groups", "S3,C2"),
    ("report", "--groups", "C2,C2"),
    ("lemma-check", "--groups", "C3,C4", "--trials", "10", "--depth", "3"),
    ("homology", "--groups", "C3,C3,C2", "--complex", "K={1,2;3}"),
    ("verify",),
]


def test_json_output_is_the_stdlib_encoding(capsys):
    # every subcommand prints what json.dumps(indent=2, sort_keys=True) prints
    for argv in JSON_COMMANDS:
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code in (0, 1) and err == "", argv
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv


def test_dumps_matches_stdlib_on_edge_cases():
    payloads = [
        {}, [], {"a": {}, "b": []}, [[]], [[1, 2], [3, [4, [5, []]]]],
        [1, True, 0, False], [True, False], [-1, 0, -2**70, 2**64, 2**64 + 1],
        None, {"none": None, "list": [None, 1, "x"]}, 3, -0, True, "",
        ["caf\u00e9", "\u2603 snow", "quote \" and back\\slash", "\x00\x1f\t\n\r\x7f"],
        {"\u00e9": 1, "\"q\"": [2], "b\\": {"\n": "\x01"}, "A": 1.5, "a": [0.1, -2.5e-10]},
        {"z": 1, "a": 2, "M": 3, "_": 4, "10": 5, "9": 6},
        ("tuple", 1, (2, 3)), {"t": ()}, [1.0, 2], [float("inf")],
        # int lists print each run of zeros at once
        [0] * 7, [0], [3, -1, 2], [0, 0, 5, 0, -3, 0, 0], [-4, 0, 0, -1], [0, 0, 9],
        [10**30, 0, -10**30, 0], (0, 0, 4, 0), [[0, 0], [0, 1], [2, 0]], {"z": [0, 0]},
        [0, True, 0, False, 0], [True, 0], [False, 0, 1],
    ]
    for value in payloads:
        assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True), value
    rng = random.Random(40)
    for _ in range(300):
        value = [rng.choice((0, 0, 0, 1, -1, rng.randint(-10**20, 10**20)))
                 for _ in range(rng.randrange(1, 30))]
        assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True), value
        assert _dumps([value]) == json.dumps([value], indent=2, sort_keys=True), value
    for bad in ({1: "x"}, {"a": {None: 1}}, [{(1, 2): 3}], {True: 1}):
        with pytest.raises(TypeError):
            _dumps(bad)
