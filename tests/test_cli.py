import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from monodromy import cli
from monodromy.action import (Automorphism, act_word, algebraic_basis, outer_representative,
                              tree_basis)
from monodromy.cli import _dumps, _join_ints, _rows_json, _rows_text, _sparse_rows, main
from monodromy.commutators import MAX_LEMMA_TRIALS
from monodromy.fibre import build_fibre_graph
from monodromy.groups import parse_group_spec
from monodromy.intmatrix import IntMatrix, abelianize, determinant
from monodromy.words import (empty_word, format_word, parse_word, project, random_kernel_word,
                             random_word)
from oracles import pretty


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


def test_report_arity_error_names_its_input(capsys):
    for spec, count in (("C2,C2,C2", 3), ("C3", 1)):
        assert run(capsys, "report", "--groups", spec) == (
            2, "", f"error: report needs exactly two groups, got {count} from --groups {spec}\n")


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


def test_non_integer_facet_vertex_names_the_complex(capsys, tmp_path):
    assert run(capsys, "homology", "--groups", "C2,C2", "--complex", "K={1;2;1,x}") == (
        2, "", "error: facet '1,x' of complex spec 'K={1;2;1,x}' has a non-integer vertex\n")
    p = tmp_path / "k.txt"
    p.write_text("1\n2\n1, x\n")
    assert run(capsys, "homology", "--groups", "C2,C2", "--complex", f"@{p}") == (
        2, "", f"error: {p}: facet '1, x' of complex spec '{{1;2;1, x}}' has a non-integer "
               "vertex\n")


def test_long_facet_and_spec_are_echoed_cut(capsys, tmp_path):
    # each echo is cut to 20 characters and '...'; an @file keeps its whole path
    spec = "K={1;2;x" + "9" * 5000 + "}"
    line = ("facet 'x9999999999999999999...' of complex spec 'K={1;2;x999999999999...' has a "
            "non-integer vertex")
    assert run(capsys, "homology", "--groups", "C2,C2", "--complex", spec) == (
        2, "", f"error: {line}\n")
    p = tmp_path / "k.txt"
    p.write_text("1\n2\nx" + "9" * 5000 + "\n")
    assert run(capsys, "homology", "--groups", "C2,C2", "--complex", f"@{p}") == (
        2, "", f"error: {p}: facet 'x9999999999999999999...' of complex spec "
               "'{1;2;x99999999999999...' has a non-integer vertex\n")
    assert run(capsys, "homology", "--groups", "C2,C2", "--complex", "K={1;2" + "3" * 5000) == (
        2, "", "error: cannot parse complex spec 'K={1;233333333333333...'\n")


def test_facet_vertex_grammar_keeps_minus_and_whitespace(capsys):
    # a vertex is -?[0-9]+ after stripping (the golden corpus pins '+1', '0_2' and
    # Arabic-Indic digits refused): a minus still reaches the range check
    assert run(capsys, "homology", "--groups", "C2,C2", "--complex", "K={-1;2}") == (
        2, "", "error: vertex -1 out of range 1..2\n")
    code, out, err = run(capsys, "homology", "--groups", "C2,C2", "--complex", "K={ 1 ;\t2 }")
    assert (code, err) == (0, "") and "betti=" in out


def test_complex_file_errors_name_the_file(capsys, tmp_path):
    # every error about a complex file's contents starts with its path
    cases = [("1\n2\n1,3\n", "complex names vertex 3 but only 2 coordinates exist"),
             ("1\n2\n1,x\n", "facet '1,x' of complex spec '{1;2;1,x}' has a non-integer vertex"),
             ("1\n}\n", "facet '}' of complex spec '{1;}}' has a non-integer vertex")]
    for k, (body, message) in enumerate(cases):
        p = tmp_path / f"k{k}.txt"
        p.write_text(body)
        assert run(capsys, "homology", "--groups", "C2,C2", "--complex", f"@{p}") == (
            2, "", f"error: {p}: {message}\n")
    p = tmp_path / "binary.txt"
    p.write_bytes(b"\xff\xfe1\n")
    code, out, err = run(capsys, "homology", "--groups", "C2,C2", "--complex", f"@{p}")
    assert (code, out) == (2, "") and err.startswith(f"error: {p}: ")


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



def test_cayley_table_errors_name_the_file(capsys, tmp_path):
    cases = (("order: 2\n", "Expecting value: line 1 column 1 (char 0)"),
             (json.dumps({"order": 2, "names": ["1", "a"], "table": [[0, 1], [1, 1]]}),
              "inverse: element 1 lacks a unique two-sided inverse"))
    for k, (body, message) in enumerate(cases):
        path = tmp_path / f"table{k}.json"
        path.write_text(body)
        code, out, err = run(capsys, "rank", "--groups", f"C2,table:{path}")
        assert (code, out) == (2, "")
        assert err == f"error: cayley table file {path}: {message}\n"


def test_table_cap_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("MONODROMY_CELL_CAP", "100")
    code, out, err = run(capsys, "rank", "--groups", "C50")
    assert (code, out) == (2, "")
    assert err == "error: C50 has order 50: its table of order^2 entries exceeds cap 100\n"


def test_loaded_table_is_refused_over_the_cap_before_it_is_checked(capsys, tmp_path):
    # C1001's table holds 1,002,001 entries, over the default cap of 10^6
    n, path = 1001, tmp_path / "c1001.json"
    path.write_text(json.dumps({"order": n, "names": ["1"] + [f"x^{k}" for k in range(1, n)],
                                "table": [[(a + b) % n for b in range(n)] for a in range(n)]}))
    code, out, err = run(capsys, "rank", "--groups", f"table:{path},C2")
    assert (code, out) == (2, "")
    assert err == (f"error: cayley table file {path}: order 1001: its table of order^2 entries "
                   "exceeds cap 1000000\n")


def test_huge_exponent_is_refused_with_its_token(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "act", "--groups", "C3,C4", "--element", "x1^" + "9" * 5000)
    assert (code, out) == (2, "")
    assert err == (f"error: exponent in token 'x1^99999999999999999...' has 5000 digits, "
                   f"over the limit of {limit}\n")


def test_huge_group_index_is_refused_with_its_item(capsys):
    limit = sys.get_int_max_str_digits()
    for kind in "CSD":
        code, out, err = run(capsys, "rank", "--groups", "C2," + kind + "9" * 5000)
        assert (code, out) == (2, "")
        assert err == (f"error: index of --groups item '{kind}9999999999999999999...' has 5000 "
                       f"digits, over the limit of {limit}\n")


def test_huge_facet_vertex_is_refused_with_its_digit_count(capsys, tmp_path):
    limit = sys.get_int_max_str_digits()
    message = (f"complex vertex '99999999999999999999...' has 5000 digits, "
               f"over the limit of {limit}\n")
    assert run(capsys, "homology", "--groups", "C2,C2",
               "--complex", "K={1;2;1, " + "9" * 5000 + "}") == (2, "", "error: " + message)
    assert run(capsys, "homology", "--groups", "C2,C2",
               "--complex", "K={1;2;x,-" + "9" * 5000 + "}") == (
        2, "", "error: " + message.replace("'9", "'-"))
    p = tmp_path / "k.txt"
    p.write_text("1\n2\n1," + "9" * 5000 + "\n")
    assert run(capsys, "homology", "--groups", "C2,C2", "--complex", f"@{p}") == (
        2, "", f"error: {p}: {message}")


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


def test_every_refusal_line_is_bounded(capsys, monkeypatch):
    # each typed value, and each count computed from one, is echoed cut (`groups.clip`),
    # so a refusal is one short line however long its input; paths stay whole
    monkeypatch.chdir(Path(__file__).parent)  # a short fixture path
    nines, qs = "9" * 4000, "Q" * 5000
    twos, ones, eights = (",".join([g] * 5000) for g in ("C2", "C1", "C8"))
    hundreds = ",".join(["C100"] * 100)
    cases = [
        (None, "homology", "--groups", "C2,C2", "--complex", f"K={{1;2;1,{nines}}}"),
        (None, "homology", "--groups", "C2,C2", "--complex", f"K={{1;2;-{nines}}}"),
        (None, "rank", "--groups", qs), (None, "rank", "--groups", "C" + "0" * 4000),
        (None, "rank", "--groups", "C" + nines), (None, "rank", "--groups", "S" + nines),
        (None, "rank", "--groups", "D" + nines),
        (None, "rank", "--groups", "table:fixtures/order_over_cap.json"),
        (None, "rank", "--groups", "table:fixtures/star_name.json"),
        (None, "act", "--groups", "C2,C3", "--element", "s1:" + qs),
        ("9" * 5000, "rank", "--groups", "C2"), (nines, "rank", "--groups", "C" + nines),
        (None, "act", "--groups", "C2,C3", "--element", "x" + nines),
        (None, "act", "--groups", "C2,C3", "--element", qs),
        (None, "lemma-check", "--groups", "C3,C4", "--trials", "-" + nines),
        (None, "lemma-check", "--groups", "C3,C4", "--depth", "-" + nines),
        (None, "lemma-check", "--groups", "C3,C4", "--trials", nines),
        (None, "report", "--groups", twos), (None, "matrix", "--groups", ones, "--element", "e"),
        (None, "homology", "--groups", twos, "--complex", "K={1}"),
        (None, "matrix", "--groups", twos, "--element", "x1"),
        (None, "graph", "--groups", twos),
        (None, "homology", "--groups", hundreds,
         "--complex", "K={" + ";".join(map(str, range(1, 101))) + "}"),
        (None, "graph", "--groups", eights), (None, "rank", "--groups", eights),
        (None, "rank", "--groups", "D" + "9" * 4300),
        (None, "matrix", "--groups", eights, "--element", "x1"),
        (None, "homology", "--groups", eights,
         "--complex", "K={" + ";".join(map(str, range(1, 5001))) + "}"),
    ]
    for cap, *argv in cases:
        if cap is None:
            monkeypatch.delenv("MONODROMY_CELL_CAP", raising=False)
        else:
            monkeypatch.setenv("MONODROMY_CELL_CAP", cap)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv[:2]
        assert err.startswith("error: ") and err.count("\n") == 1, (argv[:2], err[:100])
        assert len(err[:-1].encode()) <= 200 and "Traceback" not in err, (argv[:2], err[:100])
        assert "Exceeds the limit" not in err, (argv[:2], err[:100])


def test_printed_witnesses_read_back_as_elements(capsys, monkeypatch):
    # `basis` prints each witness in the word syntax `--element` reads: over a C3
    # named 1, x^2, x, the token x1^2 would name x^2 = element 2, so it is s1:x^2
    monkeypatch.chdir(Path(__file__).parent)
    spec = "table:fixtures/c3_x_names.json,C2"
    code, out, err = run(capsys, "basis", "--groups", spec, "--basis", "tree", "--format", "json")
    assert (code, err) == (0, "")
    groups = parse_group_spec(spec)
    witnesses = tree_basis(build_fibre_graph(groups)).witnesses
    texts = json.loads(out)["witnesses"]
    assert texts[0] == "x2*s1:x^2*x2*s1:x"
    assert [parse_word(t, groups) for t in texts] == list(witnesses)


def test_integer_flags_echo_a_bad_value_cut(capsys):
    # argparse's own refusal of an integer flag: its usage lines and one error
    # line, whose value is cut as `main`'s refusals cut theirs; the usage text
    # varies with the Python version, so these lines are not in the golden corpus
    for flag in ("--trials", "--depth", "--seed"):
        for value in ("x" * 300, "9" * 5000, "1.5", "x"):
            with pytest.raises(SystemExit) as exc:
                main(["lemma-check", "--groups", "C3,C4", flag, value])
            out, err = capsys.readouterr()
            assert (exc.value.code, out) == (2, ""), (flag, value[:20])
            assert "Traceback" not in err and len(err.encode()) <= 400, (flag, value[:20])
            shown = value if len(value) <= 20 else value[:20] + "..."
            assert err.endswith(f"error: argument {flag}: invalid int value: {shown!r}\n"), \
                (flag, err[-100:])


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
        # int lists, zeros and runs of zeros included
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
    # a callable writes its own JSON at the indent it is given
    for value in ([1, {"b": [0, 2]}], {"a": [[0, 3], []], "b": "x"}, [], {}):
        hooked = {"k": [lambda indent: _dumps(value, indent)], "v": lambda i: _dumps(value, i)}
        assert _dumps(hooked) == json.dumps({"k": [value], "v": value}, indent=2, sort_keys=True)
    # _join_ints writes a row from its (position, value) nonzeros and its length
    for _ in range(300):
        dense = [rng.choice((0, 0, 0, 1, -1, rng.randint(-10**20, 10**20)))
                 for _ in range(rng.randrange(1, 30))]
        nonzeros = [(k, v) for k, v in enumerate(dense) if v]
        width = rng.choice((0, 1, 2, 25))
        assert _join_ints(nonzeros, len(dense), ",\n  ") == ",\n  ".join(map(repr, dense))
        assert _join_ints(iter(nonzeros), len(dense), " ", width) == " ".join(
            str(v).rjust(width) for v in dense)


def test_row_writers_match_the_dense_layouts():
    # the sparse rows of `matrix` print as `pretty` and json.dumps print the dense matrix
    rng = random.Random(25)
    for n in (1, 2, 3, 7, 12):
        for density in (0.0, 0.1, 0.5, 1.0):
            entries = [[rng.choice((1, -1, 10, -123, 10**25)) if rng.random() < density else 0
                        for _ in range(n)] for _ in range(n)]
            rows = _sparse_rows([{i: row[j] for i, row in enumerate(entries) if row[j]}
                                 for j in range(n)])
            assert _rows_text(rows) == pretty(IntMatrix(entries))
            assert _dumps({"entries": lambda indent: _rows_json(rows, indent)}) == json.dumps(
                {"entries": entries}, indent=2, sort_keys=True)
            for indent in ("", "  ", "    "):
                assert _rows_json(rows, indent) == _dumps(entries, indent)


MATRIX_CASES = (("C2,C2", "algebraic"), ("C2,C2", "tree"), ("S3,C2", "algebraic"),
                ("S3,C2", "tree"), ("S3,D4", "algebraic"), ("S3,D4", "tree"),
                ("C3,C3,C3,C3", "tree"), ("D4,C3,C2", "tree"))


def _basis(groups, choice):
    return algebraic_basis(groups) if choice == "algebraic" else tree_basis(
        build_fibre_graph(groups))


def dense_matrix_output(groups, basis, w, phi, fmt):
    """What `matrix` printed from the dense matrix: `pretty`, or json.dumps of the payload."""
    mat = abelianize(phi)
    if fmt == "text":
        return pretty(mat) + "\n"
    return json.dumps({"basis": list(basis.symbols), "convention": "columns-as-images",
                       "determinant": determinant(groups, project(w)), "element": str(w),
                       "entries": mat.entries, "schema": 1}, indent=2, sort_keys=True) + "\n"


def test_matrix_prints_the_dense_matrix_bytes(capsys, monkeypatch):
    rng = random.Random(25)
    seen = set()
    for spec, choice in MATRIX_CASES:
        groups = parse_group_spec(spec)
        basis = _basis(groups, choice)
        kernel = [random_kernel_word(rng, groups, 8) for _ in range(2)] + [empty_word(groups)]
        for w in [random_word(rng, groups, k) for k in (2, 4, 9, 9)] + kernel:
            phi = outer_representative(w, basis)
            assert abelianize(phi).is_identity() or w not in kernel
            seen.update(v for row in abelianize(phi).entries for v in row)
            for fmt in ("text", "json"):
                argv = ["matrix", "--groups", spec, "--basis", choice,
                        "--element", format_word(w), "--format", fmt]
                want = dense_matrix_output(groups, basis, w, phi, fmt)
                assert run(capsys, *argv) == (0, want, ""), argv
    assert {-1, 0, 1} <= seen
    # entries of two or more digits, from images whose symbols repeat
    for spec, choice in MATRIX_CASES:
        groups = parse_group_spec(spec)
        basis = _basis(groups, choice)
        counts = [{rng.randrange(basis.rank): rng.choice((-1, 1, 2, -10, 123))
                   for _ in range(3)} for _ in range(basis.rank)]
        counts[0][0] = -10
        images = tuple(tuple(x for k, c in col.items() for x in [(k + 1) * (c // abs(c))] * abs(c))
                       for col in counts)
        phi = Automorphism(basis, images)
        monkeypatch.setattr(cli, "outer_representative", lambda w, b: Automorphism(b, images))
        w = empty_word(groups)
        for fmt in ("text", "json"):
            argv = ["matrix", "--groups", spec, "--basis", choice, "--element", "e",
                    "--format", fmt]
            assert run(capsys, *argv) == (0, dense_matrix_output(groups, basis, w, phi, fmt),
                                          ""), argv
        assert max(map(abs, (v for col in abelianize(phi).entries for v in col))) >= 10


def test_act_json_writes_each_symbol_as_the_basis_names_it(capsys, monkeypatch):
    rng = random.Random(25)
    for spec, choice in MATRIX_CASES + (("C1,C3", "tree"),):
        groups = parse_group_spec(spec)
        basis = _basis(groups, choice)
        monkeypatch.setattr(cli, "_basis_for", lambda groups, choice: basis)
        for w in (random_word(rng, groups, 6), random_kernel_word(rng, groups, 6)):
            images = act_word(w, basis).images
            argv = ["act", "--groups", spec, "--element", format_word(w)]
            want = {"basis": list(basis.symbols), "element": str(w), "schema": 1,
                    "images": {sym: basis.format_image(img)
                               for sym, img in zip(basis.symbols, images)}}
            assert run(capsys, *argv, "--format", "json") == (
                0, json.dumps(want, indent=2, sort_keys=True) + "\n", ""), argv
            assert run(capsys, *argv) == (0, "".join(
                f"{sym} -> {text}\n" for sym, text in want["images"].items()) or "\n", "")


def test_basis_symbols_need_no_json_escape():
    # `act` writes each symbol and image token unescaped, which holds for the names both
    # bases give, over the golden corpus's group lists
    table = Path(__file__).parent / "fixtures" / "c2_table.json"
    for spec in ("C2,C3", "C1,C3", "C2,C1", "S3,C4", "D4,C3", "S3,D4", "C1,C3,C2",
                 "C2,C2,C2,C2", "C1,C2,C1,C3", f"table:{table},C3"):
        groups = parse_group_spec(spec)
        bases = [tree_basis(build_fibre_graph(groups))]
        if len(groups) == 2 and min(G.order for G in groups) > 1:
            bases.append(algebraic_basis(groups))
        for basis in bases:
            for s in basis.tokens:
                assert cli._quote(s) == f'"{s}"', (spec, s)


def test_large_matrix_bytes_are_pinned(capsys):
    # rank 833: the sha256 of stdout as the dense matrix printed it, text and JSON
    pins = {"text": "e43c319ef16f48ced3a357adc8e64fdec62bf47eafe0cc686d4bc16d470df1f7",
            "json": "b8524242a01959b6846e18588451dbe1fd4a74f6dc20320893ea432f12e3558a"}
    for fmt, digest in pins.items():
        code, out, err = run(capsys, "matrix", "--basis", "tree", "--groups", "C8,C8,C8",
                             "--element", "x1*x2*x3", "--format", fmt)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def test_tree_act_and_matrix_bytes_are_pinned_from_a_nonzero_state(capsys):
    # rank 199: the sha256 of stdout, text and JSON, recorded when the witness
    # walks took one letter step per vertex and per witness; the element walks
    # from the basepoint to the state (2, 4, 2), no coordinate of it 0
    element = "s1:(123)*s2:rs*x3*s1:(12)*s2:r*x3"
    pins = {"act": ("5b07fb3c85204e791eb1da82f8c71d9f73c7f095190f7d751a6e64230f5cfe39",
                    "32c19be035eaf78a3ef3f8f2f4d4739df9ecd7f133e8b386f812794607dba935"),
            "matrix": ("3deabdf169826de477ee41e703108441951010b0cc5df3acc1e5efeb47714013",
                       "489a1be98f0e441c42167af9cb626e5e8121881629e390e4ea23cf8ddbba7328")}
    began = time.perf_counter()
    for command, digests in pins.items():
        for fmt, digest in zip(("text", "json"), digests):
            code, out, err = run(capsys, command, "--groups", "S3,D4,C3", "--basis", "tree",
                                 "--element", element, "--format", fmt)
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (command, fmt)
    assert time.perf_counter() - began < 0.3


def test_tree_basis_and_act_bytes_are_pinned(capsys):
    # rank 841: the sha256 of stdout, text and JSON, recorded when `basis` built
    # and formatted every witness `Word` and `act` formatted every whole image;
    # the four run in well under 0.3 s
    pins = {("basis",): ("ed031902d4da8203d3ff9b1bc5a3805cc87addfd83bafaeb99313a926cf724fe",
                         "1214c126b2d41d4f4800e33fc41238df10f838325cb2ba5f3af9f6ee5fbf0720"),
            ("act", "--element", "x1*x2^3*x1^-1"): (
                "8573e33094d7b31743bd15c533bff93efb0ed493b8d590c047ec81061eee395b",
                "81f1f4541d08d8b18b5f19d53b7d0afb428a22d9079a9ad9111a3bbd231a0868")}
    began = time.perf_counter()
    for argv, digests in pins.items():
        for fmt, digest in zip(("text", "json"), digests):
            code, out, err = run(capsys, *argv, "--groups", "C30,C30", "--basis", "tree",
                                 "--format", fmt)
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (argv, fmt)
    assert time.perf_counter() - began < 0.3


def test_tree_act_bytes_are_pinned_for_an_element_ending_in_coordinate_one(capsys):
    # rank 841: the sha256 of stdout, text and JSON, recorded when each image
    # was P . W . P^-1 cut at its seams; the element's last letter moves
    # coordinate 1, so P^-1 retraces whole tree paths of the images it ends
    pins = ("8857da0c3c391646b36988b45381e825d5c2d8eef015816b9705240c1b79c722",
            "b5f26422778eadbf70825ffd618a308363ee1bcdedb27035536c6d059ec249a7")
    for fmt, digest in zip(("text", "json"), pins):
        code, out, err = run(capsys, "act", "--groups", "C30,C30", "--basis", "tree",
                             "--element", "x2^4*x1^7*x2^-3*x1", "--format", fmt)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt
