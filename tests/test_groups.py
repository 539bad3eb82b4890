import json
import random

import pytest

from monodromy.groups import (FiniteGroup, GroupSpecParseError,
                              GroupValidationError, S3_CLASSIC_ORDER,
                              SizeLimitError, load_cayley_table, make_cyclic,
                              make_dihedral, make_symmetric, parse_group_spec)
from monodromy.words import parse_word


def test_trivial_group():
    g = make_cyclic(1)
    assert g.order == 1
    assert g.table == ((0,),)


def test_cyclic_modular_addition():
    c3 = make_cyclic(3)
    assert c3.op(1, 2) == 0  # x * x^2 = 1
    c4 = make_cyclic(4)
    assert c4.op(1, 3) == 0


def test_cyclic_table_rows_are_rotations():
    for n in range(1, 13):
        assert make_cyclic(n).table == tuple(
            tuple((a + b) % n for b in range(n)) for a in range(n)), n


def test_closure_checked_per_row():
    # an entry of m, or of -1, anywhere in a row is refused before any other axiom
    for bad in (3, -1):
        for r in range(3):
            table = [[(a + b) % 3 for b in range(3)] for a in range(3)]
            table[r][2 - r] = bad
            with pytest.raises(GroupValidationError, match="closure: table entry out of range"):
                FiniteGroup(3, tuple(map(tuple, table)), ("1", "x", "x^2"))


def test_cyclic_zero_order_rejected():
    with pytest.raises(GroupValidationError):
        make_cyclic(0)


def test_symmetric_trivial():
    assert make_symmetric(1).order == 1


def test_symmetric_composition_right_first():
    s3 = make_symmetric(3)
    a = s3.names.index("(12)")
    b = s3.names.index("(13)")
    assert s3.names[s3.op(a, b)] == "(132)"


def test_symmetric_classic_order_names():
    # S3 alone follows the worked examples' listing; larger ones stay lexicographic
    s3 = make_symmetric(3)
    assert list(s3.names) == S3_CLASSIC_ORDER
    assert s3.names[s3.op(1, 2)] == "(132)"  # (12)(13), applied right first
    assert make_symmetric(4).names[:3] == ("1", "(34)", "(23)")
    assert s3.names[s3.inverse(s3.names.index("(123)"))] == "(132)"


def test_symmetric_degree_cap():
    with pytest.raises(SizeLimitError):
        make_symmetric(9)


def test_element_order_and_lagrange():
    for g in [make_cyclic(6), make_symmetric(3), make_dihedral(4),
              make_symmetric(4), make_cyclic(24)]:
        assert g.element_order(0) == 1
        for a in range(g.order):
            assert g.order % g.element_order(a) == 0


def test_inverse_table_matches_cayley_table():
    for g in [make_cyclic(6), make_symmetric(3), make_dihedral(4), make_symmetric(4)]:
        for a in range(g.order):
            assert g.op(a, g.inverse(a)) == 0 == g.op(g.inverse(a), a)
    # the table is derived state: not a constructor argument, not compared
    s3 = make_symmetric(3)
    assert s3 == make_symmetric(3) and hash(s3) == hash(make_symmetric(3))
    assert "inverses" not in repr(s3)
    with pytest.raises(TypeError):
        FiniteGroup(1, ((0,),), ("1",), (0,))


def test_power_reduces_exponent_modulo_element_order():
    for g in [make_cyclic(8), make_symmetric(3), make_dihedral(5)]:
        for a in range(g.order):
            x = 0
            for k in range(2 * g.order + 1):
                assert g.power(a, k) == x
                assert g.power(a, -k) == g.inverse(x)
                x = g.op(x, a)
    c8 = make_cyclic(8)
    assert c8.power(1, 10**100 + 3) == 3
    assert c8.power(3, -(10**100) - 1) == c8.inverse(3)
    with pytest.raises(ValueError):
        c8.power(8, 2)


def test_index_bounds():
    g = make_cyclic(3)
    with pytest.raises(ValueError):
        g.op(0, 3)
    with pytest.raises(ValueError):
        g.inverse(5)


def test_parse_group_spec():
    gs = parse_group_spec("C2,C3")
    assert [g.order for g in gs] == [2, 3]
    gs = parse_group_spec("C2,S3")
    assert gs[1].order == 6
    assert list(gs[1].names) == S3_CLASSIC_ORDER
    assert parse_group_spec("C1")[0].order == 1
    assert parse_group_spec("D4")[0].order == 8


def test_parse_group_spec_errors():
    with pytest.raises(GroupSpecParseError):
        parse_group_spec("C2,Q8")
    with pytest.raises(GroupSpecParseError):
        parse_group_spec("")


def test_cayley_table_file_roundtrip(tmp_path):
    g = make_symmetric(3)
    path = tmp_path / "s3.json"
    path.write_text(json.dumps({
        "order": g.order,
        "names": list(g.names),
        "table": [list(row) for row in g.table],
    }))
    loaded = load_cayley_table(str(path))
    assert loaded == g
    spec = parse_group_spec(f"C2,table:{path}")
    assert spec[1] == g


def test_cayley_table_validation_names_axiom(tmp_path):
    path = tmp_path / "bad.json"
    # identity is not a two-sided unit
    path.write_text(json.dumps({
        "order": 2, "names": ["1", "a"], "table": [[0, 1], [1, 1]],
    }))
    with pytest.raises(GroupValidationError, match="inverse|identity|associativity"):
        load_cayley_table(str(path))


MALFORMED_TABLE_FILES = {
    "5": "expected a JSON object",
    '{"order": 1, "names": ["1"], "table": 5}': "field 'table' must be a list of integer lists",
    '{"order": 1, "names": ["1"], "table": [[0.0]]}': "field 'table'",
    '{"order": 1, "names": 7, "table": [[0]]}': "field 'names' must be a list of strings",
    '{"order": 1, "names": [1], "table": [[0]]}': "field 'names'",
    '{"order": [1], "names": ["1"], "table": [[0]]}': "field 'order' must be an integer",
    '{"order": true, "names": ["1"], "table": [[0]]}': "field 'order'",
    '{"order": 1, "names": ["1"]}': "missing field 'table'",
}


def test_cayley_table_names_must_read_back_in_a_word(tmp_path):
    # each name is refused, after every axiom check, unless the token s<i>:<name>
    # reads back as its element: no duplicate, no '*', no trailing whitespace,
    # nothing the token's pattern does not match
    c2, c3 = [[0, 1], [1, 0]], [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    path = tmp_path / "names.json"
    refused = {("1", "1"): ("1", 1), ("1", "a*b"): ("a*b", 1), ("1", " a "): (" a ", 1),
               ("1", "a\t"): ("a\t", 1), ("1", ""): ("", 1), ("1", "a\nb"): ("a\nb", 1),
               ("1", "a", "a"): ("a", 2), ("*", "a", "b"): ("*", 0),
               ("1", "Q" * 30 + "*"): ("Q" * 20 + "...", 1)}
    for names, (shown, element) in refused.items():
        path.write_text(json.dumps({"order": len(names), "names": list(names),
                                    "table": c2 if len(names) == 2 else c3}))
        with pytest.raises(GroupValidationError) as info:
            load_cayley_table(str(path))
        assert str(info.value) == (f"cayley table file {path}: name {shown!r} of element "
                                   f"{element} does not read back in a word"), names
    # an axiom is checked first
    path.write_text(json.dumps({"order": 2, "names": ["1", "1"], "table": [[0, 1], [1, 1]]}))
    with pytest.raises(GroupValidationError, match="inverse"):
        load_cayley_table(str(path))
    # a leading space, a quote, a backslash and a name like a power read back
    for names in ((" a", 'a"b\\c'), ("x^2", "x")):
        path.write_text(json.dumps({"order": 3, "names": ["1", *names], "table": c3}))
        G = load_cayley_table(str(path))
        groups = (G, make_cyclic(2))
        for e, name in enumerate(names, 1):
            assert parse_word(f"s1:{name}*x2", groups).letters == ((0, e), (1, 1)), name


def test_malformed_cayley_table_file_names_path_and_field(tmp_path):
    path = tmp_path / "bad.json"
    for body, message in MALFORMED_TABLE_FILES.items():
        path.write_text(body)
        with pytest.raises(GroupValidationError, match=message) as info:
            load_cayley_table(str(path))
        assert str(path) in str(info.value)


def test_group_tables_capped_by_cell_cap(monkeypatch):
    # order^2 table entries against check_size's default cap 10**6: orders up to 1000
    for build, arg, name in ((make_cyclic, 1001, "C1001 has order 1001"),
                             (make_dihedral, 501, "D501 has order 1002"),
                             (make_symmetric, 7, "S7 has order 7!"),
                             (make_cyclic, 10**5, "C100000 has order 100000"),
                             (make_symmetric, 10**8, "S100000000 has order 100000000!")):
        with pytest.raises(SizeLimitError, match=name):
            build(arg)
    monkeypatch.setenv("MONODROMY_CELL_CAP", "36")
    assert [make_cyclic(6).order, make_dihedral(3).order, make_symmetric(3).order] == [6] * 3
    for build, arg in ((make_cyclic, 7), (make_dihedral, 4), (make_symmetric, 4)):
        with pytest.raises(SizeLimitError, match="exceeds cap 36"):
            build(arg)


def test_non_associative_table_rejected():
    # C5 table with two entries swapped away from row/column 0
    table = [[(a + b) % 5 for b in range(5)] for a in range(5)]
    table[1][1], table[1][3] = table[1][3], table[1][1]
    with pytest.raises(GroupValidationError, match="associativity"):
        FiniteGroup(5, tuple(tuple(r) for r in table), tuple("eabcd"))


def test_non_associative_table_above_order_256_rejected():
    # C257 with two entries of row 1 swapped: associativity is checked at
    # every order, here over the one greedy generator 1
    m = 257
    table = [[(a + b) % m for b in range(m)] for a in range(m)]
    table[1][1], table[1][3] = table[1][3], table[1][1]
    with pytest.raises(GroupValidationError, match="associativity"):
        FiniteGroup(m, tuple(tuple(r) for r in table), tuple(map(str, range(m))))


def test_table_needing_too_many_generators_rejected():
    # 1 and 2 are their own inverses but (1 2) 2 = 0 != 1 = 1 (2 2); greedy
    # generation from 0 reaches {0, 1} with 1, then needs 2 as well, while in
    # a group of order 3 each generator at least doubles what is reached
    table = ((0, 1, 2), (1, 0, 2), (2, 2, 0))
    with pytest.raises(GroupValidationError, match="associativity fails: order 3 needs 2"):
        FiniteGroup(3, table, ("e", "a", "b"))


def cubic_associative(table):
    """The exhaustive oracle: every triple."""
    m = len(table)
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in range(m) for b in range(m) for c in range(m))


def test_light_test_matches_cubic_check():
    # relabelled groups stay associative; two swapped entries of one row
    # mostly break it; the verdicts agree wherever the table reaches the check
    rng = random.Random(31)
    bases = [make_cyclic(n) for n in range(2, 13)] + [make_dihedral(n) for n in range(2, 7)]
    bases.append(make_symmetric(3))
    reached = 0
    for _ in range(300):
        G = rng.choice(bases)
        m = G.order
        perm = [0] + rng.sample(range(1, m), m - 1)
        back = {p: i for i, p in enumerate(perm)}
        table = [[back[G.table[perm[a]][perm[b]]] for b in range(m)] for a in range(m)]
        if m > 2 and rng.random() < 0.8:
            r = rng.randrange(1, m)
            c1, c2 = rng.sample(range(1, m), 2)
            table[r][c1], table[r][c2] = table[r][c2], table[r][c1]
        try:
            FiniteGroup(m, tuple(map(tuple, table)), tuple(map(str, range(m))))
        except GroupValidationError as exc:
            if "associativity" in str(exc):
                reached += 1
                assert not cubic_associative(table)
            continue
        reached += 1
        assert cubic_associative(table)
    assert reached > 200
