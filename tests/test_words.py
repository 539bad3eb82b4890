import json
import random
import re
import sys

import pytest

from monodromy.fibre import build_fibre_graph, cycle_witnesses
from monodromy.groups import make_cyclic, make_symmetric, parse_group_spec
from monodromy.words import (Word, commutator, empty_word,
                             format_word, format_words, free_reduce, invert,
                             invert_signed, is_in_kernel, multiply, parse_word,
                             project, random_kernel_word, random_word,
                             reduce_word, single)

from oracles import encode, free_reduce_pairs, invert_pairs, two_reduce_kernel_word

C2C3 = (make_cyclic(2), make_cyclic(3))


def rand_word(rng, groups, max_len=8):
    raw = []
    for _ in range(rng.randrange(max_len + 1)):
        f = rng.randrange(len(groups))
        raw.append((f, rng.randrange(1, groups[f].order)))
    return reduce_word(raw, groups)


def test_cancellation_to_empty():
    w = reduce_word([(0, 1), (0, 1)], C2C3)  # x1 * x1^-1 in C2
    assert w.is_identity


def test_cayley_merge():
    # x1 x2 x2^2 -> x1
    w = reduce_word([(0, 1), (1, 1), (1, 2)], C2C3)
    assert w == single(C2C3, 0, 1)


def test_already_reduced():
    w = reduce_word([(0, 1), (1, 2)], C2C3)
    assert list(w.letters) == [(0, 1), (1, 2)]


def test_reduce_cascading():
    # x2 x1 x1 x2^2 collapses completely
    w = reduce_word([(1, 1), (0, 1), (0, 1), (1, 2)], C2C3)
    assert w.is_identity


def test_commutator_with_empty():
    a = single(C2C3, 0, 1)
    assert commutator(a, empty_word(C2C3)).is_identity


def test_commutator_letters():
    w = commutator(single(C2C3, 0, 1), single(C2C3, 1, 1))
    assert list(w.letters) == [(0, 1), (1, 1), (0, 1), (1, 2)]  # x1 x2 x1 x2^2


def test_invert_commutator():
    rng = random.Random(3)
    for _ in range(50):
        a, b = rand_word(rng, C2C3), rand_word(rng, C2C3)
        assert invert(commutator(a, b)) == commutator(b, a)


def test_multiply_associative_random():
    groups = (make_cyclic(3), make_symmetric(3), make_cyclic(2))
    rng = random.Random(0)
    for _ in range(1000):
        a, b, c = (rand_word(rng, groups, 5) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_invert_involution_and_inverse_law():
    rng = random.Random(1)
    for _ in range(200):
        w = rand_word(rng, C2C3)
        assert invert(invert(w)) == w
        assert multiply(w, invert(w)).is_identity


def test_reduce_idempotent():
    rng = random.Random(2)
    for _ in range(200):
        w = rand_word(rng, C2C3)
        assert reduce_word(w.letters, C2C3) == w


def test_project_and_kernel():
    assert project(empty_word(C2C3)) == (0, 0)
    assert is_in_kernel(empty_word(C2C3))
    comm = commutator(single(C2C3, 0, 1), single(C2C3, 1, 1))
    assert project(comm) == (0, 0)
    assert is_in_kernel(comm)
    w = multiply(single(C2C3, 0, 1), single(C2C3, 1, 1))
    assert project(w) == (1, 1)
    assert not is_in_kernel(w)


def test_single_letter_commutators_in_kernel():
    groups = (make_cyclic(4), make_symmetric(3))
    for a in range(1, 4):
        for b in range(1, 6):
            assert is_in_kernel(commutator(single(groups, 0, a), single(groups, 1, b)))


def test_mismatched_group_lists():
    other = (make_cyclic(2), make_cyclic(4))
    with pytest.raises(ValueError):
        multiply(single(C2C3, 0, 1), single(other, 0, 1))


def test_word_rejects_unreduced():
    with pytest.raises(ValueError):
        Word(C2C3, ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        Word(C2C3, ((1, 0),))


def test_parse_word_cyclic():
    w = parse_word("x1^1*x2^2", C2C3)
    assert list(w.letters) == [(0, 1), (1, 2)]
    assert parse_word("x2^-1", C2C3) == single(C2C3, 1, 2)
    assert parse_word("e", C2C3).is_identity


def test_parse_word_names():
    groups = (make_cyclic(2), make_symmetric(3))
    w = parse_word("s2:(12)*x1", groups)
    assert list(w.letters) == [(1, 1), (0, 1)]
    with pytest.raises(ValueError):
        parse_word("s2:(14)", groups)
    with pytest.raises(ValueError):
        parse_word("y3", groups)


def test_format_parse_roundtrip():
    groups = (make_cyclic(4), make_symmetric(3))
    rng = random.Random(7)
    for _ in range(100):
        w = rand_word(rng, groups)
        assert parse_word(str(w), groups) == w


def test_random_words_skip_trivial_factors():
    # C1 has no non-identity element, so a draw of that factor adds no letter
    # (drawing one used to raise "empty range for randrange()")
    groups = (make_cyclic(7), make_cyclic(1), make_cyclic(5))
    for seed in range(5):
        rng = random.Random(seed)
        k = random_kernel_word(rng, groups, 14)
        w = random_word(rng, groups)
        assert is_in_kernel(k)
        assert all(f != 1 for f, _ in k.letters + w.letters)
    assert random_kernel_word(random.Random(0), (make_cyclic(1),) * 3, 14).is_identity


def test_letters_are_int_pairs():
    # a letter is its bare (factor, elem) pair
    groups = (make_cyclic(3), make_cyclic(4), make_cyclic(2))
    w = reduce_word([(0, 1), (1, 3), (1, 2), (2, 1), (0, 2)], groups)
    assert w.letters == ((0, 1), (1, 1), (2, 1), (0, 2))
    witnesses = list(cycle_witnesses(build_fibre_graph(groups)))
    for word in [w, invert(w), commutator(w, single(groups, 1, 3))] + witnesses:
        for lt in word.letters:
            assert type(lt) is tuple and len(lt) == 2
            assert all(type(v) is int for v in lt)


def format_word_per_letter(w):
    """The printed form of a word, one letter at a time: a name x or x^k as
    x<i>^<k> where `parse_word` reads that token back as the letter."""
    if not w.letters:
        return "e"
    parts = []
    for f, e in w.letters:
        name = w.groups[f].names[e]
        token = name.replace("x", f"x{f + 1}")
        if (re.fullmatch(r"x(\^-?[0-9]+)?", name)
                and parse_word(token, w.groups).letters == ((f, e),)):
            parts.append(token)
        else:
            parts.append(f"s{f + 1}:{name}")
    return "*".join(parts)


def test_format_words_matches_per_letter_form(tmp_path):
    # a table group whose names look cyclic, or nearly: C2 x C2 named 1, x, x^2, xy
    path = tmp_path / "klein.json"
    path.write_text(json.dumps({"order": 4, "names": ["1", "x", "x^2", "xy"],
                                "table": [[0, 1, 2, 3], [1, 0, 3, 2],
                                          [2, 3, 0, 1], [3, 2, 1, 0]]}))
    table_groups = tuple(parse_group_spec(f"table:{path},C3"))
    rng = random.Random(21)
    batches = [list(cycle_witnesses(build_fibre_graph(parse_group_spec(spec))))
               for spec in ("S3,C4,C3", "D4,C3,C2")]
    batches.append([empty_word(table_groups)]
                   + [random_word(rng, table_groups, 10) for _ in range(200)])
    # words over two group lists in one call
    batches.append(batches[0][:5] + batches[2][:5] + batches[1][:5])
    for words in batches:
        expected = [format_word_per_letter(w) for w in words]
        assert format_words(words) == expected
        assert [format_word(w) for w in words] == [str(w) for w in words] == expected
    assert format_words([empty_word(table_groups)]) == ["e"]
    # in C2 x C2, x^2 is the identity: element 2, named x^2, prints by its name
    assert format_words([single(table_groups, 0, k) for k in range(1, 4)]) == [
        "x1", "s1:x^2", "s1:xy"]


def test_printed_words_read_back(tmp_path):
    # table groups named like powers of element 1, rightly or not: C3 named
    # 1, x^2, x (x1^2 would read back as x^2 = element 2, not element 1), C4
    # named with exponents out of range and negative, Klein named 1, x, x^2, xy,
    # and C2 with an exponent of more digits than parse_word reads
    tables = {"c3": (["1", "x^2", "x"], [[0, 1, 2], [1, 2, 0], [2, 0, 1]]),
              "c4": (["1", "x^5", "x^-2", "x^-1"],
                     [[(a + b) % 4 for b in range(4)] for a in range(4)]),
              "klein": (["1", "x", "x^2", "xy"],
                        [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]),
              "c2": (["1", "x^" + "3" * 5000], [[0, 1], [1, 0]])}
    specs = []
    for name, (names, table) in tables.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"order": len(names), "names": names, "table": table}))
        specs.append(f"table:{path}")
    c3 = parse_group_spec(f"{specs[0]},C2")
    assert format_words([single(c3, 0, 1), single(c3, 0, 2)]) == ["s1:x^2", "s1:x"]
    c4 = parse_group_spec(f"{specs[1]},C3")
    assert format_words([single(c4, 0, k) for k in (1, 2, 3)]) == ["x1^5", "x1^-2", "x1^-1"]
    c2 = parse_group_spec(f"{specs[3]},C3")
    assert format_words([single(c2, 0, 1)]) == ["s1:x^" + "3" * 5000]
    rng = random.Random(22)
    for groups in (c3, c4, parse_group_spec(",".join(specs) + ",S3,C1")):
        for _ in range(200):
            w = random_word(rng, groups, 10)
            assert parse_word(format_word(w), groups) == w, format_word(w)


def test_signed_ints_match_the_pair_encoding():
    # symbol k with sign s is s (k + 1): reducing and inverting commute with
    # that map, on 500 random words over +-1..+-6
    rng = random.Random(51)
    shrunk = 0
    for _ in range(500):
        pairs = [(rng.randrange(6), rng.choice((1, -1))) for _ in range(rng.randrange(13))]
        word = encode(pairs)
        assert all(1 <= abs(x) <= 6 for x in word)
        reduced = free_reduce(word)
        assert reduced == encode(free_reduce_pairs(pairs)), pairs
        assert invert_signed(word) == encode(invert_pairs(pairs)), pairs
        assert invert_signed(reduced) == encode(invert_pairs(free_reduce_pairs(pairs)))
        assert free_reduce(word + invert_signed(word)) == ()
        shrunk += len(reduced) < len(word)
    assert 0 < shrunk < 500


def test_parse_word_checks_the_coordinate_of_either_token_form():
    for text, i, token in (("x3", 3, "x3"), ("x1*x0^2", 0, "x0^2"), ("s3:x", 3, "s3:x"),
                           ("x2*s0:1", 0, "s0:1")):
        message = f"coordinate {i} out of range in token {token!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_word(text, C2C3)
    trivial = (make_cyclic(1), make_cyclic(3))
    with pytest.raises(ValueError, match="^factor 1 is trivial; has no generator$"):
        parse_word("x1^2", trivial)
    assert parse_word("s1:1*x2^-1", trivial) == single(trivial, 1, 2)


def test_reduce_word_checks_each_letter_once():
    # the one checked constructor: a bad factor or element is refused with a
    # ValueError, and the reduced word it wraps unchecked passes `Word`'s checks
    for f in (-1, 2):
        with pytest.raises(ValueError, match=f"^factor index out of range: {f}$"):
            reduce_word([(0, 1), (f, 1)], C2C3)
    with pytest.raises(ValueError, match="^element index 3 out of range for factor 1$"):
        reduce_word([(1, 3)], C2C3)
    rng = random.Random(41)
    groups = tuple(parse_group_spec("S3,C4,C3"))
    for _ in range(200):
        w = rand_word(rng, groups, 12)
        assert Word(groups, w.letters) == w == Word(groups, invert(invert(w)).letters)
        assert Word(groups, invert(w).letters) == invert(w)


def test_random_kernel_word_matches_the_two_reduce_oracle():
    # the raw draws are projected and reduced once: the same draws, the same word
    for spec in ("C3,C4", "S3,C2", "C2,C3,C2"):
        groups = parse_group_spec(spec)
        for seed in range(5):
            rng, oracle = random.Random(seed), random.Random(seed)
            for max_letters in (1, 2, 10, 14) * 25:
                w = random_kernel_word(rng, groups, max_letters)
                assert w == two_reduce_kernel_word(oracle, groups, max_letters), (spec, seed)
                assert is_in_kernel(w)
            assert rng.random() == oracle.random()


def test_parse_word_refuses_a_number_longer_than_int_reads():
    limit = sys.get_int_max_str_digits()
    for text, what in (("x1^" + "9" * (limit + 1), "exponent"),
                       ("x1^-" + "9" * (limit + 1), "exponent"),
                       ("x" + "0" * limit + "1", "coordinate"),
                       ("s" + "0" * limit + "1:x", "coordinate")):
        message = (f"{what} in token {text[:20] + '...'!r} has {limit + 1} digits, "
                   f"over the limit of {limit}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_word(text, C2C3)
    assert parse_word("x2^" + "0" * (limit - 1) + "4", C2C3) == single(C2C3, 1, 1)
