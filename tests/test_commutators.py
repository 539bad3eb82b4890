import itertools
import random

import pytest

from monodromy import commutators
from monodromy.commutators import (MAX_MAGNUS_DEGREE, delta_identity_check,
                                   fl_commutator, fl_mul,
                                   iterated_commutator, lemma_suite, letters, magnus_series,
                                   magnus_weight, product_expansion_check)
from monodromy.groups import make_cyclic, make_symmetric, parse_group_spec
from monodromy.words import free_reduce, invert_signed, reduce_word

from oracles import degree_6_7_lemma_suite, randrange_lemma_draws


def mono(names):
    """A word or monomial over one-character names, as their ords."""
    return tuple(map(ord, names))


def rand_free_word(rng, syms="abc", max_len=8):
    return free_reduce(ord(rng.choice(syms)) * rng.choice((1, -1))
                       for _ in range(rng.randrange(max_len + 1)))


def test_free_reduce():
    a, b = mono("ab")
    assert free_reduce([a, -a]) == ()
    assert free_reduce([a, b, -b, -a]) == ()
    assert free_reduce([a, a]) == (a, a)


def test_group_identities_and_inverse():
    rng = random.Random(41)
    for _ in range(300):
        u, v = rand_free_word(rng), rand_free_word(rng)
        assert fl_mul(u, invert_signed(u)) == ()
        assert invert_signed(fl_commutator(u, v)) == fl_commutator(v, u)
        w = rand_free_word(rng)
        assert fl_mul(fl_mul(u, v), w) == fl_mul(u, v, w) == fl_mul(u, fl_mul(v, w))


def test_commutator_with_self_or_empty_trivial():
    a, = letters("a")
    assert fl_commutator(a, a) == ()
    assert fl_commutator(a, ()) == ()


def test_iterated_commutator_nesting():
    a, b, c = letters("a", "b", "c")
    assert iterated_commutator([a, b]) == fl_commutator(a, b)
    assert iterated_commutator([a, b, c]) == fl_commutator(a, fl_commutator(b, c))
    assert iterated_commutator([a]) == a
    with pytest.raises(ValueError):
        iterated_commutator([])


def test_delta_identity_in_free_products():
    groups = (make_cyclic(3), make_symmetric(3))
    rng = random.Random(42)
    for _ in range(300):
        g = reduce_word([(f, rng.randrange(1, groups[f].order))
                         for f in (rng.randrange(2) for _ in range(rng.randrange(6)))], groups)
        f = reduce_word([(k, rng.randrange(1, groups[k].order))
                         for k in (rng.randrange(2) for _ in range(rng.randrange(6)))], groups)
        assert delta_identity_check(g, f)


def test_product_expansion_exhaustive_single_letters():
    gens = letters("a", "b", "c")
    signed = [w for w in gens] + [invert_signed(w) for w in gens]
    for a, b, c in itertools.product(signed, repeat=3):
        assert product_expansion_check(a, b, c)


def test_product_expansion_random_words():
    rng = random.Random(43)
    for _ in range(200):
        assert product_expansion_check(rand_free_word(rng), rand_free_word(rng),
                                       rand_free_word(rng))


def test_magnus_series_of_single_letter():
    a, = letters("a")
    assert magnus_series(a, 4) == {(): 1, mono("a"): 1}
    s = magnus_series(invert_signed(a), 3)
    assert s[mono("a")] == -1 and s[mono("aa")] == 1 and s[mono("aaa")] == -1


def test_magnus_inverse_cancels():
    rng = random.Random(44)
    for _ in range(100):
        w = rand_free_word(rng)
        assert magnus_series(fl_mul(w, invert_signed(w)), 5) == {(): 1}


def test_magnus_weight_of_commutators():
    syms = ["a", "b", "c", "d", "e"]
    for k in range(2, 6):
        w = iterated_commutator(letters(*syms[:k]))
        assert magnus_weight(w, 6) == k


def test_magnus_weight_none_when_too_deep():
    w = iterated_commutator(letters("a", "b", "c", "d"))
    assert magnus_weight(w, 3) is None
    assert magnus_weight((), 5) is None


def test_magnus_weight_fresh_letter_bracket():
    # bracketing with a letter not already used raises the weight by one
    for k in range(2, 5):
        base = iterated_commutator(letters(*"abcde"[:k]))
        assert magnus_weight(fl_commutator(mono("z"), base), 6) == k + 1
    # bracketing with a reused letter can collapse instead
    assert fl_commutator(mono("a"), mono("a")) == ()


def test_magnus_degree_cap():
    with pytest.raises(ValueError):
        magnus_weight(mono("a"), MAX_MAGNUS_DEGREE + 1)


def test_magnus_verdict_at_the_deciding_degree_is_the_verdict_at_6_and_7():
    # truncating at degree d keeps every coefficient of degree <= d, so for k <= 5
    # a weight reads k at degree k exactly when it reads k at degree 6, and k + 1
    # at degree k + 1 exactly when it does at 7; lemma_suite stops at k and k + 1
    z, y = letters("z", "y")
    chains = [iterated_commutator(letters(*"abcde"[:n])) for n in range(1, 6)]
    rng = random.Random(47)
    words = chains + [fl_commutator(z, f) for f in chains]
    words += [rand_free_word(rng, "abcdez", 10) for _ in range(200)]
    for k in range(1, 6):
        f = chains[k - 1]
        fz = fl_commutator(z, f)
        assert magnus_weight(f, k) == k and magnus_weight(fz, k + 1) == k + 1
        # one bracket dropped or added: weight k - 1 or k + 1, and k or k + 2 bracketed
        dropped = chains[k - 2] if k > 1 else ()
        mutants = [dropped, fz, fl_commutator(z, dropped), fl_commutator(z, fl_commutator(y, f))]
        for w in mutants[:2]:
            assert magnus_weight(w, k) != k and magnus_weight(w, 6) != k
        for w in mutants[2:]:
            assert magnus_weight(w, k + 1) != k + 1 and magnus_weight(w, 7) != k + 1
        for w in words + mutants:
            assert (magnus_weight(w, k) == k) == (magnus_weight(w, 6) == k), (w, k)
            assert (magnus_weight(w, k + 1) == k + 1) == (magnus_weight(w, 7) == k + 1), (w, k)


def test_lemma_suite_matches_its_degree_6_7_randrange_oracle():
    # the same triple at every depth, past the five letters too, and the same rng state after
    for spec in ("C3,C4,C2", "S3,C2"):
        groups = parse_group_spec(spec)
        for depth in range(10):
            rng, oracle = random.Random(depth), random.Random(depth)
            assert (lemma_suite(groups, rng, 40, depth)
                    == degree_6_7_lemma_suite(groups, oracle, 40, depth)), (spec, depth)
            assert rng.random() == oracle.random()


def test_lemma_suite_checks_the_randrange_draws(monkeypatch):
    # the pairs and triples the checks receive are those that randrange and choice draw
    seen = {"pairs": [], "triples": []}

    def record(key, check):
        def recorded(*args):
            seen[key].append(args)
            return check(*args)
        return recorded

    monkeypatch.setattr(commutators, "delta_identity_check", record("pairs", delta_identity_check))
    monkeypatch.setattr(commutators, "product_expansion_check",
                        record("triples", product_expansion_check))
    for spec in ("C3,C4,C2", "S3,C2", "C7,C1,C5"):
        groups = parse_group_spec(spec)
        for seed in range(5):
            seen["pairs"].clear()
            seen["triples"].clear()
            assert lemma_suite(groups, random.Random(seed), 60, 5) == (60, 60, 5)
            pairs, triples = randrange_lemma_draws(groups, random.Random(seed), 60)
            assert seen["pairs"] == pairs and seen["triples"] == triples, (spec, seed)


def test_magnus_lowest_term_of_commutator_is_lie_bracket():
    a, b = letters("a", "b")
    s = magnus_series(fl_commutator(a, b), 2)
    assert s[mono("ab")] == 1 and s[mono("ba")] == -1
    assert mono("a") not in s and mono("b") not in s


def series_letter(sym, sign, degree):
    """x -> 1 + X ; x^-1 -> 1 - X + X^2 - ... (truncated)."""
    if sign == 1:
        return {(): 1, (sym,): 1}
    return {(sym,) * d: (-1) ** d for d in range(degree + 1)}


def series_mul(a, b, degree):
    """Truncated product of two series, term by term."""
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            if len(ma) + len(mb) <= degree:
                out[ma + mb] = out.get(ma + mb, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def pairwise_magnus_series(w, degree):
    series = {(): 1}
    for x in w:
        series = series_mul(series, series_letter(abs(x), 1 if x > 0 else -1, degree), degree)
    return series


def test_magnus_series_matches_pairwise_product_oracle():
    # the shifting expansion equals the product of the truncated letter
    # series, on free and unreduced words alike
    rng = random.Random(45)
    for degree in range(1, MAX_MAGNUS_DEGREE + 1):
        for _ in range(40):
            w = rand_free_word(rng, "abc", 9)
            assert magnus_series(w, degree) == pairwise_magnus_series(w, degree), (w, degree)
            raw = tuple(ord(rng.choice("ab")) * rng.choice((1, -1))
                        for _ in range(rng.randrange(7)))
            assert magnus_series(raw, degree) == pairwise_magnus_series(raw, degree), (raw, degree)
