"""Iterated commutators and lower-central-series weight certificates.

Free-letter words carry no group relations: they are freely reduced signed
symbol words (see `words`) over one-character names, a name a standing for
ord(a).  The Magnus substitution x -> 1 + X (truncated) certifies
lower-central-series depth: a word whose series has no nonzero term below
degree k lies in the k-th stage of the free group's descending central
series, which maps into the free product's.
"""

from __future__ import annotations

import random
from typing import Sequence

from .groups import FiniteGroup
from .words import (Word, _below, commutator as group_commutator, conjugate, free_reduce,
                    invert_signed, multiply, random_words)

# A free-letter word: (+-ord(name), ...), freely reduced.
FreeLetterWord = tuple[int, ...]

MAX_MAGNUS_DEGREE = 8
# lemma-check's work grows linearly with its trial count
MAX_LEMMA_TRIALS = 10**4


def letters(*symbols: str) -> list[FreeLetterWord]:
    return [(ord(s),) for s in symbols]


def fl_mul(*ws: FreeLetterWord) -> FreeLetterWord:
    return free_reduce([p for w in ws for p in w])


def fl_commutator(a: FreeLetterWord, b: FreeLetterWord) -> FreeLetterWord:
    return fl_mul(a, b, invert_signed(a), invert_signed(b))


def iterated_commutator(ws: Sequence[FreeLetterWord]) -> FreeLetterWord:
    """Right-nested [w1,[w2,[...,[w_{k-1},w_k]...]]]."""
    if not ws:
        raise ValueError("need at least one word")
    acc = ws[-1]
    for w in reversed(ws[:-1]):
        acc = fl_commutator(w, acc)
    return acc


def delta_identity_check(g: Word, f: Word) -> bool:
    """g f g^-1 == [g,f] f, as reduced words in the free product."""
    return conjugate(g, f) == multiply(group_commutator(g, f), f)


def product_expansion_check(a: FreeLetterWord, b: FreeLetterWord,
                            c: FreeLetterWord) -> bool:
    """[ab, c] == [a,[b,c]] . [b,c] . [a,c], verified by free reduction."""
    lhs = fl_commutator(fl_mul(a, b), c)
    bc = fl_commutator(b, c)
    rhs = fl_mul(fl_commutator(a, bc), bc, fl_commutator(a, c))
    return lhs == rhs


def lemma_suite(groups: Sequence[FiniteGroup], rng: random.Random,
                trials: int, depth: int) -> tuple[int, int, int]:
    """Pass counts of the three commutator-calculus checks.

    The delta identity on `trials` pairs of random words over `groups`, the
    product expansion on `trials` triples of random free-letter words, and
    the Magnus weights of the depth-k iterated commutator and of its bracket
    with a fresh letter, for k = 1..depth (at most 5, one letter of "abcde"
    each).  The two series are truncated at degrees k and k + 1, which is
    exact: each letter multiplies by 1 + X or 1 - X + X^2 - ..., which never
    lowers a degree, so truncating at degree d leaves every coefficient of
    degree <= d as it is.  A weight w <= d reads w at d as at any higher
    degree, and one above d reads None, which is not k.
    """
    delta = 0
    words = random_words(rng, groups)
    for _ in range(trials):
        g = next(words)
        delta += delta_identity_check(g, next(words))
    alphabet = "abcde"
    bits = rng.getrandbits  # drawn as rng.choice and rng.randrange draw
    expansion = 0
    for _ in range(trials):
        ws = [free_reduce(ord(alphabet[_below(bits, 5)]) * (1, -1)[_below(bits, 2)]
                          for _ in range(1 + _below(bits, 4)))
              for _ in range(3)]
        expansion += product_expansion_check(*ws)
    magnus = 0
    # a k past 5 would bracket the same five letters, of weight 5, and never pass
    for k in range(1, min(depth, len(alphabet)) + 1):
        f = iterated_commutator(letters(*alphabet[:k]))
        magnus += (magnus_weight(f, k) == k
                   and magnus_weight(fl_commutator(letters("z")[0], f), k + 1) == k + 1)
    return delta, expansion, magnus


def magnus_series(w: FreeLetterWord, degree: int) -> dict:
    """Truncated non-commutative Magnus expansion of a free-letter word.

    A monomial is a tuple of symbols, each the ord of its name, and the
    series is kept as one dict per monomial length.  Multiplying by
    x -> 1 + X adds each coefficient to the monomial one symbol longer,
    T[mu x] = S[mu x] + S[mu]; dividing by it solves T (1 + X) = S, so
    T[mu x] = S[mu x] - T[mu] in increasing length.
    """
    levels: list[dict] = [{(): 1}] + [{} for _ in range(degree)]
    for x in w:
        unit, last = (1 if x > 0 else -1), (abs(x),)
        for n in range(degree, 0, -1) if unit == 1 else range(1, degree + 1):
            level = levels[n]
            for mon, c in levels[n - 1].items():
                key = mon + last
                v = level.get(key, 0) + unit * c
                if v:
                    level[key] = v
                else:
                    level.pop(key, None)
    return {mon: c for level in levels for mon, c in level.items()}


def magnus_weight(w: FreeLetterWord, degree: int) -> int | None:
    """Minimal degree of a nonzero term of (series - 1), or None if > degree.

    None means the weight is at least degree + 1; it is never a silent
    truncation artefact.
    """
    if degree > MAX_MAGNUS_DEGREE:
        raise ValueError(f"degree cap is {MAX_MAGNUS_DEGREE}")
    series = magnus_series(w, degree)
    weights = [len(mon) for mon, c in series.items() if mon and c]
    return min(weights) if weights else None
