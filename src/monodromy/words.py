"""Reduced-word calculus in a free product of finite groups.

A letter is a plain int pair (factor index, non-identity element index);
`Letter` names its two fields and equals the bare pair.  A word is an
alternating sequence of letters.  Reduction merges adjacent same-factor
letters through the Cayley table and drops identity letters, yielding the
unique normal form.  Each word operation concatenates raw letters and
reduces once; the inverse of a reduced word is reduced, so `invert` does
not reduce at all.  Words are immutable values; all operations are pure.
The module also holds the free reduction of signed symbol words, which
every free-group layer shares, and the seeded random words the checks draw
from.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .groups import FiniteGroup


class Letter(NamedTuple):
    factor: int  # 0-based coordinate
    elem: int    # non-identity element index of groups[factor]


@dataclass(frozen=True)
class Word:
    groups: tuple[FiniteGroup, ...]
    letters: tuple[tuple[int, int], ...]  # (factor, elem) pairs

    def __post_init__(self):
        prev = None
        for f, e in self.letters:
            if not 0 <= f < len(self.groups):
                raise ValueError(f"factor index out of range: {f}")
            if not 0 < e < self.groups[f].order:
                raise ValueError(f"bad element index {e} in factor {f}")
            if prev == f:
                raise ValueError("word not reduced: adjacent letters share a factor")
            prev = f

    def __len__(self):
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __str__(self):
        return format_word(self)


def _check_same_groups(a: Word, b: Word):
    if a.groups != b.groups:
        raise ValueError("words are over different group lists")


def empty_word(groups: Sequence[FiniteGroup]) -> Word:
    return Word(tuple(groups), ())


def single(groups: Sequence[FiniteGroup], factor: int, elem: int) -> Word:
    """One-letter word; the identity element gives the empty word."""
    groups = tuple(groups)
    if elem % groups[factor].order == 0:
        return Word(groups, ())
    return Word(groups, ((factor, elem),))


def reduce_word(raw: Iterable[tuple[int, int]], groups: Sequence[FiniteGroup]) -> Word:
    """Reduce a raw (factor, elem) sequence to alternating normal form."""
    groups = tuple(groups)
    stack: list[tuple[int, int]] = []
    for factor, elem in raw:
        G = groups[factor]
        if not 0 <= elem < G.order:
            raise ValueError(f"element index {elem} out of range for factor {factor}")
        if elem == 0:
            continue
        if stack and stack[-1][0] == factor:
            merged = G.table[stack[-1][1]][elem]  # both are checked elements
            stack.pop()
            if merged != 0:
                # re-push; a merge can expose a new same-factor neighbour only
                # after a deletion, which the stack handles naturally
                if stack and stack[-1][0] == factor:
                    raise AssertionError("stack invariant broken")
                stack.append((factor, merged))
        else:
            stack.append((factor, elem))
    return Word(groups, tuple(stack))


def free_reduce(seq: Iterable[tuple[object, int]]) -> tuple:
    """Free reduction of signed symbols (symbol, +1|-1): cancel each x x^-1."""
    out: list = []
    for sym, sign in seq:
        if out and out[-1] == (sym, -sign):
            out.pop()
        else:
            out.append((sym, sign))
    return tuple(out)


def invert_signed(seq: Sequence[tuple[object, int]]) -> tuple:
    """The inverse of a signed symbol word: reversed, each sign flipped."""
    return tuple((sym, -sign) for sym, sign in reversed(seq))


def multiply(w1: Word, w2: Word) -> Word:
    _check_same_groups(w1, w2)
    return reduce_word(w1.letters + w2.letters, w1.groups)


def invert(w: Word) -> Word:
    """Reversed, each element inverted: the inverse of a reduced word is reduced."""
    groups = w.groups
    return Word(groups, tuple((f, groups[f].inverses[e]) for f, e in reversed(w.letters)))


def commutator(a: Word, b: Word) -> Word:
    """[a, b] = a b a^-1 b^-1, reduced once."""
    _check_same_groups(a, b)
    return reduce_word(a.letters + b.letters + invert(a).letters + invert(b).letters, a.groups)


def conjugate(g: Word, w: Word) -> Word:
    """g w g^-1, reduced once."""
    _check_same_groups(g, w)
    return reduce_word(g.letters + w.letters + invert(g).letters, g.groups)


def project(w: Word) -> tuple[int, ...]:
    """Image under the retraction onto the direct product, per coordinate."""
    acc = [0] * len(w.groups)
    for f, e in w.letters:  # a Word's letters are checked elements: read the tables unchecked
        acc[f] = w.groups[f].table[acc[f]][e]
    return tuple(acc)


def is_in_kernel(w: Word) -> bool:
    return all(v == 0 for v in project(w))


def _random_letters(rng: random.Random, groups: Sequence[FiniteGroup],
                    count: int) -> list[tuple[int, int]]:
    # each draw picks a factor, then a non-identity element of it; a trivial
    # factor has none, so its draws add no letter
    raw = []
    for _ in range(count):
        f = rng.randrange(len(groups))
        if groups[f].order > 1:
            raw.append((f, rng.randrange(1, groups[f].order)))
    return raw


def random_word(rng: random.Random, groups: Sequence[FiniteGroup],
                max_letters: int = 8) -> Word:
    """Reduced product of 1 to max_letters - 1 random letter draws."""
    return reduce_word(_random_letters(rng, groups, rng.randrange(1, max_letters)), groups)


def random_kernel_word(rng: random.Random, groups: Sequence[FiniteGroup],
                       max_letters: int = 10) -> Word:
    """Fewer than max_letters random letter draws, closed up into the kernel.

    One letter per coordinate is appended to cancel the projection.
    """
    raw = _random_letters(rng, groups, rng.randrange(max_letters))
    fix = [(i, groups[i].inverse(p))
           for i, p in enumerate(project(reduce_word(raw, groups))) if p]
    return reduce_word(raw + fix, groups)


_X_TOKEN = re.compile(r"x([0-9]+)(?:\^(-?[0-9]+))?$")
_NAME_TOKEN = re.compile(r"s([0-9]+):(.+)$")
_CYCLIC_NAME = re.compile(r"x(\^-?[0-9]+)?")


def parse_word(text: str, groups: Sequence[FiniteGroup]) -> Word:
    """Parse the CLI word syntax.

    Tokens separated by '*': x<i>^<k> is the k-th power of generator
    (element index 1) of coordinate i; s<i>:<name> picks an element of
    coordinate i by display name.  Coordinates are 1-based.  'e' or an
    empty string is the identity.
    """
    groups = tuple(groups)
    text = text.strip()
    if text in ("", "e", "1"):
        return empty_word(groups)
    raw: list[tuple[int, int]] = []
    for token in text.split("*"):
        token = token.strip()
        m = _X_TOKEN.match(token)
        if m:
            i = int(m.group(1))
            k = 1 if m.group(2) is None else int(m.group(2))
            if not 1 <= i <= len(groups):
                raise ValueError(f"coordinate {i} out of range in token {token!r}")
            G = groups[i - 1]
            if G.order < 2:
                raise ValueError(f"factor {i} is trivial; has no generator")
            raw.append((i - 1, G.power(1, k)))
            continue
        m = _NAME_TOKEN.match(token)
        if m:
            i = int(m.group(1))
            if not 1 <= i <= len(groups):
                raise ValueError(f"coordinate {i} out of range in token {token!r}")
            raw.append((i - 1, groups[i - 1].index_of(m.group(2))))
            continue
        raise ValueError(f"cannot parse word token {token!r}")
    return reduce_word(raw, groups)


def format_word(w: Word) -> str:
    return format_words([w])[0]


def format_words(words: Iterable[Word]) -> list[str]:
    """Words as x<i>^<k> or s<i>:<name> tokens joined by '*', or 'e', from one token table."""
    groups, out = None, []
    for w in words:
        if w.groups is not groups:
            groups = w.groups
            tokens = [[name.replace("x", f"x{i + 1}") if _CYCLIC_NAME.fullmatch(name)
                       else f"s{i + 1}:{name}" for name in G.names] for i, G in enumerate(groups)]
        out.append("*".join([tokens[f][e] for f, e in w.letters]) or "e")
    return out
