"""Reduced-word calculus in a free product of finite groups.

A letter is a plain int pair (factor index, non-identity element index),
and a word is an alternating sequence of letters.  Reduction merges
adjacent same-factor letters through the Cayley table and drops identity
letters, yielding the unique normal form.  Each word operation
concatenates raw letters and reduces once; the inverse of a reduced word
is reduced, so `invert` does not reduce at all.  `reduce_word` is the one
checked constructor of reduced words: it and `invert` wrap their letters
without the validation of a `Word(...)` built directly.  Words are immutable
values; all operations are pure.
The module also holds the seeded random words the checks draw from, and
the free reduction of signed symbol words, which every free-group layer
shares: a word of nonzero ints, symbol k with sign s being s (k + 1).
Seeded words come as streams (`random_words`, `random_kernel_words`): a
stream reads its group list once, and draws each word only when it is
asked for, each letter merged through the Cayley table as it is drawn, so
no word is reduced in a second pass.  `random_word` and `random_kernel_word`
are the first word of a fresh stream.  The draws come from `rng.getrandbits`
as `rng.randrange` makes them, so a seed gives the same words, and leaves
`rng` in the same state, as the `randrange` spelling.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from operator import neg
from typing import Callable, Iterable, Iterator, Sequence

from .groups import _NAME_TOKEN, FiniteGroup, clip, clip_int, token_int


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

    @classmethod
    def _of_letters(cls, groups: tuple[FiniteGroup, ...], letters: tuple) -> "Word":
        """Wrap letters reduced inside this module, without checking them again."""
        w = cls.__new__(cls)
        object.__setattr__(w, "groups", groups)  # past the frozen __setattr__, as __init__ does
        object.__setattr__(w, "letters", letters)
        return w

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
    """Reduce a raw (factor, elem) sequence to alternating normal form, checking each letter."""
    groups = tuple(groups)
    n = len(groups)
    stack: list[tuple[int, int]] = []
    top = -1  # the factor of the top letter; the stack alternates
    for factor, elem in raw:
        if not 0 <= factor < n:
            raise ValueError(f"factor index out of range: {factor}")
        G = groups[factor]
        if not 0 <= elem < G.order:
            raise ValueError(f"element index {elem} out of range for factor {factor}")
        if not elem:
            continue
        if factor != top:
            stack.append((factor, elem))
            top = factor
        elif merged := G.table[stack[-1][1]][elem]:  # both are checked elements
            stack[-1] = (factor, merged)
        else:
            stack.pop()
            top = stack[-1][0] if stack else -1
    return Word._of_letters(groups, tuple(stack))


def free_reduce(seq: Iterable[int]) -> tuple[int, ...]:
    """Free reduction of a signed symbol word: cancel each x next to -x."""
    out: list[int] = []
    for x in seq:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert_signed(seq: Sequence[int]) -> tuple[int, ...]:
    """The inverse of a signed symbol word: reversed, each symbol negated."""
    return tuple(map(neg, reversed(seq)))


def multiply(w1: Word, w2: Word) -> Word:
    _check_same_groups(w1, w2)
    return reduce_word(w1.letters + w2.letters, w1.groups)


def invert(w: Word) -> Word:
    """Reversed, each element inverted: the inverse of a reduced word is reduced."""
    groups = w.groups
    return Word._of_letters(groups, tuple((f, groups[f].inverses[e])
                                          for f, e in reversed(w.letters)))


def commutator(a: Word, b: Word) -> Word:
    """[a, b] = a b a^-1 b^-1, reduced once."""
    _check_same_groups(a, b)
    return reduce_word(a.letters + b.letters + invert(a).letters + invert(b).letters, a.groups)


def conjugate(g: Word, w: Word) -> Word:
    """g w g^-1, reduced once."""
    _check_same_groups(g, w)
    return reduce_word(g.letters + w.letters + invert(g).letters, g.groups)


def projection(groups: Sequence[FiniteGroup]) -> Callable[[Iterable[tuple[int, int]]], tuple]:
    """The retraction onto the direct product, per coordinate, of the letters
    of a Word over `groups`; the tables are looked up once, here."""
    tables = [G.table for G in groups]

    def project_letters(letters: Iterable[tuple[int, int]]) -> tuple[int, ...]:
        acc = [0] * len(tables)
        for f, e in letters:  # a Word's letters are checked elements: read the tables unchecked
            acc[f] = tables[f][acc[f]][e]
        return tuple(acc)

    return project_letters


def project(w: Word) -> tuple[int, ...]:
    """Image under the retraction onto the direct product, per coordinate."""
    return projection(w.groups)(w.letters)


def is_in_kernel(w: Word) -> bool:
    return not any(project(w))


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """A draw from range(n), as `randrange(n)` makes it: n.bit_length() bits,
    drawn again while they read n or more."""
    if n <= 0:  # getrandbits(0) is 0, so the loop would never end
        raise ValueError(f"empty range for a draw below {n}")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _word_stream(rng: random.Random, groups: Sequence[FiniteGroup], least: int, below: int,
                 close: bool) -> Iterator[Word]:
    # each word is least + _below(below) letter draws, each a factor and then a
    # non-identity element of it, drawn as `_below` draws, inlined here; a trivial
    # factor has none, so its draws add no letter, and C2's one element still spends
    # a bit, as randrange(1, 2) does.  Each letter is merged onto the reduced stack
    # as `reduce_word` merges it, as it is drawn, and its projection builds up; with
    # `close`, one letter per coordinate, after the draws, cancels that projection.
    # The tables, inverse rows and (order - 1, bit length) pairs are read once per stream
    groups = tuple(groups)
    bits, n = rng.getrandbits, len(groups)
    k = n.bit_length()
    factors = [(G.order - 1, (G.order - 1).bit_length(), G.table) for G in groups]
    inverses = [G.inverses for G in groups]
    while True:
        count = least + _below(bits, below)
        if count and not n:
            raise ValueError("no factor to draw a letter from")
        stack: list[tuple[int, int]] = []
        top = -1  # the factor of the top letter; the stack alternates
        image = [0] * n
        for i in range(count + n if close else count):
            if i < count:
                f = bits(k)
                while f >= n:
                    f = bits(k)
                m, j, table = factors[f]
                if not m:
                    continue
                e = bits(j)
                while e >= m:
                    e = bits(j)
                e += 1
                image[f] = table[image[f]][e]
            else:
                f = i - count
                if not image[f]:
                    continue
                table, e = factors[f][2], inverses[f][image[f]]
            if f != top:
                stack.append((f, e))
                top = f
            elif merged := table[stack[-1][1]][e]:
                stack[-1] = (f, merged)
            else:
                stack.pop()
                top = stack[-1][0] if stack else -1
        yield Word._of_letters(groups, tuple(stack))


def random_words(rng: random.Random, groups: Sequence[FiniteGroup],
                 max_letters: int = 8) -> Iterator[Word]:
    """Endless reduced products of 1 to max_letters - 1 random letter draws,
    each word drawn when it is asked for."""
    return _word_stream(rng, groups, 1, max_letters - 1, False)


def random_kernel_words(rng: random.Random, groups: Sequence[FiniteGroup],
                        max_letters: int = 10) -> Iterator[Word]:
    """Endless words of fewer than max_letters random letter draws, each closed up
    into the kernel, and drawn when it is asked for.

    One letter per coordinate is appended to cancel the projection, which is a
    homomorphism: the raw draws project as their reduced word does.
    """
    return _word_stream(rng, groups, 0, max_letters, True)


def random_word(rng: random.Random, groups: Sequence[FiniteGroup],
                max_letters: int = 8) -> Word:
    """Reduced product of 1 to max_letters - 1 random letter draws."""
    return next(random_words(rng, groups, max_letters))


def random_kernel_word(rng: random.Random, groups: Sequence[FiniteGroup],
                       max_letters: int = 10) -> Word:
    """Fewer than max_letters random letter draws, closed up into the kernel."""
    return next(random_kernel_words(rng, groups, max_letters))


_X_TOKEN = re.compile(r"x([0-9]+)(?:\^(-?[0-9]+))?$")
_CYCLIC_NAME = re.compile(r"x(?:\^(-?[0-9]+))?")


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
        m = _X_TOKEN.match(token) or _NAME_TOKEN.match(token)
        if m is None:
            raise ValueError(f"cannot parse word token {clip(token)!r}")
        i = token_int(m.group(1), "coordinate in token", token)
        if not 1 <= i <= len(groups):
            raise ValueError(f"coordinate {clip_int(i)} out of range in token {clip(token)!r}")
        G = groups[i - 1]
        if m.re is _NAME_TOKEN:
            raw.append((i - 1, G.index_of(m.group(2))))
        elif G.order < 2:
            raise ValueError(f"factor {i} is trivial; has no generator")
        else:
            k = 1 if m.group(2) is None else token_int(m.group(2), "exponent in token", token)
            raw.append((i - 1, G.power(1, k)))
    return reduce_word(raw, groups)


def format_word(w: Word) -> str:
    return format_words([w])[0]


def letter_tokens(groups: Sequence[FiniteGroup]) -> list[list[str]]:
    """The token table: letter (f, e) prints as tokens[f][e], x<i>^<k> or s<i>:<name>.

    A name x or x^k prints as x<i>^<k> only where `parse_word` reads that back
    as e, `G.power(1, k)`; any other name prints as s<i>:<name>.
    """
    tokens = []
    for i, G in enumerate(groups):
        powers = _powers_of_one(G)
        tokens.append([name.replace("x", f"x{i + 1}") if _power_of_one(name, powers) == e
                       else f"s{i + 1}:{name}" for e, name in enumerate(G.names)])
    return tokens


def _powers_of_one(G: FiniteGroup) -> list[int]:
    """The powers 1, g, g^2, ... of g = element 1, up to its order; [] if G is trivial."""
    if G.order < 2:
        return []
    powers, x = [0], 1
    while x:
        powers.append(x)
        x = G.table[x][1]
    return powers


def _power_of_one(name: str, powers: list[int]) -> int | None:
    """The element x<i>^<k>, spelt from a name x or x^k, reads as; None for other names
    and for an exponent with more digits than `parse_word` reads."""
    m = _CYCLIC_NAME.fullmatch(name)
    if m is None or not powers:
        return None
    try:
        k = 1 if m.group(1) is None else int(m.group(1))
    except ValueError:  # the digit limit `token_int` refuses too
        return None
    return powers[k % len(powers)]


def format_words(words: Iterable[Word]) -> list[str]:
    """Words as their letters' tokens joined by '*', or 'e', from one token table."""
    groups, out = None, []
    for w in words:
        if w.groups is not groups:
            groups = w.groups
            tokens = letter_tokens(groups)
        out.append("*".join([tokens[f][e] for f, e in w.letters]) or "e")
    return out
