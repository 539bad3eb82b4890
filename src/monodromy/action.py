"""The conjugation action on the kernel free group.

An automorphism is stored as the images of the chosen basis generators,
each a freely reduced signed word over basis symbols.  Two bases are
supported: the commutator basis w[i,j] = [g_i, h_j] for exactly two
factors, and the spanning-tree cycle basis of a fibre graph for any
number of factors.

Both act by deck translation through a letter walk, `Basis.walk`.  Its
state is the image of the prefix read so far, a mixed-radix index c
(coordinate 0 most significant) standing for a fixed word: the staircase
tree path in the tree basis (`fibre.cotree_walker`), g_p h_q for
c = p |H| + q in the commutator basis (`commutator_walker`).  Each letter
emits the signed symbols s with  c . letter = s . c', so walks concatenate;
a kernel word walks from 0 back to 0 and spells its decomposition, and
conjugation by g sends a witness w to P . walk(w from pi(g)) . P^-1, where
P is the walk of g; `Basis.walks` keeps the witness walks of the last state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Callable, Sequence

from .fibre import FibreGraph, Walker, cotree_walker, cotree_walks, cycle_witnesses
from .groups import FiniteGroup
from .words import (Letter, Word, commutator, free_reduce, invert, invert_signed,
                    projection, reduce_word, single)

# A signed symbol word (see `words`): symbol k is k + 1, its inverse -(k + 1)
SymbolWord = tuple[int, ...]


@dataclass(frozen=True)
class Basis:
    kind: str  # "algebraic-n2" | "tree"
    groups: tuple[FiniteGroup, ...]
    symbols: tuple[str, ...]
    witnesses: tuple[Word, ...]
    walk: Walker = field(compare=False, repr=False)  # the letter walk, from any state
    walks: Callable[[int], tuple] = field(compare=False, repr=False)  # witness walks, by start

    def __post_init__(self):
        project = projection(self.groups)
        for w in self.witnesses:
            if any(project(w.letters)):
                raise ValueError("basis witness is not in the kernel")

    @property
    def rank(self) -> int:
        return len(self.symbols)

    @cached_property
    def _tokens(self) -> list[str]:
        """Symbol x prints as tokens[x]: a negative x wraps round to the reversed inverses."""
        return ["", *self.symbols, *(s + "^-1" for s in reversed(self.symbols))]

    def format_image(self, image: SymbolWord) -> str:
        if len(image) > 1:
            return "*".join(itemgetter(*image)(self._tokens))
        return self._tokens[image[0]] if image else "e"


def algebraic_basis(groups: Sequence[FiniteGroup]) -> Basis:
    """The basis w[i,j] = [g_i, h_j], i-major, for two nontrivial factors."""
    groups = tuple(groups)
    if len(groups) != 2:
        raise ValueError("the commutator basis needs exactly two factors")
    for k, G in enumerate(groups, 1):
        if G.order < 2:
            raise ValueError(f"the commutator basis needs two nontrivial factors: "
                             f"factor {k} has order {G.order}")
    G, H = groups
    symbols, witnesses = [], []
    for i in range(1, G.order):
        for j in range(1, H.order):
            symbols.append(f"w[{i},{j}]")
            witnesses.append(commutator(single(groups, 0, i), single(groups, 1, j)))
    walk = commutator_walker(G, H)

    @lru_cache(maxsize=1)
    def walks(start: int) -> tuple[SymbolWord, ...]:
        runs: list[list] = [[] for _ in witnesses]
        for wit, raw in zip(witnesses, runs):
            walk(wit.letters, start, raw)
        return tuple(map(tuple, runs))

    return Basis("algebraic-n2", groups, tuple(symbols), tuple(witnesses), walk, walks)


def commutator_walker(G: FiniteGroup, H: FiniteGroup) -> Walker:
    """The letter walk of the commutator basis, from any state.

    The state p |H| + q stands for g_p h_q.  A letter of H moves q and emits
    nothing.  A letter a of G moves p to p' = p a and, if q != 0, emits
    [g_p, h_q] unless p = 0, then [g_p', h_q]^-1 unless p' = 0; the symbol
    w[i,j] is (i - 1)(|H| - 1) + j.
    """
    # a Word's letters are valid elements, so the walk reads the tables unchecked
    n, g_table, h_table = H.order, G.table, H.table

    def walk(letters: Sequence[tuple[int, int]], index: int, out: list) -> int:
        p, q = divmod(index, n)
        for f, e in letters:
            if f:
                q = h_table[q][e]
                continue
            r = g_table[p][e]
            if q:
                if p:
                    out.append((p - 1) * (n - 1) + q)
                if r:
                    out.append(-((r - 1) * (n - 1) + q))
            p = r
        return p * n + q

    return walk


def tree_basis(graph: FibreGraph) -> Basis:
    witnesses = tuple(cycle_witnesses(graph))
    symbols = tuple(f"c{k + 1}" for k in range(len(witnesses)))
    return Basis("tree", graph.groups, symbols, witnesses, cotree_walker(graph),
                 lru_cache(maxsize=1)(cotree_walks(graph)))


@dataclass(frozen=True)
class Automorphism:
    basis: Basis
    images: tuple[SymbolWord, ...]

    def __post_init__(self):
        if len(self.images) != self.basis.rank:
            raise ValueError("one image per basis symbol required")


def decompose(basis: Basis, w: Word) -> SymbolWord:
    """A kernel word over the basis: its walk from 0, which returns to 0 on the kernel only.

    A reduced word walks to a reduced symbol word from any state.  Tree
    basis: each letter is a monotone run along one coordinate, and
    neighbouring letters move different coordinates, so the edge path never
    backtracks at once; between two cotree crossings it stays in the tree,
    which has no non-empty loop without a backtrack.  Commutator basis: a
    letter of G emits [g_p, h_q] then [g_p', h_q]^-1 with p != p'; the next
    symbol lies across a letter of H, which changes q, or across h a h' with
    a at q = 0, which changes p, so it never cancels.
    """
    if w.groups != basis.groups:
        raise ValueError("word is over a different group list")
    raw: list[int] = []
    if basis.walk(w.letters, 0, raw):
        raise ValueError("word is not in the kernel of the projection")
    return tuple(raw)


def recompose(basis: Basis, image: SymbolWord) -> Word:
    """The kernel word a signed symbol word spells: its witnesses' letters, reduced once."""
    raw: list[tuple[int, int]] = []
    for x in image:
        wit = basis.witnesses[abs(x) - 1]
        raw += wit.letters if x > 0 else invert(wit).letters
    return reduce_word(raw, basis.groups)


def act_word(w: Word, basis: Basis) -> Automorphism:
    """The action of w by conjugation, as a deck translation.

    w is walked once to the prefix P; each witness's walk W from the image
    of w (`Basis.walks`) is then joined to P and P^-1.  The walk of a reduced
    word is reduced (see `decompose`), so symbols cancel only at the two
    seams, unless W cancels away and P meets P^-1: only then is the join
    reduced in full.  A free basis gives each image one reduced word, so
    this equals the per-letter fold act(uv) = act(u) o act(v).
    """
    if w.groups != basis.groups:
        raise ValueError("word is over a different group list")
    raw: list[int] = []
    start = basis.walk(w.letters, 0, raw)
    prefix = tuple(raw)
    suffix = invert_signed(prefix)
    n = len(prefix)
    images = []
    for run in basis.walks(start):
        # W[k] cancels P[-1-k] when it equals (P^-1)[k]; W[-1-j] cancels
        # (P^-1)[j] when it equals P[-1-j]
        b, k, j = len(run), 0, 0
        while k < b and k < n and run[k] == suffix[k]:
            k += 1
        while k < b - j and j < n and run[b - 1 - j] == prefix[n - 1 - j]:
            j += 1
        if k < b - j:
            images.append(prefix[:n - k] + run[k:b - j] + suffix[j:])
        else:
            images.append(free_reduce(prefix[:n - k] + suffix[j:]))
    return Automorphism(basis, tuple(images))


def act_letter(t: Letter, basis: Basis) -> Automorphism:
    return act_word(single(basis.groups, *t), basis)
