"""The conjugation action on the kernel free group.

An automorphism is stored as the images of the chosen basis generators,
each a freely reduced signed word over basis symbols.  Two bases are
supported: the commutator basis w[i,j] = [g_i, h_j] for exactly two
factors, and the spanning-tree cycle basis of a fibre graph for any
number of factors.

Both act by deck translation through a letter walk, `Basis.walk`;
`Basis.state` runs it from the basepoint 0 for every caller.  Its state
is the image of the prefix read so far, a mixed-radix index c
(coordinate 0 most significant) standing for a fixed word: the staircase
tree path in the tree basis (`fibre.cotree_walker`), g_p h_q for
c = p |H| + q in the commutator basis (`commutator_walker`).  Each letter
emits the signed symbols s with  c . letter = s . c', so walks concatenate;
a kernel word walks from 0 back to 0 and spells its decomposition, and
conjugation by g sends a witness w to P . walk(w from pi(g)) . P^-1, where
P is the walk of g; `Basis.walks` caches the witness walks of one state.
Each basis passes its witness walks, `Basis.closed_walks`: the tree basis
reads them off the grid (`fibre.cotree_walks`), the commutator basis walks
each commutator's raw letters.  No walk builds a witness; `Basis.witnesses`
builds and kernel-checks them on first read (`recompose`, verify, and `basis`
in the commutator basis; the tree basis prints `fibre.witness_texts`).
So act(g) is x -> P x P^-1 after the automorphism that sends witness j to
its walk W_j from pi(g), `outer_representative`: one outer class, one H1
matrix, read off the state alone.  `act_word` keeps P, and `image_texts`,
which `act` prints, spells each image from the cuts of P and P^-1 around it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .fibre import (FibreGraph, Walker, betti_one, cotree_walker, cotree_walks,
                    cycle_witnesses)
from .groups import FiniteGroup
from .words import Word, free_reduce, invert, invert_signed, projection, reduce_word

# A signed symbol word (see `words`): symbol k is k + 1, its inverse -(k + 1)
SymbolWord = tuple[int, ...]


@dataclass(frozen=True)
class Basis:
    kind: str  # "algebraic-n2" | "tree"
    groups: tuple[FiniteGroup, ...]
    symbols: tuple[str, ...]
    # builds the witnesses, one per symbol, on the first read of `witnesses`
    make_witnesses: Callable[[], Iterable[Word]] = field(compare=False, repr=False)
    walk: Walker = field(compare=False, repr=False)  # the letter walk, from any state
    # the witness walks by start, which build no witness
    closed_walks: Callable[[int], tuple] = field(compare=False, repr=False)

    @functools.cached_property
    def witnesses(self) -> tuple[Word, ...]:
        """The kernel word each symbol stands for, built and kernel-checked on first read."""
        witnesses = tuple(self.make_witnesses())
        project = projection(self.groups)
        for w in witnesses:
            if any(project(w.letters)):
                raise ValueError("basis witness is not in the kernel")
        return witnesses

    @functools.cached_property
    def walks(self) -> Callable[[int], tuple[SymbolWord, ...]]:
        """The witness walks from a state, cached for the last state."""
        return functools.lru_cache(maxsize=1)(self.closed_walks)

    @property
    def rank(self) -> int:
        return len(self.symbols)

    def state(self, w: Word, out: list | None = None) -> int:
        """The state w walks to from the basepoint 0; its symbols go to `out`."""
        if w.groups != self.groups:
            raise ValueError("word is over a different group list")
        return self.walk(w.letters, 0, [] if out is None else out)

    @functools.cached_property
    def tokens(self) -> list[str]:
        """Symbol x prints as tokens[x]: a negative x wraps round to the reversed inverses."""
        return ["", *self.symbols, *(s + "^-1" for s in reversed(self.symbols))]

    def format_image(self, image: SymbolWord) -> str:
        """The image's tokens joined by '*', or 'e'."""
        if len(image) > 1:
            return "*".join(itemgetter(*image)(self.tokens))
        return self.tokens[image[0]] if image else "e"


def _walk_each(walk: Walker, letters: Sequence[tuple], start: int) -> tuple[SymbolWord, ...]:
    runs: list[list] = [[] for _ in letters]
    for word, raw in zip(letters, runs):
        walk(word, start, raw)
    return tuple(map(tuple, runs))


def algebraic_basis(groups: Sequence[FiniteGroup]) -> Basis:
    """The basis w[i,j] = [g_i, h_j], i-major, for two nontrivial factors; each witness
    is spelt once as its reduced letters g_i h_j g_i^-1 h_j^-1, walked as they are."""
    groups = tuple(groups)
    if len(groups) != 2:
        raise ValueError("the commutator basis needs exactly two factors")
    for k, G in enumerate(groups, 1):
        if G.order < 2:
            raise ValueError(f"the commutator basis needs two nontrivial factors: "
                             f"factor {k} has order {G.order}")
    G, H = groups
    pairs = list(itertools.product(range(1, G.order), range(1, H.order)))
    letters = [((0, i), (1, j), (0, G.inverses[i]), (1, H.inverses[j])) for i, j in pairs]
    walk = commutator_walker(G, H)
    return Basis("algebraic-n2", groups, tuple(f"w[{i},{j}]" for i, j in pairs),
                 lambda: (Word(groups, w) for w in letters), walk,
                 functools.partial(_walk_each, walk, letters))


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
    """The fundamental cycles of the staircase tree; their walks are read off the grid."""
    symbols = tuple(f"c{k + 1}" for k in range(betti_one(graph)))
    return Basis("tree", graph.groups, symbols, lambda: cycle_witnesses(graph),
                 cotree_walker(graph), cotree_walks(graph))


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
    raw: list[int] = []
    if basis.state(w, raw):
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
    """The action of w by conjugation, as a deck translation (see `_seams`).

    A free basis gives each image one reduced word, so this equals the
    per-letter fold act(uv) = act(u) o act(v).
    """
    prefix, suffix, seams = _seams(w, basis)
    return Automorphism(basis, tuple([prefix[:h] + middle + suffix[t:]
                                      for h, middle, t in seams]))


def image_texts(w: Word, basis: Basis) -> list[str]:
    """The images of `act_word(w, basis)` as `Basis.format_image` prints them.

    Only the middle run of each image is formatted: each cut of P and P^-1
    it is joined to is spelt once, on its first use, with its '*' on the
    side the middle lies.
    """
    prefix, suffix, seams = _seams(w, basis)
    tokens, fmt, out = basis.tokens, basis.format_image, []
    heads, tails = [None] * (len(prefix) + 1), [None] * (len(prefix) + 1)
    for h, middle, t in seams:
        if heads[h] is None:
            heads[h] = "".join([tokens[x] + "*" for x in prefix[:h]])
        if tails[t] is None:
            tails[t] = "".join(["*" + tokens[x] for x in suffix[t:]])
        out.append(heads[h] + fmt(middle) + tails[t])
    return out


def _seams(w: Word, basis: Basis) -> tuple[SymbolWord, SymbolWord, list[tuple]]:
    """P, P^-1 and each image P[:head] + middle + (P^-1)[tail:], as (head, middle, tail).

    w is walked once to the prefix P; each witness's walk W from the image
    of w (`Basis.walks`) is then joined to P and P^-1.  The walk of a reduced
    word is reduced (see `decompose`), so symbols cancel only at the two
    seams, and the middle is what is left of W.  If W cancels away, P meets
    P^-1: only then is the join reduced in full, into a middle with empty cuts.
    """
    raw: list[int] = []
    start = basis.state(w, raw)
    prefix = tuple(raw)
    suffix = invert_signed(prefix)
    n, seams = len(prefix), []
    for run in basis.walks(start):
        # W[k] cancels P[-1-k] when it equals (P^-1)[k]; W[-1-j] cancels
        # (P^-1)[j] when it equals P[-1-j]
        b, k, j = len(run), 0, 0
        while k < b and k < n and run[k] == suffix[k]:
            k += 1
        while k < b - j and j < n and run[b - 1 - j] == prefix[n - 1 - j]:
            j += 1
        if k < b - j:
            seams.append((n - k, run[k:b - j], j))
        else:
            seams.append((0, free_reduce(prefix[:n - k] + suffix[j:]), n))
    return prefix, suffix, seams


def outer_representative(w: Word, basis: Basis) -> Automorphism:
    """The prefix-free representative of w's outer class: witness j to its walk from pi(w).

    act_word(w) conjugates each of these images by the walk P of w, so the
    two differ by an inner automorphism and abelianize alike: P's letters
    cancel against P^-1's in every column.  The walks of a state are cached
    (`Basis.walks`), so this costs one walk of w past the first call.
    """
    return Automorphism(basis, basis.walks(basis.state(w)))
