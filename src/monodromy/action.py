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
tree path in the tree basis (`fibre.cotree_rule`), g_p h_q for
c = p |H| + q in the commutator basis (`algebraic_basis`).  Each letter
emits the signed symbols s with  c . letter = s . c', so walks concatenate;
a kernel word walks from 0 back to 0 and spells its decomposition, and
conjugation by g sends a witness w to P . walk(w from pi(g)) . P^-1, where
P is the walk of g.  `act_word` is that definition: each cached witness walk
W_j (`Basis.walks`) joined to P and P^-1.  Each basis lists, from a state,
the tree paths and joins of its witnesses, `Basis.paths`: the walk of each
witness is Phi(x) E Phi(x')^-1, Phi(v) the walk of a tree path, each its
parent's and one run.  Each basis builds its walk and its pass in one
place, over one symbol index: the tree basis reads them off the grid by
coordinate blocks (`fibre.cotree_rule`), the commutator basis lists the
vertices g_p (`algebraic_basis`).  `Basis.walks` spells those walks as
they are, since nothing cancels in them (see `decompose`); `_Joiner.over`, behind
`image_texts`, which `act` prints, spells Q(v), the reduction of P . Phi(v),
and its inverse once per vertex over slices of one text of every token, and
joins each image as Q(x) E Q(x')^-1, taking the few vertices and images
where P cancels.  No walk builds a witness; `Basis.witnesses` builds and
kernel-checks them on first read (`recompose`, verify, and `basis` in the
commutator basis; the tree basis prints `fibre.witness_texts`).  So act(g)
is x -> P x P^-1 after the automorphism that sends witness j to its walk
W_j from pi(g), `outer_representative`: one outer class, one H1 matrix,
read off the state alone.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .fibre import FibreGraph, Walker, betti_one, cotree_rule, cycle_witnesses
from .groups import FiniteGroup
from .words import Word, invert, invert_signed, projection, reduce_word

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
    # the steps and joins of every witness's walk from a state, which build no witness:
    # `walks` spells them, `_Joiner.over` joins P to them
    paths: Callable[[int], tuple[list, Iterable]] = field(compare=False, repr=False)

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
        """The witness walks from a state, spelt off `paths`, cached for the last state."""
        # closing over `paths`, not `self`, keeps a basis out of a reference cycle
        table, paths = (*range(1, self.rank + 1), *range(-self.rank, 1)), self.paths
        return functools.lru_cache(maxsize=1)(lambda start: _walks(table, *paths(start)))

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

    @functools.cached_property
    def text_table(self) -> tuple[str, list[int]]:
        """The text table of a `_Joiner`: '*' + tokens[x] for x = 1, ..., r, -r, ..., -1
        in one text, and where the first k of them end, for each k."""
        pieces = ["*" + s for s in self.symbols]
        return _text_and_ends(pieces + [p + "^-1" for p in reversed(pieces)])

    def format_image(self, image: SymbolWord) -> str:
        """The image's tokens joined by '*', or 'e'."""
        if len(image) > 1:
            return "*".join(itemgetter(*image)(self.tokens))
        return self.tokens[image[0]] if image else "e"


def algebraic_basis(groups: Sequence[FiniteGroup]) -> Basis:
    """The basis w[i,j] = [g_i, h_j], i-major, for two nontrivial factors; each witness
    is spelt as its reduced letters g_i h_j g_i^-1 h_j^-1.

    The state p |H| + q stands for g_p h_q, and both the letter walk and the
    pass follow the identity  g_p h_q a = [g_p, h_q] [g_r, h_q]^-1 g_r h_q,
    r = p a, each commutator dropped where an index is 0.  The symbol of
    [g_r, h_c] is first[r] + c, first[r] = (r - 1)(|H| - 1).

    `walk`: a letter of H moves q and emits nothing; a letter a of G emits
    the two commutators and moves p to r.  `paths(start) -> (steps, joins)`:
    the tree paths and witnesses of `start`, in `fibre.cotree_rule`'s format.
    With r = p g_i and s = q h_j, the walk of [g_i, h_j] is
    [g_p, h_q] [g_r, h_q]^-1 [g_r, h_s] [g_p, h_s]^-1, so the vertices are 0,
    1 (Phi is [g_p, h_q]), i + 1 (1 and [g_r, h_q]^-1, the walk of g_i) and
    |G| + j ([g_p, h_s]), and the witness joins i + 1 to |G| + j across
    [g_r, h_s]: every run is one symbol k, (k - 1, k), or none.
    """
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
    # a Word's letters are valid elements, so the walk reads the tables unchecked
    m, n, g_table, h_table = G.order, H.order, G.table, H.table
    first = [None, *range(0, (m - 1) * (n - 1), n - 1)]

    def walk(letters: Sequence[tuple[int, int]], index: int, out: list) -> int:
        p, q = divmod(index, n)
        for f, e in letters:
            if f:
                q = h_table[q][e]
                continue
            r = g_table[p][e]
            if q:
                if p:
                    out.append(first[p] + q)
                if r:
                    out.append(-(first[r] + q))
            p = r
        return p * n + q

    def paths(start: int) -> tuple[list, list]:
        p, q = divmod(start, n)
        rows, cols = g_table[p], h_table[q]
        at = itemgetter(*rows)(first)  # the symbol of w[rows[i],c] is at[i] + c
        steps = [None, (0, at[0] + q - 1, at[0] + q) if p and q else (0, 0, 0)]
        steps += [(1, ~(f + q), ~(f + q - 1)) if f is not None and q else (1, -1, -1)
                  for f in at[1:]]
        steps += [(0, at[0] + c - 1, at[0] + c) if p and c else (0, 0, 0) for c in cols[1:]]
        return steps, [(i + 1, at[i] + cols[j] - 1, at[i] + cols[j], m + j)
                       if at[i] is not None and cols[j] else (i + 1, 0, 0, m + j)
                       for i, j in pairs]

    return Basis("algebraic-n2", groups, tuple(f"w[{i},{j}]" for i, j in pairs),
                 lambda: (Word(groups, w) for w in letters), walk, paths)


def tree_basis(graph: FibreGraph) -> Basis:
    """The fundamental cycles of the staircase tree; their walks are read off the grid."""
    symbols = tuple([f"c{k}" for k in range(1, betti_one(graph) + 1)])
    return Basis("tree", graph.groups, symbols, lambda: cycle_witnesses(graph),
                 *cotree_rule(graph))


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
    """The action of w by conjugation, as a deck translation: witness j to
    P . W_j . P^-1 reduced, P the walk of w and W_j the witness's walk from pi(w).

    A free basis gives each image one reduced word, so this equals the
    per-letter fold act(uv) = act(u) o act(v).  It builds no `_Joiner`, so as
    the oracle of `image_texts` it shares none of the joiner's cancellation.
    """
    raw: list[int] = []
    start = basis.state(w, raw)
    prefix = tuple(raw)
    suffix = invert_signed(prefix)
    return Automorphism(basis, tuple(_joined(_joined(prefix, walk), suffix)
                                     for walk in basis.walks(start)))


def image_texts(w: Word, basis: Basis) -> list[str]:
    """The images of `act_word(w, basis)` as `Basis.format_image` prints them."""
    raw: list[int] = []
    start = basis.state(w, raw)
    return _Joiner(tuple(raw), *basis.text_table).over(*basis.paths(start))


def _walks(table: SymbolWord, steps: list, joins: Iterable) -> tuple[SymbolWord, ...]:
    """The walk Phi(x) E Phi(x')^-1 of each join (x, i, j, x') of a pass (`Basis.paths`),
    spelt as it is: walks of reduced words are reduced, so nothing cancels (see
    `decompose`), and Phi(v) and Phi(v)^-1 are spelt once per vertex, from their
    parent's.  A run (i, j) is table[i:j], for table = (1, ..., r, -r, ..., -1, 0):
    the symbols i + 1, ..., j for i, j >= 0, and its inverse (~j, ~i) -j, ..., -(i + 1)."""
    count = len(steps)
    phi, phi_inv = [()] * count, [()] * count
    for v in range(1, count):
        parent, i, j = steps[v]
        phi[v] = phi[parent] + table[i:j]
        phi_inv[v] = table[~j:~i] + phi_inv[parent]
    return tuple([phi[x] + table[i:j] + phi_inv[y] for x, i, j, y in joins])


class _Joiner:
    """Joins the walk P of an acting word to the tree paths and witnesses of a state.

    A basis's `paths` (`fibre.cotree_rule`, `algebraic_basis`) lists
    vertices v with tree-path walks Phi(v), each its parent's and one run,
    and joins each witness's walk as Phi(x) E Phi(x')^-1.  A run (i, j) is
    the symbols i + 1, ..., j, all of one sign, and is spelt
    table[ends[i]:ends[j]]; its inverse is (~j, ~i).  `over` keeps, for each
    vertex, Q(v) = P . Phi(v) reduced and Q(v)^-1: its parent's extended by
    the run.  Walks of reduced words are reduced (see `decompose`), so the
    run cancels against P only while Phi(parent) has cancelled away,
    Q(parent) = P[:cut[parent]]: `step` takes those.  The image
    Q(x) E Q(x')^-1 cancels at neither join unless Phi(x) or Phi(x') has
    cancelled away: `join` takes those, and E cancels into P from either side
    there.  The table is text, whose pieces carry a '*' before each token.  A
    Q text drops its first '*'; the state's own vertex counts as cancelled
    even for an empty P, so every Q text goes through `step`.
    """

    def __init__(self, prefix: SymbolWord, table: str, ends: Sequence[int]):
        self.prefix, self.table, self.ends = prefix, table, ends
        self.head, self.head_at = _text_and_ends([table[ends[x - 1]:ends[x]] for x in prefix])
        self.tail, self.tail_at = _text_and_ends([table[ends[x - 1]:ends[x]]
                                                  for x in invert_signed(prefix)])

    def step(self, v: int, parent: int, i: int, j: int):
        """Q(v) for Phi(v) = Phi(parent) and the run (i, j), where Phi(parent) cancelled away."""
        prefix, h = self.prefix, self.cut[parent]
        while h and i < j and prefix[h - 1] == -(i + 1):
            i, h = i + 1, h - 1
        if i == j:
            self.cut[v] = h
            return
        table, ends = self.table, self.ends
        self.q[v] = (self.head[:self.head_at[h]] + table[ends[i]:ends[j]])[1:]
        self.qi[v] = table[ends[~j]:ends[~i]] + self.tail[self.tail_at[len(prefix) - h]:]

    def join(self, x: int, i: int, j: int, y: int) -> str:
        """The image Q(x) E Q(y)^-1, E the run (i, j), where Phi(x) or Phi(y) cancelled away."""
        prefix, h, g, a, b = self.prefix, self.cut[x], self.cut[y], i, j
        while h > 0 and a < b and prefix[h - 1] == -(a + 1):  # E cancels into P[:h]
            a, h = a + 1, h - 1
        while g > 0 and a < b and prefix[g - 1] == b:  # and into P[:g]^-1
            b, g = b - 1, g - 1
        table, ends = self.table, self.ends
        if a < b:
            image = ((self.q[x] if h < 0 else self.head[:self.head_at[h]]) + table[ends[a]:ends[b]]
                     + (self.qi[y] if g < 0 else self.tail[self.tail_at[len(prefix) - g]:]))
            return image if h < 0 else image[1:]
        image = _joined(_joined(self.symbols(x), tuple(range(i + 1, j + 1))),
                        invert_signed(self.symbols(y)))
        return "".join([table[ends[s - 1]:ends[s]] for s in image])[1:]

    def symbols(self, v: int) -> SymbolWord:
        """Q(v) as signed symbols."""
        h = self.cut[v]
        if h >= 0:
            return self.prefix[:h]
        runs = []
        while v:
            v, i, j = self.steps[v]
            runs.append(range(i + 1, j + 1))
        return _joined(self.prefix, tuple(itertools.chain(*reversed(runs))))

    def over(self, steps: list, joins: Iterable) -> list:
        """The images of a pass that lists its steps (parent, i, j) by vertex, from 1,
        and its joins (x, i, j, x'); vertex 0 is the state itself."""
        table, ends, count = self.table, self.ends, len(steps)
        q, qi, cut = self.q, self.qi, self.cut = [""] * count, [""] * count, [-1] * count
        self.steps = steps
        cut[0] = len(self.prefix)
        for v in range(1, count):
            parent, i, j = steps[v]
            if cut[parent] < 0:
                q[v] = q[parent] + table[ends[i]:ends[j]]
                qi[v] = table[ends[~j]:ends[~i]] + qi[parent]
            elif i == j:
                cut[v] = cut[parent]
            else:
                self.step(v, parent, i, j)
        return [q[x] + table[ends[i]:ends[j]] + qi[y] if cut[x] < 0 and cut[y] < 0
                else self.join(x, i, j, y) for x, i, j, y in joins]


def _text_and_ends(pieces: list[str]) -> tuple[str, list[int]]:
    """The pieces joined, and where the first k of them end, for each k."""
    return "".join(pieces), list(itertools.accumulate(map(len, pieces), initial=0))


def _joined(a: SymbolWord, b: SymbolWord) -> SymbolWord:
    """The reduced a . b of reduced a and b."""
    k, top = 0, min(len(a), len(b))
    while k < top and a[-1 - k] == -b[k]:
        k += 1
    return a[:len(a) - k] + b[k:]


def outer_representative(w: Word, basis: Basis) -> Automorphism:
    """The prefix-free representative of w's outer class: witness j to its walk from pi(w).

    act_word(w) conjugates each of these images by the walk P of w, so the
    two differ by an inner automorphism and abelianize alike: P's letters
    cancel against P^-1's in every column.  The walks of a state are cached
    (`Basis.walks`), so this costs one walk of w past the first call.
    """
    return Automorphism(basis, basis.walks(basis.state(w)))
