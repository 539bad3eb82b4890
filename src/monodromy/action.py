"""The conjugation action on the kernel free group.

An automorphism is stored as the images of the chosen basis generators,
each a freely reduced signed word over basis symbols.  Two bases are
supported: the commutator basis w[i,j] = [g_i, h_j] for exactly two
factors, and the spanning-tree cycle basis of a fibre graph for any
number of factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .fibre import FibreGraph, cotree_walker, cycle_witness
from .groups import FiniteGroup
from .words import (Letter, Word, commutator, empty_word, free_reduce, invert,
                    is_in_kernel, multiply, single)

# A signed symbol word: ((symbol_index, +1|-1), ...)
SymbolWord = tuple[tuple[int, int], ...]


def invert_signed(seq: SymbolWord) -> SymbolWord:
    return tuple((sym, -sign) for sym, sign in reversed(seq))


@dataclass(frozen=True)
class Basis:
    kind: str  # "algebraic-n2" | "tree"
    groups: tuple[FiniteGroup, ...]
    symbols: tuple[str, ...]
    witnesses: tuple[Word, ...]
    graph: FibreGraph | None = field(default=None, compare=False)

    def __post_init__(self):
        for w in self.witnesses:
            if not is_in_kernel(w):
                raise ValueError("basis witness is not in the kernel")

    @property
    def rank(self) -> int:
        return len(self.symbols)

    def format_image(self, image: SymbolWord) -> str:
        if not image:
            return "e"
        parts = []
        for sym, sign in image:
            parts.append(self.symbols[sym] + ("" if sign == 1 else "^-1"))
        return "*".join(parts)


def algebraic_basis(groups: Sequence[FiniteGroup]) -> Basis:
    """The basis w[i,j] = [g_i, h_j], i-major, for two nontrivial factors."""
    groups = tuple(groups)
    if len(groups) != 2:
        raise ValueError("the commutator basis needs exactly two factors")
    G, H = groups
    if G.order < 2 or H.order < 2:
        raise ValueError("both factors must be nontrivial")
    symbols, witnesses = [], []
    for i in range(1, G.order):
        for j in range(1, H.order):
            symbols.append(f"w[{i},{j}]")
            witnesses.append(commutator(single(groups, 0, i), single(groups, 1, j)))
    return Basis("algebraic-n2", groups, tuple(symbols), tuple(witnesses))


def algebraic_symbol_index(G: FiniteGroup, H: FiniteGroup, i: int, j: int) -> int:
    return (i - 1) * (H.order - 1) + (j - 1)


def tree_basis(graph: FibreGraph) -> Basis:
    symbols = tuple(f"c{k + 1}" for k in range(len(graph.cotree)))
    witnesses = tuple(cycle_witness(graph, e) for e in graph.cotree)
    return Basis("tree", graph.groups, symbols, witnesses, graph=graph)


@dataclass(frozen=True)
class Automorphism:
    basis: Basis
    images: tuple[SymbolWord, ...]

    def __post_init__(self):
        if len(self.images) != self.basis.rank:
            raise ValueError("one image per basis symbol required")

    def apply(self, word: SymbolWord) -> SymbolWord:
        return free_reduce(s for sym, sign in word
                           for s in (self.images[sym] if sign == 1
                                     else invert_signed(self.images[sym])))


def identity_automorphism(basis: Basis) -> Automorphism:
    return Automorphism(basis, tuple(((k, 1),) for k in range(basis.rank)))


def compose(f: Automorphism, g: Automorphism) -> Automorphism:
    """(f o g): substitute f's images into g's."""
    if f.basis != g.basis:
        raise ValueError("automorphisms over different bases")
    return Automorphism(f.basis, tuple(f.apply(img) for img in g.images))


def telescope_decompose(w: Word) -> tuple[tuple[int, int, int], ...]:
    """Write a two-factor kernel word as a product of commutators [g_i, h_j].

    Returns signed (i, j, sign) triples; multiplying witnesses
    [g_i, h_j]^sign in order recovers w.  Prefix products telescope: each
    new letter contributes the commutator of the two running prefix
    products, and factors touching the identity are dropped.
    """
    if len(w.groups) != 2:
        raise ValueError("telescoping decomposition needs exactly two factors")
    if not is_in_kernel(w):
        raise ValueError("word is not in the kernel of the projection")
    G, H = w.groups
    p = q = 0  # running prefix products in G and H
    raw: list[tuple[tuple[int, int], int]] = []
    for lt in w.letters:
        if lt.factor == 0:
            p = G.op(p, lt.elem)
            raw.append(((p, q), -1))  # [q, p_new] = [g,h]^-1 with g = p_new
        else:
            q = H.op(q, lt.elem)
            raw.append(((p, q), 1))   # [p, q_new]
    kept = (((i, j), sign) for (i, j), sign in raw if i and j)
    return tuple((i, j, sign) for (i, j), sign in free_reduce(kept))


def telescope_recompose(basis: Basis, decomposition) -> Word:
    """Multiply the commutator witnesses back together (round-trip check)."""
    G, H = basis.groups
    acc = empty_word(basis.groups)
    for i, j, sign in decomposition:
        wit = basis.witnesses[algebraic_symbol_index(G, H, i, j)]
        acc = multiply(acc, wit if sign == 1 else invert(wit))
    return acc


def act_two_groups(t: Letter, basis: Basis) -> Automorphism:
    """Closed-form action of a single letter on the commutator basis.

    g_k . [g_i, h_j] = [g_k g_i, h_j] [h_j, g_k]
    h_k . [g_i, h_j] = [h_k, g_i] [g_i, h_k h_j]
    with commutators hitting the identity dropped.
    """
    if basis.kind != "algebraic-n2":
        raise ValueError("act_two_groups needs the commutator basis")
    G, H = basis.groups
    if t.elem == 0:
        return identity_automorphism(basis)
    k = t.elem
    images = []
    for i in range(1, G.order):
        for j in range(1, H.order):
            seq: list[tuple[int, int]] = []
            if t.factor == 0:
                gi = G.op(k, i)
                if gi != 0:
                    seq.append((algebraic_symbol_index(G, H, gi, j), 1))
                seq.append((algebraic_symbol_index(G, H, k, j), -1))
            else:
                seq.append((algebraic_symbol_index(G, H, i, k), -1))
                hj = H.op(k, j)
                if hj != 0:
                    seq.append((algebraic_symbol_index(G, H, i, hj), 1))
            images.append(free_reduce(seq))
    return Automorphism(basis, tuple(images))


def act_geometric(g: Word, basis: Basis) -> Automorphism:
    """Action by conjugation, expressed in the tree cycle basis.

    On the fibre graph, conjugation by g is a deck translation by its image
    pi(g): the loop g w g^-1 runs along g's path P to pi(g), around the
    cycle of w translated to start there, and back along P.  So g is
    walked once, and each witness is walked from pi(g) between P and P^-1.
    """
    if basis.kind != "tree" or basis.graph is None:
        raise ValueError("act_geometric needs a tree basis with its graph")
    if g.groups != basis.groups:
        raise ValueError("word is over a different group list")
    walk = cotree_walker(basis.graph)
    prefix: list[tuple[int, int]] = []
    start = walk(g.letters, 0, prefix)
    prefix = list(free_reduce(prefix))
    suffix = invert_signed(prefix)
    images = []
    for wit in basis.witnesses:
        run = prefix[:]
        walk(wit.letters, start, run)
        run += suffix
        images.append(free_reduce(run))
    return Automorphism(basis, tuple(images))


def act_letter(t: Letter, basis: Basis) -> Automorphism:
    if basis.kind == "algebraic-n2":
        return act_two_groups(t, basis)
    return act_geometric(single(basis.groups, t.factor, t.elem), basis)


def act_word(w: Word, basis: Basis) -> Automorphism:
    """The action of w by conjugation: act_word(uv) = act(u) o act(v).

    In the tree basis each witness is conjugated by the whole word once and
    decomposed once; since a free-group automorphism has one reduced image
    per generator, this equals the per-letter fold.  The commutator basis
    folds its closed-form per-letter actions left to right.
    """
    if w.groups != basis.groups:
        raise ValueError("word is over a different group list")
    if basis.kind == "tree":
        return act_geometric(w, basis)
    phi = identity_automorphism(basis)
    for lt in w.letters:
        phi = compose(phi, act_letter(lt, basis))
    return phi


def image_as_word(phi: Automorphism, sym: int) -> Word:
    """The kernel word witnessing the image of one basis generator."""
    acc = empty_word(phi.basis.groups)
    for s, sign in phi.images[sym]:
        wit = phi.basis.witnesses[s]
        acc = multiply(acc, wit if sign == 1 else invert(wit))
    return acc
