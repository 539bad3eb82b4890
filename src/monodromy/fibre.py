"""The grid-graph model of the fibre and its cycle calculus, in closed form.

Vertices are tuples of element indices, one per coordinate.  For each
coordinate i the graph carries chains of unit edges joining consecutive
positions, for every assignment of the remaining coordinates.  The
spanning tree is the staircase from the all-zero basepoint: edge (v, i) is
a tree edge exactly when every coordinate of v after i is 0, so the tree
path to a vertex raises its coordinates in ascending order.  Its cotree
edges index a fundamental cycle basis, and the staircase gives both halves
of the calculus in closed form:

- The witness of cotree edge (v, i), with w = v raised at i, is the reduced
  word  prod_k s_k:g_{v_k} . s_i:(g_{v_i}^-1 g_{v_i+1}) . prod_{k desc} s_k:g_{w_k}^-1,
  because the tree path to a vertex telescopes.
- A word is walked letter by letter (`cotree_walker`): a letter of
  coordinate i crosses one cotree chain, a run of consecutive indices
  off_i + (h (T_i - 1) + t - 1)(m_i - 1) + p, unless the state's
  coordinates after i are all 0.  Here h and t are the mixed-radix indices
  of the coordinates before and after i, T_i = prod_{k>i} m_k, and off_i
  counts the cotree edges of the coordinates before i.  From the basepoint
  the walk of a kernel word is its decomposition; from any other vertex it
  is a translate, which is how `action.act_word` reads a conjugate
  g w g^-1 as the cycle w translated by the image of g.

The graph is written down in closed form too.  tests/test_fibre.py keeps
the brute-force path as the oracle: a breadth-first search and sort for
the graph, and an edge-path walker for the witnesses and decompositions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod
from typing import Callable, Sequence

from .groups import FiniteGroup, SizeLimitError, cell_cap
from .words import Letter, Word, letter

# An edge is (vertex, coordinate): the unit segment from `vertex` to the
# vertex whose position at `coordinate` is one higher.
Edge = tuple[tuple[int, ...], int]
Walker = Callable[[Sequence[Letter], int, list], int]  # walk(letters, index, out) -> index


def rank_formula(orders: Sequence[int]) -> int:
    """Rank of the fundamental group of the fibre graph.

    (n-1) * prod(m_i) - sum_i prod_{j != i} m_j + 1.
    """
    orders = list(orders)
    if not orders:
        raise ValueError("need at least one group order")
    if any(m < 1 for m in orders):
        raise ValueError("orders must be positive")
    n = len(orders)
    total = prod(orders)
    return (n - 1) * total - sum(total // m for m in orders) + 1


@dataclass(frozen=True)
class FibreGraph:
    groups: tuple[FiniteGroup, ...]
    vertices: tuple[tuple[int, ...], ...]
    edges: tuple[Edge, ...]
    basepoint: tuple[int, ...]
    tree: frozenset[Edge]
    cotree: tuple[Edge, ...]

    @property
    def cotree_index(self) -> dict:
        """Position of each cotree edge in `cotree`, built on each access."""
        return {e: k for k, e in enumerate(self.cotree)}


def build_fibre_graph(groups: Sequence[FiniteGroup], cap: int | None = None) -> FibreGraph:
    groups = tuple(groups)
    if not groups:
        raise ValueError("need at least one group")
    orders = [G.order for G in groups]
    nverts = prod(orders)
    if nverts > cell_cap(cap):
        raise SizeLimitError(f"vertex count {nverts} exceeds cap")

    edges: list[Edge] = []
    tree: list[Edge] = []
    cotree: list[Edge] = []
    # edges ordered by coordinate, then the other coordinates, then position
    for i, m in enumerate(orders):
        if m < 2:
            continue
        for rest in itertools.product(*map(range, orders[:i] + orders[i + 1:])):
            head, tail = rest[:i], rest[i:]
            chain = [(head + (p,) + tail, i) for p in range(m - 1)]
            edges += chain
            if any(tail):
                cotree += chain
            else:
                tree += chain

    return FibreGraph(groups, tuple(itertools.product(*map(range, orders))),
                      tuple(edges), (0,) * len(orders), frozenset(tree), tuple(cotree))


def betti_one(g: FibreGraph) -> int:
    if len(g.tree) != len(g.vertices) - 1:
        raise AssertionError("spanning tree size mismatch: graph not connected")
    return len(g.edges) - len(g.vertices) + 1


def _upper(v: tuple[int, ...], i: int) -> tuple[int, ...]:
    return v[:i] + (v[i] + 1,) + v[i + 1:]


def cycle_witness(g: FibreGraph, edge: Edge) -> Word:
    """Kernel word of the fundamental cycle of a cotree edge (v, i), in closed form.

    The tree path to a vertex u spells g_{u_1} ... g_{u_n}, so the cycle is
    that word for v, the edge's letter g_{v_i}^-1 g_{v_i+1}, then the word
    for the raised vertex w inverted.  Dropping identity letters leaves it
    reduced: a cotree edge has a nonzero coordinate after i, which separates
    the edge letter from both halves.  (A tree edge puts the edge letter
    next to coordinate i of w, and `Word` refuses it.)
    """
    v, i = edge
    w = _upper(v, i)
    groups = g.groups
    G = groups[i]
    up = [letter(k, v[k]) for k in range(len(v)) if v[k]]
    down = [letter(k, groups[k].inverses[w[k]]) for k in reversed(range(len(w))) if w[k]]
    return Word(groups, (*up, letter(i, G.table[G.inverses[v[i]]][w[i]]), *down))


def place_values(orders: Sequence[int]) -> list[int]:
    """T_i = prod_{k>i} m_k, the step of coordinate i in the vertex index."""
    return [prod(orders[i + 1:]) for i in range(len(orders))]


def is_tree_edge(x: int, tail: int) -> bool:
    """Whether edge (x, i), with tail = T_i, is in the staircase tree."""
    return x % tail == 0


def cotree_walker(g: FibreGraph) -> Walker:
    """The letter walk of the tree basis, from any state.

    `walk(letters, index, out)` starts at the vertex whose mixed-radix index
    (coordinate 0 most significant) is `index`, appends to `out` the signed
    cotree edges the letters cross, and returns the index it ends at.  A
    letter (i, h) moves coordinate i of the state from a to b = a*h.  If the
    state's coordinates after i are all 0 it crosses tree edges only;
    otherwise it crosses one cotree chain, whose edges have the consecutive
    indices base + p: upward over p = a..b-1, downward over p = a-1..b.
    """
    # a Word's letters are valid elements, so the walk reads the tables unchecked
    tables = [G.table for G in g.groups]
    orders = [G.order for G in g.groups]
    # T_i = prod_{k>i} m_k, and off_i = the cotree edges of coordinates < i
    n = len(orders)
    tails = place_values(orders)
    offsets = list(itertools.accumulate(
        (prod(orders[:k]) * (tails[k] - 1) * (orders[k] - 1) for k in range(n)), initial=0))

    def walk(letters: Sequence[Letter], index: int, out: list) -> int:
        for lt in letters:
            i = lt.factor
            tail, m = tails[i], orders[i]
            a = (index // tail) % m
            b = tables[i][a][lt.elem]
            index += (b - a) * tail
            t = index % tail  # the coordinates after i; is_tree_edge, inlined
            if t:
                h = index // (tail * m)  # the coordinates before i
                base = offsets[i] + (h * (tail - 1) + t - 1) * (m - 1)
                if b > a:
                    out += [(base + p, 1) for p in range(a, b)]
                else:
                    out += [(base + p, -1) for p in range(a - 1, b - 1, -1)]
        return index

    return walk


def to_dot(g: FibreGraph) -> str:
    """DOT rendering: tree edges solid, cotree edges dashed."""
    def vid(v):
        return '"' + ",".join(str(k) for k in v) + '"'

    lines = ["graph fibre {"]
    for v in g.vertices:
        label = ",".join(g.groups[i].names[v[i]] for i in range(len(v)))
        lines.append(f'  {vid(v)} [label="{label}"];')
    for edge in g.edges:
        v, i = edge
        w = _upper(v, i)
        style = "solid" if edge in g.tree else "dashed"
        lines.append(f'  {vid(v)} -- {vid(w)} [style={style}];')
    lines.append("}")
    return "\n".join(lines)
