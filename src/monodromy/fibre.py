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
- A kernel word decomposes letter by letter: a letter of coordinate i
  crosses one cotree chain, a run of consecutive indices
  off_i + (h (T_i - 1) + t - 1)(m_i - 1) + p, unless the state's
  coordinates after i are all 0.  Here h and t are the mixed-radix indices
  of the coordinates before and after i, T_i = prod_{k>i} m_k, and off_i
  counts the cotree edges of the coordinates before i.

The graph is written down in closed form too.  tests/test_fibre.py keeps
the brute-force path as the oracle: a breadth-first search and sort for
the graph, and an edge-path walker for the witnesses and decompositions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod
from typing import Sequence

from .groups import FiniteGroup, SizeLimitError, cell_cap
from .words import Word, free_reduce, is_in_kernel, reduce_word

DEFAULT_VERTEX_CAP = 10**6

# An edge is (vertex, coordinate): the unit segment from `vertex` to the
# vertex whose position at `coordinate` is one higher.
Edge = tuple[tuple[int, ...], int]


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
    if nverts > (cap if cap is not None else cell_cap(DEFAULT_VERTEX_CAP)):
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


def _cotree_layout(orders: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """T_i = prod_{k>i} m_k, and off_i = the cotree edges of coordinates < i."""
    n = len(orders)
    tails = tuple(prod(orders[i + 1:]) for i in range(n))
    offsets = tuple(itertools.accumulate(
        (prod(orders[:k]) * (tails[k] - 1) * (orders[k] - 1) for k in range(n)), initial=0))
    return tails, offsets


def cycle_witness(g: FibreGraph, edge: Edge) -> Word:
    """Kernel word of the fundamental cycle of a cotree edge (v, i).

    The tree path to a vertex u spells g_{u_1} ... g_{u_n}, so the cycle is
    that word for v, the edge's letter g_{v_i}^-1 g_{v_i+1}, then the word
    for the raised vertex w inverted.
    """
    v, i = edge
    w = _upper(v, i)
    G = g.groups[i]
    raw = list(enumerate(v)) + [(i, G.op(G.inverse(v[i]), w[i]))]
    raw += [(k, g.groups[k].inverse(w[k])) for k in reversed(range(len(w)))]
    return reduce_word(raw, g.groups)


def decompose_word(g: FibreGraph, w: Word) -> tuple[tuple[int, int], ...]:
    """Tree-basis decomposition of a kernel word, read off letter by letter.

    A letter (i, h) moves coordinate i of the state from a to b = a*h.  If
    the state's coordinates after i are all 0 it crosses tree edges only;
    otherwise it crosses one cotree chain, whose edges have the consecutive
    indices base + p: upward over p = a..b-1, downward over p = a-1..b.
    """
    if not is_in_kernel(w):
        raise ValueError("word is not in the kernel of the projection")
    if w.groups != g.groups:
        raise ValueError("word is over a different group list")
    orders = tuple(G.order for G in g.groups)
    tails, offsets = _cotree_layout(orders)
    index = 0  # the state's mixed-radix index, coordinate 0 most significant
    raw: list[tuple[int, int]] = []
    for lt in w.letters:
        i = lt.factor
        a = (index // tails[i]) % orders[i]
        b = g.groups[i].op(a, lt.elem)
        index += (b - a) * tails[i]
        t = index % tails[i]  # the coordinates after i
        if t:
            h = index // (tails[i] * orders[i])  # the coordinates before i
            base = offsets[i] + (h * (tails[i] - 1) + t - 1) * (orders[i] - 1)
            if b > a:
                raw += [(base + p, 1) for p in range(a, b)]
            else:
                raw += [(base + p, -1) for p in range(a - 1, b - 1, -1)]
    return free_reduce(raw)


def to_dot(g: FibreGraph, highlight: list[tuple[Edge, int]] | None = None) -> str:
    """DOT rendering: tree edges solid, cotree edges dashed."""
    marked = {edge for edge, _ in (highlight or [])}

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
        color = ', color=red' if edge in marked else ""
        lines.append(f'  {vid(v)} -- {vid(w)} [style={style}{color}];')
    lines.append("}")
    return "\n".join(lines)
