"""The grid-graph model of the fibre and its cycle calculus.

Vertices are tuples of element indices, one per coordinate.  For each
coordinate i the graph carries chains of unit edges joining consecutive
positions, for every assignment of the remaining coordinates.  The
spanning tree is the staircase from the all-zero basepoint: edge (v, i) is
a tree edge exactly when every coordinate of v after i is 0, so the tree
path to a vertex raises its coordinates in ascending order.  Its cotree
edges index a fundamental cycle basis; closed paths decompose over that
basis by recording their cotree traversals (the usual spanning-tree
rewriting).  The graph is written down in closed form; tests/test_fibre.py
checks it against a breadth-first search and sort.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import prod
from typing import Sequence

from .groups import FiniteGroup, SizeLimitError, cell_cap
from .words import Letter, Word, is_in_kernel, reduce_word

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
    # parent[v] = (edge, sign) taking parent -> v; basepoint maps to None
    parents: dict = field(hash=False, compare=False, default_factory=dict)
    # position of each cotree edge in `cotree`, built once with the graph
    cotree_positions: dict = field(hash=False, compare=False, default_factory=dict)

    @property
    def cotree_index(self) -> dict:
        return self.cotree_positions


def build_fibre_graph(groups: Sequence[FiniteGroup], cap: int | None = None) -> FibreGraph:
    groups = tuple(groups)
    if not groups:
        raise ValueError("need at least one group")
    orders = [G.order for G in groups]
    nverts = prod(orders)
    if nverts > (cap if cap is not None else cell_cap(DEFAULT_VERTEX_CAP)):
        raise SizeLimitError(f"vertex count {nverts} exceeds cap")

    basepoint = (0,) * len(orders)
    parents: dict = {basepoint: None}
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
                for p, edge in enumerate(chain, 1):
                    parents[head + (p,) + tail] = (edge, 1)

    return FibreGraph(groups, tuple(itertools.product(*map(range, orders))),
                      tuple(edges), basepoint, frozenset(tree), tuple(cotree), parents,
                      {e: k for k, e in enumerate(cotree)})


def betti_one(g: FibreGraph) -> int:
    if len(g.tree) != len(g.vertices) - 1:
        raise AssertionError("spanning tree size mismatch: graph not connected")
    return len(g.edges) - len(g.vertices) + 1


def word_to_path(g: FibreGraph, w: Word) -> list[tuple[Edge, int]]:
    """Edge path tracked by a word, starting at the basepoint.

    Each letter (i, h) moves coordinate i from its current element e to
    e*h, traversing the chain of unit edges monotonically.
    """
    if w.groups != g.groups:
        raise ValueError("word is over a different group list")
    path: list[tuple[Edge, int]] = []
    state = list(g.basepoint)
    for lt in w.letters:
        i = lt.factor
        a = state[i]
        b = g.groups[i].op(a, lt.elem)
        step = 1 if b > a else -1
        for p in range(a, b, step):
            v = list(state)
            v[i] = p if step == 1 else p - 1
            path.append(((tuple(v), i), step))
        state[i] = b
    return path


def path_endpoints(g: FibreGraph, path: list[tuple[Edge, int]]):
    """(start, end) of a path, validating that consecutive edges connect."""
    if not path:
        return g.basepoint, g.basepoint
    (v0, i0), s0 = path[0]
    cur = v0 if s0 == 1 else _upper(v0, i0)
    start = cur
    for (v, i), s in path:
        lo, hi = v, _upper(v, i)
        src, dst = (lo, hi) if s == 1 else (hi, lo)
        if src != cur:
            raise ValueError("path edges do not connect")
        cur = dst
    return start, cur


def _upper(v: tuple[int, ...], i: int) -> tuple[int, ...]:
    return v[:i] + (v[i] + 1,) + v[i + 1:]


def loop_to_basis(g: FibreGraph, path: list[tuple[Edge, int]]) -> tuple[tuple[int, int], ...]:
    """Decompose a basepoint loop over the cotree fundamental cycles.

    Returns a freely reduced signed sequence of cotree indices.
    """
    start, end = path_endpoints(g, path)
    if start != g.basepoint or end != g.basepoint:
        raise ValueError("path is not a loop at the basepoint")
    idx = g.cotree_index
    out: list[tuple[int, int]] = []
    for edge, sign in path:
        k = idx.get(edge)
        if k is None:
            continue
        if out and out[-1] == (k, -sign):
            out.pop()
        else:
            out.append((k, sign))
    return tuple(out)


def tree_path_to(g: FibreGraph, v: tuple[int, ...]) -> list[tuple[Edge, int]]:
    """The tree path from the basepoint to v."""
    back = []
    cur = v
    while g.parents[cur] is not None:
        edge, sign = g.parents[cur]
        back.append((edge, sign))
        (u, i) = edge
        cur = u if sign == 1 else _upper(u, i)
    back.reverse()
    return back


def fundamental_cycle(g: FibreGraph, edge: Edge) -> list[tuple[Edge, int]]:
    """Basepoint loop: tree path to the tail, the cotree edge, tree path back."""
    u, i = edge
    w = _upper(u, i)
    to_u = tree_path_to(g, u)
    to_w = tree_path_to(g, w)
    return to_u + [(edge, 1)] + [(e, -s) for e, s in reversed(to_w)]


def path_to_word(g: FibreGraph, path: list[tuple[Edge, int]]) -> Word:
    """The free-product word spelled by an edge path from the basepoint."""
    raw = []
    for (v, i), sign in path:
        G = g.groups[i]
        a, b = v[i], v[i] + 1
        if sign == -1:
            a, b = b, a
        raw.append((i, G.op(G.inverse(a), b)))
    return reduce_word(raw, g.groups)


def cycle_witness(g: FibreGraph, edge: Edge) -> Word:
    """Kernel word representing the fundamental cycle of a cotree edge."""
    return path_to_word(g, fundamental_cycle(g, edge))


def decompose_word(g: FibreGraph, w: Word) -> tuple[tuple[int, int], ...]:
    """Tree-basis decomposition of a kernel word."""
    if not is_in_kernel(w):
        raise ValueError("word is not in the kernel of the projection")
    return loop_to_basis(g, word_to_path(g, w))


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
