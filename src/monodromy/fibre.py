"""The grid-graph model of the fibre and its cycle calculus, in closed form.

A vertex is a mixed-radix index x over the group orders m_i, coordinate 0
most significant, and coordinate i has step T_i = prod_{k>i} m_k.  An edge
(x, i) joins x to x + T_i, one position higher at coordinate i.
`FibreGraph` holds only its groups: vertices, edges, tree and counts are
read off the orders.  The spanning tree is the staircase from the
basepoint 0: (x, i) is a tree edge exactly when the coordinates of x after
i are all 0 (x % T_i == 0), so the tree path to a vertex raises its
coordinates in ascending order.  Its cotree edges index a fundamental cycle
basis, and the staircase gives both halves of the calculus in closed form:

- The witness of cotree edge (x, i), with v and w the coordinates of x and
  x + T_i, is the reduced word (`cycle_witnesses` lists all in one grid pass)
  prod_k s_k:g_{v_k} . s_i:(g_{v_i}^-1 g_{v_i+1}) . prod_{k desc} s_k:g_{w_k}^-1,
  because the tree path to a vertex telescopes.
- A word is walked letter by letter (`cotree_walker`): a letter of
  coordinate i crosses tree edges only when the state's coordinates after
  i are all 0, and otherwise one run of consecutive cotree indices (see
  `grid_edges`).  From the basepoint the walk of a kernel word is its
  decomposition; from any other vertex it is a translate, which is how
  `action.act_word` reads a conjugate g w g^-1 as the cycle w translated
  by the image of g, and `cotree_walks` translates every witness at once.

tests/test_fibre.py keeps the oracles: a breadth-first search for the graph, an
edge-path walker, and `cycle_witness`, the per-edge witness removed from this API.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod
from typing import Callable, Iterator, Sequence

from .groups import FiniteGroup, SizeLimitError, cell_cap
from .words import Word, invert_signed

# An edge is (x, i): the unit segment from the vertex with mixed-radix index x
# to the vertex x + T_i, whose position at coordinate i is one higher.
Edge = tuple[int, int]
Walker = Callable[[Sequence[tuple[int, int]], int, list], int]  # walk(letters, index, out)


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
    """The grid graph of a group list; `grid_edges` reads its edges off the orders."""
    groups: tuple[FiniteGroup, ...]

    @property
    def cotree(self) -> tuple[Edge, ...]:
        """The cotree edges in basis order, listed on each access."""
        return tuple(grid_edges([G.order for G in self.groups], cotree_only=True))

    @property
    def cotree_index(self) -> dict:
        """Position of each cotree edge in `cotree`, built on each access."""
        return {e: k for k, e in enumerate(self.cotree)}


def build_fibre_graph(groups: Sequence[FiniteGroup]) -> FibreGraph:
    groups = tuple(groups)
    if not groups:
        raise ValueError("need at least one group")
    nverts = prod(G.order for G in groups)
    cap = cell_cap()
    if nverts > cap:
        raise SizeLimitError(f"vertex count {nverts} exceeds cap {cap}")
    return FibreGraph(groups)


def grid_edges(orders: Sequence[int], cotree_only: bool = False) -> Iterator[Edge]:
    """The edges (x, i) of the grid, by coordinate i, then the coordinates
    before i (mixed-radix index h), then those after i (t), then the position
    p: x = (h m_i + p) T_i + t.  The tree edges are those with t = 0; with
    `cotree_only` they are skipped, and the k-th edge is the walker's cotree
    index k = off_i + (h (T_i - 1) + t - 1)(m_i - 1) + p."""
    for i, (m, tail) in enumerate(zip(orders, place_values(orders))):
        for h in range(prod(orders[:i])):
            for t in range(1 if cotree_only else 0, tail):
                for p in range(m - 1):
                    yield (h * m + p) * tail + t, i


def betti_one(g: FibreGraph) -> int:
    return rank_formula([G.order for G in g.groups])


def cycle_witnesses(g: FibreGraph) -> Iterator[Word]:
    """The witness of each cotree edge, in basis order, in one pass over the grid.

    The letters of the head h and tail t are built once per coordinate i, then joined
    around three letters of position p; t != 0 keeps the word reduced.
    """
    for i, G in enumerate(groups := g.groups):
        steps = [(((i, p),) if p else (), ((i, G.table[G.inverses[p]][p + 1]),),
                  ((i, G.inverses[p + 1]),)) for p in range(G.order - 1)]
        tails = _digit_letters(groups, range(i + 1, len(groups)))[1:]
        for up_h, down_h in _digit_letters(groups, range(i)) if steps and tails else ():
            for up_t, down_t in tails:
                for v_i, edge, w_i in steps:
                    yield Word(groups, up_h + v_i + up_t + edge + down_t + w_i + down_h)


def _digit_letters(groups: Sequence[FiniteGroup], coords: range) -> list[tuple[tuple, tuple]]:
    """The up and the inverted-down letters of each mixed-radix digit tuple over `coords`."""
    out = [((), ())]
    for k in coords:
        inv = groups[k].inverses
        out = [(up + ((k, d),), ((k, inv[d]),) + down) if d else (up, down)
               for up, down in out for d in range(groups[k].order)]
    return out


def place_values(orders: Sequence[int]) -> list[int]:
    """T_i = prod_{k>i} m_k, the step of coordinate i in the vertex index."""
    return [prod(orders[i + 1:]) for i in range(len(orders))]


def _cotree_step(g: FibreGraph) -> Callable[[int, int, int, list], int]:
    """The tree basis's walk of one letter: `step(i, e, index, out) -> index`.

    Letter (i, e) moves coordinate i of the vertex `index` from a to b = a*e
    and returns the new index.  If the state's coordinates after i are all 0
    it crosses tree edges only; otherwise it appends to `out` the one cotree
    chain it crosses, edges of consecutive indices base + p: upward over
    p = a..b-1, downward over p = a-1..b.
    """
    # a Word's letters are valid elements, so the step reads the tables unchecked
    tables = [G.table for G in g.groups]
    orders = [G.order for G in g.groups]
    # T_i = prod_{k>i} m_k, and off_i = the cotree edges of coordinates < i
    tails = place_values(orders)
    offsets = list(itertools.accumulate(
        (prod(orders[:k]) * (tails[k] - 1) * (m - 1) for k, m in enumerate(orders)), initial=0))

    def step(i: int, e: int, index: int, out: list) -> int:
        tail, m = tails[i], orders[i]
        a = (index // tail) % m
        b = tables[i][a][e]
        index += (b - a) * tail
        t = index % tail  # the coordinates after i; 0 on a tree edge
        if t:
            h = index // (tail * m)  # the coordinates before i
            base = offsets[i] + (h * (tail - 1) + t - 1) * (m - 1)
            if b > a:
                out += [(base + p, 1) for p in range(a, b)]
            else:
                out += [(base + p, -1) for p in range(a - 1, b - 1, -1)]
        return index

    return step


def cotree_walker(g: FibreGraph) -> Walker:
    """The letter walk of the tree basis, from any state: one `_cotree_step` per letter."""
    step = _cotree_step(g)

    def walk(letters: Sequence[tuple[int, int]], index: int, out: list) -> int:
        for i, e in letters:
            index = step(i, e, index, out)
        return index

    return walk


def cotree_walks(g: FibreGraph) -> Callable[[int], tuple[tuple, ...]]:
    """`walks(start)`: the walk of every witness from `start`, in basis order.

    The witness of cotree edge (x, i) is up(x) . E . up(x + T_i)^-1, up(v) the
    letters of v's nonzero coordinates ascending and E the edge letter.  Walks
    concatenate and inverse letters retrace, so its walk is Phi(x) + E +
    Phi(x + T_i)^-1, Phi(v) the walk of up(v) and E walked from where Phi(x)
    ends.  In staircase order, v = (h m_k + d) T_k is its parent h m_k T_k and (k, d).
    """
    step = _cotree_step(g)
    orders = [G.order for G in g.groups]
    tails = place_values(orders)
    edges = [[G.table[G.inverses[p]][p + 1] for p in range(G.order - 1)] for G in g.groups]

    def walks(start: int) -> tuple[tuple, ...]:
        phi: list = [()] * prod(orders)
        ends = [start] * len(phi)  # the state each Phi(v) ends at
        for k, (m, tail) in enumerate(zip(orders, tails)):
            for parent in range(0, len(phi), m * tail):
                for d in range(1, m):
                    out: list = []
                    v = parent + d * tail
                    ends[v] = step(k, d, ends[parent], out)
                    phi[v] = phi[parent] + tuple(out)
        back = [invert_signed(run) for run in phi]
        runs = []
        for x, i in grid_edges(orders, cotree_only=True):
            edge: list = []
            step(i, edges[i][(x // tails[i]) % orders[i]], ends[x], edge)
            runs.append(phi[x] + tuple(edge) + back[x + tails[i]])
        return tuple(runs)

    return walks


def to_dot(g: FibreGraph) -> str:
    """DOT rendering: tree edges solid, cotree edges dashed."""
    orders = [G.order for G in g.groups]
    tails = place_values(orders)
    # the id and label of each vertex, in index order
    ids = [",".join(p) for p in itertools.product(*([str(k) for k in range(m)] for m in orders))]
    labels = [",".join(p) for p in itertools.product(*(G.names for G in g.groups))]
    lines = ["graph fibre {"]
    lines += [f'  "{v}" [label="{label}"];' for v, label in zip(ids, labels)]
    for x, i in grid_edges(orders):
        style = "dashed" if x % tails[i] else "solid"
        lines.append(f'  "{ids[x]}" -- "{ids[x + tails[i]]}" [style={style}];')
    lines.append("}")
    return "\n".join(lines)
