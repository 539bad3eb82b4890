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
  x + T_i, is the reduced word
  prod_k s_k:g_{v_k} . s_i:(g_{v_i}^-1 g_{v_i+1}) . prod_{k desc} s_k:g_{w_k}^-1,
  because the tree path to a vertex telescopes.  One grid pass spells them
  all, as `Word`s (`cycle_witnesses`) or as the text `basis` prints
  (`witness_texts`).
- A letter of coordinate i moves the state along one line of the grid: it
  crosses tree edges only when the state's coordinates after i are all 0,
  and otherwise one run of consecutive cotree indices (see `grid_edges`).
  `cotree_rule` holds that arithmetic once, for the letter walk and the
  pass of the tree basis.  The walk reads a word letter by letter: from the
  basepoint the walk of a kernel word is its decomposition; from any other
  vertex it is a translate, which is how `action.act_word` reads a
  conjugate g w g^-1 as the cycle w translated by the image of g.  The pass
  lists every witness's walk from a state at once, by coordinate blocks:
  one line read per tree-path parent and per block of cotree edges, and
  one run of consecutive symbols per vertex and per witness, which
  `action.Basis.walks` spells as they are and the joiner (`action._Joiner`)
  prefixes with the walk P of the acting word once per vertex.

tests/test_fibre.py keeps the oracles: a breadth-first search for the graph, an
edge-path walker, and `cycle_witness`, the per-edge witness removed from this API.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod
from typing import Callable, Iterator, Sequence

from .groups import FiniteGroup, check_size, clip_int
from .words import Word, letter_tokens

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
    check_size(nverts, f"vertex count {clip_int(nverts)}")
    return FibreGraph(groups)


def grid_edges(orders: Sequence[int], cotree_only: bool = False) -> Iterator[Edge]:
    """The edges (x, i) of the grid, by coordinate i, then the coordinates
    before i (mixed-radix index h), then those after i (t), then the position
    p: x = (h m_i + p) T_i + t.  The tree edges are those with t = 0; with
    `cotree_only` they are skipped, and the k-th edge has the cotree index
    of `cotree_rule`'s lines, k = off_i + (h (T_i - 1) + t - 1)(m_i - 1) + p."""
    for i, (m, tail) in enumerate(zip(orders, place_values(orders))):
        for h in range(prod(orders[:i])):
            for t in range(1 if cotree_only else 0, tail):
                for p in range(m - 1):
                    yield (h * m + p) * tail + t, i


def betti_one(g: FibreGraph) -> int:
    return rank_formula([G.order for G in g.groups])


def cycle_witnesses(g: FibreGraph) -> Iterator[Word]:
    """The witness of each cotree edge, in basis order, as a `Word`."""
    letters = [[((k, e),) for e in range(G.order)] for k, G in enumerate(g.groups)]
    return (Word(g.groups, w) for w in _spelt_witnesses(g.groups, letters, ()))


def witness_texts(groups: Sequence[FiniteGroup]) -> list[str]:
    """The witness of each cotree edge of a built graph of `groups`, in basis order, as
    `format_words` prints it."""
    return list(_spelt_witnesses(groups, letter_tokens(groups), "*"))


def _spelt_witnesses(groups: Sequence[FiniteGroup], tokens: Sequence[Sequence],
                     sep) -> Iterator:
    """The witnesses in one pass over the grid, letter (k, e) spelt tokens[k][e].

    A letter going up is spelt with `sep` after it, one coming down with `sep`
    before it and the edge letter bare, so pieces join with +: letter tuples
    and () give the letters, token strings and '*' the text.  The pieces of
    the head h and tail t are spelt once per coordinate i, and each middle
    v_i . up(t) . edge . down(t) . w_i once per tail and position p; t != 0
    keeps the word reduced.  Every joined witness is in the kernel, as each
    digit d meets d^-1 and each step v_i . edge . w_i projects to the identity:
    those pieces are checked here.
    """
    for i, G in enumerate(groups):
        table, inv, row, steps = G.table, G.inverses, tokens[i], []
        for p in range(G.order - 1):
            edge = table[inv[p]][p + 1]
            if table[table[p][edge]][inv[p + 1]]:
                raise ValueError("basis witness is not in the kernel")
            steps.append((row[p] + sep if p else sep[:0], row[edge], sep + row[inv[p + 1]]))
        tails = _digit_pieces(groups, tokens, sep, range(i + 1, len(groups)))[1:]
        middles = [v_i + up_t + edge + down_t + w_i
                   for up_t, down_t in tails for v_i, edge, w_i in steps]
        for up_h, down_h in _digit_pieces(groups, tokens, sep, range(i)) if middles else ():
            for middle in middles:
                yield up_h + middle + down_h


def _digit_pieces(groups: Sequence[FiniteGroup], tokens: Sequence[Sequence], sep,
                  coords: range) -> list[tuple]:
    """The up and the inverted-down pieces of each mixed-radix digit tuple over `coords`."""
    empty = sep[:0]
    out = [(empty, empty)]
    for k in coords:
        G, row = groups[k], tokens[k]
        if any(G.table[d][G.inverses[d]] for d in range(G.order)):
            raise ValueError("basis witness is not in the kernel")
        digits = [(empty, empty)] + [(row[d] + sep, sep + row[G.inverses[d]])
                                     for d in range(1, G.order)]
        out = [(up + up_d, down_d + down) for up, down in out for up_d, down_d in digits]
    return out


def place_values(orders: Sequence[int]) -> list[int]:
    """T_i = prod_{k>i} m_k, the step of coordinate i in the vertex index."""
    return [prod(orders[i + 1:]) for i in range(len(orders))]


def cotree_rule(g: FibreGraph) -> tuple[Walker, Callable[[int], tuple[list, Iterator]]]:
    """`(walk, paths)`: the letter walk of the tree basis, from any state, and
    its pass, over one cotree-index arithmetic.

    `line(i, index) -> (a, row, base)` is the line of coordinate i through
    the vertex `index`: a is the vertex's position at coordinate i and row
    its row of the table, so a letter e moves it to b = row[e].  The line's
    edge p has cotree index base + p, so its symbol is base + p + 1: moving
    from a to b crosses base + a + 1, ..., base + b going up and
    -(base + a), ..., -(base + b + 1) going down.  If the vertex's
    coordinates after i are all 0 the line is on the tree and base is None.
    `walk` reads one line per letter.

    `paths(start) -> (steps, joins)`: the tree paths and witnesses of the
    state `start`, which `action.Basis.walks` spells and `action._Joiner.over`
    joins to the walk P of the acting word.  The witness of cotree edge
    (x, i) is up(x) . E . up(x + T_i)^-1, up(v) the letters of v's nonzero
    coordinates ascending and E the edge letter.  Walks concatenate and
    inverse letters retrace, so its walk is Phi(x) + E + Phi(x + T_i)^-1,
    Phi(v) the walk of up(v) and E walked from where Phi(x) ends.  In
    staircase order, v = (h m_k + d) T_k is its parent h m_k T_k and (k, d):
    each parent's line at coordinate k is read once, and
    steps[v] = (parent, i, j) says Phi(v) is Phi(parent) and the run (i, j)
    that crosses the line: the consecutive symbols i + 1, ..., j going up,
    the inverse (~j', ~i') of a run (i', j') going down, and (0, 0) on the
    tree.  Every parent index is below its vertex.  The edges of one
    (i, h, t) block share a line, which E moves from row[p] to row[p + 1];
    the joins (x, i, j, x + T_i) come lazily, in basis order, so a large
    graph never holds them all.
    """
    # a Word's letters are valid elements, so the walks read the tables unchecked
    tables = [G.table for G in g.groups]
    orders = [G.order for G in g.groups]
    # T_i = prod_{k>i} m_k, and off_i = the cotree edges of coordinates < i
    tails = place_values(orders)
    offsets = list(itertools.accumulate(
        (prod(orders[:k]) * (tails[k] - 1) * (m - 1) for k, m in enumerate(orders)), initial=0))
    count = prod(orders)

    def line(i: int, index: int) -> tuple:
        tail, m = tails[i], orders[i]
        a = (index // tail) % m
        t = index % tail  # the coordinates after i; 0 on a tree edge
        if not t:
            return a, tables[i][a], None
        h = index // (tail * m)  # the coordinates before i
        return a, tables[i][a], offsets[i] + (h * (tail - 1) + t - 1) * (m - 1)

    def walk(letters: Sequence[tuple[int, int]], index: int, out: list) -> int:
        for i, e in letters:
            a, row, base = line(i, index)
            b = row[e]
            index += (b - a) * tails[i]
            if base is not None:
                out += range(base + a + 1, base + b + 1) if b > a else range(-base - a, -base - b)
        return index

    def joins(states: list[int]) -> Iterator[tuple[int, int, int, int]]:
        for c, (m, tail) in enumerate(zip(orders, tails)):
            for parent in range(0, count, m * tail):
                for x in range(parent + 1, parent + tail):  # the block's edge at p = 0
                    _, row, base = line(c, states[x])
                    for p in range(m - 1):
                        a, b, y = row[p], row[p + 1], x + tail
                        if base is None:
                            yield x, 0, 0, y
                        elif b > a:
                            yield x, base + a, base + b, y
                        else:
                            yield x, ~(base + a), ~(base + b), y
                        x = y

    def paths(start: int) -> tuple[list, Iterator]:
        steps: list = [None] * count
        states = [start] * count  # the state each Phi(v) ends at
        for k, (m, tail) in enumerate(zip(orders, tails)):
            for parent in range(0, count, m * tail):
                end = states[parent]
                a, row, base = line(k, end)
                rest, on_tree = end - a * tail, (parent, 0, 0)  # one tuple per tree line
                for d in range(1, m):
                    b, v = row[d], parent + d * tail
                    states[v] = rest + b * tail
                    if base is None:
                        steps[v] = on_tree
                    elif b > a:
                        steps[v] = (parent, base + a, base + b)
                    else:
                        steps[v] = (parent, ~(base + a), ~(base + b))
        return steps, joins(states)

    return walk, paths


def to_dot(g: FibreGraph) -> str:
    """DOT rendering: tree edges solid, cotree edges dashed; each label is a
    quoted string, its names' backslashes and quotes escaped."""
    orders = [G.order for G in g.groups]
    tails = place_values(orders)
    # the id and label of each vertex, in index order
    ids = [",".join(p) for p in itertools.product(*([str(k) for k in range(m)] for m in orders))]
    names = [[n.replace("\\", "\\\\").replace('"', '\\"') for n in G.names] for G in g.groups]
    labels = [",".join(p) for p in itertools.product(*names)]
    lines = ["graph fibre {"]
    lines += [f'  "{v}" [label="{label}"];' for v, label in zip(ids, labels)]
    for x, i in grid_edges(orders):
        style = "dashed" if x % tails[i] else "solid"
        lines.append(f'  "{ids[x]}" -- "{ids[x + tails[i]]}" [style={style}];')
    lines.append("}")
    return "\n".join(lines)
