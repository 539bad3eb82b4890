"""Cubical model of the fibre over an arbitrary simplicial complex.

Only cells of dimension <= 2 are built; first homology is determined by
the 2-skeleton.  A cell is named on the fibre graph's integer grid by its
lowest vertex x (the mixed-radix index, coordinate i of place value
T_i = prod_{k>i} m_k) and its interval coordinates, which form a face of
the simplicial complex; so the 1-skeleton is the fibre graph.  With the
ascending-coordinate product orientation, d(x, i) = (x + T_i) - x and
d(x, i, j) = (x, i) + (x + T_i, j) - (x + T_j, i) - (x, j).  `h1` reads
the answer off the orders and K's 1-skeleton in the Bahri-Bendersky-
Cohen-Gitler closed form and eliminates nothing; tests/oracles.py keeps
the sparse elimination and the Smith normal form, and
tests/test_complexes.py the tuple-cell chain complex, as its oracles.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from math import prod
from typing import Sequence

from .fibre import place_values
from .groups import FiniteGroup, check_size, clip, clip_int, token_int
from .intmatrix import IntMatrix


@dataclass(frozen=True)
class SimplicialComplex:
    """Faces stored as facets on 1-based vertices, closed downward on demand."""

    n: int
    facets: tuple[frozenset[int], ...]

    def __post_init__(self):
        covered = set()
        for f in self.facets:
            for v in f:
                if not 1 <= v <= self.n:
                    raise ValueError(f"vertex {clip_int(v)} out of range 1..{self.n}")
            covered |= f
        if covered != set(range(1, self.n + 1)):
            missing = sorted(set(range(1, self.n + 1)) - covered)
            raise ValueError(f"all singletons must be present; missing {clip(str(missing))}")

    def has_face(self, s) -> bool:
        s = frozenset(s)
        return any(s <= f for f in self.facets) or not s


def zero_complex(n: int) -> SimplicialComplex:
    return SimplicialComplex(n, tuple(frozenset({v}) for v in range(1, n + 1)))


def full_simplex(n: int) -> SimplicialComplex:
    return SimplicialComplex(n, (frozenset(range(1, n + 1)),))


_COMPLEX_RE = re.compile(r"\s*(?:K\s*=\s*)?\{(.*)\}\s*$", re.S)
_VERTEX_RE = re.compile(r"-?[0-9]+")  # ASCII digits: int() also reads '+1', '0_2' and '\u0661'


def parse_complex_spec(text: str, n: int | None = None) -> SimplicialComplex:
    """Parse facet-list syntax K={1;2;3;1,2}; facets ';'-separated."""
    m = _COMPLEX_RE.match(text)
    if m is None:
        raise ValueError(f"cannot parse complex spec {clip(text)!r}")
    facets = []
    for part in m.group(1).split(";"):
        part = part.strip()
        if not part:
            continue
        vertices = [v.strip() for v in part.split(",")]
        numbers = [token_int(v, "complex vertex", v) for v in vertices if _VERTEX_RE.fullmatch(v)]
        if len(numbers) < len(vertices):
            raise ValueError(f"facet {clip(part)!r} of complex spec {clip(text)!r} has a "
                             f"non-integer vertex")
        facets.append(frozenset(numbers))
    nv = max((max(f) for f in facets), default=0)
    if n is not None:
        if nv > n:
            raise ValueError(f"complex names vertex {clip_int(nv)} but only {n} "
                             f"coordinates exist")
        nv = n
    return SimplicialComplex(nv, tuple(facets))


def load_complex_file(path: str, n: int | None = None) -> SimplicialComplex:
    """The complex with one facet per non-blank line; a bad file's error starts with its path."""
    try:
        with open(path) as fh:  # an undecodable file raises ValueError too
            facets = [line.strip() for line in fh if line.strip()]
        return parse_complex_spec("{" + ";".join(facets) + "}", n)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _count(total: int, orders: Sequence[int], support: tuple[int, ...]) -> int:
    # (m_i - 1) interval choices on the support, m_i positions elsewhere; total = prod m_i
    for i in support:
        total = total // orders[i] * (orders[i] - 1)
    return total


def _lowest_vertices(orders: Sequence[int], support: tuple[int, ...]) -> list[int]:
    """Lowest vertices of the cells with interval coordinates `support`, ascending."""
    xs = [0]
    for i, (m, t) in enumerate(zip(orders, place_values(orders))):
        xs = [x + s for x in xs for s in range(0, (m - 1 if i in support else m) * t, t)]
    return xs


@dataclass(frozen=True)
class CubicalComplex:
    groups: tuple[FiniteGroup, ...]
    # supports (i, j), i < j, of the squares: the edges of the complex
    squares: tuple[tuple[int, int], ...]

    @property
    def orders(self) -> list[int]:
        return [G.order for G in self.groups]

    @property
    def counts(self) -> tuple[int, int, int]:
        orders = self.orders
        total = prod(orders)
        return tuple(sum(_count(total, orders, s) for s in dim)
                     for dim in ([()], [(i,) for i in range(len(orders))], self.squares))

    def _square_boundaries(self):
        """Each square's boundary, as (lowest vertex, coordinate, sign) of its edges."""
        tails = place_values(self.orders)
        for i, j in self.squares:
            for x in _lowest_vertices(self.orders, (i, j)):
                yield (x, i, 1), (x + tails[i], j, 1), (x + tails[j], i, -1), (x, j, -1)

    def boundary_columns(self, dim: int) -> list[dict[int, int]]:
        """Sparse boundary map from dimension `dim` cells to `dim - 1` cells.

        Column j maps the index of each face of cell j to its sign.  A
        vertex's index is x; edges and squares are indexed by support, then
        by lowest vertex.
        """
        orders, tails = self.orders, place_values(self.orders)
        edges = [(x, i) for i in range(len(orders)) for x in _lowest_vertices(orders, (i,))]
        if dim == 1:
            return [{x + tails[i]: 1, x: -1} for x, i in edges]
        index = {e: k for k, e in enumerate(edges)}
        return [{index[x, i]: s for x, i, s in faces} for faces in self._square_boundaries()]

    def _boundary_matrix(self, dim: int) -> IntMatrix:
        columns = self.boundary_columns(dim)
        return IntMatrix([[col.get(i, 0) for col in columns] or [0]
                          for i in range(self.counts[dim - 1])])

    def boundary_one(self) -> IntMatrix:
        return self._boundary_matrix(1)

    def boundary_two(self) -> IntMatrix:
        return self._boundary_matrix(2)


def build_complex(groups: Sequence[FiniteGroup], K: SimplicialComplex) -> CubicalComplex:
    groups = tuple(groups)
    if K.n != len(groups):
        raise ValueError("complex vertex count must match the group list")
    # the edges of K, read off each facet's own vertex pairs
    squares = tuple(sorted({(i - 1, j - 1) for f in K.facets
                            for i, j in itertools.combinations(sorted(f), 2)}))
    cx = CubicalComplex(groups, squares)
    total = sum(cx.counts)
    check_size(total, f"cell count {clip_int(total)}")
    return cx


def h1(cx: CubicalComplex) -> int:
    """The first Betti number, in closed form; H1 has no torsion.

    Bahri-Bendersky-Cohen-Gitler's splitting of the polyhedral product makes
    H1 free of rank sum_{|J|>=2} (c(K_J) - 1) w(J), where c counts the
    components of K's 1-skeleton on J and w(J) = prod_{j in J} (m_j - 1).
    J is one of its components C together with any set of vertices outside
    N[C], C and its neighbours, so sum_J c(K_J) w(J) = sum_C w(C) prod_{v not
    in N[C]} m_v over the connected sets C; the |J| <= 1 terms then give
    b1 = that sum - prod m + 1.  A trivial factor has w = 0 and m = 1, so
    only the coordinates with m >= 2 take part: at most 2^(their number) <=
    prod m connected sets, and the cell cap bounds prod m.
    """
    orders, index = [], {}  # the nontrivial factors, and each one's place among them
    for v, m in enumerate(cx.orders):
        if m > 1:
            index[v] = len(orders)
            orders.append(m)
    adjacent = [0] * len(orders)
    for i, j in cx.squares:
        if i in index and j in index:
            adjacent[index[i]] |= 1 << index[j]
            adjacent[index[j]] |= 1 << index[i]
    # (C, its neighbours, vertices barred from joining, w(C)); C grows from its
    # lowest vertex, and a candidate passed over is barred from later branches,
    # so each connected set is visited once
    stack = [(1 << r, adjacent[r], (1 << r) - 1, m - 1) for r, m in enumerate(orders)]
    total = 0
    while stack:
        inside, border, banned, weight = stack.pop()
        free = border & ~banned
        while free:
            bit = free & -free
            u = bit.bit_length() - 1
            grown = inside | bit
            stack.append((grown, (border | adjacent[u]) & ~grown, banned, weight * (orders[u] - 1)))
            banned |= bit
            free ^= bit
        closed = inside | border
        total += weight * prod(m for k, m in enumerate(orders) if not closed >> k & 1)
    return total - prod(orders) + 1
