"""Cubical model of the fibre over an arbitrary simplicial complex.

Only cells of dimension <= 2 are built; first homology is determined by
the 2-skeleton.  A cell assigns each coordinate either a point position or
a unit interval; its support (the interval coordinates) must be a face of
the simplicial complex.  Boundary maps carry the ascending-coordinate
product orientation, with intervals oriented towards increasing position.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from math import prod
from typing import Sequence

from .groups import FiniteGroup, SizeLimitError, cell_cap
from .intmatrix import IntMatrix, sparse_rank_torsion

DEFAULT_CELL_CAP = 10**6

# Cell: per coordinate ('p', position) or ('i', interval index).
Cell = tuple[tuple[str, int], ...]


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
                    raise ValueError(f"vertex {v} out of range 1..{self.n}")
            covered |= f
        if covered != set(range(1, self.n + 1)):
            missing = sorted(set(range(1, self.n + 1)) - covered)
            raise ValueError(f"all singletons must be present; missing {missing}")

    def faces(self) -> set[frozenset[int]]:
        out: set[frozenset[int]] = {frozenset()}
        for f in self.facets:
            items = sorted(f)
            for k in range(1, len(items) + 1):
                out.update(frozenset(c) for c in itertools.combinations(items, k))
        return out

    def has_face(self, s) -> bool:
        s = frozenset(s)
        return any(s <= f for f in self.facets) or not s

    def edges(self) -> set[frozenset[int]]:
        return {f for f in self.faces() if len(f) == 2}


def zero_complex(n: int) -> SimplicialComplex:
    return SimplicialComplex(n, tuple(frozenset({v}) for v in range(1, n + 1)))


def full_simplex(n: int) -> SimplicialComplex:
    return SimplicialComplex(n, (frozenset(range(1, n + 1)),))


def is_flag(K: SimplicialComplex) -> bool:
    """True iff every set of pairwise-adjacent vertices is a face."""
    edges = K.edges()
    for k in range(3, K.n + 1):
        for combo in itertools.combinations(range(1, K.n + 1), k):
            if all(frozenset(p) in edges for p in itertools.combinations(combo, 2)):
                if not K.has_face(combo):
                    return False
    return True


_COMPLEX_RE = re.compile(r"\s*(?:K\s*=\s*)?\{(.*)\}\s*$", re.S)


def parse_complex_spec(text: str, n: int | None = None) -> SimplicialComplex:
    """Parse facet-list syntax K={1;2;3;1,2}; facets ';'-separated."""
    m = _COMPLEX_RE.match(text)
    if m is None:
        raise ValueError(f"cannot parse complex spec {text!r}")
    facets = []
    for part in m.group(1).split(";"):
        part = part.strip()
        if not part:
            continue
        facets.append(frozenset(int(v) for v in part.split(",")))
    nv = max((max(f) for f in facets), default=0)
    if n is not None:
        if nv > n:
            raise ValueError(f"complex names vertex {nv} but only {n} coordinates exist")
        nv = n
    return SimplicialComplex(nv, tuple(facets))


def load_complex_file(path: str, n: int | None = None) -> SimplicialComplex:
    with open(path) as fh:
        facets = [line.strip() for line in fh if line.strip()]
    return parse_complex_spec("{" + ";".join(facets) + "}", n)


@dataclass(frozen=True)
class CubicalComplex:
    groups: tuple[FiniteGroup, ...]
    complex: SimplicialComplex
    cells: tuple[tuple[Cell, ...], tuple[Cell, ...], tuple[Cell, ...]]

    @property
    def counts(self) -> tuple[int, int, int]:
        return tuple(len(c) for c in self.cells)

    def boundary_columns(self, dim: int) -> list[dict[int, int]]:
        """Sparse boundary map from dimension `dim` cells to `dim - 1` cells.

        Column j maps the index of each face of cell j to its sign:
        d(A x B) = dA x B + (-1)^{dim A} A x dB, coordinates ascending.
        """
        faces = {c: k for k, c in enumerate(self.cells[dim - 1])}
        columns = []
        for cell in self.cells[dim]:
            col = {}
            ivs = [k for k, (kind, _) in enumerate(cell) if kind == "i"]
            for pos, i in enumerate(ivs):
                sgn = -1 if pos % 2 else 1
                k = cell[i][1]
                col[faces[cell[:i] + (("p", k + 1),) + cell[i + 1:]]] = sgn
                col[faces[cell[:i] + (("p", k),) + cell[i + 1:]]] = -sgn
            columns.append(col)
        return columns

    def _boundary_matrix(self, dim: int) -> IntMatrix:
        columns = self.boundary_columns(dim)
        mat = [[0] * max(len(columns), 1) for _ in self.cells[dim - 1]]
        for j, col in enumerate(columns):
            for i, v in col.items():
                mat[i][j] = v
        return IntMatrix(mat)

    def boundary_one(self) -> IntMatrix:
        return self._boundary_matrix(1)

    def boundary_two(self) -> IntMatrix:
        return self._boundary_matrix(2)


def build_complex(groups: Sequence[FiniteGroup], K: SimplicialComplex,
                  cap: int | None = None) -> CubicalComplex:
    groups = tuple(groups)
    if K.n != len(groups):
        raise ValueError("complex vertex count must match the group list")
    orders = [G.order for G in groups]
    if cap is None:
        cap = cell_cap(DEFAULT_CELL_CAP)
    n = len(groups)
    supports = ([()], [(i,) for i in range(n)],
                [(i, j) for i, j in itertools.combinations(range(n), 2)
                 if K.has_face({i + 1, j + 1})])
    # cells with support S: (m_i - 1) interval choices on S, m_i points elsewhere
    total = sum(prod(m - 1 if i in s else m for i, m in enumerate(orders))
                for dim in supports for s in dim)
    if total > cap:
        raise SizeLimitError(f"cell count {total} exceeds cap")

    def cells_with_support(support: tuple[int, ...]):
        choices = [[("i", k) for k in range(m - 1)] if i in support
                   else [("p", k) for k in range(m)] for i, m in enumerate(orders)]
        return itertools.product(*choices)

    cells = tuple(tuple(itertools.chain.from_iterable(map(cells_with_support, dim)))
                  for dim in supports)
    return CubicalComplex(groups, K, cells)


def h1(cx: CubicalComplex) -> tuple[int, list[int]]:
    """(first Betti number, invariant factors > 1)."""
    nverts, nedges, nsquares = cx.counts
    if nedges == 0:
        return 0, []
    d1 = cx.boundary_columns(1)
    rank_d1, _ = sparse_rank_torsion(d1)
    if nsquares == 0:
        return nedges - rank_d1, []
    d2 = cx.boundary_columns(2)
    # sanity: the composite boundary vanishes
    for col in d2:
        image: dict[int, int] = {}
        for e, a in col.items():
            for v, b in d1[e].items():
                image[v] = image.get(v, 0) + a * b
        if any(image.values()):
            raise AssertionError("boundary composition is nonzero")
    rank_d2, torsion = sparse_rank_torsion(d2)
    return (nedges - rank_d1) - rank_d2, torsion
