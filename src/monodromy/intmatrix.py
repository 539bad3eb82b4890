"""Exact integer matrices: abelianized automorphisms, determinants, the report.

Entries are Python ints (arbitrary precision); no floating point anywhere.
The abelianization uses the columns-as-images convention, so matrices
compose covariantly: M(f o g) = M(f) * M(g).  An element's matrix is read
off its state, from `action.outer_representative`: `act_word` conjugates its
images by the walk P of the element, and P cancels in H1.  Criterion 7 and
the tests' dense report keep counting `act_word`, as the oracle of that.
The letters are counted once, into sparse columns (`columns`): the report
compares those directly, and the CLI's `matrix` prints them as sparse rows,
with no dense copy.  `abelianize` writes them into a dense `IntMatrix` for
verify's matrix criteria and `cyclic_closed_form`.
An element's determinant is read off its projection (`determinant`);
`IntMatrix.det` and `IntMatrix.rank` share one fraction-free elimination.
"""

from __future__ import annotations

import random
from math import prod
from typing import Iterable, Iterator, Sequence

from .action import Automorphism, algebraic_basis, outer_representative
from .groups import FiniteGroup, SizeLimitError, make_cyclic
from .words import random_kernel_word, single

MAX_REPORT_PAIR = 10**4  # the largest |G| |H| representation_report accepts


class IntMatrix:
    def __init__(self, entries: Sequence[Sequence[int]]):
        self.entries = [list(map(int, row)) for row in entries]
        self.rows = len(self.entries)
        if self.rows == 0:
            raise ValueError("matrix dimensions must be positive")
        self.cols = len(self.entries[0])
        if self.cols == 0 or any(len(r) != self.cols for r in self.entries):
            raise ValueError("ragged or empty matrix")

    @classmethod
    def _of_rows(cls, rows: list[list[int]]) -> "IntMatrix":
        """Wrap int rows built inside the class, without copying or checking them."""
        if not rows or not rows[0]:
            raise ValueError("matrix dimensions must be positive")
        m = cls.__new__(cls)
        m.entries, m.rows, m.cols = rows, len(rows), len(rows[0])
        return m

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._of_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        return IntMatrix._of_rows(list(_product_rows(self, other)))

    def __neg__(self):
        return IntMatrix._of_rows([[-v for v in row] for row in self.entries])

    def __pow__(self, k: int) -> "IntMatrix":
        if self.rows != self.cols:
            raise ValueError("power needs a square matrix")
        if k < 0:
            raise ValueError("negative powers not supported")
        acc, base = IntMatrix.identity(self.rows), self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of_rows(list(map(list, zip(*self.entries))))

    def is_identity(self) -> bool:
        return self.rows == self.cols and _unit_rows(self.entries)

    def det(self) -> int:
        """Exact determinant: O(n^3), for small matrices."""
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        rank, pivot = _eliminate(self.entries)
        return pivot if rank == self.rows else 0

    def rank(self) -> int:
        """Rank over the rationals."""
        return _eliminate(self.entries)[0]

    def __repr__(self):
        return f"IntMatrix({self.entries!r})"


def _product_rows(a: IntMatrix, b: IntMatrix) -> Iterator[list[int]]:
    """The rows of a * b, each formed when it is read; the caller checks the shapes."""
    # the factors are mostly zero: visit only the nonzero entries of each
    # left row, and of the right factor's row that each one selects
    right = [[(j, v) for j, v in enumerate(row) if v] for row in b.entries]
    for row in a.entries:
        acc = [0] * b.cols
        for u, nonzeros in zip(row, right):
            if u:
                for j, v in nonzeros:
                    acc[j] += u * v
        yield acc


def _unit_rows(rows: Iterable[list[int]]) -> bool:
    """Whether row i is e_i for every i, read up to the first row that is not."""
    return all(row[i] == 1 and not any(row[:i]) and not any(row[i + 1:])
               for i, row in enumerate(rows))


def product_is_identity(a: IntMatrix, b: IntMatrix) -> bool:
    """Whether a * b is the identity, formed row by row only up to its first row that is
    not e_i.  Raises the ValueError of a * b on a shape mismatch."""
    if a.cols != b.rows:
        raise ValueError("dimension mismatch")
    return a.rows == b.cols and _unit_rows(_product_rows(a, b))


def _eliminate(entries: list[list[int]]) -> tuple[int, int]:
    """Fraction-free (Bareiss) elimination of a copy of the rows: (rank, signed last pivot).

    A column with no pivot left is skipped.  The k-th pivot is the minor on
    the first k pivot rows and columns, so the last pivot, signed by the row
    swaps, is the determinant of a square matrix of full rank.
    """
    a = [row[:] for row in entries]
    rows, cols = len(a), len(a[0])
    rank, prev, sign = 0, 1, 1
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if a[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            a[rank], a[pivot], sign = a[pivot], a[rank], -sign
        for i in range(rank + 1, rows):
            for j in range(col + 1, cols):
                a[i][j] = (a[i][j] * a[rank][col] - a[i][col] * a[rank][j]) // prev
            a[i][col] = 0
        prev = a[rank][col]
        rank += 1
        if rank == rows:
            break
    return rank, sign * prev


def columns(f: Automorphism) -> list[dict[int, int]]:
    """The abelianized images of f: each one's nonzero signed letter counts, {row: count}."""
    out = []
    for img in f.images:
        counts: dict[int, int] = {}
        for x in img:
            if x > 0:
                counts[x - 1] = counts.get(x - 1, 0) + 1
            else:
                counts[-x - 1] = counts.get(-x - 1, 0) - 1
        # a symbol met as often as its inverse counts 0, and is dropped
        out.append({k: v for k, v in counts.items() if v} if 0 in counts.values() else counts)
    return out


def abelianize(f: Automorphism) -> IntMatrix:
    """The dense matrix of `columns`: column j holds the counts of image j."""
    n = f.basis.rank
    rows = [[0] * n for _ in range(n)]
    for j, col in enumerate(columns(f)):
        for i, v in col.items():
            rows[i][j] = v
    return IntMatrix._of_rows(rows)


def cyclic_closed_form(r: int, m: int) -> tuple[IntMatrix, IntMatrix]:
    """Abelianized generator actions for C_r * C_m in the commutator basis."""
    if r < 2 or m < 2:
        raise ValueError("both cyclic orders must be at least 2")
    groups = (make_cyclic(r), make_cyclic(m))
    basis = algebraic_basis(groups)
    return tuple(abelianize(outer_representative(single(groups, f, 1), basis)) for f in (0, 1))


def determinant(groups: Sequence[FiniteGroup], g: Sequence[int]) -> int:
    """det of the abelianized action of g = (g_1, ..., g_n) on the kernel, in any basis.

    H1 of the kernel (x) Q is the sum over J, |J| >= 2, of |J| - 1 copies
    of the tensor product of the augmentation ideals I_{G_j}, j in J (the
    Bahri-Bendersky-Cohen-Gitler splitting).  On I_{G_j}, g_j has det
    s_j, the sign of x -> g_j x on G_j: |G_j|/o cycles of length o = o(g_j).
    With det(A (x) B) = det(A)^dim(B) det(B)^dim(A) and m_k = |G_k|, the
    det is prod_j s_j^e_j, where
      e_j = sum over J containing j of (|J| - 1) prod_{k in J, k != j} (m_k - 1)
          = sum_{k != j} (m_k - 1) prod_{l not in {j, k}} m_l.
    """
    orders = [G.order for G in groups]
    det = 1
    for j, (G, a) in enumerate(zip(groups, g)):
        o = G.element_order(a)
        e = sum((m - 1) * prod(ml for l, ml in enumerate(orders) if l not in (j, k))
                for k, m in enumerate(orders) if k != j)
        det *= (-1) ** ((o - 1) * (G.order // o) * e)
    return det


def _left_multiplication(G: FiniteGroup, a: int) -> list[dict[int, int]]:
    """Sparse columns of left multiplication by a on the augmentation ideal I_G.

    Column i - 1 (1 <= i < |G|) is e_{a g_i} - e_a with e_0 = 0; row r - 1
    is the coefficient of g_r - 1.
    """
    cols = []
    for i in range(1, G.order):
        ai = G.op(a, i)
        col = {ai - 1: 1} if ai else {}
        if a:
            col[a - 1] = -1  # a g_i != a, since g_i is not the identity
        cols.append(col)
    return cols


def _scalar(cols: list[dict[int, int]]) -> int:
    """1 or -1 if the sparse columns are +I or -I, else 0."""
    for c in (1, -1):
        if all(col == {i: c} for i, col in enumerate(cols)):
            return c
    return 0


def representation_report(G: FiniteGroup, H: FiniteGroup,
                          seed: int = 0, kernel_trials: int = 50) -> dict:
    """Matrix-level certificate suite for a pair of finite groups.

    H1 of the kernel is I_G (x) I_H, with w[i,j] = [g_i, h_j] at i-major
    position; g acts as A_G(g) (x) I and h as I (x) A_H(h), where A is left
    multiplication on the augmentation ideal.  The image of each generator
    of either factor is checked against its Kronecker column; both sides
    are homomorphisms, so then every element factors.  The certificates
    are read off the factor matrices:
    - the two factors commute, by the mixed-product property, exactly when
      every element factors;
    - A_G(g) (x) A_H(h) = I iff A_G(g) = A_H(h) = +-I with the same sign;
    - det(A_G(g) (x) I) = det(A_G(g))^(|H|-1), and symmetrically (`determinant`);
    - A_G(g) (x) I = I iff A_G(g) = I.
    Each generator's columns are its outer representative's.  A kernel word
    walks from 0 back to 0, so every trial acts, in H1, as the walks from
    state 0 do: the trials walk their words, and those columns are counted
    once and compared with the identity's.
    """
    if G.order * H.order > MAX_REPORT_PAIR:
        raise SizeLimitError(f"group pair of orders {G.order} and {H.order} too large for the "
                             f"matrix report: {G.order * H.order} exceeds {MAX_REPORT_PAIR}")
    groups = (G, H)
    basis = algebraic_basis(groups)  # refuses a trivial factor, naming it
    m, n = G.order - 1, H.order - 1
    cols_g = [_left_multiplication(G, a) for a in range(G.order)]
    cols_h = [_left_multiplication(H, b) for b in range(H.order)]

    # symbol (i, j) sits at i*n + j, so column (i, j) of A (x) I holds A's
    # column i at rows r*n + j, and that of I (x) B holds B's column j at i*n + r
    def kronecker(f: int, e: int) -> list[dict[int, int]]:
        if f == 0:
            return [{r * n + j: v for r, v in col.items()} for col in cols_g[e] for j in range(n)]
        return [{i * n + r: v for r, v in col.items()} for i in range(m) for col in cols_h[e]]

    cross_commute = all(columns(outer_representative(single(groups, f, e), basis))
                        == kronecker(f, e) for f in (0, 1) for e in groups[f].generators)
    scalars_g = [_scalar(cols) for cols in cols_g]
    scalars_h = [_scalar(cols) for cols in cols_h]
    faithful = not any((a or b) and sg and sg == sh
                       for a, sg in enumerate(scalars_g) for b, sh in enumerate(scalars_h))
    dets_g = [determinant(groups, (a, 0)) for a in range(G.order)]
    dets_h = [determinant(groups, (0, b)) for b in range(H.order)]
    all_sl = all(d == 1 for d in dets_g + dets_h)
    non_ia = 1 not in scalars_g[1:] + scalars_h[1:]

    rng = random.Random(seed)
    identity = [{k: 1} for k in range(basis.rank)]
    kernel_identity = all(
        basis.state(random_kernel_word(rng, groups, max_letters=10)) == 0
        for _ in range(kernel_trials)) and columns(Automorphism(basis, basis.walks(0))) == identity

    return {
        "orders": [G.order, H.order],
        "rank": basis.rank,
        "cross_factor_commute": cross_commute,
        "faithful": faithful,
        "determinants": {"factor1": dets_g, "factor2": dets_h},
        "all_in_sl": all_sl,
        "non_ia_certificate": non_ia,
        "kernel_words_act_trivially": kernel_identity,
        "kernel_trials": kernel_trials,
        "seed": seed,
    }
