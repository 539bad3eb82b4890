"""Exact integer matrices: abelianized automorphisms, determinants, the report.

Entries are Python ints (arbitrary precision); no floating point anywhere.
The abelianization uses the columns-as-images convention, so matrices
compose covariantly: M(f o g) = M(f) * M(g).  Its letters are counted once,
into sparse columns (`columns`): the report compares those directly, and
`abelianize` writes them into a dense matrix.
"""

from __future__ import annotations

import random
from itertools import compress
from typing import Sequence

from .action import Automorphism, Basis, act_letter, act_word, algebraic_basis
from .groups import FiniteGroup, SizeLimitError, make_cyclic
from .words import Letter, random_kernel_word

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

    @classmethod
    def zeros(cls, r: int, c: int) -> "IntMatrix":
        return cls._of_rows([[0] * c for _ in range(r)])

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.entries))

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        # the factors are mostly zero: visit only the nonzero entries of each
        # left row, and of the right factor's row that each one selects
        right = [[(j, b) for j, b in enumerate(row) if b] for row in other.entries]
        out = []
        for row in self.entries:
            acc = [0] * other.cols
            for a, nonzeros in zip(row, right):
                if a:
                    for j, b in nonzeros:
                        acc[j] += a * b
            out.append(acc)
        return IntMatrix._of_rows(out)

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
        return self.rows == self.cols and all(
            row[i] == 1 and not any(row[:i]) and not any(row[i + 1:])
            for i, row in enumerate(self.entries))

    def det(self) -> int:
        """Exact determinant: unit pivots first, Bareiss on what is left.

        The unit eliminations are column operations, which keep the
        determinant, and leave the pivot rows and columns block-triangular
        against the rest once both are put in pivot order.  So det =
        sgn(sigma) * prod(pivots) * det(leftover block), where sigma sends
        each pivot row to its pivot column and the leftover rows to the
        leftover columns in sorted order.  A column that empties gives 0.
        """
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        n = self.rows
        # compress keeps the nonzero (row, entry) pairs of each column in C
        sparse = [dict(compress(enumerate(col), col)) for col in zip(*self.entries)]
        pivots, cols = _eliminate_units(sparse)
        if len(pivots) + len(cols) < n:
            return 0
        sigma = [-1] * n
        value = 1
        for i, j, p in pivots:
            sigma[i] = j
            value *= p
        left_rows = [i for i in range(n) if sigma[i] < 0]
        left_cols = sorted(cols)
        for i, j in zip(left_rows, left_cols):
            sigma[i] = j
        if left_cols:
            value *= bareiss_det([[cols[j].get(i, 0) for j in left_cols]
                                  for i in left_rows])
        return _permutation_sign(sigma) * value

    def rank(self) -> int:
        """Rank over the rationals, by fraction-free elimination."""
        a = [row[:] for row in self.entries]
        rank, prev = 0, 1
        rows, cols = self.rows, self.cols
        for col in range(cols):
            pivot = next((r for r in range(rank, rows) if a[r][col]), None)
            if pivot is None:
                continue
            a[rank], a[pivot] = a[pivot], a[rank]
            for i in range(rank + 1, rows):
                for j in range(col + 1, cols):
                    a[i][j] = (a[i][j] * a[rank][col] - a[i][col] * a[rank][j]) // prev
                a[i][col] = 0
            prev = a[rank][col]
            rank += 1
            if rank == rows:
                break
        return rank

    def to_lists(self) -> list[list[int]]:
        return [row[:] for row in self.entries]

    def pretty(self) -> str:
        width = max((len(str(v)) for row in self.entries for v in row), default=1)
        return "\n".join(" ".join(str(v).rjust(width) for v in row)
                         for row in self.entries)

    def __repr__(self):
        return f"IntMatrix({self.entries!r})"


def bareiss_det(entries: Sequence[Sequence[int]]) -> int:
    """Determinant of a square list of rows by fraction-free (Bareiss) elimination."""
    n = len(entries)
    a = [list(row) for row in entries]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            r = next((r for r in range(k + 1, n) if a[r][k]), None)
            if r is None:
                return 0
            a[k], a[r], sign = a[r], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _permutation_sign(perm: Sequence[int]) -> int:
    """+1 or -1: a cycle of length L contributes (-1)^(L-1)."""
    sign, seen = 1, [False] * len(perm)
    for start in range(len(perm)):
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            if k != start:
                sign = -sign
    return sign


def _eliminate_units(columns: Sequence[dict[int, int]]):
    """Pivot on unit entries of sparse columns, sparsest column first.

    Each column maps row index -> entry.  A pass visits the live columns in
    order of nonzero count, and in each one pivots on the +-1 entry whose
    row has the fewest nonzeros.  Each pivot (i, j, p) is a unimodular
    Schur-complement step: column operations clear row i outside column j,
    then row i and column j leave the matrix.  Passes repeat until no
    column has a unit entry.  Returns the pivots in order and the leftover
    nonzero columns {j: {row: entry}}, none of which has a unit entry.
    """
    cols: dict[int, dict[int, int]] = {}
    rows: dict[int, set[int]] = {}
    for j, column in enumerate(columns):
        col = {i: v for i, v in column.items() if v}
        if col:
            cols[j] = col
            for i in col:
                rows.setdefault(i, set()).add(j)

    pivots: list[tuple[int, int, int]] = []
    while True:
        before = len(pivots)
        for j in sorted(cols, key=lambda j: len(cols[j])):
            pivot = cols.get(j)  # None once an earlier pivot of this pass emptied it
            units = [i for i, v in pivot.items() if v in (1, -1)] if pivot else ()
            if not units:
                continue
            i = min(units, key=lambda i: len(rows[i]))
            del cols[j]
            for r in pivot:
                rows[r].discard(j)
            p = pivot.pop(i)
            for k in rows.pop(i):
                # col_k -= (a_ik / p) col_j clears row i; 1/p == p for a unit
                col = cols[k]
                f = col.pop(i) * p
                for r, v in pivot.items():
                    new = col.get(r, 0) - f * v
                    if new:
                        col[r] = new
                        rows[r].add(k)
                    else:
                        del col[r]
                        rows[r].discard(k)
                if not col:
                    del cols[k]
            pivots.append((i, j, p))
        if len(pivots) == before:
            return pivots, cols


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


def matrix_of_letter(t: Letter, basis: Basis) -> IntMatrix:
    return abelianize(act_letter(t, basis))


def cyclic_closed_form(r: int, m: int) -> tuple[IntMatrix, IntMatrix]:
    """Abelianized generator actions for C_r * C_m in the commutator basis."""
    if r < 2 or m < 2:
        raise ValueError("both cyclic orders must be at least 2")
    basis = algebraic_basis((make_cyclic(r), make_cyclic(m)))
    return matrix_of_letter(Letter(0, 1), basis), matrix_of_letter(Letter(1, 1), basis)


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
    - det(A_G(g) (x) I) = det(A_G(g))^(|H|-1), and symmetrically;
    - A_G(g) (x) I = I iff A_G(g) = I.
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

    cross_commute = all(columns(act_letter(Letter(f, e), basis)) == kronecker(f, e)
                        for f in (0, 1) for e in groups[f].generators)
    scalars_g = [_scalar(cols) for cols in cols_g]
    scalars_h = [_scalar(cols) for cols in cols_h]
    faithful = not any((a or b) and sg and sg == sh
                       for a, sg in enumerate(scalars_g) for b, sh in enumerate(scalars_h))
    # det A_G(a) is the sign of x -> a x on G: |G|/o(a) cycles of length o(a)
    dets_g = [(-1) ** ((k - 1) * (G.order // k) * n) for k in map(G.element_order, range(G.order))]
    dets_h = [(-1) ** ((k - 1) * (H.order // k) * m) for k in map(H.element_order, range(H.order))]
    all_sl = all(d == 1 for d in dets_g + dets_h)
    non_ia = 1 not in scalars_g[1:] + scalars_h[1:]

    rng = random.Random(seed)
    identity = [{k: 1} for k in range(basis.rank)]
    kernel_identity = True
    for _ in range(kernel_trials):
        w = random_kernel_word(rng, groups, max_letters=10)
        if columns(act_word(w, basis)) != identity:
            kernel_identity = False
            break

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
