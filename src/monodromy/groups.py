"""Finite groups as Cayley tables.

Every group is stored as an order ``m``, an ``m x m`` multiplication table of
element indices, and a list of display names.  The identity is always index 0.
Group axioms are checked at construction time, associativity by Light's test
over a generating set.
"""

from __future__ import annotations

import itertools
import json
import os
import re
from dataclasses import dataclass, field

DEFAULT_CELL_CAP = 10**6


class GroupValidationError(ValueError):
    """A Cayley table violates one of the group axioms."""


class GroupSpecParseError(ValueError):
    """Malformed group-spec string; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SizeLimitError(ValueError):
    """Requested object exceeds the configured size cap."""


def cell_cap() -> int:
    """The size cap set by MONODROMY_CELL_CAP, else 10^6."""
    raw = os.environ.get("MONODROMY_CELL_CAP")
    if raw is None:
        return DEFAULT_CELL_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"MONODROMY_CELL_CAP must be a positive integer, got {raw!r}")
    return cap


def _check_table_size(name: str, order: int, shown: str | None = None) -> None:
    """Refuse, before building it, a Cayley table of order^2 entries above the cap."""
    cap = cell_cap()
    if order * order > cap:
        raise SizeLimitError(f"{name} has order {shown or order}: its table of "
                             f"order^2 entries exceeds cap {cap}")


@dataclass(frozen=True)
class FiniteGroup:
    """Immutable finite group; safe for concurrent reads."""

    order: int
    table: tuple[tuple[int, ...], ...]
    names: tuple[str, ...]
    # inverses[a] is the inverse of a, found once by __post_init__
    inverses: tuple[int, ...] = field(init=False, compare=False, repr=False)
    # a generating set, the greedy one Light's test picks in __post_init__
    generators: tuple[int, ...] = field(init=False, compare=False, repr=False)

    identity = 0

    def __post_init__(self):
        m = self.order
        if m < 1:
            raise GroupValidationError("order must be positive")
        if len(self.table) != m or any(len(row) != m for row in self.table):
            raise GroupValidationError("table must be order x order")
        if len(self.names) != m:
            raise GroupValidationError("names must list one string per element")
        if any(min(row) < 0 or max(row) >= m for row in self.table):
            raise GroupValidationError("closure: table entry out of range")
        for a in range(m):
            if self.table[0][a] != a or self.table[a][0] != a:
                raise GroupValidationError("identity: index 0 is not a two-sided unit")
        inverses = []
        for a, row in enumerate(self.table):
            # the one right inverse, which must be a left inverse too
            b = row.index(0) if row.count(0) == 1 else None
            if b is None or self.table[b][a] != 0:
                raise GroupValidationError(f"inverse: element {a} lacks a unique two-sided inverse")
            inverses.append(b)
        object.__setattr__(self, "inverses", tuple(inverses))
        self._check_associativity()

    def _check_associativity(self):
        """Light's test: (x y) g = x (y g) for all x, y and each generator g.

        The z with (x y) z = x (y z) for all x, y are closed under the
        product, so passing generators make the table associative.  They are
        picked greedily from the identity; each one at least doubles a
        subgroup, so a group needs at most log2 m of them.
        """
        m, t = self.order, self.table
        gens: list[int] = []
        reached = {0}
        for a in range(m):
            if a in reached:
                continue
            if 2 ** (len(gens) + 1) > m:
                raise GroupValidationError(f"associativity fails: order {m} needs "
                                           f"{len(gens) + 1} greedy generators, over log2 {m}")
            gens.append(a)
            stack = list(reached)
            while stack:
                row = t[stack.pop()]
                new = {row[g] for g in gens} - reached
                reached |= new
                stack += new
        for g in gens:
            col = [row[g] for row in t]
            for x, row in enumerate(t):
                if [col[v] for v in row] != [row[v] for v in col]:
                    y = next(y for y in range(m) if col[row[y]] != row[col[y]])
                    raise GroupValidationError(f"associativity fails at ({x},{y},{g})")
        object.__setattr__(self, "generators", tuple(gens))

    def op(self, a: int, b: int) -> int:
        if not (0 <= a < self.order and 0 <= b < self.order):
            raise ValueError(f"element index out of range: {a}, {b}")
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        if not 0 <= a < self.order:
            raise ValueError(f"element index out of range: {a}")
        return self.inverses[a]

    def element_order(self, a: int) -> int:
        if not 0 <= a < self.order:
            raise ValueError(f"element index out of range: {a}")
        d, x = 1, a
        while x != 0:
            x = self.table[x][a]
            d += 1
        return d

    def power(self, a: int, k: int) -> int:
        """a**k for any integer k, reduced modulo the order of a first."""
        x = 0
        for _ in range(k % self.element_order(a)):
            x = self.table[x][a]
        return x

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"no element named {name!r}") from None


def make_cyclic(n: int) -> FiniteGroup:
    """Cyclic group C_n with element k standing for x^k."""
    if n < 1:
        raise GroupValidationError("invalid order: n must be >= 1")
    _check_table_size(f"C{n}", n)
    elems = tuple(range(n))
    table = tuple(elems[a:] + elems[:a] for a in range(n))  # row a is (a + b) % n
    names = tuple("1" if k == 0 else ("x" if k == 1 else f"x^{k}") for k in range(n))
    return FiniteGroup(n, table, names)


def _cycle_notation(perm: tuple[int, ...]) -> str:
    # one-line images of 1..k, 1-based
    k = len(perm)
    seen = [False] * k
    out = []
    for start in range(k):
        if seen[start] or perm[start] == start + 1:
            seen[start] = True
            continue
        cyc, i = [], start
        while not seen[i]:
            seen[i] = True
            cyc.append(i + 1)
            i = perm[i] - 1
        out.append("(" + "".join(str(v) for v in cyc) + ")")
    return "".join(out) if out else "1"


def make_symmetric(k: int, names_order: list[str] | None = None) -> FiniteGroup:
    """Symmetric group on {1..k}.

    Elements are permutations in lexicographic one-line order, composed
    apply-right-first: (a.b)(i) = a(b(i)).  Names use cycle notation.
    ``names_order`` relabels the enumeration to an explicit list of cycle
    names (the identity "1" must come first).
    """
    if k < 1:
        raise GroupValidationError("invalid order: k must be >= 1")
    order = 1
    for d in range(2, k + 1):  # d! <= k!, so this stops at the first d! over the cap
        order *= d
        _check_table_size(f"S{k}", order, f"{k}!")
    perms = sorted(itertools.permutations(range(1, k + 1)))
    names = [_cycle_notation(p) for p in perms]
    if names_order is not None:
        if sorted(names_order) != sorted(names):
            raise GroupValidationError("names_order must be a permutation of the element names")
        if names_order[0] != "1":
            raise GroupValidationError("identity must be listed first")
        perms = [perms[names.index(nm)] for nm in names_order]
        names = list(names_order)
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(index[tuple(a[b[i] - 1] for i in range(k))] for b in perms)
        for a in perms
    )
    return FiniteGroup(len(perms), table, tuple(names))


#: The symmetric-group-on-3-letters listing used throughout the worked examples.
S3_CLASSIC_ORDER = ["1", "(12)", "(13)", "(23)", "(123)", "(132)"]


def make_dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n; element i + n*f stands for r^i s^f."""
    if n < 1:
        raise GroupValidationError("invalid order: n must be >= 1")
    _check_table_size(f"D{n}", 2 * n)

    def mul(a, b):
        i1, f1 = a % n, a // n
        i2, f2 = b % n, b // n
        i = (i1 + (i2 if f1 == 0 else -i2)) % n
        return i + n * ((f1 + f2) % 2)

    table = tuple(tuple(mul(a, b) for b in range(2 * n)) for a in range(2 * n))
    names = []
    for f in (0, 1):
        for i in range(n):
            r = "" if i == 0 else ("r" if i == 1 else f"r^{i}")
            s = "s" if f else ""
            names.append((r + s) or "1")
    return FiniteGroup(2 * n, table, tuple(names))


def load_cayley_table(path: str) -> FiniteGroup:
    """Load a group from a JSON file with fields order, names, table."""
    with open(path) as fh:
        data = json.load(fh)

    def is_int(v):
        return isinstance(v, int) and not isinstance(v, bool)

    def is_list(v, item):
        return isinstance(v, list) and all(map(item, v))

    if not isinstance(data, dict):
        raise GroupValidationError(f"cayley table file {path}: expected a JSON object")
    for key, ok, what in (("order", is_int, "an integer"),
                          ("names", lambda v: is_list(v, lambda s: isinstance(s, str)),
                           "a list of strings"),
                          ("table", lambda v: is_list(v, lambda row: is_list(row, is_int)),
                           "a list of integer lists")):
        if key not in data:
            raise GroupValidationError(f"cayley table file {path}: missing field {key!r}")
        if not ok(data[key]):
            raise GroupValidationError(f"cayley table file {path}: field {key!r} must be {what}")
    return FiniteGroup(data["order"], tuple(map(tuple, data["table"])), tuple(data["names"]))


_ITEM_RE = re.compile(r"([CSD])([0-9]+)$|table:(.+)$")


def parse_group_spec(spec: str) -> list[FiniteGroup]:
    """Parse a comma-separated list of group items.

    Grammar: item ("," item)*, item in { C<n>, S<n>, D<n>, table:<path> }.
    """
    groups = []
    pos = 0
    if not spec.strip():
        raise GroupSpecParseError("empty group spec", 0)
    for item in spec.split(","):
        stripped = item.strip()
        m = _ITEM_RE.match(stripped)
        if m is None:
            raise GroupSpecParseError(f"malformed group item {stripped!r}", pos)
        if m.group(3) is not None:
            groups.append(load_cayley_table(m.group(3)))
        else:
            kind, n = m.group(1), int(m.group(2))
            if n < 1:
                raise GroupSpecParseError(f"group item {stripped!r} needs an index of at least 1",
                                          pos)
            if kind == "C":
                groups.append(make_cyclic(n))
            elif kind == "S":
                order = S3_CLASSIC_ORDER if n == 3 else None
                groups.append(make_symmetric(n, names_order=order))
            else:
                groups.append(make_dihedral(n))
        pos += len(item) + 1
    return groups
