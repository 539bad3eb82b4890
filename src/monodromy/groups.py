"""Finite groups as Cayley tables.

Every group is stored as an order ``m``, an ``m x m`` multiplication table of
element indices, and a list of display names.  The identity is always index 0.
Group axioms are checked at construction time, associativity by Light's test
over a generating set.  `check_size` is the one size gate: these tables, the
fibre graph's vertices, the cubical cells and `matrix`'s rank^2 entries are
each refused above MONODROMY_CELL_CAP before they are built.  `token_int`
reads each number typed in a group item, a word token or a complex vertex,
and refuses one with more digits than `int` reads by naming it.  `clip`
cuts each typed value or count that an error line echoes.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import sys
from dataclasses import dataclass, field

DEFAULT_CELL_CAP = 10**6
# the word token s<i>:<name>, an element named in a table; read by `words.parse_word`
_NAME_TOKEN = re.compile(r"s([0-9]+):(.+)$")


class GroupValidationError(ValueError):
    """A Cayley table violates one of the group axioms."""


class GroupSpecParseError(ValueError):
    """Malformed group-spec string; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SizeLimitError(ValueError):
    """Requested object exceeds the configured size cap."""


def check_size(count: int, what: str) -> None:
    """Refuse `what`, of `count` cells, entries or vertices, before it is built.

    The cap is MONODROMY_CELL_CAP, else 10^6; a cap that is not a positive
    integer is refused first, whatever the count.
    """
    raw = os.environ.get("MONODROMY_CELL_CAP", str(DEFAULT_CELL_CAP))
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"MONODROMY_CELL_CAP must be a positive integer, got {clip(raw)!r}")
    if count > cap:
        raise SizeLimitError(f"{what} exceeds cap {clip_int(cap)}")


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
            raise ValueError(f"no element named {clip(name)!r}") from None


def make_cyclic(n: int) -> FiniteGroup:
    """Cyclic group C_n with element k standing for x^k."""
    if n < 1:
        raise GroupValidationError("invalid order: n must be >= 1")
    check_size(n * n, f"C{clip_int(n)} has order {clip_int(n)}: its table of order^2 entries")
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


#: The symmetric-group-on-3-letters listing used throughout the worked examples.
S3_CLASSIC_ORDER = ["1", "(12)", "(13)", "(23)", "(123)", "(132)"]


def make_symmetric(k: int) -> FiniteGroup:
    """Symmetric group on {1..k}.

    Elements are permutations in lexicographic one-line order, but S3 in the
    worked examples' order, `S3_CLASSIC_ORDER`; they compose
    apply-right-first: (a.b)(i) = a(b(i)).  Names use cycle notation.
    """
    if k < 1:
        raise GroupValidationError("invalid order: k must be >= 1")
    order, what = 1, f"S{clip_int(k)} has order {clip_int(k)}!: its table of order^2 entries"
    for d in range(2, k + 1):  # d! <= k!, so this stops at the first d! over the cap
        order *= d
        check_size(order * order, what)
    perms = sorted(itertools.permutations(range(1, k + 1)))
    names = [_cycle_notation(p) for p in perms]
    if k == 3:
        perms = [perms[names.index(nm)] for nm in S3_CLASSIC_ORDER]
        names = S3_CLASSIC_ORDER
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(index[tuple(a[b[i] - 1] for i in range(k))] for b in perms)
        for a in perms
    )
    return FiniteGroup(len(perms), table, tuple(names))


def make_dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n; element i + n*f stands for r^i s^f."""
    if n < 1:
        raise GroupValidationError("invalid order: n must be >= 1")
    check_size(4 * n * n,
               f"D{clip_int(n)} has order {clip_int(2 * n)}: its table of order^2 entries")

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
    """Load a group from a JSON file with fields order, names, table.

    Every error but an unreadable file's starts with the file's path.
    """

    def is_int(v):
        return isinstance(v, int) and not isinstance(v, bool)

    def is_list(v, item):
        return isinstance(v, list) and all(map(item, v))

    try:
        with open(path) as fh:  # JSON and decoding errors are ValueErrors too
            data = json.load(fh)
        if not isinstance(data, dict):
            raise GroupValidationError("expected a JSON object")
        for key, ok, what in (("order", is_int, "an integer"),
                              ("names", lambda v: is_list(v, lambda s: isinstance(s, str)),
                               "a list of strings"),
                              ("table", lambda v: is_list(v, lambda row: is_list(row, is_int)),
                               "a list of integer lists")):
            if key not in data:
                raise GroupValidationError(f"missing field {key!r}")
            if not ok(data[key]):
                raise GroupValidationError(f"field {key!r} must be {what}")
        order = data["order"]
        if order > 0:  # refused over the cap before the table is checked; < 1 by FiniteGroup
            check_size(order * order, f"order {clip_int(order)}: its table of order^2 entries")
        G = FiniteGroup(order, tuple(map(tuple, data["table"])), tuple(data["names"]))
        for e, name in enumerate(G.names):
            # the token s<i>:<name> as `words.parse_word` reads it
            m = _NAME_TOKEN.match(f"s1:{name}".split("*")[0].strip())
            if m is None or m.group(2) != name or G.index_of(name) != e:
                raise GroupValidationError(
                    f"name {clip(name)!r} of element {e} does not read back in a word")
        return G
    except ValueError as exc:
        raise GroupValidationError(f"cayley table file {path}: {exc}") from None


def clip(text: str) -> str:
    """`text` as an error line echoes it: cut to 20 characters and '...' if longer."""
    return text if len(text) <= 20 else text[:20] + "..."


def _leading_digits(n: int, keep: int) -> tuple[str, int]:
    """The first `keep` >= 1 digits of |n| and its digit count, without `str` of all of n."""
    m = abs(n)
    # 0.30102999 < log10 2, so the shift leaves at least `keep` digits
    shift = max(int((m.bit_length() - 1) * 0.30102999) + 1 - keep, 0)
    head = str(m // 10 ** shift)
    return head[:keep], shift + len(head)


def clip_int(n: int) -> str:
    """clip(str(n)), also for an n with more digits than `str` writes."""
    if -10 ** 19 < n < 10 ** 19:  # at most 20 characters
        return str(n)
    sign = "-" if n < 0 else ""
    head, count = _leading_digits(n, 20 - len(sign))
    return sign + head + ("..." if count > len(head) else "")


def _over_limit(count: int) -> int:
    """The most digits int() reads and str() writes, if `count` is more, else 0."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: unlimited, or no limit before 3.10.7
    return limit if limit and count > limit else 0


def token_int(digits: str, what: str, source: str) -> int:
    """int(digits), refused with a line naming `source` if it has more digits than int() reads."""
    if limit := _over_limit(count := len(digits.lstrip("+-"))):
        raise ValueError(f"{what} {clip(source)!r} has {count} digits, over the limit of {limit}")
    return int(digits)


def printable_int(n: int, what: str) -> int:
    """n, refused with a line naming `what` if it has more digits than str() writes."""
    if limit := _over_limit(count := _leading_digits(n, 1)[1]):
        raise ValueError(f"{what} has {count} digits, over the limit of {limit}")
    return n


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
            raise GroupSpecParseError(f"malformed group item {clip(stripped)!r}", pos)
        if m.group(3) is not None:
            groups.append(load_cayley_table(m.group(3)))
        else:
            kind, n = m.group(1), token_int(m.group(2), "index of --groups item", stripped)
            if n < 1:
                raise GroupSpecParseError(
                    f"group item {clip(stripped)!r} needs an index of at least 1", pos)
            if kind == "C":
                groups.append(make_cyclic(n))
            elif kind == "S":
                groups.append(make_symmetric(n))
            else:
                groups.append(make_dihedral(n))
        pos += len(item) + 1
    return groups
