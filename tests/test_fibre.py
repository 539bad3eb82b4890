import hashlib
import itertools
import json
import random
from collections import deque
from dataclasses import dataclass
from math import prod

import pytest

from monodromy.action import Basis, decompose, tree_basis
from monodromy.cli import main
from monodromy.fibre import (betti_one, build_fibre_graph, cotree_walker,
                             cycle_witnesses, grid_edges, place_values,
                             rank_formula, to_dot)
from monodromy.groups import (SizeLimitError, make_cyclic, make_dihedral,
                              make_symmetric, parse_group_spec)
from monodromy.words import (Word, commutator, free_reduce, invert,
                             is_in_kernel, multiply,
                             random_kernel_word, reduce_word, single)


def cyclic_groups(*orders):
    return tuple(make_cyclic(m) for m in orders)


def is_tree_edge(x, tail):
    """Whether edge (x, i), with tail = T_i, is in the staircase tree."""
    return x % tail == 0


def test_rank_formula_values():
    assert rank_formula([2, 3]) == 2
    assert rank_formula([2, 6]) == 5
    assert rank_formula([2, 2, 2]) == 5
    assert rank_formula([10, 9]) == 72
    assert rank_formula([1]) == 0
    with pytest.raises(ValueError):
        rank_formula([])


def grid_counts(g):
    """Vertices, edges enumerated by `grid_edges`, and cotree edges of a graph."""
    orders = [G.order for G in g.groups]
    return prod(orders), sum(1 for _ in grid_edges(orders)), len(g.cotree)


def test_build_counts():
    g = build_fibre_graph(cyclic_groups(2, 2))
    assert grid_counts(g) == (4, 4, 1)
    g = build_fibre_graph(cyclic_groups(2, 3))
    assert grid_counts(g)[:2] == (6, 7)
    assert betti_one(g) == 2
    g = build_fibre_graph(cyclic_groups(2, 2, 2))
    assert grid_counts(g)[:2] == (8, 12)
    assert betti_one(g) == 5


def test_trivial_groups_single_vertex():
    g = build_fibre_graph(cyclic_groups(1, 1))
    assert betti_one(g) == 0
    assert grid_counts(g) == (1, 0, 0)


def test_size_cap(monkeypatch):
    groups = cyclic_groups(100, 100, 100)  # built first: the cap also bounds group tables
    monkeypatch.setenv("MONODROMY_CELL_CAP", "1000")
    with pytest.raises(SizeLimitError):
        build_fibre_graph(groups)


def test_betti_matches_rank_formula_scan():
    # Euler-characteristic identity over a spread of orders, on the graph
    # found by search
    for orders in [(2,), (5,), (2, 3), (4, 4), (10, 9), (2, 3, 4), (3, 3, 3),
                   (2, 2, 2, 2), (1, 5, 2)]:
        o = bfs_fibre_graph(cyclic_groups(*orders))
        assert len(o.edges) - len(o.vertices) + 1 == rank_formula(orders)
        assert betti_one(build_fibre_graph(o.groups)) == rank_formula(orders)


def test_empty_word_empty_path():
    g = bfs_fibre_graph(cyclic_groups(2, 3))
    assert word_to_path(g, single(g.groups, 0, 0)) == []
    assert decompose(closed_basis(g), single(g.groups, 0, 0)) == ()


def test_commutator_path_is_rectangle():
    g = bfs_fibre_graph(cyclic_groups(2, 3))
    w = commutator(single(g.groups, 0, 1), single(g.groups, 1, 1))
    path = word_to_path(g, w)
    # (0,0)->(1,0)->(1,1)->(0,1)->(0,0): four unit edges
    assert len(path) == 4
    assert [( (v, i), s ) for (v, i), s in path] == [
        (((0, 0), 0), 1),
        (((1, 0), 1), 1),
        (((0, 1), 0), -1),
        (((0, 0), 1), -1),
    ]
    # only ((0, 1), 0), cotree edge 0, is off the tree, crossed downward
    assert decompose(closed_basis(g), w) == loop_to_basis(g, path) == ((0, -1),)


def test_closed_iff_kernel_exhaustive():
    # all alternating words of length <= 4 over pairs with orders <= 4
    for orders in [(2, 3), (3, 4), (4, 4)]:
        groups = cyclic_groups(*orders)
        g = bfs_fibre_graph(groups)
        basis = closed_basis(g)
        alphabet = [(f, e) for f in range(2) for e in range(1, orders[f])]
        for length in range(5):
            for combo in itertools.product(alphabet, repeat=length):
                w = reduce_word(combo, groups)
                path = word_to_path(g, w)
                state = list(g.basepoint)
                for f, e in w.letters:
                    state[f] = groups[f].op(state[f], e)
                closed = tuple(state) == g.basepoint
                assert closed == is_in_kernel(w)
                if closed:
                    assert decompose(basis, w) == loop_to_basis(g, path)
                else:
                    with pytest.raises(ValueError):
                        decompose(basis, w)
                    with pytest.raises(ValueError):
                        loop_to_basis(g, path)


def test_fundamental_cycle_decomposes_to_itself():
    g, parents = bfs_search(cyclic_groups(3, 3))
    basis = closed_basis(g)
    for k, edge in enumerate(g.cotree):
        cycle = fundamental_cycle(parents, edge)
        assert loop_to_basis(g, cycle) == ((k, 1),)
        w = cycle_witness(build_fibre_graph(g.groups), grid_edge(place_values([3, 3]), edge))
        assert w == path_to_word(g, cycle) == cycle_word(g, tree_words(g, parents), edge)
        assert is_in_kernel(w)
        assert decompose(basis, w) == ((k, 1),)


def test_backtracking_loop_trivial():
    g = bfs_fibre_graph(cyclic_groups(2, 3))
    w = multiply(single(g.groups, 1, 1), invert(single(g.groups, 1, 1)))
    assert w.is_identity
    assert loop_to_basis(g, word_to_path(g, w)) == ()
    assert decompose(closed_basis(g), w) == ()


def test_decomposition_is_homomorphism():
    groups = cyclic_groups(3, 4)
    basis = tree_basis(build_fibre_graph(groups))
    rng = random.Random(11)
    for _ in range(1000):
        u, v = random_kernel_word(rng, groups), random_kernel_word(rng, groups)
        du, dv = decompose(basis, u), decompose(basis, v)
        assert decompose(basis, multiply(u, v)) == free_reduce(du + dv)


def test_decomposition_well_defined_on_elements():
    groups = cyclic_groups(3, 4)
    basis = tree_basis(build_fibre_graph(groups))
    rng = random.Random(12)
    for _ in range(100):
        u = random_kernel_word(rng, groups)
        # spell the same element differently: insert a cancelling pair
        raw = list(u.letters)
        f = rng.randrange(2)
        e = rng.randrange(1, groups[f].order)
        raw = raw[:1] + [(f, e), (f, groups[f].inverse(e))] + raw[1:]
        v = reduce_word(raw, groups)
        assert v == u
        assert decompose(basis, v) == decompose(basis, u)


def test_composition_decomposition_example():
    # [x1, x2^2] * [x1, x2]^-1 decomposes as the reduced concatenation
    groups = cyclic_groups(2, 3)
    basis = tree_basis(build_fibre_graph(groups))
    a = commutator(single(groups, 0, 1), single(groups, 1, 2))
    b = invert(commutator(single(groups, 0, 1), single(groups, 1, 1)))
    da, db = decompose(basis, a), decompose(basis, b)
    combined = decompose(basis, multiply(a, b))
    assert combined == tuple(list(da) + list(db)) or len(combined) <= len(da) + len(db)


def test_path_word_roundtrip():
    groups = cyclic_groups(3, 4)
    g = bfs_fibre_graph(groups)
    rng = random.Random(13)
    for _ in range(100):
        w = random_kernel_word(rng, groups)
        assert path_to_word(g, word_to_path(g, w)) == w


def test_dot_output():
    g = build_fibre_graph(cyclic_groups(2, 2))
    dot = to_dot(g)
    assert dot.startswith("graph fibre {")
    assert dot.count("--") == 4
    assert "style=dashed" in dot and "style=solid" in dot


@dataclass(frozen=True)
class OracleGraph:
    """The fibre graph in the tuple encoding the integer grid replaced: vertex
    tuples, edges ((v...), i) from v to v raised at i, and the tree as a set."""
    groups: tuple
    vertices: tuple
    edges: tuple
    basepoint: tuple
    tree: frozenset
    cotree: tuple


def bfs_search(groups):
    """Oracle: the graph found by search, a BFS tree and a keyed sort.

    This is the builder `build_fibre_graph` replaced with its closed form;
    it derives the tree and the edge order instead of writing them down.
    Returns the graph and the tree as parents: parents[v] = (edge, sign)
    taking the parent to v, None at the basepoint.
    """
    groups = tuple(groups)
    orders = [G.order for G in groups]
    n = len(groups)
    vertices = []

    def gen(prefix):
        if len(prefix) == n:
            vertices.append(tuple(prefix))
            return
        for k in range(orders[len(prefix)]):
            gen(prefix + [k])

    gen([])
    edges = [(v, i) for v in vertices for i in range(n) if v[i] + 1 < orders[i]]

    basepoint = tuple([0] * n)
    # BFS: coordinates ascending, lower position before higher
    parents = {basepoint: None}
    tree = set()
    queue = deque([basepoint])
    while queue:
        v = queue.popleft()
        for i in range(n):
            for p in (v[i] - 1, v[i] + 1):
                if not 0 <= p < orders[i]:
                    continue
                w = v[:i] + (p,) + v[i + 1:]
                if w in parents:
                    continue
                edge = (v, i) if p > v[i] else (w, i)
                parents[w] = (edge, 1 if p > v[i] else -1)
                tree.add(edge)
                queue.append(w)
    assert len(parents) == len(vertices)

    def edge_sort_key(edge):
        v, i = edge
        return (i, tuple(v[j] for j in range(n) if j != i), v[i])

    cotree = tuple(sorted(set(edges) - tree, key=edge_sort_key))
    graph = OracleGraph(groups, tuple(vertices), tuple(sorted(edges, key=edge_sort_key)),
                        basepoint, frozenset(tree), cotree)
    return graph, parents


def bfs_fibre_graph(groups):
    return bfs_search(groups)[0]


def grid_edge(tails, edge):
    """The oracle's edge (v, i) as the grid edge (x, i), with x = sum_k v_k T_k."""
    v, i = edge
    return sum(a * t for a, t in zip(v, tails)), i


def closed_basis(g):
    """The closed-form tree basis of the oracle graph's group list."""
    return tree_basis(build_fibre_graph(g.groups))


def oracle_dot(g):
    """DOT rendering of the oracle graph, vertex by vertex and edge by edge."""
    def vid(v):
        return '"' + ",".join(str(k) for k in v) + '"'

    lines = ["graph fibre {"]
    for v in g.vertices:
        label = ",".join(g.groups[i].names[v[i]] for i in range(len(v)))
        lines.append(f'  {vid(v)} [label="{label}"];')
    for edge in g.edges:
        v, i = edge
        style = "solid" if edge in g.tree else "dashed"
        lines.append(f'  {vid(v)} -- {vid(upper(v, i))} [style={style}];')
    lines.append("}")
    return "\n".join(lines)


# The edge-path walker: the oracle for the closed-form witnesses and
# decompositions.  It spells every path edge by edge over the BFS tree.

def upper(v, i):
    return v[:i] + (v[i] + 1,) + v[i + 1:]


def word_to_path(g, w):
    """Edge path tracked by a word from the basepoint, one unit edge at a time."""
    if w.groups != g.groups:
        raise ValueError("word is over a different group list")
    path = []
    state = list(g.basepoint)
    for i, e in w.letters:
        a = state[i]
        b = g.groups[i].op(a, e)
        step = 1 if b > a else -1
        for p in range(a, b, step):
            v = list(state)
            v[i] = p if step == 1 else p - 1
            path.append(((tuple(v), i), step))
        state[i] = b
    return path


def path_endpoints(g, path):
    """(start, end) of a path, validating that consecutive edges connect."""
    if not path:
        return g.basepoint, g.basepoint
    (v0, i0), s0 = path[0]
    cur = v0 if s0 == 1 else upper(v0, i0)
    start = cur
    for (v, i), s in path:
        src, dst = (v, upper(v, i)) if s == 1 else (upper(v, i), v)
        if src != cur:
            raise ValueError("path edges do not connect")
        cur = dst
    return start, cur


def loop_to_basis(g, path):
    """The freely reduced cotree traversals of a basepoint loop."""
    if path_endpoints(g, path) != (g.basepoint, g.basepoint):
        raise ValueError("path is not a loop at the basepoint")
    index = {e: k for k, e in enumerate(g.cotree)}
    return free_reduce((index[edge], sign) for edge, sign in path if edge in index)


def tree_path_to(parents, v):
    """The tree path from the basepoint to v."""
    back = []
    while parents[v] is not None:
        (u, i), sign = parents[v]
        back.append(((u, i), sign))
        v = u if sign == 1 else upper(u, i)
    return back[::-1]


def fundamental_cycle(parents, edge):
    """Basepoint loop: tree path to the tail, the cotree edge, tree path back."""
    u, i = edge
    back = tree_path_to(parents, upper(u, i))
    return tree_path_to(parents, u) + [(edge, 1)] + [(e, -s) for e, s in reversed(back)]


def path_to_word(g, path):
    """The free-product word spelled by an edge path from the basepoint."""
    raw = []
    for (v, i), sign in path:
        G = g.groups[i]
        a, b = (v[i], v[i] + 1) if sign == 1 else (v[i] + 1, v[i])
        raw.append((i, G.op(G.inverse(a), b)))
    return reduce_word(raw, g.groups)


def tree_words(g, parents):
    """The oracle's tree paths, memoized: by end vertex, the raw letters of
    the word each path spells, and of that word's inverse."""
    spelled, inverse = {}, {}
    for v in g.vertices:
        w = path_to_word(g, tree_path_to(parents, v))
        spelled[v] = list(w.letters)
        inverse[v] = list(invert(w).letters)
    return spelled, inverse


def cycle_word(g, words, edge):
    """path_to_word of the fundamental cycle, from the memoized tree words.

    The cycle is the tree path to the tail, the edge, and the tree path to
    the head reversed.  Reducing a part of a raw letter sequence first does
    not change its normal form, so the reduced words of the two tree paths
    may stand in for their paths' letters.
    """
    spelled, inverse = words
    u, i = edge
    G = g.groups[i]
    edge_letter = (i, G.op(G.inverse(u[i]), u[i] + 1))  # as path_to_word spells (edge, +1)
    return reduce_word(spelled[u] + [edge_letter] + inverse[upper(u, i)], g.groups)


def differential_group_lists():
    c = {m: make_cyclic(m) for m in range(1, 9)}
    lists = [[c[m] for m in orders] for n in range(1, 5)
             for orders in itertools.product(range(1, 6), repeat=n)]
    lists += [[c[m] for m in orders] for orders in itertools.product(range(1, 4), repeat=5)]
    lists += [[make_symmetric(3), c[4], c[3]],
              [make_dihedral(4), c[2], make_symmetric(3)],
              [c[8]] * 3, [c[2]] * 8, [c[7], c[1], c[5]]]
    return lists


def test_closed_form_graph_matches_bfs_oracle(capsys):
    # every criterion-1 list, every list of 5 factors of order 1-3, and a
    # few mixed and larger lists: the closed-form counts `graph` prints, the
    # edges in order with their tree membership, the cotree in basis order
    # and the DOT bytes
    for groups in differential_group_lists():
        orders = [G.order for G in groups]
        o, g = bfs_fibre_graph(groups), build_fibre_graph(groups)
        code, out, _ = run_cli(capsys, "graph", "--groups", ",".join(f"C{m}" for m in orders),
                               "--format", "json")
        counts = json.loads(out)
        assert code == 0 and counts["betti_one"] == counts["cotree_edges"] == betti_one(g)
        assert (counts["vertices"], counts["edges"], counts["tree_edges"]) == (
            len(o.vertices), len(o.edges), len(o.tree)), orders
        tails = place_values(orders)
        assert [(x, i, is_tree_edge(x, tails[i])) for x, i in grid_edges(orders)] == [
            (*grid_edge(tails, e), e in o.tree) for e in o.edges], orders
        assert g.cotree == tuple(grid_edge(tails, e) for e in o.cotree), orders
        assert to_dot(g) == oracle_dot(o), orders


def test_closed_form_witnesses_match_walking_oracle():
    # on every cotree edge: the closed-form witness spells the walked
    # fundamental cycle, and the closed-form decomposition reads it back as
    # the edge's position k in the oracle's cotree
    for groups in differential_group_lists():
        g, parents = bfs_search(groups)
        words = tree_words(g, parents)
        closed = tree_basis(build_fibre_graph(groups))  # the witnesses of cycle_witnesses
        for k, edge in enumerate(g.cotree):
            w = closed.witnesses[k]
            assert w == cycle_word(g, words, edge), edge
            assert decompose(closed, w) == ((k, 1),), edge


def test_decompose_word_matches_walking_oracle():
    c = {m: make_cyclic(m) for m in range(1, 9)}
    lists = [[make_symmetric(3), c[4], c[3]], [make_dihedral(4), c[2], make_symmetric(3)],
             [c[7], c[1], c[5]], [c[8]] * 3, [c[2]] * 6]
    lists += [[c[m] for m in orders] for orders in itertools.product(range(1, 4), repeat=4)]
    rng = random.Random(14)
    for groups in lists:
        g = bfs_fibre_graph(groups)
        basis = closed_basis(g)
        for _ in range(100):
            w = random_kernel_word(rng, groups, 14)
            assert decompose(basis, w) == loop_to_basis(g, word_to_path(g, w)), w


def test_witnesses_recompose_decomposition():
    # multiplying the witnesses along decompose(w) gives back w
    rng = random.Random(15)
    for groups in [cyclic_groups(3, 4), cyclic_groups(3, 2, 2),
                   (make_symmetric(3), make_cyclic(4), make_cyclic(3))]:
        g = build_fibre_graph(groups)
        basis = tree_basis(g)
        witnesses = [cycle_witness(g, edge) for edge in g.cotree]
        for _ in range(100):
            w = random_kernel_word(rng, groups, 14)
            acc = reduce_word([], groups)
            for k, sign in decompose(basis, w):
                acc = multiply(acc, witnesses[k] if sign == 1 else invert(witnesses[k]))
            assert acc == w


def cycle_witness(g, edge):
    """The closed-form witness of one cotree edge (x, i), read off its ends.

    With v and w the coordinates of x and x + T_i, the witness is
    prod_k s_k:g_{v_k} . s_i:(g_{v_i}^-1 g_{v_i+1}) . prod_{k desc} s_k:g_{w_k}^-1
    with identity letters dropped.
    """
    x, i = edge
    groups = g.groups
    tails = place_values([G.order for G in groups])
    v, w = ([y // t % G.order for G, t in zip(groups, tails)] for y in (x, x + tails[i]))
    G = groups[i]
    up = [(k, v[k]) for k in range(len(v)) if v[k]]
    down = [(k, groups[k].inverses[w[k]]) for k in reversed(range(len(w))) if w[k]]
    return Word(groups, (*up, (i, G.table[G.inverses[v[i]]][w[i]]), *down))


def test_one_pass_witnesses_match_per_edge_closed_form():
    # the grid pass of `cycle_witnesses` against the witness of each cotree
    # edge on its own, with trivial factors, non-abelian factors and C8^3
    for spec in ["C2,C3", "C3,C1,C2,C2", "S3,C4,C3", "D4,C3,C2", "C2,C1,C1,C3",
                 "C8,C8,C8", "C1,C4", "C4,C1", "C1"]:
        g = build_fibre_graph(parse_group_spec(spec))
        expected = tuple(cycle_witness(g, e) for e in g.cotree)
        assert tuple(cycle_witnesses(g)) == expected, spec
        assert tree_basis(g).witnesses == expected, spec
        assert len(expected) == betti_one(g), spec


def test_tree_path_is_a_staircase():
    # the tree path to v raises coordinate 0 to v[0], then coordinate 1 to
    # v[1], and so on: ascending coordinates, each position only upward,
    # along edges of the closed-form tree
    for orders in [(3, 4), (2, 3, 4), (3, 1, 2, 3), (4, 4, 4)]:
        g, parents = bfs_search(cyclic_groups(*orders))
        tails = place_values(orders)
        for v in g.vertices:
            path = tree_path_to(parents, v)
            assert all(sign == 1 for _, sign in path)
            assert [edge[1] for edge, _ in path] == sorted(edge[1] for edge, _ in path)
            assert [(i, u[i]) for (u, i), _ in path] == [
                (i, p) for i in range(len(v)) for p in range(v[i])]
            for (u, i), _ in path:
                x, _ = grid_edge(tails, (u, i))
                assert is_tree_edge(x, tails[i]) and not any(u[i + 1:])


C2_C3_DOT = """graph fibre {
  "0,0" [label="1,1"];
  "0,1" [label="1,x"];
  "0,2" [label="1,x^2"];
  "1,0" [label="x,1"];
  "1,1" [label="x,x"];
  "1,2" [label="x,x^2"];
  "0,0" -- "1,0" [style=solid];
  "0,1" -- "1,1" [style=dashed];
  "0,2" -- "1,2" [style=dashed];
  "0,0" -- "0,1" [style=solid];
  "0,1" -- "0,2" [style=solid];
  "1,0" -- "1,1" [style=solid];
  "1,1" -- "1,2" [style=solid];
}
"""

# sha256 of `basis --groups S3,C4,C3 --basis tree --format json` as printed
# by the breadth-first builder that the closed form replaced
S3_C4_C3_TREE_BASIS_SHA256 = "a68d382a5e561876d829898dd7bd6d2e768fdc2a1fd3125d56e4bdcb562a8d97"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def oracle_tree_basis(graph):
    """The tree basis with the oracle's walked fundamental cycles as witnesses."""
    g, parents = bfs_search(graph.groups)
    words = tree_words(g, parents)
    witnesses = tuple(cycle_word(g, words, edge) for edge in g.cotree)
    walk = cotree_walker(graph)

    def walks(start):
        runs = [[] for _ in witnesses]
        for wit, run in zip(witnesses, runs):
            walk(wit.letters, start, run)
        return tuple(map(tuple, runs))

    return Basis("tree", g.groups, tuple(f"c{k + 1}" for k in range(len(witnesses))), witnesses,
                 walk, walks)


def test_closed_form_graph_keeps_cli_output(capsys, monkeypatch):
    dot = ("graph", "--groups", "C2,C3", "--emit", "dot")
    basis = ("basis", "--groups", "S3,C4,C3", "--basis", "tree", "--format", "json")
    closed = [run_cli(capsys, *argv) for argv in (dot, basis)]
    monkeypatch.setattr("monodromy.cli.to_dot", lambda g: oracle_dot(bfs_fibre_graph(g.groups)))
    monkeypatch.setattr("monodromy.cli.tree_basis", oracle_tree_basis)
    assert closed == [run_cli(capsys, *argv) for argv in (dot, basis)]
    assert closed[0] == (0, C2_C3_DOT, "")
    assert closed[1][0] == 0
    assert hashlib.sha256(closed[1][1].encode()).hexdigest() == S3_C4_C3_TREE_BASIS_SHA256


def test_graph_counts_are_closed_forms_at_a_million_vertices(capsys):
    # no vertex, edge or tree is built: E = rank + V - 1, the tree V - 1
    code, out, err = run_cli(capsys, "graph", "--groups", "C1000,C1000", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"vertices": 10**6, "edges": 1_998_000, "tree_edges": 10**6 - 1,
                               "cotree_edges": 998_001, "betti_one": 998_001, "schema": 1}


def test_decompose_word_names_the_fault():
    groups = cyclic_groups(3, 4)
    basis = tree_basis(build_fibre_graph(groups))
    with pytest.raises(ValueError, match="not in the kernel"):
        decompose(basis, single(groups, 0, 1))
    other = tree_basis(build_fibre_graph(cyclic_groups(3, 5)))
    with pytest.raises(ValueError, match="different group list"):
        decompose(other, commutator(single(groups, 0, 1), single(groups, 1, 1)))
