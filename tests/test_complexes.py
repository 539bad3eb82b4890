import itertools
import random
import time
from math import prod

import pytest

from monodromy.complexes import (CubicalComplex, SimplicialComplex,
                                 build_complex, full_simplex, h1,
                                 load_complex_file, parse_complex_spec,
                                 zero_complex)
from monodromy.fibre import betti_one, build_fibre_graph, rank_formula
from monodromy.groups import SizeLimitError, make_cyclic, make_symmetric
from monodromy.intmatrix import IntMatrix
from oracles import edges, elimination_h1, rational_rank, smith_normal_form


def cyclic(*orders):
    return tuple(make_cyclic(m) for m in orders)


def is_flag(K):
    """True iff every set of pairwise-adjacent vertices is a face."""
    one_faces = edges(K)
    for k in range(3, K.n + 1):
        for combo in itertools.combinations(range(1, K.n + 1), k):
            if all(frozenset(p) in one_faces for p in itertools.combinations(combo, 2)):
                if not K.has_face(combo):
                    return False
    return True


def test_simplicial_complex_faces_and_flag():
    tri = parse_complex_spec("K={1,2;2,3;1,3}")
    assert tri.n == 3
    assert edges(tri) == {frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})}
    assert not tri.has_face({1, 2, 3})
    assert not is_flag(tri)
    assert is_flag(full_simplex(3))
    assert is_flag(zero_complex(4))


def test_complex_requires_all_singletons():
    with pytest.raises(ValueError):
        SimplicialComplex(3, (frozenset({1, 2}),))
    with pytest.raises(ValueError):
        SimplicialComplex(2, (frozenset({1}), frozenset({3})))


def test_parse_complex_spec_variants():
    k = parse_complex_spec("{1;2}")
    assert k.n == 2 and not edges(k)
    k = parse_complex_spec("K={1,2,3}", n=3)
    assert k.has_face({1, 2, 3})
    with pytest.raises(ValueError):
        parse_complex_spec("1,2;3")
    with pytest.raises(ValueError):
        parse_complex_spec("K={1,4}", n=3)


def test_load_complex_file(tmp_path):
    p = tmp_path / "k.txt"
    p.write_text("1,2\n2,3\n1,3\n")
    k = load_complex_file(str(p))
    assert edges(k) == edges(parse_complex_spec("K={1,2;2,3;1,3}"))


def test_cell_counts_cube():
    cx = build_complex(cyclic(2, 2, 2), full_simplex(3))
    assert cx.counts == (8, 12, 6)
    cx = build_complex(cyclic(2, 3), full_simplex(2))
    assert cx.counts == (6, 7, 2)


def test_boundary_composition_zero():
    for orders, K in [((2, 3), full_simplex(2)),
                      ((2, 2, 3), parse_complex_spec("K={1,2;3}")),
                      ((3, 3, 2), full_simplex(3))]:
        cx = build_complex(cyclic(*orders), K)
        prod = cx.boundary_one() * cx.boundary_two()
        assert all(v == 0 for row in prod.entries for v in row)


def test_no_edges_reduces_to_fibre_graph():
    for orders in [(2, 3), (2, 2, 2), (3, 4), (2, 3, 4)]:
        cx = build_complex(cyclic(*orders), zero_complex(len(orders)))
        betti = h1(cx)
        assert elimination_h1(cx) == (betti, [])
        assert betti == rank_formula(orders)
        assert betti == betti_one(build_fibre_graph(cyclic(*orders)))


def test_full_simplex_is_acyclic():
    for orders in [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 3, 4)]:
        cx = build_complex(cyclic(*orders), full_simplex(len(orders)))
        assert h1(cx) == 0


def test_triangle_boundary_with_involutions_is_sphere():
    # boundary of the 3-cube: second homology only
    cx = build_complex(cyclic(2, 2, 2), parse_complex_spec("K={1,2;2,3;1,3}"))
    assert h1(cx) == 0


def test_one_edge_three_vertices():
    cx = build_complex(cyclic(2, 2, 2), parse_complex_spec("K={1,2;3}"))
    assert h1(cx) == 3


def test_monotone_under_adding_faces():
    # filling in faces can only kill homology classes
    orders = (2, 3, 2)
    complexes = [
        zero_complex(3),
        parse_complex_spec("K={1,2;3}"),
        parse_complex_spec("K={1,2;2,3}"),
        parse_complex_spec("K={1,2;2,3;1,3}"),
        full_simplex(3),
    ]
    bettis = [h1(build_complex(cyclic(*orders), K)) for K in complexes]
    assert bettis == sorted(bettis, reverse=True)
    assert bettis[0] == rank_formula(orders)
    assert bettis[-1] == 0


def test_rank_agrees_with_fraction_oracle():
    for orders, K in [((2, 3), full_simplex(2)),
                      ((2, 2, 2), parse_complex_spec("K={1,2;2,3}")),
                      ((3, 3), full_simplex(2))]:
        cx = build_complex(cyclic(*orders), K)
        d1, d2 = cx.boundary_one(), cx.boundary_two()
        assert d1.rank() == rational_rank(d1)
        assert d2.rank() == rational_rank(d2)


def test_symmetric_group_factor():
    groups = (make_cyclic(2), make_symmetric(3))
    cx = build_complex(groups, full_simplex(2))
    assert h1(cx) == 0
    cx = build_complex(groups, zero_complex(2))
    assert h1(cx) == rank_formula([2, 6])


def test_vertex_count_mismatch_and_cap(monkeypatch):
    with pytest.raises(ValueError):
        build_complex(cyclic(2, 2), full_simplex(3))
    groups = cyclic(30, 30, 30)  # built first: the cap also bounds group tables
    monkeypatch.setenv("MONODROMY_CELL_CAP", "100")
    with pytest.raises(SizeLimitError):
        build_complex(groups, full_simplex(3))


def test_cell_cap_env_override(monkeypatch):
    groups = cyclic(4, 4)  # built first: the cap also bounds group tables
    monkeypatch.setenv("MONODROMY_CELL_CAP", "10")
    with pytest.raises(SizeLimitError, match="^cell count 49 exceeds cap 10$"):
        build_complex(groups, full_simplex(2))
    monkeypatch.setenv("MONODROMY_CELL_CAP", "1000000")
    build_complex(groups, full_simplex(2))


def bbcg_b1(orders, K):
    """b1 = sum over |J| >= 2 of (c(K_J) - 1) * prod_{j in J} (m_j - 1).

    Bahri-Bendersky-Cohen-Gitler's stable splitting of the polyhedral
    product; c counts the components of the full subcomplex on J.
    """
    one_faces = edges(K)
    total = 0
    for size in range(2, K.n + 1):
        for J in itertools.combinations(range(1, K.n + 1), size):
            comp = {v: v for v in J}

            def find(v):
                while comp[v] != v:
                    v = comp[v]
                return v

            for e in one_faces:
                if e <= set(J):
                    a, b = sorted(e)
                    comp[find(a)] = find(b)
            components = len({find(v) for v in J})
            total += (components - 1) * prod(orders[j - 1] - 1 for j in J)
    return total


# The tuple-cell model, kept as the oracle for the integer grid: a cell
# assigns each coordinate ('p', position) or ('i', interval index), and the
# cells of one dimension are listed by support, then lexicographically.
def tuple_cells(orders, K):
    n = len(orders)
    supports = ([()], [(i,) for i in range(n)],
                [(i, j) for i, j in itertools.combinations(range(n), 2)
                 if K.has_face({i + 1, j + 1})])

    def cells_with_support(support):
        choices = [[("i", k) for k in range(m - 1)] if i in support
                   else [("p", k) for k in range(m)] for i, m in enumerate(orders)]
        return itertools.product(*choices)

    return tuple(tuple(itertools.chain.from_iterable(map(cells_with_support, dim)))
                 for dim in supports)


def tuple_boundary_columns(cells, dim):
    """d(A x B) = dA x B + (-1)^{dim A} A x dB, coordinates ascending."""
    faces = {c: k for k, c in enumerate(cells[dim - 1])}
    columns = []
    for cell in cells[dim]:
        col = {}
        ivs = [k for k, (kind, _) in enumerate(cell) if kind == "i"]
        for pos, i in enumerate(ivs):
            sgn = -1 if pos % 2 else 1
            k = cell[i][1]
            col[faces[cell[:i] + (("p", k + 1),) + cell[i + 1:]]] = sgn
            col[faces[cell[:i] + (("p", k),) + cell[i + 1:]]] = -sgn
        columns.append(col)
    return columns


def dense(columns, nrows):
    return IntMatrix([[col.get(i, 0) for col in columns] or [0] for i in range(nrows)])


def dense_h1(orders, K):
    """H1 from the dense Bareiss rank of the tuple-cell d1 and the dense SNF of d2."""
    cells = tuple_cells(orders, K)
    nverts, nedges, nsquares = map(len, cells)
    if nedges == 0:
        return 0, []
    rank_d1 = dense(tuple_boundary_columns(cells, 1), nverts).rank()
    if nsquares == 0:
        return nedges - rank_d1, []
    factors, rank_d2 = smith_normal_form(dense(tuple_boundary_columns(cells, 2), nedges))
    return nedges - rank_d1 - rank_d2, [d for d in factors if d > 1]


def random_complex(rng, n):
    pairs = [frozenset(p) for p in itertools.combinations(range(1, n + 1), 2)]
    facets = [frozenset({v}) for v in range(1, n + 1)]
    facets += [p for p in pairs if rng.random() < 0.5]
    if n >= 3 and rng.random() < 0.3:
        facets.append(frozenset(rng.sample(range(1, n + 1), 3)))
    return SimplicialComplex(n, tuple(facets))


def test_h1_matches_bbcg_formula_and_dense_oracle():
    # the closed form against BBCG's subset sum, the sparse elimination and
    # the dense tuple-cell Bareiss rank and SNF; the dense oracle runs on every
    # model of at most 513 cells, the size of C3^4 over the full 1-skeleton,
    # so on every input with n <= 4 and orders <= 3
    rng = random.Random(37)
    seen = {"trivial factor": 0, "triangle": 0, "dense": 0, "b1 > 0": 0}
    for _ in range(150):
        n = rng.randrange(1, 6)
        orders = [rng.randrange(1, 5) for _ in range(n)]
        if rng.random() < 0.3:
            orders.insert(rng.randrange(n + 1), 1)
        K = random_complex(rng, len(orders))
        cx = build_complex(cyclic(*orders), K)
        got = h1(cx)
        assert got == bbcg_b1(orders, K) and elimination_h1(cx) == (got, []), (orders, K)
        if sum(cx.counts) <= 513:
            assert dense_h1(orders, K) == (got, []), (orders, K)
            seen["dense"] += 1
        seen["trivial factor"] += 1 in orders
        seen["triangle"] += any(len(f) == 3 for f in K.facets)
        seen["b1 > 0"] += got > 0
    assert min(seen.values()) >= 20 and seen["dense"] >= 100, seen


def test_grid_boundaries_match_tuple_cells():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randrange(1, 5)
        orders = [rng.randrange(1, 5) for _ in range(n)]
        K = random_complex(rng, n)
        cx = build_complex(cyclic(*orders), K)
        cells = tuple_cells(orders, K)
        assert cx.counts == tuple(map(len, cells))
        for dim in (1, 2):
            assert cx.boundary_columns(dim) == tuple_boundary_columns(cells, dim)


def test_h1_on_a_hundred_thousand_cells():
    # C4^7 over K0: 16,384 vertices, 86,016 edges and no squares
    orders, K = [4] * 7, zero_complex(7)
    cx = build_complex(cyclic(*orders), K)
    assert cx.counts == (16384, 86016, 0)
    assert elimination_h1(cx) == (h1(cx), []) == (bbcg_b1(orders, K), []) == (69633, [])


def test_cell_cap_is_checked_before_building(monkeypatch):
    groups, K = cyclic(3, 4, 2), parse_complex_spec("K={1,2;3}")
    # 3*4*2 vertices, 2*4*2 + 3*3*2 + 3*4*1 edges, 2*3*2 squares on {1,2}
    count = 24 + (16 + 18 + 12) + 12
    monkeypatch.setenv("MONODROMY_CELL_CAP", str(count - 1))
    with pytest.raises(SizeLimitError, match=f"^cell count {count} exceeds cap {count - 1}$"):
        build_complex(groups, K)
    monkeypatch.setenv("MONODROMY_CELL_CAP", str(count))
    assert sum(build_complex(groups, K).counts) == count


def test_h1_with_squares_at_scale_matches_bbcg():
    # squares on every edge of K, so the oracle's d2 has thousands of columns
    path = SimplicialComplex(6, tuple(frozenset({v, v + 1}) for v in range(1, 6)))
    cx = build_complex(cyclic(*[4] * 6), path)
    assert elimination_h1(cx) == (h1(cx), []) == (bbcg_b1([4] * 6, path), []) == (2817, [])
    skeleton = SimplicialComplex(6, tuple(map(frozenset, itertools.combinations(range(1, 7), 2))))
    cx = build_complex(cyclic(*[3] * 6), skeleton)
    assert elimination_h1(cx) == (h1(cx), []) == (bbcg_b1([3] * 6, skeleton), []) == (0, [])


def test_h1_builds_no_boundary(monkeypatch):
    # 851,968 cells, yet h1 reads b1 off the orders and the 16-cycle alone
    def refuse(*args):
        raise AssertionError("h1 must not build a boundary")

    monkeypatch.setattr(CubicalComplex, "_square_boundaries", refuse)
    monkeypatch.setattr(CubicalComplex, "boundary_columns", refuse)
    cycle = SimplicialComplex(16, tuple(frozenset({v, v % 16 + 1}) for v in range(1, 17)))
    cx = build_complex(cyclic(*[2] * 16), cycle)
    assert sum(cx.counts) == 851968
    assert h1(cx) == 196610


def test_h1_drops_trivial_factors_before_enumerating():
    # over 42 vertices the connected induced subgraphs number 2^42 - 1; only
    # the two C3 coordinates (1 and 42) have m >= 2, so h1 is instant
    n = 42
    orders = [3] + [1] * 40 + [3]
    pairs = [frozenset(p) for p in itertools.combinations(range(1, n + 1), 2)]
    skeleton = SimplicialComplex(n, tuple(pairs))
    assert h1(build_complex(cyclic(*orders), skeleton)) == 0
    # without the edge {1, 42} the C3s lie in two components of K_J, J = {1, 42}:
    # b1 = (2 - 1) * 2 * 2, whatever the C1 vertices join
    apart = SimplicialComplex(n, tuple(p for p in pairs if p != frozenset({1, n})))
    assert h1(build_complex(cyclic(*orders), apart)) == 4
    assert bbcg_b1([3, 3], zero_complex(2)) == 4


def test_squares_are_the_edges_of_k():
    # `build_complex` reads the squares off each facet's vertex pairs: the same
    # sorted supports as testing every pair of coordinates for a face of K
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 7)
        facets = [frozenset({v}) for v in range(1, n + 1)]
        facets += [frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
                   for _ in range(rng.randint(0, 4))]
        K = SimplicialComplex(n, tuple(facets))
        cx = build_complex(cyclic(*[rng.randint(1, 3) for _ in range(n)]), K)
        assert cx.squares == tuple((i, j) for i, j in itertools.combinations(range(n), 2)
                                   if K.has_face({i + 1, j + 1})), facets
        assert cx.counts == tuple(map(len, tuple_cells(cx.orders, K))), facets


def test_many_factor_refusal_is_quick():
    # 600 factors of C2 with their singletons: refused on the cell count, with
    # no pass over the pairs of coordinates (a loose bound, not a timer)
    K = zero_complex(600)
    began = time.perf_counter()
    with pytest.raises(SizeLimitError, match=r"^cell count 12490041862331788805\.\.\. "):
        build_complex(cyclic(*[2] * 600), K)
    assert time.perf_counter() - began < 1.0
