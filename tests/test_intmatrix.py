import itertools
import random
from dataclasses import replace
from math import prod

import pytest

from monodromy import intmatrix, verify
from monodromy.cli import main

from monodromy.action import (Automorphism, act_word, algebraic_basis, invert_signed,
                              outer_representative, tree_basis)
from monodromy.fibre import build_fibre_graph, rank_formula
from monodromy.groups import SizeLimitError, make_cyclic, make_symmetric, parse_group_spec
from monodromy.intmatrix import (IntMatrix, _eliminate, abelianize, columns, compose_columns,
                                 cyclic_closed_form, cyclic_columns, dense, determinant,
                                 representation_report)
from monodromy.verify import _powers
from monodromy.words import free_reduce, multiply, project, random_kernel_word, reduce_word, single
from oracles import (_eliminate_units, dense_counts, elimination_det, leibniz_det, pretty,
                     rational_elimination, rational_rank, smith_normal_form,
                     sparse_rank_torsion)

# the production determinant (Bareiss) and the unit-pivot elimination oracle
DETS = (IntMatrix.det, elimination_det)


def rand_matrix(rng, rows, cols, bound=9):
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(cols)]
                      for _ in range(rows)])


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError):
        IntMatrix([])
    with pytest.raises(ValueError):
        IntMatrix([[]])
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])


def test_identity_and_multiplication():
    I3 = IntMatrix.identity(3)
    assert I3.is_identity()
    m = IntMatrix([[1, 2, 0], [0, 1, 5], [7, 0, 1]])
    assert I3 * m == m == m * I3
    assert (m * -m).det() == (-1) ** 3 * m.det() ** 2


def test_is_identity_checks_every_entry():
    assert IntMatrix([[1]]).is_identity()
    for entries in ([[1, 0], [0, 2]], [[1, 0], [3, 1]], [[1, 0, 0], [0, 1, -1], [0, 0, 1]],
                    [[-1]], [[1, 0]], [[1], [0]]):
        assert not IntMatrix(entries).is_identity(), entries
    for a, b in [(IntMatrix([[1, 0]]), IntMatrix([[1, 0]])),
                 (IntMatrix.identity(2), IntMatrix.identity(3)),
                 (IntMatrix([[1], [0]]), IntMatrix([[1], [0]]))]:
        with pytest.raises(ValueError, match="dimension mismatch"):
            a * b


def test_derived_matrices_equal_constructed_ones():
    # public construction coerces to lists of ints; results built inside
    # the class skip that and must still compare like them
    m = IntMatrix(((True, 2, 0), (0, -1, 5)))
    assert m.entries == [[1, 2, 0], [0, -1, 5]]
    t = IntMatrix([[1, 0], [2, -1], [0, 5]])
    assert m.transpose() == t
    assert -m == IntMatrix([[-1, -2, 0], [0, 1, -5]])
    assert m * t == IntMatrix([[5, -2], [-2, 26]])
    assert m * IntMatrix([[0], [0], [0]]) == IntMatrix([[0], [0]])
    assert IntMatrix.identity(2) == IntMatrix([[1, 0], [0, 1]])
    for bad in (lambda: IntMatrix.identity(0), lambda: IntMatrix._of_rows([]),
                lambda: IntMatrix._of_rows([[], []])):
        with pytest.raises(ValueError):
            bad()


def test_power():
    m = IntMatrix([[1, 1], [0, 1]])
    assert (m ** 5).entries == [[1, 5], [0, 1]]
    assert (m ** 0).is_identity()
    with pytest.raises(ValueError):
        IntMatrix([[1, 2, 3]]) ** 2


def padded_pretty(m):
    """The text layout, every entry converted and padded on its own."""
    width = max((len(str(v)) for row in m.entries for v in row), default=1)
    return "\n".join(" ".join(str(v).rjust(width) for v in row) for row in m.entries)


def test_pretty_matches_entrywise_padding():
    rng = random.Random(40)
    shapes = [(1, 1), (1, 7), (7, 1), (3, 5), (6, 6)]
    for trial in range(200):
        r, c = shapes[trial % len(shapes)]
        density = rng.choice((0.0, 0.1, 0.5, 1.0))
        bound = rng.choice((1, 9, 10 ** 24))
        m = sparse_random(rng, r, c, density, bound)
        assert pretty(m) == padded_pretty(m), m
    for entries in ([[0]], [[0, 0, 0]], [[0], [0]], [[-1, 0], [0, 0]], [[0, 10 ** 24]],
                    [[-(10 ** 24)], [0], [5]], [[0, -7, 0, 12]]):
        m = IntMatrix(entries)
        assert pretty(m) == padded_pretty(m), entries
    assert pretty(IntMatrix([[0, -7], [12, 0]])) == " 0 -7\n12  0"


def test_det_examples():
    assert IntMatrix([[2]]).det() == 2
    assert IntMatrix([[1, 2], [3, 4]]).det() == -2
    assert IntMatrix([[0, 1], [1, 0]]).det() == -1
    assert IntMatrix([[1, 2], [2, 4]]).det() == 0
    # Vandermonde on 1,2,3,4: product of differences = 12
    v = IntMatrix([[x ** k for k in range(4)] for x in (1, 2, 3, 4)])
    assert v.det() == 12


def test_det_multiplicative_random():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randrange(1, 5)
        a, b = rand_matrix(rng, n, n), rand_matrix(rng, n, n)
        for det in DETS:
            assert det(a * b) == det(a) * det(b)


def test_det_matches_rational_oracle():
    rng = random.Random(37)
    for trial in range(500):
        n = rng.randrange(1, 9)
        density = rng.choice((0.0, 0.1, 0.3, 0.6, 1.0))
        bound = rng.choice((1, 1, 3, 2 ** 70))  # bound 1: mostly unit entries
        m = sparse_random(rng, n, n, density, bound)
        if trial % 5 == 1:  # a zero row and a zero column
            m.entries[rng.randrange(n)] = [0] * n
            j = rng.randrange(n)
            for row in m.entries:
                row[j] = 0
        elif trial % 5 == 2 and n > 1:  # a column that is a combination of two others
            a, b, c = (rng.randrange(n) for _ in range(3))
            x, y = rng.randint(-3, 3), rng.randint(-3, 3)
            for row in m.entries:
                row[c] = x * row[a] + y * row[b] if c not in (a, b) else 0
        want = rational_elimination(m.entries)[1]
        for det in DETS:
            assert det(m) == want, m


def test_det_of_zero_lines_and_shapes():
    # an all-zero column or row leaves a column of compress() empty or short
    for entries in ([[0]], [[0, 1], [0, 2]], [[1, 2], [0, 0]], [[0, 0], [0, 0]],
                    [[1, 0, 2], [0, 0, 0], [3, 0, 4]], [[0, 0, 1], [0, 2, 0], [3, 0, 0]]):
        for det in DETS:
            assert det(IntMatrix(entries)) == leibniz_det(entries), entries
    rng = random.Random(39)
    for _ in range(100):
        n = rng.randrange(1, 7)
        m = sparse_random(rng, n, n, rng.choice((0.3, 0.7)), 3)
        k = rng.randrange(n)
        if rng.random() < 0.5:
            m.entries[k] = [0] * n
        else:
            for row in m.entries:
                row[k] = 0
        for det in DETS:
            assert det(m) == leibniz_det(m.entries) == 0, m
    for entries in ([[1, 2]], [[1], [2]], [[0, 0, 0], [0, 0, 0]]):
        for det in DETS:
            with pytest.raises(ValueError, match="square"):
                det(IntMatrix(entries))


def test_one_elimination_matches_det_and_rank_oracles():
    # det and rank share one fraction-free elimination: each is checked against
    # oracles that share no code with it, on singular matrices too
    rng = random.Random(45)
    for trial in range(600):
        n = rng.randrange(1, 7)
        m = sparse_random(rng, n, n, rng.choice((0.2, 0.5, 1.0)), rng.choice((1, 3, 2 ** 40)))
        k = rng.randrange(n)
        if trial % 4 == 1:  # a zero row or column
            if rng.random() < 0.5:
                m.entries[k] = [0] * n
            else:
                for row in m.entries:
                    row[k] = 0
        elif trial % 4 == 2 and n > 1:  # a row that is a combination of the others
            x, y = rng.randint(-3, 3), rng.randint(-3, 3)
            a, b = rng.sample([i for i in range(n) if i != k], 2) if n > 2 else (1 - k, 1 - k)
            m.entries[k] = [x * u + y * v for u, v in zip(m.entries[a], m.entries[b])]
        want = leibniz_det(m.entries)
        assert m.det() == elimination_det(m) == want, m
        assert m.rank() == rational_rank(m) and (m.rank() == n) == (want != 0), m
        if trial % 4 == 2 and n > 1:
            assert want == 0
    for trial in range(300):
        rows, cols, inner = (rng.randrange(1, 8) for _ in range(3))
        bound = rng.choice((1, 4, 2 ** 40))
        m = sparse_random(rng, rows, cols, rng.choice((0.0, 0.2, 0.6, 1.0)), bound)
        if trial % 2:  # rank at most `inner`
            m = sparse_random(rng, rows, inner, 0.7, bound) * \
                sparse_random(rng, inner, cols, 0.7, 3)
        assert m.rank() == rational_rank(m) <= min(rows, cols), m


def test_det_of_signed_permutation_matrices():
    rng = random.Random(38)
    for _ in range(100):
        n = rng.randrange(1, 9)
        perm = list(range(n))
        rng.shuffle(perm)
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        signs = [rng.choice((1, -1)) for _ in range(n)]
        entries = [[0] * n for _ in range(n)]
        for i in range(n):
            entries[i][perm[i]] = signs[i]
        want = (-1) ** inversions
        for s in signs:
            want *= s
        for det in DETS:
            assert det(IntMatrix(entries)) == want


def test_det_of_report_generators_matches_rational_oracle():
    # every generator matrix of the report pairs the benchmark runs, and the
    # report's closed-form determinants of them
    for spec in ("S4,C3", "S3,D5", "D4,S3", "C6,C7"):
        groups = tuple(parse_group_spec(spec))
        basis = algebraic_basis(groups)
        dets = representation_report(*groups, kernel_trials=0)["determinants"]
        for factor, G in enumerate(groups):
            assert dets[f"factor{factor + 1}"][0] == 1
            for e in range(1, G.order):
                m = abelianize(outer_representative(single(groups, factor, e), basis))
                want = rational_elimination(m.entries)[1]
                assert m.det() == elimination_det(m) == want in (1, -1)
                assert dets[f"factor{factor + 1}"][e] == want, (spec, factor, e)


def test_det_multiplicative_on_rank_833_tree_basis():
    # det M(w) = prod det M(t) over the letters t of w, at C8^3 (rank 833)
    groups = tuple(make_cyclic(8) for _ in range(3))
    basis = tree_basis(build_fibre_graph(groups))
    assert basis.rank == 833
    letter_dets = {}
    rng = random.Random(44)
    for _ in range(3):
        w = reduce_word([(rng.randrange(3), rng.randrange(1, 8)) for _ in range(6)], groups)
        want = 1
        for t in w.letters:
            if t not in letter_dets:
                phi = outer_representative(single(groups, *t), basis)
                letter_dets[t] = elimination_det(abelianize(phi))
            want *= letter_dets[t]
        assert elimination_det(abelianize(act_word(w, basis))) == want in (1, -1)
        assert determinant(groups, project(w)) == want


def test_tree_basis_characters_for_three_or_more_factors():
    # H1 (x) Q of the kernel is the sum over J, |J| >= 2, of |J| - 1 copies
    # of the tensor product of the augmentation modules I_{G_j}, j in J.  So
    # on every element g = g_1 g_2 ... g_n the abelianized matrix has trace
    #   sum_J (|J| - 1) prod_{j in J} chi_j(g_j),  chi_j(a) = |G_j| - 1 if a = 1, else -1,
    # and determinant prod_J det(tensor_{j in J} A_j(g_j))^(|J| - 1), with
    # det A_j(a) = (-1)^((o(a) - 1) |G_j| / o(a)), the sign of left
    # multiplication by a, and det(A (x) B) = det(A)^dim(B) det(B)^dim(A)
    for spec in ("C2,C2,C2", "C3,C2,C2", "S3,C2,C3", "D4,C3,C2", "C4,C2,C1"):
        groups = tuple(parse_group_spec(spec))
        basis = tree_basis(build_fibre_graph(groups))
        n, dim = len(groups), [G.order - 1 for G in groups]
        subsets = [J for r in range(2, n + 1) for J in itertools.combinations(range(n), r)]
        for g in itertools.product(*(range(G.order) for G in groups)):
            m = abelianize(act_word(reduce_word(enumerate(g), groups), basis))
            chi = [G.order - 1 if a == 0 else -1 for G, a in zip(groups, g)]
            elem_orders = [G.element_order(a) for G, a in zip(groups, g)]
            sign = [(-1) ** ((o - 1) * G.order // o) for G, o in zip(groups, elem_orders)]
            trace = sum((len(J) - 1) * prod(chi[j] for j in J) for J in subsets)
            det = prod(prod(sign[j] ** prod(dim[k] for k in J if k != j) for j in J) ** (len(J) - 1)
                       for J in subsets)
            assert sum(m.entries[k][k] for k in range(m.rows)) == trace, (spec, g)
            assert elimination_det(m) == det == determinant(groups, g), (spec, g)


def test_determinant_matches_elimination_oracle():
    # the closed form against the eliminated matrix, on seeded words in the
    # kernel and not, in both bases; C1 factors count 0 in every exponent
    specs = ("C2,C3", "C3,C4", "C2,S3", "C4,C4", "S3,D4", "C6,C8",
             "C1,C3,C2", "C2,C1,C4", "C2,C2,C2", "C3,C2,C2", "S3,C2,C3", "S3,C4,C3",
             "C2,C2,C2,C2", "C2,C3,C2,C3", "C1,C2,C3,C1", "C3,C3,C3,C3")
    signs = set()
    for spec in specs:
        groups = tuple(parse_group_spec(spec))
        bases = [tree_basis(build_fibre_graph(groups))]
        if len(groups) == 2:
            bases.append(algebraic_basis(groups))
        live = [f for f, G in enumerate(groups) if G.order > 1]
        rng = random.Random(spec)
        for basis in bases:
            for trial in range(4):
                if trial % 2:
                    w = random_kernel_word(rng, groups, max_letters=10)
                else:
                    w = reduce_word([(f, rng.randrange(1, groups[f].order))
                                     for f in (rng.choice(live) for _ in range(6))], groups)
                want = elimination_det(abelianize(act_word(w, basis)))
                assert determinant(groups, project(w)) == want, (spec, basis.kind, w)
                signs.add(want)
    assert signs == {1, -1}


def test_rank_examples():
    assert IntMatrix([[0, 0], [0, 0]]).rank() == 0
    assert IntMatrix([[1, 2], [2, 4]]).rank() == 1
    assert IntMatrix.identity(4).rank() == 4
    assert IntMatrix([[1, 2, 3], [4, 5, 6]]).rank() == 2


def test_rank_vs_det_random():
    rng = random.Random(32)
    for _ in range(200):
        n = rng.randrange(1, 5)
        m = rand_matrix(rng, n, n)
        assert (m.rank() == n) == (m.det() != 0)


def test_snf_examples():
    assert smith_normal_form(IntMatrix([[2, 0], [0, 3]]))[0] == [1, 6]
    assert smith_normal_form(IntMatrix([[2, 4], [4, 8]]))[0] == [2]
    assert smith_normal_form(IntMatrix([[0, 0, 0]] * 3))[0] == []
    factors, rank = smith_normal_form(IntMatrix([[4, 0], [0, 6]]))
    assert factors == [2, 12] and rank == 2
    # classic presentation matrix of Z/2 + Z/6
    factors, _ = smith_normal_form(IntMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 3]]))
    assert factors == [1, 2, 6]


def test_snf_divisibility_and_rank_random():
    rng = random.Random(33)
    for _ in range(100):
        m = rand_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5))
        factors, rank = smith_normal_form(m)
        assert rank == m.rank()
        assert all(f > 0 for f in factors)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
        # product of invariant factors = gcd-normalized |det| for square full rank
        if m.rows == m.cols and rank == m.rows:
            prod = 1
            for f in factors:
                prod *= f
            assert prod == abs(m.det())


def naive_product(a, b):
    """Reference triple loop over every entry, zeros included."""
    return [[sum(a.entries[i][k] * b.entries[k][j] for k in range(a.cols))
             for j in range(b.cols)] for i in range(a.rows)]


def sparse_random(rng, rows, cols, density, bound):
    return IntMatrix([[rng.randint(-bound, bound) if rng.random() < density else 0
                       for _ in range(cols)] for _ in range(rows)])


def test_product_matches_naive_reference():
    rng = random.Random(35)
    for trial in range(300):
        r, k, c = (rng.randrange(1, 7) for _ in range(3))
        density = rng.choice((0.0, 0.05, 0.2, 0.5, 1.0))
        bound = rng.choice((1, 9, 2 ** 70))  # 2**70: products exceed 64 bits
        a = sparse_random(rng, r, k, density, bound)
        b = sparse_random(rng, k, c, density, bound)
        if trial % 5 == 0:  # force an all-zero row of a and column of b
            a.entries[rng.randrange(r)] = [0] * k
            j = rng.randrange(c)
            for row in b.entries:
                row[j] = 0
        assert (a * b).entries == naive_product(a, b)
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]]) * IntMatrix([[1, 2]])


def test_compose_columns_matches_the_dense_product():
    # entries of +-1 make sums that cancel; a cancelled sum is dropped, never kept as 0
    rng = random.Random(40)
    cancelled = 0
    for trial in range(300):
        r, k, c = (rng.randrange(1, 7) for _ in range(3))
        bound = rng.choice((1, 1, 3, 2 ** 70))
        a = sparse_random(rng, r, k, rng.choice((0.0, 0.3, 0.6, 1.0)), bound)
        b = sparse_random(rng, k, c, rng.choice((0.3, 0.6, 1.0)), bound)
        product = compose_columns(as_columns(a), as_columns(b))
        assert product == as_columns(a * b), (a, b)
        assert all(v for col in product for v in col.values())
        cancelled += any(not (a * b).entries[i][j]
                         and any(a.entries[i][t] * b.entries[t][j] for t in range(k))
                         for i in range(r) for j in range(c))
        if r == k:
            assert dense(as_columns(a)) == a
    assert cancelled > 20
    # the criterion-4 generators, squared both ways
    for r, m in ((2, 3), (4, 5), (6, 6)):
        for cols, mat in zip(cyclic_columns(make_cyclic(r), make_cyclic(m)),
                             cyclic_closed_form(r, m)):
            assert dense(compose_columns(cols, cols)) == mat * mat


def test_eliminate_matches_the_oracles_on_skipped_rows():
    # a row with a 0 in the pivot column is left as it is only under a pivot equal
    # to the one before; under any other pivot it is scaled by pivot / previous,
    # so a det of [[2, 1], [0, 3]] that skipped its second row would read 3, not 6
    fixed = [
        [[2, 1], [0, 3]],                       # pivot 2 after 1: the 0 row is scaled
        [[1, 2, 3], [0, 1, 4], [5, 6, 0]],      # pivot 1 after 1: the 0 row is skipped
        [[1, 0, 2], [0, 1, 0], [0, 0, 1]],      # every pivot equals the one before
        [[0, 1], [0, 2]],                       # a column with no pivot
        [[1, 2, 3], [2, 4, 7], [0, 0, 1]],      # a pivot-less column mid-way
        [[0, 0, 0], [1, 2, 3], [4, 5, 7]],      # a zero row
        [[3, 0, 0], [0, 3, 0], [0, 0, 5]],      # pivot 9 after 3, then 45 after 9
        [[2, 0, 1], [0, 0, 0], [0, 0, 3], [1, 1, 0]],  # not square, a zero row
    ]
    rng = random.Random(46)
    randoms = [sparse_random(rng, n, n + rng.randrange(-1, 2), 0.4, 1).entries
               for n in (2, 3, 4, 5) for _ in range(60)]
    for entries in fixed + randoms:
        rank, pivot = _eliminate(entries)
        assert rank == rational_elimination(entries)[0], entries
        if len(entries) == len(entries[0]):
            assert (pivot if rank == len(entries) else 0) == leibniz_det(entries), entries
    assert IntMatrix([[2, 1], [0, 3]]).det() == 6


def dense_rank_torsion(m):
    factors, _ = smith_normal_form(m)
    return m.rank(), [d for d in factors if d > 1]


def as_columns(m):
    return [{i: m.entries[i][j] for i in range(m.rows) if m.entries[i][j]}
            for j in range(m.cols)]


def test_sparse_rank_torsion_matches_dense():
    rng = random.Random(36)
    for _ in range(300):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        density = rng.choice((0.0, 0.3, 0.6, 1.0))
        m = sparse_random(rng, rows, cols, density, rng.choice((1, 2, 6)))
        assert sparse_rank_torsion(as_columns(m)) == dense_rank_torsion(m)
        # the elimination's contract: no zero and no unit entry is left over
        _, left = _eliminate_units(as_columns(m))
        assert all(v not in (-1, 0, 1) for col in left.values() for v in col.values())


def test_sparse_rank_torsion_non_unit_blocks():
    # no unit entry anywhere: the whole matrix takes the dense fallback
    for entries, expected in [([[2, 0], [0, 3]], (2, [6])),
                              ([[2, 4], [4, 8]], (1, [2])),
                              ([[2, 0, 0], [0, 2, 0], [0, 0, 3]], (3, [2, 6]))]:
        m = IntMatrix(entries)
        assert sparse_rank_torsion(as_columns(m)) == expected == dense_rank_torsion(m)
    # Z/2 torsion behind a unit: pivoting on the 1 leaves the block [[2]]
    m = IntMatrix([[1, 1, 0], [1, -1, 0], [0, 0, 1]])
    assert sparse_rank_torsion(as_columns(m)) == (3, [2]) == dense_rank_torsion(m)
    assert sparse_rank_torsion([{0: 2}, {0: 2}]) == (1, [2])
    assert sparse_rank_torsion([{}, {3: 0}]) == (0, [])


def compose(f, g):
    """(f o g): substitute f's images into g's (the oracle of tests/test_action.py)."""
    def apply(img):
        return free_reduce(s for x in img for s in (f.images[x - 1] if x > 0
                                                    else invert_signed(f.images[-x - 1])))
    return Automorphism(f.basis, tuple(apply(img) for img in g.images))


def test_abelianize_functorial():
    groups = (make_cyclic(3), make_cyclic(4))
    basis = algebraic_basis(groups)
    rng = random.Random(34)
    for _ in range(100):
        raw_u = [(rng.randrange(2), 0) for _ in range(4)]
        u = reduce_word([(f, rng.randrange(1, groups[f].order)) for f, _ in raw_u], groups)
        v = reduce_word([(rng.randrange(2), rng.randrange(1, 3)) for _ in range(4)], groups)
        fu, fv = act_word(u, basis), act_word(v, basis)
        assert abelianize(compose(fu, fv)) == abelianize(fu) * abelianize(fv)


def test_columns_match_the_dense_count_oracle():
    # seeded words, in the kernel and not, in both bases: a conjugate P W P^-1
    # meets x and -x apart, so counts return to 0 and must be dropped
    returned_to_zero = 0
    for spec in ("C3,C4", "S3,C2", "C2,C3,C2", "C3,C3,C3"):
        groups = tuple(parse_group_spec(spec))
        bases = [tree_basis(build_fibre_graph(groups))]
        if len(groups) == 2:
            bases.append(algebraic_basis(groups))
        rng = random.Random(spec)
        for basis in bases:
            for trial in range(40):
                if trial % 2:
                    w = random_kernel_word(rng, groups, max_letters=10)
                else:
                    w = reduce_word([(f, rng.randrange(1, groups[f].order))
                                     for f in (rng.randrange(len(groups)) for _ in range(6))],
                                    groups)
                phi = act_word(w, basis)
                dense = dense_counts(phi)
                got = columns(phi)
                assert got == [{i: v for i, v in enumerate(col) if v} for col in dense], w
                assert abelianize(phi).entries == [list(row) for row in zip(*dense)], w
                returned_to_zero += sum(len(set(map(abs, img))) > len(col)
                                        for img, col in zip(phi.images, got))
    assert returned_to_zero > 0
    # hand-built images in which x and -x meet apart, twice over in the last
    basis = algebraic_basis((make_cyclic(2), make_cyclic(4)))
    phi = Automorphism(basis, ((1, 2, -1), (2, -1, 3, 1, -3, -2, 1), (3, -1, 2, 1, -1, 1)))
    assert columns(phi) == [{1: 1}, {0: 1}, {1: 1, 2: 1}]
    assert abelianize(phi) == IntMatrix([[0, 1, 0], [1, 0, 1], [0, 0, 1]])


def test_cyclic_closed_form_2_3():
    m1, m2 = cyclic_closed_form(2, 3)
    assert m1.entries == [[-1, 0], [0, -1]]
    assert m2.entries == [[-1, -1], [1, 0]]
    assert (m1 ** 2).is_identity()
    assert (m2 ** 3).is_identity()
    assert m1.det() == m2.det() == 1


def test_cyclic_closed_form_orders_and_det():
    for r, m in [(2, 2), (3, 3), (4, 5), (6, 2)]:
        m1, m2 = cyclic_closed_form(r, m)
        assert (m1 ** r).is_identity()
        assert (m2 ** m).is_identity()
        # finite order forces a unit determinant
        assert m1.det() in (1, -1) and m2.det() in (1, -1)
    with pytest.raises(ValueError):
        cyclic_closed_form(1, 3)
    # criterion 4 tests orders and faithfulness by comparing sparse powers; on its
    # whole range each comparison must agree with the dense product it stands for
    for r, m in itertools.product(range(2, 7), repeat=2):
        c1, c2 = cyclic_columns(make_cyclic(r), make_cyclic(m))
        m1, m2 = cyclic_closed_form(r, m)
        assert (dense(c1), dense(c2)) == (m1, m2)
        sparse1, sparse2 = _powers(c1, r), _powers(c2, m)
        pow1, pow2 = [m1 ** i for i in range(r + 1)], [m2 ** j for j in range(m + 1)]
        assert [dense(p) for p in sparse1] == pow1 and [dense(p) for p in sparse2] == pow2
        assert (sparse1[r] == sparse1[0]) == pow1[r].is_identity()
        assert (sparse2[m] == sparse2[0]) == pow2[m].is_identity()
        for i, j in itertools.product(range(r), range(m)):
            assert (sparse1[i] == sparse2[-j % m]) == (pow1[i] * pow2[j]).is_identity(), \
                (r, m, i, j)


def test_cyclic_pairs_criterion_names_each_failure(monkeypatch):
    real = cyclic_columns

    def swapped_at(pair, swap):
        return lambda G, H: swap(*real(G, H)) if (G.order, H.order) == pair else real(G, H)

    # M2 = M1 at (3,3): M1^i M1^(3-i) = I for i = 1, 2, besides the degenerate (2,2)
    monkeypatch.setattr(verify, "cyclic_columns", swapped_at((3, 3), lambda c1, c2: (c1, c1)))
    assert verify.criterion_4_cyclic_pairs() == (False, (
        "faithfulness fails at (2,2) i=1 j=1; faithfulness fails at (3,3) i=1 j=2; "
        "faithfulness fails at (3,3) i=2 j=1"))
    # -M2 at (2,3) has order 6, not 3
    monkeypatch.setattr(verify, "cyclic_columns", swapped_at((2, 3), lambda c1, c2: (
        c1, [{i: -v for i, v in col.items()} for col in c2])))
    assert verify.criterion_4_cyclic_pairs() == (False, (
        "faithfulness fails at (2,2) i=1 j=1; generator matrix order wrong for (2,3)"))


def test_matrix_of_letter_agrees_with_closed_form():
    # the closed form reads the state; the full action conjugates by P, which cancels in H1
    groups = (make_cyclic(2), make_cyclic(3))
    basis = algebraic_basis(groups)
    m1, m2 = cyclic_closed_form(2, 3)
    assert abelianize(act_word(single(groups, 0, 1), basis)) == m1
    assert abelianize(act_word(single(groups, 1, 1), basis)) == m2


def test_representation_report_c2_s3():
    G = make_cyclic(2)
    H = make_symmetric(3)
    rep = representation_report(G, H, seed=5, kernel_trials=25)
    assert rep["rank"] == 5
    assert rep["cross_factor_commute"]
    assert rep["faithful"]
    assert rep["non_ia_certificate"]
    assert rep["kernel_words_act_trivially"]
    # -I5 on the order-2 factor; signs of permutations on the other
    assert rep["determinants"]["factor1"] == [1, -1]
    assert rep["determinants"]["factor2"] == [1, -1, -1, -1, 1, 1]
    assert not rep["all_in_sl"]


def test_representation_report_degenerate_pair():
    # the 2,2 pair acts through a rank-one lattice and cannot be faithful
    rep = representation_report(make_cyclic(2), make_cyclic(2))
    assert rep["rank"] == 1
    assert not rep["faithful"]
    assert rep["kernel_words_act_trivially"]


def test_degenerate_pair_generators_both_act_as_negation():
    # the cause of the verdict above: on the rank-one kernel both generators
    # abelianize to -1 in either basis, so x1*x2 acts as the identity
    assert rank_formula([2, 2]) == 1
    minus_one, one = IntMatrix([[-1]]), IntMatrix([[1]])
    m1, m2 = cyclic_closed_form(2, 2)
    assert m1 == m2 == minus_one
    assert m1 * m2 == one
    groups = (make_cyclic(2), make_cyclic(2))
    basis = tree_basis(build_fibre_graph(groups))
    x1, x2 = single(groups, 0, 1), single(groups, 1, 1)
    assert abelianize(act_word(x1, basis)) == minus_one
    assert abelianize(act_word(x2, basis)) == minus_one
    assert abelianize(act_word(multiply(x1, x2), basis)) == one


def test_representation_report_rejects_trivial_factor():
    for orders, k in (((1, 3), 1), ((3, 1), 2), ((1, 1), 1)):
        with pytest.raises(ValueError, match=f"factor {k} has order 1$"):
            representation_report(*map(make_cyclic, orders))


def dense_representation_report(G, H, seed=0, kernel_trials=50):
    """The report from the rank x rank generator matrices, counted densely, and their products."""
    groups = (G, H)
    basis = algebraic_basis(groups)
    n = basis.rank

    def dense(phi):
        return IntMatrix(list(zip(*dense_counts(phi))))

    mats_g = [dense(act_word(single(groups, 0, a), basis)) if a else IntMatrix.identity(n)
              for a in range(G.order)]
    mats_h = [dense(act_word(single(groups, 1, b), basis)) if b else IntMatrix.identity(n)
              for b in range(H.order)]
    faithful = all((mg * mh).is_identity() == (a == 0 and b == 0)
                   for a, mg in enumerate(mats_g) for b, mh in enumerate(mats_h))
    dets_g = [elimination_det(mat) for mat in mats_g]
    dets_h = [elimination_det(mat) for mat in mats_h]
    rng = random.Random(seed)
    kernel_identity = all(dense(act_word(random_kernel_word(rng, groups, max_letters=10),
                                         basis)).is_identity()
                          for _ in range(kernel_trials))
    return {
        "orders": [G.order, H.order],
        "rank": n,
        "cross_factor_commute": all(mg * mh == mh * mg for mg in mats_g for mh in mats_h),
        "faithful": faithful,
        "determinants": {"factor1": dets_g, "factor2": dets_h},
        "all_in_sl": all(d == 1 for d in dets_g + dets_h),
        "non_ia_certificate": not any(m.is_identity() for m in mats_g[1:] + mats_h[1:]),
        "kernel_words_act_trivially": kernel_identity,
        "kernel_trials": kernel_trials,
        "seed": seed,
    }


def test_representation_report_matches_dense_oracle():
    # the Kronecker-factor report equals the one read off the full matrices
    firsts = "C2,C3,C4,C5,C6,S3,D3,D4,D5"
    seconds = "C2,C3,C4,C7,S3,D4,D5"
    for G in parse_group_spec(firsts):
        for H in parse_group_spec(seconds):
            got = representation_report(G, H, seed=G.order + H.order, kernel_trials=3)
            assert got == dense_representation_report(G, H, G.order + H.order, 3), (G, H)


# the four report pairs of the seed-0 pipeline workload, at their CLI seeds
PIPELINE_PAIRS = (("S4,C3", 585363), ("S3,D5", 933416), ("D4,S3", 11415), ("C6,C7", 463508))


def left_multiplication(G, a):
    """Dense left multiplication by a on I_G: g_i - 1 goes to (a g_i - 1) - (a - 1)."""
    rows = [[0] * (G.order - 1) for _ in range(G.order - 1)]
    for i in range(1, G.order):
        if G.op(a, i):
            rows[G.op(a, i) - 1][i - 1] += 1
        if a:
            rows[a - 1][i - 1] -= 1
    return rows


def kron(a, b):
    return IntMatrix([[x * y for x in row_a for y in row_b] for row_a in a for row_b in b])


def brute_report_checks(G, H, seed, kernel_trials=50):
    """The report's two action checks on the full images of act_word."""
    groups = (G, H)
    basis = algebraic_basis(groups)
    eye_g, eye_h = (IntMatrix.identity(K.order - 1).entries for K in groups)
    kroneckers = [((0, a), kron(left_multiplication(G, a), eye_h)) for a in G.generators]
    kroneckers += [((1, b), kron(eye_g, left_multiplication(H, b))) for b in H.generators]
    cross = all(abelianize(act_word(single(groups, *t), basis)) == want for t, want in kroneckers)
    rng = random.Random(seed)
    identity = [{k: 1} for k in range(basis.rank)]
    kernel = all(columns(act_word(random_kernel_word(rng, groups, max_letters=10), basis))
                 == identity for _ in range(kernel_trials))
    return cross, kernel


def test_report_checks_match_the_brute_loop_on_the_pipeline_pairs():
    for spec, seed in PIPELINE_PAIRS:
        G, H = parse_group_spec(spec)
        rep = representation_report(G, H, seed=seed)
        got = (rep["cross_factor_commute"], rep["kernel_words_act_trivially"])
        assert got == brute_report_checks(G, H, seed) == (True, True), spec


def corrupt_walks_at(monkeypatch, state):
    """Make the report's commutator basis add a spurious symbol to the walks from `state`."""
    real = intmatrix.algebraic_basis

    def corrupt(groups):
        basis = real(groups)

        def paths(start):
            steps, joins = basis.paths(start)
            if start != state:
                return steps, joins
            # the first witness leaves from a new vertex: its tree path x's and the symbol 1
            (x, i, j, y), *rest = joins
            return steps + [(x, 0, 1)], [(len(steps), i, j, y), *rest]

        return replace(basis, paths=paths)

    monkeypatch.setattr(intmatrix, "algebraic_basis", corrupt)


def test_report_checks_fail_on_corrupted_walks(monkeypatch, capsys):
    G, H = parse_group_spec("S3,C4")
    generator_state = G.generators[0] * H.order  # where the letter (0, g) walks from 0
    for state, failing in ((0, "kernel_words_act_trivially"),
                           (generator_state, "cross_factor_commute")):
        with monkeypatch.context() as m:
            corrupt_walks_at(m, state)
            rep = representation_report(G, H)
            assert main(["report", "--groups", "S3,C4", "--format", "json"]) == 1
        capsys.readouterr()
        checks = ("cross_factor_commute", "kernel_words_act_trivially", "faithful",
                  "non_ia_certificate")
        assert [k for k in checks if not rep[k]] == [failing], state
    assert representation_report(G, H)["kernel_words_act_trivially"]
