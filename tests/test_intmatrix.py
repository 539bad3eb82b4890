import itertools
import random
from math import prod

import pytest

from monodromy.action import (Automorphism, act_letter, act_word, algebraic_basis,
                              invert_signed, tree_basis)
from monodromy.fibre import build_fibre_graph, rank_formula
from monodromy.groups import (S3_CLASSIC_ORDER, SizeLimitError, make_cyclic,
                              make_symmetric, parse_group_spec)
from monodromy.intmatrix import (IntMatrix, _eliminate_units, abelianize, bareiss_det,
                                 columns, cyclic_closed_form, matrix_of_letter,
                                 representation_report)
from monodromy.words import (Letter, free_reduce, multiply, random_kernel_word,
                             reduce_word, single)
from oracles import dense_counts, smith_normal_form, sparse_rank_torsion


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


def test_derived_matrices_equal_constructed_ones():
    # public construction coerces to lists of ints; results built inside
    # the class skip that and must still compare and hash like them
    m = IntMatrix(((True, 2, 0), (0, -1, 5)))
    assert m.entries == [[1, 2, 0], [0, -1, 5]]
    t = IntMatrix([[1, 0], [2, -1], [0, 5]])
    assert m.transpose() == t and hash(m.transpose()) == hash(t)
    assert -m == IntMatrix([[-1, -2, 0], [0, 1, -5]])
    assert m * t == IntMatrix([[5, -2], [-2, 26]])
    assert IntMatrix.zeros(2, 3) == IntMatrix([[0, 0, 0], [0, 0, 0]])
    assert IntMatrix.identity(2) == IntMatrix([[1, 0], [0, 1]])
    for bad in (lambda: IntMatrix.identity(0), lambda: IntMatrix.zeros(0, 2),
                lambda: IntMatrix.zeros(2, 0)):
        with pytest.raises(ValueError):
            bad()


def test_power():
    m = IntMatrix([[1, 1], [0, 1]])
    assert (m ** 5).to_lists() == [[1, 5], [0, 1]]
    assert (m ** 0).is_identity()
    with pytest.raises(ValueError):
        IntMatrix([[1, 2, 3]]) ** 2


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
        assert (a * b).det() == a.det() * b.det()


def test_det_matches_bareiss_oracle():
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
        assert m.det() == bareiss_det(m.entries), m


def test_det_of_zero_lines_and_shapes():
    # an all-zero column or row leaves a column of compress() empty or short
    for entries in ([[0]], [[0, 1], [0, 2]], [[1, 2], [0, 0]], [[0, 0], [0, 0]],
                    [[1, 0, 2], [0, 0, 0], [3, 0, 4]], [[0, 0, 1], [0, 2, 0], [3, 0, 0]]):
        assert IntMatrix(entries).det() == bareiss_det(entries), entries
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
        assert m.det() == bareiss_det(m.entries) == 0, m
    for entries in ([[1, 2]], [[1], [2]], [[0, 0, 0], [0, 0, 0]]):
        with pytest.raises(ValueError, match="square"):
            IntMatrix(entries).det()


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
        assert IntMatrix(entries).det() == want == bareiss_det(entries)


def test_det_of_report_generators_matches_bareiss_oracle():
    # every generator matrix of the report pairs the benchmark runs
    for spec in ("S4,C3", "S3,D5", "D4,S3", "C6,C7"):
        groups = tuple(parse_group_spec(spec))
        basis = algebraic_basis(groups)
        for factor, G in enumerate(groups):
            for e in range(1, G.order):
                m = matrix_of_letter(Letter(factor, e), basis)
                assert m.det() == bareiss_det(m.entries) in (1, -1)


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
                letter_dets[t] = matrix_of_letter(t, basis).det()
            want *= letter_dets[t]
        assert abelianize(act_word(w, basis)).det() == want in (1, -1)


def test_tree_basis_characters_for_three_or_more_factors():
    # H1 (x) Q of the kernel is the sum over J, |J| >= 2, of |J| - 1 copies
    # of the tensor product of the augmentation modules I_{G_j}, j in J.  So
    # on every element g = g_1 g_2 ... g_n the abelianized matrix has trace
    #   sum_J (|J| - 1) prod_{j in J} chi_j(g_j),  chi_j(a) = |G_j| - 1 if a = 1, else -1,
    # and determinant prod_J det(tensor_{j in J} A_j(g_j))^(|J| - 1), with
    # det A_j(a) = (-1)^((o(a) - 1) |G_j| / o(a)), the sign of left
    # multiplication by a, and det(A (x) B) = det(A)^dim(B) det(B)^dim(A)
    for spec in ("C2,C2,C2", "C3,C2,C2", "S3,C2,C3", "D4,C3,C2"):
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
            assert m.det() == det, (spec, g)


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
    assert smith_normal_form(IntMatrix.zeros(3, 3))[0] == []
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
        assert (a * b).to_lists() == naive_product(a, b)
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]]) * IntMatrix([[1, 2]])


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
    assert m1.to_lists() == [[-1, 0], [0, -1]]
    assert m2.to_lists() == [[-1, -1], [1, 0]]
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


def test_matrix_of_letter_agrees_with_closed_form():
    basis = algebraic_basis((make_cyclic(2), make_cyclic(3)))
    m1, m2 = cyclic_closed_form(2, 3)
    assert matrix_of_letter(Letter(0, 1), basis) == m1
    assert matrix_of_letter(Letter(1, 1), basis) == m2


def test_representation_report_c2_s3():
    G = make_cyclic(2)
    H = make_symmetric(3, names_order=S3_CLASSIC_ORDER)
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

    mats_g = [dense(act_letter(Letter(0, a), basis)) if a else IntMatrix.identity(n)
              for a in range(G.order)]
    mats_h = [dense(act_letter(Letter(1, b), basis)) if b else IntMatrix.identity(n)
              for b in range(H.order)]
    faithful = all((mg * mh).is_identity() == (a == 0 and b == 0)
                   for a, mg in enumerate(mats_g) for b, mh in enumerate(mats_h))
    dets_g = [bareiss_det(mat.entries) for mat in mats_g]
    dets_h = [bareiss_det(mat.entries) for mat in mats_h]
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
