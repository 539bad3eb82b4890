import random

import pytest

from monodromy.action import (Automorphism, act_geometric, act_letter,
                              act_two_groups, act_word, algebraic_basis,
                              algebraic_symbol_index, compose,
                              identity_automorphism, image_as_word,
                              invert_signed, telescope_decompose,
                              telescope_recompose, tree_basis)
from monodromy.fibre import build_fibre_graph, decompose_word
from monodromy.groups import make_cyclic, make_dihedral, make_symmetric
from monodromy.words import (Letter, commutator, conjugate, free_reduce, invert,
                             is_in_kernel, multiply, random_kernel_word,
                             random_word, reduce_word, single)


def test_free_reduce_signed():
    assert free_reduce([(0, 1), (0, -1)]) == ()
    assert free_reduce([(0, 1), (1, 1), (1, -1), (0, -1)]) == ()
    assert free_reduce([(0, 1), (0, 1)]) == ((0, 1), (0, 1))
    seq = ((2, -1), (0, 1))
    assert invert_signed(invert_signed(seq)) == seq


def test_algebraic_basis_shape():
    basis = algebraic_basis((make_cyclic(2), make_cyclic(3)))
    assert basis.rank == 2
    assert basis.symbols == ("w[1,1]", "w[1,2]")
    for wit in basis.witnesses:
        assert is_in_kernel(wit)
    basis = algebraic_basis((make_cyclic(2), make_symmetric(3)))
    assert basis.rank == 5


def test_algebraic_basis_rejects_wrong_factor_count():
    with pytest.raises(ValueError):
        algebraic_basis((make_cyclic(2),))
    with pytest.raises(ValueError):
        algebraic_basis((make_cyclic(2), make_cyclic(1)))


def test_symbol_index_matches_witness():
    G, H = make_cyclic(3), make_cyclic(4)
    basis = algebraic_basis((G, H))
    for i in range(1, 3):
        for j in range(1, 4):
            k = algebraic_symbol_index(G, H, i, j)
            assert basis.witnesses[k] == commutator(
                single(basis.groups, 0, i), single(basis.groups, 1, j))


def test_telescope_roundtrip_random():
    rng = random.Random(21)
    for orders in [(2, 3), (4, 4)]:
        groups = (make_cyclic(orders[0]), make_cyclic(orders[1]))
        basis = algebraic_basis(groups)
        for _ in range(300):
            w = random_kernel_word(rng, groups)
            assert telescope_recompose(basis, telescope_decompose(w)) == w


def test_telescope_on_commutator_is_single_symbol():
    groups = (make_cyclic(3), make_cyclic(4))
    w = commutator(single(groups, 0, 2), single(groups, 1, 3))
    assert telescope_decompose(w) == ((2, 3, 1),)


def test_telescope_rejects_non_kernel():
    groups = (make_cyclic(2), make_cyclic(3))
    with pytest.raises(ValueError):
        telescope_decompose(single(groups, 0, 1))


def test_closed_form_matches_conjugation():
    # phi_t(w) must spell the kernel word t w t^-1
    for groups in [(make_cyclic(2), make_cyclic(3)),
                   (make_cyclic(2), make_symmetric(3)),
                   (make_cyclic(4), make_cyclic(4))]:
        basis = algebraic_basis(groups)
        for factor in range(2):
            for e in range(1, groups[factor].order):
                t = Letter(factor, e)
                phi = act_two_groups(t, basis)
                tw = single(groups, factor, e)
                for k, wit in enumerate(basis.witnesses):
                    assert image_as_word(phi, k) == conjugate(tw, wit)


def test_kernel_words_act_by_inner_automorphisms():
    # Out(F_n)-level certificate: a kernel word k with decomposition d over
    # the basis sends each basis symbol s to the free reduction of d s d^-1,
    # so its class in Out(F_n) is trivial; checked before abelianizing
    def inner(d, rank):
        return tuple(free_reduce(d + ((s, 1),) + invert_signed(d)) for s in range(rank))

    rng = random.Random(26)
    for groups in [(make_cyclic(3), make_cyclic(2), make_cyclic(2)),
                   (make_symmetric(3), make_cyclic(4), make_cyclic(3))]:
        graph = build_fibre_graph(groups)
        basis = tree_basis(graph)
        for _ in range(40):
            k = random_kernel_word(rng, groups, 10)
            assert act_word(k, basis).images == inner(decompose_word(graph, k), basis.rank)
    for G, H in [(make_cyclic(4), make_cyclic(3)), (make_cyclic(2), make_symmetric(3)),
                 (make_dihedral(4), make_symmetric(3))]:
        basis = algebraic_basis((G, H))
        for _ in range(40):
            k = random_kernel_word(rng, (G, H), 10)
            d = tuple((algebraic_symbol_index(G, H, i, j), sign)
                      for i, j, sign in telescope_decompose(k))
            assert act_word(k, basis).images == inner(d, basis.rank)


def test_identity_letter_acts_trivially():
    basis = algebraic_basis((make_cyclic(3), make_cyclic(3)))
    assert act_two_groups(Letter(0, 0), basis) == identity_automorphism(basis)


def test_act_word_is_antihomomorphism_free():
    # act_word(uv) = act_word(u) o act_word(v): by the left-to-right fold in
    # the commutator basis, by conjugating with uv at once in the tree basis
    groups = (make_cyclic(3), make_cyclic(4))
    rng = random.Random(22)
    for basis in (algebraic_basis(groups), tree_basis(build_fibre_graph(groups))):
        for _ in range(100):
            u = random_kernel_word(rng, groups, 6)
            v = random_kernel_word(rng, groups, 6)
            assert act_word(multiply(u, v), basis) == compose(
                act_word(u, basis), act_word(v, basis))


def letter_fold(w, basis):
    """compose(act_letter(l1), compose(act_letter(l2), ...)); identity if empty."""
    phi = identity_automorphism(basis)
    for lt in reversed(w.letters):
        phi = compose(act_letter(lt, basis), phi)
    return phi


def test_tree_act_word_matches_letter_fold():
    # the one-pass tree action equals the per-letter fold it replaced
    rng = random.Random(25)
    for groups in [(make_cyclic(3),) * 3,
                   (make_cyclic(2), make_cyclic(3), make_cyclic(4)),
                   (make_symmetric(3), make_cyclic(4), make_cyclic(3))]:
        basis = tree_basis(build_fibre_graph(groups))
        words = [reduce_word([], groups)]
        for _ in range(4):
            raw = [(f, rng.randrange(1, groups[f].order))
                   for f in (rng.randrange(3) for _ in range(rng.randrange(1, 7)))]
            words.append(reduce_word(raw, groups))
            words.append(random_kernel_word(rng, groups, 6))
        for w in words:
            assert act_word(w, basis) == letter_fold(w, basis)
        assert act_word(words[0], basis) == identity_automorphism(basis)


def test_order_of_generator_action_divides_group_exponent():
    groups = (make_cyclic(2), make_cyclic(3))
    basis = algebraic_basis(groups)
    phi = act_two_groups(Letter(0, 1), basis)
    assert compose(phi, phi) == identity_automorphism(basis)
    psi = act_two_groups(Letter(1, 1), basis)
    assert compose(psi, compose(psi, psi)) == identity_automorphism(basis)


def test_inverse_letter_inverts_action():
    groups = (make_cyclic(4), make_symmetric(3))
    basis = algebraic_basis(groups)
    for factor in range(2):
        for e in range(1, groups[factor].order):
            phi = act_two_groups(Letter(factor, e), basis)
            inv = act_two_groups(
                Letter(factor, groups[factor].inverse(e)), basis)
            assert compose(phi, inv) == identity_automorphism(basis)


def test_tree_basis_and_geometric_action():
    groups = (make_cyclic(3), make_cyclic(4))
    graph = build_fibre_graph(groups)
    basis = tree_basis(graph)
    assert basis.rank == 6
    phi = act_geometric(single(groups, 0, 1), basis)
    for k, wit in enumerate(basis.witnesses):
        assert image_as_word(phi, k) == conjugate(single(groups, 0, 1), wit)


def test_geometric_matches_algebraic_through_words():
    # same automorphism seen through either basis, compared on kernel words
    groups = (make_cyclic(3), make_cyclic(4))
    graph = build_fibre_graph(groups)
    alg = algebraic_basis(groups)
    geo = tree_basis(graph)
    rng = random.Random(23)
    for _ in range(30):
        f = rng.randrange(2)
        t = single(groups, f, rng.randrange(1, groups[f].order))
        phi_a = act_word(t, alg)
        phi_g = act_word(t, geo)
        for _ in range(5):
            w = random_kernel_word(rng, groups, 8)
            via_a = telescope_recompose(
                alg, [(i, j, s) for (i, j, s) in _expand(phi_a, telescope_decompose(w), groups)])
            via_g_sym = phi_g.apply(decompose_word(graph, w))
            acc = None
            from monodromy.words import empty_word
            acc = empty_word(groups)
            for sym, sign in via_g_sym:
                wit = geo.witnesses[sym]
                acc = multiply(acc, wit if sign == 1 else invert(wit))
            assert via_a == acc == conjugate(t, w)


def _expand(phi, decomposition, groups):
    G, H = groups
    sym = [(algebraic_symbol_index(G, H, i, j), s) for i, j, s in decomposition]
    out = phi.apply(tuple(sym))
    triples = []
    for k, s in out:
        i, j = divmod(k, H.order - 1)
        triples.append((i + 1, j + 1, s))
    return triples


def test_three_factor_geometric_action():
    groups = (make_cyclic(2), make_cyclic(2), make_cyclic(2))
    graph = build_fibre_graph(groups)
    basis = tree_basis(graph)
    assert basis.rank == 5
    rng = random.Random(24)
    for _ in range(50):
        f = rng.randrange(3)
        t = single(groups, f, 1)
        phi = act_word(t, basis)
        for k, wit in enumerate(basis.witnesses):
            assert image_as_word(phi, k) == conjugate(t, wit)


def test_automorphism_image_count_enforced():
    basis = algebraic_basis((make_cyclic(2), make_cyclic(3)))
    with pytest.raises(ValueError):
        Automorphism(basis, (((0, 1),),))


def test_act_letter_dispatch():
    groups = (make_cyclic(2), make_cyclic(3))
    alg = algebraic_basis(groups)
    geo = tree_basis(build_fibre_graph(groups))
    t = Letter(1, 2)
    assert act_letter(t, alg).basis.kind == "algebraic-n2"
    assert act_letter(t, geo).basis.kind == "tree"


def test_act_geometric_matches_conjugate_then_decompose_oracle():
    # the deck-translation action equals decomposing each conjugate g w g^-1
    rng = random.Random(26)
    for groups in [(make_cyclic(3),) * 3,
                   (make_symmetric(3), make_cyclic(4), make_cyclic(3)),
                   (make_cyclic(2), make_cyclic(3), make_cyclic(4)),
                   (make_cyclic(5), make_cyclic(1), make_cyclic(4))]:
        graph = build_fibre_graph(groups)
        basis = tree_basis(graph)
        words = [reduce_word([], groups)]
        for _ in range(6):
            words.append(random_word(rng, groups, 9))
            words.append(random_kernel_word(rng, groups, 9))
        for g in words:
            oracle = tuple(decompose_word(graph, conjugate(g, wit)) for wit in basis.witnesses)
            assert act_geometric(g, basis).images == oracle, g
