import random
from math import prod

import pytest

from monodromy.action import (Automorphism, act_letter, act_word,
                              algebraic_basis, commutator_walker, decompose,
                              invert_signed, recompose, tree_basis)
from monodromy.fibre import build_fibre_graph, cotree_walker
from monodromy.groups import (make_cyclic, make_dihedral, make_symmetric,
                              parse_group_spec)
from monodromy.words import (Letter, commutator, conjugate, empty_word,
                             free_reduce, invert, is_in_kernel, multiply,
                             random_kernel_word, random_word, reduce_word,
                             single)

# -- oracles --------------------------------------------------------------
# Independent checks of the letter walk in the commutator basis: the
# closed-form action of one letter, the per-letter `compose` fold, and the
# telescope over the running prefix products.


def algebraic_symbol_index(G, H, i, j):
    return (i - 1) * (H.order - 1) + (j - 1)


def identity_automorphism(basis):
    return Automorphism(basis, tuple(((k, 1),) for k in range(basis.rank)))


def apply(f, word):
    """f applied to a signed symbol word: substitute each image, then reduce."""
    return free_reduce(s for sym, sign in word
                       for s in (f.images[sym] if sign == 1 else invert_signed(f.images[sym])))


def compose(f, g):
    """(f o g): substitute f's images into g's."""
    if f.basis != g.basis:
        raise ValueError("automorphisms over different bases")
    return Automorphism(f.basis, tuple(apply(f, img) for img in g.images))


def act_two_groups(t, basis):
    """Closed-form action of a single letter on the commutator basis.

    g_k . [g_i, h_j] = [g_k g_i, h_j] [h_j, g_k]
    h_k . [g_i, h_j] = [h_k, g_i] [g_i, h_k h_j]
    with commutators hitting the identity dropped.
    """
    G, H = basis.groups
    factor, k = t
    if k == 0:
        return identity_automorphism(basis)
    images = []
    for i in range(1, G.order):
        for j in range(1, H.order):
            seq = []
            if factor == 0:
                gi = G.op(k, i)
                if gi != 0:
                    seq.append((algebraic_symbol_index(G, H, gi, j), 1))
                seq.append((algebraic_symbol_index(G, H, k, j), -1))
            else:
                seq.append((algebraic_symbol_index(G, H, i, k), -1))
                hj = H.op(k, j)
                if hj != 0:
                    seq.append((algebraic_symbol_index(G, H, i, hj), 1))
            images.append(free_reduce(seq))
    return Automorphism(basis, tuple(images))


def closed_form_fold(w, basis):
    """The closed-form letter actions folded left to right."""
    phi = identity_automorphism(basis)
    for lt in w.letters:
        phi = compose(phi, act_two_groups(lt, basis))
    return phi


def telescope_decompose(w):
    """A two-factor kernel word, alternating, as signed (i, j, sign) commutators.

    Each new letter contributes the commutator of the two running prefix
    products; factors touching the identity are dropped.  Right only on
    alternating words.
    """
    if not is_in_kernel(w):
        raise ValueError("word is not in the kernel of the projection")
    G, H = w.groups
    p = q = 0  # running prefix products in G and H
    raw = []
    for f, e in w.letters:
        if f == 0:
            p = G.op(p, e)
            raw.append(((p, q), -1))  # [q, p_new] = [g,h]^-1 with g = p_new
        else:
            q = H.op(q, e)
            raw.append(((p, q), 1))   # [p, q_new]
    kept = (((i, j), sign) for (i, j), sign in raw if i and j)
    return tuple((i, j, sign) for (i, j), sign in free_reduce(kept))


def telescope_recompose(basis, decomposition):
    """Multiply the commutator witnesses back together."""
    G, H = basis.groups
    acc = empty_word(basis.groups)
    for i, j, sign in decomposition:
        wit = basis.witnesses[algebraic_symbol_index(G, H, i, j)]
        acc = multiply(acc, wit if sign == 1 else invert(wit))
    return acc


def telescope_symbols(G, H, decomposition):
    return tuple((algebraic_symbol_index(G, H, i, j), sign) for i, j, sign in decomposition)


# -- tests ------------------------------------------------------------------


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
            assert recompose(basis, decompose(basis, w)) == w
            assert decompose(basis, w) == telescope_symbols(*groups, telescope_decompose(w))


def test_telescope_on_commutator_is_single_symbol():
    groups = (make_cyclic(3), make_cyclic(4))
    w = commutator(single(groups, 0, 2), single(groups, 1, 3))
    assert telescope_decompose(w) == ((2, 3, 1),)
    assert decompose(algebraic_basis(groups), w) == ((algebraic_symbol_index(*groups, 2, 3), 1),)


def test_telescope_rejects_non_kernel():
    groups = (make_cyclic(2), make_cyclic(3))
    with pytest.raises(ValueError):
        telescope_decompose(single(groups, 0, 1))
    with pytest.raises(ValueError):
        decompose(algebraic_basis(groups), single(groups, 0, 1))


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
                assert act_letter(t, basis) == phi
                tw = single(groups, factor, e)
                for k, wit in enumerate(basis.witnesses):
                    assert recompose(basis, phi.images[k]) == conjugate(tw, wit)


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
            assert act_word(k, basis).images == inner(decompose(basis, k), basis.rank)
    for G, H in [(make_cyclic(4), make_cyclic(3)), (make_cyclic(2), make_symmetric(3)),
                 (make_dihedral(4), make_symmetric(3))]:
        basis = algebraic_basis((G, H))
        for _ in range(40):
            k = random_kernel_word(rng, (G, H), 10)
            d = telescope_symbols(G, H, telescope_decompose(k))
            assert decompose(basis, k) == d
            assert act_word(k, basis).images == inner(d, basis.rank)


def test_identity_letter_acts_trivially():
    basis = algebraic_basis((make_cyclic(3), make_cyclic(3)))
    assert act_two_groups(Letter(0, 0), basis) == identity_automorphism(basis)
    assert act_letter(Letter(0, 0), basis) == identity_automorphism(basis)


def test_act_word_is_antihomomorphism_free():
    # act_word(uv) = act_word(u) o act_word(v): one deck translation by uv
    # equals the composite of the two, in either basis
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
    phi = act_letter(Letter(0, 1), basis)
    assert compose(phi, phi) == identity_automorphism(basis)
    psi = act_letter(Letter(1, 1), basis)
    assert compose(psi, compose(psi, psi)) == identity_automorphism(basis)


def test_inverse_letter_inverts_action():
    groups = (make_cyclic(4), make_symmetric(3))
    basis = algebraic_basis(groups)
    for factor in range(2):
        for e in range(1, groups[factor].order):
            phi = act_letter(Letter(factor, e), basis)
            inv = act_letter(
                Letter(factor, groups[factor].inverse(e)), basis)
            assert compose(phi, inv) == identity_automorphism(basis)


def test_tree_basis_and_geometric_action():
    groups = (make_cyclic(3), make_cyclic(4))
    graph = build_fibre_graph(groups)
    basis = tree_basis(graph)
    assert basis.rank == 6
    phi = act_word(single(groups, 0, 1), basis)
    for k, wit in enumerate(basis.witnesses):
        assert recompose(basis, phi.images[k]) == conjugate(single(groups, 0, 1), wit)


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
            via_g_sym = apply(phi_g, decompose(geo, w))
            acc = empty_word(groups)
            for sym, sign in via_g_sym:
                wit = geo.witnesses[sym]
                acc = multiply(acc, wit if sign == 1 else invert(wit))
            assert via_a == acc == conjugate(t, w)


def _expand(phi, decomposition, groups):
    G, H = groups
    sym = [(algebraic_symbol_index(G, H, i, j), s) for i, j, s in decomposition]
    out = apply(phi, tuple(sym))
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
            assert recompose(basis, phi.images[k]) == conjugate(t, wit)


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
    # the deck-translation action equals decomposing each conjugate g w g^-1,
    # in the tree basis and in the commutator basis
    rng = random.Random(26)
    bases = [tree_basis(build_fibre_graph(groups)) for groups in
             [(make_cyclic(3),) * 3,
              (make_symmetric(3), make_cyclic(4), make_cyclic(3)),
              (make_cyclic(2), make_cyclic(3), make_cyclic(4)),
              (make_cyclic(5), make_cyclic(1), make_cyclic(4))]]
    bases += [algebraic_basis(groups) for groups in
              [(make_cyclic(2), make_cyclic(3)), (make_dihedral(4), make_symmetric(3))]]
    for basis in bases:
        groups = basis.groups
        words = [reduce_word([], groups)]
        for _ in range(6):
            words.append(random_word(rng, groups, 9))
            words.append(random_kernel_word(rng, groups, 9))
        for g in words:
            oracle = tuple(decompose(basis, conjugate(g, wit)) for wit in basis.witnesses)
            assert act_word(g, basis).images == oracle, g


# the group pairs of tests/test_intmatrix.py's dense-report differential test
INTMATRIX_PAIRS = [(G, H) for G in parse_group_spec("C2,C3,C4,C5,C6,S3,D3,D4,D5")
                   for H in parse_group_spec("C2,C3,C4,C7,S3,D4,D5")]


def test_commutator_walker_matches_closed_form():
    # every generator of every pair acts as the closed form says
    for G, H in INTMATRIX_PAIRS:
        basis = algebraic_basis((G, H))
        for f in (0, 1):
            for e in range(basis.groups[f].order):
                t = Letter(f, e)
                assert act_letter(t, basis) == act_two_groups(t, basis), (G, H, t)


def test_commutator_act_word_matches_letter_fold():
    # one deck translation per word equals the closed-form per-letter fold
    rng = random.Random(27)
    for groups in [(make_cyclic(2), make_cyclic(3)), (make_cyclic(4), make_cyclic(4)),
                   (make_symmetric(3), make_dihedral(4)), (make_dihedral(5), make_cyclic(7))]:
        basis = algebraic_basis(groups)
        words = [reduce_word([], groups)]
        for _ in range(15):
            words.append(random_word(rng, groups, 12))
            words.append(random_kernel_word(rng, groups, 12))
        for w in words:
            assert act_word(w, basis) == closed_form_fold(w, basis), w


def random_letters(rng, groups, count):
    """Unreduced letters: identity elements and same-factor neighbours allowed."""
    out = []
    for _ in range(count):
        f = rng.randrange(len(groups))
        out.append(Letter(f, rng.randrange(groups[f].order)))
    return out


def test_walk_of_concatenation_is_concatenation_of_walks():
    # each letter is an identity on its own, so walk(u + v) = walk(u) + walk(v)
    # from any state, reduced or not (the telescope oracle is right only on
    # alternating words); the reversed inverse letters walk back and emit the
    # inverse symbols
    rng = random.Random(28)
    walkers = [(groups, commutator_walker(*groups)) for groups in
               [(make_cyclic(2), make_cyclic(3)), (make_symmetric(3), make_dihedral(4))]]
    walkers += [(groups, cotree_walker(build_fibre_graph(groups))) for groups in
                [(make_cyclic(3), make_cyclic(4)),
                 (make_symmetric(3), make_cyclic(4), make_cyclic(3))]]
    for groups, walk in walkers:
        states = prod(G.order for G in groups)
        for _ in range(60):
            u = random_letters(rng, groups, rng.randrange(8))
            v = random_letters(rng, groups, rng.randrange(8))
            start = rng.randrange(states)
            whole, first, second = [], [], []
            end = walk(u + v, start, whole)
            assert walk(v, walk(u, start, first), second) == end
            assert whole == first + second
            back = []
            inverse = [Letter(f, groups[f].inverse(e)) for f, e in reversed(u)]
            assert walk(inverse, walk(u, start, []), back) == start
            assert tuple(back) == invert_signed(tuple(first))


def test_walks_of_reduced_words_are_reduced():
    # decompose and act_word take walks as they come: a reduced word walks
    # to a freely reduced symbol word from every state, in both walkers
    rng = random.Random(30)
    walkers = [(groups, commutator_walker(*groups)) for groups in
               [(make_cyclic(2), make_cyclic(3)), (make_cyclic(4), make_cyclic(5)),
                (make_symmetric(3), make_dihedral(4))]]
    walkers += [(groups, cotree_walker(build_fibre_graph(groups))) for groups in
                [(make_cyclic(3), make_cyclic(4)), (make_cyclic(2),) * 4,
                 (make_symmetric(3), make_cyclic(4), make_cyclic(3)),
                 (make_dihedral(4), make_cyclic(1), make_cyclic(2), make_symmetric(3))]]
    for groups, walk in walkers:
        states = prod(G.order for G in groups)
        for _ in range(300):
            w = random_word(rng, groups, 16)
            out = []
            walk(w.letters, rng.randrange(states), out)
            assert tuple(out) == free_reduce(out), w


def test_decompose_names_the_fault_in_the_commutator_basis():
    groups = (make_cyclic(3), make_cyclic(4))
    basis = algebraic_basis(groups)
    with pytest.raises(ValueError, match="not in the kernel"):
        decompose(basis, single(groups, 0, 1))
    other = algebraic_basis((make_cyclic(3), make_cyclic(5)))
    with pytest.raises(ValueError, match="different group list"):
        decompose(other, commutator(single(groups, 0, 1), single(groups, 1, 1)))


def reduce_tagged(parts):
    """Free reduction of the concatenated parts; each survivor keeps its part's index."""
    out = []
    for tag, part in enumerate(parts):
        for sym, sign in part:
            if out and out[-1][1] == (sym, -sign):
                out.pop()
            else:
                out.append((tag, (sym, sign)))
    return out


def test_seam_act_word_matches_full_reduction(monkeypatch):
    # each image is P . W . P^-1 reduced in full, with P the reduced walk of
    # g from 0 and W the reduced walk of the witness from pi(g).  act_word
    # takes both walks as they come, cancels at the two seams only, and calls
    # free_reduce exactly when no letter of W survives; random words hit
    # both cases in each basis
    calls = []
    monkeypatch.setattr("monodromy.action.free_reduce",
                        lambda seq: calls.append(None) or free_reduce(seq))
    rng = random.Random(29)
    bases = [tree_basis(build_fibre_graph(groups)) for groups in
             [(make_cyclic(3),) * 3,
              (make_symmetric(3), make_cyclic(4), make_cyclic(3)),
              (make_cyclic(2), make_cyclic(2), make_cyclic(2), make_cyclic(3))]]
    bases += [algebraic_basis(groups) for groups in
              [(make_cyclic(2), make_cyclic(3)), (make_cyclic(4), make_cyclic(4)),
               (make_dihedral(4), make_symmetric(3))]]
    seen = {"tree": [0, 0], "algebraic-n2": [0, 0]}  # [sliced, cancelled away]
    for basis in bases:
        walk = basis.walk
        for _ in range(40):
            g = random_word(rng, basis.groups, 12)
            raw = []
            start = walk(g.letters, 0, raw)
            prefix = free_reduce(raw)
            expected, cancelled = [], 0
            for wit in basis.witnesses:
                raw = []
                walk(wit.letters, start, raw)
                tagged = reduce_tagged([prefix, free_reduce(raw), invert_signed(prefix)])
                expected.append(tuple(s for _, s in tagged))
                cancelled += all(tag != 1 for tag, _ in tagged)
            calls.clear()
            assert act_word(g, basis).images == tuple(expected), g
            assert len(calls) == cancelled, g
            seen[basis.kind][0] += basis.rank - cancelled
            seen[basis.kind][1] += cancelled
    assert all(sliced and cancelled for sliced, cancelled in seen.values()), seen


# -- the walks of all witnesses from one state -----------------------------------
# Oracle: each witness walked letter by letter with `Basis.walk`.


def walk_each(basis, start):
    runs = []
    for wit in basis.witnesses:
        raw = []
        basis.walk(wit.letters, start, raw)
        runs.append(tuple(raw))
    return tuple(runs)


def test_walks_match_walking_each_witness():
    # the tree basis reads Phi(x) + E + Phi(x')^-1 off its table of tree-path
    # walks; the commutator basis walks its witnesses
    rng = random.Random(32)
    bases = [tree_basis(build_fibre_graph(parse_group_spec(spec)))
             for spec in ("S3,C4,C3", "D4,C3,C2", "S4,C1,C2", "C5", "C1,C4")]
    bases += [algebraic_basis(parse_group_spec(spec)) for spec in ("S3,C4", "D4,C3", "C5,C2")]
    for basis in bases:
        states = prod(G.order for G in basis.groups)
        for start in (0, states - 1, rng.randrange(states), rng.randrange(states)):
            assert basis.walks(start) == walk_each(basis, start), (basis.groups, start)


def test_walks_cache_one_state():
    groups = parse_group_spec("S3,C4,C3")
    for basis in (tree_basis(build_fibre_graph(groups)), algebraic_basis(groups[:2])):
        act_word(single(basis.groups, 0, 1), basis)
        act_word(single(basis.groups, 1, 1), basis)
        info = basis.walks.cache_info()
        assert (info.misses, info.currsize) == (2, 1)


def test_kernel_words_reuse_the_walks_from_zero():
    rng = random.Random(33)
    groups = parse_group_spec("D4,C3")
    for basis in (tree_basis(build_fibre_graph(groups)), algebraic_basis(groups)):
        first, second = (random_kernel_word(rng, groups, 12) for _ in range(2))
        act_word(first, basis)
        phi = act_word(second, basis)
        info = basis.walks.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert phi.images == tuple(decompose(basis, conjugate(second, wit))
                                   for wit in basis.witnesses)


# -- one reduction per word operation ----------------------------------------
# Oracles: each operation as nested `multiply` calls, with the inverse spelt
# one letter at a time.


def invert_by_letters(w):
    acc = empty_word(w.groups)
    for f, e in w.letters:
        acc = multiply(single(w.groups, f, w.groups[f].inverse(e)), acc)
    return acc


def recompose_by_multiply(basis, image):
    acc = empty_word(basis.groups)
    for sym, sign in image:
        wit = basis.witnesses[sym]
        acc = multiply(acc, wit if sign == 1 else invert_by_letters(wit))
    return acc


def test_word_operations_match_nested_multiply():
    rng = random.Random(31)
    pairs = [(make_cyclic(3), make_symmetric(3)), (make_dihedral(4), make_cyclic(2)),
             (make_symmetric(3), make_dihedral(3))]
    bases = [algebraic_basis(groups) for groups in pairs]
    bases += [tree_basis(build_fibre_graph(groups)) for groups in pairs]
    bases.append(tree_basis(build_fibre_graph(
        (make_cyclic(2), make_symmetric(3), make_dihedral(3)))))
    empty = 0
    for basis in bases:
        groups = basis.groups
        for _ in range(60):
            a, b = random_word(rng, groups, 10), random_word(rng, groups, 10)
            k = random_kernel_word(rng, groups, 12)
            assert invert(a) == invert_by_letters(a)
            for x, y in [(a, b), (a, a), (a, invert(a)), (b, empty_word(groups))]:
                comm = commutator(x, y)
                assert comm == multiply(multiply(x, y),
                                        multiply(invert_by_letters(x), invert_by_letters(y)))
                conj = conjugate(x, y)
                assert conj == multiply(multiply(x, y), invert_by_letters(x))
                empty += comm.is_identity + conj.is_identity
            image = decompose(basis, k)
            assert recompose(basis, image) == recompose_by_multiply(basis, image) == k
            # a symbol word and its inverse spell the empty word
            both = image + invert_signed(image)
            assert recompose(basis, both) == recompose_by_multiply(basis, both)
            assert recompose(basis, both).is_identity
    assert empty


def test_word_operations_reduce_once(monkeypatch):
    calls = []

    def counted(raw, groups):
        calls.append(None)
        return reduce_word(raw, groups)

    monkeypatch.setattr("monodromy.words.reduce_word", counted)
    monkeypatch.setattr("monodromy.action.reduce_word", counted)
    groups = (make_symmetric(3), make_cyclic(4))
    rng = random.Random(32)
    for basis in (algebraic_basis(groups), tree_basis(build_fibre_graph(groups))):
        a, b = random_word(rng, groups, 10), random_word(rng, groups, 10)
        image = ()
        while len(image) < 2:
            image = decompose(basis, random_kernel_word(rng, groups, 12))
        for op, reductions in [(lambda: commutator(a, b), 1), (lambda: conjugate(a, b), 1),
                               (lambda: recompose(basis, image), 1), (lambda: invert(a), 0)]:
            calls.clear()
            op()
            assert len(calls) == reductions
