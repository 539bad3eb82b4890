import gc
import random
import sys
import weakref
from collections import Counter
from dataclasses import replace
from math import prod
from pathlib import Path

import pytest

from monodromy import action, cli
from monodromy.action import (Automorphism, act_word,
                              algebraic_basis, decompose,
                              invert_signed, outer_representative, recompose,
                              tree_basis)
from monodromy.fibre import build_fibre_graph, cotree_rule
from monodromy.groups import (make_cyclic, make_dihedral, make_symmetric,
                              parse_group_spec)
from monodromy.intmatrix import columns, cyclic_closed_form
from monodromy.words import (commutator, conjugate, empty_word,
                             free_reduce, invert, is_in_kernel, multiply, parse_word,
                             project, random_kernel_word, random_word,
                             reduce_word, single)

from oracles import free_reduce_pairs, signed, walk_each

# -- oracles --------------------------------------------------------------
# Independent checks of the letter walk in the commutator basis: the
# closed-form action of one letter, the per-letter `compose` fold, and the
# telescope over the running prefix products.


def algebraic_symbol_index(G, H, i, j):
    return (i - 1) * (H.order - 1) + (j - 1)


def identity_automorphism(basis):
    return Automorphism(basis, tuple((signed(k, 1),) for k in range(basis.rank)))


def apply(f, word):
    """f applied to a signed symbol word: substitute each image, then reduce."""
    return free_reduce(s for x in word
                       for s in (f.images[x - 1] if x > 0 else invert_signed(f.images[-x - 1])))


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
                    seq.append(signed(algebraic_symbol_index(G, H, gi, j), 1))
                seq.append(signed(algebraic_symbol_index(G, H, k, j), -1))
            else:
                seq.append(signed(algebraic_symbol_index(G, H, i, k), -1))
                hj = H.op(k, j)
                if hj != 0:
                    seq.append(signed(algebraic_symbol_index(G, H, i, hj), 1))
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
    return tuple((i, j, sign) for (i, j), sign in free_reduce_pairs(kept))


def telescope_recompose(basis, decomposition):
    """Multiply the commutator witnesses back together."""
    G, H = basis.groups
    acc = empty_word(basis.groups)
    for i, j, sign in decomposition:
        wit = basis.witnesses[algebraic_symbol_index(G, H, i, j)]
        acc = multiply(acc, wit if sign == 1 else invert(wit))
    return acc


def telescope_symbols(G, H, decomposition):
    return tuple(signed(algebraic_symbol_index(G, H, i, j), sign) for i, j, sign in decomposition)


# -- tests ------------------------------------------------------------------


def test_free_reduce_signed():
    assert free_reduce([1, -1]) == ()
    assert free_reduce([1, 2, -2, -1]) == ()
    assert free_reduce([1, 1]) == (1, 1)
    seq = (-3, 1)
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
    k = algebraic_symbol_index(*groups, 2, 3)
    assert decompose(algebraic_basis(groups), w) == (signed(k, 1),)


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
                tw = single(groups, factor, e)
                phi = act_two_groups((factor, e), basis)
                assert act_word(tw, basis) == phi
                for k, wit in enumerate(basis.witnesses):
                    assert recompose(basis, phi.images[k]) == conjugate(tw, wit)


def test_kernel_words_act_by_inner_automorphisms():
    # Out(F_n)-level certificate: a kernel word k with decomposition d over
    # the basis sends each basis symbol s to the free reduction of d s d^-1,
    # so its class in Out(F_n) is trivial; checked before abelianizing
    def inner(d, rank):
        return tuple(free_reduce(d + (signed(s, 1),) + invert_signed(d)) for s in range(rank))

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
    assert act_two_groups((0, 0), basis) == identity_automorphism(basis)
    assert act_word(single(basis.groups, 0, 0), basis) == identity_automorphism(basis)


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
    """compose(act(l1), compose(act(l2), ...)) over one-letter words; identity if empty."""
    phi = identity_automorphism(basis)
    for f, e in reversed(w.letters):
        phi = compose(act_word(single(basis.groups, f, e), basis), phi)
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
    phi = act_word(single(groups, 0, 1), basis)
    assert compose(phi, phi) == identity_automorphism(basis)
    psi = act_word(single(groups, 1, 1), basis)
    assert compose(psi, compose(psi, psi)) == identity_automorphism(basis)


def test_inverse_letter_inverts_action():
    groups = (make_cyclic(4), make_symmetric(3))
    basis = algebraic_basis(groups)
    for factor in range(2):
        for e in range(1, groups[factor].order):
            phi = act_word(single(groups, factor, e), basis)
            inv = act_word(single(groups, factor, groups[factor].inverse(e)), basis)
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
            for x in via_g_sym:
                wit = geo.witnesses[abs(x) - 1]
                acc = multiply(acc, wit if x > 0 else invert(wit))
            assert via_a == acc == conjugate(t, w)


def _expand(phi, decomposition, groups):
    G, H = groups
    sym = [signed(algebraic_symbol_index(G, H, i, j), s) for i, j, s in decomposition]
    out = apply(phi, tuple(sym))
    triples = []
    for x in out:
        i, j = divmod(abs(x) - 1, H.order - 1)
        triples.append((i + 1, j + 1, 1 if x > 0 else -1))
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
        Automorphism(basis, ((signed(0, 1),),))


def test_format_image_prints_every_signed_symbol():
    # +(k + 1) prints symbol k's name and -(k + 1) adds ^-1, across the whole
    # token list and at both of its ends
    groups = parse_group_spec("S3,C4")
    G, H = groups
    alg = algebraic_basis(groups)
    names = {signed(algebraic_symbol_index(G, H, i, j), 1): f"w[{i},{j}]"
             for i in range(1, G.order) for j in range(1, H.order)}
    tree = tree_basis(build_fibre_graph(parse_group_spec("C2,C3,C2")))
    assert tree.rank == 9 and alg.rank == len(names) == 15
    for basis, name in ((tree, {k + 1: f"c{k + 1}" for k in range(9)}), (alg, names)):
        r = basis.rank
        assert basis.format_image(()) == "e"
        for x in range(1, r + 1):
            assert basis.format_image((x,)) == name[x]
            assert basis.format_image((-x,)) == name[x] + "^-1"
        ends = (1, -1, r, -r)
        assert basis.format_image(ends) == f"{name[1]}*{name[1]}^-1*{name[r]}*{name[r]}^-1"
        every = tuple(range(1, r + 1)) + tuple(range(-r, 0))
        assert basis.format_image(every) == "*".join(
            [name[x] for x in range(1, r + 1)] + [name[-x] + "^-1" for x in range(-r, 0)])


def test_basis_refuses_a_witness_outside_the_kernel():
    # the check runs on the first read of `witnesses`, in both bases; no walk reads them
    groups = parse_group_spec("S3,C4")
    for basis in (algebraic_basis(groups), tree_basis(build_fibre_graph(groups))):
        for bad in (single(groups, 0, 1), single(groups, 1, 2),
                    multiply(basis.witnesses[3], single(groups, 0, 4))):
            copy = replace(basis, make_witnesses=lambda: basis.witnesses + (bad,))
            copy.walks(0)
            copy.state(single(groups, 0, 1))
            with pytest.raises(ValueError, match="^basis witness is not in the kernel$"):
                copy.witnesses
        assert replace(basis, make_witnesses=lambda: basis.witnesses[::-1]).rank == basis.rank


def test_tree_basis_builds_witnesses_only_where_they_are_read(capsys, monkeypatch):
    # act, matrix and basis read the tree basis off the grid and build no
    # witness: `basis` spells each witness from its pieces, kernel-checked there
    real, built = action.cycle_witnesses, []  # each witness the factory yields
    monkeypatch.setattr(action, "cycle_witnesses",
                        lambda graph: (built.append(w) or w for w in real(graph)))
    groups = parse_group_spec("S3,C4,C3")
    basis = tree_basis(build_fibre_graph(groups))
    for w in (single(groups, 0, 4), commutator(single(groups, 1, 1), single(groups, 2, 2))):
        act_word(w, basis)
        outer_representative(w, basis)
        decompose(basis, conjugate(w, commutator(single(groups, 0, 1), single(groups, 2, 1))))
    assert "witnesses" not in basis.__dict__ and not built
    bases = []
    monkeypatch.setattr(cli, "tree_basis", lambda graph: bases.append(tree_basis(graph))
                        or bases[-1])
    for argv in (["act", "--element", "s1:(12)*x2"], ["matrix", "--element", "x3"], ["basis"]):
        assert cli.main([*argv, "--groups", "S3,C4,C3", "--basis", "tree"]) == 0
    assert ["witnesses" in b.__dict__ for b in bases] == [False, False, False] and not built
    # a piece that does not cancel in the projection: a wrong inverse of the first
    # factor (its steps) or of the last (the tails' digits)
    for k in (0, 2):
        def corrupted(spec, k=k):
            groups = parse_group_spec(spec)
            inverses = groups[k].inverses
            object.__setattr__(groups[k], "inverses", inverses[:1] + inverses[2:] + inverses[1:2])
            return groups
        monkeypatch.setattr(cli, "parse_group_spec", corrupted)
        capsys.readouterr()
        assert cli.main(["basis", "--groups", "S3,C4,C3", "--basis", "tree"]) == 2, k
        assert capsys.readouterr() == ("", "error: basis witness is not in the kernel\n"), k
    # the factory behind `Basis.witnesses` (recompose, verify) checks what it builds
    bad = replace(basis, make_witnesses=lambda: [single(groups, 0, 1)])
    with pytest.raises(ValueError, match="basis witness is not in the kernel"):
        bad.witnesses


def test_commutator_basis_builds_witnesses_only_where_they_are_read(capsys, monkeypatch):
    # report, act, matrix and the closed form walk each commutator's raw letters
    # and build no `Word`; `basis` builds each witness once and kernel-checks it
    real_word, built = action.Word, []
    monkeypatch.setattr(action, "Word", lambda groups, letters: built.append(
        real_word(groups, letters)) or built[-1])
    real_projection, checked = action.projection, []

    def projection(groups):
        project_letters = real_projection(groups)
        return lambda letters: checked.append(letters) or project_letters(letters)

    monkeypatch.setattr(action, "projection", projection)
    for argv in (["report"], ["act", "--basis", "algebraic", "--element", "s1:(12)*x2"],
                 ["matrix", "--basis", "algebraic", "--element", "x2"]):
        assert cli.main([*argv, "--groups", "S3,C4"]) == 0
    cyclic_closed_form(3, 4)
    assert not built and not checked
    bases = []
    monkeypatch.setattr(cli, "algebraic_basis", lambda groups: bases.append(
        algebraic_basis(groups)) or bases[-1])
    assert cli.main(["basis", "--groups", "S3,C4", "--basis", "algebraic"]) == 0
    assert built == list(bases[0].witnesses) and len(built) == bases[0].rank == 15
    assert checked == [w.letters for w in built]
    assert all(w.letters == commutator(single(w.groups, 0, w.letters[0][1]),
                                       single(w.groups, 1, w.letters[1][1])).letters
               for w in built)


def test_act_letter_dispatch():
    groups = (make_cyclic(2), make_cyclic(3))
    alg = algebraic_basis(groups)
    geo = tree_basis(build_fibre_graph(groups))
    t = single(groups, 1, 2)
    assert act_word(t, alg).basis.kind == "algebraic-n2"
    assert act_word(t, geo).basis.kind == "tree"


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
                assert act_word(single(basis.groups, f, e), basis) == \
                    act_two_groups((f, e), basis), (G, H, f, e)


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
        out.append((f, rng.randrange(groups[f].order)))
    return out


def test_walk_of_concatenation_is_concatenation_of_walks():
    # each letter is an identity on its own, so walk(u + v) = walk(u) + walk(v)
    # from any state, reduced or not (the telescope oracle is right only on
    # alternating words); the reversed inverse letters walk back and emit the
    # inverse symbols
    rng = random.Random(28)
    walkers = [(groups, algebraic_basis(groups).walk) for groups in
               [(make_cyclic(2), make_cyclic(3)), (make_symmetric(3), make_dihedral(4))]]
    walkers += [(groups, cotree_rule(build_fibre_graph(groups))[0]) for groups in
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
            inverse = [(f, groups[f].inverse(e)) for f, e in reversed(u)]
            assert walk(inverse, walk(u, start, []), back) == start
            assert tuple(back) == invert_signed(tuple(first))


def test_walks_of_reduced_words_are_reduced():
    # decompose and act_word take walks as they come: a reduced word walks
    # to a freely reduced symbol word from every state, in both walkers
    rng = random.Random(30)
    walkers = [(groups, algebraic_basis(groups).walk) for groups in
               [(make_cyclic(2), make_cyclic(3)), (make_cyclic(4), make_cyclic(5)),
                (make_symmetric(3), make_dihedral(4))]]
    walkers += [(groups, cotree_rule(build_fibre_graph(groups))[0]) for groups in
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
        for x in part:
            if out and out[-1][1] == -x:
                out.pop()
            else:
                out.append((tag, x))
    return out


def count_join_branches(monkeypatch):
    """Count the branches `action._Joiner` takes, by name, in a Counter the caller reads.

    A pass extends Q(v) and joins Q(x) E Q(x')^-1 itself while nothing
    cancels; `step` takes a vertex whose parent's tree path cancelled into P,
    where the run cancels away or survives, and `join` an image with a
    cancelled end, where E survives its cuts or cancels away and the image is
    joined symbol by symbol (`_joined`)."""
    seen = Counter()
    step, join, joined = action._Joiner.step, action._Joiner.join, action._joined

    def counted_step(self, v, parent, i, j):
        step(self, v, parent, i, j)
        seen["run cancels away" if self.cut[v] >= 0 else "run survives"] += 1

    def counted_join(self, x, i, j, y):
        before = seen["joined"]
        image = join(self, x, i, j, y)
        seen["E cancels away" if seen["joined"] > before else "E survives"] += 1
        return image

    def counted_joined(a, b):
        seen["joined"] += 1
        return joined(a, b)

    monkeypatch.setattr(action._Joiner, "step", counted_step)
    monkeypatch.setattr(action._Joiner, "join", counted_join)
    monkeypatch.setattr(action, "_joined", counted_joined)
    return seen


JOIN_BRANCHES = ("run cancels away", "run survives", "E cancels away", "E survives")


def ending_in_each_coordinate(rng, groups, count):
    """Random words whose last letter moves coordinate k, `count` for each k with a letter."""
    words = []
    for k, G in enumerate(groups):
        for _ in range(count if G.order > 1 else 0):
            last = ((k, rng.randrange(1, G.order)),)
            words.append(reduce_word(random_word(rng, groups, 10).letters + last, groups))
    return words


def test_act_word_matches_full_reduction():
    # each image is P . W . P^-1 reduced in full, with P the reduced walk of
    # g from 0 and W the reduced walk of the witness from pi(g), in each
    # basis; random words reach images whose W cancels away
    rng = random.Random(29)
    bases = [tree_basis(build_fibre_graph(groups)) for groups in
             [(make_cyclic(3),) * 3,
              (make_symmetric(3), make_cyclic(4), make_cyclic(3)),
              (make_cyclic(2), make_cyclic(2), make_cyclic(2), make_cyclic(3))]]
    bases += [algebraic_basis(groups) for groups in
              [(make_cyclic(2), make_cyclic(3)), (make_cyclic(4), make_cyclic(4)),
               (make_dihedral(4), make_symmetric(3))]]
    reached = Counter()
    for basis in bases:
        walk = basis.walk
        words = [random_word(rng, basis.groups, 12) for _ in range(40)]
        for g in words + ending_in_each_coordinate(rng, basis.groups, 5):
            raw = []
            start = walk(g.letters, 0, raw)
            prefix = free_reduce(raw)
            expected = []
            for wit in basis.witnesses:
                raw = []
                walk(wit.letters, start, raw)
                tagged = reduce_tagged([prefix, free_reduce(raw), invert_signed(prefix)])
                expected.append(tuple(s for _, s in tagged))
                reached[basis.kind] += all(tag != 1 for tag, _ in tagged)
            assert act_word(g, basis).images == tuple(expected), g
    assert reached["tree"] and reached["algebraic-n2"], reached


def test_act_word_builds_no_joiner(monkeypatch):
    # act_word, the oracle of `act`'s writer, joins P to the basis's witness
    # walks with no `_Joiner`, and `Basis.walks` spells them with none: both
    # still give P . W . P^-1 reduced when a joiner cannot be built
    def refuse(*args):
        raise AssertionError("act_word built a _Joiner")

    rng = random.Random(53)
    for spec in ("S3,C4,C3", "C3,C3,C3", "D4,C3", "C1,C3,C2", "S3,C4", "C4,C4"):
        groups = parse_group_spec(spec)
        bases = [tree_basis(build_fibre_graph(groups))]
        if len(groups) == 2:
            bases.append(algebraic_basis(groups))
        words = [empty_word(groups)] + [random_kernel_word(rng, groups, 10) for _ in range(4)]
        words += [random_word(rng, groups, 12) for _ in range(8)]
        for basis in bases:
            with monkeypatch.context() as m:
                m.setattr(action, "_Joiner", refuse)
                for w in words:
                    raw = []
                    start = basis.walk(w.letters, 0, raw)
                    prefix = tuple(raw)
                    assert act_word(w, basis).images == tuple(
                        free_reduce(prefix + run + invert_signed(prefix))
                        for run in walk_each(basis, start)), (spec, basis.kind, w)


def test_image_texts_match_the_formatted_images(monkeypatch):
    # `act`'s writer spells each Q(v) once and joins the images from its
    # pieces: its texts against `format_image` of each `act_word` image, in
    # both bases, for the identity, kernel words (the state 0 and P != ()),
    # random words and words ending in a letter of each coordinate, whose P^-1
    # retraces the tree paths of a whole subtree; every branch of the joiner
    # is reached in each basis
    seen = count_join_branches(monkeypatch)
    rng = random.Random(41)
    table = f"table:{Path(__file__).parent / 'fixtures' / 'c2_table.json'}"
    specs = ["C2,C3", "C1,C3", "C3,C1,C2", "S3,C4,C3", "D4,C3,C2", "C3,C3,C3", f"{table},C3",
             "S3,C4", "D4,C3", "C4,C4", "C5,C4,C3", "S3,D4,C2", "C1,C3,C2", f"{table},C2,C3"]
    reached = {"tree": Counter(), "algebraic-n2": Counter()}
    for spec in specs:
        groups = parse_group_spec(spec)
        bases = [tree_basis(build_fibre_graph(groups))]
        if len(groups) == 2 and min(G.order for G in groups) > 1:
            bases.append(algebraic_basis(groups))
        words = [empty_word(groups)] + [random_kernel_word(rng, groups, 8) for _ in range(4)]
        words += [random_word(rng, groups, 12) for _ in range(12)]
        words += ending_in_each_coordinate(rng, groups, 3)
        for basis in bases:
            for w in words:
                expected = [basis.format_image(img) for img in act_word(w, basis).images]
                seen.clear()
                assert action.image_texts(w, basis) == expected, (spec, basis.kind, w)
                reached[basis.kind].update(seen)
    for kind, counts in reached.items():
        assert all(counts[branch] for branch in JOIN_BRANCHES), (kind, counts)
    # x2*x1 walks a witness, in each basis of C2xC3, to a run that cancels away
    groups = parse_group_spec("C2,C3")
    w = parse_word("x2*x1", groups)
    for basis in (tree_basis(build_fibre_graph(groups)), algebraic_basis(groups)):
        seen.clear()
        texts = action.image_texts(w, basis)
        assert seen["E cancels away"], basis.kind
        assert texts == [basis.format_image(img) for img in act_word(w, basis).images]


# -- the walks of all witnesses from one state -----------------------------------
# Oracle: each witness walked letter by letter with `Basis.walk` (`oracles.walk_each`).


def test_walks_match_walking_each_witness():
    # both bases spell Phi(x) + E + Phi(x')^-1 off the tree paths and joins
    # of their `paths`, from every state
    table = Path(__file__).parent / "fixtures" / "c2_table.json"
    bases = [tree_basis(build_fibre_graph(parse_group_spec(spec)))
             for spec in ("S3,C4,C3", "D4,C3,C2", "S4,C1,C2", "C5", "C1,C4",
                          f"table:{table},C3", "C2,C2,C2,C2", "C2,C1,C3")]
    # rank 1 (C2,C2) and a table factor reach the edges of the symbol index first[r] + c
    bases += [algebraic_basis(parse_group_spec(spec))
              for spec in ("S3,C4", "D4,C3", "C5,C2", "C2,C2", "S4,C3", f"table:{table},C3")]
    for basis in bases:
        for start in range(prod(G.order for G in basis.groups)):
            assert basis.walks(start) == walk_each(basis, start), (basis.groups, start)


def test_commutator_walks_never_call_the_letter_walker():
    # the commutator basis reads its witness walks off its pass alone: no
    # call event reaches the code of `basis.walk` while `Basis.walks` runs
    # from every state, and the walks are the witnesses walked letter by
    # letter; walking those witnesses under the same profiler shows that it
    # sees the walk's calls from inside a closure
    for spec in ("S3,C4", "D4,C3", "C5,C2"):
        groups = parse_group_spec(spec)
        basis = algebraic_basis(groups)
        states = range(prod(G.order for G in groups))
        code, calls = basis.walk.__code__, Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is code:
                calls[spec] += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            walks = [basis.walks(start) for start in states]
        finally:
            sys.setprofile(previous)
        assert not calls, spec
        assert walks == [walk_each(basis, start) for start in states], spec
        sys.setprofile(profile)
        try:
            walk_each(basis, 0)
        finally:
            sys.setprofile(previous)
        assert calls[spec] == basis.rank, spec


def test_walks_cache_one_state():
    groups = parse_group_spec("S3,C4,C3")
    for basis in (tree_basis(build_fibre_graph(groups)), algebraic_basis(groups[:2])):
        outer_representative(single(basis.groups, 0, 1), basis)
        outer_representative(single(basis.groups, 1, 1), basis)
        info = basis.walks.cache_info()
        assert (info.misses, info.currsize) == (2, 1)


def test_a_walked_basis_is_freed_without_the_cycle_collector():
    # the cached walks close over the basis's paths, not the basis, so a
    # dropped basis that has walked is freed by reference counting alone
    groups = parse_group_spec("S3,C4,C3")
    gc.disable()
    try:
        for make in (lambda: tree_basis(build_fibre_graph(groups)),
                     lambda: algebraic_basis(groups[:2])):
            basis = make()
            basis.walks(0)
            ref = weakref.ref(basis)
            del basis
            assert ref() is None, make
    finally:
        gc.enable()


def test_kernel_words_reuse_the_walks_from_zero():
    rng = random.Random(33)
    groups = parse_group_spec("D4,C3")
    for basis in (tree_basis(build_fibre_graph(groups)), algebraic_basis(groups)):
        first, second = (random_kernel_word(rng, groups, 12) for _ in range(2))
        outer_representative(first, basis)
        rep = outer_representative(second, basis)
        info = basis.walks.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert rep.images == tuple(decompose(basis, wit) for wit in basis.witnesses)
        assert act_word(second, basis).images == tuple(decompose(basis, conjugate(second, wit))
                                                       for wit in basis.witnesses)


def test_act_word_is_the_outer_representative_conjugated_by_its_walk():
    # act_word(w) sends witness j to P . rep_j . P^-1, P the walk of w and
    # rep_j its walk from pi(w): the same outer class, so the same columns
    rng = random.Random(35)
    bases = [tree_basis(build_fibre_graph(parse_group_spec(spec)))
             for spec in ("C1,C3", "S3,C4,C3", "D4,C3,C2", "C3,C3,C3,C3", "C8,C8,C8",
                          "S3,C4", "D4,C3")]
    bases += [algebraic_basis(parse_group_spec(spec)) for spec in ("S3,C4", "D4,C3", "C3,C2")]
    for basis in bases:
        groups = basis.groups
        kernel = [random_kernel_word(rng, groups, 12) for _ in range(3)]
        others = [random_word(rng, groups, 12) for _ in range(4)]
        assert any(any(project(w)) for w in others)  # some walk ends away from 0
        for w in [empty_word(groups), *kernel, *others]:
            phi, rep = act_word(w, basis), outer_representative(w, basis)
            assert columns(phi) == columns(rep), (groups, w)
            raw = []
            basis.walk(w.letters, 0, raw)
            prefix = tuple(raw)
            assert phi.images == tuple(free_reduce(prefix + run + invert_signed(prefix))
                                       for run in rep.images), (groups, w)


def test_outer_representative_refuses_a_foreign_word():
    basis = algebraic_basis((make_cyclic(2), make_cyclic(3)))
    with pytest.raises(ValueError, match="different group list"):
        outer_representative(single((make_cyclic(2), make_cyclic(4)), 0, 1), basis)


def test_every_walk_from_the_basepoint_refuses_a_foreign_word():
    # one check in `Basis.state`: the same line from each caller, in both bases,
    # also for a kernel word whose letters fit the basis's tables
    groups = (make_cyclic(3), make_cyclic(4))
    foreign = (make_cyclic(3), make_cyclic(5))
    words = [single(foreign, 0, 1),
             commutator(single(foreign, 0, 1), single(foreign, 1, 1))]
    calls = (lambda w, basis: decompose(basis, w), act_word, outer_representative,
             lambda w, basis: basis.state(w))
    for basis in (tree_basis(build_fibre_graph(groups)), algebraic_basis(groups)):
        for w in words:
            for call in calls:
                with pytest.raises(ValueError, match="^word is over a different group list$"):
                    call(w, basis)


def test_a_replaced_basis_caches_one_state():
    groups = parse_group_spec("S3,C4")
    for basis in (tree_basis(build_fibre_graph(groups)), algebraic_basis(groups)):
        copy = replace(basis, symbols=tuple(s.upper() for s in basis.symbols))
        outer_representative(single(groups, 0, 1), copy)
        outer_representative(single(groups, 1, 1), copy)
        info = copy.walks.cache_info()
        assert (info.maxsize, info.misses, info.currsize) == (1, 2, 1)
        assert not hasattr(copy.walks.__wrapped__, "cache_info")  # one cache, not two
        assert basis.walks.cache_info().currsize == 0
        assert copy.walks(0) == walk_each(basis, 0)


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
    for x in image:
        wit = basis.witnesses[abs(x) - 1]
        acc = multiply(acc, wit if x > 0 else invert_by_letters(wit))
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
