"""Presheaves, natural maps, limits, random sampling."""

import random
from itertools import product

import pytest

from finsite.corpus import (
    arrow,
    discrete2,
    parallel_pair,
    point,
    poset_category,
    vee,
    z2,
)
from finsite.errors import PresheafLawError
from finsite.presheaf import (
    NatTransformation,
    Presheaf,
    are_isomorphic,
    compatible_families,
    compose_nat,
    equalizer_presheaf,
    kernel_pair,
    presheaf_homs,
    presheaf_isos,
    product_presheaf,
    pullback_presheaf,
    random_presheaf,
    terminal_presheaf,
    yoneda,
)


def brute_homs(P, Q):
    """All natural maps, by filtering every raw component family."""
    cat = P.category
    spaces = [
        list(product(range(Q.sizes[c]), repeat=P.sizes[c]))
        for c in range(len(cat.objects))
    ]
    found = []
    for comps in product(*spaces):
        ok = True
        for f in range(len(cat.morphisms)):
            a, b = cat.dom[f], cat.cod[f]
            for x in range(P.sizes[b]):
                if comps[a][P.actions[f][x]] != Q.actions[f][comps[b][x]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(tuple(comps))
    return found


def test_functoriality_is_checked():
    cat = arrow()
    with pytest.raises(PresheafLawError):
        Presheaf(cat, (1, 1), ((0,), (0,)))  # missing a table
    with pytest.raises(PresheafLawError, match="has arity 2, expected 1"):
        Presheaf(cat, (1, 1), ((0,), (0,), (0, 0)))
    for out_of_range in ((1,), (-1,)):
        with pytest.raises(PresheafLawError, match="leaves the value set"):
            Presheaf(cat, (1, 1), ((0,), (0,), out_of_range))
    with pytest.raises(PresheafLawError, match="has arity 0"):  # arity first
        Presheaf(cat, (1, 1), ((0,), (), (5,)))
    with pytest.raises(PresheafLawError):
        Presheaf(cat, (2, 1), ((0, 0), (0,), (0,)))  # identity not identity
    grp = z2()
    # s composed with itself is the identity, so its action must be too
    tables = [None, None]
    tables[grp.mor_index("e")] = (0, 1)
    tables[grp.mor_index("s")] = (0, 0)
    with pytest.raises(PresheafLawError, match="functoriality fails"):
        Presheaf(grp, (2,), tuple(tables))


def test_law_errors_name_the_identity_or_the_composite():
    """Table entries holding an identity are not rechecked for
    functoriality; a wrong identity action is reported as such, and a wrong
    composite of two non-identities names them."""
    grp = z2()
    with pytest.raises(
        PresheafLawError, match=r"^identity of '\*' must act as the identity$"
    ):
        Presheaf(grp, (2,), ((1, 0), (1, 0)))
    cat = poset_category(("a", "b", "c"), (("a", "b"), ("b", "c")))
    tables = [None] * len(cat.morphisms)
    for c in range(3):
        tables[cat.identity[c]] = (0, 1)
    tables[cat.mor_index("a->b")] = (0, 1)
    tables[cat.mor_index("b->c")] = (0, 1)
    tables[cat.mor_index("a->c")] = (1, 0)
    with pytest.raises(
        PresheafLawError, match=r"^functoriality fails at 'b->c' after 'a->b'$"
    ):
        Presheaf(cat, (2, 2, 2), tuple(tables))
    tables[cat.mor_index("a->c")] = (0, 1)
    Presheaf(cat, (2, 2, 2), tuple(tables))
    # P(a->c) is P(a->b) after P(b->c), not the other way round
    tables[cat.mor_index("a->b")] = (1, 0)
    tables[cat.mor_index("b->c")] = (0, 0)
    tables[cat.mor_index("a->c")] = (1, 1)
    Presheaf(cat, (2, 2, 2), tuple(tables))
    tables[cat.mor_index("a->c")] = (0, 0)
    with pytest.raises(PresheafLawError, match="functoriality fails"):
        Presheaf(cat, (2, 2, 2), tuple(tables))


def test_apply_and_sizes():
    cat = arrow()
    P = Presheaf(cat, (2, 2), ((0, 1), (0, 1), (1, 1)))
    f = cat.mor_index("f")
    assert P.sizes == (2, 2)
    assert P.actions[f][0] == 1
    assert P.actions[f] == (1, 1)


def test_yoneda_values_are_homs():
    cat = vee()
    z = cat.obj_index("z")
    yz = yoneda(cat, z)
    assert yz.sizes == (1, 1, 1)
    ya = yoneda(cat, cat.obj_index("x"))
    assert ya.sizes == (1, 0, 0)


def test_yoneda_action_is_precomposition():
    cat = z2()
    y = yoneda(cat, 0)
    s = cat.mor_index("s")
    e = cat.mor_index("e")
    # precomposing id by s gives s, and s by s gives the identity
    assert y.actions[s][e] == s
    assert y.actions[s][s] == e


def test_yoneda_lemma_by_counting():
    rng = random.Random(40)
    for build in (arrow, vee, z2, parallel_pair):
        cat = build()
        for _ in range(3):
            P = random_presheaf(cat, rng)
            for c in range(len(cat.objects)):
                assert len(presheaf_homs(yoneda(cat, c), P)) == P.sizes[c]


def test_homs_match_brute_force():
    rng = random.Random(41)
    for build in (arrow, z2, discrete2):
        cat = build()
        for _ in range(4):
            P = random_presheaf(cat, rng, max_value=2)
            Q = random_presheaf(cat, rng, max_value=2)
            for source, target in ((P, Q), (P, P)):
                brute = sorted(brute_homs(source, target))
                got = [t.components for t in presheaf_homs(source, target)]
                assert got == brute
                bijective = [
                    comps for comps in brute
                    if all(sorted(comp) == list(range(n))
                           for comp, n in zip(comps, target.sizes))
                ]
                isos = [t.components for t in presheaf_isos(source, target)]
                assert isos == bijective
                first = are_isomorphic(source, target)
                assert (first and first.components) == (
                    bijective[0] if bijective else None
                )


def test_compatible_families_match_brute_force():
    rng = random.Random(44)
    for _ in range(40):
        n = rng.randint(0, 5)
        sizes = [rng.randint(0, 3) for _ in range(n)]
        edges = [[] for _ in range(n)]
        for i in range(n):
            for _ in range(rng.randint(0, 2)):
                j = rng.randrange(n)
                if sizes[j]:
                    tab = tuple(rng.randrange(sizes[j]) for _ in range(sizes[i]))
                    edges[i].append((tab, j))
        brute = [
            v for v in product(*(range(m) for m in sizes))
            if all(v[j] == tab[v[i]] for i in range(n) for tab, j in edges[i])
        ]
        assert list(compatible_families(sizes, edges)) == brute


def test_hom_search_depth_is_not_bounded_by_recursion():
    cat = point()
    P = Presheaf(cat, (1500,), (tuple(range(1500)),))
    homs = presheaf_homs(P, terminal_presheaf(cat))
    assert [t.components for t in homs] == [((0,) * 1500,)]


def test_naturality_is_validated():
    cat = arrow()
    P = Presheaf(cat, (2, 2), ((0, 1), (0, 1), (0, 1)))
    Q = Presheaf(cat, (2, 2), ((0, 1), (0, 1), (1, 0)))
    with pytest.raises(PresheafLawError, match="naturality fails"):
        NatTransformation(P, Q, ((0, 1), (0, 1)))


def test_nat_transformations_check_the_category_and_the_component_count():
    T2, T = terminal_presheaf(discrete2()), terminal_presheaf(arrow())
    with pytest.raises(PresheafLawError, match="^presheaves live on different"):
        NatTransformation(T2, T, ((0,), (0,)))
    with pytest.raises(PresheafLawError, match="^presheaves live on different"):
        presheaf_homs(T2, T)
    for components in (((0,),), ((0,), (0,), (0,))):
        with pytest.raises(PresheafLawError, match=r"^\d components for 2 objects$"):
            NatTransformation(T, T, components)


def test_identity_and_composition_of_nats():
    cat = z2()
    reg = yoneda(cat, 0)
    ident = NatTransformation(reg, reg, ((0, 1),))
    others = presheaf_homs(reg, reg)
    assert ident in others
    for t in others:
        assert compose_nat(t, ident).components == t.components
        assert compose_nat(ident, t).components == t.components
    with pytest.raises(PresheafLawError):
        compose_nat(ident, presheaf_homs(reg, terminal_presheaf(cat))[0])


def test_iso_search_and_flags():
    cat = z2()
    reg = yoneda(cat, 0)
    autos = presheaf_isos(reg, reg)
    # the two group elements acting on the right
    assert len(autos) == 2
    for t in autos:
        assert t.is_componentwise_bijective()
    assert are_isomorphic(reg, reg) is not None
    two_fixed = Presheaf(cat, (2,), ((0, 1), (0, 1)))
    assert are_isomorphic(reg, two_fixed) is None


def test_terminal_is_a_unit():
    rng = random.Random(42)
    for build in (arrow, vee):
        cat = build()
        T = terminal_presheaf(cat)
        assert all(n == 1 for n in T.sizes)
        for _ in range(3):
            P = random_presheaf(cat, rng)
            assert len(presheaf_homs(P, T)) == 1


def test_product_universal_property_by_counting():
    rng = random.Random(43)
    cat = arrow()
    for _ in range(3):
        P = random_presheaf(cat, rng, max_value=2)
        Q = random_presheaf(cat, rng, max_value=2)
        R, p1, p2 = product_presheaf(P, Q)
        assert R.sizes == tuple(a * b for a, b in zip(P.sizes, Q.sizes))
        for _ in range(2):
            X = random_presheaf(cat, rng, max_value=2)
            pairs = len(presheaf_homs(X, P)) * len(presheaf_homs(X, Q))
            assert len(presheaf_homs(X, R)) == pairs


def test_projections_split_the_pairing():
    cat = vee()
    P = terminal_presheaf(cat)
    Q = yoneda(cat, cat.obj_index("z"))
    R, p1, p2 = product_presheaf(P, Q)
    for c in range(len(cat.objects)):
        seen = [
            (p1.components[c][i], p2.components[c][i])
            for i in range(R.sizes[c])
        ]
        assert seen == [divmod(i, Q.sizes[c]) for i in range(R.sizes[c])]


def test_equalizer_picks_agreeing_elements():
    cat = point()
    P = Presheaf(cat, (3,), ((0, 1, 2),))
    Q = Presheaf(cat, (2,), ((0, 1),))
    s = NatTransformation(P, Q, ((0, 1, 0),))
    t = NatTransformation(P, Q, ((0, 0, 0),))
    E, incl = equalizer_presheaf(s, t)
    assert E.sizes == (2,)
    assert incl.components == ((0, 2),)


def test_pullback_and_kernel_pair_by_counting():
    rng = random.Random(44)
    cat = arrow()
    for _ in range(4):
        P = random_presheaf(cat, rng, max_value=2)
        Q = random_presheaf(cat, rng, max_value=2)
        maps = presheaf_homs(P, Q)
        if not maps:
            continue
        t = maps[0]
        W, k1, k2 = kernel_pair(t)
        for c in range(len(cat.objects)):
            want = sum(
                1
                for x in range(P.sizes[c])
                for y in range(P.sizes[c])
                if t.components[c][x] == t.components[c][y]
            )
            assert W.sizes[c] == want
            for i in range(W.sizes[c]):
                x, y = k1.components[c][i], k2.components[c][i]
                assert t.components[c][x] == t.components[c][y]


def test_pullback_of_injections_is_empty():
    cat = point()
    P = Presheaf(cat, (1,), ((0,),))
    Q = Presheaf(cat, (1,), ((0,),))
    R = Presheaf(cat, (2,), ((0, 1),))
    s = NatTransformation(P, R, ((0,),))
    t = NatTransformation(Q, R, ((1,),))
    W, _, _ = pullback_presheaf(s, t)
    assert W.sizes == (0,)


def test_random_presheaf_and_determinism():
    for build in (arrow, vee, z2, parallel_pair):
        cat = build()
        a = random_presheaf(cat, random.Random(9))
        b = random_presheaf(cat, random.Random(9))
        assert a.sizes == b.sizes and a.actions == b.actions
        assert all(n <= 3 for n in a.sizes)


def test_random_presheaf_spread():
    cat = arrow()
    sizes = {
        random_presheaf(cat, random.Random(seed)).sizes for seed in range(40)
    }
    assert len(sizes) > 3
